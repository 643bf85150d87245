//! Property tests of the checkpoint layer on seeded random safe nets:
//! snapshot byte round-trips are lossless, and a corrupted snapshot is
//! always rejected with a typed error — never a panic and never a
//! silently wrong verdict.

use models::random::{random_safe_net, RandomNetConfig};
use petri::{Budget, CheckpointConfig, ExploreOptions, Outcome, ReachabilityGraph, Snapshot};
use proptest::prelude::*;

fn cfg() -> RandomNetConfig {
    RandomNetConfig {
        components: 3,
        places_per_component: 4,
        resources: 2,
        resource_use_prob: 0.4,
        choice_prob: 0.5,
        max_states: 4_000,
    }
}

fn opts() -> ExploreOptions {
    ExploreOptions {
        record_edges: true,
        threads: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An interrupted exploration, snapshotted, serialized to bytes,
    /// decoded, and resumed reaches exactly the uninterrupted result.
    #[test]
    fn snapshot_round_trip_resumes_identically(seed in 0u64..100_000, cap in 1usize..40) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let reference = explore_full(&net).expect("validated safe");
        let partial = ReachabilityGraph::explore(&net, &opts(), &Budget::default().cap_states(cap), &CheckpointConfig::default(), None)
        .expect("validated safe");
        let Outcome::Partial { result, .. } = partial else {
            // the cap exceeded the whole state space: nothing to resume
            return Ok(());
        };
        let bytes = result.to_snapshot(&net, true).to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("own bytes decode");
        let resumed = ReachabilityGraph::explore(&net, &opts(), &Budget::default(), &CheckpointConfig::default(), Some(&snap))
        .expect("resume from own snapshot")
        .into_value();
        prop_assert_eq!(resumed.state_count(), reference.state_count());
        prop_assert_eq!(resumed.edge_count(), reference.edge_count());
        prop_assert_eq!(resumed.has_deadlock(), reference.has_deadlock());
    }

    /// A single flipped bit anywhere in the snapshot bytes is caught by a
    /// typed error at decode or validation time, or — when the flip cannot
    /// change meaning — resuming still reproduces the reference verdict.
    #[test]
    fn bit_flips_never_panic_or_change_the_verdict(seed in 0u64..100_000, bit in 0usize..1 << 16) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let partial = ReachabilityGraph::explore(&net, &opts(), &Budget::default().cap_states(3), &CheckpointConfig::default(), None)
        .expect("validated safe");
        let mut bytes = partial.value().to_snapshot(&net, true).to_bytes();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let Ok(decoded) = Snapshot::from_bytes(&bytes) else {
            return Ok(()); // typed rejection at the envelope
        };
        match ReachabilityGraph::explore(&net, &opts(), &Budget::default(), &CheckpointConfig::default(), Some(&decoded)) {
            Err(_) => {} // typed rejection at validation
            Ok(out) => {
                let reference = explore_full(&net).expect("validated safe");
                let resumed = out.into_value();
                prop_assert_eq!(resumed.state_count(), reference.state_count());
                prop_assert_eq!(resumed.has_deadlock(), reference.has_deadlock());
            }
        }
    }
}

/// The complete reachability graph of `net`.
fn explore_full(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    petri::ReachabilityGraph::explore(
        net,
        &Default::default(),
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
