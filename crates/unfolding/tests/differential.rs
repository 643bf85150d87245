//! Differential property tests: the finite complete prefix must reproduce
//! exactly the reachable-marking set of exhaustive exploration on random
//! safe nets — completeness and soundness in one assertion.

use models::random::{random_safe_net, RandomNetConfig};
use petri::{Budget, Outcome};
use proptest::prelude::*;
use unfolding::Unfolding;

fn cfg() -> RandomNetConfig {
    RandomNetConfig {
        components: 2,
        places_per_component: 3,
        resources: 1,
        resource_use_prob: 0.4,
        choice_prob: 0.6,
        max_states: 1_500,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Marking completeness and soundness: the prefix reaches exactly the
    /// markings the full graph reaches.
    #[test]
    fn prefix_markings_equal_reachability_graph(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let Outcome::Complete(unf) = Unfolding::build(&net, &Budget::default().cap_states(20_000)) else {
            return Ok(());
        };
        let rg = explore_full(&net).expect("validated safe");
        let marks = unf.reachable_markings(&net, &Budget::default()).into_value();
        prop_assert_eq!(
            marks.len(),
            rg.state_count(),
            "marking sets differ\n{}",
            petri::to_text(&net)
        );
        for s in rg.states() {
            prop_assert!(marks.contains(rg.marking(s)), "missing marking {}", rg.marking(s));
        }
    }

    /// Deadlock verdicts agree with the ground truth.
    #[test]
    fn prefix_deadlock_verdict_matches(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let Outcome::Complete(unf) = Unfolding::build(&net, &Budget::default().cap_states(20_000)) else {
            return Ok(());
        };
        let rg = explore_full(&net).expect("validated safe");
        prop_assert_eq!(unf.has_deadlock(&net, &Budget::default()).into_value(), rg.has_deadlock(), "\n{}", petri::to_text(&net));
    }

    /// Cut-off events never open new behaviour: removing their successors
    /// (which the construction already does) still covers every marking —
    /// checked implicitly above — and every event's local marking is
    /// genuinely reachable.
    #[test]
    fn event_marks_are_reachable(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let Outcome::Complete(unf) = Unfolding::build(&net, &Budget::default().cap_states(20_000)) else {
            return Ok(());
        };
        let rg = explore_full(&net).expect("validated safe");
        for e in unf.prefix().events() {
            prop_assert!(
                rg.contains(unf.prefix().mark_of(e)),
                "Mark([e]) unreachable for event of {}",
                net.transition_name(unf.prefix().transition_of(e))
            );
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
