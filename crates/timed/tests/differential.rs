//! Differential property tests of the state-class construction:
//! with untimed intervals the class graph must match exhaustive
//! exploration exactly; with arbitrary intervals it must stay a sound
//! restriction of the untimed behaviour.

use models::random::{random_safe_net, RandomNetConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timed::{ClassGraph, Interval, TimedNet, INF};

fn cfg() -> RandomNetConfig {
    RandomNetConfig {
        components: 2,
        places_per_component: 3,
        resources: 1,
        resource_use_prob: 0.4,
        choice_prob: 0.5,
        max_states: 1_500,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The untimed-equivalence theorem: every interval `[0, ∞)` makes the
    /// state-class graph isomorphic to the reachability graph.
    #[test]
    fn untimed_class_graph_equals_reachability_graph(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let rg = explore_full(&net).expect("validated safe");
        let graph = ClassGraph::explore(&TimedNet::new(net), &Default::default()).expect("within budget");
        prop_assert_eq!(graph.class_count(), rg.state_count());
        prop_assert_eq!(graph.edge_count(), rg.edge_count());
        prop_assert_eq!(graph.has_deadlock(), rg.has_deadlock());
    }

    /// Random timing restricts behaviour: every timed-reachable marking is
    /// untimed-reachable, and every timed firing edge exists untimed.
    #[test]
    fn timing_only_restricts(seed in 0u64..100_000, iv_seed in 0u64..1_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let rg = explore_full(&net).expect("validated safe");
        let mut rng = StdRng::seed_from_u64(iv_seed);
        let mut timed = TimedNet::new(net);
        let transitions: Vec<_> = timed.net().transitions().collect();
        for t in transitions {
            let eft = rng.gen_range(0..4i64);
            let lft = if rng.gen_bool(0.3) { INF } else { eft + rng.gen_range(0..4i64) };
            timed = timed.with_interval(t, Interval { eft, lft });
        }
        let graph = ClassGraph::explore(&timed, &Default::default()).expect("within budget");
        for m in graph.reachable_markings() {
            prop_assert!(
                rg.contains(&m),
                "timed analysis invented a marking\n{}",
                petri::to_text(timed.net())
            );
        }
        // a marking-dead class is dead untimed as well; a *time* deadlock
        // cannot occur under strong semantics with non-empty intervals
        for &d in graph.deadlocks() {
            prop_assert!(timed.net().is_dead(graph.classes()[d].marking()));
        }
    }

    /// Domains are internally consistent: lower bounds never exceed upper
    /// bounds for any enabled transition of any class.
    #[test]
    fn firing_domains_are_consistent(seed in 0u64..50_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let mut timed = TimedNet::new(net);
        let transitions: Vec<_> = timed.net().transitions().collect();
        for (i, t) in transitions.into_iter().enumerate() {
            timed = timed.with_interval(t, Interval::new(i as i64 % 3, i as i64 % 3 + 2));
        }
        let graph = ClassGraph::explore(&timed, &Default::default()).expect("within budget");
        for class in graph.classes() {
            for i in 1..=class.enabled().len() {
                prop_assert!(class.domain().lower(i) <= class.domain().upper(i));
                prop_assert!(class.domain().lower(i) >= 0);
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
