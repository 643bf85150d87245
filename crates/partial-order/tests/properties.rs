//! Differential property tests: stubborn-set reduction must preserve the
//! deadlock verdict for every seed strategy on arbitrary safe nets, and the
//! reduced graph is never larger than the full one.

use models::random::{random_safe_net, RandomNetConfig};
use partial_order::{ReducedOptions, SeedStrategy};
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

const STRATEGIES: [SeedStrategy; 3] = [
    SeedStrategy::FirstEnabled,
    SeedStrategy::BestOfEnabled,
    SeedStrategy::ConflictCluster,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deadlock preservation — the defining guarantee of stubborn sets.
    #[test]
    fn reduction_preserves_deadlock_verdict(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        for strategy in STRATEGIES {
            let red = explore_reduced_with(&net, &ReducedOptions { strategy, ..Default::default() }).expect("validated safe");
            prop_assert_eq!(
                red.has_deadlock(),
                full.has_deadlock(),
                "{:?}\n{}",
                strategy,
                petri::to_text(&net)
            );
        }
    }

    /// The reduced graph is a subgraph of the full one: never more states,
    /// and every visited marking is genuinely reachable.
    #[test]
    fn reduction_is_a_reduction(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        for strategy in STRATEGIES {
            let red = explore_reduced_with(&net, &ReducedOptions { strategy, ..Default::default() }).expect("validated safe");
            prop_assert!(red.state_count() <= full.state_count(), "{:?}", strategy);
            for s in red.states() {
                prop_assert!(full.contains(red.marking(s)), "{:?}: unreachable marking visited", strategy);
            }
        }
    }

    /// Dead markings found by the reduction are dead in the net.
    #[test]
    fn reduced_deadlocks_are_real(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let red = explore_reduced(&net).expect("validated safe");
        for &d in red.deadlocks() {
            prop_assert!(net.is_dead(red.marking(d)));
        }
    }

    /// Visible-transition preservation — the guarantee the property
    /// engines build on: with every transition that moves tokens on an
    /// observed place seeded into each closure, the reduced graph reaches
    /// a goal marking iff the full graph does, for every seed strategy.
    #[test]
    fn visible_sets_preserve_goal_reachability(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        // observe each place in turn (capped to keep the case cheap),
        // deriving the visible set through the real property pipeline
        for place in net.places().take(4) {
            let name = net.place_name(place);
            let prop = petri::Property::parse(&format!("EF m({name}) >= 1"))
                .expect("well-formed property");
            let compiled = prop.compile(&net).expect("name resolves");
            let visible = compiled
                .visible_transitions(&net)
                .expect("non-default properties have a visible set");
            let full_goal = full.states().any(|s| compiled.goal(&net, full.marking(s)));
            for strategy in STRATEGIES {
                let red = explore_reduced_with(&net, &ReducedOptions {
                        strategy,
                        visible: Some(visible.clone()),
                        ..Default::default()
                    }).expect("validated safe");
                let red_goal = red.states().any(|s| compiled.goal(&net, red.marking(s)));
                prop_assert_eq!(
                    red_goal,
                    full_goal,
                    "{:?} observing {}\n{}",
                    strategy,
                    name,
                    petri::to_text(&net)
                );
            }
        }
    }

    /// The stubborn closure invariants (D1/D2) hold at every reachable
    /// marking: the selected set is non-empty exactly at live markings, and
    /// every conflicting transition of a selected enabled transition would
    /// also be selected if enabled.
    #[test]
    fn stubborn_sets_satisfy_closure_conditions(seed in 0u64..50_000) {
        use partial_order::StubbornSets;
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        let stub = StubbornSets::new(&net, SeedStrategy::BestOfEnabled);
        for s in full.states().take(64) {
            let m = full.marking(s);
            let fire = stub.enabled_stubborn(m);
            prop_assert_eq!(fire.is_empty(), net.is_dead(m), "emptiness iff dead");
            // D2 on the witness closure: recompute a closure from the fired
            // set and check every selected enabled transition keeps its
            // conflicting enabled transitions selected
            let set = stub.closure(fire.iter().copied(), m);
            for t in net.transitions() {
                if set.contains(t.index()) && net.enabled(t, m) {
                    for u in net.transitions() {
                        if u != t && net.in_conflict(t, u) && net.enabled(u, m) {
                            prop_assert!(
                                set.contains(u.index()),
                                "D2 violated for {} vs {}",
                                net.transition_name(t),
                                net.transition_name(u)
                            );
                        }
                    }
                }
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

/// The complete stubborn-set reduced graph of `net`.
fn explore_reduced(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    explore_reduced_with(net, &partial_order::ReducedOptions::default())
}

/// The complete stubborn-set reduced graph of `net` under `opts`.
fn explore_reduced_with(
    net: &petri::PetriNet,
    opts: &partial_order::ReducedOptions,
) -> Result<petri::ReachabilityGraph, petri::NetError> {
    partial_order::explore(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
