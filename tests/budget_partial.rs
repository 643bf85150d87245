//! Budget-governed exploration properties (README §resource budgets): a
//! partial exploration must be a *sound prefix* of the full one — every
//! marking it stores is reachable — for every thread count, and its
//! coverage stats must be internally consistent.

use std::collections::BTreeSet;

use gpo_suite::prelude::*;
use models::random::{random_safe_net, RandomNetConfig};
use petri::ExploreOptions;
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

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

fn marking_set(rg: &ReachabilityGraph) -> BTreeSet<Marking> {
    rg.states().map(|s| rg.marking(s).clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The state set of a budget-limited exploration is a subset of the
    /// full exploration's, at every thread count — partial results never
    /// invent unreachable markings (the soundness base of partial
    /// deadlock counterexamples).
    #[test]
    fn partial_states_are_subset_of_full(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        let reachable = marking_set(&full);
        let cap = (full.state_count() / 2).max(1);
        for threads in THREADS {
            let outcome = ReachabilityGraph::explore(&net, &ExploreOptions { threads, ..Default::default() }, &Budget::default().cap_states(cap), &CheckpointConfig::default(), None).expect("validated safe");
            let rg = outcome.into_value();
            let partial = marking_set(&rg);
            prop_assert!(
                partial.is_subset(&reachable),
                "threads={}: partial set invented unreachable markings\n{}",
                threads,
                to_text(&net)
            );
        }
    }

    /// Coverage stats of a partial run are consistent: stored = expanded +
    /// frontier, stored never exceeds the cap by more than the bounded
    /// overshoot (one successor per worker — the budget is re-checked
    /// between successor insertions, not just between expansions), and a
    /// complete run is only reported when the budget genuinely covered
    /// the space.
    #[test]
    fn coverage_stats_are_consistent(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        let cap = (full.state_count() / 2).max(1);
        for threads in THREADS {
            let outcome = ReachabilityGraph::explore(&net, &ExploreOptions { threads, ..Default::default() }, &Budget::default().cap_states(cap), &CheckpointConfig::default(), None).expect("validated safe");
            match outcome {
                Outcome::Complete(rg) => {
                    prop_assert!(
                        rg.state_count() <= cap,
                        "threads={threads}: complete run over budget"
                    );
                    prop_assert_eq!(rg.state_count(), full.state_count());
                }
                Outcome::Partial { result, coverage, .. } => {
                    prop_assert_eq!(
                        coverage.states_stored,
                        result.state_count(),
                        "threads={}", threads
                    );
                    prop_assert_eq!(
                        coverage.states_expanded + coverage.frontier_len,
                        coverage.states_stored,
                        "threads={}", threads
                    );
                    let overshoot = threads.max(1);
                    prop_assert!(
                        coverage.states_stored <= cap + overshoot,
                        "threads={}: stored {} > cap {} + overshoot {}",
                        threads, coverage.states_stored, cap, overshoot
                    );
                }
            }
        }
    }

    /// Cancellation before the run stores at most the initial state's
    /// expansion, at every thread count.
    #[test]
    fn pre_cancelled_budget_stops_immediately(seed in 0u64..50_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let budget = Budget::default();
        budget.cancel();
        for threads in THREADS {
            let outcome = ReachabilityGraph::explore(&net, &ExploreOptions { threads, ..Default::default() }, &budget, &CheckpointConfig::default(), None).expect("validated safe");
            prop_assert_eq!(outcome.reason(), Some(ExhaustionReason::Cancelled));
            let fanout = net.transition_count();
            prop_assert!(
                outcome.value().state_count() <= 1 + threads.max(1) * fanout,
                "threads={}: {} states explored after cancellation",
                threads,
                outcome.value().state_count()
            );
        }
    }
}

/// The state cap lives in the shared [`Budget`] alone, and every engine
/// reports hitting it the same way: an honest `Partial` whose reason is
/// `States`, never an error.
#[test]
fn every_engine_reports_a_state_cap_as_partial() {
    type Row<'a> = (&'a str, Box<dyn Fn(&Budget) -> Outcome<()> + 'a>);
    let net = models::nsdp(8);
    let ckpt = CheckpointConfig::default();
    let deadlock = Property::deadlock().compile(&net).unwrap();
    let gpo = GpoOptions::default();
    let engines: Vec<Row> = vec![
        (
            "full",
            Box::new(|b| {
                ReachabilityGraph::explore(&net, &ExploreOptions::default(), b, &ckpt, None)
                    .unwrap()
                    .map(drop)
            }),
        ),
        (
            "po",
            Box::new(|b| {
                partial_order::explore(&net, &ReducedOptions::default(), b, &ckpt, None)
                    .unwrap()
                    .map(drop)
            }),
        ),
        (
            "gpo (explicit families)",
            Box::new(|b| {
                analyze::<gpo_core::ExplicitFamily>(&net, &gpo, b, &ckpt, None)
                    .unwrap()
                    .map(drop)
            }),
        ),
        (
            "gpo",
            Box::new(|b| {
                analyze::<ZddFamily>(&net, &gpo, b, &ckpt, None)
                    .unwrap()
                    .map(drop)
            }),
        ),
        (
            "bdd",
            Box::new(|b| {
                SymbolicReachability::explore(&net, &SymbolicOptions::default(), b, &deadlock)
                    .map(drop)
            }),
        ),
        ("unfold", Box::new(|b| Unfolding::build(&net, b).map(drop))),
    ];
    for (engine, run) in &engines {
        let outcome = run(&Budget::default().cap_states(2));
        assert_eq!(outcome.reason(), Some(ExhaustionReason::States), "{engine}");
        assert!(outcome.coverage().unwrap().states_stored > 0, "{engine}");
    }
}

/// Regression for the unbounded budget overshoot: one hub state firing
/// into `n` distinct leaves used to blow past `max_states`/`max_bytes` by
/// the whole fan-out, because the budget was only consulted between
/// expansions. With the per-successor re-check the overshoot is at most
/// one successor per worker, on both axes, at every thread count.
#[test]
fn wide_fanout_overshoot_is_bounded_per_worker() {
    use petri::parallel::STATE_OVERHEAD_BYTES;

    let fanout = 256;
    let mut b = NetBuilder::new("star");
    let hub = b.place_marked("hub");
    for i in 0..fanout {
        let leaf = b.place(format!("leaf{i}"));
        b.transition(format!("t{i}"), [hub], [leaf]);
    }
    let net = b.build().unwrap();
    let full = explore_full(&net).unwrap();
    let max_state_bytes = full
        .states()
        .map(|s| full.marking(s).approx_bytes() + STATE_OVERHEAD_BYTES)
        .max()
        .unwrap();

    for threads in THREADS {
        let state_cap = 4;
        let outcome = ReachabilityGraph::explore(
            &net,
            &ExploreOptions {
                threads,
                record_edges: false,
            },
            &Budget::default().cap_states(state_cap),
            &CheckpointConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.reason(), Some(ExhaustionReason::States));
        let coverage = outcome.coverage().unwrap().clone();
        assert!(
            coverage.states_stored > state_cap,
            "threads={threads}: limit was actually hit"
        );
        assert!(
            coverage.states_stored <= state_cap + threads.max(1),
            "threads={threads}: stored {} states, cap {state_cap}",
            coverage.states_stored
        );
        assert_eq!(
            coverage.states_expanded + coverage.frontier_len,
            coverage.states_stored,
            "threads={threads}"
        );

        let byte_cap = 700;
        let outcome = ReachabilityGraph::explore(
            &net,
            &ExploreOptions {
                threads,
                record_edges: false,
            },
            &Budget::default().cap_bytes(byte_cap),
            &CheckpointConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.reason(), Some(ExhaustionReason::Memory));
        let coverage = outcome.coverage().unwrap().clone();
        assert!(
            coverage.bytes_estimate > byte_cap,
            "threads={threads}: limit was actually hit"
        );
        assert!(
            coverage.bytes_estimate <= byte_cap + threads.max(1) * max_state_bytes,
            "threads={threads}: estimate {} bytes, cap {byte_cap}, \
             per-worker slack {max_state_bytes}",
            coverage.bytes_estimate
        );
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
