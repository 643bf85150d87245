//! Determinism contract of the parallel frontier engine (README §parallel
//! exploration): for every model and every thread count, the reachable
//! state *set*, the deadlock marking *set*, and the edge *count* are
//! identical — only state ids may permute.

use std::collections::BTreeSet;

use gpo_suite::prelude::*;
use petri::ExploreOptions;

const THREADS: [usize; 3] = [1, 2, 8];

/// Small instances of every model in `crates/models`, plus the paper's
/// figure nets that have interesting structure.
fn model_zoo() -> Vec<(String, PetriNet)> {
    vec![
        ("fig2(4)".into(), models::figures::fig2(4)),
        ("fig7".into(), models::figures::fig7()),
        ("nsdp(4)".into(), models::nsdp(4)),
        ("readers_writers(4)".into(), models::readers_writers(4)),
        ("overtake(3)".into(), models::overtake(3)),
        ("asat(4)".into(), models::asat(4)),
        ("scheduler(4)".into(), models::scheduler(4)),
    ]
}

fn marking_set<'a>(ms: impl Iterator<Item = &'a Marking>) -> BTreeSet<Marking> {
    ms.cloned().collect()
}

#[test]
fn full_graph_identical_across_thread_counts() {
    for (name, net) in model_zoo() {
        let mut baseline: Option<(BTreeSet<Marking>, BTreeSet<Marking>, usize)> = None;
        for threads in THREADS {
            let rg = explore_full_with(
                &net,
                &ExploreOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            let states = marking_set(rg.states().map(|s| rg.marking(s)));
            let deadlocks = marking_set(rg.deadlocks().iter().map(|&s| rg.marking(s)));
            assert_eq!(states.len(), rg.state_count(), "{name} threads={threads}");
            let obs = (states, deadlocks, rg.edge_count());
            match &baseline {
                None => baseline = Some(obs),
                Some(b) => {
                    assert_eq!(b.0, obs.0, "{name}: state set differs at threads={threads}");
                    assert_eq!(
                        b.1, obs.1,
                        "{name}: deadlock set differs at threads={threads}"
                    );
                    assert_eq!(
                        b.2, obs.2,
                        "{name}: edge count differs at threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn reduced_graph_identical_across_thread_counts() {
    for (name, net) in model_zoo() {
        for strategy in [
            SeedStrategy::FirstEnabled,
            SeedStrategy::BestOfEnabled,
            SeedStrategy::ConflictCluster,
        ] {
            let mut baseline: Option<(BTreeSet<Marking>, BTreeSet<Marking>, usize)> = None;
            for threads in THREADS {
                let red = explore_reduced_with(
                    &net,
                    &ReducedOptions {
                        strategy,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap();
                let states = marking_set(red.states().map(|s| red.marking(s)));
                let deadlocks = marking_set(red.deadlocks().iter().map(|&s| red.marking(s)));
                // every state's trace replays, at every thread count
                for s in red.states() {
                    let trace = red.path_to(s).expect("every state has an origin");
                    let end = net.fire_sequence(net.initial_marking(), trace).unwrap();
                    assert_eq!(
                        end.as_ref(),
                        Some(red.marking(s)),
                        "{name} threads={threads}"
                    );
                }
                let obs = (states, deadlocks, red.edge_count());
                match &baseline {
                    None => baseline = Some(obs),
                    Some(b) => {
                        assert_eq!(
                            b.0, obs.0,
                            "{name}/{strategy:?}: state set differs at threads={threads}"
                        );
                        assert_eq!(
                            b.1, obs.1,
                            "{name}/{strategy:?}: deadlock set differs at threads={threads}"
                        );
                        assert_eq!(
                            b.2, obs.2,
                            "{name}/{strategy:?}: edge count differs at threads={threads}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_agrees_with_full_verification_report() {
    // the downstream consumers (verify, gpo differential tests) only look
    // at counts and deadlock flags; cross-check against the serial engine
    for (name, net) in model_zoo() {
        let serial = explore_full_with(
            &net,
            &ExploreOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = explore_full_with(
            &net,
            &ExploreOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.state_count(), parallel.state_count(), "{name}");
        assert_eq!(serial.has_deadlock(), parallel.has_deadlock(), "{name}");
        assert_eq!(
            serial.deadlocks().len(),
            parallel.deadlocks().len(),
            "{name}"
        );
        assert_eq!(serial.edge_count(), parallel.edge_count(), "{name}");
        assert_eq!(parallel.threads_used(), 4);
    }
}

#[test]
fn state_limit_reported_for_any_thread_count() {
    let net = models::nsdp(5);
    for threads in THREADS {
        let outcome = ReachabilityGraph::explore(
            &net,
            &ExploreOptions {
                threads,
                ..Default::default()
            },
            &Budget::default().cap_states(10),
            &CheckpointConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(
            outcome.reason(),
            Some(ExhaustionReason::States),
            "threads={threads}"
        );
    }
}

/// One seed state, a deep chain whose every link also fans out wide: the
/// schedule is dominated by work stealing (one worker advances the chain
/// while thieves nibble the dead-end leaves), which is exactly the shape
/// the per-worker deques were built for.
fn steal_heavy_comb(depth: usize, width: usize) -> PetriNet {
    let mut b = NetBuilder::new("comb");
    let mut cur = b.place_marked("c0");
    for i in 0..depth {
        let next = b.place(format!("c{}", i + 1));
        b.transition(format!("t{i}"), [cur], [next]);
        for j in 0..width {
            let d = b.place(format!("d{i}_{j}"));
            b.transition(format!("u{i}_{j}"), [cur], [d]);
        }
        cur = next;
    }
    b.build().unwrap()
}

#[test]
fn steal_heavy_schedule_identical_across_thread_counts() {
    let net = steal_heavy_comb(40, 8);
    let gpo_net = steal_heavy_comb(6, 2);
    let expected_states = 41 + 40 * 8;
    let mut full_base: Option<(BTreeSet<Marking>, BTreeSet<Marking>, usize)> = None;
    let mut gpo_base: Option<(usize, bool)> = None;
    for threads in THREADS {
        let rg = explore_full_with(
            &net,
            &ExploreOptions {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rg.state_count(), expected_states, "threads={threads}");
        let obs = (
            marking_set(rg.states().map(|s| rg.marking(s))),
            marking_set(rg.deadlocks().iter().map(|&s| rg.marking(s))),
            rg.edge_count(),
        );
        match &full_base {
            None => full_base = Some(obs),
            Some(b) => assert_eq!(b, &obs, "full engine diverges at threads={threads}"),
        }

        let red = explore_reduced_with(
            &net,
            &ReducedOptions {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            red.has_deadlock(),
            rg.has_deadlock(),
            "reduced engine verdict diverges at threads={threads}"
        );

        // the GPN valid-set relation blows up on the 40×8 comb, so the
        // GPO leg runs a smaller instance of the same steal-heavy shape
        let gpo = analyze_all_with(
            &gpo_net,
            &GpoOptions {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        let obs = (gpo.state_count, gpo.deadlock_possible);
        match &gpo_base {
            None => gpo_base = Some(obs),
            Some(b) => assert_eq!(b, &obs, "gpo engine diverges at threads={threads}"),
        }
    }
}

/// The complete reachability graph of `net` under `opts`.
fn explore_full_with(
    net: &petri::PetriNet,
    opts: &petri::ExploreOptions,
) -> Result<petri::ReachabilityGraph, petri::NetError> {
    petri::ReachabilityGraph::explore(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
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

/// The complete generalized analysis of `net` under `opts`.
fn analyze_all_with(
    net: &petri::PetriNet,
    opts: &gpo_core::GpoOptions,
) -> Result<gpo_core::GpoReport, gpo_core::GpoError> {
    gpo_core::analyze::<gpo_core::ZddFamily>(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
