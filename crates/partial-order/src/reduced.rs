//! The stubborn-set graph: a [`ReachabilityGraph`] explored under the rule
//! that fires only the enabled members of a stubborn set at each state.
//!
//! This module is the workspace's stand-in for the paper's "SPIN+PO" column:
//! the reduced graph preserves every reachable deadlock while skipping
//! redundant interleavings of independent transitions. Its states, deadlocks
//! and origins are stored exactly as full reachability stores them, so its
//! witnesses carry the same firing traces.

use petri::parallel::default_threads;
use petri::{
    Budget, CheckpointConfig, ExploreOptions, NetError, Outcome, PetriNet, ReachabilityGraph,
    Snapshot, TransitionId,
};

use crate::stubborn::{SeedStrategy, StubbornSets};

/// Options for [`explore`].
#[derive(Debug, Clone)]
pub struct ReducedOptions {
    /// Seed strategy for the stubborn-set closure.
    pub strategy: SeedStrategy,
    /// Worker threads for the frontier exploration (see
    /// [`petri::ExploreOptions::threads`] for the determinism contract).
    /// The stubborn set of a marking is a pure function of that marking,
    /// so the reduced graph is the same graph for every thread count.
    pub threads: usize,
    /// Visible transitions of the property being checked, seeded into
    /// every stubborn-set closure ([`StubbornSets::with_visible`]);
    /// `None` for the classical deadlock-preserving exploration. The
    /// visible set becomes part of the snapshot identity: resuming with a
    /// different set is rejected.
    pub visible: Option<Vec<TransitionId>>,
}

impl Default for ReducedOptions {
    fn default() -> Self {
        ReducedOptions {
            strategy: SeedStrategy::default(),
            threads: default_threads(),
            visible: None,
        }
    }
}

/// Explores the stubborn-set graph of `net` under a cooperative resource
/// [`Budget`], optionally resuming a prior partial graph and/or writing
/// crash-safe snapshots: [`ReachabilityGraph::explore_under`] with the
/// [`StubbornSets`] of `opts` as the rule. No edges are recorded; every
/// state's origin is, so [`ReachabilityGraph::path_to`] gives witness
/// traces.
///
/// The reduced graph visits a subset of the full graph's states but
/// reaches *every* deadlock (possibly by a different interleaving), so
/// [`ReachabilityGraph::has_deadlock`] agrees with exhaustive analysis. On
/// exhaustion the graph built so far is returned as [`Outcome::Partial`]:
/// every stored marking is reachable, so any deadlock in it is real, but
/// the absence of deadlocks in a partial reduced graph proves nothing.
///
/// The snapshot records the [`SeedStrategy`] and the visible set; resuming
/// under a different one is rejected, since mixing reduction rules mid-run
/// would void the deadlock-preservation argument.
///
/// # Errors
///
/// Returns [`NetError::NotSafe`] on a safeness violation,
/// [`NetError::WorkerPanicked`] if a parallel worker died, or
/// [`NetError::Checkpoint`] for unusable snapshots.
///
/// # Examples
///
/// ```
/// use partial_order::ReducedOptions;
/// use petri::{Budget, CheckpointConfig, NetBuilder, ReachabilityGraph};
///
/// // three independent strands: full graph has 8 states, reduced has 4
/// let mut b = NetBuilder::new("n");
/// for i in 0..3 {
///     let p = b.place_marked(format!("p{i}"));
///     let q = b.place(format!("q{i}"));
///     b.transition(format!("t{i}"), [p], [q]);
/// }
/// let net = b.build()?;
/// let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
/// let full = ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)?;
/// let opts = ReducedOptions::default();
/// let red = partial_order::explore(&net, &opts, &budget, &ckpt, None)?;
/// let (full, red) = (full.into_value(), red.into_value());
/// assert_eq!(full.state_count(), 8);
/// assert_eq!(red.state_count(), 4, "one interleaving: t0 t1 t2");
/// assert_eq!(full.has_deadlock(), red.has_deadlock());
/// assert_eq!(red.path_to(red.deadlocks()[0]).map(|t| t.len()), Some(3));
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn explore(
    net: &PetriNet,
    opts: &ReducedOptions,
    budget: &Budget,
    ckpt: &CheckpointConfig,
    resume: Option<&Snapshot>,
) -> Result<Outcome<ReachabilityGraph>, NetError> {
    let mut rule = StubbornSets::new(net, opts.strategy);
    if let Some(visible) = &opts.visible {
        rule = rule.with_visible(visible.clone());
    }
    let explore = ExploreOptions {
        record_edges: false,
        threads: opts.threads,
    };
    ReachabilityGraph::explore_under(net, &explore, &rule, budget, ckpt, resume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore_full, explore_reduced, explore_reduced_with};
    use petri::{Marking, NetBuilder};

    /// The paper's Figure 2 net: n concurrently marked binary conflict
    /// places.
    fn fig2(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("fig2");
        for i in 0..n {
            let c = b.place_marked(format!("c{i}"));
            let a = b.place(format!("a{i}"));
            let bb = b.place(format!("b{i}"));
            b.transition(format!("A{i}"), [c], [a]);
            b.transition(format!("B{i}"), [c], [bb]);
        }
        b.build().unwrap()
    }

    fn deadlock_markings(rg: &ReachabilityGraph) -> std::collections::BTreeSet<&Marking> {
        rg.deadlocks().iter().map(|&d| rg.marking(d)).collect()
    }

    #[test]
    fn fig2_reduced_graph_matches_paper_formula() {
        // the paper: anticipation still needs 2^(N+1) - 1 states
        for n in 1..=6 {
            let red = explore_reduced_with(
                &fig2(n),
                &ReducedOptions {
                    strategy: SeedStrategy::ConflictCluster,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(red.state_count(), (1 << (n + 1)) - 1, "n={n}");
        }
    }

    #[test]
    fn fig2_full_graph_is_three_to_the_n() {
        for n in 1..=5 {
            let full = explore_full(&fig2(n)).unwrap();
            assert_eq!(full.state_count(), 3usize.pow(n as u32), "n={n}");
        }
    }

    #[test]
    fn deadlock_preserved_on_resource_cycle() {
        let mut b = NetBuilder::new("deadlock");
        let r1 = b.place_marked("r1");
        let r2 = b.place_marked("r2");
        let a0 = b.place_marked("a0");
        let a1 = b.place("a1");
        let b0 = b.place_marked("b0");
        let b1 = b.place("b1");
        b.transition("a_take1", [a0, r1], [a1]);
        b.transition("a_take2", [a1, r2], [a0, r1, r2]);
        b.transition("b_take2", [b0, r2], [b1]);
        b.transition("b_take1", [b1, r1], [b0, r1, r2]);
        let net = b.build().unwrap();
        let full = explore_full(&net).unwrap();
        for strategy in [
            SeedStrategy::FirstEnabled,
            SeedStrategy::BestOfEnabled,
            SeedStrategy::ConflictCluster,
        ] {
            let red = explore_reduced_with(
                &net,
                &ReducedOptions {
                    strategy,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(red.has_deadlock(), full.has_deadlock(), "{strategy:?}");
            assert!(red.state_count() <= full.state_count());
        }
    }

    #[test]
    fn deadlock_free_cycle_stays_deadlock_free() {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let net = b.build().unwrap();
        let red = explore_reduced(&net).unwrap();
        assert!(!red.has_deadlock());
        assert_eq!(red.state_count(), 2);
    }

    #[test]
    fn bounded_exploration_returns_partial_graph() {
        use petri::ExhaustionReason;
        let outcome = explore(
            &fig2(4),
            &ReducedOptions {
                strategy: SeedStrategy::BestOfEnabled,
                threads: 1,
                visible: None,
            },
            &Budget::default().cap_states(3),
            &CheckpointConfig::default(),
            None,
        )
        .unwrap();
        let Outcome::Partial {
            result,
            reason,
            coverage,
        } = outcome
        else {
            panic!("expected a partial outcome");
        };
        assert_eq!(reason, ExhaustionReason::States);
        assert!(result.state_count() >= 3, "keeps the graph built so far");
        assert_eq!(coverage.states_stored, result.state_count());
        assert!(coverage.frontier_len > 0, "work was left unexplored");
        // every stored marking of the partial graph is genuinely reachable
        let full = explore_full(&fig2(4)).unwrap();
        for s in result.states() {
            assert!(full.contains(result.marking(s)));
        }
    }

    #[test]
    fn state_limit_enforced() {
        use petri::ExhaustionReason;
        let opts = ReducedOptions {
            strategy: SeedStrategy::BestOfEnabled,
            ..Default::default()
        };
        let run = |cap| {
            explore(
                &fig2(4),
                &opts,
                &Budget::default().cap_states(cap),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap()
        };
        let total = run(usize::MAX).into_value().state_count();
        assert!(total > 3);
        assert_eq!(run(3).reason(), Some(ExhaustionReason::States));
        // the cap is inclusive: a cap of exactly the reduced size completes
        assert_eq!(run(total - 1).reason(), Some(ExhaustionReason::States));
        let at_cap = run(total);
        assert_eq!(at_cap.reason(), None);
        assert_eq!(at_cap.into_value().state_count(), total);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let net = fig2(4);
        for threads in [1usize, 2] {
            let opts = ReducedOptions {
                strategy: SeedStrategy::BestOfEnabled,
                threads,
                visible: None,
            };
            let run = |budget: &Budget, resume| {
                explore(&net, &opts, budget, &CheckpointConfig::default(), resume).unwrap()
            };
            let reference = run(&Budget::default(), None).into_value();
            let partial = run(&Budget::default().cap_states(5), None);
            assert!(!partial.is_complete(), "threads={threads}");
            let snap = partial.value().to_snapshot(&net, false);
            assert_eq!(snap.engine, petri::EngineKind::Reduced);
            let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let resumed = run(&Budget::default(), Some(&decoded));
            assert!(resumed.is_complete(), "threads={threads}");
            let resumed = resumed.into_value();
            assert_eq!(resumed.state_count(), reference.state_count());
            assert_eq!(resumed.edge_count(), reference.edge_count());
            assert_eq!(
                deadlock_markings(&resumed),
                deadlock_markings(&reference),
                "threads={threads}"
            );
            if threads == 1 {
                for s in reference.states() {
                    assert_eq!(resumed.marking(s), reference.marking(s), "ids");
                    assert_eq!(resumed.path_to(s), reference.path_to(s), "{s}");
                }
            }
        }
    }

    #[test]
    fn snapshot_strategy_mismatch_is_rejected() {
        let net = fig2(3);
        let resume = |snap: &Snapshot, strategy, visible| {
            let opts = ReducedOptions {
                strategy,
                threads: 1,
                visible,
            };
            let ckpt = CheckpointConfig::default();
            match explore(&net, &opts, &Budget::default(), &ckpt, Some(snap)) {
                Err(NetError::Checkpoint(detail)) => detail,
                other => panic!("expected a checkpoint error, got {other:?}"),
            }
        };
        let snap = explore_reduced(&net).unwrap().to_snapshot(&net, false);
        let err = resume(&snap, SeedStrategy::ConflictCluster, None);
        assert!(err.contains("another reduction rule"), "{err}");
        // a property run's visible set is part of the rule as well
        let visible = Some(vec![TransitionId::new(0)]);
        let err = resume(&snap, SeedStrategy::BestOfEnabled, visible);
        assert!(err.contains("another reduction rule"), "{err}");
        // and the wrong engine kind is caught before anything decodes
        let full_snap = explore_full(&net).unwrap().to_snapshot(&net, false);
        let err = resume(&full_snap, SeedStrategy::BestOfEnabled, None);
        assert!(err.contains("written by engine `full`"), "{err}");
    }

    #[test]
    fn dead_markings_are_really_dead() {
        let net = fig2(3);
        let red = explore_reduced(&net).unwrap();
        assert!(red.has_deadlock());
        for &d in red.deadlocks() {
            assert!(net.is_dead(red.marking(d)));
            let path = red.path_to(d).unwrap();
            let m = net.fire_sequence(net.initial_marking(), path).unwrap();
            assert_eq!(m.as_ref(), Some(red.marking(d)), "the trace replays");
        }
    }
}
