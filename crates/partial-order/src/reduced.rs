//! Reduced reachability graphs via stubborn-set partial-order reduction.
//!
//! This module is the workspace's stand-in for the paper's "SPIN+PO" column:
//! it explores only the enabled members of a stubborn set at each state,
//! which preserves every reachable deadlock while skipping redundant
//! interleavings of independent transitions.

use std::time::{Duration, Instant};

use petri::checkpoint::{
    explore_segmented, push_state_table, read_state_table, ByteReader, ByteWriter, CheckpointError,
    EngineKind,
};
use petri::parallel::{
    default_threads, explore_frontier_seeded, Emit, FrontierOptions, FrontierSeed,
};
use petri::{
    Budget, CheckpointConfig, Marking, NetError, Outcome, PetriNet, Snapshot, TransitionId,
};

use crate::stubborn::{SeedStrategy, StubbornSets};

/// Section tags of a [`EngineKind::Reduced`] snapshot, after the shared
/// state table ([`push_state_table`] writes tags 1 and 2).
mod section {
    pub const DEADLOCKS: u32 = 3;
    pub const COUNTERS: u32 = 4;
    pub const STRATEGY: u32 = 5;
}

fn strategy_tag(s: SeedStrategy) -> u8 {
    match s {
        SeedStrategy::FirstEnabled => 0,
        SeedStrategy::BestOfEnabled => 1,
        SeedStrategy::ConflictCluster => 2,
    }
}

/// Options for [`ReducedReachability::explore`].
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

/// Result of a partial-order-reduced exploration.
///
/// The reduced graph visits a subset of the full reachability graph's states
/// but reaches *every* deadlock (possibly by a different interleaving), so
/// [`has_deadlock`](Self::has_deadlock) agrees with exhaustive analysis.
///
/// # Examples
///
/// ```
/// use partial_order::ReducedReachability;
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
/// let red = ReducedReachability::explore(&net, &Default::default(), &budget, &ckpt, None)?;
/// let (full, red) = (full.into_value(), red.into_value());
/// assert_eq!(full.state_count(), 8);
/// assert_eq!(red.state_count(), 4, "one interleaving: t0 t1 t2");
/// assert_eq!(full.has_deadlock(), red.has_deadlock());
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReducedReachability {
    states: Vec<Marking>,
    /// Per-state "successors computed" flag; `false` entries are the
    /// frontier a checkpointed run resumes from.
    expanded: Vec<bool>,
    deadlocks: Vec<u32>,
    edge_count: usize,
    elapsed: Duration,
    threads_used: usize,
}

impl ReducedReachability {
    /// Explores under a cooperative resource [`Budget`], optionally
    /// resuming a prior partial graph and/or writing crash-safe snapshots
    /// (see [`explore_segmented`] for the segmenting protocol).
    ///
    /// On exhaustion the reduced graph built so far is returned as
    /// [`Outcome::Partial`]: every stored marking is reachable, so any
    /// deadlock in it is real, but absence of deadlocks in a partial
    /// reduced graph proves nothing.
    ///
    /// The snapshot records the [`SeedStrategy`]; resuming under a
    /// different strategy is rejected, since mixing reduction rules
    /// mid-run would void the deadlock-preservation argument.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] on a safeness violation,
    /// [`NetError::WorkerPanicked`] if a parallel worker died, or
    /// [`NetError::Checkpoint`] for unusable snapshots.
    pub fn explore(
        net: &PetriNet,
        opts: &ReducedOptions,
        budget: &Budget,
        ckpt: &CheckpointConfig,
        resume: Option<&Snapshot>,
    ) -> Result<Outcome<Self>, NetError> {
        let visible = opts.visible.as_deref();
        let prior = match resume {
            Some(snap) => Some(Self::from_snapshot(net, snap, opts.strategy, visible)?),
            None => None,
        };
        explore_segmented(
            budget,
            ckpt,
            prior,
            ReducedReachability::state_count,
            |segment, prior| Self::explore_resumed(net, opts, segment, prior),
            |red| red.to_snapshot(net, opts.strategy, visible),
        )
    }

    /// Continues exploring `prior` (or starts fresh) under `budget`: one
    /// run of the shared frontier loop.
    fn explore_resumed(
        net: &PetriNet,
        opts: &ReducedOptions,
        budget: &Budget,
        prior: Option<Self>,
    ) -> Result<Outcome<Self>, NetError> {
        let start = Instant::now();
        let mut stubborn = StubbornSets::new_with_threads(net, opts.strategy, opts.threads.max(1));
        if let Some(visible) = &opts.visible {
            stubborn = stubborn.with_visible(visible.clone());
        }
        let (seed, base_elapsed) = match prior {
            Some(red) => (
                FrontierSeed {
                    states: red.states,
                    expanded: red.expanded,
                    // the reduced engine never records edges
                    succ: Vec::new(),
                    deadlocks: red.deadlocks,
                    edge_count: red.edge_count,
                },
                red.elapsed,
            ),
            None => (
                FrontierSeed::initial(net.initial_marking().clone()),
                Duration::ZERO,
            ),
        };
        // the spread fills the cfg-gated fault-injection field in test builds
        #[allow(clippy::needless_update)]
        let outcome = explore_frontier_seeded(
            seed,
            &FrontierOptions {
                threads: opts.threads,
                record_edges: false,
                budget: budget.clone(),
                ..Default::default()
            },
            |m: &Marking, emit: &mut Emit<'_, TransitionId, Marking>| {
                let mut next = m.clone();
                for t in stubborn.enabled_stubborn(m) {
                    net.fire_into(t, m, &mut next)?;
                    emit(t, &next);
                }
                Ok(())
            },
        )?;
        let elapsed = base_elapsed + start.elapsed();
        Ok(outcome
            .map(|result| ReducedReachability {
                states: result.states,
                expanded: result.expanded,
                deadlocks: result.deadlocks,
                edge_count: result.edge_count,
                elapsed,
                threads_used: opts.threads.max(1),
            })
            .with_elapsed(elapsed))
    }

    /// Serializes this (typically partial) reduced graph as a snapshot,
    /// recording the seed strategy and, for a property-preserving
    /// exploration, its visible-transition set. With `visible` `None` (the
    /// classical deadlock-preserving exploration) the strategy section is
    /// the one-byte legacy layout.
    pub fn to_snapshot(
        &self,
        net: &PetriNet,
        strategy: SeedStrategy,
        visible: Option<&[TransitionId]>,
    ) -> Snapshot {
        let mut snap = Snapshot::new(EngineKind::Reduced, net);
        push_state_table(&mut snap, net, &self.states, &self.expanded);

        let mut w = ByteWriter::new();
        w.usize(self.deadlocks.len());
        for &d in &self.deadlocks {
            w.u32(d);
        }
        snap.push_section(section::DEADLOCKS, w.into_bytes());

        let mut w = ByteWriter::new();
        w.usize(self.edge_count);
        w.u64(self.elapsed.as_nanos() as u64);
        snap.push_section(section::COUNTERS, w.into_bytes());

        let mut w = ByteWriter::new();
        w.u8(strategy_tag(strategy));
        if let Some(visible) = visible {
            // the legacy layout is exactly one byte; a visible run appends
            // its transition set so a resume can verify it explored under
            // the same visibility condition
            w.usize(visible.len());
            for &t in visible {
                w.u32(t.index() as u32);
            }
        }
        snap.push_section(section::STRATEGY, w.into_bytes());

        snap
    }

    /// Rebuilds a (typically partial) reduced graph from a snapshot,
    /// validating engine kind, net fingerprint, all structural invariants,
    /// and the stored strategy and visible-transition set against the
    /// current run's: a stubborn-set exploration is only a sound prefix
    /// for the reduction rule and visibility condition it was computed
    /// under.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for foreign, mismatched, or
    /// inconsistent snapshots, including any strategy or visible-set
    /// disagreement.
    pub fn from_snapshot(
        net: &PetriNet,
        snap: &Snapshot,
        strategy: SeedStrategy,
        visible: Option<&[TransitionId]>,
    ) -> Result<Self, CheckpointError> {
        snap.validate(EngineKind::Reduced, net.fingerprint())?;

        let payload = snap.require_section(section::STRATEGY)?;
        let mut r = ByteReader::new(payload, section::STRATEGY);
        let stored_strategy = r.u8()?;
        if stored_strategy != strategy_tag(strategy) {
            return Err(CheckpointError::Malformed {
                section: section::STRATEGY,
                detail: format!(
                    "snapshot uses stubborn-set strategy {stored_strategy}, run uses {}",
                    strategy_tag(strategy)
                ),
            });
        }
        // a one-byte payload is the legacy (deadlock-preserving) layout;
        // anything longer carries the visible set of a property run
        let stored_visible: Option<Vec<TransitionId>> = if payload.len() > 1 {
            let n = r.usize()?;
            if n > net.transition_count() {
                return Err(r.malformed("implausible visible-set length"));
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let t = r.u32()? as usize;
                if t >= net.transition_count() {
                    return Err(r.malformed("visible transition id out of range"));
                }
                v.push(TransitionId::new(t));
            }
            Some(v)
        } else {
            None
        };
        r.finish()?;
        if stored_visible.as_deref() != visible {
            return Err(CheckpointError::Malformed {
                section: section::STRATEGY,
                detail: format!(
                    "snapshot was written under visible set {:?}, run uses {:?} \
                     (explorations under different properties cannot be mixed)",
                    stored_visible.as_deref().map(<[TransitionId]>::len),
                    visible.map(<[TransitionId]>::len),
                ),
            });
        }

        let (states, expanded) = read_state_table(snap, net)?;
        let count = states.len();

        let mut r = ByteReader::new(
            snap.require_section(section::DEADLOCKS)?,
            section::DEADLOCKS,
        );
        let ndead = r.usize()?;
        let mut deadlocks = Vec::with_capacity(ndead.min(count));
        for _ in 0..ndead {
            let d = r.u32()?;
            if d as usize >= count || !expanded[d as usize] {
                return Err(r.malformed("deadlock id out of range or unexpanded"));
            }
            deadlocks.push(d);
        }
        r.finish()?;

        let mut r = ByteReader::new(snap.require_section(section::COUNTERS)?, section::COUNTERS);
        let edge_count = r.usize()?;
        let elapsed = Duration::from_nanos(r.u64()?);
        r.finish()?;

        Ok(ReducedReachability {
            states,
            expanded,
            deadlocks,
            edge_count,
            elapsed,
            threads_used: 1,
        })
    }

    /// Number of states in the reduced graph.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of edges fired during the reduced exploration.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `true` if a dead marking was reached. Stubborn-set reduction
    /// preserves deadlocks, so this agrees with exhaustive analysis.
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }

    /// The dead markings found.
    pub fn deadlock_markings(&self) -> impl Iterator<Item = &Marking> + '_ {
        self.deadlocks.iter().map(|&i| &self.states[i as usize])
    }

    /// All states of the reduced graph.
    pub fn markings(&self) -> impl ExactSizeIterator<Item = &Marking> + '_ {
        self.states.iter()
    }

    /// Wall-clock exploration time.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Exploration throughput in states per second.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// How many worker threads the exploration ran on.
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }

    /// Every transition fired at least once during the reduced exploration.
    pub fn fired_transitions(&self, net: &PetriNet) -> Vec<TransitionId> {
        // recomputed on demand from the stored states (states are few by
        // construction); used by the CLI for quick liveness hints
        let stubborn = StubbornSets::new(net, SeedStrategy::BestOfEnabled);
        let mut fired = vec![false; net.transition_count()];
        for m in &self.states {
            for t in stubborn.enabled_stubborn(m) {
                fired[t.index()] = true;
            }
        }
        net.transitions().filter(|t| fired[t.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore_full, explore_reduced, explore_reduced_with};
    use petri::NetBuilder;

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
        let outcome = ReducedReachability::explore(
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
        let reachable: std::collections::HashSet<_> =
            full.states().map(|s| full.marking(s).clone()).collect();
        for m in result.markings() {
            assert!(reachable.contains(m));
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
            ReducedReachability::explore(
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
        use std::collections::BTreeSet;
        let net = fig2(4);
        for threads in [1usize, 2] {
            let opts = ReducedOptions {
                strategy: SeedStrategy::BestOfEnabled,
                threads,
                visible: None,
            };
            let reference = ReducedReachability::explore(
                &net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap()
            .into_value();
            let partial = ReducedReachability::explore(
                &net,
                &opts,
                &Budget::default().cap_states(5),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap();
            assert!(!partial.is_complete(), "threads={threads}");
            let snap = partial.value().to_snapshot(&net, opts.strategy, None);
            let decoded = petri::Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let resumed = ReducedReachability::explore(
                &net,
                &opts,
                &Budget::default(),
                &petri::CheckpointConfig::default(),
                Some(&decoded),
            )
            .unwrap();
            assert!(resumed.is_complete(), "threads={threads}");
            let resumed = resumed.into_value();
            assert_eq!(resumed.state_count(), reference.state_count());
            assert_eq!(resumed.edge_count(), reference.edge_count());
            let ref_dead: BTreeSet<&Marking> = reference.deadlock_markings().collect();
            let res_dead: BTreeSet<&Marking> = resumed.deadlock_markings().collect();
            assert_eq!(ref_dead, res_dead, "threads={threads}");
        }
    }

    #[test]
    fn snapshot_strategy_mismatch_is_rejected() {
        let net = fig2(3);
        let red = explore_reduced(&net).unwrap();
        let snap = red.to_snapshot(&net, SeedStrategy::BestOfEnabled, None);
        let err =
            ReducedReachability::from_snapshot(&net, &snap, SeedStrategy::ConflictCluster, None)
                .unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }));
        // and the wrong engine kind is caught before anything decodes
        let full_snap = explore_full(&net).unwrap().to_snapshot(&net, true);
        let err =
            ReducedReachability::from_snapshot(&net, &full_snap, SeedStrategy::BestOfEnabled, None)
                .unwrap_err();
        assert!(matches!(err, CheckpointError::EngineMismatch { .. }));
    }

    #[test]
    fn dead_markings_are_really_dead() {
        let net = fig2(3);
        let red = explore_reduced(&net).unwrap();
        assert!(red.has_deadlock());
        for m in red.deadlock_markings() {
            assert!(net.is_dead(m));
        }
    }

    #[test]
    fn fired_transitions_reported() {
        let net = fig2(2);
        let red = explore_reduced(&net).unwrap();
        let fired = red.fired_transitions(&net);
        assert_eq!(
            fired.len(),
            net.transition_count(),
            "every branch fired somewhere"
        );
    }
}
