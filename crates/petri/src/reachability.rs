//! Exhaustive reachability analysis ("conventional analysis", §2.2).
//!
//! Builds the full reachability graph `RG(N)` of a safe net by breadth-first
//! exploration with hashed visited states. This is the ground truth the
//! reduced analyses are compared against, and the "States" column of the
//! paper's Table 1.

use std::fmt;
use std::time::{Duration, Instant};

use crate::budget::{Budget, Outcome};
use crate::checkpoint::{
    explore_segmented, push_state_table, read_state_table, ByteReader, ByteWriter,
    CheckpointConfig, CheckpointError, EngineKind, Snapshot,
};
use crate::error::NetError;
use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::PetriNet;
use crate::parallel::{default_threads, explore_frontier_seeded, FrontierOptions, FrontierSeed};

/// Section tags of a [`EngineKind::Full`] snapshot, after the shared state
/// table ([`push_state_table`] writes tags 1 and 2).
mod section {
    pub const EDGES: u32 = 3;
    pub const DEADLOCKS: u32 = 4;
    pub const COUNTERS: u32 = 5;
}

/// Identifier of a state (vertex) in a [`ReachabilityGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(u32);

impl StateId {
    /// The raw index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Internal constructor for indexes already known to be in range
    /// (anything `< states.len()` of a built graph, since the frontier
    /// loop hands out `u32` ids).
    fn new(i: usize) -> Self {
        debug_assert!(
            u32::try_from(i).is_ok(),
            "state index validated at insertion"
        );
        StateId(i as u32)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Options controlling [`ReachabilityGraph::explore`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Record the labelled edges (needed for path queries and DOT export);
    /// disable to save memory when only the state count matters.
    pub record_edges: bool,
    /// Worker threads for the frontier exploration. The default is the
    /// machine's available parallelism; `1` runs the frontier loop's
    /// FIFO branch on the calling thread (fully deterministic state ids).
    /// For any thread count the reachable state set, deadlock set, and
    /// edge count are identical; ids may permute when `threads > 1`.
    pub threads: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            record_edges: true,
            threads: default_threads(),
        }
    }
}

/// The full reachability graph of a safe Petri net.
///
/// # Examples
///
/// ```
/// use petri::{Budget, CheckpointConfig, NetBuilder, ReachabilityGraph};
///
/// // Three concurrent transitions: 2^3 = 8 reachable states (paper Fig. 1).
/// let mut b = NetBuilder::new("fig1");
/// for i in 0..3 {
///     let p = b.place_marked(format!("in{i}"));
///     let q = b.place(format!("out{i}"));
///     b.transition(format!("t{i}"), [p], [q]);
/// }
/// let net = b.build()?;
/// let rg = ReachabilityGraph::explore(
///     &net,
///     &Default::default(),
///     &Budget::default(),
///     &CheckpointConfig::default(),
///     None,
/// )?
/// .into_value();
/// assert_eq!(rg.state_count(), 8);
/// assert_eq!(rg.deadlocks().len(), 1);
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    states: Vec<Marking>,
    /// Per-state "successors computed" flag; the `false` entries are the
    /// frontier a checkpointed run resumes from.
    expanded: Vec<bool>,
    /// Per-state outgoing labelled edges; empty if `record_edges` was off.
    succ: Vec<Vec<(TransitionId, StateId)>>,
    initial: StateId,
    deadlocks: Vec<StateId>,
    edge_count: usize,
    elapsed: Duration,
    threads_used: usize,
}

impl ReachabilityGraph {
    /// Explores the state space under a cooperative resource [`Budget`],
    /// optionally resuming a prior partial graph and/or writing crash-safe
    /// snapshots.
    ///
    /// When any budget axis (states, bytes, deadline, cancellation) is
    /// exhausted, the graph built so far is returned as
    /// [`Outcome::Partial`] with [`CoverageStats`](crate::CoverageStats) —
    /// every stored marking is genuinely reachable, so a deadlock found in
    /// a partial graph is a real counterexample, but deadlock *freedom* can
    /// only be concluded from [`Outcome::Complete`].
    ///
    /// * `resume` — a snapshot previously produced by an interrupted run of
    ///   this engine over the *same net* (validated via the embedded
    ///   fingerprint). The exploration continues from the stored frontier
    ///   and, run to completion, reaches the identical verdict, state
    ///   count, and witnesses as a single uninterrupted run.
    /// * `ckpt` — where and how often to snapshot; see
    ///   [`explore_segmented`] for the segmenting protocol.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] on a safeness violation,
    /// [`NetError::WorkerPanicked`] if a parallel worker died,
    /// [`NetError::StateIdOverflow`] past `u32::MAX` states, or
    /// [`NetError::Checkpoint`] when `resume` does not belong to this
    /// net/engine/options or a snapshot cannot be written.
    pub fn explore(
        net: &PetriNet,
        opts: &ExploreOptions,
        budget: &Budget,
        ckpt: &CheckpointConfig,
        resume: Option<&Snapshot>,
    ) -> Result<Outcome<Self>, NetError> {
        let prior = match resume {
            Some(snap) => Some(Self::from_snapshot(net, snap, opts.record_edges)?),
            None => None,
        };
        explore_segmented(
            budget,
            ckpt,
            prior,
            ReachabilityGraph::state_count,
            |segment, prior| Self::explore_resumed(net, opts, segment, prior),
            |g| g.to_snapshot(net, opts.record_edges),
        )
    }

    /// Continues exploring `prior` (or starts fresh) under `budget`: one
    /// run of the shared [`parallel`](crate::parallel) frontier loop.
    fn explore_resumed(
        net: &PetriNet,
        opts: &ExploreOptions,
        budget: &Budget,
        prior: Option<Self>,
    ) -> Result<Outcome<Self>, NetError> {
        let start = Instant::now();
        let (seed, base_elapsed) = match prior {
            Some(g) => (
                FrontierSeed {
                    states: g.states,
                    expanded: g.expanded,
                    succ: g
                        .succ
                        .into_iter()
                        .map(|edges| edges.into_iter().map(|(t, dst)| (t, dst.0)).collect())
                        .collect(),
                    deadlocks: g.deadlocks.into_iter().map(|d| d.0).collect(),
                    edge_count: g.edge_count,
                },
                g.elapsed,
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
                record_edges: opts.record_edges,
                budget: budget.clone(),
                ..Default::default()
            },
            |m, out| {
                for t in net.transitions() {
                    if net.enabled(t, m) {
                        out.push((t, net.fire(t, m)?));
                    }
                }
                Ok(())
            },
        )?;
        let elapsed = base_elapsed + start.elapsed();
        // the conversions below reuse each vector's allocation in place
        // (same element layout), so the graph never holds a second copy
        Ok(outcome
            .map(|result| ReachabilityGraph {
                states: result.states,
                expanded: result.expanded,
                succ: result
                    .succ
                    .into_iter()
                    .map(|edges| {
                        edges
                            .into_iter()
                            .map(|(t, dst)| (t, StateId(dst)))
                            .collect()
                    })
                    .collect(),
                initial: StateId::new(0),
                deadlocks: result.deadlocks.into_iter().map(StateId).collect(),
                edge_count: result.edge_count,
                elapsed,
                threads_used: opts.threads.max(1),
            })
            .with_elapsed(elapsed))
    }

    /// Serializes this (typically partial) graph as a checkpoint snapshot.
    ///
    /// `record_edges` must match the [`ExploreOptions::record_edges`] the
    /// graph was explored with; it is stored and re-checked on load so a
    /// resumed run cannot silently end up with half-recorded edges.
    pub fn to_snapshot(&self, net: &PetriNet, record_edges: bool) -> Snapshot {
        let mut snap = Snapshot::new(EngineKind::Full, net);
        push_state_table(&mut snap, net, &self.states, &self.expanded);

        let mut w = ByteWriter::new();
        w.u8(u8::from(record_edges));
        for edges in &self.succ {
            w.u32(edges.len() as u32);
            for &(t, dst) in edges {
                w.u32(t.index() as u32);
                w.u32(dst.0);
            }
        }
        snap.push_section(section::EDGES, w.into_bytes());

        let mut w = ByteWriter::new();
        w.usize(self.deadlocks.len());
        for &d in &self.deadlocks {
            w.u32(d.0);
        }
        snap.push_section(section::DEADLOCKS, w.into_bytes());

        let mut w = ByteWriter::new();
        w.usize(self.edge_count);
        w.u64(self.elapsed.as_nanos() as u64);
        snap.push_section(section::COUNTERS, w.into_bytes());

        snap
    }

    /// Rebuilds a (typically partial) graph from a snapshot, validating
    /// the engine kind, net fingerprint, and every structural invariant of
    /// the payload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] when the snapshot belongs to a
    /// different engine/net, was taken with a different `record_edges`
    /// setting, or is internally inconsistent.
    pub fn from_snapshot(
        net: &PetriNet,
        snap: &Snapshot,
        record_edges: bool,
    ) -> Result<Self, CheckpointError> {
        snap.validate(EngineKind::Full, net.fingerprint())?;
        let (states, expanded) = read_state_table(snap, net)?;
        let count = states.len();

        let mut r = ByteReader::new(snap.require_section(section::EDGES)?, section::EDGES);
        let snap_recorded = r.u8()? != 0;
        if snap_recorded != record_edges {
            return Err(r.malformed(format!(
                "snapshot was taken with record_edges={snap_recorded}, run uses {record_edges}"
            )));
        }
        let mut succ = Vec::with_capacity(count);
        let mut recorded = 0usize;
        for _ in 0..count {
            let n = r.u32()? as usize;
            let mut edges = Vec::with_capacity(n);
            for _ in 0..n {
                let t = r.u32()? as usize;
                let dst = r.u32()? as usize;
                if t >= net.transition_count() || dst >= count {
                    return Err(r.malformed("edge references an out-of-range id"));
                }
                edges.push((TransitionId::new(t), StateId::new(dst)));
            }
            recorded += n;
            succ.push(edges);
        }
        r.finish()?;

        let mut r = ByteReader::new(
            snap.require_section(section::DEADLOCKS)?,
            section::DEADLOCKS,
        );
        let ndead = r.usize()?;
        let mut deadlocks = Vec::with_capacity(ndead.min(count));
        for _ in 0..ndead {
            let d = r.u32()? as usize;
            if d >= count || !expanded[d] {
                return Err(r.malformed("deadlock id out of range or unexpanded"));
            }
            deadlocks.push(StateId::new(d));
        }
        r.finish()?;

        let mut r = ByteReader::new(snap.require_section(section::COUNTERS)?, section::COUNTERS);
        let edge_count = r.usize()?;
        let elapsed = Duration::from_nanos(r.u64()?);
        r.finish()?;
        if edge_count < recorded {
            return Err(CheckpointError::Malformed {
                section: section::COUNTERS,
                detail: "edge count is below the number of recorded edges".into(),
            });
        }

        Ok(ReachabilityGraph {
            states,
            expanded,
            succ,
            initial: StateId::new(0),
            deadlocks,
            edge_count,
            elapsed,
            threads_used: 1,
        })
    }

    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of edges (fired transitions) in the graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Wall-clock exploration time.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Exploration throughput in states per second — the perf counter the
    /// benchmark tables regress against.
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

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The marking of state `s`.
    pub fn marking(&self, s: StateId) -> &Marking {
        &self.states[s.index()]
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl ExactSizeIterator<Item = StateId> + '_ {
        (0..self.states.len()).map(StateId::new)
    }

    /// Outgoing labelled edges of `s` (empty if edges were not recorded).
    pub fn successors(&self, s: StateId) -> &[(TransitionId, StateId)] {
        &self.succ[s.index()]
    }

    /// States with no enabled transition (deadlock / termination states).
    pub fn deadlocks(&self) -> &[StateId] {
        &self.deadlocks
    }

    /// `true` if some reachable state is dead.
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }

    /// Looks up the state id of a marking, if it is reachable.
    pub fn find(&self, m: &Marking) -> Option<StateId> {
        // Linear scan is acceptable for test-sized graphs; exploration keeps
        // its own hash index internally.
        self.states.iter().position(|s| s == m).map(StateId::new)
    }

    /// Checks whether a marking is reachable.
    pub fn contains(&self, m: &Marking) -> bool {
        self.find(m).is_some()
    }

    /// A shortest firing sequence from the initial state to `target`.
    ///
    /// Returns `None` if `target` is unreachable or edges were not recorded.
    pub fn path_to(&self, target: StateId) -> Option<Vec<TransitionId>> {
        if target == self.initial {
            return Some(Vec::new());
        }
        let mut pred: Vec<Option<(StateId, TransitionId)>> = vec![None; self.states.len()];
        let mut queue = std::collections::VecDeque::from([self.initial]);
        let mut seen = vec![false; self.states.len()];
        seen[self.initial.index()] = true;
        while let Some(s) = queue.pop_front() {
            for &(t, n) in self.successors(s) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    pred[n.index()] = Some((s, t));
                    if n == target {
                        let mut path = Vec::new();
                        let mut cur = n;
                        while let Some((p, tr)) = pred[cur.index()] {
                            path.push(tr);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// Counts the distinct maximal firing sequences (interleavings) of an
    /// *acyclic* reachability graph — e.g. the `3! = 6` interleavings of the
    /// paper's Figure 1.
    ///
    /// Returns `None` if the graph contains a cycle (the count would be
    /// infinite) or edges were not recorded.
    pub fn count_maximal_paths(&self) -> Option<u128> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        fn visit(
            rg: &ReachabilityGraph,
            s: StateId,
            marks: &mut [Mark],
            memo: &mut [Option<u128>],
        ) -> Option<u128> {
            if let Some(v) = memo[s.index()] {
                return Some(v);
            }
            if marks[s.index()] == Mark::Grey {
                return None; // cycle
            }
            marks[s.index()] = Mark::Grey;
            let succs = rg.successors(s);
            let v = if succs.is_empty() {
                1
            } else {
                let mut sum: u128 = 0;
                for &(_, n) in succs {
                    sum += visit(rg, n, marks, memo)?;
                }
                sum
            };
            marks[s.index()] = Mark::Black;
            memo[s.index()] = Some(v);
            Some(v)
        }
        let mut marks = vec![Mark::White; self.states.len()];
        let mut memo = vec![None; self.states.len()];
        visit(self, self.initial, &mut marks, &mut memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use crate::net::NetBuilder;

    /// N independent place->transition->place strands, all marked.
    fn concurrent(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("concurrent");
        for i in 0..n {
            let p = b.place_marked(format!("in{i}"));
            let q = b.place(format!("out{i}"));
            b.transition(format!("t{i}"), [p], [q]);
        }
        b.build().unwrap()
    }

    #[test]
    fn fig1_shape_eight_states_six_interleavings() {
        let rg = explore_full(&concurrent(3)).unwrap();
        assert_eq!(rg.state_count(), 8);
        assert_eq!(rg.edge_count(), 12); // 3*4 edges of the cube
        assert_eq!(rg.deadlocks().len(), 1);
        assert_eq!(rg.count_maximal_paths(), Some(6));
    }

    #[test]
    fn concurrency_scales_as_two_to_the_n() {
        for n in 1..=6 {
            let rg = explore_full(&concurrent(n)).unwrap();
            assert_eq!(rg.state_count(), 1 << n, "n={n}");
        }
    }

    #[test]
    fn cyclic_net_has_no_path_count() {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let net = b.build().unwrap();
        let rg = explore_full(&net).unwrap();
        assert_eq!(rg.state_count(), 2);
        assert!(!rg.has_deadlock());
        assert_eq!(rg.count_maximal_paths(), None);
    }

    #[test]
    fn deadlock_found_and_witnessed() {
        // classic 2-process deadlock: each grabs one of two shared resources
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
        let rg = explore_full(&net).unwrap();
        assert!(rg.has_deadlock());
        let dead = rg.deadlocks()[0];
        let path = rg.path_to(dead).expect("deadlock reachable");
        // replaying the witness ends in the dead marking
        let m = net
            .fire_sequence(net.initial_marking(), path)
            .unwrap()
            .unwrap();
        assert_eq!(&m, rg.marking(dead));
        assert!(net.is_dead(&m));
    }

    #[test]
    fn state_limit_respected() {
        use crate::budget::ExhaustionReason;
        // concurrent(5) has 32 markings: the cap is inclusive
        let net = concurrent(5);
        let opts = ExploreOptions {
            record_edges: false,
            ..Default::default()
        };
        let run = |cap| {
            ReachabilityGraph::explore(
                &net,
                &opts,
                &Budget::default().cap_states(cap),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap()
        };
        let cut = run(10);
        assert_eq!(cut.reason(), Some(ExhaustionReason::States));
        assert!(cut.into_value().state_count() < 32);
        assert_eq!(run(31).reason(), Some(ExhaustionReason::States));
        let at_cap = run(32);
        assert_eq!(at_cap.reason(), None);
        assert_eq!(at_cap.into_value().state_count(), 32);
    }

    #[test]
    fn edges_can_be_skipped() {
        let net = concurrent(3);
        let opts = ExploreOptions {
            record_edges: false,
            ..Default::default()
        };
        let rg = ReachabilityGraph::explore(
            &net,
            &opts,
            &Budget::default(),
            &CheckpointConfig::default(),
            None,
        )
        .unwrap()
        .into_value();
        assert_eq!(rg.state_count(), 8);
        assert!(rg.successors(rg.initial()).is_empty());
        assert_eq!(rg.edge_count(), 12, "edge count still tracked");
    }

    #[test]
    fn find_and_contains() {
        let net = concurrent(2);
        let rg = explore_full(&net).unwrap();
        assert!(rg.contains(net.initial_marking()));
        assert_eq!(rg.find(net.initial_marking()), Some(rg.initial()));
        let absent = Marking::empty(net.place_count());
        assert!(!rg.contains(&absent));
    }

    #[test]
    fn path_to_initial_is_empty() {
        let net = concurrent(2);
        let rg = explore_full(&net).unwrap();
        assert_eq!(rg.path_to(rg.initial()), Some(vec![]));
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        use crate::budget::Verdict;
        let net = concurrent(5);
        for threads in [1usize, 2] {
            let opts = ExploreOptions {
                threads,
                ..Default::default()
            };
            let reference = ReachabilityGraph::explore(
                &net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap()
            .into_value();

            // interrupt at 10 states, snapshot, decode, resume
            let partial = ReachabilityGraph::explore(
                &net,
                &opts,
                &Budget::default().cap_states(10),
                &CheckpointConfig::default(),
                None,
            )
            .unwrap();
            assert!(!partial.is_complete(), "threads={threads}");
            let snap = partial.value().to_snapshot(&net, true);
            let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let resumed = ReachabilityGraph::explore(
                &net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                Some(&decoded),
            )
            .unwrap();
            assert!(resumed.is_complete(), "threads={threads}");
            let resumed = resumed.into_value();
            assert_eq!(resumed.state_count(), reference.state_count());
            assert_eq!(resumed.edge_count(), reference.edge_count());
            assert_eq!(resumed.deadlocks().len(), reference.deadlocks().len());
            use std::collections::BTreeSet;
            let ref_dead: BTreeSet<&Marking> = reference
                .deadlocks()
                .iter()
                .map(|&d| reference.marking(d))
                .collect();
            let res_dead: BTreeSet<&Marking> = resumed
                .deadlocks()
                .iter()
                .map(|&d| resumed.marking(d))
                .collect();
            assert_eq!(ref_dead, res_dead, "threads={threads}");
            assert_eq!(
                Verdict::from_observation(resumed.has_deadlock(), true, 0),
                Verdict::from_observation(reference.has_deadlock(), true, 0)
            );
        }
    }

    #[test]
    fn periodic_checkpoints_are_written_and_resumable() {
        let net = concurrent(5);
        let dir = std::env::temp_dir().join(format!("rg-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.ckpt");
        let opts = ExploreOptions::default();
        let out = ReachabilityGraph::explore(
            &net,
            &opts,
            &Budget::default(),
            &CheckpointConfig::periodic(&path, 5),
            None,
        )
        .unwrap();
        assert!(out.is_complete(), "periodic snapshots do not stop the run");
        assert_eq!(out.value().state_count(), 32);
        assert!(path.exists(), "mid-run snapshot was written");
        // the last snapshot resumes to the same complete result
        let snap = crate::checkpoint::read_checkpoint_with_fallback(&path).unwrap();
        let resumed = ReachabilityGraph::explore(
            &net,
            &opts,
            &Budget::default(),
            &CheckpointConfig::default(),
            Some(&snap),
        )
        .unwrap()
        .into_value();
        assert_eq!(resumed.state_count(), 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_for_wrong_net_is_rejected() {
        let net = concurrent(3);
        let other = concurrent(4);
        let rg = explore_full(&net).unwrap();
        let snap = rg.to_snapshot(&net, true);
        let err = ReachabilityGraph::from_snapshot(&other, &snap, true).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
        let err = ReachabilityGraph::from_snapshot(&net, &snap, false).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }));
    }

    #[test]
    fn unsafe_net_reported() {
        let mut b = NetBuilder::new("unsafe");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let r = b.place("r");
        b.transition("t1", [p], [r]);
        b.transition("t2", [q], [r]);
        let net = b.build().unwrap();
        // firing t1 then t2 puts two tokens in r
        let err = explore_full(&net).unwrap_err();
        assert!(matches!(err, NetError::NotSafe { .. }));
    }
}
