//! Exhaustive reachability analysis ("conventional analysis", §2.2).
//!
//! Builds the full reachability graph `RG(N)` of a safe net by breadth-first
//! exploration with hashed visited states. This is the ground truth the
//! reduced analyses are compared against, and the "States" column of the
//! paper's Table 1. The same graph type, explored under a [`FiringRule`]
//! that fires only some of the enabled transitions, is the stubborn-set
//! graph of the `partial-order` crate (the "SPIN+PO" column).

use std::fmt;
use std::sync::OnceLock;
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
use crate::parallel::{
    default_threads, explore_frontier_seeded, Emit, FrontierOptions, FrontierSeed,
};
use crate::state_table::{hash_words, IdIndex};

/// Section tags of a [`EngineKind::Full`] snapshot, after the shared state
/// table ([`push_state_table`] writes tags 1 and 2). An
/// [`EngineKind::Reduced`] snapshot has the same sections plus the rule's.
mod section {
    pub const EDGES: u32 = 3;
    pub const DEADLOCKS: u32 = 4;
    pub const COUNTERS: u32 = 5;
    pub const ORIGINS: u32 = 6;
    pub const RULE: u32 = 7;
}

/// A reduction rule for [`ReachabilityGraph::explore_under`]: which of a
/// marking's enabled transitions the exploration fires, for example the
/// enabled members of a stubborn set.
pub trait FiringRule: Sync {
    /// The transitions to fire from `m`, each enabled there, in firing
    /// order. Empty exactly when `m` is dead, so the graph's deadlocks are
    /// dead markings of the net.
    fn fire_from(&self, m: &Marking) -> Vec<TransitionId>;

    /// The bytes that name this rule in a snapshot. A snapshot resumes
    /// only under a rule with the same bytes: a reduced graph is a sound
    /// prefix only for the rule it was explored under.
    fn identity(&self) -> Vec<u8>;
}

/// The snapshot kind of a graph explored under the rule whose identity is
/// `rule` (`None`: the full graph).
fn engine_kind(rule: Option<&[u8]>) -> EngineKind {
    if rule.is_some() {
        EngineKind::Reduced
    } else {
        EngineKind::Full
    }
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
    /// Record the labelled edges (needed for DOT export and
    /// [`ReachabilityGraph::count_maximal_paths`]); disable to save memory.
    /// Witness paths do not need them: every state's origin is always
    /// recorded.
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

/// The reachability graph of a safe Petri net: the full graph, or the
/// part of it a [`FiringRule`] explores.
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
    /// Per state, the `(parent id, transition)` that first reached it;
    /// `None` for the initial state only.
    origin: Vec<Option<(u32, TransitionId)>>,
    /// Marking → id, built on the first [`find`](Self::find).
    index: OnceLock<IdIndex>,
    initial: StateId,
    deadlocks: Vec<StateId>,
    edge_count: usize,
    elapsed: Duration,
    threads_used: usize,
    /// The [`FiringRule::identity`] of the rule the graph was explored
    /// under; `None` for the full graph.
    rule: Option<Vec<u8>>,
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
        Self::explore_with(net, opts, None, budget, ckpt, resume)
    }

    /// Like [`explore`](Self::explore), but fires at each marking only the
    /// transitions `rule` picks: a reduced graph, such as the stubborn-set
    /// graph of the `partial-order` crate. Its snapshots are
    /// [`EngineKind::Reduced`] ones that carry the rule's
    /// [`identity`](FiringRule::identity), and `resume` must carry the
    /// same bytes.
    ///
    /// # Errors
    ///
    /// As for [`explore`](Self::explore), plus [`NetError::Checkpoint`]
    /// when `resume` was explored under another rule.
    pub fn explore_under(
        net: &PetriNet,
        opts: &ExploreOptions,
        rule: &dyn FiringRule,
        budget: &Budget,
        ckpt: &CheckpointConfig,
        resume: Option<&Snapshot>,
    ) -> Result<Outcome<Self>, NetError> {
        Self::explore_with(net, opts, Some(rule), budget, ckpt, resume)
    }

    fn explore_with(
        net: &PetriNet,
        opts: &ExploreOptions,
        rule: Option<&dyn FiringRule>,
        budget: &Budget,
        ckpt: &CheckpointConfig,
        resume: Option<&Snapshot>,
    ) -> Result<Outcome<Self>, NetError> {
        let identity = rule.map(FiringRule::identity);
        let prior = match resume {
            Some(snap) => Some(Self::from_snapshot(
                net,
                snap,
                opts.record_edges,
                identity.as_deref(),
            )?),
            None => None,
        };
        explore_segmented(
            budget,
            ckpt,
            prior,
            ReachabilityGraph::state_count,
            |segment, prior| {
                Self::explore_resumed(net, opts, rule, identity.as_deref(), segment, prior)
            },
            |g| g.to_snapshot(net, opts.record_edges),
        )
    }

    /// Continues exploring `prior` (or starts fresh) under `budget`: one
    /// run of the shared [`parallel`](crate::parallel) frontier loop.
    fn explore_resumed(
        net: &PetriNet,
        opts: &ExploreOptions,
        rule: Option<&dyn FiringRule>,
        identity: Option<&[u8]>,
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
                    origin: g.origin,
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
            |m: &Marking, emit: &mut Emit<'_, TransitionId, Marking>| {
                let mut next = m.clone();
                match rule {
                    None => {
                        for t in net.transitions() {
                            if net.enabled(t, m) {
                                net.fire_into(t, m, &mut next)?;
                                emit(t, &next);
                            }
                        }
                    }
                    Some(rule) => {
                        for t in rule.fire_from(m) {
                            net.fire_into(t, m, &mut next)?;
                            emit(t, &next);
                        }
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
                succ: if opts.record_edges {
                    result
                        .succ
                        .into_iter()
                        .map(|edges| {
                            edges
                                .into_iter()
                                .map(|(t, dst)| (t, StateId(dst)))
                                .collect()
                        })
                        .collect()
                } else {
                    Vec::new()
                },
                origin: result.origin,
                index: OnceLock::new(),
                initial: StateId::new(0),
                deadlocks: result.deadlocks.into_iter().map(StateId).collect(),
                edge_count: result.edge_count,
                elapsed,
                threads_used: opts.threads.max(1),
                rule: identity.map(<[u8]>::to_vec),
            })
            .with_elapsed(elapsed))
    }

    /// Serializes this (typically partial) graph as a checkpoint snapshot:
    /// an [`EngineKind::Full`] one, or for a graph explored under a
    /// [`FiringRule`] an [`EngineKind::Reduced`] one with the same
    /// sections plus the rule's identity.
    ///
    /// `record_edges` must match the [`ExploreOptions::record_edges`] the
    /// graph was explored with; it is stored and re-checked on load so a
    /// resumed run cannot silently end up with half-recorded edges.
    pub fn to_snapshot(&self, net: &PetriNet, record_edges: bool) -> Snapshot {
        let mut snap = Snapshot::new(engine_kind(self.rule.as_deref()), net);
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

        let mut w = ByteWriter::new();
        for o in &self.origin {
            let (parent, t) = o.map_or((u32::MAX, 0), |(p, t)| (p, t.index() as u32));
            w.u32(parent);
            w.u32(t);
        }
        snap.push_section(section::ORIGINS, w.into_bytes());

        if let Some(rule) = &self.rule {
            snap.push_section(section::RULE, rule.clone());
        }
        snap
    }

    /// `true` for a full or reduced snapshot this build refuses to resume:
    /// one written by an older build, which has no state origins (full
    /// recorded edges instead, po no provenance at all), so its witness
    /// paths cannot be rebuilt.
    pub fn is_outdated_snapshot(snap: &Snapshot) -> bool {
        matches!(snap.engine, EngineKind::Full | EngineKind::Reduced)
            && snap.section(section::EDGES).is_some()
            && snap.section(section::ORIGINS).is_none()
    }

    /// Rebuilds a (typically partial) graph from a snapshot: the full
    /// graph, or with `rule` the graph of the rule with that
    /// [`identity`](FiringRule::identity). Validates the engine kind, net
    /// fingerprint, rule, and every structural invariant of the payload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] when the snapshot belongs to a
    /// different engine/net/rule, was taken with a different
    /// `record_edges` setting, has no state origins (an older build wrote
    /// it), or is internally inconsistent.
    fn from_snapshot(
        net: &PetriNet,
        snap: &Snapshot,
        record_edges: bool,
        rule: Option<&[u8]>,
    ) -> Result<Self, CheckpointError> {
        snap.validate(engine_kind(rule), net.fingerprint())?;
        if Self::is_outdated_snapshot(snap) {
            return Err(CheckpointError::Malformed {
                section: section::ORIGINS,
                detail: "the snapshot has no state origins: an older build wrote it, \
                         so its witness paths cannot be rebuilt; restart without --resume"
                    .into(),
            });
        }
        if let Some(rule) = rule {
            if snap.require_section(section::RULE)? != rule {
                return Err(CheckpointError::Malformed {
                    section: section::RULE,
                    detail: "the snapshot was explored under another reduction rule \
                             (explorations under different rules cannot be mixed)"
                        .into(),
                });
            }
        }
        let (states, expanded) = read_state_table(snap, net)?;
        let count = states.len();

        let mut r = ByteReader::new(snap.require_section(section::EDGES)?, section::EDGES);
        let snap_recorded = r.u8()? != 0;
        if snap_recorded != record_edges {
            return Err(r.malformed(format!(
                "snapshot was taken with record_edges={snap_recorded}, run uses {record_edges}"
            )));
        }
        let lists = if record_edges { count } else { 0 };
        let mut succ = Vec::with_capacity(lists);
        let mut recorded = 0usize;
        for _ in 0..lists {
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

        let mut r = ByteReader::new(snap.require_section(section::ORIGINS)?, section::ORIGINS);
        let mut origin = Vec::with_capacity(count);
        for id in 0..count {
            let parent = r.u32()?;
            let t = r.u32()? as usize;
            if id == 0 {
                if parent != u32::MAX {
                    return Err(r.malformed("the initial state has an origin"));
                }
                origin.push(None);
            } else if (parent as usize) < id && t < net.transition_count() {
                // a parent is stored before its children, so walking
                // origins always ends at the initial state
                origin.push(Some((parent, TransitionId::new(t))));
            } else {
                return Err(r.malformed("origin out of range or not before its state"));
            }
        }
        r.finish()?;

        Ok(ReachabilityGraph {
            states,
            expanded,
            succ,
            origin,
            index: OnceLock::new(),
            initial: StateId::new(0),
            deadlocks,
            edge_count,
            elapsed,
            threads_used: 1,
            rule: rule.map(<[u8]>::to_vec),
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
        self.succ.get(s.index()).map_or(&[], Vec::as_slice)
    }

    /// States with no enabled transition (deadlock / termination states).
    pub fn deadlocks(&self) -> &[StateId] {
        &self.deadlocks
    }

    /// `true` if some reachable state is dead.
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }

    /// Looks up the state id of a marking, if it is reachable: one hash
    /// lookup in an index of the states, built on the first call.
    pub fn find(&self, m: &Marking) -> Option<StateId> {
        let words = |id: u32| self.states[id as usize].words();
        let index = self
            .index
            .get_or_init(|| IdIndex::of_distinct(self.states.len(), |id| hash_words(words(id))));
        index
            .probe(hash_words(m.words()), |id| words(id) == m.words())
            .ok()
            .map(StateId)
    }

    /// Checks whether a marking is reachable.
    pub fn contains(&self, m: &Marking) -> bool {
        self.find(m).is_some()
    }

    /// A firing sequence from the initial state to `target`, read off the
    /// origins: the transitions that first reached each state on the way.
    /// At one thread states are reached breadth-first, so it is a
    /// shortest one.
    ///
    /// Returns `None` if `target` is not a state of this graph.
    pub fn path_to(&self, target: StateId) -> Option<Vec<TransitionId>> {
        let mut path = Vec::new();
        let mut cur = target;
        while cur != self.initial {
            let (parent, t) = (*self.origin.get(cur.index())?)?;
            path.push(t);
            cur = StateId(parent);
        }
        path.reverse();
        Some(path)
    }

    /// The states whose marking is a `goal`, smallest marking first: the
    /// order goal witnesses are reported in, the same at every thread
    /// count.
    pub fn goal_states(&self, goal: impl Fn(&Marking) -> bool) -> Vec<StateId> {
        let mut goals: Vec<StateId> = self.states().filter(|&s| goal(self.marking(s))).collect();
        goals.sort_by(|&a, &b| self.marking(a).cmp(self.marking(b)));
        goals
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
    fn find_is_one_lookup_at_every_thread_count() {
        let net = concurrent(7);
        for threads in [1, 2] {
            let opts = ExploreOptions {
                record_edges: false,
                threads,
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
            for s in rg.states() {
                assert_eq!(rg.find(rg.marking(s)), Some(s), "threads={threads}");
            }
            assert!(!rg.contains(&Marking::empty(net.place_count())));
            // a marking of another net is simply absent
            assert!(!rg.contains(&Marking::empty(net.place_count() + 64)));
        }
    }

    /// Witness paths walk the origins. At one thread they are the paths a
    /// breadth-first search over the recorded edges finds; at two they
    /// still replay to their markings.
    #[test]
    fn witness_paths_walk_the_origins() {
        fn bfs_path(rg: &ReachabilityGraph, target: StateId) -> Vec<TransitionId> {
            let mut pred: Vec<Option<(StateId, TransitionId)>> = vec![None; rg.state_count()];
            let mut seen = vec![false; rg.state_count()];
            let mut queue = std::collections::VecDeque::from([rg.initial()]);
            seen[0] = true;
            while let Some(s) = queue.pop_front() {
                for &(t, n) in rg.successors(s) {
                    if !seen[n.index()] {
                        seen[n.index()] = true;
                        pred[n.index()] = Some((s, t));
                        queue.push_back(n);
                    }
                }
            }
            let mut path = Vec::new();
            let mut cur = target;
            while let Some((p, t)) = pred[cur.index()] {
                path.push(t);
                cur = p;
            }
            path.reverse();
            path
        }
        let net = crate::parse_net(
            "net diamond\npl a *\npl b *\npl c\npl d\npl e\n\
             tr ab : a -> c\ntr ba : b -> d\ntr cd : c d -> e\ntr back : e -> a b\n",
        )
        .unwrap();
        for net in [net, concurrent(5)] {
            let explore = |record_edges, threads| {
                ReachabilityGraph::explore(
                    &net,
                    &ExploreOptions {
                        record_edges,
                        threads,
                    },
                    &Budget::default(),
                    &CheckpointConfig::default(),
                    None,
                )
                .unwrap()
                .into_value()
            };
            let with_edges = explore(true, 1);
            let without = explore(false, 1);
            assert!(without.successors(without.initial()).is_empty());
            for s in with_edges.states() {
                assert_eq!(without.path_to(s), Some(bfs_path(&with_edges, s)));
            }
            let parallel = explore(false, 2);
            for s in parallel.states() {
                let path = parallel.path_to(s).unwrap();
                let m = net.fire_sequence(net.initial_marking(), path).unwrap();
                assert_eq!(m.as_ref(), Some(parallel.marking(s)));
            }
        }
    }

    #[test]
    fn resumed_snapshots_keep_every_witness_path() {
        let net = concurrent(6);
        let opts = ExploreOptions {
            record_edges: false,
            threads: 1,
        };
        let explore = |budget: &Budget, resume: Option<&Snapshot>| {
            ReachabilityGraph::explore(&net, &opts, budget, &CheckpointConfig::default(), resume)
                .unwrap()
        };
        let reference = explore(&Budget::default(), None).into_value();
        let partial = explore(&Budget::default().cap_states(20), None);
        assert!(!partial.is_complete());
        let snap = partial.value().to_snapshot(&net, false);
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let resumed = explore(&Budget::default(), Some(&decoded)).into_value();
        assert_eq!(resumed.state_count(), reference.state_count());
        for s in reference.states() {
            assert_eq!(resumed.marking(s), reference.marking(s), "ids");
            assert_eq!(resumed.path_to(s), reference.path_to(s), "{s}");
        }
    }

    /// The build before the packed state table wrote full snapshots with
    /// edges and without origins: resuming one fails closed and says why.
    #[test]
    fn snapshots_without_origins_are_refused() {
        let net = concurrent(3);
        let rg = explore_full(&net).unwrap();
        let current = rg.to_snapshot(&net, true);
        let mut outdated = Snapshot::new(EngineKind::Full, &net);
        for tag in [1, 2, section::EDGES, section::DEADLOCKS, section::COUNTERS] {
            outdated.push_section(tag, current.section(tag).unwrap().to_vec());
        }
        assert!(!ReachabilityGraph::is_outdated_snapshot(&current));
        assert!(ReachabilityGraph::is_outdated_snapshot(&outdated));
        let err = ReachabilityGraph::from_snapshot(&net, &outdated, true, None).unwrap_err();
        assert!(
            err.to_string().contains("no state origins")
                && err.to_string().contains("restart without --resume"),
            "{err}"
        );
        let back = ReachabilityGraph::from_snapshot(&net, &current, true, None).unwrap();
        for s in rg.states() {
            assert_eq!(back.path_to(s), rg.path_to(s));
        }
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
        let err = ReachabilityGraph::from_snapshot(&other, &snap, true, None).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
        let err = ReachabilityGraph::from_snapshot(&net, &snap, false, None).unwrap_err();
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
