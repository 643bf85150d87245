//! The generalized partial-order reachability algorithm (§3.3).
//!
//! At each explored GPN state the algorithm:
//!
//! 1. checks the **deadlock possibility** `⋃_t s_enabled(t,s) ≠ r`; if it
//!    holds, the deadlock is reported (with a witness marking extracted
//!    from a blocked history) and the state is not expanded — exactly the
//!    `if / else if` structure of the paper's pseudocode;
//! 2. searches for **candidate MCSs**: conflict clusters whose
//!    multiple-enabled part is non-empty and covers every single-enabled
//!    member; all candidates are fired *simultaneously* with the multiple
//!    firing rule, giving a single successor. Following the paper, a
//!    candidate must not disable any other multiple-enabled MCS or
//!    single-enabled transition — we verify this on the actual successor
//!    state and fall back to per-candidate firing, then to single firing,
//!    when the check fails;
//! 3. otherwise falls back to the **single firing semantics**, branching
//!    over one fully-enabled maximal conflicting set if one exists, else
//!    over every single-enabled transition.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use petri::checkpoint::{explore_segmented, ByteReader, ByteWriter, CheckpointError};
use petri::parallel::{explore_frontier_seeded, Emit, FrontierOptions, FrontierSeed};
use petri::{
    Budget, CheckpointConfig, ConflictInfo, CoverageStats, ExhaustionReason, Marking, Outcome,
    PetriNet, PlaceId, Snapshot, TransitionId,
};

use crate::error::GpoError;
use crate::family::SetFamily;
use crate::semantics::{
    m_enabled, m_enabled_all, multiple_update_with, s_enabled, s_enabled_all, single_update_with,
};
use crate::state::GpnState;

/// Section tags of a generalized-analysis snapshot (both
/// [`petri::EngineKind::GpoExplicit`] and [`petri::EngineKind::GpoZdd`],
/// whose formats differ only inside the `FAMILIES` payload).
mod section {
    pub const META: u32 = 1;
    pub const FAMILIES: u32 = 2;
    pub const EXPANDED: u32 = 3;
    pub const PRED: u32 = 4;
    pub const BLOCKED: u32 = 5;
    pub const COUNTERS: u32 = 6;
}

/// Options for [`analyze`].
#[derive(Debug, Clone)]
pub struct GpoOptions {
    /// How many deadlock witness markings to materialize (0 disables).
    pub max_witnesses: usize,
    /// Worker threads for the exploration. `1` (the default) runs the
    /// shared frontier loop's FIFO branch on the calling thread; larger
    /// values run its work-stealing engine. The explored state set, the
    /// verdict, the witness markings, and the work counters of a complete
    /// run are identical for every thread count.
    pub threads: usize,
    /// Safety query: places whose *simultaneous* marking is the bad
    /// condition (the paper's §4 remark that safety checks reduce to this
    /// framework). Empty disables the query. A reported hit is always a
    /// genuinely reachable violating marking (soundness); the absence of a
    /// hit is not a proof, because the reduction may postpone the covering
    /// interleaving — use the exhaustive engine for proofs.
    pub coverage_query: Vec<PlaceId>,
}

impl Default for GpoOptions {
    fn default() -> Self {
        GpoOptions {
            max_witnesses: 1,
            threads: 1,
            coverage_query: Vec::new(),
        }
    }
}

/// Result of a generalized partial-order analysis.
///
/// # Examples
///
/// ```
/// use gpo_core::{analyze, ZddFamily};
/// use petri::{Budget, CheckpointConfig};
///
/// // the paper's Figure 2 with N = 10: classical PO reduction needs
/// // 2^11 - 1 = 2047 states; the generalized analysis needs 2
/// let net = models::figures::fig2(10);
/// let report = analyze::<ZddFamily>(
///     &net,
///     &Default::default(),
///     &Budget::default(),
///     &CheckpointConfig::default(),
///     None,
/// )?
/// .into_value();
/// assert_eq!(report.state_count, 2);
/// assert!(report.deadlock_possible);
/// # Ok::<(), gpo_core::GpoError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GpoReport {
    /// Number of explored GPN states.
    pub state_count: usize,
    /// `true` if some explored state reported a deadlock possibility.
    pub deadlock_possible: bool,
    /// Dead classical markings extracted from blocked histories (up to
    /// `max_witnesses` per reporting state).
    pub deadlock_witnesses: Vec<Marking>,
    /// Number of sets in the initial valid-set relation `r₀`, saturating
    /// at `u64::MAX`; [`valid_set_count_exact`](Self::valid_set_count_exact)
    /// is exact. 0 when the budget stopped the `r₀` build.
    pub valid_set_count: u64,
    /// Exact number of sets in `r₀`. Fig. 2 with N ≥ 64 and NSDP(n ≥ 34)
    /// have more than `u64::MAX`.
    pub valid_set_count_exact: u128,
    /// Largest per-state representation footprint observed.
    pub peak_footprint: usize,
    /// Number of simultaneous (multiple-semantics) firings.
    pub multiple_firings: usize,
    /// Number of single-semantics firings.
    pub single_firings: usize,
    /// First reachable marking covering the `coverage_query`, if the query
    /// was set and a covering scenario was found.
    pub coverage_hit: Option<Marking>,
    /// Classical firing sequences leading to the corresponding
    /// [`deadlock_witnesses`](Self::deadlock_witnesses) entries, projected
    /// from the GPN path by restricting each fired set to the blocked
    /// history — counterexamples without ever building the full graph.
    pub deadlock_traces: Vec<Vec<TransitionId>>,
    /// Wall-clock analysis time.
    pub elapsed: Duration,
    /// Enabling-family evaluations (`s_enabled` / `m_enabled`) actually
    /// performed during the analysis.
    pub enabling_computed: usize,
    /// Enabling-family evaluations *avoided* by handing the families the
    /// expansion step already computed down into the firing rules, instead
    /// of recomputing them inside `single_update` / `multiple_update`.
    pub enabling_reused: usize,
    /// ZDD nodes allocated by the shared manager backing this run
    /// (0 under the explicit representation).
    pub zdd_nodes_allocated: u64,
    /// Unique-table hits in the shared ZDD manager — node requests
    /// answered by hash-consing instead of allocation (0 under explicit).
    pub unique_hits: u64,
    /// Operation-cache hits in the shared ZDD manager (0 under explicit).
    pub op_cache_hits: u64,
    /// Memoized results discarded by the ZDD manager's generational
    /// op-cache eviction (0 under explicit, and 0 until a cache first
    /// fills its capacity).
    pub op_cache_evictions: u64,
}

impl GpoReport {
    /// Analysis throughput in GPN states per second.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.state_count as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

/// Runs the generalized analysis on families of representation `F` under
/// a cooperative resource [`Budget`], optionally resuming a prior partial
/// analysis and/or writing crash-safe snapshots (see [`explore_segmented`]
/// for the segmenting protocol). Production callers name
/// [`ZddFamily`](crate::ZddFamily); [`ExplicitFamily`](crate::ExplicitFamily)
/// is the reference the tests compare it against.
///
/// Byte accounting uses each GPN state's representation footprint plus
/// the frontier loop's per-state and per-edge overheads. On
/// exhaustion the report built so far is returned as
/// [`Outcome::Partial`]: deadlock possibilities and coverage hits found in
/// a partial run are genuine (their witnesses come from valid histories of
/// explored states), but their absence proves nothing.
///
/// The run first builds `r₀` ([`SetFamily::from_conflicts`]) under the
/// same budget. A cancel or deadline during that build returns
/// [`Outcome::Partial`] with the budget's reason and no state stored, and
/// writes no snapshot.
///
/// The snapshot engine tag records the family representation
/// ([`SetFamily::ENGINE_KIND`]); resuming an explicit snapshot under
/// `ZddFamily` (or vice versa) fails with a typed mismatch. A resumed run
/// reaches the same verdict, state count, and witness markings as the
/// uninterrupted run for every thread count, under both representations.
///
/// # Errors
///
/// Returns [`GpoError::Checkpoint`] for unusable snapshots, or
/// [`GpoError::Engine`] if the frontier loop fails.
pub fn analyze<F: SetFamily>(
    net: &PetriNet,
    opts: &GpoOptions,
    budget: &Budget,
    ckpt: &CheckpointConfig,
    resume: Option<&Snapshot>,
) -> Result<Outcome<GpoReport>, GpoError> {
    let start = Instant::now();
    let conflicts = ConflictInfo::new(net);
    let ctx = F::new_context(net.transition_count());
    let s0 = match GpnState::<F>::initial_with_conflicts(net, &conflicts, &ctx, budget) {
        Ok(s0) => s0,
        Err(reason) => return Ok(stopped_in_r0_build::<F>(&ctx, budget, reason, start)),
    };
    let valid_set_count_exact = s0.valid().count();

    let counters = Counters::default();
    let (prior, base_elapsed) = match resume {
        Some(snap) => {
            let (explored, elapsed) = from_snapshot::<F>(net, &ctx, snap, &s0, &counters)?;
            (Some(explored), elapsed)
        }
        None => (None, Duration::ZERO),
    };

    let outcome = explore_segmented(
        budget,
        ckpt,
        prior,
        |p: &Explored<F>| p.states.len(),
        |segment, prior| explore(net, &conflicts, s0.clone(), opts, segment, &counters, prior),
        |explored| {
            to_snapshot(
                net,
                &ctx,
                explored,
                &counters,
                base_elapsed + start.elapsed(),
            )
        },
    )?;
    let explored = outcome.value();

    let mut report = GpoReport {
        state_count: explored.states.len(),
        deadlock_possible: !explored.blocked.is_empty(),
        valid_set_count: u64::try_from(valid_set_count_exact).unwrap_or(u64::MAX),
        valid_set_count_exact,
        peak_footprint: counters.peak_footprint.load(Ordering::Relaxed),
        multiple_firings: counters.multiple_firings.load(Ordering::Relaxed),
        single_firings: counters.single_firings.load(Ordering::Relaxed),
        enabling_computed: counters.enabling_computed.load(Ordering::Relaxed),
        enabling_reused: counters.enabling_reused.load(Ordering::Relaxed),
        ..context_report::<F>(&ctx)
    };

    extract_witnesses(net, explored, opts.max_witnesses, &mut report);
    if !opts.coverage_query.is_empty() {
        // every stored state is genuinely reachable, so any hit is sound;
        // taking the minimum covering marking makes the answer independent
        // of the exploration order (and hence of the thread count)
        report.coverage_hit = explored
            .states
            .iter()
            .filter_map(|s| coverage_hit(net, s, &opts.coverage_query))
            .min();
    }

    report.elapsed = base_elapsed + start.elapsed();
    Ok(match outcome {
        Outcome::Complete(_) => Outcome::Complete(report),
        Outcome::Partial {
            reason,
            mut coverage,
            ..
        } => {
            coverage.elapsed = report.elapsed;
            Outcome::Partial {
                result: report,
                // re-classify at the stop: a cancel raised while the
                // reason was latched must win deterministically
                reason: budget.stop_reason(reason),
                coverage,
            }
        }
    })
}

/// An otherwise empty report carrying the family context's counters.
fn context_report<F: SetFamily>(ctx: &F::Context) -> GpoReport {
    let stats = F::context_stats(ctx);
    GpoReport {
        zdd_nodes_allocated: stats.nodes_allocated,
        unique_hits: stats.unique_hits,
        op_cache_hits: stats.op_cache_hits,
        op_cache_evictions: stats.op_cache_evictions,
        ..GpoReport::default()
    }
}

/// The outcome of a run whose budget stopped the `r₀` build: nothing was
/// explored, so no state is stored and there is no snapshot to write.
fn stopped_in_r0_build<F: SetFamily>(
    ctx: &F::Context,
    budget: &Budget,
    reason: ExhaustionReason,
    start: Instant,
) -> Outcome<GpoReport> {
    let elapsed = start.elapsed();
    Outcome::Partial {
        result: GpoReport {
            elapsed,
            ..context_report::<F>(ctx)
        },
        reason: budget.stop_reason(reason),
        coverage: CoverageStats {
            elapsed,
            ..CoverageStats::default()
        },
    }
}

/// Work counters shared by every thread the frontier loop expands on.
/// Each state is expanded exactly once and the per-state work is a pure
/// function of the state, so the relaxed sums are identical for every
/// thread count on a complete run.
#[derive(Default)]
struct Counters {
    enabling_computed: AtomicUsize,
    enabling_reused: AtomicUsize,
    multiple_firings: AtomicUsize,
    single_firings: AtomicUsize,
    peak_footprint: AtomicUsize,
}

impl Counters {
    fn computed(&self, n: usize) {
        self.enabling_computed.fetch_add(n, Ordering::Relaxed);
    }
    fn reused(&self, n: usize) {
        self.enabling_reused.fetch_add(n, Ordering::Relaxed);
    }
    fn observe_footprint(&self, units: usize) {
        self.peak_footprint.fetch_max(units, Ordering::Relaxed);
    }
}

/// What an exploration produced, before witness extraction and coverage
/// queries.
struct Explored<F: SetFamily> {
    /// Every discovered GPN state, dense ids with the initial state at 0.
    states: Vec<GpnState<F>>,
    /// How each state was first reached (for counterexample projection):
    /// the frontier loop's origins.
    pred: Vec<Option<(u32, Firing)>>,
    /// Ids of expanded states whose deadlock-possibility check fired.
    blocked: Vec<usize>,
    /// Per-state "successors computed" flag; `false` entries are the
    /// frontier a checkpointed run resumes from.
    expanded: Vec<bool>,
}

/// Explores one segment over the shared frontier loop. A GPN state has
/// no successors exactly when its deadlock-possibility check fires (the
/// valid-set relation is never empty), so the loop's deadlock ids are
/// precisely the blocked states.
fn explore<F: SetFamily>(
    net: &PetriNet,
    conflicts: &ConflictInfo,
    s0: GpnState<F>,
    opts: &GpoOptions,
    budget: &Budget,
    counters: &Counters,
    prior: Option<Explored<F>>,
) -> Result<Outcome<Explored<F>>, GpoError> {
    // the spread fills the cfg-gated fault-injection field in test builds
    #[allow(clippy::needless_update)]
    let fopts = FrontierOptions {
        threads: opts.threads,
        record_edges: false,
        budget: budget.clone(),
        ..FrontierOptions::default()
    };
    let seed = match prior {
        Some(p) => FrontierSeed {
            states: p.states,
            expanded: p.expanded,
            // the snapshot stores the reach tree, not the edge lists
            succ: Vec::new(),
            origin: p.pred,
            deadlocks: p.blocked.iter().map(|&b| b as u32).collect(),
            edge_count: 0,
        },
        None => FrontierSeed::initial(s0),
    };
    let outcome = explore_frontier_seeded(
        seed,
        &fopts,
        |s: &GpnState<F>, emit: &mut Emit<'_, Firing, GpnState<F>>| {
            counters.observe_footprint(s.footprint());
            for (next, firing) in expand(net, conflicts, s, counters) {
                emit(firing, &next);
            }
            Ok(())
        },
    )
    .map_err(GpoError::Engine)?;
    // the reach tree is the loop's origins: they survive budget-aborted
    // expansions, so it covers every stored state even when its
    // discovering expansion was rolled back
    Ok(outcome.map(|result| Explored {
        pred: result.origin,
        blocked: result.deadlocks.iter().map(|&d| d as usize).collect(),
        expanded: result.expanded,
        states: result.states,
    }))
}

/// Serializes a (typically partial) exploration as a snapshot. The family
/// payload delegates to [`SetFamily::encode_families`] over every per-place
/// family and valid-set relation in state order, so the explicit backend
/// writes enumerated sets while the ZDD backend writes one shared node
/// table for the entire exploration.
fn to_snapshot<F: SetFamily>(
    net: &PetriNet,
    ctx: &F::Context,
    explored: &Explored<F>,
    counters: &Counters,
    elapsed: Duration,
) -> Snapshot {
    let universe = net.transition_count();
    let mut snap = Snapshot::new(F::ENGINE_KIND, net);

    let mut w = ByteWriter::new();
    w.u32(net.place_count() as u32);
    w.u32(universe as u32);
    w.usize(explored.states.len());
    snap.push_section(section::META, w.into_bytes());

    let mut families: Vec<&F> = Vec::with_capacity(explored.states.len() * (net.place_count() + 1));
    for s in &explored.states {
        families.extend(s.marking().iter());
        families.push(s.valid());
    }
    snap.push_section(
        section::FAMILIES,
        F::encode_families(ctx, universe, &families),
    );

    let mut w = ByteWriter::new();
    w.bools(&explored.expanded);
    snap.push_section(section::EXPANDED, w.into_bytes());

    let mut w = ByteWriter::new();
    w.usize(explored.pred.len());
    for p in &explored.pred {
        match p {
            None => w.u8(0),
            Some((parent, Firing::Multiple(ts))) => {
                w.u8(1);
                w.usize(*parent as usize);
                w.u32(ts.len() as u32);
                for t in ts {
                    w.u32(t.index() as u32);
                }
            }
            Some((parent, Firing::Single(t))) => {
                w.u8(2);
                w.usize(*parent as usize);
                w.u32(t.index() as u32);
            }
        }
    }
    snap.push_section(section::PRED, w.into_bytes());

    let mut w = ByteWriter::new();
    w.usize(explored.blocked.len());
    for &b in &explored.blocked {
        w.usize(b);
    }
    snap.push_section(section::BLOCKED, w.into_bytes());

    let mut w = ByteWriter::new();
    w.u64(counters.enabling_computed.load(Ordering::Relaxed) as u64);
    w.u64(counters.enabling_reused.load(Ordering::Relaxed) as u64);
    w.u64(counters.multiple_firings.load(Ordering::Relaxed) as u64);
    w.u64(counters.single_firings.load(Ordering::Relaxed) as u64);
    w.u64(counters.peak_footprint.load(Ordering::Relaxed) as u64);
    w.u64(elapsed.as_nanos() as u64);
    snap.push_section(section::COUNTERS, w.into_bytes());

    snap
}

/// Rebuilds an exploration from a validated snapshot, restoring the work
/// counters into `counters` and returning the accumulated elapsed time.
/// Every structural invariant the seeded engines rely on is re-checked
/// here with typed errors, so a corrupt-but-checksummed snapshot can never
/// panic the exploration or silently change a verdict.
fn from_snapshot<F: SetFamily>(
    net: &PetriNet,
    ctx: &F::Context,
    snap: &Snapshot,
    s0: &GpnState<F>,
    counters: &Counters,
) -> Result<(Explored<F>, Duration), CheckpointError> {
    snap.validate(F::ENGINE_KIND, net.fingerprint())?;
    let places = net.place_count();
    let universe = net.transition_count();

    let mut r = ByteReader::new(snap.require_section(section::META)?, section::META);
    if r.u32()? as usize != places || r.u32()? as usize != universe {
        return Err(r.malformed("place/transition counts do not match the net"));
    }
    let n = r.usize()?;
    r.finish()?;
    if n == 0 {
        return Err(CheckpointError::Malformed {
            section: section::META,
            detail: "snapshot holds no states".into(),
        });
    }

    let families = F::decode_families(ctx, universe, snap.require_section(section::FAMILIES)?)
        .map_err(|detail| CheckpointError::Malformed {
            section: section::FAMILIES,
            detail,
        })?;
    if families.len() != n * (places + 1) {
        return Err(CheckpointError::Malformed {
            section: section::FAMILIES,
            detail: format!(
                "expected {} families for {n} states over {places} places, found {}",
                n * (places + 1),
                families.len()
            ),
        });
    }
    let mut states: Vec<GpnState<F>> = Vec::with_capacity(n);
    let mut it = families.into_iter();
    for _ in 0..n {
        let marking: Vec<F> = it.by_ref().take(places).collect();
        let valid = it.next().expect("family count checked above");
        states.push(GpnState::from_parts(marking, valid));
    }
    if states[0] != *s0 {
        return Err(CheckpointError::Malformed {
            section: section::FAMILIES,
            detail: "snapshot initial state does not match the net's".into(),
        });
    }
    let mut seen: HashSet<&GpnState<F>> = HashSet::with_capacity(n);
    if !states.iter().all(|s| seen.insert(s)) {
        return Err(CheckpointError::Malformed {
            section: section::FAMILIES,
            detail: "duplicate GPN states".into(),
        });
    }

    let mut r = ByteReader::new(snap.require_section(section::EXPANDED)?, section::EXPANDED);
    let expanded = r.bools()?;
    r.finish()?;
    if expanded.len() != n {
        return Err(CheckpointError::Malformed {
            section: section::EXPANDED,
            detail: format!("{} flags for {n} states", expanded.len()),
        });
    }

    let mut r = ByteReader::new(snap.require_section(section::PRED)?, section::PRED);
    let count = r.usize()?;
    if count != n {
        return Err(r.malformed(format!("{count} parent entries for {n} states")));
    }
    let mut pred: Vec<Option<(u32, Firing)>> = Vec::with_capacity(n);
    for i in 0..n {
        let tag = r.u8()?;
        if tag == 0 {
            pred.push(None);
            continue;
        }
        let parent = r.usize()?;
        if parent >= n || parent == i {
            return Err(r.malformed(format!("state {i}: bad parent {parent}")));
        }
        let transition = |r: &mut ByteReader<'_>| -> Result<TransitionId, CheckpointError> {
            let t = r.u32()? as usize;
            if t >= universe {
                return Err(r.malformed(format!("state {i}: transition {t} out of range")));
            }
            Ok(TransitionId::new(t))
        };
        let firing = match tag {
            1 => {
                let k = r.u32()? as usize;
                if k > universe {
                    return Err(r.malformed(format!("state {i}: {k} fired transitions")));
                }
                let mut ts = Vec::with_capacity(k);
                for _ in 0..k {
                    ts.push(transition(&mut r)?);
                }
                Firing::Multiple(ts)
            }
            2 => Firing::Single(transition(&mut r)?),
            other => return Err(r.malformed(format!("unknown firing tag {other}"))),
        };
        // `parent < n`, and state ids fit in a u32
        pred.push(Some((parent as u32, firing)));
    }
    r.finish()?;
    if pred[0].is_some() {
        return Err(CheckpointError::Malformed {
            section: section::PRED,
            detail: "initial state has a parent".into(),
        });
    }

    let mut r = ByteReader::new(snap.require_section(section::BLOCKED)?, section::BLOCKED);
    let k = r.usize()?;
    if k > n {
        return Err(r.malformed(format!("{k} blocked ids for {n} states")));
    }
    let mut blocked = Vec::with_capacity(k);
    let mut blocked_seen = vec![false; n];
    for _ in 0..k {
        let b = r.usize()?;
        if b >= n || !expanded[b] || blocked_seen[b] {
            return Err(r.malformed(format!("bad blocked id {b}")));
        }
        blocked_seen[b] = true;
        blocked.push(b);
    }
    r.finish()?;

    let mut r = ByteReader::new(snap.require_section(section::COUNTERS)?, section::COUNTERS);
    let computed = r.u64()? as usize;
    let reused = r.u64()? as usize;
    let multiple = r.u64()? as usize;
    let single = r.u64()? as usize;
    let peak = r.u64()? as usize;
    let elapsed = Duration::from_nanos(r.u64()?);
    r.finish()?;
    counters
        .enabling_computed
        .fetch_add(computed, Ordering::Relaxed);
    counters
        .enabling_reused
        .fetch_add(reused, Ordering::Relaxed);
    counters
        .multiple_firings
        .fetch_add(multiple, Ordering::Relaxed);
    counters.single_firings.fetch_add(single, Ordering::Relaxed);
    counters.peak_footprint.fetch_max(peak, Ordering::Relaxed);

    Ok((
        Explored {
            states,
            pred,
            blocked,
            expanded,
        },
        elapsed,
    ))
}

/// Materializes witness markings (and their projected classical traces)
/// from the blocked states, canonically: collect up to the budget of
/// histories per blocked state, order by witness marking, keep the first
/// history of each distinct marking, then the first `max_witnesses`. The
/// blocked-state *set* does not depend on the exploration order, so every
/// thread count reports the same witnesses.
fn extract_witnesses<F: SetFamily>(
    net: &PetriNet,
    explored: &Explored<F>,
    max_witnesses: usize,
    report: &mut GpoReport,
) {
    if max_witnesses == 0 {
        return;
    }
    let mut blocked = explored.blocked.clone();
    blocked.sort_unstable();
    let mut candidates: Vec<(Marking, usize, petri::BitSet)> = Vec::new();
    for &i in &blocked {
        let s = &explored.states[i];
        for v in crate::semantics::blocked_histories(net, s).some_sets(max_witnesses) {
            candidates.push((s.marking_of_history(net, &v), i, v));
        }
    }
    // stable: the first candidate of each marking survives the dedup
    candidates.sort_by(|a, b| a.0.cmp(&b.0));
    candidates.dedup_by(|a, b| a.0 == b.0);
    candidates.truncate(max_witnesses);
    for (witness, i, v) in candidates {
        report
            .deadlock_traces
            .push(project_trace(net, &explored.states, &explored.pred, i, &v));
        report.deadlock_witnesses.push(witness);
    }
}

/// How a state was produced from its parent.
#[derive(Debug, Clone)]
enum Firing {
    Multiple(Vec<TransitionId>),
    Single(TransitionId),
}

/// Walks the provenance chain back to the root and projects each fired set
/// onto the history `v`, yielding a classical firing sequence that reaches
/// the witness marking.
fn project_trace<F: SetFamily>(
    net: &PetriNet,
    states: &[GpnState<F>],
    provenance: &[Option<(u32, Firing)>],
    end: usize,
    v: &petri::BitSet,
) -> Vec<TransitionId> {
    let mut segments: Vec<Vec<TransitionId>> = Vec::new();
    let mut cur = end;
    while let Some((parent, firing)) = &provenance[cur] {
        let parent_state = &states[*parent as usize];
        let fired: Vec<TransitionId> = match firing {
            Firing::Multiple(ts) => ts
                .iter()
                .copied()
                .filter(|&t| m_enabled(net, parent_state, t).contains(v))
                .collect(),
            Firing::Single(t) => {
                if s_enabled(net, parent_state, *t).contains(v) {
                    vec![*t]
                } else {
                    Vec::new()
                }
            }
        };
        segments.push(fired);
        cur = *parent as usize;
    }
    segments.reverse();
    segments.into_iter().flatten().collect()
}

/// Checks whether some valid history of `s` marks every place of `query`
/// simultaneously, and extracts the covering classical marking if so.
fn coverage_hit<F: SetFamily>(
    net: &PetriNet,
    s: &GpnState<F>,
    query: &[PlaceId],
) -> Option<Marking> {
    let mut acc = s.valid().clone();
    for &p in query {
        if acc.is_empty() {
            return None;
        }
        acc = acc.intersect(s.place(p));
    }
    acc.some_sets(1)
        .first()
        .map(|v| s.marking_of_history(net, v))
}

/// Expands one state per the §3.3 algorithm. Returning no successors means
/// the deadlock-possibility check fired (callers record the state as
/// blocked; witnesses are extracted post-hoc so the expansion can run from
/// any worker thread without shared mutable report state).
fn expand<F: SetFamily>(
    net: &PetriNet,
    conflicts: &ConflictInfo,
    s: &GpnState<F>,
    counters: &Counters,
) -> Vec<(GpnState<F>, Firing)> {
    let n = net.transition_count();
    let s_en: Vec<F> = s_enabled_all(net, conflicts, s);
    counters.computed(n);

    // deadlock possibility: ∪ s_enabled ≠ r
    let live = s_en
        .iter()
        .filter(|f| !f.is_empty())
        .fold(None::<F>, |acc, f| {
            Some(match acc {
                None => f.clone(),
                Some(a) => a.union(f),
            })
        });
    let blocked = match &live {
        None => s.valid().clone(),
        Some(l) => s.valid().difference(l),
    };
    if !blocked.is_empty() {
        return Vec::new(); // the paper's algorithm does not expand further
    }

    let m_en: Vec<F> = m_enabled_all(net, conflicts, s);
    counters.computed(n);

    // candidate MCS search: per cluster, the multiple-enabled part, which
    // must cover every single-enabled member of the cluster
    let mut candidates: Vec<Vec<TransitionId>> = Vec::new();
    for cluster in conflicts.clusters() {
        let fired: Vec<TransitionId> = cluster
            .iter()
            .copied()
            .filter(|t| !m_en[t.index()].is_empty())
            .collect();
        if fired.is_empty() {
            continue;
        }
        let covered = cluster
            .iter()
            .all(|t| m_en[t.index()].is_empty() == s_en[t.index()].is_empty());
        if covered {
            candidates.push(fired);
        }
    }

    if !candidates.is_empty() {
        let union: Vec<TransitionId> = candidates.iter().flatten().copied().collect();
        // the seed recomputed every enabling family inside multiple_update;
        // passing s_en/m_en down saves those n evaluations per call
        let next = multiple_update_with(net, s, &union, &s_en, &m_en);
        counters.reused(n);
        if preserves_enabledness(net, &s_en, &m_en, &union, &next, counters) {
            counters.multiple_firings.fetch_add(1, Ordering::Relaxed);
            return vec![(next, Firing::Multiple(union))];
        }
        // union failed: try candidates one at a time, keep the first valid
        for cand in &candidates {
            let next = multiple_update_with(net, s, cand, &s_en, &m_en);
            counters.reused(n);
            if preserves_enabledness(net, &s_en, &m_en, cand, &next, counters) {
                counters.multiple_firings.fetch_add(1, Ordering::Relaxed);
                return vec![(next, Firing::Multiple(cand.clone()))];
            }
        }
    }

    // single-firing semantics: prefer branching over one maximal
    // conflicting set whose members are all single enabled
    let single_enabled: Vec<TransitionId> = net
        .transitions()
        .filter(|t| !s_en[t.index()].is_empty())
        .collect();
    for cluster in conflicts.clusters() {
        if cluster.len() > 1 && cluster.iter().all(|t| !s_en[t.index()].is_empty()) {
            counters
                .single_firings
                .fetch_add(cluster.len(), Ordering::Relaxed);
            counters.reused(cluster.len());
            return cluster
                .iter()
                .map(|&t| {
                    (
                        single_update_with(net, s, t, &s_en[t.index()]),
                        Firing::Single(t),
                    )
                })
                .collect();
        }
    }
    counters
        .single_firings
        .fetch_add(single_enabled.len(), Ordering::Relaxed);
    counters.reused(single_enabled.len());
    single_enabled
        .iter()
        .map(|&t| {
            (
                single_update_with(net, s, t, &s_en[t.index()]),
                Firing::Single(t),
            )
        })
        .collect()
}

/// The paper's candidate condition, checked semantically: firing `fired`
/// must leave every other single-enabled transition single enabled and
/// every other multiple-enabled transition multiple enabled. The families
/// on `next` are genuinely new work (the successor has not been expanded
/// yet), so they count towards `enabling_computed`.
fn preserves_enabledness<F: SetFamily>(
    net: &PetriNet,
    s_en: &[F],
    m_en: &[F],
    fired: &[TransitionId],
    next: &GpnState<F>,
    counters: &Counters,
) -> bool {
    net.transitions().all(|u| {
        if fired.contains(&u) {
            return true;
        }
        let i = u.index();
        if !s_en[i].is_empty() {
            counters.computed(1);
            if s_enabled(net, next, u).is_empty() {
                return false;
            }
        }
        if !m_en[i].is_empty() {
            counters.computed(1);
            if m_enabled(net, next, u).is_empty() {
                return false;
            }
        }
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_all, analyze_all_with, ExplicitFamily, ZddFamily};
    use std::any::type_name;

    #[test]
    fn fig2_needs_exactly_two_states() {
        // the headline claim of §3.1: 2^(N+1) - 1 → 2
        for n in 1..=8 {
            let report = analyze_all(&models::figures::fig2(n)).unwrap();
            assert_eq!(report.state_count, 2, "n={n}");
            assert!(report.deadlock_possible, "terminal markings are dead");
            assert_eq!(report.multiple_firings, 1);
            assert_eq!(report.single_firings, 0);
        }
    }

    #[test]
    fn nsdp_needs_exactly_three_states() {
        // Table 1: 3 states independent of the number of philosophers
        for n in [2usize, 3, 4, 5] {
            let report = analyze_all(&models::nsdp(n)).unwrap();
            assert_eq!(report.state_count, 3, "NSDP({n})");
            assert!(report.deadlock_possible);
        }
    }

    #[test]
    fn nsdp_witness_is_a_real_reachable_deadlock() {
        let net = models::nsdp(3);
        let report = analyze_all(&net).unwrap();
        let witness = &report.deadlock_witnesses[0];
        assert!(net.is_dead(witness));
        let rg = petri::ReachabilityGraph::explore(
            &net,
            &Default::default(),
            &Budget::default(),
            &CheckpointConfig::default(),
            None,
        )
        .unwrap();
        assert!(
            rg.value().contains(witness),
            "witness reachable classically"
        );
    }

    #[test]
    fn rw_needs_exactly_two_states() {
        // Table 1: RW collapses to 2 GPN states, no deadlock
        for n in [2usize, 4, 6] {
            let report = analyze_all(&models::readers_writers(n)).unwrap();
            assert_eq!(report.state_count, 2, "RW({n})");
            assert!(!report.deadlock_possible);
        }
    }

    #[test]
    fn deadlock_free_cycle_terminates() {
        let mut b = petri::NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let report = analyze_all(&b.build().unwrap()).unwrap();
        assert!(!report.deadlock_possible);
        assert!(report.state_count <= 2);
    }

    #[test]
    fn zdd_representation_agrees_with_explicit() {
        for net in [
            models::figures::fig2(5),
            models::figures::fig7(),
            models::nsdp(3),
            models::readers_writers(4),
        ] {
            let opts = GpoOptions {
                max_witnesses: 3,
                ..Default::default()
            };
            let e = analyze_all_with::<ExplicitFamily>(&net, &opts).unwrap();
            let z = analyze_all_with::<ZddFamily>(&net, &opts).unwrap();
            assert_eq!(e.state_count, z.state_count, "{}", net.name());
            assert_eq!(e.deadlock_possible, z.deadlock_possible, "{}", net.name());
            assert_eq!(e.valid_set_count, z.valid_set_count, "{}", net.name());
            // both list witness histories in one order
            assert_eq!(e.deadlock_witnesses, z.deadlock_witnesses, "{}", net.name());
            assert_eq!(e.deadlock_traces, z.deadlock_traces, "{}", net.name());
        }
    }

    #[test]
    fn bounded_analysis_returns_partial_report() {
        use petri::ExhaustionReason;
        let outcome = analyze::<ZddFamily>(
            &models::nsdp(3),
            &GpoOptions::default(),
            &Budget::default().cap_states(1),
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
        assert!(result.state_count >= 1);
        assert_eq!(coverage.states_stored, result.state_count);
        assert!(coverage.bytes_estimate > 0);
    }

    #[test]
    fn state_limit_enforced() {
        use petri::ExhaustionReason;
        // NSDP(3) needs exactly three GPO states: the cap is inclusive
        fn check<F: SetFamily>() {
            let repr = type_name::<F>();
            let opts = GpoOptions::default();
            let run = |cap| {
                analyze::<F>(
                    &models::nsdp(3),
                    &opts,
                    &Budget::default().cap_states(cap),
                    &CheckpointConfig::default(),
                    None,
                )
                .unwrap()
            };
            assert_eq!(run(2).reason(), Some(ExhaustionReason::States), "{repr}");
            let at_cap = run(3);
            assert_eq!(at_cap.reason(), None, "{repr}");
            assert_eq!(at_cap.into_value().state_count, 3, "{repr}");
        }
        check::<ExplicitFamily>();
        check::<ZddFamily>();
    }

    #[test]
    fn cancelled_analysis_reports_cancellation() {
        use petri::ExhaustionReason;
        let budget = Budget::default();
        budget.cancel();
        let outcome = analyze::<ZddFamily>(
            &models::nsdp(3),
            &GpoOptions::default(),
            &budget,
            &CheckpointConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.reason(), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn a_stop_in_the_r0_build_stores_no_state_and_writes_no_snapshot() {
        use petri::ExhaustionReason;
        let dir = ckpt_dir("r0-stop");
        let cancelled = Budget::default();
        cancelled.cancel();
        let expired = Budget::default().with_timeout(Duration::ZERO);
        for (budget, want) in [
            (cancelled, ExhaustionReason::Cancelled),
            (expired, ExhaustionReason::Time),
        ] {
            let path = dir.join(format!("{want:?}.ckpt"));
            let outcome = analyze::<ZddFamily>(
                &models::nsdp(6),
                &GpoOptions::default(),
                &budget,
                &CheckpointConfig::at(&path),
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
            assert_eq!(reason, want);
            assert_eq!(result.state_count, 0, "{want:?}");
            assert_eq!(result.valid_set_count, 0, "{want:?}");
            assert!(!result.deadlock_possible, "{want:?}");
            assert_eq!(coverage.states_stored, 0, "{want:?}");
            assert_eq!(coverage.frontier_len, 0, "{want:?}");
            assert!(!path.exists(), "{want:?}: no snapshot of an unbuilt r0");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nsdp20_needs_exactly_three_states() {
        // the paper's headline at a size no enumeration of r₀ reaches: the
        // fork ring has (2+√3)^20 + (2−√3)^20 maximal independent sets, yet
        // 3 GPN states decide it, and the dead witness replays
        let net = models::nsdp(20);
        let report = analyze_all(&net).unwrap();
        assert_eq!(report.state_count, 3);
        assert!(report.deadlock_possible);
        assert_eq!(report.valid_set_count_exact, 274_758_382_274);
        let (trace, witness) = (&report.deadlock_traces[0], &report.deadlock_witnesses[0]);
        let reached = net
            .fire_sequence(net.initial_marking(), trace.iter().copied())
            .expect("safe")
            .expect("fireable");
        assert_eq!(&reached, witness);
        assert!(net.is_dead(witness));
    }

    #[test]
    fn fig2_past_the_old_limit_needs_two_states() {
        // 2^40 valid sets, far past the 2^24 the explicit enumeration was
        // once capped at: still 2 GPN states and a replaying witness
        let net = models::figures::fig2(40);
        let report = analyze_all(&net).unwrap();
        assert_eq!(report.state_count, 2);
        assert!(report.deadlock_possible);
        assert_eq!(report.valid_set_count, 1 << 40);
        let (trace, witness) = (&report.deadlock_traces[0], &report.deadlock_witnesses[0]);
        let reached = net
            .fire_sequence(net.initial_marking(), trace.iter().copied())
            .expect("safe")
            .expect("fireable");
        assert_eq!(&reached, witness);
        assert!(net.is_dead(witness));
    }

    #[test]
    fn enabling_families_are_reused_not_recomputed() {
        // the acceptance criterion for the hot-path optimisation: the
        // update rules consume the families expand() already computed, so
        // every analysis that fires anything must report avoided work
        for net in [models::figures::fig2(6), models::nsdp(4)] {
            let report = analyze_all(&net).unwrap();
            assert!(
                report.enabling_reused > 0,
                "{}: no enabling evaluations were reused",
                net.name()
            );
            assert!(report.enabling_computed > 0, "{}", net.name());
        }
    }

    #[test]
    fn throughput_counter_populated() {
        let report = analyze_all(&models::nsdp(3)).unwrap();
        assert!(report.states_per_sec() > 0.0);
    }

    #[test]
    fn parallel_threads_match_serial() {
        // the acceptance criterion of the concurrent-manager refactor:
        // same states, verdicts, witnesses, and work counters for every
        // thread count, under both representations
        fn check<F: SetFamily>(net: &PetriNet) {
            let repr = type_name::<F>();
            let base = GpoOptions {
                max_witnesses: 2,
                ..Default::default()
            };
            let serial = analyze_all_with::<F>(net, &base).unwrap();
            for threads in [2usize, 8] {
                let par = analyze_all_with::<F>(
                    net,
                    &GpoOptions {
                        threads,
                        ..base.clone()
                    },
                )
                .unwrap();
                let tag = format!("{} {repr} threads={threads}", net.name());
                assert_eq!(par.state_count, serial.state_count, "{tag}");
                assert_eq!(par.deadlock_possible, serial.deadlock_possible, "{tag}");
                assert_eq!(par.valid_set_count, serial.valid_set_count, "{tag}");
                assert_eq!(par.deadlock_witnesses, serial.deadlock_witnesses, "{tag}");
                assert_eq!(par.multiple_firings, serial.multiple_firings, "{tag}");
                assert_eq!(par.single_firings, serial.single_firings, "{tag}");
                assert_eq!(par.enabling_computed, serial.enabling_computed, "{tag}");
                assert_eq!(par.enabling_reused, serial.enabling_reused, "{tag}");
                assert_eq!(par.peak_footprint, serial.peak_footprint, "{tag}");
            }
        }
        for net in [
            models::figures::fig2(5),
            models::figures::fig7(),
            models::nsdp(3),
            models::readers_writers(4),
        ] {
            check::<ExplicitFamily>(&net);
            check::<ZddFamily>(&net);
        }
    }

    #[test]
    fn parallel_traces_replay_to_their_witnesses() {
        let net = models::nsdp(3);
        let report = analyze_all_with::<ZddFamily>(
            &net,
            &GpoOptions {
                threads: 4,
                max_witnesses: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.deadlock_traces.len(),
            report.deadlock_witnesses.len()
        );
        for (trace, witness) in report
            .deadlock_traces
            .iter()
            .zip(&report.deadlock_witnesses)
        {
            let reached = net
                .fire_sequence(net.initial_marking(), trace.iter().copied())
                .expect("safe")
                .expect("fireable");
            assert_eq!(&reached, witness);
        }
    }

    #[test]
    fn zdd_counters_populated_only_for_zdd_runs() {
        let z = analyze_all(&models::nsdp(3)).unwrap();
        assert!(z.zdd_nodes_allocated > 0);
        assert!(z.unique_hits > 0, "hash-consing never hit");
        let e =
            analyze_all_with::<ExplicitFamily>(&models::nsdp(3), &GpoOptions::default()).unwrap();
        assert_eq!(e.zdd_nodes_allocated, 0);
        assert_eq!(e.unique_hits, 0);
        assert_eq!(e.op_cache_hits, 0);
    }

    fn ckpt_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gpo-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let dir = ckpt_dir("ckpt");
        // caps chosen to interrupt mid-run: GPO collapses these models to
        // 3 and 2 states, so the partial run stores some but not all of them
        fn check<F: SetFamily>(dir: &std::path::Path, i: usize, net: &PetriNet, cap: usize) {
            let repr = type_name::<F>();
            for threads in [1usize, 2] {
                let tag = format!("{} {repr} threads={threads}", net.name());
                let opts = GpoOptions {
                    threads,
                    max_witnesses: 2,
                    ..Default::default()
                };
                let reference = analyze::<F>(
                    net,
                    &opts,
                    &Budget::default(),
                    &CheckpointConfig::default(),
                    None,
                )
                .unwrap()
                .into_value();
                let path = dir.join(format!("{i}-{}-{threads}.ckpt", F::ENGINE_KIND.name()));
                let partial = analyze::<F>(
                    net,
                    &opts,
                    &Budget::default().cap_states(cap),
                    &CheckpointConfig::at(&path),
                    None,
                )
                .unwrap();
                assert!(!partial.is_complete(), "{tag}");
                let snap = petri::checkpoint::read_checkpoint(&path).unwrap();
                let resumed = analyze::<F>(
                    net,
                    &opts,
                    &Budget::default(),
                    &CheckpointConfig::default(),
                    Some(&snap),
                )
                .unwrap();
                assert!(resumed.is_complete(), "{tag}");
                let resumed = resumed.into_value();
                assert_eq!(resumed.state_count, reference.state_count, "{tag}");
                assert_eq!(
                    resumed.deadlock_possible, reference.deadlock_possible,
                    "{tag}"
                );
                assert_eq!(resumed.valid_set_count, reference.valid_set_count, "{tag}");
                assert_eq!(
                    resumed.deadlock_witnesses, reference.deadlock_witnesses,
                    "{tag}"
                );
                assert_eq!(resumed.deadlock_traces, reference.deadlock_traces, "{tag}");
                assert_eq!(
                    resumed.multiple_firings, reference.multiple_firings,
                    "{tag}"
                );
                assert_eq!(resumed.single_firings, reference.single_firings, "{tag}");
            }
        }
        for (i, (net, cap)) in [(models::nsdp(3), 2), (models::figures::fig2(4), 1)]
            .into_iter()
            .enumerate()
        {
            check::<ExplicitFamily>(&dir, i, &net, cap);
            check::<ZddFamily>(&dir, i, &net, cap);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reach_tree_does_not_depend_on_the_witness_count() {
        // the frontier loop records origins whether or not edges are recorded, so
        // the PRED section is the same first-insertion tree either way
        let dir = ckpt_dir("pred");
        let net = models::nsdp(3);
        let pred = |max_witnesses| {
            let path = dir.join(format!("w{max_witnesses}.ckpt"));
            let opts = GpoOptions {
                max_witnesses,
                ..Default::default()
            };
            let ckpt = CheckpointConfig::at(&path);
            analyze::<ZddFamily>(&net, &opts, &Budget::default().cap_states(2), &ckpt, None)
                .unwrap();
            let snap = petri::checkpoint::read_checkpoint(&path).unwrap();
            snap.section(section::PRED).unwrap().to_vec()
        };
        let with_witnesses = pred(2);
        assert!(with_witnesses.len() > 8, "the partial run stored a tree");
        assert_eq!(pred(0), with_witnesses);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn periodic_checkpoints_written_and_resumable() {
        let dir = ckpt_dir("periodic");
        let net = models::nsdp(4);
        let path = dir.join("periodic.ckpt");
        let opts = GpoOptions::default();
        let outcome = analyze::<ZddFamily>(
            &net,
            &opts,
            &Budget::default(),
            &CheckpointConfig::periodic(&path, 1),
            None,
        )
        .unwrap();
        assert!(
            outcome.is_complete(),
            "periodic snapshots must not stop the run"
        );
        let reference = outcome.into_value();
        // the last periodic snapshot resumes to the identical verdict
        let snap = petri::checkpoint::read_checkpoint(&path).unwrap();
        let resumed = analyze::<ZddFamily>(
            &net,
            &opts,
            &Budget::default(),
            &CheckpointConfig::default(),
            Some(&snap),
        )
        .unwrap()
        .into_value();
        assert_eq!(resumed.state_count, reference.state_count);
        assert_eq!(resumed.deadlock_possible, reference.deadlock_possible);
        assert_eq!(resumed.deadlock_witnesses, reference.deadlock_witnesses);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_snapshots_rejected() {
        let dir = ckpt_dir("mismatch");
        let net = models::nsdp(3);
        let path = dir.join("explicit.ckpt");
        analyze::<ExplicitFamily>(
            &net,
            &GpoOptions::default(),
            &Budget::default().cap_states(1),
            &CheckpointConfig::at(&path),
            None,
        )
        .unwrap();
        let snap = petri::checkpoint::read_checkpoint(&path).unwrap();
        // wrong representation: the engine kind embedded in the snapshot
        // does not match the requested backend
        let err = analyze::<ZddFamily>(
            &net,
            &GpoOptions::default(),
            &Budget::default(),
            &CheckpointConfig::default(),
            Some(&snap),
        )
        .unwrap_err();
        assert!(matches!(err, GpoError::Checkpoint(_)), "{err}");
        // wrong net: the fingerprint check refuses to resume
        let err = analyze::<ExplicitFamily>(
            &models::figures::fig2(4),
            &GpoOptions::default(),
            &Budget::default(),
            &CheckpointConfig::default(),
            Some(&snap),
        )
        .unwrap_err();
        assert!(matches!(err, GpoError::Checkpoint(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The witnesses of `net` under `max_witnesses`, after checking that
    /// they are distinct dead markings whose traces replay.
    fn replayed_witnesses<F: SetFamily>(net: &PetriNet, max_witnesses: usize) -> Vec<Marking> {
        let representation = type_name::<F>();
        let opts = GpoOptions {
            max_witnesses,
            ..Default::default()
        };
        let report = analyze_all_with::<F>(net, &opts).unwrap();
        let witnesses = report.deadlock_witnesses;
        assert_eq!(report.deadlock_traces.len(), witnesses.len());
        for (trace, witness) in report.deadlock_traces.iter().zip(&witnesses) {
            let reached = net
                .fire_sequence(net.initial_marking(), trace.iter().copied())
                .expect("safe")
                .expect("fireable");
            assert_eq!(&reached, witness, "{representation}");
            assert!(net.is_dead(witness), "{representation}");
        }
        let distinct: std::collections::HashSet<&Marking> = witnesses.iter().collect();
        assert_eq!(distinct.len(), witnesses.len(), "{representation}");
        witnesses
    }

    #[test]
    fn witnesses_are_distinct_past_the_64th() {
        // 7 independent two-way choices: 128 dead markings, all in one
        // GPN state
        let mut b = petri::NetBuilder::new("choices");
        for i in 0..7 {
            let c = b.place_marked(format!("c{i}"));
            let (l, r) = (b.place(format!("l{i}")), b.place(format!("r{i}")));
            b.transition(format!("left{i}"), [c], [l]);
            b.transition(format!("right{i}"), [c], [r]);
        }
        let net = b.build().unwrap();
        assert_eq!(replayed_witnesses::<ExplicitFamily>(&net, 100).len(), 100);
        assert_eq!(replayed_witnesses::<ZddFamily>(&net, 100).len(), 100);
    }

    #[test]
    fn parallel_transitions_report_their_dead_marking_once() {
        let mut b = petri::NetBuilder::new("parallel");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t1", [p], [q]);
        b.transition("t2", [p], [q]);
        let net = b.build().unwrap();
        let dead = Marking::from_places(net.place_count(), [q]);
        assert_eq!(
            replayed_witnesses::<ExplicitFamily>(&net, 3),
            vec![dead.clone()]
        );
        assert_eq!(replayed_witnesses::<ZddFamily>(&net, 3), vec![dead]);
    }

    #[test]
    fn witness_budget_respected() {
        let report = analyze_all_with::<ZddFamily>(
            &models::figures::fig2(3),
            &GpoOptions {
                max_witnesses: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.deadlock_witnesses.len(), 3);
        let net = models::figures::fig2(3);
        for w in &report.deadlock_witnesses {
            assert!(net.is_dead(w));
        }
    }
}
