//! The frontier-exploration loop behind every explicit engine.
//!
//! The exhaustive [`ReachabilityGraph`](crate::ReachabilityGraph), the
//! stubborn-set-reduced engine of the `partial-order` crate and the
//! generalized partial-order analysis of `gpo-core` are one breadth-first
//! fixed-point loop over a hashed set of visited states; they differ only
//! in how a state's successors are computed. This module owns that loop.
//! It has two branches, picked by [`FrontierOptions::threads`]:
//!
//! * **one thread** runs a lock-free FIFO loop on the calling thread over
//!   the state type's [`StateTable`]: every state is stored once, under a
//!   dense id that an open-addressing table of `u32`s indexes (markings
//!   as packed words in one arena, see [`PackedTable`]). The table is the
//!   queue: ids are handed out in discovery order, so the next unexpanded
//!   id is always the queue head. Successors reach the loop by reference
//!   and are copied only when new;
//! * **two or more threads** run the work-stealing engine.
//!
//! The work-stealing engine scales across cores using only the standard
//! library:
//!
//! * a **sharded state index** — `2^k` mutex-guarded `HashMap<Marking, u32>`
//!   shards keyed by marking hash, so concurrent inserts rarely contend;
//! * **per-worker deques with stealing** — each worker owns a
//!   `Mutex<VecDeque>` it pushes and pops at the back (the critical
//!   sections are a handful of pointer moves, so the mutex is effectively
//!   a spin-length lock), while idle workers steal batches from the
//!   *front* of a victim chosen in randomized order, chase-lev style;
//! * a **global injector** queue holding the seed/resume frontier in
//!   increasing id order, drained in batches before any stealing happens;
//! * an **idle/termination protocol** — an atomic in-flight counter
//!   (`pending`: a state counts from enqueue until its expansion has been
//!   folded back in) plus a condvar guarded by a small control mutex.
//!   Exploration is complete exactly when `pending` hits zero; a worker
//!   with nothing to run or steal registers as a sleeper and waits, and
//!   every notification is raised while holding the control mutex, so a
//!   sleeper can never miss the wake-up that matters (see the termination
//!   argument in `DESIGN.md`);
//! * **worker-local result buffers** (labelled edges, origins, deadlocks)
//!   merged after `std::thread::scope` joins, so the hot loop never
//!   serializes on a global result vector.
//!
//! # Resource governance
//!
//! Both branches consult the caller's [`Budget`] before taking an item and
//! again **before every successor insertion**. When any axis (states,
//! bytes, deadline, cancellation) is exhausted mid-expansion, the
//! expansion is rolled back — recorded edges and the edge count are
//! truncated and the state stays unexpanded, so a resumed run re-expands
//! it exactly once — and the loop returns [`Outcome::Partial`] with
//! everything discovered so far plus [`CoverageStats`]. Successor states
//! inserted before the trip stay stored (they are genuinely reachable
//! frontier states), which bounds the budget overshoot to roughly **one
//! successor per worker** instead of one whole expansion's fan-out per
//! worker. Both branches count the same bytes:
//! [`FrontierState::approx_bytes`] plus [`STATE_OVERHEAD_BYTES`] per
//! stored state and [`EDGE_BYTES`] per recorded edge. The one-thread loop
//! reads the deadline clock on its first poll and then once every
//! [`StateTable::POLLS_PER_CLOCK_READ`] polls (256 for markings, whose
//! polls are as cheap as reading the clock; every poll for GPN states).
//!
//! The rollback maintains the invariant that `succ[id]` is non-empty only
//! if `expanded[id]`, which is what keeps edge counts exact across
//! interrupt/resume cycles. Because a rolled-back expansion's successors
//! keep no incoming edge, the loop also records an **origin sidecar**
//! (see [`FrontierResult::origin`]): the `(parent, label)` pair of the
//! expansion that first inserted each state, never rolled back, so every
//! witness path (full, po and the GPO reach tree) stays complete even
//! through aborted expansions. A seed carries its states' origins, so a
//! resumed run returns the whole vector.
//!
//! # Panic safety
//!
//! Work-stealing worker bodies run under `catch_unwind`: a panicking
//! successor callback (or an injected fault, see
//! [`FrontierOptions::inject_fault_after`] and
//! [`FrontierOptions::inject_fault_on_steal`]) surfaces as
//! [`NetError::WorkerPanicked`] after all other workers have been joined —
//! it can neither hang quiescence nor cascade into poisoned-lock panics,
//! because every shared lock is acquired poison-tolerantly (the protected
//! state is only ever mutated by non-panicking operations, so a poisoned
//! guard is still consistent). A worker dying mid-steal may drop the batch
//! it was moving, but the recorded error aborts the whole run before the
//! lost items could be missed. The one-thread branch spawns no worker: a
//! panicking callback unwinds into the caller.
//!
//! # Determinism contract
//!
//! For a fixed model, the reachable state *set*, the deadlock marking
//! *set*, and the *number* of edges are identical for every thread count;
//! state **ids may permute** between runs because discovery order races.
//! Callers that need reproducible ids use one thread: the loop's FIFO
//! branch numbers states in breadth-first discovery order, lists
//! deadlocks in expansion order after the seed's, and records each
//! state's origin at its first insertion.
//!
//! # Genericity
//!
//! The loop is generic over the explored state type (anything
//! implementing [`FrontierState`]) and the edge label type, defaulting to
//! classical [`Marking`]s labelled by [`TransitionId`]s. The generalized
//! partial-order engine instantiates it with GPN states labelled by firing
//! records — same loop, same budget governance, same panic safety.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::budget::{Budget, BudgetPoll, CoverageStats, ExhaustionReason, Outcome};
use crate::error::NetError;
use crate::ids::TransitionId;
use crate::marking::Marking;
pub use crate::state_table::{PackedTable, StateTable, VecTable};

/// Approximate bookkeeping bytes per stored state beyond the marking
/// itself (index entry, result slot, queue slot). Both branches
/// count it, so byte accounting agrees across thread counts.
pub const STATE_OVERHEAD_BYTES: usize = 48;
/// Approximate bytes per recorded edge.
pub const EDGE_BYTES: usize = 24;
/// Most items moved in one steal (or one injector drain). Half the
/// victim's deque is taken, capped here so a thief never walks off with a
/// huge contiguous share of a deep frontier.
const MAX_STEAL_BATCH: usize = 32;

/// The callback a successor function hands each successor to, with its
/// label (see [`explore_frontier`]).
pub type Emit<'a, L, St> = dyn FnMut(L, &St) + 'a;

/// Number of worker threads to use when a caller asks for "all of them":
/// the system's available parallelism, or 1 if that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A state type the frontier engine can explore: hashable for the sharded
/// index, thread-crossing, and byte-accountable for the memory budget.
pub trait FrontierState: Clone + Eq + Hash + Send + Sync {
    /// The store the one-thread loop keeps these states in:
    /// [`PackedTable`] for markings, [`VecTable`] for anything else.
    type Table: StateTable<Self>;

    /// Approximate heap bytes of one state, for [`Budget`] accounting.
    fn approx_bytes(&self) -> usize;
}

impl FrontierState for Marking {
    type Table = PackedTable;

    fn approx_bytes(&self) -> usize {
        Marking::approx_bytes(self)
    }
}

/// Acquires a mutex even if a panicking worker poisoned it. Sound here
/// because all critical sections below perform only non-panicking updates
/// (integer arithmetic, `Vec`/`VecDeque`/`HashMap` inserts), so the data
/// behind a poisoned lock is never torn — the poison flag merely records
/// that *some* thread died, which the control block's `error` field tracks
/// explicitly.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of [`explore_frontier`].
#[derive(Debug, Clone)]
pub struct FrontierOptions {
    /// Worker count. `0` and `1` run the FIFO branch on the calling thread
    /// (reproducible ids); two or more run the work-stealing engine.
    pub threads: usize,
    /// Collect the labelled `(source, transition, target)` edges.
    pub record_edges: bool,
    /// Resource budget checked cooperatively before every dequeue and
    /// every successor insertion; exhausting it yields [`Outcome::Partial`]
    /// instead of an error.
    pub budget: Budget,
    /// Fault-injection hook for regression-testing the hang-free
    /// guarantee: the worker that acquires the `n`-th item (own pop,
    /// injector drain, or steal) panics instead of expanding it. Honoured
    /// by the work-stealing engine only. Compiled only for tests and the
    /// `fault-injection` feature.
    #[cfg(any(test, feature = "fault-injection"))]
    pub inject_fault_after: Option<usize>,
    /// Fault-injection hook aimed at the stealing path: the worker
    /// performing the `n`-th successful steal panics *after* removing the
    /// batch from the victim and before re-homing it — the worst spot,
    /// since the items die with the thief. The recorded error must still
    /// drain every other worker. Honoured by the work-stealing engine
    /// only. Compiled only for tests and the `fault-injection` feature.
    #[cfg(any(test, feature = "fault-injection"))]
    pub inject_fault_on_steal: Option<usize>,
    /// Test hook: start the id allocator at this value instead of the seed
    /// size, to force the [`NetError::StateIdOverflow`] branch without
    /// storing four billion states. The exploration **must** hit the
    /// overflow (the dense result table is never built on the error path);
    /// completing a run with a sparse id space would try to allocate a
    /// slot per skipped id. Compiled only for tests and the
    /// `fault-injection` feature.
    #[cfg(any(test, feature = "fault-injection"))]
    pub seed_next_id: Option<u32>,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            threads: default_threads(),
            record_edges: true,
            budget: Budget::default(),
            #[cfg(any(test, feature = "fault-injection"))]
            inject_fault_after: None,
            #[cfg(any(test, feature = "fault-injection"))]
            inject_fault_on_steal: None,
            #[cfg(any(test, feature = "fault-injection"))]
            seed_next_id: None,
        }
    }
}

/// What an exploration produced. Ids are dense `0..states.len()`
/// with the initial marking at id 0. On a partial run every stored state
/// is genuinely reachable, but only expanded states have their successors
/// (and deadlock classification) recorded.
#[derive(Debug)]
pub struct FrontierResult<St = Marking, L = TransitionId> {
    /// Every discovered state, indexed by state id.
    pub states: Vec<St>,
    /// Per state id, whether its successors have been computed. All `true`
    /// on a complete run; on a partial run the `false` entries are the
    /// frontier a resumed exploration must continue from.
    pub expanded: Vec<bool>,
    /// Labelled outgoing edges per state id; empty unless
    /// [`FrontierOptions::record_edges`] was set. Edges are recorded for a
    /// state exactly when it is `expanded` — a budget-aborted expansion
    /// rolls its edges back so a resume re-records them exactly once.
    pub succ: Vec<Vec<(L, u32)>>,
    /// Per state id, the `(parent, label)` of the expansion that first
    /// inserted it: the seed's origins, then the new states'. `None` for
    /// id 0 only. Unlike recorded edges, origins are **not** rolled back
    /// when a budget trips mid-expansion, so they cover every stored
    /// state even when its incoming edge was rolled back.
    pub origin: Vec<Option<(u32, L)>>,
    /// Ids of expanded states with no successors: the seed's, then the
    /// ones found in this run. The work-stealing engine sorts them by id;
    /// the FIFO branch appends them in expansion order (increasing ids
    /// within the run).
    pub deadlocks: Vec<u32>,
    /// Total number of fired transitions (edges), recorded or not.
    pub edge_count: usize,
}

/// A previously explored prefix of the state space to continue from —
/// typically decoded from a [checkpoint](crate::checkpoint) snapshot. The
/// engine re-seeds its index with every state, re-enqueues exactly the
/// unexpanded ones (in increasing id order), and keeps all accumulated
/// edges, deadlocks, and counts.
#[derive(Debug)]
pub struct FrontierSeed<St = Marking, L = TransitionId> {
    /// Every previously discovered state, indexed by state id.
    pub states: Vec<St>,
    /// Per state id, whether it was already expanded (same length as
    /// `states`).
    pub expanded: Vec<bool>,
    /// Previously recorded edges per state id: one list per state, or no
    /// lists at all when the prior run did not record edges.
    pub succ: Vec<Vec<(L, u32)>>,
    /// Per state id, the `(parent, label)` that first reached it (same
    /// length as `states`; `None` for id 0).
    pub origin: Vec<Option<(u32, L)>>,
    /// Previously classified deadlock ids.
    pub deadlocks: Vec<u32>,
    /// Previously fired transition count.
    pub edge_count: usize,
}

impl<St, L> FrontierSeed<St, L> {
    /// The trivial seed of a fresh run: one stored, unexpanded initial
    /// state with id 0.
    pub fn initial(initial: St) -> Self {
        FrontierSeed {
            states: vec![initial],
            expanded: vec![false],
            succ: Vec::new(),
            origin: vec![None],
            deadlocks: Vec::new(),
            edge_count: 0,
        }
    }
}

/// Explores the frontier fixed point of `successors` from `initial`, on
/// the calling thread or on `opts.threads` workers.
///
/// `successors` receives a state and an `emit` callback, and calls
/// `emit(label, &successor)` for every successor in order; emitting
/// nothing marks the state as a deadlock. The loop copies a successor only
/// when it is new, so the callback may build every successor in one
/// scratch value. Once a budget trips mid-expansion, further emits are
/// ignored. The callback must be a pure function of the state — the
/// engine calls it once per distinct reachable state (twice only when a
/// budget aborts an expansion that a resume later re-runs), from an
/// unspecified thread.
///
/// Returns [`Outcome::Complete`] when the state space was exhausted and
/// [`Outcome::Partial`] when `opts.budget` ran out first.
///
/// # Errors
///
/// Propagates the first callback error, or [`NetError::WorkerPanicked`]
/// if a worker thread panicked (all other workers are joined first).
pub fn explore_frontier<St, L, S>(
    initial: St,
    opts: &FrontierOptions,
    successors: S,
) -> Result<Outcome<FrontierResult<St, L>>, NetError>
where
    St: FrontierState,
    L: Clone + Send,
    S: Fn(&St, &mut Emit<'_, L, St>) -> Result<(), NetError> + Sync,
{
    explore_frontier_seeded(FrontierSeed::initial(initial), opts, successors)
}

/// Continues exploring from a previously computed prefix (see
/// [`FrontierSeed`]). A seed of [`FrontierSeed::initial`] makes this
/// identical to [`explore_frontier`]; a seed decoded from a checkpoint
/// resumes the interrupted run, re-enqueuing its frontier in increasing
/// id order.
///
/// With `opts.threads <= 1` the loop runs on the calling thread in FIFO
/// order, so state ids, deadlock order and origins are reproducible; with
/// more, it runs on the work-stealing engine (see the module docs).
///
/// Prior states keep their ids; newly discovered states get the next
/// dense ids. All counts (stored states, byte estimate, expanded states,
/// edges) continue from the seed's totals, so a resumed run trips the
/// same budget limits an uninterrupted run would.
///
/// # Errors
///
/// Propagates the first callback error, [`NetError::StateIdOverflow`]
/// past `u32::MAX - 1` states, or [`NetError::WorkerPanicked`] if a
/// work-stealing worker panicked (all other workers are joined first).
///
/// # Panics
///
/// Panics if the seed is internally inconsistent (field lengths disagree
/// or it contains duplicate states) — seeds decoded from checkpoints are
/// validated before they reach the loop.
pub fn explore_frontier_seeded<St, L, S>(
    seed: FrontierSeed<St, L>,
    opts: &FrontierOptions,
    successors: S,
) -> Result<Outcome<FrontierResult<St, L>>, NetError>
where
    St: FrontierState,
    L: Clone + Send,
    S: Fn(&St, &mut Emit<'_, L, St>) -> Result<(), NetError> + Sync,
{
    let start = Instant::now();
    assert_eq!(seed.states.len(), seed.expanded.len(), "inconsistent seed");
    assert_eq!(seed.states.len(), seed.origin.len(), "inconsistent seed");
    assert!(
        seed.succ.is_empty() || seed.succ.len() == seed.states.len(),
        "inconsistent seed"
    );
    if opts.threads <= 1 {
        run_fifo(seed, opts, &successors, start)
    } else {
        run_work_stealing(seed, opts, &successors, start)
    }
}

/// Bytes a seed already holds under the shared accounting.
fn seed_bytes<St: FrontierState, L>(seed: &FrontierSeed<St, L>) -> usize {
    let recorded_edges: usize = seed.succ.iter().map(Vec::len).sum();
    seed.states
        .iter()
        .map(|s| s.approx_bytes() + STATE_OVERHEAD_BYTES)
        .sum::<usize>()
        + recorded_edges * EDGE_BYTES
}

/// The id handed to the first newly discovered state: the seed size,
/// unless a test raises it through [`FrontierOptions::seed_next_id`].
fn first_new_id(opts: &FrontierOptions, prior_count: usize) -> u32 {
    #[cfg(any(test, feature = "fault-injection"))]
    let forced = opts.seed_next_id;
    #[cfg(not(any(test, feature = "fault-injection")))]
    let forced: Option<u32> = {
        let _ = opts;
        None
    };
    let prior = prior_count as u32;
    forced.map_or(prior, |id| id.max(prior))
}

/// Wraps a finished run: complete, or partial with its coverage.
fn finish<St, L>(
    result: FrontierResult<St, L>,
    exhausted: Option<ExhaustionReason>,
    budget: &Budget,
    expanded: usize,
    bytes: usize,
    start: Instant,
) -> Outcome<FrontierResult<St, L>> {
    let Some(reason) = exhausted else {
        return Outcome::Complete(result);
    };
    let stored = result.states.len();
    Outcome::Partial {
        result,
        // re-classify at the stop: a cancel raised while the reason was
        // latched must win deterministically
        reason: budget.stop_reason(reason),
        coverage: CoverageStats {
            states_stored: stored,
            states_expanded: expanded,
            // every dequeued-but-aborted item ends the run unexpanded, so
            // the saturating difference counts the whole frontier
            // (expanded ≤ stored always holds; saturate anyway so a
            // miscount can never wrap)
            frontier_len: stored.saturating_sub(expanded),
            bytes_estimate: bytes,
            elapsed: start.elapsed(),
        },
    }
}

/// The one-thread branch: a FIFO loop on the calling thread over the state
/// type's [`StateTable`]. New states get the next dense id, so ids follow
/// discovery order and the queue is simply the unexpanded ids in
/// increasing order — the table itself, walked by a cursor. The state
/// being expanded is loaded into one scratch value, and each successor the
/// callback emits is looked up by reference: only a new one is copied in.
fn run_fifo<St, L, S>(
    seed: FrontierSeed<St, L>,
    opts: &FrontierOptions,
    successors: &S,
    start: Instant,
) -> Result<Outcome<FrontierResult<St, L>>, NetError>
where
    St: FrontierState,
    L: Clone,
    S: Fn(&St, &mut Emit<'_, L, St>) -> Result<(), NetError>,
{
    let budget = &opts.budget;
    let mut poll = BudgetPoll::new(budget, St::Table::POLLS_PER_CLOCK_READ);
    let mut bytes = seed_bytes(&seed);
    let id_skip = first_new_id(opts, seed.states.len()) as usize - seed.states.len();
    let FrontierSeed {
        states,
        mut expanded,
        mut succ,
        mut origin,
        mut deadlocks,
        mut edge_count,
    } = seed;
    let mut table = St::Table::from_states(states);
    if opts.record_edges {
        succ.resize_with(table.len(), Vec::new);
    }
    let mut expanded_count = expanded.iter().filter(|&&e| e).count();

    let mut scratch: Option<St> = None;
    let mut exhausted = None;
    let mut head = 0;
    loop {
        while head < table.len() && expanded[head] {
            head += 1;
        }
        if head == table.len() {
            break;
        }
        if let Some(reason) = poll.exceeded(table.len(), bytes) {
            exhausted = Some(reason);
            break;
        }
        let sid = head;
        head += 1;
        match &mut scratch {
            Some(state) => table.load(sid, state),
            None => scratch = Some(table.get(sid)),
        }
        let state = scratch.as_ref().expect("loaded above");

        let count_mark = edge_count;
        let mut overflow = false;
        successors(state, &mut |label, next| {
            if exhausted.is_some() || overflow {
                return;
            }
            // re-check between insertions: one huge fan-out must not blow
            // past the budget by more than a single successor
            if let Some(reason) = poll.exceeded(table.len(), bytes) {
                exhausted = Some(reason);
                return;
            }
            let (idx, new) = table.insert(next);
            // u32::MAX is reserved, as in the work-stealing allocator
            let nid = idx + id_skip;
            if nid >= u32::MAX as usize {
                overflow = true;
                return;
            }
            if new {
                bytes += next.approx_bytes() + STATE_OVERHEAD_BYTES;
                expanded.push(false);
                if opts.record_edges {
                    succ.push(Vec::new());
                }
                origin.push(Some((sid as u32, label.clone())));
            }
            edge_count += 1;
            if opts.record_edges {
                bytes += EDGE_BYTES;
                succ[sid].push((label, nid as u32));
            }
        })?;
        if overflow {
            return Err(NetError::StateIdOverflow);
        }
        if exhausted.is_some() {
            // roll the expansion back so `sid` stays cleanly unexpanded;
            // the successors already stored stay, their provenance in the
            // origin sidecar
            let rolled = edge_count - count_mark;
            if opts.record_edges {
                bytes -= rolled * EDGE_BYTES;
                let kept = succ[sid].len() - rolled;
                succ[sid].truncate(kept);
            }
            edge_count = count_mark;
            break;
        }
        if edge_count == count_mark {
            deadlocks.push(sid as u32);
        }
        expanded[sid] = true;
        expanded_count += 1;
    }

    drop(scratch);
    let states = table.into_states();
    if opts.record_edges {
        succ.resize_with(states.len(), Vec::new);
    }
    let result = FrontierResult {
        states,
        expanded,
        succ,
        origin,
        deadlocks,
        edge_count,
    };
    Ok(finish(
        result,
        exhausted,
        budget,
        expanded_count,
        bytes,
        start,
    ))
}

/// The branch for two or more threads: the work-stealing engine described
/// in the module docs.
fn run_work_stealing<St, L, S>(
    seed: FrontierSeed<St, L>,
    opts: &FrontierOptions,
    successors: &S,
    start: Instant,
) -> Result<Outcome<FrontierResult<St, L>>, NetError>
where
    St: FrontierState,
    L: Clone + Send,
    S: Fn(&St, &mut Emit<'_, L, St>) -> Result<(), NetError> + Sync,
{
    let threads = opts.threads;
    let shard_count = (threads * 8).next_power_of_two();
    let seed_bytes = seed_bytes(&seed);
    let first_id = first_new_id(opts, seed.states.len());

    let FrontierSeed {
        states: seed_states,
        expanded: seed_expanded,
        succ: seed_succ,
        origin: seed_origin,
        deadlocks: seed_deadlocks,
        edge_count: seed_edge_count,
    } = seed;
    let prior_count = seed_states.len();
    let prior_expanded = seed_expanded.iter().filter(|&&e| e).count();

    let shards: Vec<Mutex<HashMap<St, u32>>> = (0..shard_count)
        .map(|_| Mutex::new(HashMap::new()))
        .collect();
    let mut injector: VecDeque<(u32, St)> = VecDeque::new();
    for (id, state) in seed_states.into_iter().enumerate() {
        if !seed_expanded[id] {
            injector.push_back((id as u32, state.clone()));
        }
        let prev =
            lock_ignore_poison(&shards[shard_of(&state, shard_count - 1)]).insert(state, id as u32);
        assert!(prev.is_none(), "duplicate state in seed");
    }
    let pending = injector.len();

    let shared = Shared {
        successors,
        shards,
        shard_mask: shard_count - 1,
        next_id: AtomicU32::new(first_id),
        stored: AtomicUsize::new(prior_count),
        bytes: AtomicUsize::new(seed_bytes),
        expanded: AtomicUsize::new(prior_expanded),
        in_flight: AtomicUsize::new(0),
        pending: AtomicUsize::new(pending),
        budget: &opts.budget,
        record_edges: opts.record_edges,
        injector: Mutex::new(injector),
        locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        halt: AtomicBool::new(false),
        sleepers: AtomicUsize::new(0),
        control: Mutex::new(Control {
            error: None,
            exhausted: None,
        }),
        cv: Condvar::new(),
        #[cfg(any(test, feature = "fault-injection"))]
        fault_after: opts.inject_fault_after,
        #[cfg(any(test, feature = "fault-injection"))]
        fault_on_steal: opts.inject_fault_on_steal,
        #[cfg(any(test, feature = "fault-injection"))]
        acquired: AtomicUsize::new(0),
        #[cfg(any(test, feature = "fault-injection"))]
        steals: AtomicUsize::new(0),
    };

    let shared_ref = &shared;
    let outs: Vec<WorkerOut<L>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| scope.spawn(move || worker(shared_ref, wid)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                // unreachable in practice (worker bodies are wrapped in
                // catch_unwind), but never let a join failure cascade
                Err(_) => {
                    shared_ref.record_error(NetError::WorkerPanicked);
                    WorkerOut::default()
                }
            })
            .collect()
    });

    let control = shared
        .control
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = control.error {
        return Err(e);
    }
    debug_assert_eq!(
        shared.in_flight.load(Ordering::Relaxed),
        0,
        "every acquired item was folded back in"
    );

    // rebuild the dense state table from the sharded index — this also
    // recovers markings that were discovered but never expanded, which is
    // exactly what a budget-limited partial run leaves on the frontier
    let state_count = shared.next_id.load(Ordering::Relaxed) as usize;
    let mut slots: Vec<Option<St>> = (0..state_count).map(|_| None).collect();
    for shard in shared.shards {
        for (m, id) in shard.into_inner().unwrap_or_else(PoisonError::into_inner) {
            slots[id as usize] = Some(m);
        }
    }
    let states: Vec<St> = slots
        .into_iter()
        .map(|s| s.expect("every allocated id has a state in some shard"))
        .collect();
    let mut succ = seed_succ;
    if opts.record_edges {
        succ.resize_with(state_count, Vec::new);
    }
    let mut origin = seed_origin;
    origin.resize_with(state_count, || None);
    let mut expanded_flags = seed_expanded;
    expanded_flags.resize(state_count, false);
    let mut deadlocks = seed_deadlocks;
    let mut edge_count = seed_edge_count;
    for out in outs {
        for (src, t, dst) in out.edges {
            succ[src as usize].push((t, dst));
        }
        for (child, parent, t) in out.origins {
            origin[child as usize] = Some((parent, t));
        }
        for sid in out.expanded {
            expanded_flags[sid as usize] = true;
        }
        deadlocks.extend(out.deadlocks);
        edge_count += out.edge_count;
    }
    deadlocks.sort_unstable();
    let result = FrontierResult {
        states,
        expanded: expanded_flags,
        succ,
        origin,
        deadlocks,
        edge_count,
    };
    Ok(finish(
        result,
        control.exhausted,
        shared.budget,
        shared.expanded.load(Ordering::Relaxed),
        shared.bytes.load(Ordering::Relaxed),
        start,
    ))
}

/// Error/exhaustion state shared by all workers, guarded by the control
/// mutex that also backs the idle condvar.
struct Control {
    error: Option<NetError>,
    /// First budget axis found exhausted; set once, drains all workers.
    exhausted: Option<ExhaustionReason>,
}

struct Shared<'a, St, S> {
    successors: &'a S,
    shards: Vec<Mutex<HashMap<St, u32>>>,
    shard_mask: usize,
    next_id: AtomicU32,
    stored: AtomicUsize,
    bytes: AtomicUsize,
    expanded: AtomicUsize,
    /// Items currently dequeued and being expanded; zero after every join.
    in_flight: AtomicUsize,
    /// States enqueued or currently being expanded; zero means complete.
    /// Incremented *before* an item becomes visible in any deque, so it
    /// can never transiently read zero while work remains.
    pending: AtomicUsize,
    budget: &'a Budget,
    record_edges: bool,
    /// Seed/resume frontier in increasing id order; drained before steals.
    injector: Mutex<VecDeque<(u32, St)>>,
    /// Per-worker deques: the owner pushes and pops at the back, thieves
    /// steal batches from the front.
    locals: Vec<Mutex<VecDeque<(u32, St)>>>,
    /// Raised with the first error or exhaustion; workers drain on sight.
    halt: AtomicBool,
    /// Workers currently waiting on the condvar (updated under `control`;
    /// read lock-free by producers deciding whether to notify).
    sleepers: AtomicUsize,
    control: Mutex<Control>,
    cv: Condvar,
    #[cfg(any(test, feature = "fault-injection"))]
    fault_after: Option<usize>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault_on_steal: Option<usize>,
    #[cfg(any(test, feature = "fault-injection"))]
    acquired: AtomicUsize,
    #[cfg(any(test, feature = "fault-injection"))]
    steals: AtomicUsize,
}

impl<St, S> Shared<'_, St, S> {
    /// Records the first error, halts the run, and wakes every sleeper.
    /// Notifying while holding the control mutex is what makes the idle
    /// protocol race-free (a sleeper is either pre-wait and re-checks, or
    /// in-wait and receives the broadcast).
    fn record_error(&self, e: NetError) {
        let mut c = lock_ignore_poison(&self.control);
        c.error.get_or_insert(e);
        self.halt.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Records the first exhausted budget axis, halts, and wakes sleepers.
    fn record_exhausted(&self, reason: ExhaustionReason) {
        let mut c = lock_ignore_poison(&self.control);
        if c.exhausted.is_none() {
            c.exhausted = Some(reason);
        }
        self.halt.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Wakes sleepers after publishing work or finishing the last item.
    fn notify_under_lock(&self) {
        let _c = lock_ignore_poison(&self.control);
        self.cv.notify_all();
    }
}

struct WorkerOut<L> {
    edges: Vec<(u32, L, u32)>,
    /// `(child, parent, label)` discovery records, kept through aborts.
    origins: Vec<(u32, u32, L)>,
    expanded: Vec<u32>,
    deadlocks: Vec<u32>,
    edge_count: usize,
}

// not derived: `#[derive(Default)]` would needlessly require `L: Default`
impl<L> Default for WorkerOut<L> {
    fn default() -> Self {
        WorkerOut {
            edges: Vec::new(),
            origins: Vec::new(),
            expanded: Vec::new(),
            deadlocks: Vec::new(),
            edge_count: 0,
        }
    }
}

fn shard_of<St: Hash>(m: &St, mask: usize) -> usize {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    (h.finish() as usize) & mask
}

/// Allocates the next dense state id without ever wrapping: `u32::MAX` is
/// reserved as the overflow sentinel, and the CAS loop (unlike a blind
/// `fetch_add`) guarantees two racing allocators near the boundary cannot
/// wrap the counter and hand out id 0 twice.
fn alloc_id(next_id: &AtomicU32) -> Option<u32> {
    let mut cur = next_id.load(Ordering::Relaxed);
    loop {
        if cur == u32::MAX {
            return None;
        }
        match next_id.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(cur),
            Err(seen) => cur = seen,
        }
    }
}

/// Tiny xorshift64 generator for randomized victim selection — no external
/// RNG dependency, deterministic per worker index, never zero.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_usize(&mut self, bound: usize) -> usize {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x % bound.max(1) as u64) as usize
    }
}

/// Panic-isolating wrapper: any panic escaping the worker body is recorded
/// as [`NetError::WorkerPanicked`] and broadcast so the remaining workers
/// drain instead of waiting forever on the condvar.
fn worker<St, L, S>(shared: &Shared<'_, St, S>, wid: usize) -> WorkerOut<L>
where
    St: FrontierState,
    L: Clone + Send,
    S: Fn(&St, &mut Emit<'_, L, St>) -> Result<(), NetError> + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| worker_inner(shared, wid))) {
        Ok(out) => out,
        Err(_) => {
            shared.record_error(NetError::WorkerPanicked);
            WorkerOut::default()
        }
    }
}

/// Takes the next work item: own deque (back), then the injector, then a
/// batch stolen from the front of another worker's deque, victims tried in
/// randomized order. Batches beyond the returned item are re-homed into
/// the caller's own deque — never while holding the victim's lock, so two
/// thieves can never deadlock on each other's deques.
fn acquire<St, S>(shared: &Shared<'_, St, S>, wid: usize, rng: &mut XorShift) -> Option<(u32, St)> {
    if let Some(item) = lock_ignore_poison(&shared.locals[wid]).pop_back() {
        return Some(item);
    }

    {
        let mut inj = lock_ignore_poison(&shared.injector);
        if !inj.is_empty() {
            // drain a proportional batch so a wide resume frontier spreads
            // across workers instead of serializing on the injector lock
            let take = (inj.len() / shared.locals.len()).clamp(1, MAX_STEAL_BATCH);
            let batch: Vec<(u32, St)> = inj.drain(..take).collect();
            drop(inj);
            return Some(rehome(shared, wid, batch));
        }
    }

    let victims = shared.locals.len();
    let start = rng.next_usize(victims);
    for i in 0..victims {
        let v = (start + i) % victims;
        if v == wid {
            continue;
        }
        let batch: Vec<(u32, St)> = {
            let mut d = lock_ignore_poison(&shared.locals[v]);
            if d.is_empty() {
                continue;
            }
            let take = d.len().div_ceil(2).min(MAX_STEAL_BATCH);
            d.drain(..take).collect()
        };

        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(n) = shared.fault_on_steal {
            if shared.steals.fetch_add(1, Ordering::Relaxed) + 1 == n {
                // die at the worst spot: the batch is out of the victim
                // but not yet re-homed, so it drops with this worker
                panic!("injected fault on steal #{n}");
            }
        }

        return Some(rehome(shared, wid, batch));
    }
    None
}

/// Keeps the first item of a freshly taken batch and parks the rest in the
/// caller's own deque.
fn rehome<St, S>(shared: &Shared<'_, St, S>, wid: usize, batch: Vec<(u32, St)>) -> (u32, St) {
    let mut it = batch.into_iter();
    let first = it.next().expect("batches are never empty");
    let mut rest = it.peekable();
    if rest.peek().is_some() {
        lock_ignore_poison(&shared.locals[wid]).extend(rest);
    }
    first
}

/// How an in-progress expansion was cut short.
enum Abort {
    /// A budget axis tripped between successor insertions.
    Exhausted(ExhaustionReason),
    /// The dense id space ran out ([`NetError::StateIdOverflow`]).
    Overflow,
}

fn worker_inner<St, L, S>(shared: &Shared<'_, St, S>, wid: usize) -> WorkerOut<L>
where
    St: FrontierState,
    L: Clone + Send,
    S: Fn(&St, &mut Emit<'_, L, St>) -> Result<(), NetError> + Sync,
{
    let mut out = WorkerOut::default();
    let mut succs: Vec<(L, St)> = Vec::new();
    let mut newly: Vec<(u32, St)> = Vec::new();
    let mut rng = XorShift::new(wid as u64 + 1);
    loop {
        if shared.halt.load(Ordering::Acquire) {
            return out;
        }
        if let Some(reason) = shared.budget.exceeded(
            shared.stored.load(Ordering::Relaxed),
            shared.bytes.load(Ordering::Relaxed),
        ) {
            shared.record_exhausted(reason);
            return out;
        }

        let Some((sid, state)) = acquire(shared, wid, &mut rng) else {
            // idle protocol: register as a sleeper under the control lock,
            // wait, and re-scan on wake. Every notification happens while
            // holding this lock, so between our failed scan and the wait
            // no wake-up can slip by unobserved — and a push we raced with
            // is still consumed by its producer's own deque loop.
            let c = lock_ignore_poison(&shared.control);
            if c.error.is_some() || c.exhausted.is_some() {
                return out;
            }
            if shared.pending.load(Ordering::Acquire) == 0 {
                shared.cv.notify_all();
                return out;
            }
            shared.sleepers.fetch_add(1, Ordering::Relaxed);
            let c = shared.cv.wait(c).unwrap_or_else(PoisonError::into_inner);
            shared.sleepers.fetch_sub(1, Ordering::Relaxed);
            drop(c);
            continue;
        };

        shared.in_flight.fetch_add(1, Ordering::Relaxed);

        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(n) = shared.fault_after {
            if shared.acquired.fetch_add(1, Ordering::Relaxed) + 1 == n {
                panic!("injected fault after {n} acquisitions");
            }
        }

        succs.clear();
        if let Err(e) = (shared.successors)(&state, &mut |t, next: &St| {
            succs.push((t, next.clone()));
        }) {
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            shared.pending.fetch_sub(1, Ordering::AcqRel);
            shared.record_error(e);
            return out;
        }

        let edges_mark = out.edges.len();
        let count_mark = out.edge_count;
        let mut aborted: Option<Abort> = None;
        for (t, next) in succs.drain(..) {
            // re-check between insertions: one huge fan-out must not blow
            // past the budget by more than a single successor per worker
            if let Some(reason) = shared.budget.exceeded(
                shared.stored.load(Ordering::Relaxed),
                shared.bytes.load(Ordering::Relaxed),
            ) {
                aborted = Some(Abort::Exhausted(reason));
                break;
            }
            let shard = &shared.shards[shard_of(&next, shared.shard_mask)];
            let nid = match lock_ignore_poison(shard).entry(next) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let Some(nid) = alloc_id(&shared.next_id) else {
                        aborted = Some(Abort::Overflow);
                        break;
                    };
                    shared.stored.fetch_add(1, Ordering::Relaxed);
                    shared.bytes.fetch_add(
                        e.key().approx_bytes() + STATE_OVERHEAD_BYTES,
                        Ordering::Relaxed,
                    );
                    out.origins.push((nid, sid, t.clone()));
                    newly.push((nid, e.key().clone()));
                    e.insert(nid);
                    nid
                }
            };
            out.edge_count += 1;
            if shared.record_edges {
                shared.bytes.fetch_add(EDGE_BYTES, Ordering::Relaxed);
                out.edges.push((sid, t, nid));
            }
        }

        if let Some(abort) = aborted {
            // roll the expansion back so `sid` stays cleanly unexpanded: a
            // resume re-expands it and re-records its edges exactly once.
            // Successor states already inserted stay — they are genuinely
            // reachable frontier states whose provenance lives in the
            // origin sidecar, not in a (rolled-back) edge.
            let rolled = out.edges.len() - edges_mark;
            if rolled > 0 {
                shared
                    .bytes
                    .fetch_sub(rolled * EDGE_BYTES, Ordering::Relaxed);
                out.edges.truncate(edges_mark);
            }
            out.edge_count = count_mark;
            newly.clear();
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            shared.pending.fetch_sub(1, Ordering::AcqRel);
            match abort {
                Abort::Exhausted(reason) => shared.record_exhausted(reason),
                Abort::Overflow => shared.record_error(NetError::StateIdOverflow),
            }
            return out;
        }

        if out.edge_count == count_mark {
            out.deadlocks.push(sid);
        }
        shared.expanded.fetch_add(1, Ordering::Relaxed);
        out.expanded.push(sid);

        // fold back in: make new work visible (incrementing `pending`
        // FIRST so it cannot transiently hit zero), then retire this item
        let grew = !newly.is_empty();
        if grew {
            shared.pending.fetch_add(newly.len(), Ordering::AcqRel);
            lock_ignore_poison(&shared.locals[wid]).extend(newly.drain(..));
        }
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        let remaining = shared.pending.fetch_sub(1, Ordering::AcqRel) - 1;
        if remaining == 0 {
            shared.notify_under_lock();
            return out;
        }
        if grew && shared.sleepers.load(Ordering::Relaxed) > 0 {
            shared.notify_under_lock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetBuilder, PetriNet};
    use std::time::Duration;

    fn concurrent(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("concurrent");
        for i in 0..n {
            let p = b.place_marked(format!("in{i}"));
            let q = b.place(format!("out{i}"));
            b.transition(format!("t{i}"), [p], [q]);
        }
        b.build().unwrap()
    }

    /// Deep chain whose every link also fans out into `width` dead ends —
    /// the classic steal-heavy shape: the chain owner keeps producing one
    /// deep item plus `width` leaves, so thieves always find work.
    fn comb(depth: usize, width: usize) -> PetriNet {
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

    /// One marked hub firing into `n` distinct leaves: a single expansion
    /// with fan-out `n`, for pinning the budget-overshoot bound.
    fn star(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("star");
        let p = b.place_marked("hub");
        for i in 0..n {
            let q = b.place(format!("leaf{i}"));
            b.transition(format!("t{i}"), [p], [q]);
        }
        b.build().unwrap()
    }

    fn net_successors(
        net: &PetriNet,
    ) -> impl Fn(&Marking, &mut Emit<'_, TransitionId, Marking>) -> Result<(), NetError> + Sync + '_
    {
        move |m, emit| {
            for t in net.transitions() {
                if net.enabled(t, m) {
                    emit(t, &net.fire(t, m)?);
                }
            }
            Ok(())
        }
    }

    fn opts(threads: usize) -> FrontierOptions {
        FrontierOptions {
            threads,
            ..Default::default()
        }
    }

    #[test]
    fn hypercube_explored_completely() {
        let net = concurrent(4);
        for threads in [1, 2, 3, 8] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &opts(threads),
                net_successors(&net),
            )
            .unwrap();
            assert!(outcome.is_complete(), "threads={threads}");
            let r = outcome.into_value();
            assert_eq!(r.states.len(), 16, "threads={threads}");
            assert_eq!(r.edge_count, 32, "threads={threads}");
            assert_eq!(r.deadlocks.len(), 1, "threads={threads}");
            // initial marking keeps id 0; the deadlock is the all-out marking
            assert_eq!(&r.states[0], net.initial_marking());
            assert_eq!(
                r.states[r.deadlocks[0] as usize].token_count(),
                4,
                "all strands finished"
            );
        }
    }

    #[test]
    fn state_set_is_thread_count_invariant() {
        use std::collections::BTreeSet;
        let net = concurrent(5);
        let sets: Vec<BTreeSet<Marking>> = [1usize, 2, 4, 16]
            .iter()
            .map(|&threads| {
                explore_frontier(
                    net.initial_marking().clone(),
                    &opts(threads),
                    net_successors(&net),
                )
                .unwrap()
                .into_value()
                .states
                .into_iter()
                .collect()
            })
            .collect();
        for set in &sets[1..] {
            assert_eq!(set, &sets[0]);
        }
        assert_eq!(sets[0].len(), 32);
    }

    #[test]
    fn steal_heavy_comb_is_thread_count_invariant() {
        use std::collections::BTreeSet;
        // one seed state, a 32-deep chain, 6-wide fan-out per link: the
        // schedule is dominated by thieves nibbling leaves while one
        // worker advances the chain
        let net = comb(32, 6);
        let expected_states = 33 + 32 * 6;
        let expected_edges = 32 * 7;
        let mut reference: Option<(BTreeSet<Marking>, BTreeSet<Marking>)> = None;
        for threads in [1usize, 2, 4, 8] {
            let r = explore_frontier(
                net.initial_marking().clone(),
                &opts(threads),
                net_successors(&net),
            )
            .unwrap()
            .into_value();
            assert_eq!(r.states.len(), expected_states, "threads={threads}");
            assert_eq!(r.edge_count, expected_edges, "threads={threads}");
            assert_eq!(r.deadlocks.len(), 32 * 6 + 1, "threads={threads}");
            let states: BTreeSet<Marking> = r.states.iter().cloned().collect();
            let deads: BTreeSet<Marking> = r
                .deadlocks
                .iter()
                .map(|&d| r.states[d as usize].clone())
                .collect();
            match &reference {
                None => reference = Some((states, deads)),
                Some((s, d)) => {
                    assert_eq!(&states, s, "threads={threads}");
                    assert_eq!(&deads, d, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn state_budget_yields_partial_not_error() {
        let net = concurrent(6);
        let full = explore_frontier(
            net.initial_marking().clone(),
            &opts(2),
            net_successors(&net),
        )
        .unwrap()
        .into_value();
        for threads in [1, 4] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    record_edges: false,
                    budget: Budget::default().cap_states(10),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert_eq!(outcome.reason(), Some(ExhaustionReason::States));
            let coverage = outcome.coverage().unwrap().clone();
            let r = outcome.into_value();
            assert!(
                r.states.len() > 10,
                "threads={threads}: limit was actually hit"
            );
            // the per-successor re-check caps the overshoot at one successor
            // per worker, much tighter than one expansion's fan-out per worker
            assert!(
                r.states.len() <= 10 + threads,
                "threads={threads}: bounded overshoot"
            );
            assert_eq!(coverage.states_stored, r.states.len());
            assert_eq!(
                coverage.frontier_len,
                coverage.states_stored - coverage.states_expanded
            );
            assert!(coverage.frontier_len > 0, "something left unexplored");
            // every stored marking is genuinely reachable
            for m in &r.states {
                assert!(full.states.contains(m), "partial ⊆ full");
            }
        }
    }

    #[test]
    fn wide_fanout_overshoot_is_one_successor_per_worker() {
        // regression for the unbounded-overshoot bug: the budget used to
        // be consulted only before dequeue, so this single expansion with
        // fan-out 256 blew past max_states/max_bytes by the whole fan-out
        let net = star(256);
        let full = explore_frontier(
            net.initial_marking().clone(),
            &opts(2),
            net_successors(&net),
        )
        .unwrap()
        .into_value();
        let max_footprint = full
            .states
            .iter()
            .map(|m| m.approx_bytes() + STATE_OVERHEAD_BYTES)
            .max()
            .unwrap();
        for threads in [1, 4] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    budget: Budget::default().cap_states(4),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert_eq!(outcome.reason(), Some(ExhaustionReason::States));
            let coverage = outcome.coverage().unwrap().clone();
            let r = outcome.into_value();
            assert!(
                r.states.len() > 4,
                "threads={threads}: limit was actually hit"
            );
            assert!(
                r.states.len() <= 4 + threads,
                "threads={threads}: stored {} states: overshoot must be ≤ one successor per worker",
                r.states.len()
            );
            assert_eq!(
                coverage.states_expanded + coverage.frontier_len,
                coverage.states_stored
            );

            // same bound on the bytes axis, in units of the largest successor
            let cap = 700;
            // record_edges off so the estimate is monotone (see
            // byte_budget_yields_partial) and the bound is purely per-state
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    record_edges: false,
                    budget: Budget::default().cap_bytes(cap),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert_eq!(outcome.reason(), Some(ExhaustionReason::Memory));
            let coverage = outcome.coverage().unwrap();
            assert!(
                coverage.bytes_estimate > cap,
                "threads={threads}: limit was actually hit"
            );
            assert!(
                coverage.bytes_estimate <= cap + threads * max_footprint,
                "threads={threads}: estimate {} bytes: overshoot must be ≤ one successor per worker",
                coverage.bytes_estimate
            );
        }
    }

    #[test]
    fn aborted_expansions_leave_unexpanded_states_edgeless() {
        // the rollback invariant that keeps resume edge counts exact:
        // succ[id] is non-empty only if expanded[id]
        let net = concurrent(6);
        for threads in [1, 2, 4, 8] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    budget: Budget::default().cap_states(10),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            let coverage = outcome.coverage().unwrap().clone();
            let r = outcome.into_value();
            for (id, &e) in r.expanded.iter().enumerate() {
                if !e {
                    assert!(
                        r.succ[id].is_empty(),
                        "threads={threads}: unexpanded state {id} kept edges"
                    );
                }
            }
            let recorded: usize = r.succ.iter().map(Vec::len).sum();
            assert_eq!(recorded, r.edge_count, "threads={threads}");
            assert_eq!(
                coverage.states_expanded + coverage.frontier_len,
                coverage.states_stored,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn origins_give_complete_discovery_provenance() {
        let net = concurrent(4);
        for threads in [1, 4] {
            let r = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap()
            .into_value();
            assert_eq!(r.origin.len(), r.states.len(), "threads={threads}");
            assert!(r.origin[0].is_none(), "the seed has no origin");
            for (id, o) in r.origin.iter().enumerate().skip(1) {
                let (parent, t) = o.expect("every discovered state has an origin");
                assert_eq!(
                    net.fire(t, &r.states[parent as usize]).unwrap(),
                    r.states[id],
                    "threads={threads}: origin edge replays"
                );
            }
        }
    }

    #[test]
    fn origins_survive_budget_aborted_expansions() {
        // states inserted by an expansion that later hit the budget keep
        // their origin even though the rolled-back edge is gone — this is
        // what lets the GPO engine build witness traces on partial runs
        let net = concurrent(6);
        for threads in [1, 4] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    budget: Budget::default().cap_states(10),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert!(!outcome.is_complete(), "threads={threads}");
            let r = outcome.into_value();
            let mut has_incoming = vec![false; r.states.len()];
            for edges in &r.succ {
                for &(_, dst) in edges {
                    has_incoming[dst as usize] = true;
                }
            }
            let mut orphans = 0;
            for (id, edged) in has_incoming.iter().enumerate().skip(1) {
                let (parent, t) = r.origin[id].expect("origin recorded for every discovery");
                assert_eq!(
                    net.fire(t, &r.states[parent as usize]).unwrap(),
                    r.states[id]
                );
                if !edged {
                    orphans += 1;
                }
            }
            // at one thread the trip lands mid-expansion of the state
            // that stored the 11th marking, so its successors are orphans;
            // with more workers it depends on which one tripped first
            if threads == 1 {
                assert!(orphans > 0, "the aborted expansion left orphans");
            }
        }
    }

    #[test]
    fn expired_deadline_yields_partial() {
        let net = concurrent(5);
        for threads in [1, 2] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    budget: Budget::default().with_timeout(Duration::ZERO),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert_eq!(outcome.reason(), Some(ExhaustionReason::Time));
            assert!(!outcome.value().states.is_empty(), "initial state kept");
        }
    }

    /// The one-thread loop reads the deadline clock on its first poll, so
    /// a zero timeout stops it before the first expansion, as it does the
    /// work-stealing engine.
    #[test]
    fn zero_deadline_stops_before_the_first_expansion() {
        let net = concurrent(5);
        for threads in [1, 2] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    budget: Budget::default().with_timeout(Duration::ZERO),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert_eq!(
                outcome.reason(),
                Some(ExhaustionReason::Time),
                "threads={threads}"
            );
            assert_eq!(
                outcome.coverage().unwrap().states_expanded,
                0,
                "threads={threads}"
            );
            assert_eq!(outcome.value().states.len(), 1, "threads={threads}");
        }
    }

    /// Between clock reads the one-thread loop makes at most
    /// `POLLS_PER_CLOCK_READ` polls, so a deadline that passes mid-run
    /// stops it within that many insertions.
    #[test]
    fn deadline_passing_mid_run_stops_the_one_thread_loop() {
        let net = concurrent(12);
        let start = Instant::now();
        let outcome = explore_frontier(
            net.initial_marking().clone(),
            &FrontierOptions {
                threads: 1,
                budget: Budget::default().with_timeout(Duration::from_millis(20)),
                ..Default::default()
            },
            |m: &Marking, emit: &mut Emit<'_, TransitionId, Marking>| {
                std::thread::sleep(Duration::from_micros(200));
                for t in net.transitions() {
                    if net.enabled(t, m) {
                        emit(t, &net.fire(t, m)?);
                    }
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(outcome.reason(), Some(ExhaustionReason::Time));
        let expanded = outcome.coverage().unwrap().states_expanded;
        // 4096 states at 200 µs each would take 0.8 s; polls come at least
        // once per expansion, so the stop lands within 256 expansions of
        // the deadline
        assert!(expanded < 100 + 256, "{expanded} expansions");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn cancellation_yields_partial() {
        let net = concurrent(5);
        let budget = Budget::default();
        budget.cancel();
        for threads in [1, 2] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    budget: budget.clone(),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert_eq!(
                outcome.reason(),
                Some(ExhaustionReason::Cancelled),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn byte_budget_yields_partial() {
        let net = concurrent(8);
        for threads in [1, 2] {
            // record_edges off so the estimate is monotone: rolled-back edge
            // bytes could otherwise dip the final figure back under the cap
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    record_edges: false,
                    budget: Budget::default().cap_bytes(600),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert_eq!(outcome.reason(), Some(ExhaustionReason::Memory));
            let coverage = outcome.coverage().unwrap();
            assert!(coverage.bytes_estimate > 600, "threads={threads}");
        }
    }

    #[test]
    fn callback_error_propagates() {
        let net = concurrent(3);
        for threads in [1, 2] {
            let err = explore_frontier(
                net.initial_marking().clone(),
                &opts(threads),
                |_m: &Marking, _emit: &mut Emit<'_, TransitionId, Marking>| {
                    Err(NetError::Reduction("boom".into()))
                },
            )
            .unwrap_err();
            assert_eq!(err, NetError::Reduction("boom".into()), "threads={threads}");
        }
    }

    #[test]
    fn recorded_edges_form_the_reachability_graph() {
        let net = concurrent(3);
        let r = explore_frontier(
            net.initial_marking().clone(),
            &opts(4),
            net_successors(&net),
        )
        .unwrap()
        .into_value();
        // every recorded edge replays: fire(t, states[src]) == states[dst]
        let mut total = 0;
        for (src, edges) in r.succ.iter().enumerate() {
            for &(t, dst) in edges {
                let fired = net.fire(t, &r.states[src]).unwrap();
                assert_eq!(fired, r.states[dst as usize]);
                total += 1;
            }
        }
        assert_eq!(total, r.edge_count);
    }

    #[test]
    fn injected_worker_panic_surfaces_without_hanging() {
        // the regression test for the hang-free guarantee: a worker dying
        // mid-exploration must neither stall quiescence detection nor
        // cascade into poisoned-lock panics on the other workers
        let net = concurrent(8);
        for threads in [2, 8] {
            let start = Instant::now();
            let err = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    inject_fault_after: Some(5),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap_err();
            assert_eq!(err, NetError::WorkerPanicked, "threads={threads}");
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "threads={threads}: join took {:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn panic_on_first_dequeue_still_joins() {
        let net = concurrent(4);
        let err = explore_frontier(
            net.initial_marking().clone(),
            &FrontierOptions {
                threads: 4,
                inject_fault_after: Some(1),
                ..Default::default()
            },
            net_successors(&net),
        )
        .unwrap_err();
        assert_eq!(err, NetError::WorkerPanicked);
    }

    #[test]
    fn injected_mid_steal_panic_surfaces_without_hanging() {
        // a thief dying *after* removing a batch from its victim and
        // before re-homing it drops those items on the floor — the
        // recorded error must still drain every other worker instead of
        // leaving them waiting on the lost items' pending counts
        let net = concurrent(8);
        let start = Instant::now();
        let err = explore_frontier(
            net.initial_marking().clone(),
            &FrontierOptions {
                threads: 4,
                inject_fault_on_steal: Some(1),
                ..Default::default()
            },
            |m: &Marking, emit: &mut Emit<'_, TransitionId, Marking>| {
                // linger so expanded items sit in the owner's deque long
                // enough that a thief is guaranteed to find them
                std::thread::sleep(Duration::from_millis(5));
                for t in net.transitions() {
                    if net.enabled(t, m) {
                        emit(t, &net.fire(t, m)?);
                    }
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, NetError::WorkerPanicked);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "join took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn panicking_successor_callback_is_contained() {
        // a panic inside the *callback* (not just the injected hook) must
        // also surface as WorkerPanicked rather than poisoning the run
        let net = concurrent(4);
        let calls = AtomicUsize::new(0);
        let err = explore_frontier(
            net.initial_marking().clone(),
            &opts(3),
            |m: &Marking, emit: &mut Emit<'_, TransitionId, Marking>| {
                if calls.fetch_add(1, Ordering::Relaxed) == 3 {
                    panic!("callback exploded");
                }
                for t in net.transitions() {
                    if net.enabled(t, m) {
                        emit(t, &net.fire(t, m)?);
                    }
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, NetError::WorkerPanicked);
    }

    #[test]
    fn id_overflow_surfaces_as_error_without_inconsistency() {
        // regression for the overflow short-circuit: the old fetch_add +
        // fetch_sub undo could wrap the allocator to 0 under a race and
        // hand out a colliding id; the CAS allocator never wraps, and the
        // whole run fails closed with StateIdOverflow — there is no
        // partial result a resume could observe
        let net = concurrent(4); // needs 15 fresh ids, only 2 remain
        for threads in [1, 2, 8] {
            let start = Instant::now();
            let err = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    seed_next_id: Some(u32::MAX - 2),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap_err();
            assert_eq!(err, NetError::StateIdOverflow, "threads={threads}");
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "threads={threads}: join took {:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn seeded_resume_matches_uninterrupted_run() {
        use std::collections::BTreeSet;
        let net = concurrent(6);
        let reference = explore_frontier(
            net.initial_marking().clone(),
            &opts(2),
            net_successors(&net),
        )
        .unwrap()
        .into_value();

        for threads in [1, 2] {
            // interrupt a run early, then resume it from its own result
            let partial = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    budget: Budget::default().cap_states(10),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert!(!partial.is_complete(), "threads={threads}");
            let p = partial.into_value();
            assert!(p.expanded.iter().any(|&e| !e), "a frontier remains");
            let seed = FrontierSeed {
                states: p.states,
                expanded: p.expanded,
                succ: p.succ,
                origin: p.origin,
                deadlocks: p.deadlocks,
                edge_count: p.edge_count,
            };
            let resumed = explore_frontier_seeded(seed, &opts(threads), net_successors(&net))
                .unwrap()
                .into_value();

            assert_eq!(resumed.states.len(), reference.states.len());
            assert_eq!(resumed.edge_count, reference.edge_count);
            assert!(resumed.expanded.iter().all(|&e| e), "nothing left over");
            let ref_states: BTreeSet<&Marking> = reference.states.iter().collect();
            let res_states: BTreeSet<&Marking> = resumed.states.iter().collect();
            assert_eq!(ref_states, res_states, "threads={threads}");
            let ref_dead: BTreeSet<&Marking> = reference
                .deadlocks
                .iter()
                .map(|&d| &reference.states[d as usize])
                .collect();
            let res_dead: BTreeSet<&Marking> = resumed
                .deadlocks
                .iter()
                .map(|&d| &resumed.states[d as usize])
                .collect();
            assert_eq!(ref_dead, res_dead, "threads={threads}");
            // every recorded edge (old and new) still replays correctly
            let mut total = 0;
            for (src, edges) in resumed.succ.iter().enumerate() {
                for &(t, dst) in edges {
                    assert_eq!(
                        net.fire(t, &resumed.states[src]).unwrap(),
                        resumed.states[dst as usize]
                    );
                    total += 1;
                }
            }
            assert_eq!(total, resumed.edge_count, "threads={threads}");
            // so does every origin, the seed's and the new states'
            assert_eq!(resumed.origin.len(), resumed.states.len());
            for (id, o) in resumed.origin.iter().enumerate().skip(1) {
                let (parent, t) = o.expect("every stored state has an origin");
                assert_eq!(
                    net.fire(t, &resumed.states[parent as usize]).unwrap(),
                    resumed.states[id]
                );
            }
        }
    }

    #[test]
    fn fully_expanded_seed_returns_immediately_complete() {
        let net = concurrent(3);
        for threads in [1, 2] {
            let full = explore_frontier(
                net.initial_marking().clone(),
                &opts(threads),
                net_successors(&net),
            )
            .unwrap()
            .into_value();
            let seed = FrontierSeed {
                states: full.states.clone(),
                expanded: full.expanded.clone(),
                succ: full.succ,
                origin: full.origin.clone(),
                deadlocks: full.deadlocks.clone(),
                edge_count: full.edge_count,
            };
            let again =
                explore_frontier_seeded(seed, &opts(threads), net_successors(&net)).unwrap();
            assert!(again.is_complete(), "threads={threads}");
            let r = again.into_value();
            assert_eq!(r.states, full.states, "ids are preserved exactly");
            assert_eq!(r.origin, full.origin, "the seed's origins come back");
            assert_eq!(r.deadlocks, full.deadlocks);
            assert_eq!(r.edge_count, full.edge_count);
        }
    }

    #[test]
    fn zero_state_budget_keeps_only_the_initial_marking() {
        let net = concurrent(3);
        for threads in [1, 2] {
            let outcome = explore_frontier(
                net.initial_marking().clone(),
                &FrontierOptions {
                    threads,
                    budget: Budget::default().cap_states(0),
                    ..Default::default()
                },
                net_successors(&net),
            )
            .unwrap();
            assert_eq!(outcome.reason(), Some(ExhaustionReason::States));
            let r = outcome.into_value();
            assert_eq!(r.states.len(), 1, "initial marking is always stored");
            assert_eq!(&r.states[0], net.initial_marking());
        }
    }

    /// The one-thread branch is the reference the engines' outputs are
    /// pinned to: a plain breadth-first search with a FIFO queue numbers
    /// states, lists deadlocks and records origins exactly like it.
    #[test]
    fn one_thread_is_breadth_first_discovery_order() {
        use std::collections::VecDeque;
        let net = comb(6, 2);
        let succ = net_successors(&net);
        let mut states = vec![net.initial_marking().clone()];
        let mut index = HashMap::from([(states[0].clone(), 0u32)]);
        let mut origin = vec![None];
        let mut edges: Vec<Vec<(TransitionId, u32)>> = vec![Vec::new()];
        let mut deadlocks = Vec::new();
        let mut queue = VecDeque::from([0u32]);
        while let Some(sid) = queue.pop_front() {
            let mut out = Vec::new();
            succ(&states[sid as usize], &mut |t, next: &Marking| {
                out.push((t, next.clone()))
            })
            .unwrap();
            if out.is_empty() {
                deadlocks.push(sid);
            }
            for (t, next) in out {
                let nid = *index.entry(next.clone()).or_insert_with(|| {
                    states.push(next);
                    origin.push(Some((sid, t)));
                    edges.push(Vec::new());
                    queue.push_back(states.len() as u32 - 1);
                    states.len() as u32 - 1
                });
                edges[sid as usize].push((t, nid));
            }
        }

        let r = explore_frontier(
            net.initial_marking().clone(),
            &FrontierOptions {
                threads: 1,
                ..Default::default()
            },
            succ,
        )
        .unwrap()
        .into_value();
        assert_eq!(r.states, states);
        assert_eq!(r.succ, edges);
        assert_eq!(r.origin, origin);
        assert_eq!(r.deadlocks, deadlocks);
    }

    /// A resumed one-thread run keeps the seed's deadlocks first and
    /// appends the new ones in expansion order; it also accepts a seed
    /// without edge lists.
    #[test]
    fn one_thread_resume_appends_deadlocks_after_the_seeds() {
        let net = star(2);
        let full = explore_frontier(
            net.initial_marking().clone(),
            &opts(1),
            net_successors(&net),
        )
        .unwrap()
        .into_value();
        assert_eq!(full.deadlocks, vec![1, 2]);
        // a prior run that expanded leaf 2 but not yet leaf 1
        let seed = FrontierSeed {
            states: full.states.clone(),
            expanded: vec![true, false, true],
            succ: Vec::new(),
            origin: full.origin.clone(),
            deadlocks: vec![2],
            edge_count: 2,
        };
        let r = explore_frontier_seeded(
            seed,
            &FrontierOptions {
                threads: 1,
                record_edges: false,
                ..Default::default()
            },
            net_successors(&net),
        )
        .unwrap()
        .into_value();
        assert_eq!(r.states, full.states, "no new states");
        assert_eq!(r.deadlocks, vec![2, 1]);
        assert_eq!(r.edge_count, 2);
        assert!(r.succ.is_empty(), "no edge lists without edges");
    }
}
