//! Verdict-preserving structural net reduction (pre-pass).
//!
//! Shrinks a safe net *before* any engine explores it, attacking the state
//! explosion one layer earlier than partial-order or symbolic techniques:
//! a net with fewer places and transitions has exponentially fewer
//! interleavings for every engine downstream. The rules are the classical
//! Murata/Berthelot reductions, restricted to variants that preserve the
//! *deadlock verdict* of safe nets exactly (in the spirit of Khomenko &
//! Koutny's safe-net reduction):
//!
//! * **`dt` — dead transitions**: a transition that can never become
//!   enabled (some input place is never markable, or a P-invariant shows
//!   its input places can never hold enough tokens simultaneously) is
//!   removed. Reachable markings are untouched.
//! * **`rp` — redundant places**: duplicate places (same presets, postsets
//!   and initial marking as a sibling), constantly marked self-loop-only
//!   places, and sink places (empty postset) are removed. None of them
//!   ever constrains enabledness beyond what the remaining net encodes.
//! * **`it` — identity transitions**: a transition whose firing is a no-op
//!   (`•t = t•`) is removed *when a justifier exists* — another transition
//!   enabled whenever `t` is — so no dead marking is created by the removal.
//! * **`st` — fusion of series transitions**: a buffer place `p` with a
//!   unique producer `t1` and unique consumer `t2` (`•t2 = {p}`) collapses
//!   `t1; t2` into one transition, guarded by a P-invariant that makes the
//!   `t2`-early permutation sound.
//! * **`sp` — fusion of series places**: a silent transition `t` moving a
//!   token from `p` to `q` (`•t = {p}`, `t• = {q}`, `p• = {t}`) merges the
//!   two places, guarded by a P-invariant proving `m(p) + m(q) ≤ 1`.
//!
//! Rules run to a fixpoint. The pass returns the reduced net together with
//! a [`ReductionReport`] (per-rule application counts, sizes before/after)
//! and a [`ReductionMap`] that translates witness traces and markings on
//! the reduced net back to the original, so counterexamples stay replayable.
//! See DESIGN.md for the per-rule soundness arguments.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::ids::{PlaceId, TransitionId};
use crate::invariants::place_invariants_capped;
use crate::marking::Marking;
use crate::net::{NetBuilder, PetriNet};

/// Which reduction rules to run, plus resource guards.
///
/// # Examples
///
/// ```
/// use petri::reduce::ReduceOptions;
///
/// let all = ReduceOptions::default();
/// assert_eq!(all.rules_string(), "sp,st,rp,it,dt");
/// let some = ReduceOptions::parse("sp,dt").unwrap();
/// assert!(some.series_places && some.dead_transitions);
/// assert!(!some.series_transitions);
/// assert!(ReduceOptions::parse("bogus").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceOptions {
    /// Fuse series places (`sp`).
    pub series_places: bool,
    /// Fuse series transitions (`st`).
    pub series_transitions: bool,
    /// Remove redundant places (`rp`).
    pub redundant_places: bool,
    /// Remove justified identity transitions (`it`).
    pub identity_transitions: bool,
    /// Remove structurally dead transitions (`dt`).
    pub dead_transitions: bool,
    /// Skip P-invariant computation (and the rules that need it) on nets
    /// with more places than this: the Farkas algorithm can blow up.
    pub invariant_place_limit: usize,
    /// Cap on the Farkas work matrix while enumerating the guard
    /// invariants ([`place_invariants_capped`]): keeps the per-iteration
    /// cost of the pass bounded on nets whose minimal-invariant count
    /// explodes. Capping loses reductions, never soundness.
    ///
    /// [`place_invariants_capped`]: crate::place_invariants_capped
    pub invariant_row_limit: usize,
}

impl Default for ReduceOptions {
    fn default() -> Self {
        ReduceOptions {
            series_places: true,
            series_transitions: true,
            redundant_places: true,
            identity_transitions: true,
            dead_transitions: true,
            invariant_place_limit: 512,
            invariant_row_limit: 256,
        }
    }
}

impl ReduceOptions {
    /// All rules disabled (the pass becomes a no-op).
    pub fn none() -> Self {
        ReduceOptions {
            series_places: false,
            series_transitions: false,
            redundant_places: false,
            identity_transitions: false,
            dead_transitions: false,
            invariant_place_limit: 512,
            invariant_row_limit: 256,
        }
    }

    /// Parses a rule list like `"sp,st"`; `""` and `"all"` enable all rules.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first unknown rule.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec.is_empty() || spec == "all" {
            return Ok(ReduceOptions::default());
        }
        let mut opts = ReduceOptions::none();
        for tok in spec.split(',') {
            match tok.trim() {
                "sp" => opts.series_places = true,
                "st" => opts.series_transitions = true,
                "rp" => opts.redundant_places = true,
                "it" => opts.identity_transitions = true,
                "dt" => opts.dead_transitions = true,
                other => {
                    return Err(format!(
                        "unknown reduction rule `{other}` (expected a comma list of sp, st, rp, it, dt, or `all`)"
                    ))
                }
            }
        }
        Ok(opts)
    }

    /// Canonical comma list of the enabled rules (`"none"` if all disabled).
    pub fn rules_string(&self) -> String {
        let mut out = Vec::new();
        if self.series_places {
            out.push("sp");
        }
        if self.series_transitions {
            out.push("st");
        }
        if self.redundant_places {
            out.push("rp");
        }
        if self.identity_transitions {
            out.push("it");
        }
        if self.dead_transitions {
            out.push("dt");
        }
        if out.is_empty() {
            "none".into()
        } else {
            out.join(",")
        }
    }

    fn needs_invariants(&self) -> bool {
        self.series_places || self.series_transitions || self.dead_transitions
    }
}

/// The nodes a property observes, by name: the reduction must keep them
/// intact so the property still compiles against — and evaluates
/// faithfully on — the reduced net.
///
/// Place protection extends to the pre-places of every observed
/// transition (a `fireable(t)` atom reads exactly those markings), and
/// the fusion rules additionally refuse to merge *through* a protected
/// place, so no intermediate marking a property could distinguish is
/// erased (see DESIGN.md "Property-aware reduction guards").
///
/// Names that don't exist in the net are ignored here; the caller is
/// expected to have validated the property against the net first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observed {
    /// Names of places whose marking the property reads (`m(p) ⋈ k`).
    pub places: Vec<String>,
    /// Names of transitions whose enabledness the property reads
    /// (`fireable(t)`).
    pub transitions: Vec<String>,
}

impl Observed {
    /// Observes nothing: [`reduce_observed`] behaves exactly like
    /// [`reduce`].
    pub fn none() -> Self {
        Observed::default()
    }

    /// `true` when no node is observed.
    pub fn is_empty(&self) -> bool {
        self.places.is_empty() && self.transitions.is_empty()
    }
}

/// Id-resolved protection masks for one intermediate net. Recomputed
/// after every surgery: names are stable across surgeries (surviving
/// nodes keep theirs) but ids are not.
struct Protected {
    places: Vec<bool>,
    transitions: Vec<bool>,
}

impl Protected {
    fn resolve(net: &PetriNet, observed: &Observed) -> Self {
        let mut places = vec![false; net.place_count()];
        let mut transitions = vec![false; net.transition_count()];
        for name in &observed.places {
            if let Some(p) = net.place_by_name(name) {
                places[p.index()] = true;
            }
        }
        for name in &observed.transitions {
            if let Some(t) = net.transition_by_name(name) {
                transitions[t.index()] = true;
                // fireable(t) is a function of t's pre-place markings
                for p in net.pre_places(t) {
                    places[p.index()] = true;
                }
            }
        }
        Protected {
            places,
            transitions,
        }
    }

    fn touches_protected_place(&self, net: &PetriNet, t: TransitionId) -> bool {
        net.pre_places(t)
            .iter()
            .chain(net.post_places(t))
            .any(|p| self.places[p.index()])
    }
}

/// What a reduction pass did: sizes before/after and per-rule counts.
///
/// The `Display` impl renders the one-line summary used by the CLI:
/// `24p/20t -> 12p/9t (sp:3 st:4 rp:2 it:0 dt:2)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionReport {
    /// Places before the pass.
    pub places_before: usize,
    /// Transitions before the pass.
    pub transitions_before: usize,
    /// Places after the pass.
    pub places_after: usize,
    /// Transitions after the pass.
    pub transitions_after: usize,
    /// Series-place fusions applied (`sp`).
    pub series_places_fused: usize,
    /// Series-transition fusions applied (`st`).
    pub series_transitions_fused: usize,
    /// Redundant places removed (`rp`).
    pub redundant_places_removed: usize,
    /// Identity transitions removed (`it`).
    pub identity_transitions_removed: usize,
    /// Structurally dead transitions removed (`dt`).
    pub dead_transitions_removed: usize,
    /// Total rule applications (fixpoint iterations that changed the net).
    pub applications: usize,
    /// Wall-clock time of the pass.
    pub elapsed: Duration,
}

impl ReductionReport {
    /// `true` if the pass changed nothing.
    pub fn is_noop(&self) -> bool {
        self.applications == 0
    }
}

impl fmt::Display for ReductionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}p/{}t -> {}p/{}t (sp:{} st:{} rp:{} it:{} dt:{})",
            self.places_before,
            self.transitions_before,
            self.places_after,
            self.transitions_after,
            self.series_places_fused,
            self.series_transitions_fused,
            self.redundant_places_removed,
            self.identity_transitions_removed,
            self.dead_transitions_removed,
        )
    }
}

/// How to restore the token of a removed place when lifting a marking.
#[derive(Debug, Clone)]
enum PlaceRestore {
    /// The place is constantly marked/unmarked in every reachable marking.
    Constant(bool),
    /// The place always carries the same token as this (surviving) sibling.
    Duplicate(PlaceId),
    /// A sink place: content not recoverable without a trace; restored to
    /// its initial value (deadness never depends on it).
    Sink(bool),
}

/// One rule application, from net `k` to net `k+1`.
#[derive(Debug, Clone)]
enum StepKind {
    /// Dead or identity transitions dropped. `dead` holds the ones that are
    /// provably dead in net `k` (identity removals are not claimed dead).
    RemoveTransitions {
        /// Net-`k` ids of the transitions removed as structurally dead.
        dead: Vec<TransitionId>,
    },
    /// Redundant places dropped, with per-place restoration info.
    RemovePlaces {
        restores: Vec<(PlaceId, PlaceRestore)>,
    },
    /// Series places `p`, `q` merged by deleting the silent transition
    /// (net-`k` id); the merged place lives in `q`'s slot.
    FusePlaces { silent: TransitionId },
    /// Series transitions `t1; t2` fused into `fused` (a net-`k+1` id,
    /// occupying `t1`'s slot); `second` is `t2`'s net-`k` id.
    FuseTransitions {
        fused: TransitionId,
        second: TransitionId,
    },
}

/// One layer of the reduction: the net it started from, the surviving-node
/// id maps, and what happened.
#[derive(Debug, Clone)]
struct Step {
    kind: StepKind,
    /// The net *before* this step (net `k`), used for replay-based lifting.
    net: PetriNet,
    /// Maps each net-`k+1` place to its net-`k` id.
    place_back: Vec<PlaceId>,
    /// Maps each net-`k+1` transition to its net-`k` id.
    transition_back: Vec<TransitionId>,
}

/// Translates traces and markings on the reduced net back to the original.
///
/// Produced by [`reduce`]; the reduced net's witnesses only make sense to a
/// user of the *original* net, so every engine result must pass through
/// here before being reported.
#[derive(Debug, Clone)]
pub struct ReductionMap {
    original: PetriNet,
    steps: Vec<Step>,
}

impl ReductionMap {
    /// The original (unreduced) net.
    pub fn original(&self) -> &PetriNet {
        &self.original
    }

    /// `true` if no rule applied: reduced ids are original ids.
    pub fn is_identity(&self) -> bool {
        self.steps.is_empty()
    }

    /// Lifts a firing sequence of the reduced net to one of the original
    /// net: fused series transitions expand to both originals in order and
    /// silent series-place moves are re-inserted where needed.
    ///
    /// Returns `Ok(None)` if the input is not a valid firing sequence of
    /// the reduced net (mirroring [`PetriNet::fire_sequence`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] if a replay during lifting violates
    /// safeness — possible only if the original net is itself unsafe.
    pub fn lift_trace(
        &self,
        trace: &[TransitionId],
    ) -> Result<Option<Vec<TransitionId>>, NetError> {
        let mut cur = trace.to_vec();
        for step in self.steps.iter().rev() {
            match lower_trace(step, &cur)? {
                Some(lowered) => cur = lowered,
                None => return Ok(None),
            }
        }
        // the lifted sequence must fire on the original net — catches
        // inputs that were never valid reduced-net traces
        if self
            .original
            .fire_sequence(self.original.initial_marking(), cur.iter().copied())?
            .is_none()
        {
            return Ok(None);
        }
        Ok(Some(cur))
    }

    /// Lifts a marking of the reduced net to a marking of the original net.
    ///
    /// Exact for every rule except sink-place removal, whose token content
    /// is restored to its initial value (deadness never depends on a sink).
    /// For a marking reached by a known trace, prefer [`ReductionMap::replay`],
    /// which is exact everywhere.
    pub fn lift_marking(&self, m: &Marking) -> Marking {
        let mut cur = m.clone();
        for step in self.steps.iter().rev() {
            cur = lower_marking(step, &cur);
        }
        cur
    }

    /// Lifts a reduced-net dead-transition set to original-net ids. Sound:
    /// every returned transition is dead in the original net; silent and
    /// identity transitions removed by the pass are conservatively omitted.
    pub fn lift_dead_transitions(&self, dead: &[TransitionId]) -> Vec<TransitionId> {
        let mut cur = dead.to_vec();
        for step in self.steps.iter().rev() {
            let mut lowered: Vec<TransitionId> = cur
                .iter()
                .map(|&t| step.transition_back[t.index()])
                .collect();
            match &step.kind {
                StepKind::RemoveTransitions { dead } => lowered.extend(dead.iter().copied()),
                StepKind::FuseTransitions { fused, second } if cur.contains(fused) => {
                    lowered.push(*second);
                }
                _ => {}
            }
            lowered.sort_unstable();
            lowered.dedup();
            cur = lowered;
        }
        cur
    }

    /// Lifts a reduced-net trace and fires it on the original net,
    /// returning the (exact) original marking it reaches.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] if the original net is unsafe along
    /// the lifted sequence.
    pub fn replay(&self, trace: &[TransitionId]) -> Result<Option<Marking>, NetError> {
        match self.lift_trace(trace)? {
            Some(lifted) => self
                .original
                .fire_sequence(self.original.initial_marking(), lifted),
            None => Ok(None),
        }
    }
}

/// Lowers a net-`k+1` trace to a net-`k` trace (one layer).
fn lower_trace(step: &Step, trace: &[TransitionId]) -> Result<Option<Vec<TransitionId>>, NetError> {
    match &step.kind {
        StepKind::RemoveTransitions { .. } | StepKind::RemovePlaces { .. } => Ok(Some(
            trace
                .iter()
                .map(|&t| step.transition_back[t.index()])
                .collect(),
        )),
        StepKind::FuseTransitions { fused, second } => {
            let mut out = Vec::with_capacity(trace.len() * 2);
            for &t in trace {
                out.push(step.transition_back[t.index()]);
                if t == *fused {
                    out.push(*second);
                }
            }
            Ok(Some(out))
        }
        StepKind::FusePlaces { silent } => {
            // Replay on net k, inserting the silent move whenever the next
            // transition needs the token on the far side of the fused pair,
            // and once more at the end so the final marking is
            // silent-stable (otherwise it would not be dead: the silent
            // transition itself would be enabled).
            let net = &step.net;
            let mut m = net.initial_marking().clone();
            let mut out = Vec::with_capacity(trace.len() + 4);
            for &t in trace {
                let t_k = step.transition_back[t.index()];
                if !net.enabled(t_k, &m) && net.enabled(*silent, &m) {
                    m = net.fire(*silent, &m)?;
                    out.push(*silent);
                }
                if !net.enabled(t_k, &m) {
                    return Ok(None);
                }
                m = net.fire(t_k, &m)?;
                out.push(t_k);
            }
            if net.enabled(*silent, &m) {
                out.push(*silent);
            }
            Ok(Some(out))
        }
    }
}

/// Lowers a net-`k+1` marking to a net-`k` marking (one layer).
fn lower_marking(step: &Step, m: &Marking) -> Marking {
    let mut out = Marking::empty(step.net.place_count());
    for (new, &old) in step.place_back.iter().enumerate() {
        if m.is_marked(PlaceId::new(new)) {
            out.add_token(old);
        }
    }
    if let StepKind::RemovePlaces { restores } = &step.kind {
        for (p, restore) in restores {
            let marked = match restore {
                PlaceRestore::Constant(v) | PlaceRestore::Sink(v) => *v,
                PlaceRestore::Duplicate(of) => out.is_marked(*of),
            };
            if marked {
                out.add_token(*p);
            }
        }
    }
    // FusePlaces / FuseTransitions: the removed place stays empty, which is
    // exactly the silent-stable (respectively between-firings) position.
    out
}

/// Result of a reduction pass.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The reduced net (equal to the input if nothing applied).
    pub net: PetriNet,
    /// Back-translation of traces and markings to the original net.
    pub map: ReductionMap,
    /// What was done.
    pub report: ReductionReport,
}

/// Runs the enabled reduction rules on `net` to a fixpoint.
///
/// The input must be a safe net (the whole tool's domain); every rule then
/// preserves the deadlock verdict exactly, and the returned
/// [`ReductionMap`] lifts reduced-net witnesses to original-net witnesses.
///
/// # Errors
///
/// Returns [`NetError`] only if rebuilding an intermediate net fails,
/// which cannot happen for nets produced by [`NetBuilder`].
///
/// # Examples
///
/// ```
/// use petri::reduce::{reduce, ReduceOptions};
/// use petri::NetBuilder;
///
/// // a 3-place pipeline collapses to a single place
/// let mut b = NetBuilder::new("pipe");
/// let p0 = b.place_marked("p0");
/// let p1 = b.place("p1");
/// let p2 = b.place("p2");
/// b.transition("a", [p0], [p1]);
/// b.transition("b", [p1], [p2]);
/// let red = reduce(&b.build()?, &ReduceOptions::default())?;
/// assert!(red.net.place_count() < 3);
/// assert!(!red.report.is_noop());
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn reduce(net: &PetriNet, opts: &ReduceOptions) -> Result<Reduction, NetError> {
    reduce_observed(net, opts, &Observed::none())
}

/// Like [`reduce`], but keeps every node in `observed` (and every
/// pre-place of an observed transition) intact, so a property reading
/// those nodes evaluates identically on the original and reduced nets.
///
/// With an empty `observed` this is exactly [`reduce`].
///
/// # Errors
///
/// Returns [`NetError`] only if rebuilding an intermediate net fails,
/// which cannot happen for nets produced by [`NetBuilder`].
pub fn reduce_observed(
    net: &PetriNet,
    opts: &ReduceOptions,
    observed: &Observed,
) -> Result<Reduction, NetError> {
    let start = Instant::now();
    let mut report = ReductionReport {
        places_before: net.place_count(),
        transitions_before: net.transition_count(),
        places_after: net.place_count(),
        transitions_after: net.transition_count(),
        series_places_fused: 0,
        series_transitions_fused: 0,
        redundant_places_removed: 0,
        identity_transitions_removed: 0,
        dead_transitions_removed: 0,
        applications: 0,
        elapsed: Duration::ZERO,
    };
    let mut current = net.clone();
    let mut steps = Vec::new();

    // Guard invariants are expensive (Farkas elimination), so they are
    // computed once and *carried* across surgeries — each application
    // keeps exactly the invariants it provably preserves, remapped to the
    // new place ids. The carried set can miss invariants that only exist
    // on the smaller net, so when it stops yielding applications we
    // recompute from scratch once (`stale`) before declaring a fixpoint.
    let compute_invariants = |net: &PetriNet| {
        if opts.needs_invariants()
            && net.place_count() <= opts.invariant_place_limit
            && net.place_count() > 0
        {
            place_invariants_capped(net, opts.invariant_row_limit)
        } else {
            Vec::new()
        }
    };
    let mut invariants = compute_invariants(&current);
    let mut stale = false;

    loop {
        // ids shift with every surgery, so the protection masks are
        // re-resolved from the stable names each round
        let prot = Protected::resolve(&current, observed);
        // rp runs last: removing a sink place can destroy the P-invariants
        // that guard sp/st, so the fusions get their chance first.
        let find_guarded = |current: &PetriNet, invariants: &[Vec<i64>], prot: &Protected| {
            if opts.dead_transitions {
                find_dead_transitions(current, invariants, prot)
            } else {
                None
            }
            .or_else(|| {
                if opts.identity_transitions {
                    find_identity_transition(current, prot)
                } else {
                    None
                }
            })
            .or_else(|| {
                if opts.series_transitions {
                    find_series_transition(current, invariants, prot)
                } else {
                    None
                }
            })
            .or_else(|| {
                if opts.series_places {
                    find_series_place(current, invariants, prot)
                } else {
                    None
                }
            })
        };

        let mut application = find_guarded(&current, &invariants, &prot);
        if application.is_none() && stale {
            // the carried set can miss invariants of the smaller net:
            // refresh it before conceding priority to rp, which would
            // destroy exactly the invariants the fusions are waiting for
            invariants = compute_invariants(&current);
            application = find_guarded(&current, &invariants, &prot);
        }
        if application.is_none() && opts.redundant_places {
            application = find_redundant_places(&current, &prot);
        }

        let Some(app) = application else { break };
        let (next, place_back, transition_back) = apply_surgery(&current, &app.surgery)?;
        invariants = carry_invariants(&invariants, &app.surgery, &place_back);
        stale = true;
        let kind = match app.pending {
            PendingKind::RemoveTransitions { dead } => {
                report.dead_transitions_removed += dead.len();
                let identity = dead.is_empty();
                if identity {
                    report.identity_transitions_removed += 1;
                }
                StepKind::RemoveTransitions { dead }
            }
            PendingKind::RemovePlaces { restores } => {
                report.redundant_places_removed += restores.len();
                StepKind::RemovePlaces { restores }
            }
            PendingKind::FusePlaces { silent } => {
                report.series_places_fused += 1;
                StepKind::FusePlaces { silent }
            }
            PendingKind::FuseTransitions { first, second } => {
                report.series_transitions_fused += 1;
                let fused = transition_back
                    .iter()
                    .position(|&t| t == first)
                    .map(TransitionId::new)
                    .expect("the fused transition survives in t1's slot");
                StepKind::FuseTransitions { fused, second }
            }
        };
        steps.push(Step {
            kind,
            net: current,
            place_back,
            transition_back,
        });
        current = next;
        report.applications += 1;
    }

    report.places_after = current.place_count();
    report.transitions_after = current.transition_count();
    report.elapsed = start.elapsed();
    Ok(Reduction {
        net: current,
        map: ReductionMap {
            original: net.clone(),
            steps,
        },
        report,
    })
}

/// Filters the guard invariants to those a surgery provably preserves and
/// remaps them to the new net's place ids.
///
/// An old invariant `x` stays valid when every dropped place carries no
/// information the smaller net loses: a place fused into `q` (series-place
/// fusion redirects its producers there) needs `x[p] == x[q]` — the fused
/// place then accounts for both token counts — and any other dropped
/// place needs weight zero. Dropping *transitions* only removes columns of
/// the incidence constraint, so every invariant survives that
/// unconditionally.
fn carry_invariants(
    invariants: &[Vec<i64>],
    surgery: &Surgery,
    place_back: &[PlaceId],
) -> Vec<Vec<i64>> {
    invariants
        .iter()
        .filter(|x| {
            surgery
                .drop_places
                .iter()
                .all(|&d| match surgery.redirect_place.get(&d) {
                    Some(&q) => x[d] == x[q],
                    None => x[d] == 0,
                })
        })
        .map(|x| place_back.iter().map(|&old| x[old.index()]).collect())
        .collect()
}

/// Net surgery: nodes to drop plus arc rewrites, applied via [`NetBuilder`].
#[derive(Debug, Default)]
struct Surgery {
    drop_places: Vec<usize>,
    drop_transitions: Vec<usize>,
    /// Substitute references to a dropped place by a surviving one
    /// (series-place fusion: producers of `p` now produce `q`).
    redirect_place: HashMap<usize, usize>,
    /// Replace a surviving transition's arcs wholesale (series-transition
    /// fusion rewrites `t1`).
    override_arcs: HashMap<usize, (Vec<usize>, Vec<usize>)>,
    /// Override the initial marking of a surviving place.
    mark_override: HashMap<usize, bool>,
}

/// A found rule application, before the rebuilt net exists.
struct Application {
    surgery: Surgery,
    pending: PendingKind,
}

/// Like [`StepKind`] but before new-net ids are known.
enum PendingKind {
    RemoveTransitions {
        dead: Vec<TransitionId>,
    },
    RemovePlaces {
        restores: Vec<(PlaceId, PlaceRestore)>,
    },
    FusePlaces {
        silent: TransitionId,
    },
    /// `first`/`second` are net-`k` ids of `t1`/`t2`.
    FuseTransitions {
        first: TransitionId,
        second: TransitionId,
    },
}

fn apply_surgery(
    net: &PetriNet,
    s: &Surgery,
) -> Result<(PetriNet, Vec<PlaceId>, Vec<TransitionId>), NetError> {
    let mut dropped_place = vec![false; net.place_count()];
    for &p in &s.drop_places {
        dropped_place[p] = true;
    }
    let mut dropped_transition = vec![false; net.transition_count()];
    for &t in &s.drop_transitions {
        dropped_transition[t] = true;
    }

    let mut b = NetBuilder::new(net.name());
    let mut place_back = Vec::new();
    let mut new_place = vec![None; net.place_count()];
    for p in net.places() {
        if dropped_place[p.index()] {
            continue;
        }
        let marked = s
            .mark_override
            .get(&p.index())
            .copied()
            .unwrap_or_else(|| net.initial_marking().is_marked(p));
        let id = if marked {
            b.place_marked(net.place_name(p))
        } else {
            b.place(net.place_name(p))
        };
        new_place[p.index()] = Some(id);
        place_back.push(p);
    }

    let map_arcs = |old: &[usize]| -> Vec<PlaceId> {
        let mut out = Vec::with_capacity(old.len());
        for &p in old {
            let p = *s.redirect_place.get(&p).unwrap_or(&p);
            if let Some(id) = new_place[p] {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        }
        out
    };

    let mut transition_back = Vec::new();
    for t in net.transitions() {
        if dropped_transition[t.index()] {
            continue;
        }
        let (pre, post): (Vec<usize>, Vec<usize>) = match s.override_arcs.get(&t.index()) {
            Some((pre, post)) => (pre.clone(), post.clone()),
            None => (
                net.pre_places(t).iter().map(|p| p.index()).collect(),
                net.post_places(t).iter().map(|p| p.index()).collect(),
            ),
        };
        b.transition(net.transition_name(t), map_arcs(&pre), map_arcs(&post));
        transition_back.push(t);
    }

    Ok((b.build()?, place_back, transition_back))
}

/// `dt`: transitions that can never fire — an input place is never
/// markable (least-fixpoint over the flow relation), or a P-invariant
/// caps the tokens their input places can ever hold simultaneously.
fn find_dead_transitions(
    net: &PetriNet,
    invariants: &[Vec<i64>],
    prot: &Protected,
) -> Option<Application> {
    let place_count = net.place_count();
    let mut markable: Vec<bool> = (0..place_count)
        .map(|p| net.initial_marking().is_marked(PlaceId::new(p)))
        .collect();
    loop {
        let mut changed = false;
        for t in net.transitions() {
            if net.pre_places(t).iter().all(|p| markable[p.index()]) {
                for q in net.post_places(t) {
                    if !markable[q.index()] {
                        markable[q.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let m0_weight = |x: &[i64]| -> i64 {
        net.initial_marking()
            .places()
            .map(|p| x[p.index()])
            .sum::<i64>()
    };

    let mut dead = Vec::new();
    for t in net.transitions() {
        // an observed transition must survive so `fireable(t)` still
        // compiles (a dead one just evaluates to constant false)
        if prot.transitions[t.index()] {
            continue;
        }
        let unmarkable = net.pre_places(t).iter().any(|p| !markable[p.index()]);
        let over_capacity = !unmarkable
            && invariants.iter().any(|x| {
                let need: i64 = net.pre_places(t).iter().map(|p| x[p.index()]).sum();
                need > m0_weight(x)
            });
        if unmarkable || over_capacity {
            dead.push(t);
        }
    }
    if dead.is_empty() {
        return None;
    }
    Some(Application {
        surgery: Surgery {
            drop_transitions: dead.iter().map(|t| t.index()).collect(),
            ..Default::default()
        },
        pending: PendingKind::RemoveTransitions { dead },
    })
}

/// `rp`: duplicate, constantly-marked self-loop-only, and sink places.
fn find_redundant_places(net: &PetriNet, prot: &Protected) -> Option<Application> {
    let mut restores: Vec<(PlaceId, PlaceRestore)> = Vec::new();
    let mut dropped = vec![false; net.place_count()];
    for p in net.places() {
        if prot.places[p.index()] {
            continue;
        }
        let marked0 = net.initial_marking().is_marked(p);
        let pre = sorted(net.pre_transitions(p));
        let post = sorted(net.post_transitions(p));
        // constant: every arc is a self-loop, token present from the start
        if marked0 && pre == post && !pre.is_empty() {
            restores.push((p, PlaceRestore::Constant(true)));
            dropped[p.index()] = true;
            continue;
        }
        // sink: gates nothing (includes isolated places)
        if post.is_empty() {
            let restore = if pre.is_empty() {
                PlaceRestore::Constant(marked0)
            } else {
                PlaceRestore::Sink(marked0)
            };
            restores.push((p, restore));
            dropped[p.index()] = true;
        }
    }
    // duplicates: keep the smallest surviving sibling
    for q in net.places() {
        if dropped[q.index()] || prot.places[q.index()] {
            continue;
        }
        for p in net.places().take_while(|p| p.index() < q.index()) {
            if dropped[p.index()] {
                continue;
            }
            if net.initial_marking().is_marked(p) == net.initial_marking().is_marked(q)
                && sorted(net.pre_transitions(p)) == sorted(net.pre_transitions(q))
                && sorted(net.post_transitions(p)) == sorted(net.post_transitions(q))
            {
                restores.push((q, PlaceRestore::Duplicate(p)));
                dropped[q.index()] = true;
                break;
            }
        }
    }
    if restores.is_empty() {
        return None;
    }
    Some(Application {
        surgery: Surgery {
            drop_places: restores.iter().map(|(p, _)| p.index()).collect(),
            ..Default::default()
        },
        pending: PendingKind::RemovePlaces { restores },
    })
}

/// `it`: one no-op transition (`•t = t•`) with a justifier `u ≠ t` enabled
/// whenever `t` is, so the removal cannot create a dead marking.
fn find_identity_transition(net: &PetriNet, prot: &Protected) -> Option<Application> {
    for t in net.transitions() {
        // firing t never changes the marking, so only t's own
        // observability matters
        if prot.transitions[t.index()] {
            continue;
        }
        if net.pre_place_set(t) != net.post_place_set(t) {
            continue;
        }
        let justified = net
            .transitions()
            .any(|u| u != t && net.pre_place_set(u).is_subset(net.pre_place_set(t)));
        if !justified {
            continue;
        }
        return Some(Application {
            surgery: Surgery {
                drop_transitions: vec![t.index()],
                ..Default::default()
            },
            pending: PendingKind::RemoveTransitions { dead: vec![] },
        });
    }
    None
}

/// `st`: a buffer place `p` with unique producer `t1` and unique consumer
/// `t2` (`•t2 = {p}`, `m₀(p) = 0`) fuses `t1; t2`. When `t2` produces
/// tokens, a P-invariant must pin `p` and all of `t2•` to a single shared
/// token, which makes firing `t2` immediately after `t1` always possible
/// and safe (see DESIGN.md).
fn find_series_transition(
    net: &PetriNet,
    invariants: &[Vec<i64>],
    prot: &Protected,
) -> Option<Application> {
    for p in net.places() {
        if net.initial_marking().is_marked(p) || prot.places[p.index()] {
            continue;
        }
        let [t1] = net.pre_transitions(p) else {
            continue;
        };
        let [t2] = net.post_transitions(p) else {
            continue;
        };
        let (t1, t2) = (*t1, *t2);
        // fusing t1;t2 erases the marking between the two firings — refuse
        // whenever a property could tell that intermediate state apart
        if prot.transitions[t1.index()]
            || prot.transitions[t2.index()]
            || prot.touches_protected_place(net, t1)
            || prot.touches_protected_place(net, t2)
        {
            continue;
        }
        if t1 == t2
            || net.pre_places(t2) != std::slice::from_ref(&p)
            || net.pre_place_set(t1).contains(p.index())
            || net.post_place_set(t2).contains(p.index())
            || !net.post_place_set(t1).is_disjoint(net.post_place_set(t2))
        {
            continue;
        }
        if !net.post_places(t2).is_empty() {
            let guarded = invariants.iter().any(|x| {
                x[p.index()] >= 1
                    && net.post_places(t2).iter().all(|q| x[q.index()] >= 1)
                    && net
                        .initial_marking()
                        .places()
                        .map(|s| x[s.index()])
                        .sum::<i64>()
                        == 1
            });
            if !guarded {
                continue;
            }
        }
        let pre: Vec<usize> = net.pre_places(t1).iter().map(|q| q.index()).collect();
        let post: Vec<usize> = net
            .post_places(t1)
            .iter()
            .filter(|&&q| q != p)
            .chain(net.post_places(t2).iter())
            .map(|q| q.index())
            .collect();
        let mut surgery = Surgery {
            drop_places: vec![p.index()],
            drop_transitions: vec![t2.index()],
            ..Default::default()
        };
        surgery.override_arcs.insert(t1.index(), (pre, post));
        return Some(Application {
            surgery,
            pending: PendingKind::FuseTransitions {
                first: t1,
                second: t2,
            },
        });
    }
    None
}

/// `sp`: a silent transition `t : p -> q` whose input place has no other
/// consumer merges `p` into `q`, guarded by a P-invariant proving
/// `m(p) + m(q) ≤ 1` (so the merged place stays safe and the verdict is
/// preserved by firing `t` eagerly; see DESIGN.md).
fn find_series_place(
    net: &PetriNet,
    invariants: &[Vec<i64>],
    prot: &Protected,
) -> Option<Application> {
    for t in net.transitions() {
        let [p] = net.pre_places(t) else { continue };
        let [q] = net.post_places(t) else { continue };
        let (p, q) = (*p, *q);
        // merging p into q conflates `m(p)` with `m(q)`; a property
        // reading either place (or firing of t itself) must see them apart
        if prot.transitions[t.index()] || prot.places[p.index()] || prot.places[q.index()] {
            continue;
        }
        if p == q || net.post_transitions(p) != std::slice::from_ref(&t) {
            continue;
        }
        // a shared producer of p and q could double-mark the merged place
        let shared_producer = net
            .pre_transitions(p)
            .iter()
            .any(|u| net.pre_transitions(q).contains(u));
        if shared_producer {
            continue;
        }
        let guarded = invariants.iter().any(|x| {
            x[p.index()] >= 1
                && x[q.index()] >= 1
                && net
                    .initial_marking()
                    .places()
                    .map(|s| x[s.index()])
                    .sum::<i64>()
                    == 1
        });
        if !guarded {
            continue;
        }
        let mut surgery = Surgery {
            drop_places: vec![p.index()],
            drop_transitions: vec![t.index()],
            ..Default::default()
        };
        surgery.redirect_place.insert(p.index(), q.index());
        let merged_marked =
            net.initial_marking().is_marked(p) || net.initial_marking().is_marked(q);
        surgery.mark_override.insert(q.index(), merged_marked);
        return Some(Application {
            surgery,
            pending: PendingKind::FusePlaces { silent: t },
        });
    }
    None
}

fn sorted(ids: &[TransitionId]) -> Vec<TransitionId> {
    let mut v = ids.to_vec();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_all;

    fn all() -> ReduceOptions {
        ReduceOptions::default()
    }

    fn only(spec: &str) -> ReduceOptions {
        ReduceOptions::parse(spec).unwrap()
    }

    /// Verdict equivalence + witness replay: the workhorse assertion.
    fn check_equivalent(net: &PetriNet, opts: &ReduceOptions) -> Reduction {
        let red = reduce(net, opts).unwrap();
        let orig = verify_all(net);
        let reduced = verify_all(&red.net);
        assert_eq!(
            orig.has_deadlock,
            reduced.has_deadlock,
            "verdict flipped on {}",
            net.name()
        );
        if let Some(trace) = &reduced.deadlock_witness {
            let lifted = red.map.lift_trace(trace).unwrap().expect("trace lifts");
            let m = net
                .fire_sequence(net.initial_marking(), lifted)
                .unwrap()
                .expect("lifted witness fires on the original");
            assert!(net.is_dead(&m), "lifted witness not dead on the original");
        }
        red
    }

    fn pipeline(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("pipeline");
        let mut prev = b.place_marked("p0");
        for i in 1..=n {
            let next = b.place(format!("p{i}"));
            b.transition(format!("t{i}"), [prev], [next]);
            prev = next;
        }
        b.build().unwrap()
    }

    #[test]
    fn parse_and_rules_string_round_trip() {
        assert_eq!(ReduceOptions::parse("all").unwrap(), all());
        assert_eq!(ReduceOptions::parse("").unwrap(), all());
        let o = only("st,dt");
        assert_eq!(o.rules_string(), "st,dt");
        assert_eq!(ReduceOptions::none().rules_string(), "none");
        assert!(ReduceOptions::parse("sp,xx").is_err());
    }

    #[test]
    fn pipeline_collapses_and_witness_lifts() {
        let net = pipeline(6);
        let red = check_equivalent(&net, &all());
        assert!(red.net.place_count() <= 2, "pipeline should collapse");
        assert!(red.report.series_places_fused + red.report.series_transitions_fused > 0);
        // dead end of the pipeline stays a deadlock, with a full-length witness
        let reduced = verify_all(&red.net);
        assert!(reduced.has_deadlock);
        let lifted = red
            .map
            .lift_trace(&reduced.deadlock_witness.unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(lifted.len(), 6, "all six original steps reappear");
    }

    #[test]
    fn observed_place_survives_a_collapsing_reduction() {
        // unobserved, the pipeline collapses to (almost) nothing …
        let net = pipeline(6);
        let plain = reduce(&net, &all()).unwrap();
        assert!(
            plain.net.place_by_name("p3").is_none(),
            "baseline collapses p3"
        );
        // … observing p3 pins it, and the verdict still matches
        let obs = Observed {
            places: vec!["p3".into()],
            transitions: vec![],
        };
        let red = reduce_observed(&net, &all(), &obs).unwrap();
        assert!(red.net.place_by_name("p3").is_some(), "observed place kept");
        let orig = verify_all(&net);
        let reduced = verify_all(&red.net);
        assert_eq!(orig.has_deadlock, reduced.has_deadlock);
        // the observed marking is still expressible: some reachable
        // reduced marking marks p3, as in the original
        let p3 = red.net.place_by_name("p3").unwrap();
        let rg = crate::explore_full(&red.net).unwrap();
        assert!(
            rg.states().any(|s| rg.marking(s).is_marked(p3)),
            "p3 is still reachably marked after reduction"
        );
    }

    #[test]
    fn observed_transition_keeps_itself_and_its_pre_places() {
        let net = pipeline(6);
        let obs = Observed {
            places: vec![],
            transitions: vec!["t4".into()],
        };
        let red = reduce_observed(&net, &all(), &obs).unwrap();
        let t4 = red
            .net
            .transition_by_name("t4")
            .expect("observed transition kept");
        // fireable(t4) reads exactly t4's pre-places: they survive too
        assert!(
            !red.net.pre_places(t4).is_empty(),
            "pre-places of an observed transition survive"
        );
        assert!(
            red.net.place_by_name("p3").is_some(),
            "t4's pre-place p3 kept"
        );
    }

    #[test]
    fn empty_observed_set_reduces_byte_identically_to_reduce() {
        for net in [pipeline(6), crate::parse_net(SCHEDULER_LIKE).unwrap()] {
            let plain = reduce(&net, &all()).unwrap();
            let observed = reduce_observed(&net, &all(), &Observed::none()).unwrap();
            assert_eq!(crate::to_text(&plain.net), crate::to_text(&observed.net));
            // the Display summary covers sizes and per-rule counts
            // (the report itself differs in its wall-clock field)
            assert_eq!(plain.report.to_string(), observed.report.to_string());
        }
    }

    /// A small branching net for the empty-observed identity check.
    const SCHEDULER_LIKE: &str = "net branchy\npl a *\npl b\npl c\npl d\n\
        tr go1 : a -> b\ntr go2 : a -> c\ntr j1 : b -> d\ntr j2 : c -> d\n";

    #[test]
    fn reduction_is_a_fixpoint() {
        for net in [pipeline(5), {
            let mut b = NetBuilder::new("cycle");
            let p = b.place_marked("p");
            let q = b.place("q");
            b.transition("go", [p], [q]);
            b.transition("back", [q], [p]);
            b.build().unwrap()
        }] {
            let once = reduce(&net, &all()).unwrap();
            let twice = reduce(&once.net, &all()).unwrap();
            assert!(twice.report.is_noop(), "second pass must change nothing");
            assert_eq!(
                once.net.fingerprint(),
                twice.net.fingerprint(),
                "fixpoint net is stable"
            );
        }
    }

    #[test]
    fn series_transition_witness_expands_in_order() {
        // a -> t1 -> buf -> t2 -> b, then stuck: the reduced witness is a
        // single fused firing that must expand to [t1, t2].
        let mut b = NetBuilder::new("fst");
        let a = b.place_marked("a");
        let buf = b.place("buf");
        let end = b.place("end");
        b.transition("t1", [a], [buf]);
        b.transition("t2", [buf], [end]);
        let net = b.build().unwrap();
        let red = reduce(&net, &only("st")).unwrap();
        assert_eq!(red.report.series_transitions_fused, 1);
        assert_eq!(red.net.transition_count(), 1);
        let reduced = verify_all(&red.net);
        let lifted = red
            .map
            .lift_trace(&reduced.deadlock_witness.unwrap())
            .unwrap()
            .unwrap();
        let names: Vec<&str> = lifted.iter().map(|&t| net.transition_name(t)).collect();
        assert_eq!(
            names,
            ["t1", "t2"],
            "fused firing expands to both, in order"
        );
        check_equivalent(&net, &only("st"));
    }

    #[test]
    fn series_place_witness_inserts_silent_move() {
        // w: a -> p, silent: p -> q, u: q -> end. Reducing sp merges p into
        // q; the reduced witness [w, u] must lift to [w, silent, u].
        let mut b = NetBuilder::new("fsp");
        let a = b.place_marked("a");
        let p = b.place("p");
        let q = b.place("q");
        let end = b.place("end");
        b.transition("w", [a], [p]);
        b.transition("silent", [p], [q]);
        b.transition("u", [q], [end]);
        let net = b.build().unwrap();
        let red = reduce(&net, &only("sp")).unwrap();
        assert!(red.report.series_places_fused >= 1);
        let reduced = verify_all(&red.net);
        let lifted = red
            .map
            .lift_trace(&reduced.deadlock_witness.unwrap())
            .unwrap()
            .unwrap();
        let names: Vec<&str> = lifted.iter().map(|&t| net.transition_name(t)).collect();
        assert_eq!(names, ["w", "silent", "u"]);
        check_equivalent(&net, &only("sp"));
    }

    #[test]
    fn series_place_stabilizes_trailing_silent_move() {
        // the token parks in p at the end: the lift must append the silent
        // move, otherwise the lifted marking is not dead (silent is enabled).
        let mut b = NetBuilder::new("fsp-tail");
        let a = b.place_marked("a");
        let p = b.place("p");
        let q = b.place("q");
        b.transition("w", [a], [p]);
        b.transition("silent", [p], [q]);
        let net = b.build().unwrap();
        let red = check_equivalent(&net, &only("sp"));
        assert!(red.report.series_places_fused >= 1);
        let reduced = verify_all(&red.net);
        let lifted = red
            .map
            .lift_trace(&reduced.deadlock_witness.unwrap())
            .unwrap()
            .unwrap();
        let names: Vec<&str> = lifted.iter().map(|&t| net.transition_name(t)).collect();
        assert_eq!(names, ["w", "silent"], "trailing silent move appended");
    }

    #[test]
    fn duplicate_place_removed_and_marking_lifts_exactly() {
        let mut b = NetBuilder::new("dup");
        let p = b.place_marked("p");
        let twin = b.place_marked("twin");
        let q = b.place("q");
        b.transition("t", [p, twin], [q]);
        let net = b.build().unwrap();
        let red = check_equivalent(&net, &only("rp"));
        // the twin is removed as a duplicate; q additionally falls as a sink
        assert_eq!(red.report.redundant_places_removed, 2);
        let reduced = verify_all(&red.net);
        let lifted = red
            .map
            .lift_marking(reduced.deadlock_marking.as_ref().unwrap());
        // after t fires the twin must be restored as unmarked, like p
        assert!(!lifted.is_marked(p));
        assert!(!lifted.is_marked(twin));
        assert!(lifted.is_marked(q) || red.net.place_count() < 3);
    }

    #[test]
    fn constant_place_removed() {
        let mut b = NetBuilder::new("const");
        let always = b.place_marked("always");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [p, always], [q, always]);
        let net = b.build().unwrap();
        let red = check_equivalent(&net, &only("rp"));
        assert!(red.report.redundant_places_removed >= 1);
        assert!(red.net.place_by_name("always").is_none());
        let reduced = verify_all(&red.net);
        let lifted = red
            .map
            .lift_marking(reduced.deadlock_marking.as_ref().unwrap());
        assert!(lifted.is_marked(always), "constant restored as marked");
    }

    #[test]
    fn sink_place_removed_without_changing_verdict() {
        let mut b = NetBuilder::new("sink");
        let p = b.place_marked("p");
        let q = b.place("q");
        let log = b.place("log");
        b.transition("t", [p], [q, log]);
        let net = b.build().unwrap();
        let red = check_equivalent(&net, &only("rp"));
        assert!(red.net.place_by_name("log").is_none());
    }

    #[test]
    fn identity_transition_needs_justifier() {
        // skip: t's firing is a no-op, and u (same preset) justifies it
        let mut b = NetBuilder::new("ident");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("skip", [p], [p]);
        b.transition("u", [p], [q]);
        let net = b.build().unwrap();
        let red = check_equivalent(&net, &only("it"));
        assert_eq!(red.report.identity_transitions_removed, 1);

        // without a justifier the no-op must stay: removing it would turn a
        // live net into a deadlocked one
        let mut b = NetBuilder::new("ident-alone");
        let p = b.place_marked("p");
        b.transition("spin", [p], [p]);
        let net = b.build().unwrap();
        let red = check_equivalent(&net, &only("it"));
        assert!(red.report.is_noop(), "unjustified identity kept");
    }

    #[test]
    fn dead_transitions_removed_by_fixpoint_and_invariant() {
        // token-conserving so the capacity invariant survives: weights
        // p:1 q:1 never:1 x:1 pq2:2 form a P-invariant with m0-weight 1.
        let mut b = NetBuilder::new("dead");
        let p = b.place_marked("p");
        let q = b.place("q");
        let never = b.place("never");
        let x = b.place("x");
        let pq2 = b.place("pq2");
        b.transition("t", [p], [q]);
        b.transition("tb", [q], [p]);
        // unmarkable input: `never` has no producer
        b.transition("d1", [never], [q]);
        // chained: x is only markable through the unmarkable `never`
        b.transition("feed", [never], [x]);
        b.transition("d2", [x], [never]);
        // invariant capacity: p and q share one token, yet d3 needs both
        b.transition("d3", [p, q], [pq2]);
        let net = b.build().unwrap();
        let red = check_equivalent(&net, &only("dt"));
        assert_eq!(red.report.dead_transitions_removed, 4);
        assert_eq!(red.net.transition_count(), 2, "only t and tb stay");
        // the lifted dead set names every removed original transition
        let reduced = verify_all(&red.net);
        let lifted = red.map.lift_dead_transitions(&reduced.dead_transitions);
        let names: Vec<&str> = lifted.iter().map(|&t| net.transition_name(t)).collect();
        assert!(names.contains(&"d1") && names.contains(&"d2") && names.contains(&"d3"));
    }

    #[test]
    fn scheduler_reduces_dramatically_with_same_verdict() {
        let net = scheduler3();
        let red = check_equivalent(&net, &all());
        assert!(
            red.net.place_count() < net.place_count() / 2,
            "scheduler should at least halve: {} -> {}",
            net.place_count(),
            red.net.place_count()
        );
        let orig = verify_all(&net);
        let reduced = verify_all(&red.net);
        assert!(reduced.state_count < orig.state_count);
    }

    /// A 3-cycler Milner scheduler, inlined to keep `petri` free of a dev
    /// dependency on `models`.
    fn scheduler3() -> PetriNet {
        let n = 3;
        let mut b = NetBuilder::new("cyclic");
        let ready: Vec<_> = (0..n)
            .map(|i| {
                if i == 0 {
                    b.place_marked(format!("ready{i}"))
                } else {
                    b.place(format!("ready{i}"))
                }
            })
            .collect();
        for i in 0..n {
            let idle = b.place_marked(format!("idle{i}"));
            let busy = b.place(format!("busy{i}"));
            let pass = b.place(format!("pass{i}"));
            b.transition(format!("start{i}"), [ready[i], idle], [busy, pass]);
            b.transition(format!("move{i}"), [pass], [ready[(i + 1) % n]]);
            b.transition(format!("end{i}"), [busy], [idle]);
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_trace_lifts_for_initial_deadlock() {
        // initial marking already dead after reduction removes nothing
        let mut b = NetBuilder::new("stuck");
        b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [q], []);
        let net = b.build().unwrap();
        let red = reduce(&net, &all()).unwrap();
        let lifted = red.map.lift_trace(&[]).unwrap().unwrap();
        let m = net
            .fire_sequence(net.initial_marking(), lifted)
            .unwrap()
            .unwrap();
        assert!(net.is_dead(&m));
    }

    #[test]
    fn disabled_rules_do_nothing() {
        let net = pipeline(4);
        let red = reduce(&net, &ReduceOptions::none()).unwrap();
        assert!(red.report.is_noop());
        assert!(red.map.is_identity());
        assert_eq!(red.net.fingerprint(), net.fingerprint());
    }

    #[test]
    fn report_displays_rule_counts() {
        let red = reduce(&pipeline(3), &all()).unwrap();
        let line = red.report.to_string();
        assert!(line.contains("sp:") && line.contains("dt:"), "{line}");
        assert!(line.contains("->"), "{line}");
    }

    #[test]
    fn invalid_reduced_trace_lifts_to_none() {
        let net = pipeline(3);
        let red = reduce(&net, &only("st")).unwrap();
        assert_eq!(red.net.transition_count(), 1, "chain fuses to one step");
        let t = TransitionId::new(0);
        // firing the fused transition twice is not a valid reduced trace
        assert_eq!(red.map.lift_trace(&[t, t]).unwrap(), None);
        assert!(red.map.lift_trace(&[t]).unwrap().is_some());
    }
}
