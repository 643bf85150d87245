//! Whole-net verification verdicts built on exhaustive reachability.
//!
//! This module packages the questions the paper's tool JULIE answers —
//! deadlock freedom, (quasi-)liveness, safeness — into a single
//! [`VerificationReport`], including a witness trace when a deadlock exists.

use std::time::{Duration, Instant};

use crate::budget::{Budget, CoverageStats, ExhaustionReason, Verdict};
use crate::checkpoint::CheckpointConfig;
use crate::error::NetError;
use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::PetriNet;
use crate::property::Property;
use crate::reachability::{ExploreOptions, ReachabilityGraph};

/// Deadlock and liveness facts derived from an explored reachability
/// graph (the `report` of a [`BoundedReport`]).
///
/// # Examples
///
/// ```
/// use petri::{verify, Budget, NetBuilder, Property};
///
/// let mut b = NetBuilder::new("two-step");
/// let p = b.place_marked("p");
/// let q = b.place("q");
/// b.transition("t", [p], [q]);
/// let net = b.build()?;
/// let report = verify(&net, &Default::default(), &Budget::default(), &Property::deadlock())?.report;
/// assert_eq!(report.state_count, 2);
/// assert!(report.has_deadlock);
/// assert_eq!(report.deadlock_witness.as_deref().map(|w| w.len()), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Number of reachable states.
    pub state_count: usize,
    /// Number of edges in the reachability graph.
    pub edge_count: usize,
    /// `true` if some reachable marking enables no transition.
    pub has_deadlock: bool,
    /// Number of dead reachable markings.
    pub deadlock_count: usize,
    /// A shortest firing sequence into some dead marking, if one exists.
    pub deadlock_witness: Option<Vec<TransitionId>>,
    /// The dead marking reached by the witness, if any.
    pub deadlock_marking: Option<Marking>,
    /// Transitions that never fire anywhere in the reachable space.
    pub dead_transitions: Vec<TransitionId>,
    /// Wall-clock time of the exploration.
    pub elapsed: Duration,
}

impl VerificationReport {
    /// `true` if every transition fires in at least one reachable marking
    /// (quasi-liveness, called *liveness* in the paper's informal sense).
    pub fn is_quasi_live(&self) -> bool {
        self.dead_transitions.is_empty()
    }
}

/// Verdict of a budget-governed verification run.
///
/// Unlike [`VerificationReport`] alone, this records whether the exploration
/// covered the whole state space. The embedded [`Verdict`] encodes the
/// three-valued answer: a deadlock found in a partial graph is a real,
/// replayable counterexample (every stored marking is reachable), but
/// deadlock *freedom* is only claimed when the exploration completed.
#[derive(Debug, Clone)]
pub struct BoundedReport {
    /// Facts derived from the (possibly partial) reachability graph.
    pub report: VerificationReport,
    /// Three-valued deadlock verdict.
    pub verdict: Verdict,
    /// Which budget axis ran out, if the exploration was cut short.
    pub exhausted: Option<ExhaustionReason>,
    /// Coverage statistics of a partial run (`None` when complete).
    pub coverage: Option<CoverageStats>,
    /// The property this run answered. For non-default properties the
    /// `has_deadlock`/witness fields of the embedded report describe the
    /// property's *goal* markings (φ-states under `EF`, ¬φ-states under
    /// `AG`) instead of deadlocks.
    pub property: Property,
}

impl BoundedReport {
    /// `true` if the whole reachable state space was explored.
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none()
    }
}

/// Verifies `property` on `net` by exploring its reachability graph under
/// a cooperative resource [`Budget`]. Instead of failing when a limit is
/// hit, returns the facts established so far together with an
/// [`Verdict::Inconclusive`] verdict.
///
/// For the default property (`EF deadlock`) the report describes the dead
/// markings; otherwise the explored graph is scanned for the property's
/// goal markings (φ under `EF`, ¬φ under `AG`) and the
/// `has_deadlock`/witness fields of the embedded report are re-aimed at
/// them: the smallest goal marking (by [`Marking`]'s order, for
/// determinism across thread counts) becomes the witness. A goal state
/// found in a partial graph is a real witness, while the *absence* of
/// goal states is only conclusive when the exploration completed.
///
/// # Errors
///
/// Returns [`NetError::Property`] when the property names a node `net`
/// does not have, [`NetError::NotSafe`] on safeness violations or
/// [`NetError::WorkerPanicked`] if a parallel worker died.
///
/// # Examples
///
/// ```
/// use petri::{Budget, NetBuilder, Property, verify, Verdict};
///
/// let mut b = NetBuilder::new("chain");
/// let mut prev = b.place_marked("p0");
/// for i in 1..20 {
///     let next = b.place(format!("p{i}"));
///     b.transition(format!("t{i}"), [prev], [next]);
///     prev = next;
/// }
/// let net = b.build()?;
/// let budget = Budget::default().cap_states(5);
/// let bounded = verify(&net, &Default::default(), &budget, &Property::deadlock())?;
/// assert!(matches!(bounded.verdict, Verdict::Inconclusive { .. }));
/// assert!(bounded.coverage.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify(
    net: &PetriNet,
    opts: &ExploreOptions,
    budget: &Budget,
    property: &Property,
) -> Result<BoundedReport, NetError> {
    let compiled = property.compile(net).map_err(NetError::Property)?;
    let start = Instant::now();
    let outcome =
        ReachabilityGraph::explore(net, opts, budget, &CheckpointConfig::default(), None)?;
    let exhausted = outcome.reason();
    let coverage = outcome.coverage().cloned();
    let rg = outcome.value();
    let mut report = derive_report(net, rg, start.elapsed());
    if !property.is_default() {
        let goals = rg.goal_states(|m| compiled.goal(net, m));
        report.has_deadlock = !goals.is_empty();
        report.deadlock_count = goals.len();
        report.deadlock_witness = goals.first().and_then(|&g| rg.path_to(g));
        report.deadlock_marking = goals.first().map(|&g| rg.marking(g).clone());
    }
    let frontier = coverage.as_ref().map_or(0, |c| c.frontier_len);
    let verdict = Verdict::from_observation(report.has_deadlock, exhausted.is_none(), frontier);
    Ok(BoundedReport {
        report,
        verdict,
        exhausted,
        coverage,
        property: property.clone(),
    })
}

/// Derives deadlock and liveness facts from an explored graph.
fn derive_report(net: &PetriNet, rg: &ReachabilityGraph, elapsed: Duration) -> VerificationReport {
    let mut fired = vec![false; net.transition_count()];
    for s in rg.states() {
        for &(t, _) in rg.successors(s) {
            fired[t.index()] = true;
        }
    }
    // when edges are not recorded, fall back to per-state enabledness
    if !fired.iter().any(|&f| f) && rg.edge_count() > 0 {
        for s in rg.states() {
            for t in net.transitions() {
                if net.enabled(t, rg.marking(s)) {
                    fired[t.index()] = true;
                }
            }
        }
    }
    let dead_transitions: Vec<TransitionId> =
        net.transitions().filter(|t| !fired[t.index()]).collect();

    let deadlock_witness = rg.deadlocks().first().and_then(|&d| rg.path_to(d));
    let deadlock_marking = rg.deadlocks().first().map(|&d| rg.marking(d).clone());

    VerificationReport {
        state_count: rg.state_count(),
        edge_count: rg.edge_count(),
        has_deadlock: rg.has_deadlock(),
        deadlock_count: rg.deadlocks().len(),
        deadlock_witness,
        deadlock_marking,
        dead_transitions,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use crate::verify_all;

    #[test]
    fn live_cycle_reports_no_deadlock() {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let report = verify_all(&b.build().unwrap());
        assert!(!report.has_deadlock);
        assert_eq!(report.deadlock_count, 0);
        assert!(report.deadlock_witness.is_none());
        assert!(report.is_quasi_live());
    }

    #[test]
    fn dead_transition_reported() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let r = b.place("r");
        b.transition("reach", [p], [q]);
        let never = b.transition("never", [r], []);
        let report = verify_all(&b.build().unwrap());
        assert_eq!(report.dead_transitions, vec![never]);
        assert!(!report.is_quasi_live());
    }

    #[test]
    fn witness_replays_to_dead_marking() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let r = b.place("r");
        b.transition("t1", [p], [q]);
        b.transition("t2", [q], [r]);
        let net = b.build().unwrap();
        let report = verify_all(&net);
        assert!(report.has_deadlock);
        let w = report.deadlock_witness.unwrap();
        assert_eq!(w.len(), 2);
        let m = net
            .fire_sequence(net.initial_marking(), w)
            .unwrap()
            .unwrap();
        assert_eq!(Some(m), report.deadlock_marking);
    }

    #[test]
    fn initial_deadlock_has_empty_witness() {
        let mut b = NetBuilder::new("stuck");
        b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [q], []);
        let report = verify_all(&b.build().unwrap());
        assert!(report.has_deadlock);
        assert_eq!(report.deadlock_witness, Some(vec![]));
    }

    #[test]
    fn edgeless_exploration_still_counts() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [p], [q]);
        let opts = ExploreOptions {
            record_edges: false,
            ..Default::default()
        };
        let net = b.build().unwrap();
        let report = verify(&net, &opts, &Budget::default(), &Property::deadlock())
            .unwrap()
            .report;
        assert_eq!(report.state_count, 2);
        assert!(report.is_quasi_live(), "fallback liveness via enabledness");
    }
}
