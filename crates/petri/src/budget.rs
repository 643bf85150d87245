//! Resource governor for state-space exploration.
//!
//! Exploration is the one operation in this workspace that can legitimately
//! run forever or consume all memory. A [`Budget`] bounds it along four
//! axes — stored states, approximate bytes, wall-clock deadline, and an
//! external cancellation flag — and is checked *cooperatively* inside every
//! explore loop. Exhausting a budget is not a failure: engines return an
//! [`Outcome::Partial`] carrying everything computed so far plus
//! [`CoverageStats`], and verification verdicts become the three-valued
//! [`Verdict`].
//!
//! Soundness of partial results: a deadlock found in a partial graph is a
//! *real* deadlock (every stored marking is genuinely reachable), but the
//! absence of a deadlock in a partial graph proves nothing — the frontier
//! was never expanded. Hence [`Verdict::Inconclusive`] rather than
//! "deadlock-free" whenever exploration stopped early without a hit.
//!
//! # Examples
//!
//! ```
//! use petri::{Budget, ExhaustionReason};
//!
//! let budget = Budget::default().cap_states(100);
//! assert_eq!(budget.exceeded(50, 0), None);
//! assert_eq!(budget.exceeded(101, 0), Some(ExhaustionReason::States));
//!
//! let b = Budget::default();
//! let handle = b.cancel_handle();
//! handle.store(true, std::sync::atomic::Ordering::Relaxed);
//! assert_eq!(b.exceeded(0, 0), Some(ExhaustionReason::Cancelled));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an exploration stopped before exhausting the state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// The stored-state budget was reached.
    States,
    /// The approximate memory budget was reached.
    Memory,
    /// The wall-clock deadline passed.
    Time,
    /// The cancellation flag was raised externally.
    Cancelled,
}

impl fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustionReason::States => write!(f, "state budget exhausted"),
            ExhaustionReason::Memory => write!(f, "memory budget exhausted"),
            ExhaustionReason::Time => write!(f, "deadline exceeded"),
            ExhaustionReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Cooperative resource budget shared by every exploration engine.
///
/// The default budget is unlimited. All limits are *soft*: engines check
/// between state expansions, so a run may overshoot by the fan-out of the
/// expansion in flight (and, with parallel workers, by one expansion per
/// worker).
#[derive(Debug, Clone)]
pub struct Budget {
    /// Stop once this many states (events, BDD states, …) are stored.
    pub max_states: usize,
    /// Stop once the engine's approximate byte accounting reaches this.
    pub max_bytes: usize,
    /// Stop once `Instant::now()` passes this point.
    pub deadline: Option<Instant>,
    /// Externally shared cancellation flag; raise it (from another thread,
    /// a signal handler, a server request context, …) to stop the run.
    pub cancel: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_states: usize::MAX,
            max_bytes: usize::MAX,
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl Budget {
    /// Tightens the state limit to `min(current, max_states)`.
    #[must_use]
    pub fn cap_states(mut self, max_states: usize) -> Self {
        self.max_states = self.max_states.min(max_states);
        self
    }

    /// Tightens the byte limit to `min(current, max_bytes)`.
    #[must_use]
    pub fn cap_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = self.max_bytes.min(max_bytes);
        self
    }

    /// Sets (or tightens) the deadline to `now + timeout`.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        let d = Instant::now() + timeout;
        self.deadline = Some(match self.deadline {
            Some(existing) => existing.min(d),
            None => d,
        });
        self
    }

    /// A clone of the cancellation flag, for handing to another thread.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Raises the cancellation flag.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// A clone of this budget with its *own* fresh cancellation flag.
    ///
    /// A supervisor racing several engines against one shared budget gives
    /// each leg this derived budget: the limits and deadline stay shared,
    /// but the supervisor can stop one leg (a lost race, a watchdog trip)
    /// without stopping the others.
    #[must_use]
    pub fn with_fresh_cancel(&self) -> Self {
        Budget {
            cancel: Arc::new(AtomicBool::new(false)),
            ..self.clone()
        }
    }

    /// The reason an engine should *report* for a stop it observed as
    /// `observed`.
    ///
    /// Cancellation has the highest priority in [`Budget::exceeded`], but
    /// an engine may latch a reason (say [`ExhaustionReason::Time`] from a
    /// shared deadline) in the instant before a supervisor raises the
    /// cancel flag. Re-classifying at the point the partial outcome is
    /// built makes the report deterministic: a cancelled run always says
    /// `Cancelled`, never whichever axis it happened to notice first.
    pub fn stop_reason(&self, observed: ExhaustionReason) -> ExhaustionReason {
        if self.cancel.load(Ordering::Relaxed) {
            ExhaustionReason::Cancelled
        } else {
            observed
        }
    }

    /// Checks the budget against the current resource usage.
    ///
    /// Returns the first exceeded axis, in the fixed priority order
    /// cancellation > states > memory > time, or `None` while within
    /// budget. `states`/`bytes` are whatever the engine counts — stored
    /// markings and their approximate footprint for explicit engines, BDD
    /// nodes for the symbolic one.
    pub fn exceeded(&self, states: usize, bytes: usize) -> Option<ExhaustionReason> {
        if self.cancel.load(Ordering::Relaxed) {
            return Some(ExhaustionReason::Cancelled);
        }
        if states > self.max_states {
            return Some(ExhaustionReason::States);
        }
        if bytes > self.max_bytes {
            return Some(ExhaustionReason::Memory);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(ExhaustionReason::Time);
            }
        }
        None
    }
}

/// How much of the state space a (possibly partial) exploration covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// States stored (discovered and deduplicated).
    pub states_stored: usize,
    /// States fully expanded (all successors computed).
    pub states_expanded: usize,
    /// Discovered-but-unexpanded states left on the frontier when the
    /// exploration stopped. Zero for complete runs.
    pub frontier_len: usize,
    /// Approximate bytes held by stored markings/edges when the run ended.
    pub bytes_estimate: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl fmt::Display for CoverageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states stored, {} expanded, {} on frontier, ~{} bytes, {:.3}s",
            self.states_stored,
            self.states_expanded,
            self.frontier_len,
            self.bytes_estimate,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Result of a budget-governed computation: either it ran to completion,
/// or it stopped early and returns everything computed so far.
#[derive(Debug, Clone)]
pub enum Outcome<T> {
    /// The computation exhausted the state space within budget.
    Complete(T),
    /// The budget ran out first; `result` is the sound-but-incomplete
    /// prefix of the computation.
    Partial {
        /// Everything computed before the budget ran out.
        result: T,
        /// Which budget axis was exhausted.
        reason: ExhaustionReason,
        /// How far the exploration got.
        coverage: CoverageStats,
    },
}

impl<T> Outcome<T> {
    /// `true` for [`Outcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete(_))
    }

    /// The exhaustion reason of a partial outcome.
    pub fn reason(&self) -> Option<ExhaustionReason> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Partial { reason, .. } => Some(*reason),
        }
    }

    /// The coverage statistics of a partial outcome.
    pub fn coverage(&self) -> Option<&CoverageStats> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Partial { coverage, .. } => Some(coverage),
        }
    }

    /// Borrows the inner value, complete or not.
    pub fn value(&self) -> &T {
        match self {
            Outcome::Complete(v) => v,
            Outcome::Partial { result, .. } => result,
        }
    }

    /// Consumes the outcome, keeping the inner value.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Complete(v) => v,
            Outcome::Partial { result, .. } => result,
        }
    }

    /// Sets the wall time a partial outcome's coverage reports. Engines
    /// that resume a prior segment report the time of every segment so
    /// far, not just the last one.
    #[must_use]
    pub fn with_elapsed(mut self, elapsed: Duration) -> Self {
        if let Outcome::Partial { coverage, .. } = &mut self {
            coverage.elapsed = elapsed;
        }
        self
    }

    /// Maps the inner value while preserving completeness metadata.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete(v) => Outcome::Complete(f(v)),
            Outcome::Partial {
                result,
                reason,
                coverage,
            } => Outcome::Partial {
                result: f(result),
                reason,
                coverage,
            },
        }
    }
}

/// Three-valued verification verdict.
///
/// A partial exploration can *prove* the presence of a deadlock (every
/// stored marking is reachable, so a dead one is a genuine counterexample)
/// but never its absence — that requires the exhausted state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The full state space was explored and no dead marking exists.
    DeadlockFree,
    /// A reachable dead marking was found (sound even on partial runs).
    HasDeadlock,
    /// The budget ran out before the question was settled; `frontier` is
    /// the number of discovered-but-unexplored states left behind.
    Inconclusive {
        /// Unexpanded states remaining when the run stopped.
        frontier: usize,
    },
}

impl Verdict {
    /// Derives the verdict from a deadlock observation and completeness.
    pub fn from_observation(has_deadlock: bool, complete: bool, frontier: usize) -> Self {
        if has_deadlock {
            Verdict::HasDeadlock
        } else if complete {
            Verdict::DeadlockFree
        } else {
            Verdict::Inconclusive { frontier }
        }
    }

    /// Whether this verdict settles the question: `HasDeadlock` is sound
    /// even from a partial exploration, `DeadlockFree` is only produced
    /// by a complete one, and `Inconclusive` settles nothing.
    pub fn is_sound(self) -> bool {
        !matches!(self, Verdict::Inconclusive { .. })
    }

    /// The process exit code convention of the `julie` CLI:
    /// 0 = verified (deadlock-free), 1 = property violated (deadlock),
    /// 2 = inconclusive. (3 is reserved for errors.)
    pub fn exit_code(self) -> u8 {
        match self {
            Verdict::DeadlockFree => 0,
            Verdict::HasDeadlock => 1,
            Verdict::Inconclusive { .. } => 2,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::DeadlockFree => write!(f, "deadlock-free"),
            Verdict::HasDeadlock => write!(f, "DEADLOCK possible"),
            Verdict::Inconclusive { frontier } => {
                write!(f, "inconclusive ({frontier} frontier states unexplored)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::default();
        assert_eq!(b.max_states, usize::MAX);
        assert_eq!(b.max_bytes, usize::MAX);
        assert_eq!(b.deadline, None);
        assert!(!b.cancel.load(Ordering::Relaxed));
        assert_eq!(b.exceeded(usize::MAX - 1, usize::MAX - 1), None);
    }

    #[test]
    fn state_and_byte_caps() {
        let b = Budget::default().cap_states(10).cap_bytes(1000);
        assert_eq!(b.exceeded(10, 1000), None, "limits are inclusive");
        assert_eq!(b.exceeded(11, 0), Some(ExhaustionReason::States));
        assert_eq!(b.exceeded(0, 1001), Some(ExhaustionReason::Memory));
    }

    #[test]
    fn caps_only_tighten() {
        let b = Budget::default().cap_states(10).cap_states(100);
        assert_eq!(b.max_states, 10);
        let b = Budget::default().cap_bytes(50).cap_bytes(5);
        assert_eq!(b.max_bytes, 5);
    }

    #[test]
    fn deadline_in_the_past_trips_time() {
        let b = Budget::default().with_timeout(Duration::ZERO);
        assert_eq!(b.exceeded(0, 0), Some(ExhaustionReason::Time));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let b = Budget::default().with_timeout(Duration::from_secs(3600));
        assert_eq!(b.exceeded(0, 0), None);
    }

    #[test]
    fn cancellation_wins_over_everything() {
        let b = Budget::default().cap_states(0).with_timeout(Duration::ZERO);
        b.cancel();
        assert_eq!(b.exceeded(1, 0), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn cancel_handle_is_shared() {
        let b = Budget::default();
        let h = b.cancel_handle();
        assert_eq!(b.exceeded(0, 0), None);
        h.store(true, Ordering::Relaxed);
        assert_eq!(b.exceeded(0, 0), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn fresh_cancel_keeps_limits_but_detaches_the_flag() {
        let b = Budget::default()
            .cap_states(7)
            .cap_bytes(9)
            .with_timeout(Duration::from_secs(3600));
        let leg = b.with_fresh_cancel();
        assert_eq!(leg.max_states, 7);
        assert_eq!(leg.max_bytes, 9);
        assert_eq!(leg.deadline, b.deadline);
        b.cancel();
        assert_eq!(leg.exceeded(0, 0), None, "leg flag is independent");
        leg.cancel();
        assert_eq!(leg.exceeded(0, 0), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn stop_reason_upgrades_to_cancelled_once_the_flag_is_raised() {
        let b = Budget::default();
        assert_eq!(
            b.stop_reason(ExhaustionReason::Time),
            ExhaustionReason::Time
        );
        b.cancel();
        for observed in [
            ExhaustionReason::States,
            ExhaustionReason::Memory,
            ExhaustionReason::Time,
            ExhaustionReason::Cancelled,
        ] {
            assert_eq!(b.stop_reason(observed), ExhaustionReason::Cancelled);
        }
    }

    #[test]
    fn outcome_helpers() {
        let c: Outcome<u32> = Outcome::Complete(7);
        assert!(c.is_complete());
        assert_eq!(c.reason(), None);
        assert_eq!(*c.value(), 7);
        let p = Outcome::Partial {
            result: 3u32,
            reason: ExhaustionReason::Time,
            coverage: CoverageStats::default(),
        };
        assert!(!p.is_complete());
        assert_eq!(p.reason(), Some(ExhaustionReason::Time));
        assert_eq!(p.coverage().unwrap().states_stored, 0);
        let mapped = p.map(|v| v * 2);
        assert_eq!(*mapped.value(), 6);
        assert_eq!(mapped.reason(), Some(ExhaustionReason::Time));
        assert_eq!(mapped.into_value(), 6);
    }

    #[test]
    fn verdict_exit_codes_follow_the_cli_convention() {
        assert_eq!(Verdict::DeadlockFree.exit_code(), 0);
        assert_eq!(Verdict::HasDeadlock.exit_code(), 1);
        assert_eq!(Verdict::Inconclusive { frontier: 9 }.exit_code(), 2);
    }

    #[test]
    fn verdict_from_observation() {
        assert_eq!(
            Verdict::from_observation(true, false, 5),
            Verdict::HasDeadlock,
            "a found deadlock is real even on partial runs"
        );
        assert_eq!(
            Verdict::from_observation(false, true, 0),
            Verdict::DeadlockFree
        );
        assert_eq!(
            Verdict::from_observation(false, false, 5),
            Verdict::Inconclusive { frontier: 5 }
        );
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(
            ExhaustionReason::States.to_string(),
            "state budget exhausted"
        );
        assert_eq!(
            ExhaustionReason::Memory.to_string(),
            "memory budget exhausted"
        );
        assert_eq!(ExhaustionReason::Time.to_string(), "deadline exceeded");
        assert_eq!(ExhaustionReason::Cancelled.to_string(), "cancelled");
        assert_eq!(
            Verdict::Inconclusive { frontier: 3 }.to_string(),
            "inconclusive (3 frontier states unexplored)"
        );
        let stats = CoverageStats {
            states_stored: 10,
            states_expanded: 7,
            frontier_len: 3,
            bytes_estimate: 640,
            elapsed: Duration::from_millis(1500),
        };
        assert_eq!(
            stats.to_string(),
            "10 states stored, 7 expanded, 3 on frontier, ~640 bytes, 1.500s"
        );
    }
}
