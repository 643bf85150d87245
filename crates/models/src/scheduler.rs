//! Milner's cyclic scheduler (Corbett's "cyclic" benchmark).
//!
//! `n` cyclers sit in a ring; a scheduling token circulates. When cycler
//! `i` holds the token and its task is idle, it starts the task and passes
//! the token on; the task ends on its own time. The net is deadlock-free
//! and live, and — in contrast to the choice-heavy paper benchmarks — it
//! has **no conflicts at all**: its state explosion (`≈ n·2ⁿ`) is purely
//! the first kind (§2.2, interleavings), which classical partial-order
//! reduction and the generalized analysis both collapse to linear size.

use petri::{NetBuilder, PetriNet};

/// Builds Milner's cyclic scheduler with `n ≥ 1` cyclers.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use petri::{Budget, CheckpointConfig, ConflictInfo, ReachabilityGraph};
///
/// let net = models::scheduler(3);
/// let rg = ReachabilityGraph::explore(
///     &net,
///     &Default::default(),
///     &Budget::default(),
///     &CheckpointConfig::default(),
///     None,
/// )?
/// .into_value();
/// assert!(!rg.has_deadlock());
/// // no choices anywhere: a pure-concurrency benchmark
/// assert_eq!(ConflictInfo::new(&net).choice_clusters().count(), 0);
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn scheduler(n: usize) -> PetriNet {
    assert!(n >= 1, "the scheduler needs at least one cycler");
    let mut b = NetBuilder::new(format!("cyclic_{n}"));
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
    b.build().expect("scheduler is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use petri::{Budget, ConflictInfo, Property};

    #[test]
    fn structure_scales_linearly() {
        let net = scheduler(4);
        assert_eq!(net.place_count(), 4 * 4);
        assert_eq!(net.transition_count(), 4 * 3);
    }

    #[test]
    fn deadlock_free_and_live() {
        for n in 1..=4 {
            let net = scheduler(n);
            let report = petri::verify(
                &net,
                &Default::default(),
                &Budget::default(),
                &Property::deadlock(),
            )
            .unwrap()
            .report;
            assert!(!report.has_deadlock, "n={n}");
            assert!(report.is_quasi_live(), "every transition fires, n={n}");
        }
    }

    #[test]
    fn no_conflicts_anywhere() {
        let info = ConflictInfo::new(&scheduler(5));
        assert_eq!(info.choice_clusters().count(), 0);
        assert_eq!(
            info.maximal_conflict_free_sets(2).map(|s| s.len()),
            Some(1),
            "single valid scenario"
        );
    }

    #[test]
    fn state_count_grows_exponentially() {
        let counts: Vec<usize> = (1..=5)
            .map(|n| explore_full(&scheduler(n)).unwrap().state_count())
            .collect();
        for w in counts.windows(2) {
            assert!(w[1] >= 2 * w[0], "at least doubles per cycler: {counts:?}");
        }
    }

    #[test]
    fn round_trip_passes_token_all_the_way() {
        let n = 3;
        let net = scheduler(n);
        let mut seq = Vec::new();
        for i in 0..n {
            seq.push(net.transition_by_name(&format!("start{i}")).unwrap());
            seq.push(net.transition_by_name(&format!("move{i}")).unwrap());
            seq.push(net.transition_by_name(&format!("end{i}")).unwrap());
        }
        let m = net
            .fire_sequence(net.initial_marking(), seq)
            .unwrap()
            .expect("the round fires in order");
        assert_eq!(&m, net.initial_marking(), "one full cycle is a loop");
    }

    #[test]
    fn task_cannot_restart_while_busy() {
        let net = scheduler(2);
        let start0 = net.transition_by_name("start0").unwrap();
        let move0 = net.transition_by_name("move0").unwrap();
        let start1 = net.transition_by_name("start1").unwrap();
        let move1 = net.transition_by_name("move1").unwrap();
        // token goes all the way around while task 0 still busy
        let m = net
            .fire_sequence(net.initial_marking(), [start0, move0, start1, move1])
            .unwrap()
            .unwrap();
        assert!(!net.enabled(start0, &m), "busy task blocks its restart");
    }
}
