//! The non-serialized dining philosophers (NSDP) benchmark.
//!
//! `n` philosophers sit around a table with `n` forks. A philosopher first
//! gets hungry, then picks up her two forks **in either order** — nothing
//! serializes access to the table (no butler/host), hence *non-serialized*.
//! After eating she puts both forks back and returns to thinking. The net
//! deadlocks: if every hungry philosopher grabs her left fork first, the
//! circular wait can never be broken.
//!
//! Each philosopher has five local states (thinking, hungry, holding left,
//! holding right, eating) and six transitions; fork `i` is a place shared
//! between neighbours `i−1` and `i`.
//!
//! # Why this exact encoding
//!
//! The full-state-space counts of the paper's Table 1 — 18, 322, 5778,
//! 103682, 1.86·10⁶ for n = 2, 4, 6, 8, 10 — are the Lucas numbers `L₃ₙ =
//! tr(Bⁿ)` for the transfer matrix `B = [[3,2],[2,1]]`. Reading `B` as
//! "number of philosopher configurations per (left fork, right fork)
//! availability" forces exactly **two** fork-free local states (thinking
//! and hungry), one holds-left state, one holds-right state and one
//! holds-both state. We use Table 1's counts as a checksum that this is
//! the same model the authors measured.

use petri::{NetBuilder, PetriNet};

/// Builds the NSDP net for `n ≥ 2` philosophers.
///
/// # Panics
///
/// Panics if `n < 2` (a single philosopher cannot have two distinct forks
/// in a safe net).
///
/// # Examples
///
/// ```
/// use petri::{Budget, CheckpointConfig, ReachabilityGraph};
///
/// let net = models::nsdp(2);
/// let rg = ReachabilityGraph::explore(
///     &net,
///     &Default::default(),
///     &Budget::default(),
///     &CheckpointConfig::default(),
///     None,
/// )?
/// .into_value();
/// assert_eq!(rg.state_count(), 18); // Table 1, NSDP(2)
/// assert!(rg.has_deadlock());
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn nsdp(n: usize) -> PetriNet {
    assert!(n >= 2, "NSDP needs at least 2 philosophers, got {n}");
    let mut b = NetBuilder::new(format!("nsdp_{n}"));
    let forks: Vec<_> = (0..n).map(|i| b.place_marked(format!("fork{i}"))).collect();
    for i in 0..n {
        let left = forks[i];
        let right = forks[(i + 1) % n];
        let think = b.place_marked(format!("think{i}"));
        let hungry = b.place(format!("hungry{i}"));
        let has_l = b.place(format!("hasL{i}"));
        let has_r = b.place(format!("hasR{i}"));
        let eat = b.place(format!("eat{i}"));
        b.transition(format!("getHungry{i}"), [think], [hungry]);
        b.transition(format!("takeLfirst{i}"), [hungry, left], [has_l]);
        b.transition(format!("takeRsecond{i}"), [has_l, right], [eat]);
        b.transition(format!("takeRfirst{i}"), [hungry, right], [has_r]);
        b.transition(format!("takeLsecond{i}"), [has_r, left], [eat]);
        b.transition(format!("release{i}"), [eat], [think, left, right]);
    }
    b.build().expect("nsdp is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use petri::covered_by_place_invariants;

    /// Lucas numbers L_{3n} via the transfer matrix [[3,2],[2,1]].
    fn lucas_3n(n: usize) -> usize {
        let (mut a, mut b, mut c, mut d) = (1i64, 0i64, 0i64, 1i64); // identity
        for _ in 0..n {
            let (na, nb) = (3 * a + 2 * c, 3 * b + 2 * d);
            let (nc, nd) = (2 * a + c, 2 * b + d);
            (a, b, c, d) = (na, nb, nc, nd);
        }
        (a + d) as usize
    }

    #[test]
    fn lucas_helper_matches_table1() {
        assert_eq!(lucas_3n(2), 18);
        assert_eq!(lucas_3n(4), 322);
        assert_eq!(lucas_3n(6), 5778);
        assert_eq!(lucas_3n(8), 103_682);
        assert_eq!(lucas_3n(10), 1_860_498);
    }

    #[test]
    fn structure_scales_linearly() {
        let net = nsdp(5);
        assert_eq!(net.place_count(), 5 * 6);
        assert_eq!(net.transition_count(), 5 * 6);
    }

    #[test]
    fn state_counts_match_table1() {
        for n in [2usize, 4] {
            let rg = explore_full(&nsdp(n)).unwrap();
            assert_eq!(rg.state_count(), lucas_3n(n), "NSDP({n})");
        }
    }

    #[test]
    fn deadlock_exists_with_all_left_first() {
        let net = nsdp(3);
        let rg = explore_full(&net).unwrap();
        assert!(rg.has_deadlock());
        // the canonical witness: everyone gets hungry, takes the left fork
        let mut seq = Vec::new();
        for i in 0..3 {
            seq.push(net.transition_by_name(&format!("getHungry{i}")).unwrap());
        }
        for i in 0..3 {
            seq.push(net.transition_by_name(&format!("takeLfirst{i}")).unwrap());
        }
        let m = net
            .fire_sequence(net.initial_marking(), seq)
            .unwrap()
            .expect("all grabs enabled in order");
        assert!(net.is_dead(&m), "circular wait is a deadlock");
    }

    #[test]
    fn symmetric_deadlock_all_right_first() {
        let net = nsdp(3);
        let mut seq = Vec::new();
        for i in 0..3 {
            seq.push(net.transition_by_name(&format!("getHungry{i}")).unwrap());
        }
        for i in 0..3 {
            seq.push(net.transition_by_name(&format!("takeRfirst{i}")).unwrap());
        }
        let m = net
            .fire_sequence(net.initial_marking(), seq)
            .unwrap()
            .unwrap();
        assert!(net.is_dead(&m));
    }

    #[test]
    fn philosopher_cycle_returns_to_initial() {
        let net = nsdp(2);
        let names = ["getHungry0", "takeLfirst0", "takeRsecond0", "release0"];
        let seq: Vec<_> = names
            .iter()
            .map(|s| net.transition_by_name(s).unwrap())
            .collect();
        let m = net
            .fire_sequence(net.initial_marking(), seq)
            .unwrap()
            .unwrap();
        assert_eq!(&m, net.initial_marking());
    }

    #[test]
    fn net_is_structurally_bounded() {
        assert!(covered_by_place_invariants(&nsdp(3)));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_philosopher() {
        nsdp(1);
    }
}
