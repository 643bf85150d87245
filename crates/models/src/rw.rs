//! The readers-and-writers (RW) benchmark.
//!
//! `n` processes share a database. Any number may read concurrently; a
//! writer needs exclusive access. Exclusion is encoded with one *slot*
//! place per process: a reader takes its own slot, a writer takes **all**
//! slots — so every writer-start conflicts with every other start
//! transition.
//!
//! This is the paper's stress case for classical reduction: every
//! transition is dependent on every other through the slot places, so no
//! partial-order reduction applies (the paper observes "the reduced state
//! space equals the complete state space"), while the generalized analysis
//! collapses the entire behaviour into 2 states by firing all choices
//! simultaneously.

use petri::{NetBuilder, PetriNet};

/// Builds the readers-writers net for `n ≥ 1` processes.
///
/// Each process chooses between reading (shared) and writing (exclusive).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use petri::{Budget, CheckpointConfig, ReachabilityGraph};
///
/// let net = models::readers_writers(3);
/// let rg = ReachabilityGraph::explore(
///     &net,
///     &Default::default(),
///     &Budget::default(),
///     &CheckpointConfig::default(),
///     None,
/// )?
/// .into_value();
/// assert!(!rg.has_deadlock(), "readers-writers is deadlock-free");
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn readers_writers(n: usize) -> PetriNet {
    assert!(n >= 1, "readers-writers needs at least one process");
    let mut b = NetBuilder::new(format!("rw_{n}"));
    let slots: Vec<_> = (0..n).map(|i| b.place_marked(format!("slot{i}"))).collect();
    for i in 0..n {
        let idle = b.place_marked(format!("idle{i}"));
        let reading = b.place(format!("reading{i}"));
        let writing = b.place(format!("writing{i}"));
        b.transition(format!("startRead{i}"), [idle, slots[i]], [reading]);
        b.transition(format!("endRead{i}"), [reading], [idle, slots[i]]);
        let mut wr_pre = vec![idle];
        wr_pre.extend(slots.iter().copied());
        b.transition(format!("startWrite{i}"), wr_pre, [writing]);
        let mut end_post = vec![idle];
        end_post.extend(slots.iter().copied());
        b.transition(format!("endWrite{i}"), [writing], end_post);
    }
    b.build().expect("rw is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use petri::ConflictInfo;

    #[test]
    fn state_count_formula() {
        // reachable states: any subset of processes reading (2^n) plus one
        // writer active while everyone else is idle (n)
        for n in 1..=6 {
            let rg = explore_full(&readers_writers(n)).unwrap();
            assert_eq!(rg.state_count(), (1 << n) + n, "n={n}");
        }
    }

    #[test]
    fn no_deadlock() {
        let rg = explore_full(&readers_writers(4)).unwrap();
        assert!(!rg.has_deadlock());
    }

    #[test]
    fn writer_excludes_readers() {
        let net = readers_writers(3);
        let w0 = net.transition_by_name("startWrite0").unwrap();
        let m = net.fire(w0, net.initial_marking()).unwrap();
        for i in 0..3 {
            let r = net.transition_by_name(&format!("startRead{i}")).unwrap();
            assert!(!net.enabled(r, &m), "reader {i} blocked during write");
        }
        let w1 = net.transition_by_name("startWrite1").unwrap();
        assert!(!net.enabled(w1, &m), "second writer blocked");
    }

    #[test]
    fn readers_are_concurrent() {
        let net = readers_writers(3);
        let seq: Vec<_> = (0..3)
            .map(|i| net.transition_by_name(&format!("startRead{i}")).unwrap())
            .collect();
        let m = net
            .fire_sequence(net.initial_marking(), seq)
            .unwrap()
            .expect("all readers start concurrently");
        assert_eq!(m.token_count(), 3, "three reading places, no slots left");
    }

    #[test]
    fn all_starts_form_one_conflict_cluster() {
        let net = readers_writers(4);
        let info = ConflictInfo::new(&net);
        let s0 = net.transition_by_name("startRead0").unwrap();
        for i in 0..4 {
            for kind in ["startRead", "startWrite"] {
                let t = net.transition_by_name(&format!("{kind}{i}")).unwrap();
                assert_eq!(info.cluster_of(t), info.cluster_of(s0));
            }
        }
    }

    #[test]
    fn valid_sets_are_one_per_writer_plus_all_readers() {
        let net = readers_writers(4);
        let info = ConflictInfo::new(&net);
        let r0 = info.maximal_conflict_free_sets(1 << 12).unwrap();
        // one all-readers scenario + one per writer
        assert_eq!(r0.len(), 5);
    }
}
