//! Structural dependency relations between transitions.
//!
//! Partial-order reduction rests on knowing, *statically*, which transitions
//! can interfere with each other. For safe Petri nets the relevant relations
//! are all derived from the flow relation:
//!
//! * `t` **conflicts with** `u` — they compete for tokens (`•t ∩ •u ≠ ∅`);
//!   firing one can disable the other.
//! * `t` **enables** `u` — `t` produces a token `u` needs (`t• ∩ •u ≠ ∅`).
//! * `t` is **dependent on** `u` — they conflict or one enables the other;
//!   independent transitions commute in every marking.

use petri::{BitSet, PetriNet, TransitionId};

/// Precomputed structural dependency matrices for a net.
///
/// # Examples
///
/// ```
/// use partial_order::Dependencies;
/// use petri::NetBuilder;
///
/// let mut b = NetBuilder::new("n");
/// let p = b.place_marked("p");
/// let q = b.place("q");
/// let a = b.transition("a", [p], [q]);
/// let c = b.transition("c", [q], []);
/// let net = b.build()?;
/// let dep = Dependencies::new(&net);
/// assert!(dep.enables(a, c));
/// assert!(!dep.conflicts(a, c));
/// assert!(dep.dependent(a, c));
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependencies {
    conflicts: Vec<BitSet>,
    enables: Vec<BitSet>,
    dependent: Vec<BitSet>,
}

impl Dependencies {
    /// Computes the dependency matrices of `net`.
    pub fn new(net: &PetriNet) -> Self {
        let n = net.transition_count();
        let mut conflicts = vec![BitSet::new(n); n];
        let mut enables = vec![BitSet::new(n); n];
        for p in net.places() {
            let consumers = net.post_transitions(p);
            let producers = net.pre_transitions(p);
            for (i, &t) in consumers.iter().enumerate() {
                for &u in &consumers[i + 1..] {
                    conflicts[t.index()].insert(u.index());
                    conflicts[u.index()].insert(t.index());
                }
            }
            for &t in producers {
                for &u in consumers {
                    if t != u {
                        enables[t.index()].insert(u.index());
                    }
                }
            }
        }
        let dependent = conflicts
            .iter()
            .zip(&enables)
            .enumerate()
            .map(|(i, (c, e))| {
                let mut d = c.union(e);
                // dependency is symmetric: also u enables t
                for (j, ej) in enables.iter().enumerate() {
                    if ej.contains(i) {
                        d.insert(j);
                    }
                }
                d
            })
            .collect();
        Dependencies {
            conflicts,
            enables,
            dependent,
        }
    }

    /// `true` if `t` and `u` share an input place.
    pub fn conflicts(&self, t: TransitionId, u: TransitionId) -> bool {
        self.conflicts[t.index()].contains(u.index())
    }

    /// `true` if `t` produces a token into an input place of `u`.
    pub fn enables(&self, t: TransitionId, u: TransitionId) -> bool {
        self.enables[t.index()].contains(u.index())
    }

    /// `true` if `t` and `u` are dependent (conflict or enable in either
    /// direction). Independent transitions commute in every marking.
    pub fn dependent(&self, t: TransitionId, u: TransitionId) -> bool {
        self.dependent[t.index()].contains(u.index())
    }

    /// The set of transitions conflicting with `t`.
    pub fn conflict_set(&self, t: TransitionId) -> &BitSet {
        &self.conflicts[t.index()]
    }

    /// The set of transitions `t` enables.
    pub fn enable_set(&self, t: TransitionId) -> &BitSet {
        &self.enables[t.index()]
    }

    /// The set of transitions dependent on `t`.
    pub fn dependent_set(&self, t: TransitionId) -> &BitSet {
        &self.dependent[t.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petri::NetBuilder;

    #[test]
    fn independent_transitions_commute() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let r = b.place("r");
        let s = b.place("s");
        let t1 = b.transition("t1", [p], [r]);
        let t2 = b.transition("t2", [q], [s]);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert!(!dep.dependent(t1, t2));
        assert!(!dep.dependent(t2, t1));
        // semantic check: both orders give the same marking
        let m12 = net
            .fire_sequence(net.initial_marking(), [t1, t2])
            .unwrap()
            .unwrap();
        let m21 = net
            .fire_sequence(net.initial_marking(), [t2, t1])
            .unwrap()
            .unwrap();
        assert_eq!(m12, m21);
    }

    #[test]
    fn conflict_is_symmetric() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let a = b.transition("a", [p], []);
        let c = b.transition("c", [p], []);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert!(dep.conflicts(a, c));
        assert!(dep.conflicts(c, a));
        assert!(dep.dependent(a, c));
        assert!(dep.dependent(c, a));
    }

    #[test]
    fn enabling_is_directional_but_dependency_symmetric() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let a = b.transition("a", [p], [q]);
        let c = b.transition("c", [q], []);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert!(dep.enables(a, c));
        assert!(!dep.enables(c, a));
        assert!(dep.dependent(a, c));
        assert!(dep.dependent(c, a));
    }

    #[test]
    fn self_loop_producer_enables_consumers() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let a = b.transition("a", [p], [p, q]);
        let c = b.transition("c", [q], []);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert!(dep.enables(a, c));
        assert!(!dep.enables(a, a), "no self-enabling recorded");
    }

    #[test]
    fn sets_match_pairwise_queries() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let a = b.transition("a", [p], [q]);
        let c = b.transition("c", [p], []);
        let d = b.transition("d", [q], []);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert_eq!(
            dep.conflict_set(a).iter().collect::<Vec<_>>(),
            vec![c.index()]
        );
        assert_eq!(
            dep.enable_set(a).iter().collect::<Vec<_>>(),
            vec![d.index()]
        );
        let deps: Vec<usize> = dep.dependent_set(a).iter().collect();
        assert_eq!(deps, vec![c.index(), d.index()]);
    }
}
