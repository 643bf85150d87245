//! The worked example nets from the paper's figures.
//!
//! These small nets pin down the semantics of the generalized analysis: the
//! integration tests of the `gpo-core` crate assert the exact markings and
//! valid-set relations the paper shows for them.

use petri::{NetBuilder, PetriNet};

/// Figure 1(a): three concurrently enabled transitions `A`, `B`, `C`.
///
/// The full reachability graph is the 3-cube: `2³ = 8` states and `3! = 6`
/// maximal interleavings — the first source of explosion (§2.2).
///
/// # Examples
///
/// ```
/// use petri::{Budget, CheckpointConfig, ReachabilityGraph};
///
/// let rg = ReachabilityGraph::explore(
///     &models::figures::fig1(),
///     &Default::default(),
///     &Budget::default(),
///     &CheckpointConfig::default(),
///     None,
/// )?
/// .into_value();
/// assert_eq!(rg.state_count(), 8);
/// assert_eq!(rg.count_maximal_paths(), Some(6));
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn fig1() -> PetriNet {
    let mut b = NetBuilder::new("fig1");
    for name in ["A", "B", "C"] {
        let p = b.place_marked(format!("in{name}"));
        let q = b.place(format!("out{name}"));
        b.transition(name, [p], [q]);
    }
    b.build().expect("fig1 is well-formed")
}

/// Figure 2(a): `n` concurrently marked binary conflict places.
///
/// Partial-order reduction still needs `2^(n+1) − 1` states here (the
/// "anticipated reachability graph" of Figure 2(b)); the generalized
/// analysis needs 2. This is the paper's headline example of the *second*
/// source of explosion.
pub fn fig2(n: usize) -> PetriNet {
    let mut b = NetBuilder::new(format!("fig2_{n}"));
    for i in 0..n {
        let c = b.place_marked(format!("c{i}"));
        let a = b.place(format!("a{i}"));
        let bb = b.place(format!("b{i}"));
        b.transition(format!("A{i}"), [c], [a]);
        b.transition(format!("B{i}"), [c], [bb]);
    }
    b.build().expect("fig2 is well-formed")
}

/// Figure 3: the introductory Generalized Petri Net.
///
/// `p1` is marked; `A: p1 → {p2,p3}` and `B: p1 → {p4}` conflict, `C:
/// {p2,p3} → {p5}` and `D: {p3,p4} → {p6}` conflict via `p3`. After firing
/// `A` and `B` simultaneously, `D`'s input places hold tokens of mutually
/// conflicting colors so `D` must not fire, while `C` can.
pub fn fig3() -> PetriNet {
    let mut b = NetBuilder::new("fig3");
    let p1 = b.place_marked("p1");
    let p2 = b.place("p2");
    let p3 = b.place("p3");
    let p4 = b.place("p4");
    let p5 = b.place("p5");
    let p6 = b.place("p6");
    b.transition("A", [p1], [p2, p3]);
    b.transition("B", [p1], [p4]);
    b.transition("C", [p2, p3], [p5]);
    b.transition("D", [p3, p4], [p6]);
    b.build().expect("fig3 is well-formed")
}

/// Figure 4: conflicting transitions whose outputs merge in one place.
///
/// `A: p0 → {p2,p1}`, `B: p0 → {p3,p1}`. After the simultaneous firing the
/// merge place `p1` holds *both* transition sets `{A}` and `{B}` — the
/// reason markings map places to sets of sets.
pub fn fig4() -> PetriNet {
    let mut b = NetBuilder::new("fig4");
    let p0 = b.place_marked("p0");
    let p1 = b.place("p1");
    let p2 = b.place("p2");
    let p3 = b.place("p3");
    b.transition("A", [p0], [p2, p1]);
    b.transition("B", [p0], [p3, p1]);
    b.build().expect("fig4 is well-formed")
}

/// Figures 5 and 6: the single-firing example.
///
/// `A: {p0,p1} → {p3}` and `B: {p1,p2} → {p4}` conflict via `p1`. The
/// paper analyses the *intermediate* GPN state with `m(p0) = {{A},{B}}`,
/// `m(p1) = {{A}}`, `m(p2) = {{B}}` and `r = {{A},{B}}`; the `gpo-core`
/// tests construct that state on this structure.
pub fn fig5() -> PetriNet {
    let mut b = NetBuilder::new("fig5");
    let p0 = b.place("p0");
    let p1 = b.place("p1");
    let p2 = b.place("p2");
    let p3 = b.place("p3");
    let p4 = b.place("p4");
    b.transition("A", [p0, p1], [p3]);
    b.transition("B", [p1, p2], [p4]);
    b.build().expect("fig5 is well-formed")
}

/// Figure 7: two maximal conflicting sets `{A,B}` (via `p0`) and `{C,D}`
/// (via `p3`) fired in succession by the multiple firing rule.
///
/// `A: p0 → p1`, `B: p0 → p2`, `C: {p1,p3} → p5`, `D: {p2,p3} → p5`. The
/// paper computes `r₀ = {{A,C},{A,D},{B,C},{B,D}}` and, after both
/// multiple firings, `r₂ = {{A,C},{B,D}}` with only `p5` marked in every
/// mapped classical state.
pub fn fig7() -> PetriNet {
    let mut b = NetBuilder::new("fig7");
    let p0 = b.place_marked("p0");
    let p1 = b.place("p1");
    let p2 = b.place("p2");
    let p3 = b.place_marked("p3");
    let p5 = b.place("p5");
    b.transition("A", [p0], [p1]);
    b.transition("B", [p0], [p2]);
    b.transition("C", [p1, p3], [p5]);
    b.transition("D", [p2, p3], [p5]);
    b.build().expect("fig7 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use petri::ConflictInfo;

    #[test]
    fn fig1_full_graph_shape() {
        let rg = explore_full(&fig1()).unwrap();
        assert_eq!(rg.state_count(), 8);
        assert_eq!(rg.count_maximal_paths(), Some(6), "3! interleavings");
    }

    #[test]
    fn fig2_conflict_clusters_are_pairs() {
        let net = fig2(4);
        let info = ConflictInfo::new(&net);
        assert_eq!(info.choice_clusters().count(), 4);
        assert!(info.clusters_are_cliques());
        assert_eq!(info.maximal_conflict_free_sets(1 << 10).unwrap().len(), 16);
    }

    #[test]
    fn fig3_conflicts_match_paper() {
        let net = fig3();
        let a = net.transition_by_name("A").unwrap();
        let b = net.transition_by_name("B").unwrap();
        let c = net.transition_by_name("C").unwrap();
        let d = net.transition_by_name("D").unwrap();
        assert!(net.in_conflict(a, b));
        assert!(net.in_conflict(c, d));
        assert!(!net.in_conflict(a, c));
        // A and D do *not* conflict structurally (A only produces into p3);
        // the "extended conflict" between them is exactly what the valid-set
        // bookkeeping of the generalized analysis discovers dynamically.
        assert!(!net.in_conflict(a, d));
    }

    #[test]
    fn fig4_classical_semantics() {
        // classically, firing A xor B: two reachable successors
        let rg = explore_full(&fig4()).unwrap();
        assert_eq!(rg.state_count(), 3);
        assert_eq!(rg.deadlocks().len(), 2);
    }

    #[test]
    fn fig5_transitions_conflict_via_p1() {
        let net = fig5();
        let a = net.transition_by_name("A").unwrap();
        let b = net.transition_by_name("B").unwrap();
        assert!(net.in_conflict(a, b));
        let info = ConflictInfo::new(&net);
        let r0 = info.maximal_conflict_free_sets(16).unwrap();
        // r0 = {{A},{B}} as in the paper
        assert_eq!(r0.len(), 2);
    }

    #[test]
    fn fig7_valid_sets_match_paper() {
        let net = fig7();
        let info = ConflictInfo::new(&net);
        let r0 = info.maximal_conflict_free_sets(16).unwrap();
        let mut as_names: Vec<Vec<&str>> = r0
            .iter()
            .map(|s| {
                s.iter()
                    .map(|t| net.transition_name(petri::TransitionId::new(t)))
                    .collect()
            })
            .collect();
        as_names.sort();
        assert_eq!(
            as_names,
            vec![
                vec!["A", "C"],
                vec!["A", "D"],
                vec!["B", "C"],
                vec!["B", "D"]
            ]
        );
    }

    #[test]
    fn fig7_classical_graph() {
        let rg = explore_full(&fig7()).unwrap();
        // A|B then C|D; both branches merge in {p5}:
        // m0, after A, after B, and the common final state — 4 states
        assert_eq!(rg.state_count(), 4);
        assert!(rg.has_deadlock());
    }
}
