//! The two GPN firing semantics (Definitions 3.2–3.6).
//!
//! * **Single firing** — a transition is *single enabled* when its input
//!   places share a common history (`⋂ m(p) ∩ r ≠ ∅`); firing moves those
//!   histories unchanged, without extra coloring.
//! * **Multiple firing** — a set of (possibly conflicting) transitions
//!   fires simultaneously; each transition moves only the histories that
//!   *include itself* (`m_enabled`), which is how conflicting branches get
//!   their distinguishing colors, and the valid-set relation is tightened
//!   to the histories that stay realizable.

use petri::{ConflictInfo, PetriNet, TransitionId};

use crate::family::SetFamily;
use crate::state::GpnState;

/// Definition 3.2 — the single-enabling family
/// `s_enabled(t, ⟨m,r⟩) = ⋂_{p ∈ •t} m(p) ∩ r`.
///
/// The transition is single enabled iff the result is non-empty. For a
/// source transition (`•t = ∅`) the intersection over nothing is `r`.
pub fn s_enabled<F: SetFamily>(net: &PetriNet, s: &GpnState<F>, t: TransitionId) -> F {
    let mut acc = s.valid().clone();
    for &p in net.pre_places(t) {
        if acc.is_empty() {
            break;
        }
        acc = acc.intersect(s.place(p));
    }
    acc
}

/// Definition 3.5 — the multiple-enabling family
/// `m_enabled(t, s) = {v ∈ ⋂_{p ∈ •t} m(p) | t ∈ v}`.
///
/// Non-empty iff `t` can take part in a simultaneous firing. Every
/// multiple-enabled transition is also single enabled (its histories lie in
/// `m(p) ⊆ r`), but not vice versa.
pub fn m_enabled<F: SetFamily>(net: &PetriNet, s: &GpnState<F>, t: TransitionId) -> F {
    let mut acc: Option<F> = None;
    for &p in net.pre_places(t) {
        acc = Some(match acc {
            None => s.place(p).clone(),
            Some(a) => {
                if a.is_empty() {
                    a
                } else {
                    a.intersect(s.place(p))
                }
            }
        });
    }
    match acc {
        None => s.valid().onset(t.index()),
        Some(a) => a.onset(t.index()),
    }
}

/// Batch [`s_enabled`] over every transition, sharing work inside conflict
/// clusters: the intersection `r ∩ ⋂_{p ∈ C} m(p)` over the places `C`
/// common to *all* members of a cluster is computed once and reused as the
/// prefix of each member's own intersection chain. Intersection is
/// commutative and both family representations are canonical, so the
/// result is element-for-element identical to calling [`s_enabled`] per
/// transition.
pub fn s_enabled_all<F: SetFamily>(
    net: &PetriNet,
    conflicts: &ConflictInfo,
    s: &GpnState<F>,
) -> Vec<F> {
    let mut out: Vec<Option<F>> = vec![None; net.transition_count()];
    for cluster in conflicts.clusters() {
        let common = common_pre_places(net, cluster);
        let mut prefix = s.valid().clone();
        for p in common.iter() {
            if prefix.is_empty() {
                break;
            }
            prefix = prefix.intersect(s.place(petri::PlaceId::new(p)));
        }
        for &t in cluster {
            let mut acc = prefix.clone();
            for &p in net.pre_places(t) {
                if acc.is_empty() {
                    break;
                }
                if !common.contains(p.index()) {
                    acc = acc.intersect(s.place(p));
                }
            }
            out[t.index()] = Some(acc);
        }
    }
    out.into_iter()
        .map(|f| f.expect("every transition belongs to a cluster"))
        .collect()
}

/// Batch [`m_enabled`] over every transition, with the same conflict-
/// cluster prefix sharing as [`s_enabled_all`] (minus the leading `∩ r`,
/// which the multiple-enabling family does not have).
pub fn m_enabled_all<F: SetFamily>(
    net: &PetriNet,
    conflicts: &ConflictInfo,
    s: &GpnState<F>,
) -> Vec<F> {
    let mut out: Vec<Option<F>> = vec![None; net.transition_count()];
    for cluster in conflicts.clusters() {
        let common = common_pre_places(net, cluster);
        let mut prefix: Option<F> = None;
        for p in common.iter() {
            prefix = Some(match prefix {
                None => s.place(petri::PlaceId::new(p)).clone(),
                Some(a) => {
                    if a.is_empty() {
                        a
                    } else {
                        a.intersect(s.place(petri::PlaceId::new(p)))
                    }
                }
            });
        }
        for &t in cluster {
            let mut acc = prefix.clone();
            for &p in net.pre_places(t) {
                if common.contains(p.index()) {
                    continue;
                }
                acc = Some(match acc {
                    None => s.place(p).clone(),
                    Some(a) => {
                        if a.is_empty() {
                            a
                        } else {
                            a.intersect(s.place(p))
                        }
                    }
                });
            }
            out[t.index()] = Some(match acc {
                None => s.valid().onset(t.index()),
                Some(a) => a.onset(t.index()),
            });
        }
    }
    out.into_iter()
        .map(|f| f.expect("every transition belongs to a cluster"))
        .collect()
}

/// The places shared by the presets of *every* member of `cluster`.
fn common_pre_places(net: &PetriNet, cluster: &[TransitionId]) -> petri::BitSet {
    let mut members = cluster.iter();
    let first = members.next().expect("clusters are non-empty");
    let mut common = net.pre_place_set(*first).clone();
    for &t in members {
        common.intersect_with(net.pre_place_set(t));
    }
    common
}

/// Definition 3.3 — the single firing rule `s_update`.
///
/// Removes the common histories from `•t \ t•`, adds them to `t• \ •t`;
/// self-loop places and `r` are untouched.
///
/// # Panics
///
/// Debug-asserts that `t` is single enabled.
pub fn single_update<F: SetFamily>(
    net: &PetriNet,
    s: &GpnState<F>,
    t: TransitionId,
) -> GpnState<F> {
    let moved = s_enabled(net, s, t);
    single_update_with(net, s, t, &moved)
}

/// [`single_update`] with the single-enabling family `moved` supplied by
/// the caller — the hot path of the analysis already has it from its
/// deadlock check and must not recompute it.
///
/// # Panics
///
/// Debug-asserts that `moved` is non-empty (i.e. `t` is single enabled).
pub fn single_update_with<F: SetFamily>(
    net: &PetriNet,
    s: &GpnState<F>,
    t: TransitionId,
    moved: &F,
) -> GpnState<F> {
    debug_assert!(!moved.is_empty(), "single-fired a disabled transition");
    debug_assert!(
        *moved == s_enabled(net, s, t),
        "caller-supplied family disagrees with s_enabled"
    );
    let pre = net.pre_place_set(t);
    let post = net.post_place_set(t);
    let mut marking: Vec<F> = s.marking().to_vec();
    for &p in net.pre_places(t) {
        if !post.contains(p.index()) {
            marking[p.index()] = marking[p.index()].difference(moved);
        }
    }
    for &p in net.post_places(t) {
        if !pre.contains(p.index()) {
            marking[p.index()] = marking[p.index()].union(moved);
        }
    }
    GpnState::from_parts(marking, s.valid().clone())
}

/// Definition 3.6 — the multiple firing rule `m_update` for a set `T'` of
/// simultaneously fired transitions.
///
/// Each fired `t` moves its `m_enabled` histories from its inputs to its
/// outputs; the new valid-set relation `r'` keeps exactly the histories
/// that either fired (for some `t ∈ T'`) or stayed single enabled on a
/// non-fired transition, and every place family is conditioned by `r'` —
/// this conditioning is what prunes "extended conflicts" like `{A,D}` in
/// the paper's Figure 7.
///
/// # Panics
///
/// Debug-asserts that every member of `fired` is multiple enabled.
pub fn multiple_update<F: SetFamily>(
    net: &PetriNet,
    s: &GpnState<F>,
    fired: &[TransitionId],
) -> GpnState<F> {
    let s_en: Vec<F> = net.transitions().map(|t| s_enabled(net, s, t)).collect();
    let m_en: Vec<F> = net.transitions().map(|t| m_enabled(net, s, t)).collect();
    multiple_update_with(net, s, fired, &s_en, &m_en)
}

/// [`multiple_update`] with the enabling families supplied by the caller.
/// `s_en` / `m_en` are indexed by transition index and must equal
/// [`s_enabled`] / [`m_enabled`] of every transition on `s` — the analysis
/// loop computes both families for the whole net anyway (deadlock check,
/// firing-mode choice) and must not recompute them per update.
///
/// # Panics
///
/// Debug-asserts that every member of `fired` is multiple enabled.
pub fn multiple_update_with<F: SetFamily>(
    net: &PetriNet,
    s: &GpnState<F>,
    fired: &[TransitionId],
    s_en: &[F],
    m_en: &[F],
) -> GpnState<F> {
    debug_assert!(
        fired.iter().all(|t| !m_en[t.index()].is_empty()),
        "multiple-fired a transition that is not multiple enabled"
    );

    // r' = ∪_{t ∉ T'} s_enabled(t, s) ∪ ∪_{t ∈ T'} m_enabled(t, s)
    let mut valid = fired
        .iter()
        .fold(None::<F>, |acc, t| {
            let e = &m_en[t.index()];
            Some(match acc {
                None => e.clone(),
                Some(a) => a.union(e),
            })
        })
        .expect("fired set is non-empty");
    for t in net.transitions() {
        if !fired.contains(&t) {
            let se = &s_en[t.index()];
            if !se.is_empty() {
                valid = valid.union(se);
            }
        }
    }

    let mut marking: Vec<F> = s.marking().to_vec();
    // removals from the presets of fired transitions
    for &t in fired {
        for &p in net.pre_places(t) {
            marking[p.index()] = marking[p.index()].difference(&m_en[t.index()]);
        }
    }
    // additions to the postsets of fired transitions
    for &t in fired {
        for &p in net.post_places(t) {
            marking[p.index()] = marking[p.index()].union(&m_en[t.index()]);
        }
    }
    // conditioning by the new valid-set relation
    for fam in &mut marking {
        *fam = fam.intersect(&valid);
    }
    GpnState::from_parts(marking, valid)
}

/// The deadlock-possibility check of §3.3:
/// `⋃_t s_enabled(t, s) ≠ r` — some valid history enables no transition,
/// i.e. some classical marking represented by this state is dead.
pub fn deadlock_possible<F: SetFamily>(net: &PetriNet, s: &GpnState<F>) -> bool {
    !blocked_histories(net, s).is_empty()
}

/// The valid histories with **no** single-enabled transition — each one
/// maps (Definition 3.4) to a dead classical marking.
pub fn blocked_histories<F: SetFamily>(net: &PetriNet, s: &GpnState<F>) -> F {
    let mut live: Option<F> = None;
    for t in net.transitions() {
        let se = s_enabled(net, s, t);
        if se.is_empty() {
            continue;
        }
        live = Some(match live {
            None => se,
            Some(a) => a.union(&se),
        });
    }
    match live {
        None => s.valid().clone(),
        Some(l) => s.valid().difference(&l),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{ExplicitFamily, SetFamily};
    use petri::BitSet;

    type F = ExplicitFamily;

    fn bs(u: usize, e: &[usize]) -> BitSet {
        BitSet::from_iter_with_capacity(u, e.iter().copied())
    }

    fn fam(u: usize, sets: &[&[usize]]) -> F {
        let sets: Vec<BitSet> = sets.iter().map(|s| bs(u, s)).collect();
        F::from_sets(&(), u, &sets)
    }

    /// Figure 5: m(p0) = {{A},{B}}, m(p1) = {{A}}, m(p2) = {{B}},
    /// r = {{A},{B}}; A: {p0,p1} → p3, B: {p1,p2} → p4.
    fn fig5_state() -> (petri::PetriNet, GpnState<F>) {
        let net = models::figures::fig5();
        let u = net.transition_count();
        let a = net.transition_by_name("A").unwrap().index();
        let b = net.transition_by_name("B").unwrap().index();
        let valid = fam(u, &[&[a], &[b]]);
        let empty = F::empty(&(), u);
        let mut marking = vec![empty.clone(); net.place_count()];
        marking[net.place_by_name("p0").unwrap().index()] = fam(u, &[&[a], &[b]]);
        marking[net.place_by_name("p1").unwrap().index()] = fam(u, &[&[a]]);
        marking[net.place_by_name("p2").unwrap().index()] = fam(u, &[&[b]]);
        (net, GpnState::from_parts(marking, valid))
    }

    #[test]
    fn fig5_single_enabling_matches_paper() {
        let (net, s) = fig5_state();
        let a = net.transition_by_name("A").unwrap();
        let b = net.transition_by_name("B").unwrap();
        let u = net.transition_count();
        // s_enabled(A) = {{A}}; s_enabled(B) = {}
        let ea = s_enabled(&net, &s, a);
        assert_eq!(ea.sets(), vec![bs(u, &[a.index()])]);
        assert!(s_enabled(&net, &s, b).is_empty());
    }

    #[test]
    fn fig5_single_firing_matches_paper() {
        let (net, s) = fig5_state();
        let a = net.transition_by_name("A").unwrap();
        let s1 = single_update(&net, &s, a);
        let u = net.transition_count();
        let ai = a.index();
        let bi = net.transition_by_name("B").unwrap().index();
        // {{A}} removed from p0 and p1, added to p3
        assert_eq!(
            s1.place(net.place_by_name("p0").unwrap()).sets(),
            vec![bs(u, &[bi])]
        );
        assert!(s1.place(net.place_by_name("p1").unwrap()).is_empty());
        assert_eq!(
            s1.place(net.place_by_name("p3").unwrap()).sets(),
            vec![bs(u, &[ai])]
        );
        // p2 untouched, r unchanged
        assert_eq!(
            s1.place(net.place_by_name("p2").unwrap()).sets(),
            vec![bs(u, &[bi])]
        );
        assert_eq!(s1.valid(), s.valid());
    }

    #[test]
    fn fig6_mapping_matches_paper() {
        let (net, s) = fig5_state();
        // mapping(m, r) = {{p0,p1},{p0,p2}}
        let mapped = s.mapping(&net);
        let names: Vec<String> = mapped.iter().map(|m| net.display_marking(m)).collect();
        assert_eq!(names, vec!["{p0, p1}", "{p0, p2}"]);
        // after firing A: {{p3},{p0,p2}}
        let a = net.transition_by_name("A").unwrap();
        let s1 = single_update(&net, &s, a);
        let mapped1 = s1.mapping(&net);
        let names1: Vec<String> = mapped1.iter().map(|m| net.display_marking(m)).collect();
        assert_eq!(names1, vec!["{p0, p2}", "{p3}"]);
    }

    #[test]
    fn fig7_multiple_firing_sequence_matches_paper() {
        let net = models::figures::fig7();
        let u = net.transition_count();
        let t = |n: &str| net.transition_by_name(n).unwrap();
        let (a, b, c, d) = (t("A"), t("B"), t("C"), t("D"));
        let (ai, bi, ci, di) = (a.index(), b.index(), c.index(), d.index());
        F::new_context(u);
        let s0 = GpnState::<F>::initial(&net, &());

        // m_enabled(A, s0) = {{A,C},{A,D}}, m_enabled(B, s0) = {{B,C},{B,D}}
        let ea = m_enabled(&net, &s0, a);
        assert_eq!(ea.sets(), vec![bs(u, &[ai, ci]), bs(u, &[ai, di])]);
        let eb = m_enabled(&net, &s0, b);
        assert_eq!(eb.sets(), vec![bs(u, &[bi, ci]), bs(u, &[bi, di])]);

        // fire {A,B} simultaneously
        let s1 = multiple_update(&net, &s0, &[a, b]);
        assert_eq!(s1.valid(), s0.valid(), "r1 = r0 (paper)");
        let p1 = net.place_by_name("p1").unwrap();
        let p2 = net.place_by_name("p2").unwrap();
        assert_eq!(
            s1.place(p1).sets(),
            vec![bs(u, &[ai, ci]), bs(u, &[ai, di])]
        );
        assert_eq!(
            s1.place(p2).sets(),
            vec![bs(u, &[bi, ci]), bs(u, &[bi, di])]
        );
        // mapping(m1, r1) = {{p1,p3},{p2,p3}}
        let names: Vec<String> = s1
            .mapping(&net)
            .iter()
            .map(|m| net.display_marking(m))
            .collect();
        assert_eq!(names, vec!["{p1, p3}", "{p2, p3}"]);

        // m_enabled(C, s1) = {{A,C}}, m_enabled(D, s1) = {{B,D}}
        assert_eq!(m_enabled(&net, &s1, c).sets(), vec![bs(u, &[ai, ci])]);
        assert_eq!(m_enabled(&net, &s1, d).sets(), vec![bs(u, &[bi, di])]);

        // fire {C,D}: r2 = {{A,C},{B,D}} — the extended-conflict pruning
        let s2 = multiple_update(&net, &s1, &[c, d]);
        assert_eq!(s2.valid().sets(), vec![bs(u, &[ai, ci]), bs(u, &[bi, di])]);
        let p5 = net.place_by_name("p5").unwrap();
        assert_eq!(
            s2.place(p5).sets(),
            vec![bs(u, &[ai, ci]), bs(u, &[bi, di])]
        );
        // every other place is empty; mapping = {{p5}}
        let names2: Vec<String> = s2
            .mapping(&net)
            .iter()
            .map(|m| net.display_marking(m))
            .collect();
        assert_eq!(names2, vec!["{p5}"]);
    }

    #[test]
    fn fig3_d_is_blocked_by_conflicting_colors() {
        let net = models::figures::fig3();
        let u = net.transition_count();
        F::new_context(u);
        let s0 = GpnState::<F>::initial(&net, &());
        let t = |n: &str| net.transition_by_name(n).unwrap();
        let s1 = multiple_update(&net, &s0, &[t("A"), t("B")]);
        // D's inputs hold mutually conflicting colors: not even single enabled
        assert!(s_enabled(&net, &s1, t("D")).is_empty());
        assert!(m_enabled(&net, &s1, t("D")).is_empty());
        // C can fire (single semantics), moving the A-histories to p5
        let ec = s_enabled(&net, &s1, t("C"));
        assert!(!ec.is_empty());
        let s2 = single_update(&net, &s1, t("C"));
        let p5 = net.place_by_name("p5").unwrap();
        assert_eq!(s2.place(p5), &ec);
        let _ = u;
    }

    #[test]
    fn fig4_merge_place_collects_both_histories() {
        let net = models::figures::fig4();
        let u = net.transition_count();
        F::new_context(u);
        let s0 = GpnState::<F>::initial(&net, &());
        let a = net.transition_by_name("A").unwrap();
        let b = net.transition_by_name("B").unwrap();
        let s1 = multiple_update(&net, &s0, &[a, b]);
        let p1 = net.place_by_name("p1").unwrap();
        let p2 = net.place_by_name("p2").unwrap();
        let p3 = net.place_by_name("p3").unwrap();
        let p0 = net.place_by_name("p0").unwrap();
        assert_eq!(
            s1.place(p1).sets(),
            vec![bs(u, &[a.index()]), bs(u, &[b.index()])],
            "merge place holds {{A}} and {{B}}"
        );
        assert_eq!(s1.place(p2).sets(), vec![bs(u, &[a.index()])]);
        assert_eq!(s1.place(p3).sets(), vec![bs(u, &[b.index()])]);
        assert!(s1.place(p0).is_empty());
    }

    #[test]
    fn multiple_enabled_implies_single_enabled() {
        let net = models::figures::fig7();
        F::new_context(net.transition_count());
        let s0 = GpnState::<F>::initial(&net, &());
        for t in net.transitions() {
            if !m_enabled(&net, &s0, t).is_empty() {
                assert!(
                    !s_enabled(&net, &s0, t).is_empty(),
                    "{} multiple- but not single-enabled",
                    net.transition_name(t)
                );
            }
        }
    }

    #[test]
    fn deadlock_check_on_terminal_state() {
        let net = models::figures::fig2(2);
        F::new_context(net.transition_count());
        let s0 = GpnState::<F>::initial(&net, &());
        assert!(!deadlock_possible(&net, &s0));
        let fired: Vec<_> = net.transitions().collect();
        let s1 = multiple_update(&net, &s0, &fired);
        assert!(deadlock_possible(&net, &s1), "all histories are terminal");
        assert_eq!(blocked_histories(&net, &s1), s1.valid().clone());
    }

    #[test]
    fn batch_enabling_agrees_with_per_transition() {
        // the cluster-prefix-sharing batch versions must be observationally
        // identical to calling s_enabled / m_enabled per transition, on the
        // initial state and on successors reached by both firing rules
        for net in [
            models::figures::fig2(3),
            models::figures::fig3(),
            models::figures::fig4(),
            models::figures::fig5(),
            models::figures::fig7(),
            models::nsdp(3),
            models::readers_writers(3),
        ] {
            let conflicts = petri::ConflictInfo::new(&net);
            F::new_context(net.transition_count());
            let s0 = GpnState::<F>::initial(&net, &());
            let mut probe = vec![s0.clone()];
            let fired: Vec<_> = net
                .transitions()
                .filter(|&t| !m_enabled(&net, &s0, t).is_empty())
                .collect();
            if !fired.is_empty() {
                probe.push(multiple_update(&net, &s0, &fired));
            }
            if let Some(t) = net
                .transitions()
                .find(|&t| !s_enabled(&net, &s0, t).is_empty())
            {
                probe.push(single_update(&net, &s0, t));
            }
            for s in &probe {
                let s_all = s_enabled_all(&net, &conflicts, s);
                let m_all = m_enabled_all(&net, &conflicts, s);
                for t in net.transitions() {
                    assert_eq!(
                        s_all[t.index()],
                        s_enabled(&net, s, t),
                        "s_enabled({}) on {}",
                        net.transition_name(t),
                        net.name()
                    );
                    assert_eq!(
                        m_all[t.index()],
                        m_enabled(&net, s, t),
                        "m_enabled({}) on {}",
                        net.transition_name(t),
                        net.name()
                    );
                }
            }
        }
    }

    #[test]
    fn update_with_agrees_with_plain_updates() {
        let net = models::figures::fig7();
        F::new_context(net.transition_count());
        let s0 = GpnState::<F>::initial(&net, &());
        let conflicts = petri::ConflictInfo::new(&net);
        let s_en = s_enabled_all(&net, &conflicts, &s0);
        let m_en = m_enabled_all(&net, &conflicts, &s0);
        let a = net.transition_by_name("A").unwrap();
        let b = net.transition_by_name("B").unwrap();
        assert_eq!(
            multiple_update(&net, &s0, &[a, b]),
            multiple_update_with(&net, &s0, &[a, b], &s_en, &m_en)
        );
        assert_eq!(
            single_update(&net, &s0, a),
            single_update_with(&net, &s0, a, &s_en[a.index()])
        );
    }
}
