//! End-to-end assertions for every figure of the paper, driven through the
//! public API of the umbrella crate.

// `SetFamily::new_context` returns `()` for the explicit representation;
// binding it keeps the call sites identical for both representations.
#![allow(clippy::let_unit_value)]

use gpo_core::{m_enabled, multiple_update, s_enabled, single_update, ExplicitFamily};
use gpo_suite::prelude::*;
use petri::BitSet;

fn bs(net: &PetriNet, names: &[&str]) -> BitSet {
    BitSet::from_iter_with_capacity(
        net.transition_count(),
        names.iter().map(|n| {
            net.transition_by_name(n)
                .expect("transition exists")
                .index()
        }),
    )
}

#[test]
fn fig1_eight_states_six_interleavings() {
    let net = models::figures::fig1();
    let rg = explore_full(&net).unwrap();
    assert_eq!(rg.state_count(), 8, "2^3 markings");
    assert_eq!(rg.count_maximal_paths(), Some(6), "3! interleavings");
    assert_eq!(rg.deadlocks().len(), 1);
}

#[test]
fn fig2_po_exponential_gpo_constant() {
    for n in 1..=8usize {
        let net = models::figures::fig2(n);
        let po = explore_reduced(&net).unwrap();
        assert_eq!(po.state_count(), (1 << (n + 1)) - 1, "2^(n+1)-1 at n={n}");
        let gpo = analyze_all(&net).unwrap();
        assert_eq!(gpo.state_count, 2, "the generalized analysis at n={n}");
        assert_eq!(gpo.deadlock_possible, po.has_deadlock());
    }
}

#[test]
fn fig3_colored_tokens_block_d() {
    let net = models::figures::fig3();
    let ctx = <ExplicitFamily as SetFamily>::new_context(net.transition_count());
    let s0 = GpnState::<ExplicitFamily>::initial(&net, &ctx);
    let t = |n: &str| net.transition_by_name(n).unwrap();
    let s1 = multiple_update(&net, &s0, &[t("A"), t("B")]);
    // p2 and p3 hold "red" (A) tokens, p4 holds the "green" (B) token
    let p = |n: &str| net.place_by_name(n).unwrap();
    assert_eq!(s1.place(p("p2")).sets(), s1.place(p("p3")).sets());
    assert!(
        s_enabled(&net, &s1, t("D")).is_empty(),
        "conflicting colors"
    );
    assert!(!s_enabled(&net, &s1, t("C")).is_empty());
    let s2 = single_update(&net, &s1, t("C"));
    assert!(!s2.place(p("p5")).is_empty(), "red token moved to p5");
    assert!(s2.place(p("p2")).is_empty());
    assert!(s2.place(p("p3")).is_empty());
}

#[test]
fn fig4_merge_place_holds_both_transition_sets() {
    let net = models::figures::fig4();
    let ctx = <ExplicitFamily as SetFamily>::new_context(net.transition_count());
    let s0 = GpnState::<ExplicitFamily>::initial(&net, &ctx);
    let t = |n: &str| net.transition_by_name(n).unwrap();
    let s1 = multiple_update(&net, &s0, &[t("A"), t("B")]);
    let p1 = net.place_by_name("p1").unwrap();
    assert_eq!(
        s1.place(p1).sets(),
        vec![bs(&net, &["A"]), bs(&net, &["B"])],
        "p1 gets filled with {{A}} and {{B}} (Figure 4)"
    );
}

#[test]
fn fig5_fig6_single_firing_and_mapping() {
    let net = models::figures::fig5();
    let u = net.transition_count();
    let t = |n: &str| net.transition_by_name(n).unwrap();
    let p = |n: &str| net.place_by_name(n).unwrap();
    let ctx = <ExplicitFamily as SetFamily>::new_context(u);
    // construct the paper's intermediate state directly
    let fam = |sets: &[&[&str]]| {
        let sets: Vec<BitSet> = sets.iter().map(|s| bs(&net, s)).collect();
        <ExplicitFamily as SetFamily>::from_sets(&ctx, u, &sets)
    };
    let empty = <ExplicitFamily as SetFamily>::empty(&ctx, u);
    let mut marking = vec![empty; net.place_count()];
    marking[p("p0").index()] = fam(&[&["A"], &["B"]]);
    marking[p("p1").index()] = fam(&[&["A"]]);
    marking[p("p2").index()] = fam(&[&["B"]]);
    let s = GpnState::from_parts(marking, fam(&[&["A"], &["B"]]));

    assert_eq!(s_enabled(&net, &s, t("A")).sets(), vec![bs(&net, &["A"])]);
    assert!(s_enabled(&net, &s, t("B")).is_empty());

    let mapped: Vec<String> = s
        .mapping(&net)
        .iter()
        .map(|m| net.display_marking(m))
        .collect();
    assert_eq!(mapped, vec!["{p0, p1}", "{p0, p2}"], "Figure 6(a)");

    let s1 = single_update(&net, &s, t("A"));
    let mapped1: Vec<String> = s1
        .mapping(&net)
        .iter()
        .map(|m| net.display_marking(m))
        .collect();
    assert_eq!(mapped1, vec!["{p0, p2}", "{p3}"], "Figure 6(b)");
}

#[test]
fn fig7_full_replay() {
    let net = models::figures::fig7();
    let t = |n: &str| net.transition_by_name(n).unwrap();
    let ctx = <ExplicitFamily as SetFamily>::new_context(net.transition_count());
    let s0 = GpnState::<ExplicitFamily>::initial(&net, &ctx);

    assert_eq!(
        m_enabled(&net, &s0, t("A")).sets(),
        vec![bs(&net, &["A", "C"]), bs(&net, &["A", "D"])]
    );
    let s1 = multiple_update(&net, &s0, &[t("A"), t("B")]);
    assert_eq!(s1.valid(), s0.valid(), "r1 = r0");
    let s2 = multiple_update(&net, &s1, &[t("C"), t("D")]);
    assert_eq!(
        s2.valid().sets(),
        vec![bs(&net, &["A", "C"]), bs(&net, &["B", "D"])],
        "extended conflicts {{A,D}} and {{B,C}} pruned from r2"
    );
    let mapped: Vec<String> = s2
        .mapping(&net)
        .iter()
        .map(|m| net.display_marking(m))
        .collect();
    assert_eq!(mapped, vec!["{p5}"], "only p5 marked in every scenario");
}

#[test]
fn fig7_whole_analysis_is_three_states() {
    // s0 -> (fire {A,B}) -> s1 -> (fire {C,D}) -> s2 (terminal)
    let report = analyze_all(&models::figures::fig7()).unwrap();
    assert_eq!(report.state_count, 3);
    assert_eq!(report.multiple_firings, 2);
    assert!(report.deadlock_possible, "the final marking is terminal");
}

/// The complete reachability graph of `net`.
fn explore_full(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    petri::ReachabilityGraph::explore(
        net,
        &Default::default(),
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}

/// The complete stubborn-set reduced graph of `net`.
fn explore_reduced(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    partial_order::explore(
        net,
        &Default::default(),
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}

/// The complete generalized analysis of `net`.
fn analyze_all(net: &petri::PetriNet) -> Result<gpo_core::GpoReport, gpo_core::GpoError> {
    gpo_core::analyze::<gpo_core::ZddFamily>(
        net,
        &Default::default(),
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
