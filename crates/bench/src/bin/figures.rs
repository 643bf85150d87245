//! Regenerates the paper's **figure claims**:
//!
//! * Figure 1 — three concurrent transitions: full graph has 2³ = 8 states
//!   and 3! = 6 interleavings;
//! * Figure 2 — N concurrently marked conflict pairs: partial-order
//!   reduction still needs `2^(N+1) − 1` states, GPO needs 2 (the §3.1
//!   headline: exponential → constant);
//! * Figures 3/4/5/7 — the worked GPN firing sequences, replayed and
//!   printed with their markings and valid sets.
//!
//! Usage: `cargo run --release -p gpo-bench --bin figures`

use gpo_core::{
    analyze, m_enabled, multiple_update, s_enabled, single_update, GpnState, SetFamily, ZddFamily,
};
use petri::{Budget, CheckpointConfig, PetriNet, ReachabilityGraph, TransitionId};

fn family_to_string(net: &PetriNet, f: &ZddFamily) -> String {
    let sets: Vec<String> = f
        .sets()
        .iter()
        .map(|s| {
            let names: Vec<&str> = s
                .iter()
                .map(|t| net.transition_name(TransitionId::new(t)))
                .collect();
            format!("{{{}}}", names.join(","))
        })
        .collect();
    format!("{{{}}}", sets.join(", "))
}

fn show_state(net: &PetriNet, s: &GpnState<ZddFamily>) {
    for p in net.places() {
        if !s.place(p).is_empty() {
            println!(
                "    m({}) = {}",
                net.place_name(p),
                family_to_string(net, s.place(p))
            );
        }
    }
    println!("    r = {}", family_to_string(net, s.valid()));
    let mapped: Vec<String> = s
        .mapping(net)
        .iter()
        .map(|m| net.display_marking(m))
        .collect();
    println!("    mapping = {{{}}}", mapped.join(", "));
}

fn fig1() {
    let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
    println!("Figure 1 — interleaving explosion");
    let net = models::figures::fig1();
    let rg = ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)
        .expect("fig1 is safe")
        .into_value();
    println!(
        "  full reachability graph: {} states, {} maximal interleavings (paper: 8 states, 3! = 6)",
        rg.state_count(),
        rg.count_maximal_paths().expect("fig1 is acyclic")
    );
    println!();
}

fn fig2() {
    let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
    println!("Figure 2 — conflict-place explosion: PO vs GPO");
    println!(
        "  {:>3} | {:>10} | {:>12} | {:>4}",
        "N", "full (3^N)", "PO (2^^N+1-1)", "GPO"
    );
    for n in 1..=12usize {
        let net = models::figures::fig2(n);
        let full = if n <= 10 {
            ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)
                .expect("fig2 is safe")
                .into_value()
                .state_count()
                .to_string()
        } else {
            "-".to_string()
        };
        let po = partial_order::explore(&net, &Default::default(), &budget, &ckpt, None)
            .expect("fig2 is safe")
            .into_value()
            .state_count();
        let gpo = analyze::<ZddFamily>(&net, &Default::default(), &budget, &ckpt, None)
            .expect("fig2 is safe")
            .into_value()
            .state_count;
        println!("  {n:>3} | {full:>10} | {po:>12} | {gpo:>4}");
    }
    println!("  (paper §3.1: \"from 2^(N+1) - 1 to only 2 computed states!\")");
    println!();
}

fn fig3() {
    println!("Figure 3 — colored tokens block the extended conflict");
    let net = models::figures::fig3();
    let ctx = ZddFamily::new_context(net.transition_count());
    let s0 = GpnState::<ZddFamily>::initial(&net, &ctx);
    let t = |n: &str| net.transition_by_name(n).expect("transition exists");
    println!("  after firing A and B simultaneously:");
    let s1 = multiple_update(&net, &s0, &[t("A"), t("B")]);
    show_state(&net, &s1);
    println!(
        "  D single-enabled? {} (paper: no — conflicting colors)",
        !s_enabled(&net, &s1, t("D")).is_empty()
    );
    println!(
        "  C single-enabled? {} (paper: yes)",
        !s_enabled(&net, &s1, t("C")).is_empty()
    );
    let s2 = single_update(&net, &s1, t("C"));
    println!("  after firing C (single semantics):");
    show_state(&net, &s2);
    println!();
}

fn fig7() {
    println!("Figure 7 — two maximal conflicting sets fired in succession");
    let net = models::figures::fig7();
    let ctx = ZddFamily::new_context(net.transition_count());
    let s0 = GpnState::<ZddFamily>::initial(&net, &ctx);
    let t = |n: &str| net.transition_by_name(n).expect("transition exists");
    println!("  initial state:");
    show_state(&net, &s0);
    for x in [t("A"), t("B")] {
        println!(
            "    m_enabled({}) = {}",
            net.transition_name(x),
            family_to_string(&net, &m_enabled(&net, &s0, x))
        );
    }
    let s1 = multiple_update(&net, &s0, &[t("A"), t("B")]);
    println!("  after multiple-firing {{A,B}}:");
    show_state(&net, &s1);
    for x in [t("C"), t("D")] {
        println!(
            "    m_enabled({}) = {}",
            net.transition_name(x),
            family_to_string(&net, &m_enabled(&net, &s1, x))
        );
    }
    let s2 = multiple_update(&net, &s1, &[t("C"), t("D")]);
    println!("  after multiple-firing {{C,D}} (note r pruned to {{{{A,C}},{{B,D}}}}):");
    show_state(&net, &s2);
    println!();
}

fn main() {
    fig1();
    fig2();
    fig3();
    fig7();
    println!("All figure claims replayed; exact-marking assertions live in tests/paper_figures.rs");
}
