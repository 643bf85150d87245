//! The Table 1 claims at test-sized instances: exact counts where the
//! paper's numbers are reproduced exactly, shape assertions elsewhere.

use gpo_suite::prelude::*;

/// NSDP full state counts are the Lucas numbers of Table 1 — exact.
#[test]
fn nsdp_full_counts_exact() {
    let expected = [(2usize, 18usize), (4, 322), (6, 5778)];
    for (n, states) in expected {
        let rg = explore_full(&models::nsdp(n)).unwrap();
        assert_eq!(rg.state_count(), states, "NSDP({n})");
        assert!(rg.has_deadlock());
    }
}

/// NSDP(2) partial-order reduction: 12 states — exactly the paper's value.
#[test]
fn nsdp2_po_count_exact() {
    let red = explore_reduced(&models::nsdp(2)).unwrap();
    assert_eq!(red.state_count(), 12);
    assert!(red.has_deadlock());
}

/// NSDP GPO: 3 states at every size, deadlock found.
#[test]
fn nsdp_gpo_three_states() {
    for n in [2usize, 3, 4, 5, 6] {
        let report = analyze_all_with(&models::nsdp(n), &GpoOptions::default()).unwrap();
        assert_eq!(report.state_count, 3, "NSDP({n})");
        assert!(report.deadlock_possible);
    }
}

/// RW: GPO needs exactly 2 states and reports deadlock freedom; the full
/// graph grows exponentially (2^n + n reachable markings).
#[test]
fn rw_gpo_two_states() {
    for n in [3usize, 6, 9] {
        let net = models::readers_writers(n);
        let full = explore_full(&net).unwrap();
        assert_eq!(full.state_count(), (1 << n) + n, "RW({n}) full");
        let report = analyze_all(&net).unwrap();
        assert_eq!(report.state_count, 2, "RW({n}) GPO");
        assert!(!report.deadlock_possible);
    }
}

/// OVER: full graph is 8^n like the paper's ~8.05^n; GPO constant; PO in
/// between and growing.
#[test]
fn over_shape() {
    let mut last_po = 0;
    for n in 1..=4usize {
        let net = models::overtake(n);
        let full = explore_full(&net).unwrap();
        assert_eq!(full.state_count(), 8usize.pow(n as u32));
        let po = explore_reduced(&net).unwrap();
        assert!(po.state_count() > last_po, "PO keeps growing");
        assert!(po.state_count() < full.state_count() || n == 1);
        last_po = po.state_count();
        let gpo = analyze_all(&net).unwrap();
        assert!(
            gpo.state_count <= 5,
            "GPO near-constant, got {}",
            gpo.state_count
        );
    }
}

/// ASAT: GPO grows by a few states per tree level while the full graph
/// roughly squares per doubling.
#[test]
fn asat_shape() {
    let net2 = models::asat(2);
    let net4 = models::asat(4);
    let full2 = explore_full(&net2).unwrap().state_count();
    let full4 = explore_full(&net4).unwrap().state_count();
    assert!(
        full4 > full2 * full2 / 4,
        "full roughly squares: {full2} -> {full4}"
    );
    let gpo2 = analyze_all(&net2).unwrap().state_count;
    let gpo4 = analyze_all(&net4).unwrap().state_count;
    assert!(gpo2 <= 10 && gpo4 <= 16, "GPO stays tiny: {gpo2}, {gpo4}");
    assert!(gpo4 - gpo2 <= 6, "GPO grows by a few states per level");
}

/// The peak-BDD column: the symbolic engine agrees with the explicit count
/// on every benchmark family at small sizes.
#[test]
fn bdd_counts_agree_everywhere() {
    for net in [
        models::nsdp(2),
        models::nsdp(4),
        models::asat(2),
        models::overtake(2),
        models::readers_writers(4),
    ] {
        let full = explore_full(&net).unwrap();
        let sym = explore_symbolic(&net);
        assert_eq!(
            sym.state_count(),
            full.state_count() as f64,
            "{}",
            net.name()
        );
        assert_eq!(sym.has_deadlock(), full.has_deadlock(), "{}", net.name());
        assert!(sym.peak_live_nodes() > 0);
    }
}

/// Every engine returns the same deadlock verdict on every benchmark —
/// the correctness backbone of the whole comparison.
#[test]
fn all_engines_agree_on_all_benchmarks() {
    let nets = [
        models::nsdp(3),
        models::asat(4),
        models::overtake(3),
        models::readers_writers(5),
        models::figures::fig2(5),
        models::figures::fig7(),
    ];
    for net in nets {
        let full = explore_full(&net).unwrap().has_deadlock();
        let po = explore_reduced(&net).unwrap().has_deadlock();
        let bdd = explore_symbolic(&net).has_deadlock();
        let gpo = analyze_all(&net).unwrap().deadlock_possible;
        assert_eq!(full, po, "{}: full vs po", net.name());
        assert_eq!(full, bdd, "{}: full vs bdd", net.name());
        assert_eq!(full, gpo, "{}: full vs gpo", net.name());
    }
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
    analyze_all_with(net, &gpo_core::GpoOptions::default())
}

/// The complete generalized analysis of `net` under `opts`.
fn analyze_all_with(
    net: &petri::PetriNet,
    opts: &gpo_core::GpoOptions,
) -> Result<gpo_core::GpoReport, gpo_core::GpoError> {
    gpo_core::analyze::<gpo_core::ZddFamily>(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}

/// The complete symbolic deadlock search over `net`.
fn explore_symbolic(net: &petri::PetriNet) -> symbolic::SymbolicReachability {
    let deadlock = petri::Property::deadlock()
        .compile(net)
        .expect("deadlock compiles on every net");
    symbolic::SymbolicReachability::explore(
        net,
        &Default::default(),
        &petri::Budget::default(),
        &deadlock,
    )
    .into_value()
}
