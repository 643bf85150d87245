//! Quickstart: build a small net with the builder API, verify it with all
//! four engines, and print what each one sees.
//!
//! Run with: `cargo run --example quickstart`

use gpo_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
    // A tiny mutual-exclusion net with a twist: two workers share a tool,
    // and each may also break it (a choice) — after which nobody works.
    let mut b = NetBuilder::new("workshop");
    let tool = b.place_marked("tool");
    let broken = b.place("broken");
    let mut idles = Vec::new();
    for w in 0..2 {
        let idle = b.place_marked(format!("idle{w}"));
        let busy = b.place(format!("busy{w}"));
        b.transition(format!("grab{w}"), [idle, tool], [busy]);
        b.transition(format!("drop{w}"), [busy], [idle, tool]);
        b.transition(format!("snap{w}"), [idle, tool], [broken]);
        idles.push(idle);
    }
    let net = b.build()?;
    println!("{net}\n");

    // Engine 1: exhaustive reachability — the ground truth.
    let report = verify(&net, &Default::default(), &budget, &Property::deadlock())?.report;
    println!(
        "exhaustive : {} states, deadlock = {}",
        report.state_count, report.has_deadlock
    );
    if let Some(trace) = &report.deadlock_witness {
        let names: Vec<&str> = trace.iter().map(|&t| net.transition_name(t)).collect();
        println!("             witness trace: {}", names.join(" -> "));
    }

    // Engine 2: stubborn-set partial-order reduction.
    let reduced =
        ReducedReachability::explore(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
    println!(
        "stubborn   : {} states, deadlock = {}",
        reduced.state_count(),
        reduced.has_deadlock()
    );

    // Engine 3: symbolic reachability on a from-scratch BDD engine.
    let symbolic = SymbolicReachability::explore(
        &net,
        &Default::default(),
        &budget,
        &Property::deadlock().compile(&net)?,
    )
    .into_value();
    println!(
        "symbolic   : {} states, {} peak BDD nodes, deadlock = {}",
        symbolic.state_count(),
        symbolic.peak_live_nodes(),
        symbolic.has_deadlock()
    );

    // Engine 4: the paper's generalized partial order analysis.
    let gpo = analyze::<ZddFamily>(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
    println!(
        "generalized: {} GPN states, |r0| = {}, deadlock = {}",
        gpo.state_count, gpo.valid_set_count, gpo.deadlock_possible
    );
    for w in &gpo.deadlock_witnesses {
        println!("             dead marking: {}", net.display_marking(w));
    }

    assert_eq!(report.has_deadlock, gpo.deadlock_possible);
    assert_eq!(report.has_deadlock, reduced.has_deadlock());
    assert_eq!(report.has_deadlock, symbolic.has_deadlock());
    println!("\nall four engines agree.");
    Ok(())
}
