//! Engine shootout on a user-supplied `.net` file (or a built-in model):
//! runs all four engines, times them, and cross-checks the verdicts —
//! the downstream-user workflow this library is built for.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example engine_shootout             # readers-writers demo
//! cargo run --release --example engine_shootout -- my.net   # your own net
//! ```

use std::time::Instant;

use gpo_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
    let net = match std::env::args().nth(1) {
        Some(path) => parse_net(&std::fs::read_to_string(&path)?)?,
        None => models::readers_writers(10),
    };
    println!(
        "net `{}`: {} places, {} transitions\n",
        net.name(),
        net.place_count(),
        net.transition_count()
    );

    let t0 = Instant::now();
    let full =
        ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
    let t_full = t0.elapsed();

    let t0 = Instant::now();
    let po = partial_order::explore(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
    let t_po = t0.elapsed();

    let t0 = Instant::now();
    let bdd = SymbolicReachability::explore(
        &net,
        &Default::default(),
        &budget,
        &Property::deadlock().compile(&net)?,
    )
    .into_value();
    let t_bdd = t0.elapsed();

    let t0 = Instant::now();
    let gpo =
        analyze::<ZddFamily>(&net, &GpoOptions::default(), &budget, &ckpt, None)?.into_value();
    let t_gpo = t0.elapsed();

    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "engine", "states", "aux", "time"
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10.3?}",
        "exhaustive",
        full.state_count(),
        "-",
        t_full
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10.3?}",
        "stubborn",
        po.state_count(),
        "-",
        t_po
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10.3?}",
        "bdd",
        bdd.state_count(),
        format!("{} nodes", bdd.peak_live_nodes()),
        t_bdd
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10.3?}",
        "generalized",
        gpo.state_count,
        format!("|r0|={}", gpo.valid_set_count),
        t_gpo
    );

    let verdicts = [
        full.has_deadlock(),
        po.has_deadlock(),
        bdd.has_deadlock(),
        gpo.deadlock_possible,
    ];
    println!(
        "\nverdict: {}",
        if verdicts[0] {
            "DEADLOCK possible"
        } else {
            "deadlock-free"
        }
    );
    assert!(
        verdicts.windows(2).all(|w| w[0] == w[1]),
        "engines disagree: {verdicts:?}"
    );
    println!("all four engines agree.");
    Ok(())
}
