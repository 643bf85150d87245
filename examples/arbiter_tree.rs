//! Asynchronous arbiter tree (ASAT): verify mutual exclusion and
//! termination of a tournament arbitration round, and show how the four
//! engines scale on a net that mixes deep concurrency (users act in
//! parallel) with choices (each cell latches one child).
//!
//! Run with: `cargo run --release --example arbiter_tree [-- n]`

use gpo_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(8);
    assert!(
        n.is_power_of_two() && n >= 2,
        "n must be a power of two >= 2"
    );

    println!("asynchronous arbiter tree, users = 2..={n}\n");
    println!(
        "{:>3} | {:>12} | {:>10} | {:>10} | {:>12}",
        "n", "full states", "PO states", "GPN states", "|r0|"
    );
    let mut k = 2;
    while k <= n {
        let net = models::asat(k);
        let full = ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)?
            .into_value();
        let po = ReducedReachability::explore(&net, &Default::default(), &budget, &ckpt, None)?
            .into_value();
        let gpo =
            analyze::<ZddFamily>(&net, &GpoOptions::default(), &budget, &ckpt, None)?.into_value();
        println!(
            "{k:>3} | {:>12} | {:>10} | {:>10} | {:>12}",
            full.state_count(),
            po.state_count(),
            gpo.state_count,
            gpo.valid_set_count
        );

        // safety property: never two users in the critical section —
        // checked on the exhaustive graph
        let using: Vec<PlaceId> = (0..k)
            .map(|u| {
                net.place_by_name(&format!("using{u}"))
                    .expect("place exists")
            })
            .collect();
        for s in full.states() {
            let m = full.marking(s);
            let inside = using.iter().filter(|&&p| m.is_marked(p)).count();
            assert!(inside <= 1, "mutual exclusion violated");
        }
        k *= 2;
    }

    println!("\nmutual exclusion holds at every size; the generalized analysis");
    println!("needs a handful of GPN states (one per protocol phase) while the");
    println!("full graph squares with every doubling of the tree.");
    Ok(())
}
