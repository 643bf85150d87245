//! Overtake protocol (OVER): a convoy where every car resolves two
//! visible choices. Shows the paper's point that *choices* — unlike pure
//! concurrency — survive classical partial-order reduction: the reduced
//! graph keeps growing geometrically while the generalized analysis stays
//! flat.
//!
//! Run with: `cargo run --release --example overtake_protocol [-- n]`

use gpo_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(6);

    println!("overtake protocol, cars = 1..={n}\n");
    println!(
        "{:>3} | {:>12} | {:>10} | {:>10} | outcomes",
        "n", "full (8^n)", "PO states", "GPN states"
    );
    for k in 1..=n {
        let net = models::overtake(k);
        let full = ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)?
            .into_value();
        let po =
            partial_order::explore(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
        let gpo =
            analyze::<ZddFamily>(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
        // terminal states = one of 3 resolved outcomes per car
        let outcomes = full.deadlocks().len();
        println!(
            "{k:>3} | {:>12} | {:>10} | {:>10} | {outcomes} (= 3^{k})",
            full.state_count(),
            po.state_count(),
            gpo.state_count,
        );
        assert_eq!(full.state_count(), 8usize.pow(k as u32));
        assert_eq!(outcomes, 3usize.pow(k as u32));
    }

    // replay one concrete maneuver on the smallest instance
    let net = models::overtake(1);
    let seq: Vec<TransitionId> = [
        "signalOut1",
        "approach1",
        "accept1",
        "enterLane1",
        "passQuick1",
    ]
    .iter()
    .map(|s| net.transition_by_name(s).expect("transition exists"))
    .collect();
    let m = net
        .fire_sequence(net.initial_marking(), seq)?
        .expect("the maneuver fires in order");
    println!(
        "\none resolved maneuver ends in {}",
        net.display_marking(&m)
    );
    println!("\nPO reduction cannot merge the 3^n resolved outcomes (they are");
    println!("distinct markings); the generalized analysis runs all cars'");
    println!("stages simultaneously and stays constant-size.");
    Ok(())
}
