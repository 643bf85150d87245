//! The whole zoo on one net: exhaustive exploration, stubborn-set
//! reduction, BDD reachability, the paper's generalized analysis, a
//! McMillan unfolding prefix, and a timed variant of the same system —
//! each attacking state explosion from a different angle.
//!
//! Run with: `cargo run --release --example technique_zoo`

use gpo_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
    // the paper's Figure 2 with N = 6: six concurrently marked choices
    let n = 6;
    let net = models::figures::fig2(n);
    println!(
        "net: {} ({} places, {} transitions)\n",
        net.name(),
        net.place_count(),
        net.transition_count()
    );

    let full =
        ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
    println!(
        "exhaustive graph      : {:>6} states   (3^{n})",
        full.state_count()
    );

    let po = partial_order::explore(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
    println!(
        "stubborn reduction    : {:>6} states   (2^(N+1)-1 — choices survive)",
        po.state_count()
    );

    let bdd = SymbolicReachability::explore(
        &net,
        &Default::default(),
        &budget,
        &Property::deadlock().compile(&net)?,
    )
    .into_value();
    println!(
        "BDD reachability      : {:>6} states   ({} peak nodes)",
        bdd.state_count(),
        bdd.peak_live_nodes()
    );

    let gpo = analyze::<ZddFamily>(&net, &Default::default(), &budget, &ckpt, None)?.into_value();
    println!(
        "generalized analysis  : {:>6} states   (all choices fired at once)",
        gpo.state_count
    );

    let unf = Unfolding::build(&net, &budget).into_value();
    println!(
        "unfolding prefix      : {:>6} events   ({} conditions — branches side by side)",
        unf.prefix().event_count(),
        unf.prefix().condition_count()
    );

    // now give each choice a timing: A_i wins its race when its window
    // closes before B_i's opens
    let mut timed = TimedNet::new(net.clone());
    for i in 0..n {
        let a = net.transition_by_name(&format!("A{i}")).expect("exists");
        let b = net.transition_by_name(&format!("B{i}")).expect("exists");
        timed = timed
            .with_interval(a, Interval::new(0, 1))
            .with_interval(b, Interval::new(3, 4));
    }
    let classes = ClassGraph::explore(&timed, &Default::default())?;
    println!(
        "timed class graph     : {:>6} classes  (every race decided by time)",
        classes.class_count()
    );

    // timing resolves all n binary choices: the B side never fires, so the
    // reachable markings are exactly the 2^n subsets of fired A's
    assert_eq!(classes.reachable_markings().len(), 1 << n);
    for i in 0..n {
        let b = net.transition_by_name(&format!("B{i}")).expect("exists");
        assert!(
            classes.edges().iter().all(|&(_, t, _)| t != b),
            "B{i} should lose every race"
        );
    }
    assert_eq!(gpo.state_count, 2);
    println!("\nsix techniques, one net — and the deadlock verdict agrees everywhere:");
    let verdicts = [
        full.has_deadlock(),
        po.has_deadlock(),
        bdd.has_deadlock(),
        gpo.deadlock_possible,
        unf.has_deadlock(&net, &budget).into_value(),
        classes.has_deadlock(),
    ];
    println!("  {verdicts:?}");
    assert!(verdicts.iter().all(|&v| v == verdicts[0]));
    Ok(())
}
