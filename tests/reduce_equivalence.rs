//! Equivalence contract of the structural reduction pre-pass: for every
//! bundled model and every engine, verifying the reduced net yields the
//! same deadlock verdict as verifying the original, every witness trace
//! found on the reduced net lifts to a replayable trace of the original,
//! and the reduction is a fixpoint. A strict-decrease check pins the
//! point of the pre-pass: on the reducible zoo nets every engine stores
//! fewer states after reduction.

use gpo_suite::prelude::*;
use models::random::{random_safe_net, RandomNetConfig};
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 8];
const ENGINES: [&str; 5] = ["full", "po", "gpo", "bdd", "unfold"];

/// Small instances of every bundled model with interesting structure.
fn model_zoo() -> Vec<(String, PetriNet)> {
    vec![
        ("fig2(4)".into(), models::figures::fig2(4)),
        ("fig7".into(), models::figures::fig7()),
        ("nsdp(4)".into(), models::nsdp(4)),
        ("readers_writers(4)".into(), models::readers_writers(4)),
        ("overtake(3)".into(), models::overtake(3)),
        ("asat(4)".into(), models::asat(4)),
        ("scheduler(4)".into(), models::scheduler(4)),
    ]
}

/// What one engine run observes: the deadlock verdict, a size measure of
/// what it stored (states, prefix events, …), and a witness trace when
/// the engine produces one.
struct EngineRun {
    deadlock: bool,
    stored: f64,
    trace: Option<Vec<TransitionId>>,
}

fn run_engine(engine: &str, net: &PetriNet, threads: usize) -> EngineRun {
    match engine {
        "full" => {
            let opts = ExploreOptions {
                record_edges: true,
                threads,
            };
            let rg = explore_full_with(net, &opts).unwrap();
            EngineRun {
                deadlock: rg.has_deadlock(),
                stored: rg.state_count() as f64,
                trace: rg.deadlocks().first().and_then(|&d| rg.path_to(d)),
            }
        }
        "po" => {
            let opts = ReducedOptions {
                strategy: SeedStrategy::BestOfEnabled,
                threads,
                ..Default::default()
            };
            let red = explore_reduced_with(net, &opts).unwrap();
            EngineRun {
                deadlock: red.has_deadlock(),
                stored: red.state_count() as f64,
                trace: None, // the po engine stores markings only
            }
        }
        "gpo" => {
            let opts = GpoOptions {
                max_witnesses: 1,
                threads,
                ..Default::default()
            };
            let report = analyze_all_with(net, &opts).unwrap();
            EngineRun {
                deadlock: report.deadlock_possible,
                stored: report.state_count as f64,
                trace: report.deadlock_traces.first().cloned(),
            }
        }
        "bdd" => {
            let sym = explore_symbolic_with(net, &SymbolicOptions::default());
            EngineRun {
                deadlock: sym.has_deadlock(),
                stored: sym.state_count(),
                trace: None,
            }
        }
        "unfold" => {
            let unf = Unfolding::build(net, &Budget::default()).into_value();
            EngineRun {
                deadlock: unf.has_deadlock(net, &Budget::default()).into_value(),
                stored: unf.prefix().event_count() as f64,
                trace: None,
            }
        }
        other => panic!("unknown engine {other}"),
    }
}

/// Lifts a reduced-net trace and checks it reaches a dead marking of the
/// original net.
fn assert_trace_lifts(
    original: &PetriNet,
    reduction: &Reduction,
    trace: &[TransitionId],
    tag: &str,
) {
    let lifted = reduction
        .map
        .lift_trace(trace)
        .expect("safe")
        .unwrap_or_else(|| panic!("{tag}: reduced witness does not lift"));
    let reached = original
        .fire_sequence(original.initial_marking(), lifted.iter().copied())
        .expect("safe")
        .unwrap_or_else(|| panic!("{tag}: lifted witness not fireable on the original"));
    assert!(
        original.is_dead(&reached),
        "{tag}: lifted witness does not reach a dead marking"
    );
}

#[test]
fn zoo_verdicts_survive_reduction_for_every_engine_and_thread_count() {
    for (name, net) in model_zoo() {
        let reduction = reduce(&net, &ReduceOptions::default()).unwrap();

        // the pass is a fixpoint: reducing the reduced net is a noop
        let again = reduce(&reduction.net, &ReduceOptions::default()).unwrap();
        assert!(again.report.is_noop(), "{name}: reduction not a fixpoint");

        for engine in ENGINES {
            for &threads in &THREADS {
                let tag = format!("{name} {engine} threads={threads}");
                let plain = run_engine(engine, &net, threads);
                let reduced = run_engine(engine, &reduction.net, threads);
                assert_eq!(
                    plain.deadlock, reduced.deadlock,
                    "{tag}: verdict changed under reduction"
                );
                if let Some(trace) = &reduced.trace {
                    assert_trace_lifts(&net, &reduction, trace, &tag);
                }
                // threads only shape full/po/gpo; one pass suffices for the rest
                if matches!(engine, "bdd" | "unfold") {
                    break;
                }
            }
        }
    }
}

#[test]
fn reduction_strictly_shrinks_stored_states_on_reducible_zoo_nets() {
    // each of these nets loses places *and* transitions under the default
    // rules, and every engine demonstrably stores less afterwards
    let reducible: Vec<(String, PetriNet)> = vec![
        ("nsdp(4)".into(), models::nsdp(4)),
        ("overtake(3)".into(), models::overtake(3)),
        ("asat(4)".into(), models::asat(4)),
        ("scheduler(4)".into(), models::scheduler(4)),
    ];
    for (name, net) in reducible {
        let reduction = reduce(&net, &ReduceOptions::default()).unwrap();
        assert!(
            !reduction.report.is_noop(),
            "{name}: expected the net to reduce"
        );
        for engine in ENGINES {
            let tag = format!("{name} {engine}");
            let plain = run_engine(engine, &net, 1);
            let reduced = run_engine(engine, &reduction.net, 1);
            assert!(
                reduced.stored < plain.stored,
                "{tag}: stored states did not decrease ({} -> {})",
                plain.stored,
                reduced.stored
            );
            assert_eq!(plain.deadlock, reduced.deadlock, "{tag}: verdict changed");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random safe nets: reduction preserves the exhaustive deadlock
    /// verdict, lifts witnesses to replayable original traces, and is
    /// idempotent.
    #[test]
    fn random_nets_verdicts_survive_reduction(seed in 0u64..100_000) {
        let cfg = RandomNetConfig {
            components: 3,
            places_per_component: 4,
            resources: 2,
            resource_use_prob: 0.4,
            choice_prob: 0.5,
            max_states: 4_000,
        };
        let Some(net) = random_safe_net(seed, &cfg) else { return Ok(()); };
        let reduction = reduce(&net, &ReduceOptions::default()).unwrap();
        let again = reduce(&reduction.net, &ReduceOptions::default()).unwrap();
        prop_assert!(again.report.is_noop(), "not a fixpoint\n{}", to_text(&net));

        let plain = explore_full(&net).unwrap();
        let reduced = explore_full(&reduction.net).unwrap();
        prop_assert_eq!(
            plain.has_deadlock(),
            reduced.has_deadlock(),
            "verdict changed\n{}",
            to_text(&net)
        );
        if let Some(&d) = reduced.deadlocks().first() {
            let trace = reduced.path_to(d).expect("edges recorded");
            let lifted = reduction.map.lift_trace(&trace).expect("safe");
            prop_assert!(lifted.is_some(), "witness does not lift\n{}", to_text(&net));
            let reached = net
                .fire_sequence(net.initial_marking(), lifted.unwrap().iter().copied())
                .expect("safe")
                .expect("lifted witness fireable");
            prop_assert!(net.is_dead(&reached), "not dead\n{}", to_text(&net));
        }
    }
}

/// The complete reachability graph of `net`.
fn explore_full(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    explore_full_with(net, &petri::ExploreOptions::default())
}

/// The complete reachability graph of `net` under `opts`.
fn explore_full_with(
    net: &petri::PetriNet,
    opts: &petri::ExploreOptions,
) -> Result<petri::ReachabilityGraph, petri::NetError> {
    petri::ReachabilityGraph::explore(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}

/// The complete stubborn-set reduced graph of `net` under `opts`.
fn explore_reduced_with(
    net: &petri::PetriNet,
    opts: &partial_order::ReducedOptions,
) -> Result<partial_order::ReducedReachability, petri::NetError> {
    partial_order::ReducedReachability::explore(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
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

/// The complete symbolic deadlock search over `net` under `opts`.
fn explore_symbolic_with(
    net: &petri::PetriNet,
    opts: &symbolic::SymbolicOptions,
) -> symbolic::SymbolicReachability {
    symbolic::SymbolicReachability::explore(
        net,
        opts,
        &petri::Budget::default(),
        &deadlock_goal(net),
    )
    .into_value()
}

/// The compiled default property, `EF deadlock`.
fn deadlock_goal(net: &petri::PetriNet) -> petri::CompiledProperty {
    petri::Property::deadlock()
        .compile(net)
        .expect("deadlock compiles on every net")
}
