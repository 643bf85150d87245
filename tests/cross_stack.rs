//! Cross-crate integration: the textual format, the CLI-style pipeline
//! (parse → analyze → witness replay), and property tests that tie the
//! layers together on random nets.

use gpo_suite::prelude::*;
use proptest::prelude::*;

/// Serialize every benchmark to the `.net` format and re-verify the parse:
/// all analyses must be invariant under the round trip.
#[test]
fn text_round_trip_preserves_analyses() {
    for net in [
        models::nsdp(3),
        models::asat(2),
        models::overtake(2),
        models::readers_writers(3),
        models::figures::fig7(),
    ] {
        let reparsed = parse_net(&to_text(&net)).unwrap();
        let a = explore_full(&net).unwrap();
        let b = explore_full(&reparsed).unwrap();
        assert_eq!(a.state_count(), b.state_count(), "{}", net.name());
        assert_eq!(a.has_deadlock(), b.has_deadlock());
        let ga = analyze_all(&net).unwrap();
        let gb = analyze_all(&reparsed).unwrap();
        assert_eq!(ga.state_count, gb.state_count);
        assert_eq!(ga.deadlock_possible, gb.deadlock_possible);
    }
}

/// The witness pipeline: GPO reports a dead marking; replaying a shortest
/// path to it in the exhaustive graph confirms it end to end.
#[test]
fn witnesses_replay_end_to_end() {
    let net = models::nsdp(4);
    let report = analyze_all_with(
        &net,
        &GpoOptions {
            max_witnesses: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.deadlock_possible);
    let rg = explore_full(&net).unwrap();
    for w in &report.deadlock_witnesses {
        let sid = rg.find(w).expect("witness reachable");
        let path = rg.path_to(sid).expect("path exists");
        let replayed = net
            .fire_sequence(net.initial_marking(), path)
            .unwrap()
            .expect("path replays");
        assert_eq!(&replayed, w);
        assert!(net.is_dead(&replayed));
    }
}

/// DOT output of nets and reachability graphs stays well-formed across the
/// benchmark suite (sanity for tooling users).
#[test]
fn dot_outputs_are_well_formed() {
    for net in [models::nsdp(2), models::figures::fig3()] {
        let d = petri::net_to_dot(&net);
        assert!(d.starts_with("digraph"));
        assert!(d.ends_with("}\n"));
        assert_eq!(d.matches("->").count(), net.arc_count());
        let rg = explore_full(&net).unwrap();
        let rd = petri::reachability_to_dot(&net, &rg);
        assert!(rd.starts_with("digraph"));
        assert!(rd.contains("penwidth=2"), "initial highlighted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full four-way engine agreement on random safe nets — the strongest
    /// integration property the repository offers.
    #[test]
    fn four_engines_agree_on_random_nets(seed in 0u64..100_000) {
        let cfg = models::random::RandomNetConfig {
            components: 3,
            places_per_component: 3,
            resources: 1,
            resource_use_prob: 0.4,
            choice_prob: 0.5,
            max_states: 3_000,
        };
        let Some(net) = models::random::random_safe_net(seed, &cfg) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        let po = explore_reduced(&net).expect("validated safe");
        let bdd = explore_symbolic(&net);
        let Ok(gpo) = analyze_all_with(&net, &GpoOptions::default()) else { return Ok(()); };
        prop_assert_eq!(po.has_deadlock(), full.has_deadlock(), "po\n{}", to_text(&net));
        prop_assert_eq!(bdd.has_deadlock(), full.has_deadlock(), "bdd\n{}", to_text(&net));
        prop_assert_eq!(gpo.deadlock_possible, full.has_deadlock(), "gpo\n{}", to_text(&net));
        prop_assert_eq!(bdd.state_count(), full.state_count() as f64, "bdd count");
        prop_assert!(po.state_count() <= full.state_count());
    }

    /// Round-tripping random nets through the text format preserves the
    /// exact structure.
    #[test]
    fn random_net_text_round_trip(seed in 0u64..100_000) {
        let cfg = models::random::RandomNetConfig::default();
        let net = models::random::random_net(seed, &cfg);
        let text = to_text(&net);
        let reparsed = parse_net(&text).expect("own output parses");
        prop_assert_eq!(to_text(&reparsed), text);
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
