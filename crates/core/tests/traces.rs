//! Counterexample traces: the generalized analysis reconstructs classical
//! firing sequences for its deadlock witnesses by projecting the GPN path
//! onto the blocked history. Every trace must replay from the initial
//! marking to the exact witness — verified here on models and random nets.

use gpo_core::GpoOptions;
use models::random::{random_safe_net, RandomNetConfig};
use proptest::prelude::*;

fn replay_check(net: &petri::PetriNet, opts: &GpoOptions) {
    let report = analyze_all_with(net, opts).expect("within limits");
    assert_eq!(
        report.deadlock_traces.len(),
        report.deadlock_witnesses.len(),
        "{}: one trace per witness",
        net.name()
    );
    for (trace, witness) in report
        .deadlock_traces
        .iter()
        .zip(&report.deadlock_witnesses)
    {
        let reached = net
            .fire_sequence(net.initial_marking(), trace.iter().copied())
            .expect("safe")
            .unwrap_or_else(|| panic!("{}: trace not fireable", net.name()));
        assert_eq!(
            &reached,
            witness,
            "{}: trace misses its witness",
            net.name()
        );
        assert!(net.is_dead(&reached));
    }
}

#[test]
fn nsdp_traces_replay() {
    for n in [2usize, 3, 4] {
        replay_check(
            &models::nsdp(n),
            &GpoOptions {
                max_witnesses: 2,
                ..Default::default()
            },
        );
    }
}

#[test]
fn nsdp_trace_is_the_circular_wait() {
    let net = models::nsdp(3);
    let report = analyze_all_with(&net, &GpoOptions::default()).unwrap();
    let trace = &report.deadlock_traces[0];
    // 3 getHungry + 3 same-side grabs
    assert_eq!(trace.len(), 6);
    let names: Vec<&str> = trace.iter().map(|&t| net.transition_name(t)).collect();
    assert_eq!(
        names.iter().filter(|n| n.starts_with("getHungry")).count(),
        3
    );
    let lefts = names.iter().filter(|n| n.starts_with("takeLfirst")).count();
    let rights = names.iter().filter(|n| n.starts_with("takeRfirst")).count();
    assert!(
        lefts == 3 || rights == 3,
        "everyone grabbed the same side: {names:?}"
    );
}

#[test]
fn figure_nets_traces_replay() {
    for net in [
        models::figures::fig2(4),
        models::figures::fig7(),
        models::overtake(3),
        models::asat(4),
    ] {
        replay_check(
            &net,
            &GpoOptions {
                max_witnesses: 3,
                ..Default::default()
            },
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Traces replay on arbitrary safe nets.
    #[test]
    fn random_net_traces_replay(seed in 0u64..100_000) {
        let cfg = RandomNetConfig {
            components: 3,
            places_per_component: 4,
            resources: 2,
            resource_use_prob: 0.4,
            choice_prob: 0.5,
            max_states: 4_000,
        };
        let Some(net) = random_safe_net(seed, &cfg) else { return Ok(()); };
        let Ok(report) = analyze_all_with(&net, &GpoOptions {
            max_witnesses: 3,
            ..Default::default()
        }) else { return Ok(()); };
        for (trace, witness) in report.deadlock_traces.iter().zip(&report.deadlock_witnesses) {
            let reached = net
                .fire_sequence(net.initial_marking(), trace.iter().copied())
                .expect("safe")
                .unwrap_or_else(|| panic!("trace not fireable\n{}", petri::to_text(&net)));
            prop_assert_eq!(&reached, witness, "\n{}", petri::to_text(&net));
            prop_assert!(net.is_dead(&reached));
        }
    }
}

/// The complete generalized analysis of `net` under `opts` on the
/// production representation.
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
