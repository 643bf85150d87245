//! Determinism contract of the parallel GPO analysis (the concurrent-ZDD
//! refactor's acceptance criterion): for every bundled model, both family
//! representations, and every thread count, `analyze` reports the
//! same GPN state count, the same verdict, the same valid-set relation
//! size, the same witness markings, and the same work counters — and
//! every reported trace still replays to its witness.

use gpo_suite::prelude::*;
use models::random::{random_safe_net, RandomNetConfig};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

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

fn opts(representation: Representation, threads: usize) -> GpoOptions {
    GpoOptions {
        valid_set_limit: 1 << 22,
        max_witnesses: 2,
        representation,
        threads,
        ..Default::default()
    }
}

/// The observation compared across *representations*: order-independent
/// scalars only. Witness markings are representation-specific (each
/// family enumerates its blocked histories in its own canonical order)
/// but must be identical across thread counts within one representation,
/// which `observe_repr` adds on top.
type Scalars = (usize, bool, u64, usize, usize, usize, usize);

fn observe(report: &GpoReport) -> Scalars {
    (
        report.state_count,
        report.deadlock_possible,
        report.valid_set_count,
        report.multiple_firings,
        report.single_firings,
        report.enabling_computed,
        report.enabling_reused,
    )
}

/// The observation compared across thread counts within one
/// representation: the scalars plus the exact witness markings.
fn observe_repr(report: &GpoReport) -> (Scalars, Vec<Marking>) {
    (observe(report), report.deadlock_witnesses.clone())
}

fn replay(net: &PetriNet, report: &GpoReport, tag: &str) {
    assert_eq!(
        report.deadlock_traces.len(),
        report.deadlock_witnesses.len(),
        "{tag}: one trace per witness"
    );
    for (trace, witness) in report
        .deadlock_traces
        .iter()
        .zip(&report.deadlock_witnesses)
    {
        let reached = net
            .fire_sequence(net.initial_marking(), trace.iter().copied())
            .expect("safe")
            .unwrap_or_else(|| panic!("{tag}: trace not fireable"));
        assert_eq!(&reached, witness, "{tag}: trace misses its witness");
        assert!(net.is_dead(&reached), "{tag}: witness not dead");
    }
}

#[test]
fn analysis_identical_across_thread_counts_and_representations() {
    for (name, net) in model_zoo() {
        let mut scalar_baseline = None;
        for representation in [Representation::Explicit, Representation::Zdd] {
            let mut repr_baseline = None;
            for threads in THREADS {
                let tag = format!("{name} {representation:?} threads={threads}");
                let report = analyze_all_with(&net, &opts(representation, threads)).unwrap();
                replay(&net, &report, &tag);
                let obs = observe_repr(&report);
                match &scalar_baseline {
                    None => scalar_baseline = Some(obs.0),
                    Some(b) => assert_eq!(&obs.0, b, "{tag} diverges from serial explicit"),
                }
                match &repr_baseline {
                    None => repr_baseline = Some(obs),
                    Some(b) => assert_eq!(&obs, b, "{tag} witnesses diverge from serial"),
                }
            }
        }
    }
}

#[test]
fn zdd_counters_live_only_on_zdd_runs() {
    let net = models::nsdp(4);
    for threads in THREADS {
        let z = analyze_all_with(&net, &opts(Representation::Zdd, threads)).unwrap();
        assert!(z.zdd_nodes_allocated > 0, "threads={threads}");
        assert!(z.unique_hits > 0, "threads={threads}");
        let e = analyze_all_with(&net, &opts(Representation::Explicit, threads)).unwrap();
        assert_eq!(e.zdd_nodes_allocated, 0, "threads={threads}");
    }
}

/// A capped run counts the same bytes at every thread count: the frontier
/// loop adds its per-state and per-edge overheads at one thread too, so
/// `--mem-limit` trips at the same point.
#[test]
fn capped_runs_count_the_same_bytes_at_every_thread_count() {
    let net = models::nsdp(4);
    for representation in [Representation::Explicit, Representation::Zdd] {
        let bytes: Vec<usize> = [1, 2]
            .into_iter()
            .map(|threads| {
                gpo_core::analyze(
                    &net,
                    &opts(representation, threads),
                    &petri::Budget::default().cap_states(2),
                    &petri::CheckpointConfig::default(),
                    None,
                )
                .unwrap()
                .coverage()
                .expect("the cap stops the run")
                .bytes_estimate
            })
            .collect();
        assert_eq!(bytes[0], bytes[1], "{representation:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random safe nets: the parallel analysis agrees with the serial one
    /// under both representations.
    #[test]
    fn random_nets_agree_across_threads(seed in 0u64..100_000) {
        let cfg = RandomNetConfig {
            components: 3,
            places_per_component: 4,
            resources: 2,
            resource_use_prob: 0.4,
            choice_prob: 0.5,
            max_states: 4_000,
        };
        let Some(net) = random_safe_net(seed, &cfg) else { return Ok(()); };
        let mut scalar_baseline = None;
        for representation in [Representation::Explicit, Representation::Zdd] {
            let mut repr_baseline = None;
            for threads in [1usize, 2] {
                let mut o = opts(representation, threads);
                o.valid_set_limit = 1 << 16;
                let Ok(report) = analyze_all_with(&net, &o) else { return Ok(()); };
                let obs = observe_repr(&report);
                match &scalar_baseline {
                    None => scalar_baseline = Some(obs.0),
                    Some(b) => prop_assert_eq!(
                        &obs.0, b,
                        "{:?} threads={}\n{}", representation, threads, petri::to_text(&net)
                    ),
                }
                match &repr_baseline {
                    None => repr_baseline = Some(obs),
                    Some(b) => prop_assert_eq!(
                        &obs, b,
                        "witnesses: {:?} threads={}\n{}", representation, threads, petri::to_text(&net)
                    ),
                }
            }
        }
    }
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
