//! Determinism contract of the parallel GPO analysis (the concurrent-ZDD
//! refactor's acceptance criterion): for every bundled model, both family
//! representations, and every thread count, `analyze` reports the
//! same GPN state count, the same verdict, the same valid-set relation
//! size, the same witness markings, and the same work counters — and
//! every reported trace still replays to its witness. At each thread
//! count the two representations also report the same traces.

use gpo_core::ExplicitFamily;
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

fn opts(threads: usize) -> GpoOptions {
    GpoOptions {
        max_witnesses: 2,
        threads,
        ..Default::default()
    }
}

/// The work scalars of a report. With the witness markings
/// (`observe_repr`) they must match across thread counts; with the traces
/// as well (`observe_traces`) they must match across representations at
/// each thread count.
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

/// The observation compared across thread counts: the scalars plus the
/// exact witness markings.
fn observe_repr(report: &GpoReport) -> (Scalars, Vec<Marking>) {
    (observe(report), report.deadlock_witnesses.clone())
}

/// The observation compared across representations: everything above
/// plus the traces.
fn observe_traces(report: &GpoReport) -> ((Scalars, Vec<Marking>), Vec<Vec<TransitionId>>) {
    (observe_repr(report), report.deadlock_traces.clone())
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
        let mut serial = None;
        for threads in THREADS {
            let tag = format!("{name} threads={threads}");
            let e = analyze_all_with::<ExplicitFamily>(&net, &opts(threads)).unwrap();
            let z = analyze_all_with::<ZddFamily>(&net, &opts(threads)).unwrap();
            replay(&net, &e, &format!("{tag} explicit"));
            replay(&net, &z, &format!("{tag} zdd"));
            assert_eq!(
                observe_traces(&e),
                observe_traces(&z),
                "{tag}: the representations diverge"
            );
            let obs = observe_repr(&z);
            match &serial {
                None => serial = Some(obs),
                Some(b) => assert_eq!(&obs, b, "{tag} diverges from serial"),
            }
        }
    }
}

#[test]
fn zdd_counters_live_only_on_zdd_runs() {
    let net = models::nsdp(4);
    for threads in THREADS {
        let z = analyze_all_with::<ZddFamily>(&net, &opts(threads)).unwrap();
        assert!(z.zdd_nodes_allocated > 0, "threads={threads}");
        assert!(z.unique_hits > 0, "threads={threads}");
        let e = analyze_all_with::<ExplicitFamily>(&net, &opts(threads)).unwrap();
        assert_eq!(e.zdd_nodes_allocated, 0, "threads={threads}");
    }
}

/// A capped run counts the same bytes at every thread count: the frontier
/// loop adds its per-state and per-edge overheads at one thread too, so
/// `--mem-limit` trips at the same point.
#[test]
fn capped_runs_count_the_same_bytes_at_every_thread_count() {
    fn check<F: SetFamily>(net: &PetriNet) {
        let bytes: Vec<usize> = [1, 2]
            .into_iter()
            .map(|threads| {
                gpo_core::analyze::<F>(
                    net,
                    &opts(threads),
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
        assert_eq!(bytes[0], bytes[1], "{}", std::any::type_name::<F>());
    }
    let net = models::nsdp(4);
    check::<ExplicitFamily>(&net);
    check::<ZddFamily>(&net);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random safe nets: the parallel analysis agrees with the serial one,
    /// and the two representations agree with each other.
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
        let mut serial = None;
        for threads in [1usize, 2] {
            let (Ok(e), Ok(z)) = (
                analyze_all_with::<ExplicitFamily>(&net, &opts(threads)),
                analyze_all_with::<ZddFamily>(&net, &opts(threads)),
            ) else { return Ok(()); };
            prop_assert_eq!(
                observe_traces(&e), observe_traces(&z),
                "representations: threads={}\n{}", threads, petri::to_text(&net)
            );
            let obs = observe_repr(&z);
            match &serial {
                None => serial = Some(obs),
                Some(b) => prop_assert_eq!(
                    &obs, b,
                    "witnesses: threads={}\n{}", threads, petri::to_text(&net)
                ),
            }
        }
    }
}

/// The complete generalized analysis of `net` under `opts` on families of
/// representation `F`.
fn analyze_all_with<F: SetFamily>(
    net: &petri::PetriNet,
    opts: &gpo_core::GpoOptions,
) -> Result<gpo_core::GpoReport, gpo_core::GpoError> {
    gpo_core::analyze::<F>(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
