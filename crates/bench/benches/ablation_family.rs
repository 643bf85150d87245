//! Ablation A (DESIGN.md): explicit sorted-vector families vs ZDD-backed
//! families inside the generalized analysis. The explicit representation
//! enumerates the valid-set product; the ZDD builds it as a join and
//! shares sub-structure, which dominates once |r₀| explodes (NSDP rings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpo_core::{analyze, ExplicitFamily, GpoOptions, SetFamily, ZddFamily};
use petri::{Budget, CheckpointConfig, PetriNet};

/// The GPN state count of a complete analysis on families of type `F`.
fn run<F: SetFamily>(net: &PetriNet) -> usize {
    analyze::<F>(
        net,
        &GpoOptions::default(),
        &Budget::default(),
        &CheckpointConfig::default(),
        None,
    )
    .expect("the ablation nets analyze")
    .into_value()
    .state_count
}

fn bench_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/family");
    group.sample_size(10);
    for (label, net) in [
        ("fig2_10", models::figures::fig2(10)),
        ("nsdp_4", models::nsdp(4)),
        ("nsdp_6", models::nsdp(6)),
        ("rw_9", models::readers_writers(9)),
    ] {
        group.bench_with_input(BenchmarkId::new("explicit", label), &net, |b, net| {
            b.iter(|| run::<ExplicitFamily>(net))
        });
        group.bench_with_input(BenchmarkId::new("zdd", label), &net, |b, net| {
            b.iter(|| run::<ZddFamily>(net))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_family);
criterion_main!(benches);
