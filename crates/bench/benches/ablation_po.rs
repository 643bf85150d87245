//! Ablation B (DESIGN.md): stubborn-set seed strategies — first-enabled
//! (cheapest), best-of-enabled (strongest classical reduction) and the
//! paper's conflict-cluster anticipation seeding (§2.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use partial_order::{ReducedOptions, SeedStrategy};
use petri::{Budget, CheckpointConfig};

fn bench_po_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/po");
    group.sample_size(10);
    for (label, net) in [
        ("nsdp_4", models::nsdp(4)),
        ("asat_4", models::asat(4)),
        ("over_4", models::overtake(4)),
        ("fig2_8", models::figures::fig2(8)),
    ] {
        for (name, strategy) in [
            ("first", SeedStrategy::FirstEnabled),
            ("best", SeedStrategy::BestOfEnabled),
            ("cluster", SeedStrategy::ConflictCluster),
        ] {
            let opts = ReducedOptions {
                strategy,
                // serial: the ablation isolates the strategy, not scaling
                threads: 1,
                visible: None,
            };
            group.bench_with_input(BenchmarkId::new(name, label), &net, |b, net| {
                b.iter(|| {
                    partial_order::explore(
                        net,
                        &opts,
                        &Budget::default(),
                        &CheckpointConfig::default(),
                        None,
                    )
                    .expect("safe net")
                    .into_value()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_po_strategies);
criterion_main!(benches);
