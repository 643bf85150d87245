//! Ablation C (DESIGN.md): BDD variable ordering. Both orders rank the
//! places by the same structural rank, and each transition's relation
//! spans its own places only. Interleaved, a place's current and next
//! variables are neighbours, so a relation is a short chain and the
//! next → current rename keeps the order. All-current-then-all-next puts
//! |P| variables between them: relations span the whole order, and every
//! rename lifts next variables above current ones, rebuilding each node
//! it touches through ITE — the effect §2.4 alludes to when noting that
//! symbolic analysis lives or dies by the encoding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use petri::{Budget, Property};
use symbolic::{SymbolicOptions, SymbolicReachability, VariableOrder};

fn bench_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/bdd_order");
    group.sample_size(10);
    // the bad order blows up combinatorially (that is the finding); keep
    // the instances small enough that a single iteration stays sub-second
    for (label, net) in [
        ("nsdp_2", models::nsdp(2)),
        ("rw_4", models::readers_writers(4)),
        ("over_2", models::overtake(2)),
    ] {
        for (name, order) in [
            ("interleaved", VariableOrder::Interleaved),
            ("cur_then_next", VariableOrder::CurrentThenNext),
        ] {
            let opts = SymbolicOptions { order };
            group.bench_with_input(BenchmarkId::new(name, label), &net, |b, net| {
                let deadlock = Property::deadlock().compile(net).expect("always compiles");
                b.iter(|| SymbolicReachability::explore(net, &opts, &Budget::default(), &deadlock))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_orders);
criterion_main!(benches);
