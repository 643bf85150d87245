//! Extension benches (beyond the paper's evaluation):
//!
//! * Milner's cyclic scheduler — the pure-concurrency stress case where
//!   both stubborn sets and the generalized analysis collapse an ~n·2ⁿ
//!   graph to linear size;
//! * McMillan unfolding prefixes vs. explicit graphs on the conflict and
//!   concurrency benchmarks;
//! * Time Petri net state-class graphs with untimed intervals (the timed
//!   substrate at its reachability-equivalent baseline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpo_bench::{run_full, run_gpo, run_po, RowBudgets};
use petri::Budget;
use timed::{ClassGraph, TimedNet};
use unfolding::Unfolding;

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("extension/scheduler");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let net = models::scheduler(n);
        group.bench_with_input(BenchmarkId::new("full", n), &net, |b, net| {
            b.iter(|| run_full(net, usize::MAX))
        });
        group.bench_with_input(BenchmarkId::new("po", n), &net, |b, net| {
            b.iter(|| run_po(net, usize::MAX))
        });
        let budgets = RowBudgets::default();
        group.bench_with_input(BenchmarkId::new("gpo", n), &net, |b, net| {
            b.iter(|| run_gpo(net, &budgets))
        });
    }
    group.finish();
}

fn bench_unfolding(c: &mut Criterion) {
    let mut group = c.benchmark_group("extension/unfolding");
    group.sample_size(10);
    for (label, net) in [
        ("fig2_8", models::figures::fig2(8)),
        ("scheduler_6", models::scheduler(6)),
        ("nsdp_2", models::nsdp(2)),
    ] {
        group.bench_with_input(BenchmarkId::new("prefix", label), &net, |b, net| {
            b.iter(|| Unfolding::build(net, &Budget::default()).into_value())
        });
    }
    group.finish();
}

fn bench_timed(c: &mut Criterion) {
    let mut group = c.benchmark_group("extension/timed");
    group.sample_size(10);
    for (label, net) in [
        ("fig2_5", models::figures::fig2(5)),
        ("nsdp_2", models::nsdp(2)),
    ] {
        let timed = TimedNet::new(net);
        group.bench_with_input(BenchmarkId::new("classes", label), &timed, |b, timed| {
            b.iter(|| ClassGraph::explore(timed, &Default::default()).expect("within budget"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler, bench_unfolding, bench_timed);
criterion_main!(benches);
