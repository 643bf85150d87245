//! Table 1, NSDP rows: full vs partial-order vs BDD vs GPO on the
//! non-serialized dining philosophers.
//!
//! The paper's claims to reproduce: the full graph grows as the Lucas
//! numbers `L₃ₙ` (18, 322, 5778, …); stubborn-set reduction shrinks but
//! still grows exponentially; GPO detects the deadlock in **3 states
//! independent of n**.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpo_bench::{run_bdd, run_full, run_gpo, run_po, RowBudgets};

fn bench_nsdp(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/nsdp");
    group.sample_size(10);
    for n in [2usize, 4, 6] {
        let net = models::nsdp(n);
        group.bench_with_input(BenchmarkId::new("full", n), &net, |b, net| {
            b.iter(|| run_full(net, usize::MAX))
        });
        group.bench_with_input(BenchmarkId::new("po", n), &net, |b, net| {
            b.iter(|| run_po(net, usize::MAX))
        });
        group.bench_with_input(BenchmarkId::new("bdd", n), &net, |b, net| {
            b.iter(|| run_bdd(net, usize::MAX))
        });
        let budgets = RowBudgets::default();
        group.bench_with_input(BenchmarkId::new("gpo", n), &net, |b, net| {
            b.iter(|| run_gpo(net, &budgets))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nsdp);
criterion_main!(benches);
