//! Hot-path timing table for EXPERIMENTS.md: exploration wall time and
//! throughput for the large (≥10⁵-state) model instances, plus the
//! generalized analysis' enabling-reuse counters.
//!
//! Run: `cargo run --release -p gpo-bench --bin hotpath [-- --threads=N]`
//!
//! Times are medians of three runs. With `--threads=1` (the default on a
//! single-core container) the numbers isolate the serial hot-path work
//! (clone elimination, enabling-family reuse); larger `--threads` values
//! exercise the work-stealing parallel frontier engine, and the final
//! table times a steal-dominated comb workload (one deep chain with a
//! wide dead-end fan-out per link) at 1 thread vs the requested count.

use std::time::{Duration, Instant};

use gpo_core::{analyze, GpoOptions, ZddFamily};
use partial_order::{ReducedOptions, ReducedReachability};
use petri::{
    reduce, Budget, CheckpointConfig, ExploreOptions, NetBuilder, PetriNet, ReachabilityGraph,
    ReduceOptions,
};

/// One seed state, `depth` chain links, `width` dead ends per link: the
/// schedule the work-stealing deques were built for (thieves nibble the
/// leaves while one worker advances the chain).
fn steal_heavy_comb(depth: usize, width: usize) -> PetriNet {
    let mut b = NetBuilder::new("comb");
    let mut cur = b.place_marked("c0");
    for i in 0..depth {
        let next = b.place(format!("c{}", i + 1));
        b.transition(format!("t{i}"), [cur], [next]);
        for j in 0..width {
            let d = b.place(format!("d{i}_{j}"));
            b.transition(format!("u{i}_{j}"), [cur], [d]);
        }
        cur = next;
    }
    b.build().unwrap()
}

fn median_of_3(mut f: impl FnMut() -> Duration) -> Duration {
    let mut samples = [f(), f(), f()];
    samples.sort();
    samples[1]
}

fn main() {
    let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
    let threads = std::env::args()
        .find_map(|a| a.strip_prefix("--threads=").map(str::to_owned))
        .map(|v| v.parse().expect("--threads=N"))
        .unwrap_or_else(petri::parallel::default_threads);

    println!("exploration hot path (threads = {threads}; median of 3 runs)");
    println!("| model | full states | full time | states/s | reduced states | reduced time |");
    println!("|---|---|---|---|---|---|");
    let instances: Vec<(&str, PetriNet)> = vec![
        ("NSDP(8)", models::nsdp(8)),
        ("ASAT(8)", models::asat(8)),
        ("OVER(6)", models::overtake(6)),
    ];
    for (label, net) in &instances {
        let opts = ExploreOptions {
            threads,
            record_edges: false,
        };
        let mut states = 0usize;
        let full = median_of_3(|| {
            let rg = ReachabilityGraph::explore(net, &opts, &budget, &ckpt, None)
                .expect("safe")
                .into_value();
            states = rg.state_count();
            rg.elapsed()
        });
        let red_opts = ReducedOptions {
            threads,
            ..Default::default()
        };
        let mut red_states = 0usize;
        let red = median_of_3(|| {
            let red = ReducedReachability::explore(net, &red_opts, &budget, &ckpt, None)
                .expect("safe")
                .into_value();
            red_states = red.state_count();
            red.elapsed()
        });
        println!(
            "| {label} | {states} | {:.1} ms | {:.0}k | {red_states} | {:.1} ms |",
            full.as_secs_f64() * 1e3,
            states as f64 / full.as_secs_f64() / 1e3,
            red.as_secs_f64() * 1e3,
        );
    }

    println!();
    println!("generalized analysis: enabling-family evaluations (threads = {threads})");
    println!("| model | computed | reused (avoided) | seed would compute | time |");
    println!("|---|---|---|---|---|");
    for (label, net) in [
        ("fig2(8)", models::figures::fig2(8)),
        ("NSDP(6)", models::nsdp(6)),
        ("RW(12)", models::readers_writers(12)),
    ] {
        let opts = GpoOptions {
            threads,
            ..Default::default()
        };
        let report = analyze::<ZddFamily>(&net, &opts, &budget, &ckpt, None)
            .expect("within budgets")
            .into_value();
        println!(
            "| {label} | {} | {} | {} | {:.1} ms |",
            report.enabling_computed,
            report.enabling_reused,
            report.enabling_computed + report.enabling_reused,
            report.elapsed.as_secs_f64() * 1e3,
        );
    }

    println!();
    println!("generalized analysis, ZDD families: shared-manager counters (threads = {threads})");
    println!("| model | GPN states | zdd nodes | unique hits | op-cache hits | time |");
    println!("|---|---|---|---|---|---|");
    for (label, net) in [
        ("fig2(8)", models::figures::fig2(8)),
        ("NSDP(6)", models::nsdp(6)),
        ("RW(12)", models::readers_writers(12)),
    ] {
        let opts = GpoOptions {
            threads,
            ..Default::default()
        };
        let report = analyze::<ZddFamily>(&net, &opts, &budget, &ckpt, None)
            .expect("within budgets")
            .into_value();
        println!(
            "| {label} | {} | {} | {} | {} | {:.1} ms |",
            report.state_count,
            report.zdd_nodes_allocated,
            report.unique_hits,
            report.op_cache_hits,
            report.elapsed.as_secs_f64() * 1e3,
        );
    }

    println!();
    println!("structural reduction pre-pass (--reduce): full exploration before/after");
    println!(
        "| model | net p/t | reduced p/t | rules applied | states | reduced states | \
         t(explore) | t(reduce+explore) |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut json_models = Vec::new();
    for (label, net) in [
        ("NSDP(8)", models::nsdp(8)),
        ("ASAT(8)", models::asat(8)),
        ("OVER(6)", models::overtake(6)),
        ("CYCLIC(12)", models::scheduler(12)),
    ] {
        let opts = ExploreOptions {
            threads,
            record_edges: false,
        };
        let mut states = 0usize;
        let full = median_of_3(|| {
            let rg = ReachabilityGraph::explore(&net, &opts, &budget, &ckpt, None)
                .expect("safe")
                .into_value();
            states = rg.state_count();
            rg.elapsed()
        });
        let reduction = reduce(&net, &ReduceOptions::default()).expect("safe");
        let mut red_states = 0usize;
        // charge the reduction itself to the reduced run: the table shows
        // end-to-end time, not just the smaller exploration
        let red_total = median_of_3(|| {
            let start = Instant::now();
            let r = reduce(&net, &ReduceOptions::default()).expect("safe");
            let rg = ReachabilityGraph::explore(&r.net, &opts, &budget, &ckpt, None)
                .expect("safe")
                .into_value();
            red_states = rg.state_count();
            start.elapsed()
        });
        let rep = &reduction.report;
        println!(
            "| {label} | {}/{} | {}/{} | sp:{} st:{} rp:{} it:{} dt:{} | {states} | \
             {red_states} | {:.1} ms | {:.1} ms |",
            rep.places_before,
            rep.transitions_before,
            rep.places_after,
            rep.transitions_after,
            rep.series_places_fused,
            rep.series_transitions_fused,
            rep.redundant_places_removed,
            rep.identity_transitions_removed,
            rep.dead_transitions_removed,
            full.as_secs_f64() * 1e3,
            red_total.as_secs_f64() * 1e3,
        );
        json_models.push(format!(
            "    {{\"model\": \"{label}\", \"places\": {}, \"transitions\": {}, \
             \"reduced_places\": {}, \"reduced_transitions\": {}, \
             \"rules\": {{\"sp\": {}, \"st\": {}, \"rp\": {}, \"it\": {}, \"dt\": {}}}, \
             \"full_states\": {states}, \"reduced_states\": {red_states}, \
             \"full_ms\": {:.3}, \"reduce_plus_full_ms\": {:.3}}}",
            rep.places_before,
            rep.transitions_before,
            rep.places_after,
            rep.transitions_after,
            rep.series_places_fused,
            rep.series_transitions_fused,
            rep.redundant_places_removed,
            rep.identity_transitions_removed,
            rep.dead_transitions_removed,
            full.as_secs_f64() * 1e3,
            red_total.as_secs_f64() * 1e3,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"reduce\",\n  \"threads\": {threads},\n  \"models\": [\n{}\n  ]\n}}\n",
        json_models.join(",\n")
    );
    match std::fs::write("BENCH_reduce.json", &json) {
        Ok(()) => println!("wrote BENCH_reduce.json"),
        Err(e) => eprintln!("cannot write BENCH_reduce.json: {e}"),
    }

    println!();
    println!("work-stealing frontier: steal-heavy comb, 1 thread vs {threads}");
    println!("| model | states | t(1 thread) | t({threads} threads) | speedup |");
    println!("|---|---|---|---|---|");
    // kept modest: successor computation scans every transition, so the
    // cost of a comb is O(states × transitions) ≈ O((d·w)²)
    for (label, net) in [
        ("comb(400,16)", steal_heavy_comb(400, 16)),
        ("comb(1600,4)", steal_heavy_comb(1600, 4)),
    ] {
        let mut states = 0usize;
        let mut timed = |threads: usize| {
            median_of_3(|| {
                let start = Instant::now();
                let rg = ReachabilityGraph::explore(
                    &net,
                    &ExploreOptions {
                        threads,
                        record_edges: false,
                    },
                    &budget,
                    &ckpt,
                    None,
                )
                .expect("safe")
                .into_value();
                states = rg.state_count();
                start.elapsed()
            })
        };
        let serial = timed(1);
        let parallel = timed(threads);
        println!(
            "| {label} | {states} | {:.1} ms | {:.1} ms | {:.2}× |",
            serial.as_secs_f64() * 1e3,
            parallel.as_secs_f64() * 1e3,
            serial.as_secs_f64() / parallel.as_secs_f64(),
        );
    }
}
