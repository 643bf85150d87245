//! The metric catalogue (the names `BENCHMARK.json` lists) and the
//! per-layer roll-up of a traced pass.

use std::collections::BTreeMap;

use julie::json::Json;

use crate::outcome::Judgement;
use crate::stats::{median, ratio};
use crate::trace::{Traced, ROOT};
use crate::workload::Query;

/// One metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of `julie` sees, measured with tracing off. Every workload
/// reports every one of these.
pub const END_TO_END: [Def; 7] = [
    def("total_s", "s", "lower"),
    def("geomean_ms", "ms", "lower"),
    def("latency_p90_ms", "ms", "lower"),
    def("jobs_per_s", "1/s", "higher"),
    def("decided_share", "share", "higher"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Single layers, from the traced pass. A layer a workload bypasses reads
/// 0; every quantity that can be 0 is a count, rate or share, so no time
/// reads the same on every run.
pub const PER_LAYER: [Def; 34] = [
    def("parse_ms", "ms", "lower"),
    def("compile_ms", "ms", "lower"),
    def("engine_ms", "ms", "lower"),
    def("render_ms", "ms", "lower"),
    def("exec_gap_ms", "ms", "lower"),
    def("reduce.time_share", "share", "lower"),
    def("reduce.places_removed_share", "share", "higher"),
    def("full.engine_share", "share", "lower"),
    def("full.states_per_s", "1/s", "higher"),
    def("po.engine_share", "share", "lower"),
    def("po.states_per_s", "1/s", "higher"),
    def("gpo.engine_share", "share", "lower"),
    def("gpo.valid_sets", "count", "lower"),
    def("gpo.zdd_nodes", "count", "lower"),
    def("gpo.zdd_unique_hit_share", "share", "higher"),
    def("gpo.op_cache_hits", "count", "higher"),
    def("auto.engine_share", "share", "lower"),
    def("auto.drain_share", "share", "lower"),
    def("bdd.engine_share", "share", "lower"),
    def("bdd.peak_nodes", "count", "lower"),
    def("unfold.engine_share", "share", "lower"),
    def("unfold.events", "count", "lower"),
    def("unfold.events_per_s", "1/s", "higher"),
    def("pdr.engine_share", "share", "lower"),
    def("pdr.sat_calls", "count", "lower"),
    def("pdr.conflicts", "count", "lower"),
    def("pdr.lemmas", "count", "lower"),
    def("pdr.sat_calls_per_s", "1/s", "higher"),
    def("budget.overshoot_ratio", "ratio", "lower"),
    def("evidence.replayed_share", "share", "higher"),
    def("serve.admit_share", "share", "lower"),
    def("serve.wait_docs_per_job", "count", "lower"),
    def("serve.cache_hit_share", "share", "higher"),
    def("serve.rejected", "count", "lower"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// One query's share of a workload's per-layer roll-up.
pub struct LayerInput<'a> {
    /// The query.
    pub query: &'a Query,
    /// Its traced run, when the child succeeded.
    pub traced: Option<&'a Traced>,
    /// Its median untraced wall time, in milliseconds.
    pub wall_ms: f64,
    /// The judgements of its untraced runs.
    pub judgements: &'a [Judgement],
}

/// A query whose traced span is shorter than this is a small row: its
/// time is mostly process start, parsing and printing.
const SMALL_ROW_MS: f64 = 50.0;

fn detail(report: &Json, key: &str) -> f64 {
    report
        .get("details")
        .and_then(|d| d.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// Sums the layers over a workload's queries. Deadline rows feed only
/// `budget.overshoot_ratio`; every other metric leaves them out, so the
/// counters repeat exactly. `exec_gap_ms` is the median of (untraced wall
/// − traced query span) over the small rows: per-query process and CLI
/// cost, which the run-to-run noise of the big queries would bury. The
/// `serve.*` metrics read 0 here.
pub fn layer_values(rows: &[LayerInput]) -> Values {
    let mut sum: BTreeMap<&str, f64> = BTreeMap::new();
    let mut gaps = Vec::new();
    let mut add = |key: &'static str, x: f64| *sum.entry(key).or_default() += x;
    for r in rows {
        if let Some(t) = r.query.deadline {
            add("overshoot_s", (r.wall_ms / 1e3 - t as f64).max(0.0));
            add("deadline_s", t as f64);
            continue;
        }
        for j in r.judgements {
            if let Some(replayed) = j.replayed {
                add("violated", 1.0);
                add("replayed", f64::from(u8::from(replayed)));
            }
        }
        let Some(t) = r.traced else { continue };
        let query_ms = t.layer_ms(ROOT);
        let engine_ms = t.layer_ms("engine");
        add("query_ms", query_ms);
        add("parse_ms", t.layer_ms("parse"));
        add("compile_ms", t.layer_ms("compile"));
        add("reduce_ms", t.layer_ms("reduce"));
        add("engine_ms", engine_ms);
        add("render_ms", t.layer_ms("render"));
        if query_ms < SMALL_ROW_MS {
            gaps.push(r.wall_ms - query_ms);
        }
        let rep = &t.report;
        let states = rep.get("states").and_then(Json::as_u64).unwrap_or(0) as f64;
        match r.query.engine {
            "full" => {
                add("full.ms", engine_ms);
                add("full.states", states);
            }
            "po" => {
                add("po.ms", engine_ms);
                add("po.states", states);
            }
            "gpo" => {
                add("gpo.ms", engine_ms);
                add("gpo.valid_sets", detail(rep, "valid_sets"));
                add("gpo.zdd_nodes", detail(rep, "zdd_nodes_allocated"));
                add("gpo.unique_hits", detail(rep, "unique_hits"));
                add("gpo.op_cache_hits", detail(rep, "op_cache_hits"));
            }
            "auto" => {
                add("auto.ms", engine_ms);
                let winner_secs = match rep.get("legs") {
                    Some(Json::Arr(legs)) => legs
                        .iter()
                        .find(|l| l.get("outcome").and_then(Json::as_str) == Some("won"))
                        .and_then(|l| match l.get("wall_secs") {
                            Some(Json::Num(s)) => Some(*s),
                            _ => None,
                        })
                        .unwrap_or(0.0),
                    _ => 0.0,
                };
                add("auto.drain_ms", (engine_ms - winner_secs * 1e3).max(0.0));
            }
            "bdd" => {
                add("bdd.ms", engine_ms);
                add("bdd.peak_nodes", detail(rep, "peak_bdd_nodes"));
            }
            "unfold" => {
                add("unfold.ms", engine_ms);
                add("unfold.events", detail(rep, "events"));
            }
            "pdr" => {
                add("pdr.ms", engine_ms);
                add("pdr.sat_calls", detail(rep, "sat_calls"));
                add("pdr.conflicts", detail(rep, "conflicts"));
                add("pdr.lemmas", detail(rep, "lemmas"));
            }
            other => panic!("no per-layer roll-up for engine `{other}`"),
        }
        if let Some(red) = rep.get("reduction").filter(|r| **r != Json::Null) {
            let n = |k| red.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
            add("places_before", n("places_before"));
            add("places_removed", n("places_before") - n("places"));
        }
    }
    let s = |key: &str| sum.get(key).copied().unwrap_or(0.0);
    let share = |key: &str| ratio(s(key), s("query_ms"));
    let per_s = |count: &str, ms: &str| ratio(s(count), s(ms) / 1e3);
    let mut v: Values = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut set = |name: &'static str, x: f64| {
        assert!(v.insert(name, x).is_some(), "`{name}` is not in PER_LAYER");
    };
    for name in ["parse_ms", "compile_ms", "engine_ms", "render_ms"] {
        set(name, s(name));
    }
    set("exec_gap_ms", median(&gaps));
    set("reduce.time_share", share("reduce_ms"));
    set(
        "reduce.places_removed_share",
        ratio(s("places_removed"), s("places_before")),
    );
    set("full.engine_share", share("full.ms"));
    set("full.states_per_s", per_s("full.states", "full.ms"));
    set("po.engine_share", share("po.ms"));
    set("po.states_per_s", per_s("po.states", "po.ms"));
    set("gpo.engine_share", share("gpo.ms"));
    set("gpo.valid_sets", s("gpo.valid_sets"));
    set("gpo.zdd_nodes", s("gpo.zdd_nodes"));
    set(
        "gpo.zdd_unique_hit_share",
        ratio(
            s("gpo.unique_hits"),
            s("gpo.unique_hits") + s("gpo.zdd_nodes"),
        ),
    );
    set("gpo.op_cache_hits", s("gpo.op_cache_hits"));
    set("auto.engine_share", share("auto.ms"));
    set("auto.drain_share", ratio(s("auto.drain_ms"), s("auto.ms")));
    set("bdd.engine_share", share("bdd.ms"));
    set("bdd.peak_nodes", s("bdd.peak_nodes"));
    set("unfold.engine_share", share("unfold.ms"));
    set("unfold.events", s("unfold.events"));
    set("unfold.events_per_s", per_s("unfold.events", "unfold.ms"));
    set("pdr.engine_share", share("pdr.ms"));
    set("pdr.sat_calls", s("pdr.sat_calls"));
    set("pdr.conflicts", s("pdr.conflicts"));
    set("pdr.lemmas", s("pdr.lemmas"));
    set("pdr.sat_calls_per_s", per_s("pdr.sat_calls", "pdr.ms"));
    set(
        "budget.overshoot_ratio",
        ratio(s("overshoot_s"), s("deadline_s")),
    );
    set(
        "evidence.replayed_share",
        ratio(s("replayed"), s("violated")),
    );
    v
}
