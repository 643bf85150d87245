//! The harness on a micro query list — `full` on NSDP(2) and `pdr` on
//! RW(6) — against a release build of the repository's `julie`: exact
//! state counts, outcome classes, and the metric names `BENCHMARK.json`
//! declares.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

use julie::json::Json;
use julie_perf::metrics::{Def, Values, END_TO_END, PER_LAYER};
use julie_perf::outcome::{Class, Oracle};
use julie_perf::workload::{Family, Model, Query, Truth, WORKLOADS};
use julie_perf::{check, run_query, write_nets, Config, Measured, Mode};

/// `$JULIE`, or `julie` built once from the repository into a target
/// directory of its own beside this test's.
fn julie() -> &'static Path {
    static JULIE: OnceLock<PathBuf> = OnceLock::new();
    JULIE.get_or_init(|| {
        if let Some(path) = std::env::var_os("JULIE") {
            return path.into();
        }
        let target = target_dir().join("julie-under-test");
        let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("perfbench sits in the repository");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "-q", "-p", "julie"])
            .arg("--manifest-path")
            .arg(repo.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building julie failed");
        target.join("release").join("julie")
    })
}

/// The target directory this test binary was built into.
fn target_dir() -> PathBuf {
    let perf = Path::new(env!("CARGO_BIN_EXE_perf"));
    perf.ancestors()
        .nth(2)
        .expect("the perf binary sits in <target>/<profile>/")
        .to_path_buf()
}

fn config(test: &str, mode: Mode) -> Config {
    Config {
        julie: julie().to_path_buf(),
        perf: PathBuf::from(env!("CARGO_BIN_EXE_perf")),
        work: target_dir().join("perf-harness-tests").join(test),
        seed: 1,
        seconds: 0.1,
        mode,
    }
}

fn micro() -> Vec<Query> {
    vec![
        Query::new(
            "full",
            Model {
                family: Family::Nsdp,
                n: 2,
            },
        ),
        Query::new(
            "pdr",
            Model {
                family: Family::Rw,
                n: 6,
            },
        ),
    ]
}

fn row<'a>(m: &'a Measured, i: usize, key: &str) -> &'a Json {
    m.rows[i].get(key).expect("row field")
}

#[test]
fn micro_queries_give_exact_counts_and_agreeing_verdicts() {
    let m = check::run(&config("exact", Mode::Both), "micro", &micro()).unwrap();
    assert!(m.correct());
    assert_eq!(m.failed, 0, "{:?}", m.rows);
    // the traced pass plus the untraced passes, two queries each
    assert_eq!(m.attempted, 2 + 2 * m.passes);
    // Table 1: NSDP(2) has 18 reachable markings; pdr proves RW(6)
    // deadlock-free from its invariants alone, with no lemma
    assert_eq!(row(&m, 0, "states").as_u64(), Some(18));
    assert_eq!(row(&m, 1, "states").as_u64(), Some(0));
    for i in 0..2 {
        assert_eq!(row(&m, i, "traced").as_str(), Some("decided"));
        assert_eq!(
            row(&m, i, "classes").get_index(0).and_then(Json::as_str),
            Some("decided")
        );
    }
    // NSDP(2)'s deadlock comes with a trace, and it replays
    assert_eq!(m.values["evidence.replayed_share"], 1.0);
    assert!(m.values["parse_ms"] > 0.0 && m.values["engine_ms"] > 0.0);
    assert_eq!(m.values["decided_share"], 1.0);
}

#[test]
fn a_wrong_truth_fails_the_run() {
    let mut queries = micro();
    queries[0].truth = Truth::Holds;
    let m = check::run(&config("wrong", Mode::EndToEnd), "micro", &queries).unwrap();
    assert!(!m.correct());
    // every untraced pass of the lying query is wrong
    assert_eq!(m.wrong, m.passes);
    assert_eq!(m.failed, m.passes);
    assert!(row(&m, 0, "classes")
        .get_index(0)
        .and_then(Json::as_str)
        .is_some_and(|c| c.starts_with("wrong")));
}

#[test]
fn a_one_millisecond_cap_is_a_kill() {
    let cfg = config("kill", Mode::EndToEnd);
    // the micro nets can finish inside a millisecond; NSDP(8) cannot
    let q = &Query::new(
        "full",
        Model {
            family: Family::Nsdp,
            n: 8,
        },
    );
    let nets = cfg.work.join("nets");
    write_nets(&nets, std::slice::from_ref(q)).unwrap();
    let run = run_query(
        &cfg.julie,
        q,
        &Oracle::new(q),
        &nets,
        &cfg.work,
        Duration::from_millis(1),
    )
    .unwrap();
    assert_eq!(run.code, None);
    assert_eq!(
        run.judgement.class,
        Class::Failed("killed at the cap".into())
    );
}

fn declared(bench: &Json, key: &str) -> Vec<(String, String, String)> {
    let Some(Json::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn ours(defs: &[Def]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn printed_metrics_are_the_ones_benchmark_json_declares() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(declared(&bench, "end_to_end"), ours(&END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), ours(&PER_LAYER));
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);

    let values: Values = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| (d.name, 1.5))
        .collect();
    let m = Measured {
        workload: "w".into(),
        attempted: 1,
        failed: 0,
        wrong: 0,
        values,
        passes: 1,
        rows: Vec::new(),
        spans: Vec::new(),
    };
    for (mode, defs) in [
        (Mode::EndToEnd, END_TO_END.to_vec()),
        (Mode::Layers, PER_LAYER.to_vec()),
    ] {
        let printed: Vec<String> = m
            .lines(mode)
            .iter()
            .map(|l| l.split(' ').nth(1).unwrap().to_string())
            .collect();
        let names: Vec<String> = defs.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(printed, names);
        let line = Json::parse(&m.result_line(mode)).unwrap();
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics object");
        };
        let keys: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, names);
    }
}
