//! `perf` — runs the benchmark workloads against the `julie` next to this
//! executable, prints one `workload metric value unit` line per metric and
//! a JSON result line per workload, and writes every metric and per-query
//! row to `target/perf/results.json` (spans to `target/perf/trace.json`).
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! untraced and the traced pass run and every metric is printed. Exit
//! codes: 0 done, 1 a verdict was wrong (after printing), 2 the harness
//! could not run. `perf --trace-query check <net> [flags]` is the traced
//! child the harness starts itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use julie::json::Json;
use julie_perf::workload::WORKLOADS;
use julie_perf::{run_workload, trace, Config, Mode};

const USAGE: &str = "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";

/// Seconds one run measures, unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 25.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--trace-query") {
        return match trace::run_layers(&args[1..]) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perf: {e}");
                ExitCode::from(3)
            }
        };
    }
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parses `--key value` and `--key=value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`; {USAGE}"))?;
        let (key, value) = match flag.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => {
                let v = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                (flag.to_string(), v.clone())
            }
        };
        if !["workload", "seed", "seconds", "trace"].contains(&key.as_str()) {
            return Err(format!("unknown flag `--{key}`; {USAGE}"));
        }
        flags.insert(key, value);
    }
    Ok(flags)
}

fn run(args: &[String]) -> Result<u8, String> {
    let flags = flags(args)?;
    let seed: u64 = match flags.get("seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`"))?,
        None => 1,
    };
    let seconds: f64 = match flags.get("seconds") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|x: &f64| *x > 0.0)
            .ok_or_else(|| format!("bad --seconds `{s}`"))?,
        None => DEFAULT_SECONDS,
    };
    let mode = match flags.get("trace").map(String::as_str) {
        None => Mode::Both,
        Some("0") => Mode::EndToEnd,
        Some("1") => Mode::Layers,
        Some(other) => return Err(format!("bad --trace `{other}` (use 0 or 1)")),
    };
    let workloads: Vec<&str> = match flags.get("workload") {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let perf = std::env::current_exe().map_err(|e| format!("cannot locate perf: {e}"))?;
    let julie = perf.with_file_name("julie");
    if !julie.is_file() {
        return Err(format!(
            "no julie next to perf at `{}`; build both with `bash perfbench/run.sh`",
            julie.display()
        ));
    }
    let work = PathBuf::from("target/perf");
    std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create `{}`: {e}", work.display()))?;
    let cfg = Config {
        julie,
        perf,
        work,
        seed,
        seconds,
        mode,
    };

    let mut results = Vec::new();
    let mut traces = Vec::new();
    let mut correct = true;
    for name in workloads {
        let m = run_workload(&cfg, name)?;
        for line in m.lines(mode) {
            println!("{line}");
        }
        println!("{}", m.result_line(mode));
        correct &= m.correct();
        traces.push(Json::Obj(vec![
            ("workload".into(), Json::str(name)),
            ("queries".into(), Json::Arr(m.spans.clone())),
        ]));
        results.push(m.to_json());
    }
    let header = |items: Vec<Json>| {
        Json::Obj(vec![
            ("seed".into(), Json::num(seed as usize)),
            ("seconds".into(), Json::Num(seconds)),
            ("workloads".into(), Json::Arr(items)),
        ])
    };
    write(&cfg.work.join("results.json"), &header(results))?;
    if mode.traced() {
        write(&cfg.work.join("trace.json"), &header(traces))?;
    }
    Ok(if correct { 0 } else { 1 })
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}
