//! `perf` — the repository's benchmark: how long, and with how much
//! memory, `julie` takes to settle its queries, end to end and layer by
//! layer, on four workloads (see `README.md` beside this crate).
//!
//! ```text
//! bash perfbench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `run.sh` builds `julie` and `perf` from source and runs `perf`, which
//! finds `julie` next to its own executable.
//!
//! * Untraced passes run every query of a workload as a real `julie`
//!   process (or `julie serve` job), one at a time, in an order permuted by
//!   the seed, until `--seconds` are spent; end-to-end metrics come only
//!   from these.
//! * A traced pass (`--trace 1`) runs each query once more in a child
//!   `perf` process that calls each layer's entry point and times it from
//!   outside ([`trace`]); per-layer metrics come from it.
//! * Every run is checked against a hand-written truth and its witness is
//!   replayed ([`outcome`]); a wrong verdict makes `perf` exit 1 after the
//!   metrics are printed.

#![warn(missing_docs)]

pub mod check;
pub mod exec;
pub mod metrics;
pub mod outcome;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use julie::json::Json;

use crate::exec::Exit;
use crate::metrics::{Def, Values, END_TO_END, PER_LAYER};
use crate::outcome::{Class, Judgement, Oracle};
use crate::trace::Traced;
use crate::workload::{Query, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Untraced passes per run at the least: each per-query value is a median
/// over passes, so one slow run of a query does not move it.
pub const MIN_PASSES: usize = 3;

/// Which metrics a run measures and prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: untraced passes only; end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: a traced pass, then untraced passes for the verdict
    /// cross-check and the exec gap; per-layer metrics.
    Layers,
    /// No `--trace`: both, and every metric.
    Both,
}

impl Mode {
    /// Whether the run includes a traced pass.
    pub fn traced(self) -> bool {
        self != Mode::EndToEnd
    }

    /// The metrics this mode prints.
    pub fn defs(self) -> Vec<Def> {
        match self {
            Mode::EndToEnd => END_TO_END.to_vec(),
            Mode::Layers => PER_LAYER.to_vec(),
            Mode::Both => END_TO_END.iter().chain(&PER_LAYER).copied().collect(),
        }
    }
}

/// Where the harness finds its programs and how long it measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `julie` executable under test.
    pub julie: PathBuf,
    /// The `perf` executable, re-run as the traced child.
    pub perf: PathBuf,
    /// Scratch directory for nets, outputs and the serve data dir.
    pub work: PathBuf,
    /// Seed of the workload inputs and of the query order.
    pub seed: u64,
    /// Measurement time per run. Passes are whole: a run makes at least
    /// [`MIN_PASSES`] untraced passes (one after a traced pass), and more
    /// while they fit.
    pub seconds: f64,
    /// What to measure.
    pub mode: Mode,
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The workload name.
    pub workload: String,
    /// Runs (and jobs) attempted, traced ones included.
    pub attempted: usize,
    /// Runs classed failed or wrong.
    pub failed: usize,
    /// Runs classed wrong.
    pub wrong: usize,
    /// Every metric of [`END_TO_END`] and [`PER_LAYER`].
    pub values: Values,
    /// Untraced passes made.
    pub passes: usize,
    /// One row per query (per job slot for serve), for `results.json`.
    pub rows: Vec<Json>,
    /// The traced pass's spans, for `trace.json`.
    pub spans: Vec<Json>,
}

impl Measured {
    /// No run gave a wrong verdict.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// One `workload metric value unit` line per printed metric.
    pub fn lines(&self, mode: Mode) -> Vec<String> {
        mode.defs()
            .iter()
            .map(|d| {
                format!(
                    "{} {} {} {}",
                    self.workload,
                    d.name,
                    Json::Num(self.values[d.name]).render(),
                    d.unit
                )
            })
            .collect()
    }

    /// The result object printed as the last line of standard output.
    pub fn result_line(&self, mode: Mode) -> String {
        let metrics = mode
            .defs()
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(self.values[d.name])),
                        ("unit".into(), Json::str(d.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.attempted)),
            ("failed".into(), Json::num(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// The workload's entry in `results.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::str(&self.workload)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.attempted)),
            ("failed".into(), Json::num(self.failed)),
            ("passes".into(), Json::num(self.passes)),
            (
                "metrics".into(),
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("rows".into(), Json::Arr(self.rows.clone())),
        ])
    }
}

/// Runs the workload called `name`.
pub fn run_workload(cfg: &Config, name: &str) -> Result<Measured, String> {
    match Workload::by_name(name, cfg.seed) {
        Some(Workload::Check(queries)) => check::run(cfg, name, &queries),
        Some(Workload::Serve(mix)) => serve::run(cfg, name, &mix),
        None => Err(format!(
            "unknown workload `{name}` (choose from {})",
            workload::WORKLOADS.join(", ")
        )),
    }
}

/// The set-up's generation step: writes every net the queries use into
/// `nets`, returning the texts.
pub fn write_nets(
    nets: &Path,
    queries: &[Query],
) -> Result<Vec<(workload::Model, String)>, String> {
    let _ = fs::remove_dir_all(nets);
    fs::create_dir_all(nets).map_err(|e| format!("cannot create `{}`: {e}", nets.display()))?;
    let mut models: Vec<_> = queries.iter().map(|q| q.model).collect();
    models.sort();
    models.dedup();
    models
        .into_iter()
        .map(|m| {
            let text = petri::to_text(&m.build());
            let path = nets.join(m.file_name());
            fs::write(&path, &text)
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            Ok((m, text))
        })
        .collect()
}

/// One finished process: how it exited and what it printed.
struct Output {
    exit: Exit,
    stdout: String,
    stderr: String,
}

/// Runs `program args` with standard output and error sent to files in
/// `scratch`, killed at `cap`.
fn run_program(
    program: &Path,
    args: &[String],
    scratch: &Path,
    cap: Duration,
) -> Result<Output, String> {
    let out = scratch.join("stdout.txt");
    let err = scratch.join("stderr.txt");
    let create =
        |p: &Path| File::create(p).map_err(|e| format!("cannot create `{}`: {e}", p.display()));
    let exit = exec::run_capped(
        Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(create(&out)?)
            .stderr(create(&err)?),
        cap,
    )
    .map_err(|e| format!("cannot run `{}`: {e}", program.display()))?;
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_default();
    Ok(Output {
        exit,
        stdout: read(&out),
        stderr: read(&err),
    })
}

/// One untraced run of a query, judged.
#[derive(Debug, Clone)]
pub struct Run {
    /// Spawn to exit, in milliseconds.
    pub wall_ms: f64,
    /// Peak resident set of the process, in MiB.
    pub peak_rss_mb: f64,
    /// The exit code (`None`: ended by a signal).
    pub code: Option<i32>,
    /// The class of the run.
    pub judgement: Judgement,
    /// The `--json` report, when it parsed.
    pub report: Option<Json>,
}

/// Runs `query` once as a `julie check` process against the net files in
/// `nets`, killed at `cap`, and judges the outcome against its truth.
pub fn run_query(
    julie: &Path,
    query: &Query,
    oracle: &Oracle,
    nets: &Path,
    scratch: &Path,
    cap: Duration,
) -> Result<Run, String> {
    let out = run_program(julie, &query.check_args(nets), scratch, cap)?;
    let report = Json::parse(out.stdout.trim()).ok();
    let judgement = if out.exit.killed {
        Judgement::failed("killed at the cap")
    } else {
        let mut j = oracle.judge(out.exit.code, report.as_ref());
        if let Class::Failed(reason) = &mut j.class {
            if let Some(line) = out.stderr.lines().next() {
                reason.push_str(&format!(": {line}"));
            }
        }
        j
    };
    Ok(Run {
        wall_ms: out.exit.wall.as_secs_f64() * 1e3,
        peak_rss_mb: out.exit.peak_rss_kb as f64 / 1024.0,
        code: out.exit.code,
        judgement,
        report,
    })
}

/// One traced query: the child's spans and report, and its judgement.
struct TracedRun {
    traced: Option<Traced>,
    judgement: Judgement,
}

impl TracedRun {
    /// A traced verdict that differs from an untraced one counts as
    /// failed. Only definitive answers are compared: a deadline row may
    /// decide in one pass and run out of time in another.
    fn cross_check(&mut self, untraced: impl IntoIterator<Item = Option<i32>>) {
        let Some(t) = &self.traced else { return };
        let traced = t.report.get("exit_code").and_then(Json::as_u64);
        let decided = |c: Option<u64>| matches!(c, Some(0 | 1));
        if !decided(traced) {
            return;
        }
        let differs = untraced
            .into_iter()
            .map(|c| c.and_then(|c| u64::try_from(c).ok()))
            .any(|c| decided(c) && c != traced);
        if differs && !self.judgement.class.is_failure() {
            self.judgement = Judgement::failed("traced verdict differs from the untraced one");
        }
    }
}

/// The traced pass: each query once, in a child `perf --trace-query`.
fn trace_pass(
    cfg: &Config,
    queries: &[Query],
    oracles: &[Oracle],
    nets: &Path,
    scratch: &Path,
) -> Result<Vec<TracedRun>, String> {
    queries
        .iter()
        .zip(oracles)
        .map(|(q, oracle)| {
            let mut args = vec!["--trace-query".to_string()];
            args.extend(q.check_args(nets));
            let out = run_program(&cfg.perf, &args, scratch, q.cap())?;
            let parsed = match out.exit.code {
                _ if out.exit.killed => Err("killed at the cap".to_string()),
                Some(0) => Traced::parse(out.stdout.lines().last().unwrap_or_default()),
                _ => Err(format!(
                    "traced child failed: {}",
                    out.stderr.lines().next().unwrap_or("no message")
                )),
            };
            Ok(match parsed {
                Ok(t) => {
                    let code = t.report.get("exit_code").and_then(Json::as_u64);
                    let judgement = oracle.judge(code.map(|c| c as i32), Some(&t.report));
                    TracedRun {
                        traced: Some(t),
                        judgement,
                    }
                }
                Err(e) => TracedRun {
                    traced: None,
                    judgement: Judgement::failed(e),
                },
            })
        })
        .collect()
}

/// Whether to start another untraced pass: always until the minimum is
/// done, then only while the mean pass still fits in the run's time.
fn another_pass(start: Instant, pass_secs: &[f64], cfg: &Config) -> bool {
    let min = if cfg.mode.traced() { 1 } else { MIN_PASSES };
    if pass_secs.len() < min {
        return true;
    }
    let mean = pass_secs.iter().sum::<f64>() / pass_secs.len() as f64;
    start.elapsed().as_secs_f64() + mean <= cfg.seconds
}

/// The spans of a traced pass, for `trace.json`.
fn span_rows(queries: &[Query], traced: &[TracedRun]) -> Vec<Json> {
    queries
        .iter()
        .zip(traced)
        .filter_map(|(q, t)| {
            let t = t.traced.as_ref()?;
            Some(Json::Obj(vec![
                ("query".into(), Json::str(q.label())),
                ("vmhwm_kb".into(), Json::num(t.vmhwm_kb as usize)),
                (
                    "spans".into(),
                    Json::Arr(t.spans.iter().map(trace::Span::to_json).collect()),
                ),
            ]))
        })
        .collect()
}

/// Counts (attempted, failed, wrong) over judgements.
fn tally<'a>(judgements: impl IntoIterator<Item = &'a Judgement>) -> (usize, usize, usize) {
    judgements.into_iter().fold((0, 0, 0), |(a, f, w), j| {
        (
            a + 1,
            f + usize::from(j.class.is_failure()),
            w + usize::from(matches!(j.class, Class::Wrong(_))),
        )
    })
}
