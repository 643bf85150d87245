//! The portfolio supervisor behind `--engine=auto`: races several engine
//! legs against one shared budget and returns the first *sound* verdict.
//!
//! Soundness model (see DESIGN.md §"Portfolio soundness"): verdicts are
//! three-valued. `HasDeadlock` (a witness) is sound even on a partial
//! exploration — every stored marking is genuinely reachable — and
//! `DeadlockFree` is only ever reported by a *complete* exploration, so
//! any sound verdict from any leg is a correct answer to the whole
//! question and the first one to arrive can win the race. Two legs
//! returning *contradictory* sound verdicts is therefore impossible for
//! correct engines; when it happens anyway (a miscompiled engine, memory
//! corruption, an injected fault) the supervisor fails closed with a
//! diagnostic naming both engines instead of picking one.
//!
//! Robustness model:
//! * every leg runs under `catch_unwind` — a panicking engine retires its
//!   leg, never the race;
//! * a per-leg watchdog deadline cancels a stuck leg cooperatively;
//! * a panicked or errored leg is retried once with a fresh budget slice
//!   (same limits, its own cancel flag) while the race is still open;
//! * staged escalation launches cheap legs first and hedges with heavier
//!   ones after a configurable delay, so easy nets never pay for `full`;
//! * when every leg exhausts its budget the supervisor degrades to the
//!   partial result with the highest coverage (most states stored);
//! * only one designated leg checkpoints (its name in the snapshot's
//!   [`RunStamp::leg`](petri::RunStamp::leg)), so `--resume` re-enters the
//!   race with that leg continuing from its snapshot — or fails closed on
//!   a solo snapshot.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use petri::{Budget, CheckpointConfig, ExhaustionReason, PetriNet, Reduction, Snapshot, Verdict};

use crate::engine::{self, run_engine, RunSpec, ENGINES};
use crate::report::{CheckReport, LegReport};

/// The `--engine` selector of the portfolio.
pub const AUTO: &str = "auto";

/// Engines the portfolio may race: every row of [`ENGINES`], in table
/// (escalation) order.
pub const RACEABLE: [&str; ENGINES.len()] = {
    let mut names = [""; ENGINES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = ENGINES[i].name;
        i += 1;
    }
    names
};

/// Supervisor knobs of one `--engine=auto` run.
#[derive(Debug, Clone)]
pub struct PortfolioOptions {
    /// Escalation stages: the legs of stage `i` launch `i * stage_delay`
    /// after the race starts (hedged-request shape — cheap legs first,
    /// heavier hedges only if the cheap ones have not answered yet).
    pub stages: Vec<Vec<String>>,
    /// Delay between stage launches.
    pub stage_delay: Duration,
    /// Per-leg watchdog: a leg running longer than this is cancelled
    /// cooperatively and retired (its partial result still competes for
    /// the best-coverage fallback).
    pub watchdog: Option<Duration>,
    /// Retry a panicked/errored leg once with a fresh budget slice.
    pub retry: bool,
    /// Run every leg to completion (no cancel storm on a win) and
    /// cross-check all sound verdicts before answering. Slower; used by
    /// equivalence tests to make disagreement detection deterministic.
    pub cross_check_all: bool,
    /// Fault hook: this leg panics instead of running (exercises the
    /// isolation path; wired to `JULIE_PORTFOLIO_PANIC_LEG` by the CLI).
    pub inject_panic: Option<String>,
    /// Fault hook: this leg's sound verdict is flipped (fabricates a
    /// cross-engine disagreement; `JULIE_PORTFOLIO_FLIP_LEG`).
    pub inject_flip: Option<String>,
}

impl Default for PortfolioOptions {
    fn default() -> Self {
        PortfolioOptions {
            stages: ENGINES
                .chunk_by(|a, b| a.stage == b.stage)
                .map(|stage| stage.iter().map(|e| e.name.to_string()).collect())
                .collect(),
            stage_delay: Duration::from_millis(250),
            watchdog: None,
            retry: true,
            cross_check_all: false,
            inject_panic: None,
            inject_flip: None,
        }
    }
}

impl PortfolioOptions {
    /// Parses a `--legs=a,b/c/d` schedule (`/` separates stages, `,`
    /// separates legs within a stage).
    pub fn parse_stages(spec: &str) -> Result<Vec<Vec<String>>, String> {
        let mut stages = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        for stage in spec.split('/') {
            let legs: Vec<String> = stage
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if legs.is_empty() {
                return Err("empty stage (use e.g. --legs=po,gpo/full)".into());
            }
            for leg in &legs {
                if !RACEABLE.contains(&leg.as_str()) {
                    return Err(format!(
                        "unknown leg `{leg}` (raceable engines: {})",
                        RACEABLE.join(", ")
                    ));
                }
                if seen.contains(leg) {
                    return Err(format!("leg `{leg}` appears twice in the schedule"));
                }
                seen.push(leg.clone());
            }
            stages.push(legs);
        }
        if stages.is_empty() {
            return Err("empty --legs schedule".into());
        }
        Ok(stages)
    }

    fn leg_names(&self) -> Vec<String> {
        self.stages.iter().flatten().cloned().collect()
    }
}

/// The resolved race: the winning leg's solo-shaped report (exactly what
/// a solo run of that engine would have produced, so `julie serve` can
/// journal and cache it engine-transparently) plus the per-leg table.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The winner's report; `report.engine` names the winning leg.
    pub report: CheckReport,
    /// One row per leg, in schedule order.
    pub legs: Vec<LegReport>,
}

/// Validates `--engine` against a `--resume` snapshot's stamped leg,
/// failing closed (naming both sides) when a solo run is pointed at a
/// portfolio snapshot or vice versa. A solo snapshot has no leg; the
/// envelope's engine kind names it. A kind that no current engine
/// resumes (gpo on explicit families, written by older builds) is named
/// as such, with no `--engine` value to suggest.
pub fn check_resume_engine(snap: &Snapshot, auto: bool) -> Result<(), String> {
    let resumable = engine::find(snap.engine.name()).is_ok_and(|e| e.checkpoint);
    match (auto, &snap.stamp.leg) {
        (true, None) if !resumable => Err(format!(
            "--resume snapshot was written by a solo {} run, which no current engine \
             resumes (this run uses --engine=auto); restart without --resume",
            snap.engine.name()
        )),
        (true, None) => Err(format!(
            "--resume snapshot was written by a solo --engine={} run but this run uses \
             --engine=auto; pass --engine={} to resume it, or restart with --engine=auto \
             and a fresh --checkpoint",
            snap.engine.name(),
            snap.engine.name()
        )),
        (false, Some(leg)) => Err(format!(
            "--resume snapshot was written by --engine=auto (leg `{leg}`) but this run uses a \
             solo engine; pass --engine=auto to re-enter the race, or restart with a fresh \
             --checkpoint"
        )),
        _ => Ok(()),
    }
}

/// How one leg left the race (the `outcome` column of the per-leg table).
#[derive(Debug, Clone, PartialEq, Eq)]
enum LegEnd {
    /// Returned a sound verdict.
    Sound(Verdict),
    /// Returned an inconclusive (partial) result.
    Partial(Option<ExhaustionReason>),
    /// The engine panicked; the unwind was caught.
    Panicked(String),
    /// The engine returned an error.
    Errored(String),
}

struct LegDone {
    idx: usize,
    end: LegEnd,
    report: Option<CheckReport>,
    wall: Duration,
}

/// One leg's supervisor-side bookkeeping.
struct LegState {
    engine: String,
    stage: usize,
    budget: Budget,
    launched: Option<Instant>,
    done: Option<LegDone>,
    attempts: u32,
    watchdog_fired: bool,
}

/// Runs one leg to completion in the current thread and reports back.
/// Panics are caught here so the supervisor only ever sees messages.
#[allow(clippy::too_many_arguments)]
fn leg_body(
    original: &PetriNet,
    reduction: Option<&Reduction>,
    rules: &str,
    spec: RunSpec,
    budget: Budget,
    ckpt: CheckpointConfig,
    resume: Option<Snapshot>,
    opts: &PortfolioOptions,
    idx: usize,
    tx: &mpsc::Sender<LegDone>,
) {
    let start = Instant::now();
    let engine = spec.engine.clone();
    if opts.inject_panic.as_deref() == Some(engine.as_str()) {
        let end = LegEnd::Panicked(format!("injected panic in leg `{engine}`"));
        let _ = tx.send(LegDone {
            idx,
            end,
            report: None,
            wall: start.elapsed(),
        });
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_engine(
            original,
            reduction,
            rules,
            &spec,
            &budget,
            &ckpt,
            resume.as_ref(),
        )
    }));
    let wall = start.elapsed();
    let done = match outcome {
        Ok(Ok(mut report)) => {
            if opts.inject_flip.as_deref() == Some(engine.as_str()) {
                report.verdict = match report.verdict {
                    Verdict::DeadlockFree => Verdict::HasDeadlock,
                    Verdict::HasDeadlock => Verdict::DeadlockFree,
                    v @ Verdict::Inconclusive { .. } => v,
                };
            }
            let end = match report.verdict {
                Verdict::Inconclusive { .. } => LegEnd::Partial(report.exhausted),
                sound => LegEnd::Sound(sound),
            };
            LegDone {
                idx,
                end,
                report: Some(report),
                wall,
            }
        }
        Ok(Err(e)) => LegDone {
            idx,
            end: LegEnd::Errored(e),
            report: None,
            wall,
        },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            LegDone {
                idx,
                end: LegEnd::Panicked(msg),
                report: None,
                wall,
            }
        }
    };
    // a send failure means the supervisor already returned; nothing to do
    let _ = tx.send(done);
}

/// Races the schedule's legs and resolves the first sound verdict.
///
/// `spec.engine` must be [`AUTO`]; each leg runs with the leg's engine
/// substituted and everything else (property, threads, witnesses, zdd)
/// shared. `budget` carries the shared limits and deadline; each leg gets
/// a derived budget with its own cancel flag, and a cancel raised on the
/// *shared* budget (SIGINT, serve drain) storms every leg.
///
/// Checkpointing: when `ckpt` is enabled, exactly one leg — the one a
/// `resume` snapshot's stamped leg names, else the first
/// checkpoint-capable leg in schedule order — writes snapshots, stamped
/// with its name as their [`RunStamp::leg`](petri::RunStamp::leg).
#[allow(clippy::too_many_arguments)]
pub fn run_portfolio(
    original: &PetriNet,
    reduction: Option<&Reduction>,
    rules: &str,
    spec: &RunSpec,
    budget: &Budget,
    ckpt: &CheckpointConfig,
    resume: Option<&Snapshot>,
    opts: &PortfolioOptions,
) -> Result<PortfolioOutcome, String> {
    debug_assert_eq!(spec.engine, AUTO);
    let names = opts.leg_names();
    if names.is_empty() {
        return Err("portfolio schedule has no legs".into());
    }
    // the stamped leg resumes from the snapshot and inherits the
    // checkpoint duty; without a resume, the first checkpoint-capable leg
    // in schedule order checkpoints
    let resumed_engine = match resume {
        Some(snap) => {
            check_resume_engine(snap, true)?;
            let leg = snap.stamp.leg.clone().expect("checked above");
            if !names.contains(&leg) {
                return Err(format!(
                    "--resume snapshot belongs to leg `{leg}` which is not in the schedule \
                     ({}); add it via --legs or restart with a fresh --checkpoint",
                    names.join(", ")
                ));
            }
            Some(leg)
        }
        None => None,
    };
    let ckpt_leg = if ckpt.is_disabled() {
        None
    } else {
        resumed_engine.clone().or_else(|| {
            names
                .iter()
                .find(|n| engine::find(n).is_ok_and(|e| e.checkpoint))
                .cloned()
        })
    };

    let mut legs: Vec<LegState> = Vec::new();
    for (stage_idx, stage) in opts.stages.iter().enumerate() {
        for name in stage {
            legs.push(LegState {
                engine: name.clone(),
                stage: stage_idx,
                budget: budget.with_fresh_cancel(),
                launched: None,
                done: None,
                attempts: 0,
                watchdog_fired: false,
            });
        }
    }

    // a fabricated flip only surfaces if a second sound verdict arrives,
    // so the flip hook implies running every leg to completion
    let cross_check_all = opts.cross_check_all || opts.inject_flip.is_some();
    let (tx, rx) = mpsc::channel::<LegDone>();
    let race_start = Instant::now();
    let mut winner: Option<usize> = None;
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();

    let launch = |leg: &mut LegState,
                  idx: usize,
                  attempt: u32,
                  handles: &mut Vec<std::thread::JoinHandle<()>>,
                  tx: &mpsc::Sender<LegDone>| {
        let mut leg_spec = spec.clone();
        leg_spec.engine = leg.engine.clone();
        let leg_ckpt = if ckpt_leg.as_deref() == Some(leg.engine.as_str()) && attempt == 0 {
            let mut cfg = ckpt.clone();
            cfg.stamp.leg = Some(leg.engine.clone());
            cfg
        } else {
            CheckpointConfig::default()
        };
        let leg_resume = if resumed_engine.as_deref() == Some(leg.engine.as_str()) && attempt == 0 {
            resume.cloned()
        } else {
            None
        };
        let leg_budget = leg.budget.clone();
        let net = original.clone();
        let red = reduction.cloned();
        let rules = rules.to_string();
        let o = opts.clone();
        let tx = tx.clone();
        leg.launched = Some(Instant::now());
        leg.attempts = attempt + 1;
        handles.push(std::thread::spawn(move || {
            leg_body(
                &net,
                red.as_ref(),
                &rules,
                leg_spec,
                leg_budget,
                leg_ckpt,
                leg_resume,
                &o,
                idx,
                &tx,
            );
        }));
    };

    // supervisor loop: launch stages on schedule, collect leg results,
    // resolve the first sound verdict, storm the losers, watchdog the
    // stragglers, and propagate an external cancel (SIGINT, serve drain)
    let mut pending = 0usize;
    let mut next_stage = 0usize;
    let mut external_cancel = false;
    let mut disagreement: Option<(usize, usize)> = None;
    loop {
        // launch every stage whose delay has elapsed (immediately once a
        // winner or an external cancel makes hedging pointless)
        while next_stage < opts.stages.len() {
            let due = race_start.elapsed() >= opts.stage_delay * next_stage as u32;
            let racing_over = winner.is_some() || external_cancel;
            if !due && pending > 0 {
                break;
            }
            if racing_over {
                // mark never-launched legs as retired-unlaunched
                next_stage += 1;
                continue;
            }
            let stage = next_stage;
            for (i, leg) in legs.iter_mut().enumerate() {
                if leg.stage == stage {
                    launch(leg, i, 0, &mut handles, &tx);
                    pending += 1;
                }
            }
            next_stage += 1;
        }

        if pending == 0 {
            break;
        }

        // external cancel (shared budget's flag): storm every leg once
        if !external_cancel && budget.cancel.load(std::sync::atomic::Ordering::Relaxed) {
            external_cancel = true;
            for leg in &legs {
                if leg.launched.is_some() && leg.done.is_none() {
                    leg.budget.cancel();
                }
            }
        }

        // watchdog: cancel legs that out-stayed their deadline
        if let Some(wd) = opts.watchdog {
            for leg in legs.iter_mut() {
                if let (Some(started), None, false) = (leg.launched, &leg.done, leg.watchdog_fired)
                {
                    if started.elapsed() >= wd {
                        leg.watchdog_fired = true;
                        leg.budget.cancel();
                    }
                }
            }
        }

        match rx.recv_timeout(Duration::from_millis(10)) {
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Ok(done) => {
                let idx = done.idx;
                pending -= 1;
                let retryable = matches!(done.end, LegEnd::Panicked(_) | LegEnd::Errored(_));
                let sound = matches!(done.end, LegEnd::Sound(_));
                legs[idx].done = Some(done);
                if sound {
                    match winner {
                        None => {
                            winner = Some(idx);
                            if !cross_check_all {
                                // cancel storm: every other running leg loses
                                for (i, leg) in legs.iter().enumerate() {
                                    if i != idx && leg.launched.is_some() && leg.done.is_none() {
                                        leg.budget.cancel();
                                    }
                                }
                            }
                        }
                        Some(w) => {
                            // cross-engine check: a second sound verdict
                            // must agree with the first
                            let a = sound_verdict(&legs[w]);
                            let b = sound_verdict(&legs[idx]);
                            if a != b && disagreement.is_none() {
                                disagreement = Some((w, idx));
                            }
                        }
                    }
                } else if retryable
                    && opts.retry
                    && winner.is_none()
                    && !external_cancel
                    && legs[idx].attempts < 2
                {
                    // retired leg gets one fresh budget slice while the
                    // race is still open
                    let attempt = legs[idx].attempts;
                    legs[idx].budget = budget.with_fresh_cancel();
                    legs[idx].done = None;
                    legs[idx].watchdog_fired = false;
                    launch(&mut legs[idx], idx, attempt, &mut handles, &tx);
                    pending += 1;
                }
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }

    if let Some((a, b)) = disagreement {
        return Err(format!(
            "portfolio disagreement: engine `{}` reports {} but engine `{}` reports {}; \
             failing closed — one of the engines is wrong, re-run each with --engine=<name> \
             to investigate",
            legs[a].engine,
            verdict_phrase(sound_verdict(&legs[a])),
            legs[b].engine,
            verdict_phrase(sound_verdict(&legs[b])),
        ));
    }

    let table = leg_table(&legs, winner);

    if let Some(w) = winner {
        let done = legs[w].done.as_ref().expect("winner finished");
        let report = done.report.clone().expect("sound legs carry a report");
        return Ok(PortfolioOutcome {
            report,
            legs: table,
        });
    }

    // no sound verdict: degrade to the partial result with the highest
    // coverage (most states stored) — its witnesses and stats are still a
    // sound prefix of the space
    let best = legs
        .iter()
        .enumerate()
        .filter(|(_, l)| l.done.as_ref().is_some_and(|d| d.report.is_some()))
        .max_by_key(|(_, l)| {
            l.done
                .as_ref()
                .and_then(|d| d.report.as_ref())
                .map_or(0, |r| r.states)
        })
        .map(|(i, _)| i);
    match best {
        Some(i) => {
            let mut report = legs[i]
                .done
                .as_ref()
                .and_then(|d| d.report.clone())
                .expect("filtered on report presence");
            if external_cancel {
                report.exhausted = Some(ExhaustionReason::Cancelled);
            }
            Ok(PortfolioOutcome {
                report,
                legs: table,
            })
        }
        None => {
            let failures: Vec<String> = legs
                .iter()
                .map(|l| match &l.done {
                    Some(d) => match &d.end {
                        LegEnd::Panicked(m) => format!("{} panicked: {m}", l.engine),
                        LegEnd::Errored(m) => format!("{} errored: {m}", l.engine),
                        _ => format!("{} retired", l.engine),
                    },
                    None => format!("{} never launched", l.engine),
                })
                .collect();
            Err(format!(
                "every portfolio leg failed: {}",
                failures.join("; ")
            ))
        }
    }
}

fn sound_verdict(leg: &LegState) -> Verdict {
    match leg.done.as_ref().map(|d| &d.end) {
        Some(LegEnd::Sound(v)) => *v,
        _ => Verdict::Inconclusive { frontier: 0 },
    }
}

fn verdict_phrase(v: Verdict) -> &'static str {
    match v {
        Verdict::DeadlockFree => "verified (no goal marking)",
        Verdict::HasDeadlock => "a witness (goal marking found)",
        Verdict::Inconclusive { .. } => "inconclusive",
    }
}

/// Renders the per-leg table rows in schedule order.
fn leg_table(legs: &[LegState], winner: Option<usize>) -> Vec<LegReport> {
    legs.iter()
        .enumerate()
        .map(|(i, leg)| {
            let (outcome, why, states, wall) = match &leg.done {
                None => (
                    "not-launched".to_string(),
                    "race resolved before its stage launched".to_string(),
                    0,
                    Duration::ZERO,
                ),
                Some(d) => {
                    let states = d.report.as_ref().map_or(0, |r| r.states);
                    match &d.end {
                        LegEnd::Sound(_) if winner == Some(i) => {
                            ("won".to_string(), String::new(), states, d.wall)
                        }
                        LegEnd::Sound(_) => (
                            "lost".to_string(),
                            "sound but slower than the winner".to_string(),
                            states,
                            d.wall,
                        ),
                        LegEnd::Partial(reason) => {
                            let why = match reason {
                                Some(ExhaustionReason::Cancelled) if leg.watchdog_fired => {
                                    "watchdog deadline".to_string()
                                }
                                Some(ExhaustionReason::Cancelled) => {
                                    "cancelled (race resolved)".to_string()
                                }
                                Some(r) => format!("budget: {r}"),
                                None => "inconclusive".to_string(),
                            };
                            ("partial".to_string(), why, states, d.wall)
                        }
                        LegEnd::Panicked(m) => ("panicked".to_string(), m.clone(), states, d.wall),
                        LegEnd::Errored(m) => ("error".to_string(), m.clone(), states, d.wall),
                    }
                }
            };
            LegReport {
                engine: leg.engine.clone(),
                outcome,
                states,
                wall,
                why,
                attempts: leg.attempts,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_parser_accepts_slash_and_comma() {
        let s = PortfolioOptions::parse_stages("po,gpo/full").unwrap();
        assert_eq!(s, vec![vec!["po", "gpo"], vec!["full"]]);
        assert!(PortfolioOptions::parse_stages("po,po").is_err(), "dup leg");
        assert!(PortfolioOptions::parse_stages("classes").is_err());
        assert!(PortfolioOptions::parse_stages("").is_err());
        assert!(PortfolioOptions::parse_stages("po//full").is_err());
    }

    #[test]
    fn resume_engine_check_fails_closed_both_ways() {
        use petri::EngineKind;
        let net = models::nsdp(2);
        let mut solo = Snapshot::new(EngineKind::GpoExplicit, &net);
        // auto + unstamped solo snapshot: rejected, naming both engines
        let err = check_resume_engine(&solo, true).unwrap_err();
        assert!(err.contains("--engine=auto"), "{err}");
        assert!(err.contains("gpo"), "{err}");
        // solo + portfolio snapshot: rejected the other way
        solo.stamp = petri::RunStamp {
            leg: Some("po".into()),
            ..petri::RunStamp::default()
        };
        let err = check_resume_engine(&solo, false).unwrap_err();
        assert!(err.contains("--engine=auto"), "{err}");
        assert!(err.contains("po"), "{err}");
        // matching directions pass
        assert!(check_resume_engine(&solo, true).is_ok());
        let fresh = Snapshot::new(EngineKind::Full, &net);
        assert!(check_resume_engine(&fresh, false).is_ok());
    }

    #[test]
    fn resume_of_a_kind_no_engine_resumes_says_restart() {
        use petri::EngineKind;
        let net = models::nsdp(2);
        let explicit = Snapshot::new(EngineKind::GpoExplicit, &net);
        let err = check_resume_engine(&explicit, true).unwrap_err();
        assert!(err.contains("gpo (explicit families)"), "{err}");
        assert!(err.contains("no current engine resumes"), "{err}");
        assert!(err.contains("restart without --resume"), "{err}");
        assert!(!err.contains("pass --engine="), "{err}");
        // a current kind still names the solo engine to pass
        let zdd = Snapshot::new(EngineKind::GpoZdd, &net);
        let err = check_resume_engine(&zdd, true).unwrap_err();
        assert!(err.contains("pass --engine=gpo to resume it"), "{err}");
    }
}
