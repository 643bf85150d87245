//! The worker pool of `julie serve`: each worker claims queued jobs,
//! drives the shared engine runner under the job's own budget, and
//! journals the terminal result. A panicking engine fails only its job —
//! the worker catches the unwind, marks the job `failed`, and keeps
//! serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use petri::checkpoint::read_checkpoint_with_fallback;
use petri::{CheckpointConfig, EngineKind, ExhaustionReason, ReachabilityGraph, Snapshot};

use crate::engine::{run_engine, RunSpec};
use crate::portfolio::{run_portfolio, PortfolioOptions, AUTO};

use super::job::{self, JobResult, JobSpec, JobState};
use super::store::Store;

/// How a claimed job left the worker.
enum JobOutcome {
    /// Terminal: journal this result.
    Finished(JobResult),
    /// A drain stopped the run mid-way; the engine checkpointed and the
    /// job stays queued (journal untouched) for the next boot.
    Interrupted,
}

/// Runs until the store drains. One call per worker thread.
pub fn worker_loop(store: Arc<Store>, checkpoint_every: usize) {
    while let Some((id, spec, cancel)) = store.next_job() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_job(&store, &id, &spec, cancel.clone(), checkpoint_every)
        }));
        match outcome {
            Ok(JobOutcome::Finished(result)) => {
                if let Err(e) = store.finish(&id, result) {
                    // the result could not be journaled; the job will be
                    // re-run on the next boot, which is the safe direction
                    eprintln!("julie serve: job {id}: {e}");
                }
            }
            Ok(JobOutcome::Interrupted) => store.interrupt(&id),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let _ = store.finish(
                    &id,
                    JobResult {
                        state: JobState::Failed,
                        report_json: None,
                        error: Some(format!("worker panicked: {msg}")),
                        winner: None,
                    },
                );
            }
        }
        heap::release_freed_memory();
    }
}

/// Handing freed heap memory back to the OS. glibc keeps the memory a job
/// frees resident in its worker's arena, so without this every worker
/// would hold the high-water mark of the largest job it ever ran (gpo on
/// NSDP(6) leaves ~13 MB).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod heap {
    use std::os::raw::c_long;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// How far the resident set may grow past its lowest size after a job
    /// before a worker trims.
    const TRIM_AFTER_GROWTH: usize = 8 << 20;

    /// The lowest resident set seen after a job since the last trim.
    static LOW: AtomicUsize = AtomicUsize::new(usize::MAX);

    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
        fn sysconf(name: i32) -> c_long;
    }

    /// Trims glibc's arenas once the resident set has grown
    /// [`TRIM_AFTER_GROWTH`] past its low. Trimming after every job
    /// instead makes every job fault its heap back in, kernel work whose
    /// cost swings with the host's load.
    pub fn release_freed_memory() {
        let Some(now) = resident_bytes() else {
            return;
        };
        if !grown_past_low(&LOW, now) {
            return;
        }
        // SAFETY: malloc_trim takes no pointers; it walks glibc's own
        // arenas under their locks and accepts any padding.
        unsafe {
            malloc_trim(0);
        }
        LOW.store(resident_bytes().unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// Records `now` in `low` and says whether `now` lies at least
    /// [`TRIM_AFTER_GROWTH`] above the lowest value recorded.
    fn grown_past_low(low: &AtomicUsize, now: usize) -> bool {
        let low = low.fetch_min(now, Ordering::Relaxed).min(now);
        now - low >= TRIM_AFTER_GROWTH
    }

    /// The process's resident set in bytes, from `/proc/self/statm`.
    fn resident_bytes() -> Option<usize> {
        // glibc's `_SC_PAGESIZE`
        const SC_PAGESIZE: i32 = 30;
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let pages: usize = statm.split_whitespace().nth(1)?.parse().ok()?;
        // SAFETY: sysconf takes no pointers and accepts any name.
        let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).ok()?;
        pages.checked_mul(page)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const MIB: usize = 1 << 20;

        #[test]
        fn trims_once_the_resident_set_grew_past_its_low() {
            let low = AtomicUsize::new(usize::MAX);
            assert!(!grown_past_low(&low, 20 * MIB), "the first size is the low");
            assert!(!grown_past_low(&low, 27 * MIB));
            assert!(!grown_past_low(&low, 12 * MIB), "a new low");
            assert!(grown_past_low(&low, 20 * MIB));
        }

        #[test]
        fn resident_bytes_counts_touched_memory_in_bytes() {
            let before = resident_bytes().expect("statm is readable");
            let block = std::hint::black_box(vec![1u8; 64 * MIB]);
            let after = resident_bytes().expect("statm is readable");
            assert!(after >= before + 32 * MIB, "{before} -> {after}");
            drop(block);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod heap {
    /// Off glibc the allocator's own policy applies.
    pub fn release_freed_memory() {}
}

/// Loads the job's engine snapshot when one exists *and* provably belongs
/// to this job under the same budget (via its stamped
/// [`job`](petri::RunStamp::job)). Anything else — missing, torn beyond
/// the `.prev` fallback, foreign, another format version, or of a kind no
/// engine writes any more — means starting from the initial marking,
/// which is always sound.
fn load_resume(spec: &JobSpec, dir: &std::path::Path) -> Option<Snapshot> {
    let path = job::ckpt_path(dir);
    if !path.exists() {
        return None;
    }
    let snap = read_checkpoint_with_fallback(&path).ok()?;
    // gpo runs on ZDD families only: an explicit-family snapshot from an
    // older build would fail the engine check instead of resuming; so
    // would a full snapshot an older build wrote with edges and no origins
    let current =
        snap.engine != EngineKind::GpoExplicit && !ReachabilityGraph::is_outdated_snapshot(&snap);
    (current && snap.stamp.job.as_ref() == Some(&spec.stamp())).then_some(snap)
}

fn run_job(
    store: &Store,
    id: &str,
    spec: &JobSpec,
    cancel: Arc<AtomicBool>,
    checkpoint_every: usize,
) -> JobOutcome {
    let fail = |msg: String| {
        JobOutcome::Finished(JobResult {
            state: JobState::Failed,
            report_json: None,
            error: Some(msg),
            winner: None,
        })
    };
    let net = match spec.parse_net() {
        Ok(n) => n,
        Err(e) => return fail(format!("journaled net no longer parses: {e}")),
    };
    let property = match petri::Property::parse(&spec.property) {
        Ok(p) => p,
        Err(e) => return fail(format!("journaled property no longer parses: {e}")),
    };
    let run = RunSpec {
        engine: spec.engine.clone(),
        zdd: false,
        witnesses: spec.witnesses,
        threads: spec.threads,
        property,
    };
    let dir = job::job_dir(&store.data_dir, id);
    let (ckpt, resume) = if run.supports_checkpoint() {
        let mut cfg = CheckpointConfig::periodic(job::ckpt_path(&dir), checkpoint_every);
        cfg.stamp.job = Some(spec.stamp());
        (cfg, load_resume(spec, &dir))
    } else {
        (CheckpointConfig::default(), None)
    };
    let budget = spec.budget(cancel);
    // engine=auto races the default portfolio schedule; the outcome's
    // report is the winner's solo-shaped report, journaled exactly as a
    // solo run of that engine would have been — recovery after a crash or
    // a cache replay reproduces it byte-for-byte
    let (ran, winner) = if spec.engine == AUTO {
        let opts = PortfolioOptions::default();
        match run_portfolio(&net, None, "", &run, &budget, &ckpt, resume.as_ref(), &opts) {
            Ok(outcome) => {
                // only a sound verdict is attributable to the winning
                // engine; a degraded best-coverage partial is not what a
                // solo run would have produced, so it seeds no solo key
                let winner = if outcome.report.verdict.is_sound() {
                    Some(outcome.report.engine.clone())
                } else {
                    None
                };
                (Ok(outcome.report), winner)
            }
            Err(e) => (Err(e), None),
        }
    } else {
        (
            run_engine(&net, None, "", &run, &budget, &ckpt, resume.as_ref()),
            None,
        )
    };
    match ran {
        Ok(report) => {
            if report.exhausted == Some(ExhaustionReason::Cancelled) {
                if store.user_cancelled(id) {
                    return JobOutcome::Finished(JobResult {
                        state: JobState::Cancelled,
                        report_json: Some(report.to_json().render().into()),
                        error: Some("cancelled".into()),
                        winner: None,
                    });
                }
                // a drain tripped the budget: the engine already wrote its
                // final snapshot, so the job resumes on the next boot
                return JobOutcome::Interrupted;
            }
            JobOutcome::Finished(JobResult {
                state: JobState::Done,
                report_json: Some(report.to_json().render().into()),
                error: None,
                winner,
            })
        }
        Err(e) => fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use petri::{RunStamp, StampedJob};

    /// A moved or copied `run.ckpt` must not resume: only a snapshot
    /// stamped for this job id and budget, in this build's format and of a
    /// kind some engine still writes, does.
    #[test]
    fn load_resume_ignores_foreign_snapshots() {
        let dir = std::env::temp_dir().join(format!("julie-load-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body =
            Json::parse(r#"{"net": "net n\npl p *\npl q\ntr go : p -> q\n", "max_states": 50}"#)
                .unwrap();
        let (spec, net) = JobSpec::from_submission(&body, "j000003".into(), 100).unwrap();
        let stamped = |job: Option<StampedJob>| {
            let mut snap = Snapshot::new(EngineKind::Full, &net);
            snap.stamp = RunStamp {
                job,
                ..RunStamp::default()
            };
            snap.to_bytes()
        };
        let resumes = |bytes: Vec<u8>| {
            std::fs::write(job::ckpt_path(&dir), bytes).unwrap();
            load_resume(&spec, &dir).is_some()
        };
        let ours = spec.stamp();
        assert!(load_resume(&spec, &dir).is_none(), "no snapshot yet");
        assert!(resumes(stamped(Some(ours.clone()))), "this job and budget");
        let other_job = StampedJob {
            id: "j000004".into(),
            ..ours.clone()
        };
        assert!(!resumes(stamped(Some(other_job))), "another job id");
        let other_budget = StampedJob {
            max_states: 51,
            ..ours.clone()
        };
        assert!(!resumes(stamped(Some(other_budget))), "another budget");
        assert!(!resumes(stamped(None)), "unstamped");
        let mut old = stamped(Some(ours.clone()));
        old[8..12].copy_from_slice(&1u32.to_le_bytes()); // the format version
        assert!(!resumes(old), "another format version");
        let mut gpo = Snapshot::new(EngineKind::GpoZdd, &net);
        gpo.stamp = RunStamp {
            job: Some(ours),
            ..RunStamp::default()
        };
        assert!(resumes(gpo.to_bytes()), "gpo on ZDD families");
        gpo.engine = EngineKind::GpoExplicit;
        assert!(
            !resumes(gpo.to_bytes()),
            "gpo on explicit families, which no engine writes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A full snapshot with recorded edges and no origins comes from the
    /// build before the packed state table, which `--resume` refuses: the
    /// job restarts from the initial marking instead of failing.
    #[test]
    fn load_resume_restarts_full_snapshots_without_origins() {
        let dir = std::env::temp_dir().join(format!("julie-load-origins-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body =
            Json::parse(r#"{"net": "net n\npl p *\npl q\ntr go : p -> q\n", "engine": "full", "max_states": 1}"#)
                .unwrap();
        let (spec, net) = JobSpec::from_submission(&body, "j000007".into(), 100).unwrap();
        let budget = petri::Budget::default().cap_states(1);
        let opts = petri::ExploreOptions {
            record_edges: true,
            threads: 1,
        };
        let partial =
            ReachabilityGraph::explore(&net, &opts, &budget, &CheckpointConfig::default(), None)
                .unwrap()
                .into_value();
        let mut current = partial.to_snapshot(&net, true);
        current.stamp = RunStamp {
            job: Some(spec.stamp()),
            ..RunStamp::default()
        };
        let mut outdated = Snapshot::new(EngineKind::Full, &net);
        outdated.stamp = current.stamp.clone();
        for tag in 1..=5 {
            outdated.push_section(tag, current.section(tag).unwrap().to_vec());
        }
        assert!(ReachabilityGraph::is_outdated_snapshot(&outdated));
        for (snap, resumes) in [(&current, true), (&outdated, false)] {
            std::fs::write(job::ckpt_path(&dir), snap.to_bytes()).unwrap();
            assert_eq!(load_resume(&spec, &dir).is_some(), resumes);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
