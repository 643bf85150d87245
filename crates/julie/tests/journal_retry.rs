//! Fault-injection tests for the serve journal's retry path: a transient
//! checkpoint-write failure (armed via `petri::checkpoint::fault`) must
//! be absorbed by the bounded retry loop, and a persistent failure must
//! surface after the attempts are spent — admission never acknowledges a
//! spec that is not durable.

use std::path::{Path, PathBuf};

use julie::serve::job::{self, JobResult, JobSpec, JobState};
use petri::checkpoint::fault;

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("julie-journal-{label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_spec() -> JobSpec {
    let net = models::nsdp(2);
    JobSpec {
        id: "j000001".into(),
        net_text: petri::to_text(&net),
        net_name: net.name().to_string(),
        fingerprint: net.fingerprint(),
        engine: "po".into(),
        zdd: false,
        property: "EF deadlock".into(),
        witnesses: 1,
        threads: 1,
        max_states: 1000,
        mem_limit_mb: 0,
        timeout_secs: 0,
    }
}

/// One injected temp-file write failure: the retry absorbs it and the
/// journaled spec round-trips intact.
#[test]
fn spec_write_retries_a_transient_tmp_write_fault() {
    let dir = temp_dir("spec-tmp");
    let spec = sample_spec();
    fault::arm(fault::STAGE_TMP_WRITE);
    job::write_spec(&dir, &spec).expect("one transient fault is absorbed");
    fault::disarm();
    let read = job::read_spec(&dir).expect("journal readable after retry");
    assert_eq!(read.id, spec.id);
    assert_eq!(read.engine, spec.engine);
    assert_eq!(read.fingerprint, spec.fingerprint);
    std::fs::remove_dir_all(&dir).ok();
}

/// One injected rename-window failure on the result journal: the retry
/// absorbs it and the terminal record — including the portfolio winner —
/// round-trips intact.
#[test]
fn result_write_retries_a_transient_rename_fault() {
    let dir = temp_dir("result-rename");
    let spec = sample_spec();
    job::write_spec(&dir, &spec).unwrap();
    let result = JobResult {
        state: JobState::Done,
        report_json: Some("{\"verdict\":\"deadlock\"}".into()),
        error: None,
        winner: Some("po".into()),
    };
    fault::arm(fault::STAGE_RENAME);
    job::write_result(&dir, spec.fingerprint, &result).expect("one transient fault is absorbed");
    fault::disarm();
    let read = job::read_result(&dir).expect("journal readable after retry");
    assert_eq!(read.state, JobState::Done);
    assert_eq!(read.winner.as_deref(), Some("po"));
    assert_eq!(read.report_json, result.report_json);
    std::fs::remove_dir_all(&dir).ok();
}

/// A persistent failure (the job directory does not exist, so every
/// temp-file create fails) exhausts the retries and surfaces an error
/// naming the attempt budget.
#[test]
fn persistent_write_failure_surfaces_after_the_retry_budget() {
    let dir = Path::new("/nonexistent/julie-journal-test");
    let result = JobResult {
        state: JobState::Failed,
        report_json: None,
        error: Some("boom".into()),
        winner: None,
    };
    let err = job::write_result(dir, 0, &result).expect_err("no directory, no journal");
    assert!(err.contains("after 3 attempts"), "{err}");
}

/// The retry counter behind `julie_journal_retries_total` rises when a
/// transient fault is absorbed.
#[test]
fn an_absorbed_fault_counts_as_a_journal_retry() {
    let dir = temp_dir("retry-count");
    let before = job::journal_retries();
    fault::arm(fault::STAGE_TMP_WRITE);
    job::write_spec(&dir, &sample_spec()).expect("one transient fault is absorbed");
    fault::disarm();
    assert!(job::journal_retries() > before, "no retry counted");
    std::fs::remove_dir_all(&dir).ok();
}
