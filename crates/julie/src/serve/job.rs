//! Job specs, states, and the on-disk journal of `julie serve`.
//!
//! Every accepted job owns a directory `<data-dir>/jobs/<id>/` holding up
//! to three files, all written through [`petri::write_checkpoint`] (atomic
//! rename, fsync, per-section CRC-32):
//!
//! * `spec.job` — the admitted submission, journaled *before* the server
//!   acknowledges it. A restarted server re-queues every job that has a
//!   spec but no result.
//! * `run.ckpt` — the engine's periodic snapshot (checkpointing engines only),
//!   whose [`RunStamp::job`](petri::RunStamp::job) names the job, so a
//!   snapshot is only resumed inside the job it belongs to.
//! * `result.job` — the terminal state plus the final report, written
//!   exactly once. Its presence makes the job immune to re-runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use petri::checkpoint::write_checkpoint;
use petri::{parse_net, CheckpointError, EngineKind, PetriNet, RunStamp, Snapshot, StampedJob};

use crate::engine::{check_selector, DEFAULT_ENGINE};
use crate::json::Json;

/// Section tag for the serialized job spec inside `spec.job`.
pub const SPEC_SECTION: u32 = 0x5350_4543; // "SPEC"
/// Section tag for the serialized terminal result inside `result.job`.
pub const RESULT_SECTION: u32 = 0x5253_4C54; // "RSLT"

/// An admitted verification job, exactly as journaled. A `zdd` field in a
/// submission or an older journal is ignored: gpo always runs on ZDD
/// families.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Server-assigned id, `j%06d`.
    pub id: String,
    /// The net, in `.net` text form (re-parsed on recovery).
    pub net_text: String,
    /// Net name, for status displays.
    pub net_name: String,
    /// Net fingerprint — results-cache key and snapshot validation.
    pub fingerprint: u64,
    /// Engine selector: a name from [`crate::engine::ENGINES`], or `auto`.
    pub engine: String,
    /// The property to verify, in canonical text form (validated and
    /// canonicalized at admission; default `EF deadlock`).
    pub property: String,
    /// Deadlock witnesses to report.
    pub witnesses: usize,
    /// Worker threads inside the engine.
    pub threads: usize,
    /// Admitted state budget.
    pub max_states: usize,
    /// Admitted memory budget in MiB (0 = uncapped).
    pub mem_limit_mb: usize,
    /// Admitted wall-clock budget in seconds (0 = none).
    pub timeout_secs: u64,
}

impl JobSpec {
    /// Validates a `POST /jobs` body against the server's admission caps
    /// and builds the spec. Returns the parsed net alongside so admission
    /// can reject unparseable nets before journaling anything.
    pub fn from_submission(
        body: &Json,
        id: String,
        max_job_states: usize,
    ) -> Result<(JobSpec, PetriNet), String> {
        let net_text = body
            .get("net")
            .and_then(Json::as_str)
            .ok_or("missing required string field `net`")?
            .to_string();
        let net = parse_net(&net_text).map_err(|e| format!("bad net: {e}"))?;
        let engine = body
            .get("engine")
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or("field `engine` must be a string")
            })
            .transpose()?
            .unwrap_or_else(|| DEFAULT_ENGINE.to_string());
        check_selector(&engine)?;
        let uint = |key: &str, default: usize| -> Result<usize, String> {
            match body.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
            }
        };
        let max_states = uint("max_states", max_job_states)?;
        if max_states == 0 || max_states > max_job_states {
            return Err(format!(
                "max_states {max_states} outside the admitted range 1..={max_job_states}"
            ));
        }
        // properties are validated (and name-resolved against the net) at
        // admission, then journaled in canonical form so the cache key and
        // every worker agree on the spelling
        let property = match body.get("property") {
            None => petri::Property::deadlock(),
            Some(p) => {
                let text = p.as_str().ok_or("field `property` must be a string")?;
                let parsed =
                    petri::Property::parse(text).map_err(|e| format!("bad property: {e}"))?;
                parsed
                    .compile(&net)
                    .map_err(|e| format!("bad property: {e}"))?;
                parsed
            }
        };
        let spec = JobSpec {
            id,
            net_name: net.name().to_string(),
            fingerprint: net.fingerprint(),
            engine,
            property: property.to_string(),
            witnesses: uint("witnesses", 1)?,
            threads: uint("threads", 1)?.max(1),
            max_states,
            mem_limit_mb: uint("mem_limit_mb", 0)?,
            timeout_secs: uint("timeout_secs", 0)? as u64,
            net_text,
        };
        Ok((spec, net))
    }

    /// The cooperative budget this job was admitted under, wired to the
    /// job's own cancel flag so DELETE / disconnect / drain can stop it.
    pub fn budget(&self, cancel: Arc<AtomicBool>) -> petri::Budget {
        let mut b = petri::Budget::default().cap_states(self.max_states);
        if self.mem_limit_mb > 0 {
            b = b.cap_bytes(self.mem_limit_mb.saturating_mul(1024 * 1024));
        }
        if self.timeout_secs > 0 {
            b = b.with_timeout(std::time::Duration::from_secs(self.timeout_secs));
        }
        b.cancel = cancel;
        b
    }

    /// The job stamped into every engine snapshot of this job.
    pub fn stamp(&self) -> StampedJob {
        StampedJob {
            id: self.id.clone(),
            max_states: self.max_states as u64,
            max_bytes: if self.mem_limit_mb == 0 {
                u64::MAX
            } else {
                (self.mem_limit_mb as u64).saturating_mul(1024 * 1024)
            },
            timeout_secs: self.timeout_secs,
        }
    }

    /// Results-cache key, or `None` when the job must not be cached: a
    /// wall-clock budget makes the outcome timing-dependent.
    pub fn cache_key(&self) -> Option<String> {
        self.cache_key_as(&self.engine)
    }

    /// The cache key this job would have under another engine selector.
    /// An `engine=auto` job stores its winner's solo-shaped report under
    /// *both* the auto key and the winner's key, so a later solo
    /// submission of the resolved engine is a cache hit too.
    pub fn cache_key_as(&self, engine: &str) -> Option<String> {
        if self.timeout_secs > 0 {
            return None;
        }
        Some(format!(
            "{:016x}/{}/s={}/m={}/t={}/w={}/p={}",
            self.fingerprint,
            engine,
            self.max_states,
            self.mem_limit_mb,
            self.threads,
            self.witnesses,
            self.property
        ))
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::str(&self.id)),
            ("net".into(), Json::str(&self.net_text)),
            ("net_name".into(), Json::str(&self.net_name)),
            ("engine".into(), Json::str(&self.engine)),
            ("property".into(), Json::str(&self.property)),
            ("witnesses".into(), Json::num(self.witnesses)),
            ("threads".into(), Json::num(self.threads)),
            ("max_states".into(), Json::num(self.max_states)),
            ("mem_limit_mb".into(), Json::num(self.mem_limit_mb)),
            ("timeout_secs".into(), Json::num(self.timeout_secs as usize)),
        ])
    }

    fn from_json(j: &Json) -> Result<JobSpec, String> {
        let s = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("spec field `{key}` missing or not a string"))
        };
        let n = |key: &str| -> Result<usize, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("spec field `{key}` missing or not an integer"))
        };
        let net_text = s("net")?;
        let net =
            parse_net(&net_text).map_err(|e| format!("journaled net no longer parses: {e}"))?;
        Ok(JobSpec {
            id: s("id")?,
            net_name: s("net_name")?,
            fingerprint: net.fingerprint(),
            engine: s("engine")?,
            // journals written before properties existed default to the
            // classic deadlock check
            property: j
                .get("property")
                .and_then(Json::as_str)
                .unwrap_or("EF deadlock")
                .to_string(),
            witnesses: n("witnesses")?,
            threads: n("threads")?,
            max_states: n("max_states")?,
            mem_limit_mb: n("mem_limit_mb")?,
            timeout_secs: n("timeout_secs")? as u64,
            net_text,
        })
    }

    /// Re-parses the journaled net text.
    pub fn parse_net(&self) -> Result<PetriNet, String> {
        parse_net(&self.net_text).map_err(|e| e.to_string())
    }
}

/// Lifecycle of a job. `Interrupted` is an in-memory transition state
/// only (a drain stopped the run mid-way); it is never journaled — on
/// restart the job simply has no result and is re-queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and journaled, waiting for a worker.
    Queued,
    /// A worker is running the engine.
    Running,
    /// Terminal: the engine finished (verdict may still be inconclusive).
    Done,
    /// Terminal: the engine errored or the worker panicked.
    Failed,
    /// Terminal: cancelled by DELETE, client disconnect, or shutdown.
    Cancelled,
}

impl JobState {
    /// Wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    fn from_str(s: &str) -> Result<JobState, String> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            other => return Err(format!("unknown journaled job state `{other}`")),
        })
    }
}

/// The terminal record journaled to `result.job`.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Terminal state (`Done`, `Failed` or `Cancelled`).
    pub state: JobState,
    /// The rendered report JSON, when the engine produced one. Shared,
    /// so the job table and the results cache hold one copy.
    pub report_json: Option<Arc<str>>,
    /// The failure / cancellation message, when there is one.
    pub error: Option<String>,
    /// For `engine=auto` jobs: the solo engine that won the race. The
    /// journaled report is the winner's solo-shaped report, so replaying
    /// the journal reproduces it byte-for-byte.
    pub winner: Option<String>,
}

impl JobResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("state".to_string(), Json::str(self.state.as_str())),
            (
                "report".to_string(),
                match &self.report_json {
                    Some(r) => Json::Raw(r.to_string()),
                    None => Json::Null,
                },
            ),
            (
                "error".to_string(),
                match &self.error {
                    Some(e) => Json::str(e),
                    None => Json::Null,
                },
            ),
        ];
        if let Some(w) = &self.winner {
            fields.push(("winner".to_string(), Json::str(w)));
        }
        Json::Obj(fields)
    }

    fn from_json(j: &Json) -> Result<JobResult, String> {
        let state = JobState::from_str(
            j.get("state")
                .and_then(Json::as_str)
                .ok_or("result field `state` missing")?,
        )?;
        let report_json = match j.get("report") {
            Some(Json::Null) | None => None,
            Some(r) => Some(r.render().into()),
        };
        let error = j.get("error").and_then(Json::as_str).map(str::to_string);
        // journals written before the portfolio existed have no winner
        let winner = j.get("winner").and_then(Json::as_str).map(str::to_string);
        Ok(JobResult {
            state,
            report_json,
            error,
            winner,
        })
    }
}

/// The directory holding one job's journal files.
pub fn job_dir(data_dir: &Path, id: &str) -> PathBuf {
    data_dir.join("jobs").join(id)
}

/// Path of the journaled spec inside a job directory.
pub fn spec_path(dir: &Path) -> PathBuf {
    dir.join("spec.job")
}

/// Path of the engine checkpoint inside a job directory.
pub fn ckpt_path(dir: &Path) -> PathBuf {
    dir.join("run.ckpt")
}

/// Path of the journaled terminal result inside a job directory.
pub fn result_path(dir: &Path) -> PathBuf {
    dir.join("result.job")
}

/// How many times a journal write is attempted before the failure is
/// surfaced to admission / the worker.
const JOURNAL_ATTEMPTS: u32 = 3;

/// Journal write attempts that followed a failed attempt.
static JOURNAL_RETRIES: AtomicU64 = AtomicU64::new(0);

/// How many journal writes this process has attempted again after a
/// failed attempt (`julie_journal_retries_total`).
pub fn journal_retries() -> u64 {
    JOURNAL_RETRIES.load(Ordering::Relaxed)
}

/// Deterministic jitter in milliseconds for retry `attempt` on `path`,
/// derived from a hash so concurrent writers don't retry in lockstep
/// (the tree has no `rand` dependency).
fn retry_jitter_ms(path: &Path, attempt: u32) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    path.hash(&mut h);
    attempt.hash(&mut h);
    h.finish() % 8
}

/// Wraps a JSON document into a one-section snapshot file. The envelope's
/// engine tag is irrelevant for journal files; `Full` is used throughout.
///
/// Transient filesystem failures (a full tmpfs flushing, an interrupted
/// rename, an injected fault) are retried with exponential backoff and
/// jitter before the admission / worker path sees an error: journal
/// durability is the one thing the server cannot degrade around.
fn journal_write(path: &Path, fingerprint: u64, tag: u32, doc: &Json) -> Result<(), String> {
    let mut snap = Snapshot {
        engine: EngineKind::Full,
        fingerprint,
        stamp: RunStamp::default(),
        sections: Vec::new(),
    };
    snap.push_section(tag, doc.render().into_bytes());
    let mut last_err = String::new();
    for attempt in 0..JOURNAL_ATTEMPTS {
        if attempt > 0 {
            JOURNAL_RETRIES.fetch_add(1, Ordering::Relaxed);
            let backoff = 10u64 << (attempt - 1);
            std::thread::sleep(std::time::Duration::from_millis(
                backoff + retry_jitter_ms(path, attempt),
            ));
        }
        match write_checkpoint(path, &snap) {
            Ok(()) => return Ok(()),
            Err(e) => last_err = e.to_string(),
        }
    }
    Err(format!(
        "cannot journal `{}` after {JOURNAL_ATTEMPTS} attempts: {last_err}",
        path.display()
    ))
}

fn journal_read(path: &Path, tag: u32) -> Result<Json, String> {
    // the spec and result sections have kept their layout since format 1,
    // so a server upgraded across a format bump keeps its journaled jobs
    let snap = std::fs::read(path)
        .map_err(CheckpointError::Io)
        .and_then(|bytes| Snapshot::from_bytes_since(&bytes, 1))
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let payload = snap
        .require_section(tag)
        .map_err(|e| format!("`{}`: {e}", path.display()))?;
    let text = std::str::from_utf8(payload)
        .map_err(|_| format!("`{}`: journal payload is not UTF-8", path.display()))?;
    Json::parse(text).map_err(|e| format!("`{}`: {e}", path.display()))
}

/// Journals an admitted spec (atomic, checksummed). Called before the
/// submission is acknowledged.
pub fn write_spec(dir: &Path, spec: &JobSpec) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    journal_write(
        &spec_path(dir),
        spec.fingerprint,
        SPEC_SECTION,
        &spec.to_json(),
    )
}

/// Loads a journaled spec.
pub fn read_spec(dir: &Path) -> Result<JobSpec, String> {
    JobSpec::from_json(&journal_read(&spec_path(dir), SPEC_SECTION)?)
}

/// Journals a terminal result (atomic, checksummed, written once).
pub fn write_result(dir: &Path, fingerprint: u64, result: &JobResult) -> Result<(), String> {
    journal_write(
        &result_path(dir),
        fingerprint,
        RESULT_SECTION,
        &result.to_json(),
    )
}

/// Loads a journaled terminal result.
pub fn read_result(dir: &Path) -> Result<JobResult, String> {
    JobResult::from_json(&journal_read(&result_path(dir), RESULT_SECTION)?)
}
