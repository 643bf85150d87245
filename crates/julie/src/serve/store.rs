//! The in-memory job table of `julie serve`, backed by the on-disk
//! journal in [`super::job`]. All mutation goes through one mutex. Two
//! condvars wake its waiters: `work` wakes workers when jobs are queued
//! or a drain begins, and `changed` wakes `/wait` streams whenever a job
//! changes state.
//!
//! Admission control: `queued + running >= queue_bound` rejects the
//! submission *before* anything is journaled — the caller turns that into
//! `503 + Retry-After`. Admitted submissions are journaled first and
//! acknowledged second, so an acknowledged job is always recoverable.
//!
//! Memory: a terminal job drops its net text, which its journaled
//! `spec.job` keeps for recovery, and each distinct report is one
//! `Arc<str>` shared by the job table and the results cache.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::json::Json;

use super::job::{self, JobResult, JobSpec, JobState};
use super::metrics::Metrics;

/// One tracked job.
pub struct Job {
    /// The admitted, journaled spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Rendered report JSON once the engine finished, shared with the
    /// results cache.
    pub report_json: Option<Arc<str>>,
    /// Failure / cancellation message.
    pub error: Option<String>,
    /// The budget cancel flag shared with the running engine.
    pub cancel: Arc<AtomicBool>,
    /// Set when DELETE or a client disconnect asked for cancellation (as
    /// opposed to a drain, which interrupts without cancelling).
    pub user_cancelled: bool,
    /// Whether the result came from the fingerprint cache.
    pub cached: bool,
}

/// Outcome of a submission attempt.
pub enum Admission {
    /// Journaled and queued (or served from the results cache).
    Accepted {
        /// The assigned job id.
        id: String,
        /// True when the cache short-circuited the run.
        cached: bool,
    },
    /// The queue bound is reached; retry later.
    OverCapacity,
    /// The server is draining; no new work.
    Draining,
}

/// Outcome of a cancel request.
pub enum CancelOutcome {
    /// The job was still queued; it is now terminally cancelled.
    Cancelled,
    /// The job is running; its budget was tripped and a worker will
    /// journal the terminal state shortly.
    Signalled,
    /// The job was already terminal.
    AlreadyTerminal,
    /// No such job.
    NotFound,
}

/// How many recent job wall times feed the queue-drain estimate.
const WALL_WINDOW: usize = 32;

struct Inner {
    jobs: BTreeMap<String, Job>,
    queue: VecDeque<String>,
    running: usize,
    next_id: u64,
    cache: HashMap<String, Arc<str>>,
    draining: bool,
    /// Wall times of recently finished jobs (bounded rolling window);
    /// their mean drives the `Retry-After` estimate on 503s.
    recent_walls: VecDeque<std::time::Duration>,
    /// When each currently running job was claimed.
    started: HashMap<String, std::time::Instant>,
    /// When each queued or running job was admitted (by this process:
    /// recovery re-admits the jobs it re-queues).
    admitted: HashMap<String, Instant>,
    metrics: Metrics,
}

impl Inner {
    /// Books job `id`, which has just reached a terminal state: drops its
    /// net text and counts it in the metrics.
    fn settle(&mut self, id: &str) {
        let Some(jb) = self.jobs.get_mut(id) else {
            return;
        };
        jb.spec.net_text = String::new();
        if let Some(admitted) = self.admitted.remove(id) {
            self.metrics
                .observe(&jb.spec.engine, &jb.state, admitted.elapsed());
        }
    }
}

/// The shared job store.
pub struct Store {
    /// Root data directory (jobs live in `<data_dir>/jobs/<id>/`).
    pub data_dir: PathBuf,
    queue_bound: usize,
    workers: usize,
    inner: Mutex<Inner>,
    work: Condvar,
    changed: Condvar,
}

impl Store {
    /// An empty store over `data_dir`, drained by `workers` worker
    /// threads (the worker count scales the queue-drain estimate).
    pub fn new(data_dir: PathBuf, queue_bound: usize, workers: usize) -> Store {
        Store {
            data_dir,
            queue_bound,
            workers: workers.max(1),
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                running: 0,
                next_id: 1,
                cache: HashMap::new(),
                draining: false,
                recent_walls: VecDeque::new(),
                started: HashMap::new(),
                admitted: HashMap::new(),
                metrics: Metrics::default(),
            }),
            work: Condvar::new(),
            changed: Condvar::new(),
        }
    }

    /// Poison-tolerant lock: a worker that panicked while holding the
    /// lock must not take the whole server down with it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Scans the journal and rebuilds the table: jobs with a `result.job`
    /// become terminal (feeding the results cache); jobs with only a
    /// `spec.job` are re-queued for (re-)execution — their `run.ckpt`, if
    /// any, lets the engine resume instead of restarting. Returns
    /// `(recovered_terminal, requeued)`.
    pub fn recover(&self) -> Result<(usize, usize), String> {
        let jobs_root = self.data_dir.join("jobs");
        let mut ids: Vec<String> = match std::fs::read_dir(&jobs_root) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_dir())
                .filter_map(|e| e.file_name().into_string().ok())
                .collect(),
            Err(_) => Vec::new(), // first boot: nothing journaled yet
        };
        ids.sort();
        let mut terminal = 0usize;
        let mut requeued = 0usize;
        let mut inner = self.lock();
        for id in ids {
            let dir = job::job_dir(&self.data_dir, &id);
            let spec = match job::read_spec(&dir) {
                Ok(s) => s,
                // a torn spec means the submission was never acknowledged
                Err(_) => continue,
            };
            if let Some(n) = id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) {
                inner.next_id = inner.next_id.max(n + 1);
            }
            let mut jb = Job {
                state: JobState::Queued,
                report_json: None,
                error: None,
                cancel: Arc::new(AtomicBool::new(false)),
                user_cancelled: false,
                cached: false,
                spec,
            };
            if let Ok(result) = job::read_result(&dir) {
                jb.state = result.state;
                jb.report_json = result.report_json;
                jb.error = result.error;
                jb.spec.net_text = String::new();
                if jb.state == JobState::Done {
                    if let (Some(key), Some(report)) = (jb.spec.cache_key(), &mut jb.report_json) {
                        // cache hits journal the report they were served,
                        // so equal reports share the cache's copy
                        let cached = inner.cache.entry(key).or_insert_with(|| report.clone());
                        if cached == report {
                            *report = cached.clone();
                        }
                    }
                }
                terminal += 1;
            } else {
                inner.queue.push_back(id.clone());
                inner.admitted.insert(id.clone(), Instant::now());
                requeued += 1;
            }
            inner.jobs.insert(id, jb);
        }
        drop(inner);
        self.work.notify_all();
        Ok((terminal, requeued))
    }

    /// Reserves the next job id (monotonic across restarts).
    pub fn assign_id(&self) -> String {
        let mut inner = self.lock();
        let id = format!("j{:06}", inner.next_id);
        inner.next_id += 1;
        id
    }

    /// Admits `spec`: enforces the queue bound, journals the spec, and
    /// either queues the job or satisfies it from the results cache.
    pub fn submit(&self, spec: JobSpec) -> Result<Admission, String> {
        let admitted = Instant::now();
        let dir = job::job_dir(&self.data_dir, &spec.id);
        let cached_report = {
            let mut inner = self.lock();
            if inner.draining {
                return Ok(Admission::Draining);
            }
            if inner.queue.len() + inner.running >= self.queue_bound {
                return Ok(Admission::OverCapacity);
            }
            let hit = spec.cache_key().and_then(|k| inner.cache.get(&k).cloned());
            if hit.is_some() {
                inner.metrics.cache_hits += 1;
            } else {
                inner.metrics.cache_misses += 1;
            }
            hit
        };
        // journal outside the lock — fsync is slow
        job::write_spec(&dir, &spec)?;
        let id = spec.id.clone();
        if let Some(report) = cached_report {
            let result = JobResult {
                state: JobState::Done,
                report_json: Some(report.clone()),
                error: None,
                winner: None,
            };
            job::write_result(&dir, spec.fingerprint, &result)?;
            let mut inner = self.lock();
            inner.jobs.insert(
                id.clone(),
                Job {
                    spec,
                    state: JobState::Done,
                    report_json: Some(report),
                    error: None,
                    cancel: Arc::new(AtomicBool::new(false)),
                    user_cancelled: false,
                    cached: true,
                },
            );
            inner.admitted.insert(id.clone(), admitted);
            inner.settle(&id);
            return Ok(Admission::Accepted { id, cached: true });
        }
        let mut inner = self.lock();
        // the bound may have been crossed while we were journaling; admit
        // anyway (the spec is durable) — the window is one submission wide
        inner.admitted.insert(id.clone(), admitted);
        inner.jobs.insert(
            id.clone(),
            Job {
                spec,
                state: JobState::Queued,
                report_json: None,
                error: None,
                cancel: Arc::new(AtomicBool::new(false)),
                user_cancelled: false,
                cached: false,
            },
        );
        inner.queue.push_back(id.clone());
        drop(inner);
        self.work.notify_one();
        Ok(Admission::Accepted { id, cached: false })
    }

    /// Blocks until a job is available and claims it (marking it
    /// `Running`), or returns `None` when the server is draining —
    /// queued jobs stay journaled for the next boot.
    pub fn next_job(&self) -> Option<(String, JobSpec, Arc<AtomicBool>)> {
        let mut inner = self.lock();
        loop {
            if inner.draining {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let jb = inner.jobs.get_mut(&id).expect("queued job exists");
                jb.state = JobState::Running;
                let spec = jb.spec.clone();
                let cancel = jb.cancel.clone();
                inner.running += 1;
                inner.started.insert(id.clone(), std::time::Instant::now());
                self.changed.notify_all();
                return Some((id, spec, cancel));
            }
            inner = self
                .work
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Journals and records a terminal result for a claimed job.
    pub fn finish(&self, id: &str, result: JobResult) -> Result<(), String> {
        let dir = job::job_dir(&self.data_dir, id);
        let fingerprint = {
            let inner = self.lock();
            inner.jobs[id].spec.fingerprint
        };
        job::write_result(&dir, fingerprint, &result)?;
        // the engine snapshot is dead weight once the result is durable
        if result.state.is_terminal() {
            let ck = job::ckpt_path(&dir);
            let _ = std::fs::remove_file(&ck);
            let mut prev = ck.into_os_string();
            prev.push(".prev");
            let _ = std::fs::remove_file(PathBuf::from(prev));
        }
        let mut inner = self.lock();
        inner.running = inner.running.saturating_sub(1);
        if let Some(started) = inner.started.remove(id) {
            if inner.recent_walls.len() == WALL_WINDOW {
                inner.recent_walls.pop_front();
            }
            inner.recent_walls.push_back(started.elapsed());
        }
        if result.state == JobState::Done {
            if let Some(report) = &result.report_json {
                if let Some(key) = inner.jobs[id].spec.cache_key() {
                    inner.cache.insert(key, report.clone());
                }
                // an auto job's report is the winner's solo-shaped report,
                // so it also satisfies a later solo submission of that
                // engine — seed the winner's key too
                if let Some(winner) = &result.winner {
                    if let Some(key) = inner.jobs[id].spec.cache_key_as(winner) {
                        inner.cache.insert(key, report.clone());
                    }
                }
            }
        }
        let jb = inner.jobs.get_mut(id).expect("finished job exists");
        jb.state = result.state;
        jb.report_json = result.report_json;
        jb.error = result.error;
        inner.settle(id);
        drop(inner);
        self.changed.notify_all();
        Ok(())
    }

    /// Records that a drain interrupted a running job before it finished:
    /// no result is journaled, the in-memory state returns to `Queued`,
    /// and the job's `run.ckpt` (written by the engine on cancellation)
    /// lets the next boot resume it.
    pub fn interrupt(&self, id: &str) {
        let mut inner = self.lock();
        inner.running = inner.running.saturating_sub(1);
        inner.started.remove(id);
        if let Some(jb) = inner.jobs.get_mut(id) {
            jb.state = JobState::Queued;
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Cancels a job on behalf of a client (DELETE or disconnect).
    pub fn cancel(&self, id: &str) -> Result<CancelOutcome, String> {
        let (outcome, fingerprint) = {
            let mut inner = self.lock();
            let Some(jb) = inner.jobs.get_mut(id) else {
                return Ok(CancelOutcome::NotFound);
            };
            match jb.state {
                JobState::Queued => {
                    jb.state = JobState::Cancelled;
                    jb.user_cancelled = true;
                    jb.error = Some("cancelled before running".into());
                    let fp = jb.spec.fingerprint;
                    inner.queue.retain(|q| q != id);
                    inner.settle(id);
                    self.changed.notify_all();
                    (CancelOutcome::Cancelled, Some(fp))
                }
                JobState::Running => {
                    jb.user_cancelled = true;
                    jb.cancel.store(true, Ordering::SeqCst);
                    (CancelOutcome::Signalled, None)
                }
                _ => (CancelOutcome::AlreadyTerminal, None),
            }
        };
        if let Some(fp) = fingerprint {
            job::write_result(
                &job::job_dir(&self.data_dir, id),
                fp,
                &JobResult {
                    state: JobState::Cancelled,
                    report_json: None,
                    error: Some("cancelled before running".into()),
                    winner: None,
                },
            )?;
        }
        Ok(outcome)
    }

    /// Whether a user (vs the drain) asked this job to stop.
    pub fn user_cancelled(&self, id: &str) -> bool {
        let inner = self.lock();
        inner.jobs.get(id).is_some_and(|j| j.user_cancelled)
    }

    /// Stops admissions, wakes all workers, and trips every running job's
    /// budget so engines checkpoint and return promptly.
    pub fn begin_drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        for jb in inner.jobs.values() {
            if jb.state == JobState::Running {
                jb.cancel.store(true, Ordering::SeqCst);
            }
        }
        drop(inner);
        self.work.notify_all();
    }

    /// Number of jobs currently claimed by workers.
    pub fn running_count(&self) -> usize {
        self.lock().running
    }

    /// How long a rejected client should wait before resubmitting:
    /// `ceil(backlog × mean recent wall time / workers)`, clamped to
    /// `1..=60` seconds. With no history yet the floor (1s) applies —
    /// an empty window means nothing has finished, not that jobs are
    /// instant, so clients poll quickly until real data arrives.
    pub fn retry_after_secs(&self) -> u64 {
        let inner = self.lock();
        let backlog = inner.queue.len() + inner.running;
        if inner.recent_walls.is_empty() || backlog == 0 {
            return 1;
        }
        let total: std::time::Duration = inner.recent_walls.iter().sum();
        let mean_secs = total.as_secs_f64() / inner.recent_walls.len() as f64;
        let estimate = (backlog as f64 * mean_secs / self.workers as f64).ceil();
        (estimate as u64).clamp(1, 60)
    }

    /// The `GET /healthz` document: liveness plus the load counters an
    /// operator (or load balancer) needs to steer traffic.
    pub fn healthz_json(&self) -> Json {
        let inner = self.lock();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("queue_depth".into(), Json::num(inner.queue.len())),
            ("active_workers".into(), Json::num(inner.running)),
            (
                "cache_hits".into(),
                Json::num(inner.metrics.cache_hits as usize),
            ),
            (
                "cache_misses".into(),
                Json::num(inner.metrics.cache_misses as usize),
            ),
            ("draining".into(), Json::Bool(inner.draining)),
        ])
    }

    /// The job's current state, if it exists.
    pub fn state_of(&self, id: &str) -> Option<JobState> {
        self.lock().jobs.get(id).map(|j| j.state.clone())
    }

    /// The wire status document for one job, if it exists.
    pub fn status_json(&self, id: &str) -> Option<Json> {
        self.status(id).map(|(doc, _)| doc)
    }

    /// The `GET /metrics` document: the metrics counters plus the queue
    /// gauges, read under one lock.
    pub fn metrics_text(&self) -> String {
        let inner = self.lock();
        inner.metrics.render(inner.queue.len(), inner.running)
    }

    /// The wire status document for one job, if it exists, and whether
    /// its `state` is terminal. Both come from one lock acquisition, so
    /// the flag always describes the document it is returned with.
    pub fn status(&self, id: &str) -> Option<(Json, bool)> {
        let (doc, state) = self.document(id, self.lock())?;
        Some((doc, state.is_terminal()))
    }

    /// Blocks until job `id`'s state differs from `seen` or `heartbeat`
    /// passes, then returns its status document and the state the
    /// document shows. With `seen` `None` it returns at once.
    pub fn next_status(
        &self,
        id: &str,
        seen: Option<&JobState>,
        heartbeat: Duration,
    ) -> Option<(Json, JobState)> {
        let unchanged = |inner: &mut Inner| {
            seen.is_some_and(|seen| inner.jobs.get(id).is_some_and(|j| j.state == *seen))
        };
        let (inner, _) = self
            .changed
            .wait_timeout_while(self.lock(), heartbeat, unchanged)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.document(id, inner)
    }

    /// Job `id`'s status document and the state it shows. The fields come
    /// from `inner`, which is released before the checkpoint file is
    /// looked up.
    fn document(&self, id: &str, inner: MutexGuard<'_, Inner>) -> Option<(Json, JobState)> {
        let jb = inner.jobs.get(id)?;
        let state = jb.state.clone();
        let mut fields = vec![
            ("id".into(), Json::str(id)),
            ("state".into(), Json::str(state.as_str())),
            ("net".into(), Json::str(&jb.spec.net_name)),
            ("engine".into(), Json::str(&jb.spec.engine)),
        ];
        let rest = [
            ("cached".into(), Json::Bool(jb.cached)),
            (
                "report".into(),
                match &jb.report_json {
                    Some(r) => Json::Raw(r.to_string()),
                    None => Json::Null,
                },
            ),
            (
                "error".into(),
                match &jb.error {
                    Some(e) => Json::str(e),
                    None => Json::Null,
                },
            ),
        ];
        drop(inner);
        let checkpointed = job::ckpt_path(&job::job_dir(&self.data_dir, id)).exists();
        fields.push(("checkpointed".into(), Json::Bool(checkpointed)));
        fields.extend(rest);
        Some((Json::Obj(fields), state))
    }

    /// The wire listing of all jobs.
    pub fn list_json(&self) -> Json {
        let inner = self.lock();
        Json::Obj(vec![(
            "jobs".into(),
            Json::Arr(
                inner
                    .jobs
                    .iter()
                    .map(|(id, jb)| {
                        Json::Obj(vec![
                            ("id".into(), Json::str(id)),
                            ("state".into(), Json::str(jb.state.as_str())),
                            ("net".into(), Json::str(&jb.spec.net_name)),
                            ("engine".into(), Json::str(&jb.spec.engine)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small job; its wall-clock budget keeps it out of the results
    /// cache, so every submission queues.
    fn spec(store: &Store) -> JobSpec {
        let body =
            Json::parse(r#"{"net": "net n\npl p *\npl q\ntr go : p -> q\n", "timeout_secs": 60}"#)
                .unwrap();
        JobSpec::from_submission(&body, store.assign_id(), 100)
            .unwrap()
            .0
    }

    fn assert_consistent(store: &Store, id: &str) {
        let (doc, terminal) = store.status(id).expect("job exists");
        let state = doc.get("state").and_then(Json::as_str).unwrap().to_string();
        let want = matches!(state.as_str(), "done" | "failed" | "cancelled");
        assert_eq!(
            terminal, want,
            "state `{state}` with terminal flag {terminal}"
        );
    }

    /// The `/wait` loop stops on the terminal flag, so a flag read apart
    /// from its document could end the stream on a `running` document.
    #[test]
    fn status_terminal_flag_matches_the_document_state() {
        let dir = std::env::temp_dir().join(format!("julie-store-status-{}", std::process::id()));
        let store = Arc::new(Store::new(dir.clone(), 64, 1));
        for round in 0..50 {
            let Admission::Accepted { id, .. } = store.submit(spec(&store)).unwrap() else {
                panic!("admission refused");
            };
            assert_consistent(&store, &id);
            // cancel every fifth job while it is still queued
            if round % 5 == 0 {
                store.cancel(&id).unwrap();
                assert_consistent(&store, &id);
                continue;
            }
            let (claimed, _, _) = store.next_job().unwrap();
            assert_eq!(claimed, id);
            // a worker finishes the job while this thread keeps polling
            let finisher = {
                let store = store.clone();
                let id = id.clone();
                std::thread::spawn(move || {
                    let result = JobResult {
                        state: JobState::Done,
                        report_json: Some("{}".into()),
                        error: None,
                        winner: None,
                    };
                    store.finish(&id, result).unwrap();
                })
            };
            while !finisher.is_finished() {
                assert_consistent(&store, &id);
            }
            finisher.join().unwrap();
            assert_consistent(&store, &id);
            assert!(store.status(&id).unwrap().1, "finished jobs are terminal");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn done(report: &str) -> JobResult {
        JobResult {
            state: JobState::Done,
            report_json: Some(report.into()),
            error: None,
            winner: None,
        }
    }

    /// A server upgraded across a checkpoint format bump keeps the jobs
    /// its predecessor journaled: spec and result files of format 1 load.
    #[test]
    fn recover_reads_format_1_journals() {
        let dir = std::env::temp_dir().join(format!("julie-store-v1-{}", std::process::id()));
        let store = Store::new(dir.clone(), 64, 1);
        let submit = || match store.submit(spec(&store)).unwrap() {
            Admission::Accepted { id, .. } => id,
            _ => panic!("admission refused"),
        };
        let finished = submit();
        store.next_job().unwrap();
        store.finish(&finished, done("{}")).unwrap();
        let queued = submit();
        for id in [&finished, &queued] {
            let job_dir = job::job_dir(&dir, id);
            for path in [job::spec_path(&job_dir), job::result_path(&job_dir)] {
                if let Ok(mut bytes) = std::fs::read(&path) {
                    bytes[8..12].copy_from_slice(&1u32.to_le_bytes()); // the format version
                    std::fs::write(&path, bytes).unwrap();
                }
            }
        }
        let restarted = Store::new(dir.clone(), 64, 1);
        assert_eq!(
            restarted.recover().unwrap(),
            (1, 1),
            "1 finished, 1 requeued"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn terminal_jobs_drop_their_net_text_and_share_cached_reports() {
        let dir = std::env::temp_dir().join(format!("julie-store-memory-{}", std::process::id()));
        let store = Store::new(dir.clone(), 64, 1);
        // no wall-clock budget: the results cache answers the repeat
        let submit = || {
            let body = Json::parse(r#"{"net": "net n\npl p *\npl q\ntr go : p -> q\n"}"#).unwrap();
            let spec = JobSpec::from_submission(&body, store.assign_id(), 100)
                .unwrap()
                .0;
            match store.submit(spec).unwrap() {
                Admission::Accepted { id, cached } => (id, cached),
                _ => panic!("admission refused"),
            }
        };
        let (fresh, cached) = submit();
        assert!(!cached);
        let (_, claimed, _) = store.next_job().unwrap();
        assert!(!claimed.net_text.is_empty(), "the worker gets the net");
        store
            .finish(&fresh, done(r#"{"verdict":"deadlock"}"#))
            .unwrap();
        let (hit, cached) = submit();
        assert!(cached);

        let inner = store.lock();
        let key = inner.jobs[&hit].spec.cache_key().unwrap();
        for id in [&fresh, &hit] {
            let jb = &inner.jobs[id];
            assert!(jb.spec.net_text.is_empty(), "{id} keeps its net text");
            let report = jb.report_json.as_ref().unwrap();
            assert!(
                Arc::ptr_eq(report, &inner.cache[&key]),
                "{id} copies the report"
            );
        }
        drop(inner);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `/wait` stream parks in `next_status`; the finishing worker must
    /// wake it, not its heartbeat.
    #[test]
    fn next_status_wakes_on_the_state_change_not_the_heartbeat() {
        let dir = std::env::temp_dir().join(format!("julie-store-wake-{}", std::process::id()));
        let store = Arc::new(Store::new(dir.clone(), 64, 1));
        let Admission::Accepted { id, .. } = store.submit(spec(&store)).unwrap() else {
            panic!("admission refused");
        };
        store.next_job().unwrap();
        let (parking, parked) = std::sync::mpsc::channel();
        let waiter = {
            let store = store.clone();
            let id = id.clone();
            std::thread::spawn(move || {
                let start = Instant::now();
                parking.send(()).unwrap();
                let heartbeat = Duration::from_secs(30);
                let (doc, state) = store
                    .next_status(&id, Some(&JobState::Running), heartbeat)
                    .unwrap();
                (doc, state, start.elapsed())
            })
        };
        parked.recv().unwrap();
        // journaling the result takes a while before the state changes,
        // so the waiter is parked by then
        store.finish(&id, done("{}")).unwrap();
        let (doc, state, waited) = waiter.join().unwrap();
        assert_eq!(state, JobState::Done);
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"));
        assert!(waited < Duration::from_secs(5), "woke after {waited:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
