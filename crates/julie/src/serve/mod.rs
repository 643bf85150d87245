//! `julie serve` — a crash-safe, admission-controlled verification
//! service.
//!
//! ```text
//! julie serve --data-dir=DIR [--addr=HOST:PORT] [--workers=N]
//!             [--queue-bound=N] [--max-job-states=N]
//!             [--checkpoint-every=N] [--drain-secs=SECS]
//! ```
//!
//! Wire protocol (HTTP/1.1, JSON bodies, `Connection: close`):
//!
//! * `POST /jobs` — submit `{"net": "...", "engine": "gpo", ...}`.
//!   `202` with `{"id","state","cached"}`; `400` on a bad submission;
//!   `503` when over capacity (`Retry-After` estimates the queue drain
//!   from recent job wall times) or draining.
//! * `GET /jobs` — list all jobs.
//! * `GET /jobs/{id}` — one job's status document.
//! * `GET /jobs/{id}/wait` — chunked stream of status documents until the
//!   job is terminal: the current one, then one on each state change,
//!   and a heartbeat every 250 ms while nothing changes. A client
//!   disconnect (a failed write) cancels the job.
//! * `DELETE /jobs/{id}` — cancel; `409` once terminal.
//! * `GET /healthz` — liveness plus load counters (`queue_depth`,
//!   `active_workers`, `cache_hits`, `cache_misses`, `draining`).
//! * `GET /metrics` — the same counters, terminal jobs by engine and
//!   state, journal retries, and a histogram of admission-to-terminal
//!   latency, in the Prometheus text format (0.0.4).
//!
//! Robustness model: submissions are journaled (atomic rename + CRC)
//! before they are acknowledged; engines checkpoint periodically, each
//! snapshot stamped with its job ([`petri::RunStamp::job`]); a SIGKILL'd
//! server recovers every acknowledged
//! job on restart and resumes in-flight ones from their snapshots.
//! SIGTERM stops admissions, trips every running budget, and drains to
//! final checkpoints within `--drain-secs`.

pub mod http;
pub mod job;
pub mod metrics;
pub mod scheduler;
pub mod store;

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use crate::json::Json;
use crate::signals;

use self::http::{read_request, respond, respond_json, ChunkedWriter, Request};
use self::store::{Admission, CancelOutcome, Store};

/// How long `/wait` blocks between documents while its job's state does
/// not change. The heartbeat write is what notices a client that left.
const HEARTBEAT: Duration = Duration::from_millis(250);

/// Parsed `julie serve` configuration.
struct ServeConfig {
    addr: String,
    data_dir: std::path::PathBuf,
    workers: usize,
    queue_bound: usize,
    max_job_states: usize,
    checkpoint_every: usize,
    drain_secs: u64,
}

fn config_from_args(args: &[String]) -> Result<ServeConfig, String> {
    let opt = |key: &str| crate::option(args, key);
    let uint = |key: &str, default: usize| -> Result<usize, String> {
        match opt(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad --{key} `{s}`")),
        }
    };
    let data_dir = opt("data-dir").ok_or("julie serve requires --data-dir=DIR")?;
    let cfg = ServeConfig {
        addr: opt("addr").unwrap_or("127.0.0.1:0").to_string(),
        data_dir: data_dir.into(),
        workers: uint("workers", 2)?.max(1),
        queue_bound: uint("queue-bound", 16)?.max(1),
        max_job_states: uint("max-job-states", 10_000_000)?.max(1),
        checkpoint_every: uint("checkpoint-every", 2000)?.max(1),
        drain_secs: uint("drain-secs", 10)? as u64,
    };
    Ok(cfg)
}

/// Runs the server until SIGTERM/SIGINT, printing its progress lines to
/// `out`. Returns the process exit code.
pub fn serve(args: &[String], out: &mut dyn Write) -> Result<u8, String> {
    let cfg = config_from_args(args)?;
    std::fs::create_dir_all(cfg.data_dir.join("jobs"))
        .map_err(|e| format!("cannot create `{}`: {e}", cfg.data_dir.display()))?;
    let store = Arc::new(Store::new(
        cfg.data_dir.clone(),
        cfg.queue_bound,
        cfg.workers,
    ));
    let (terminal, requeued) = store.recover()?;
    writeln!(
        out,
        "recovered {terminal} finished and {requeued} in-flight jobs from the journal"
    )
    .map_err(crate::write_error)?;

    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind `{}`: {e}", cfg.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;

    // nothing is ever sent: the receiver disconnects once every worker
    // has dropped its sender, by returning or by panicking
    let (alive, all_exited) = mpsc::channel::<()>();
    let mut workers = Vec::new();
    for _ in 0..cfg.workers {
        let store = store.clone();
        let every = cfg.checkpoint_every;
        let alive = alive.clone();
        workers.push(std::thread::spawn(move || {
            let _alive = alive;
            scheduler::worker_loop(store, every)
        }));
    }
    drop(alive);

    // glibc restarts a blocked accept after the signal handler runs, so
    // the watcher wakes it with a connection of its own, once a signal
    // arrived, until the loop below has seen the flag
    let stopped = Arc::new(AtomicBool::new(false));
    let wake = wake_addr(local);
    signals::on_termination({
        let stopped = stopped.clone();
        move || {
            if stopped.load(Ordering::SeqCst) {
                return true;
            }
            let _ = TcpStream::connect(wake);
            false
        }
    });
    // the startup line scripts and tests parse to find the bound port
    writeln!(out, "listening on {local}").map_err(crate::write_error)?;

    for stream in listener.incoming() {
        if signals::termination_requested() {
            break;
        }
        let stream = stream.map_err(|e| format!("accept failed: {e}"))?;
        let store = store.clone();
        let max_job_states = cfg.max_job_states;
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &store, max_job_states);
        });
    }
    stopped.store(true, Ordering::SeqCst);

    // graceful drain: no new admissions, every running budget tripped;
    // workers exit after their current job checkpoints
    writeln!(out, "shutdown requested, draining").map_err(crate::write_error)?;
    drop(listener);
    store.begin_drain();
    let within = Duration::from_secs(cfg.drain_secs);
    if all_exited.recv_timeout(within) == Err(RecvTimeoutError::Timeout) {
        return Err(format!(
            "drain deadline ({}s) exceeded with {} jobs still running",
            cfg.drain_secs,
            store.running_count()
        ));
    }
    if workers.into_iter().any(|w| w.join().is_err()) {
        return Err("a worker thread panicked".into());
    }
    writeln!(out, "drained, all jobs checkpointed or finished").map_err(crate::write_error)?;
    Ok(0)
}

/// Where a connection to the listener bound at `local` goes: loopback at
/// the bound port when the bind address was unspecified.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn error_json(msg: &str) -> Json {
    Json::Obj(vec![("error".into(), Json::str(msg))])
}

fn handle_connection(
    mut stream: TcpStream,
    store: &Store,
    max_job_states: usize,
) -> io::Result<()> {
    let request = match read_request(&mut stream) {
        Ok(Some(r)) => r,
        Ok(None) => return Ok(()),
        Err(e) => {
            return respond_json(&mut stream, 400, &[], &error_json(&e.to_string()));
        }
    };
    route(&request, &mut stream, store, max_job_states)
}

fn route(
    req: &Request,
    stream: &mut TcpStream,
    store: &Store,
    max_job_states: usize,
) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond_json(stream, 200, &[], &store.healthz_json()),
        ("GET", ["metrics"]) => respond(
            stream,
            200,
            "text/plain; version=0.0.4",
            &[],
            &store.metrics_text(),
        ),
        ("POST", ["jobs"]) => submit(req, stream, store, max_job_states),
        ("GET", ["jobs"]) => respond_json(stream, 200, &[], &store.list_json()),
        ("GET", ["jobs", id]) => match store.status_json(id) {
            Some(doc) => respond_json(stream, 200, &[], &doc),
            None => respond_json(stream, 404, &[], &error_json("no such job")),
        },
        ("GET", ["jobs", id, "wait"]) => wait(id, stream, store),
        ("DELETE", ["jobs", id]) => {
            let outcome = store.cancel(id).map_err(io::Error::other)?;
            match outcome {
                CancelOutcome::Cancelled | CancelOutcome::Signalled => {
                    let doc = store.status_json(id).unwrap_or_else(|| error_json("gone"));
                    respond_json(stream, 200, &[], &doc)
                }
                CancelOutcome::AlreadyTerminal => {
                    respond_json(stream, 409, &[], &error_json("job is already terminal"))
                }
                CancelOutcome::NotFound => {
                    respond_json(stream, 404, &[], &error_json("no such job"))
                }
            }
        }
        ("GET" | "POST" | "DELETE", _) => {
            respond_json(stream, 404, &[], &error_json("no such endpoint"))
        }
        _ => respond_json(stream, 405, &[], &error_json("method not allowed")),
    }
}

fn submit(
    req: &Request,
    stream: &mut TcpStream,
    store: &Store,
    max_job_states: usize,
) -> io::Result<()> {
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(j) => j,
        Err(e) => return respond_json(stream, 400, &[], &error_json(&e)),
    };
    let id = store.assign_id();
    let (spec, _net) = match job::JobSpec::from_submission(&body, id, max_job_states) {
        Ok(ok) => ok,
        Err(e) => return respond_json(stream, 400, &[], &error_json(&e)),
    };
    match store.submit(spec) {
        Ok(Admission::Accepted { id, cached }) => {
            let state = store.state_of(&id).map(|s| s.as_str()).unwrap_or("queued");
            respond_json(
                stream,
                202,
                &[],
                &Json::Obj(vec![
                    ("id".into(), Json::str(&id)),
                    ("state".into(), Json::str(state)),
                    ("cached".into(), Json::Bool(cached)),
                ]),
            )
        }
        Ok(Admission::OverCapacity) => {
            // estimate when a queue slot frees up from recent wall times
            let retry_after = store.retry_after_secs().to_string();
            respond_json(
                stream,
                503,
                &[("Retry-After", retry_after.as_str())],
                &error_json("queue is full, retry later"),
            )
        }
        Ok(Admission::Draining) => respond_json(
            stream,
            503,
            &[("Retry-After", "5")],
            &error_json("server is draining"),
        ),
        Err(e) => respond_json(stream, 500, &[], &error_json(&e)),
    }
}

/// Streams status documents until the job is terminal: the current one,
/// then the next one as soon as the state changes or [`HEARTBEAT`]
/// passes. A failed write means the client went away — per the protocol,
/// that cancels the job.
fn wait(id: &str, stream: &mut TcpStream, store: &Store) -> io::Result<()> {
    let mut next = store.next_status(id, None, HEARTBEAT);
    if next.is_none() {
        return respond_json(stream, 404, &[], &error_json("no such job"));
    }
    let mut w = ChunkedWriter::start(stream, 200)?;
    while let Some((doc, state)) = next {
        if let Err(e) = w.send(&doc.render()) {
            let _ = store.cancel(id);
            return Err(e);
        }
        if state.is_terminal() {
            return w.finish();
        }
        next = store.next_status(id, Some(&state), HEARTBEAT);
    }
    Ok(())
}
