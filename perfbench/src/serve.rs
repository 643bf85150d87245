//! The `serve-mixed` workload: `julie serve --workers=2 --queue-bound=16`
//! driven over its HTTP wire protocol by a closed loop of two client
//! threads. A job's latency runs from sending its `POST /jobs` to
//! receiving its terminal document on `GET /jobs/{id}/wait`.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use julie::json::Json;

use crate::metrics::{layer_values, LayerInput, Values};
use crate::outcome::{Class, Judgement, Oracle};
use crate::stats::{geomean, median, percentile, ratio};
use crate::workload::{warm_up, Model, Query, ServeMix, SERVE_CLIENTS};
use crate::{
    another_pass, exec, span_rows, tally, trace_pass, write_nets, Config, Measured, SETUPS,
};

const WORKERS: usize = 2;
const QUEUE_BOUND: usize = 16;

/// Fresh submissions use `max_states` from here up, one value per (pass,
/// client, slot): a distinct cache key, and the same answer, since every
/// serve net has far fewer states.
const FRESH_STATES: usize = 1_000_000;

/// How long a SIGTERM'd server may take to drain before it is killed.
const STOP_CAP: Duration = Duration::from_secs(20);

/// A running `julie serve`. Dropping it kills the process.
struct Server {
    child: Child,
    // held open until the process has exited, so its shutdown lines
    // never meet a closed pipe
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    stopped: bool,
}

impl Server {
    /// Starts a server on a fresh data dir and waits for `listening on`.
    fn start(julie: &Path, data: &Path, stderr: &Path) -> Result<Server, String> {
        let _ = fs::remove_dir_all(data);
        let stderr = File::create(stderr)
            .map_err(|e| format!("cannot create `{}`: {e}", stderr.display()))?;
        let mut child = Command::new(julie)
            .arg("serve")
            .arg(format!("--data-dir={}", data.display()))
            .arg("--addr=127.0.0.1:0")
            .arg(format!("--workers={WORKERS}"))
            .arg(format!("--queue-bound={QUEUE_BOUND}"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start julie serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("julie serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr;
            }
        };
        let addr = addr
            .parse()
            .map_err(|e| format!("bad listen address `{addr}`: {e}"))?;
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            stopped: false,
        })
    }

    /// SIGTERM, then waits for the drain; kills the server if it overruns.
    fn stop(mut self) -> Result<(), String> {
        self.stopped = true;
        exec::terminate(self.child.id());
        let deadline = Instant::now() + STOP_CAP;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("julie serve did not drain within its cap".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One HTTP/1.1 exchange (`Connection: close`): status, head, body.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no end of head"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, head, raw[split + 4..].to_vec()))
}

/// Decodes a chunked body into its chunks.
fn dechunk(mut body: &[u8]) -> Result<Vec<String>, String> {
    let mut chunks = Vec::new();
    loop {
        let eol = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunked body")?;
        let size = std::str::from_utf8(&body[..eol])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .ok_or("bad chunk size")?;
        if size == 0 {
            return Ok(chunks);
        }
        let data = body.get(eol + 2..eol + 2 + size).ok_or("truncated chunk")?;
        chunks.push(String::from_utf8_lossy(data).into_owned());
        body = body.get(eol + 4 + size..).ok_or("truncated chunk")?;
    }
}

/// One job, as its client saw it.
#[derive(Debug)]
struct JobRun {
    admit_ms: f64,
    latency_ms: f64,
    /// Status documents the `/wait` stream sent before it ended.
    docs: usize,
    rejected: usize,
    /// The `/wait` stream ended on a non-terminal document.
    stale_wait: bool,
    exit: Option<i32>,
    judgement: Judgement,
}

/// Submits one job and waits for its terminal document.
fn run_job(addr: SocketAddr, body: &str, oracle: &Oracle) -> Result<JobRun, String> {
    let http_err = |e: io::Error| format!("serve request failed: {e}");
    let start = Instant::now();
    let mut rejected = 0;
    let id = loop {
        let (status, head, payload) = http(addr, "POST", "/jobs", body).map_err(http_err)?;
        let doc = Json::parse(&String::from_utf8_lossy(&payload));
        match status {
            202 => {
                break doc?
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("202 without an id")?
                    .to_string()
            }
            503 => {
                // the queue is full: honour Retry-After, as a client should
                rejected += 1;
                let secs = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Retry-After:"))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(1);
                std::thread::sleep(Duration::from_secs(secs));
            }
            s => return Err(format!("POST /jobs answered {s}")),
        }
    };
    let admit = start.elapsed();
    let get = |path: String| -> Result<Vec<u8>, String> {
        match http(addr, "GET", &path, "").map_err(http_err)? {
            (200, _, payload) => Ok(payload),
            (status, _, _) => Err(format!("GET {path} answered {status}")),
        }
    };
    let docs = dechunk(&get(format!("/jobs/{id}/wait"))?)?;
    let mut last = Json::parse(docs.last().ok_or("empty /wait stream")?)?;
    let state = |doc: &Json| {
        doc.get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    // `/wait` reads a job's document before it checks whether the job is
    // terminal, so a job that finishes in between ends the stream with a
    // stale document; the job's own document then has the answer
    let stale_wait = !matches!(state(&last).as_str(), "done" | "failed" | "cancelled");
    if stale_wait {
        last = Json::parse(&String::from_utf8_lossy(&get(format!("/jobs/{id}"))?))?;
    }
    let latency = start.elapsed();
    let report = last.get("report").filter(|r| **r != Json::Null);
    let exit = report
        .and_then(|r| r.get("exit_code"))
        .and_then(Json::as_u64)
        .map(|c| c as i32);
    let judgement = match state(&last).as_str() {
        "done" => oracle.judge(exit, report),
        other => {
            let error = last.get("error").and_then(Json::as_str).unwrap_or("");
            Judgement::failed(format!("job ended `{other}`: {error}"))
        }
    };
    Ok(JobRun {
        admit_ms: admit.as_secs_f64() * 1e3,
        latency_ms: latency.as_secs_f64() * 1e3,
        docs: docs.len(),
        rejected,
        stale_wait,
        exit,
        judgement,
    })
}

/// The `POST /jobs` body of `spec` with state budget `max_states`.
fn job_body(spec: &Query, net: &str, max_states: usize) -> String {
    let mut fields = vec![
        ("net".to_string(), Json::str(net)),
        ("engine".to_string(), Json::str(spec.engine)),
        ("threads".to_string(), Json::num(1)),
        ("max_states".to_string(), Json::num(max_states)),
    ];
    if let Some(p) = spec.property {
        fields.push(("property".to_string(), Json::str(p)));
    }
    Json::Obj(fields).render()
}

/// One client's list for one pass.
fn client(
    addr: SocketAddr,
    mix: &ServeMix,
    nets: &BTreeMap<Model, String>,
    oracles: &[Oracle],
    c: usize,
    pass: usize,
) -> Result<Vec<JobRun>, String> {
    let stride = mix.clients.iter().map(Vec::len).max().unwrap_or(0);
    mix.clients[c]
        .iter()
        .enumerate()
        .map(|(slot, job)| {
            let fresh_slot = job.repeat_of.unwrap_or(slot);
            let max_states = FRESH_STATES + (pass * SERVE_CLIENTS + c) * stride + fresh_slot;
            let spec = &mix.specs[job.spec];
            run_job(
                addr,
                &job_body(spec, &nets[&spec.model], max_states),
                &oracles[job.spec],
            )
        })
        .collect()
}

/// Runs the serve workload.
pub fn run(cfg: &Config, name: &str, mix: &ServeMix) -> Result<Measured, String> {
    let dir = cfg.work.join(name);
    let nets_dir = dir.join("nets");
    let data = dir.join("data");
    let server_err = dir.join("serve-stderr.txt");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    let oracles: Vec<Oracle> = mix.specs.iter().map(Oracle::new).collect();
    let warm = warm_up(&mix.specs);
    let warm_oracle = Oracle::new(&warm);

    // set-up: generate the nets, start the server, and finish one warm-up
    // job; the last server stays up for the measurement
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    let mut nets = BTreeMap::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        nets = write_nets(&nets_dir, &mix.specs)?.into_iter().collect();
        let s = Server::start(&cfg.julie, &data, &server_err)?;
        let warm_job = run_job(
            s.addr,
            &job_body(&warm, &nets[&warm.model], FRESH_STATES - 1),
            &warm_oracle,
        )?;
        if warm_job.judgement.class != Class::Decided {
            return Err(format!("warm-up job ended {}", warm_job.judgement.class));
        }
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUPS is at least one");

    let start = Instant::now();
    let mut traced = if cfg.mode.traced() {
        trace_pass(cfg, &mix.specs, &oracles, &nets_dir, &dir)?
    } else {
        Vec::new()
    };
    // passes[pass][client][slot]
    let mut passes: Vec<Vec<Vec<JobRun>>> = Vec::new();
    let mut pass_secs = Vec::new();
    let (addr, nets, oracles) = (server.addr, &nets, &oracles[..]);
    while another_pass(start, &pass_secs, cfg) {
        let pass = passes.len();
        let t = Instant::now();
        // client 0 runs on this thread: one thread per client in total
        let lists = std::thread::scope(|s| {
            let others: Vec<_> = (1..SERVE_CLIENTS)
                .map(|c| s.spawn(move || client(addr, mix, nets, oracles, c, pass)))
                .collect();
            let mut lists = vec![client(addr, mix, nets, oracles, 0, pass)];
            lists.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("client threads do not panic")),
            );
            lists
        });
        pass_secs.push(t.elapsed().as_secs_f64());
        passes.push(lists.into_iter().collect::<Result<_, _>>()?);
    }
    let health = http(addr, "GET", "/healthz", "")
        .map_err(|e| format!("GET /healthz failed: {e}"))
        .and_then(|(_, _, body)| Json::parse(&String::from_utf8_lossy(&body)))?;
    let peak_kb = exec::vmhwm_kb(&server.child.id().to_string()).unwrap_or(0);
    server.stop()?;

    let jobs: Vec<&JobRun> = passes.iter().flatten().flatten().collect();
    let slots: Vec<(usize, usize)> = mix
        .clients
        .iter()
        .enumerate()
        .flat_map(|(c, list)| (0..list.len()).map(move |slot| (c, slot)))
        .collect();
    let slot_medians: Vec<f64> = slots
        .iter()
        .map(|&(c, slot)| {
            median(
                &passes
                    .iter()
                    .map(|p| p[c][slot].latency_ms)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let decided = jobs
        .iter()
        .filter(|j| j.judgement.class == Class::Decided)
        .count();
    let count = |key: &str| health.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    let mut values = Values::from([
        ("total_s", median(&pass_secs)),
        ("geomean_ms", geomean(&slot_medians)),
        ("latency_p90_ms", percentile(&slot_medians, 90.0)),
        (
            "jobs_per_s",
            ratio(jobs.len() as f64, pass_secs.iter().sum()),
        ),
        ("decided_share", ratio(decided as f64, jobs.len() as f64)),
        ("peak_rss_mb", peak_kb as f64 / 1024.0),
        ("setup_s", median(&setups)),
    ]);

    // per spec: the fresh (cache-miss) latencies stand in for the untraced
    // wall time, and every job of the spec feeds the evidence share
    let mut spec_jobs: Vec<Vec<&JobRun>> = vec![Vec::new(); mix.specs.len()];
    let mut spec_fresh_ms: Vec<Vec<f64>> = vec![Vec::new(); mix.specs.len()];
    for pass in &passes {
        for (c, list) in pass.iter().enumerate() {
            for (slot, run) in list.iter().enumerate() {
                let job = mix.clients[c][slot];
                spec_jobs[job.spec].push(run);
                if job.repeat_of.is_none() {
                    spec_fresh_ms[job.spec].push(run.latency_ms);
                }
            }
        }
    }
    for (t, js) in traced.iter_mut().zip(&spec_jobs) {
        t.cross_check(js.iter().map(|j| j.exit));
    }
    let spec_judgements: Vec<Vec<Judgement>> = spec_jobs
        .iter()
        .map(|js| js.iter().map(|j| j.judgement.clone()).collect())
        .collect();
    let inputs: Vec<LayerInput> = mix
        .specs
        .iter()
        .enumerate()
        .map(|(i, q)| LayerInput {
            query: q,
            traced: traced.get(i).and_then(|t| t.traced.as_ref()),
            wall_ms: median(&spec_fresh_ms[i]),
            judgements: &spec_judgements[i],
        })
        .collect();
    values.extend(layer_values(&inputs));
    let sum = |f: fn(&JobRun) -> f64| jobs.iter().map(|j| f(j)).sum::<f64>();
    values.extend([
        (
            "serve.admit_share",
            ratio(sum(|j| j.admit_ms), sum(|j| j.latency_ms)),
        ),
        (
            "serve.wait_docs_per_job",
            ratio(sum(|j| j.docs as f64), jobs.len() as f64),
        ),
        (
            "serve.cache_hit_share",
            ratio(
                count("cache_hits"),
                count("cache_hits") + count("cache_misses"),
            ),
        ),
        ("serve.rejected", sum(|j| j.rejected as f64)),
    ]);

    let (attempted, failed, wrong) = tally(
        jobs.iter()
            .map(|j| &j.judgement)
            .chain(traced.iter().map(|t| &t.judgement)),
    );
    let rows = slots
        .iter()
        .map(|&(c, slot)| {
            let job = mix.clients[c][slot];
            let runs: Vec<&JobRun> = passes.iter().map(|p| &p[c][slot]).collect();
            Json::Obj(vec![
                ("client".into(), Json::num(c)),
                ("slot".into(), Json::num(slot)),
                ("query".into(), Json::str(mix.specs[job.spec].label())),
                (
                    "repeat_of".into(),
                    job.repeat_of.map_or(Json::Null, Json::num),
                ),
                (
                    "latency_ms".into(),
                    Json::Arr(runs.iter().map(|r| Json::Num(r.latency_ms)).collect()),
                ),
                (
                    "stale_waits".into(),
                    Json::num(runs.iter().filter(|r| r.stale_wait).count()),
                ),
                (
                    "admit_ms".into(),
                    Json::Arr(runs.iter().map(|r| Json::Num(r.admit_ms)).collect()),
                ),
                (
                    "classes".into(),
                    Json::Arr(
                        runs.iter()
                            .map(|r| Json::str(r.judgement.class.to_string()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Ok(Measured {
        workload: name.to_string(),
        attempted,
        failed,
        wrong,
        values,
        passes: passes.len(),
        rows,
        spans: span_rows(&mix.specs, &traced),
    })
}
