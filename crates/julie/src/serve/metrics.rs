//! The counters behind `GET /metrics`, rendered in the Prometheus text
//! exposition format (version 0.0.4).
//!
//! Memory is fixed-size: one counter per (engine selector, terminal
//! state) pair and a latency histogram with fixed buckets. The only
//! per-job datum is the admission time of an in-flight job, which the
//! store keeps until the job is terminal.

use std::fmt::Write;
use std::time::Duration;

use crate::engine::ENGINES;
use crate::portfolio::AUTO;

use super::job::{self, JobState};

/// Upper bounds in seconds of the latency histogram's buckets; the
/// `+Inf` bucket is implied.
const LATENCY_BUCKETS: [f64; 14] = [
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
];

/// The terminal states, in label order.
const TERMINAL: [JobState; 3] = [JobState::Done, JobState::Failed, JobState::Cancelled];

/// The `engine` label values: every table row, then `auto`.
const SELECTORS: usize = ENGINES.len() + 1;

fn selector_name(i: usize) -> &'static str {
    ENGINES.get(i).map_or(AUTO, |e| e.name)
}

/// Writes the `# HELP` and `# TYPE` lines that open a metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// The server's counters since it started.
#[derive(Default)]
pub struct Metrics {
    /// Submissions answered from the results cache.
    pub cache_hits: u64,
    /// Submissions the results cache could not answer.
    pub cache_misses: u64,
    /// Terminal jobs by engine selector and terminal state.
    jobs: [[u64; TERMINAL.len()]; SELECTORS],
    /// Latencies per bucket, not cumulative; the `+Inf` bucket is
    /// `latency_count`.
    buckets: [u64; LATENCY_BUCKETS.len()],
    latency_sum: f64,
    latency_count: u64,
}

impl Metrics {
    /// Counts a job of `engine` that reached terminal `state` `latency`
    /// after its admission. An engine this build no longer knows (from
    /// an old journal) is left out of `julie_jobs_total`.
    pub fn observe(&mut self, engine: &str, state: &JobState, latency: Duration) {
        let selector = (0..SELECTORS).find(|&i| selector_name(i) == engine);
        let terminal = TERMINAL.iter().position(|t| t == state);
        if let (Some(e), Some(s)) = (selector, terminal) {
            self.jobs[e][s] += 1;
        }
        let secs = latency.as_secs_f64();
        if let Some(b) = LATENCY_BUCKETS.iter().position(|&le| secs <= le) {
            self.buckets[b] += 1;
        }
        self.latency_sum += secs;
        self.latency_count += 1;
    }

    /// The `GET /metrics` document, with the queue gauges read by the
    /// caller under the same lock as these counters.
    pub fn render(&self, queue_depth: usize, active_workers: usize) -> String {
        let mut out = String::new();
        family(
            &mut out,
            "julie_jobs_total",
            "counter",
            "Jobs that reached a terminal state, by engine selector and state.",
        );
        for (e, states) in self.jobs.iter().enumerate() {
            for (s, n) in states.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "julie_jobs_total{{engine=\"{}\",state=\"{}\"}} {n}",
                    selector_name(e),
                    TERMINAL[s].as_str()
                );
            }
        }
        for (name, kind, help, value) in [
            (
                "julie_queue_depth",
                "gauge",
                "Admitted jobs waiting for a worker.",
                queue_depth as u64,
            ),
            (
                "julie_active_workers",
                "gauge",
                "Workers running a job.",
                active_workers as u64,
            ),
            (
                "julie_cache_hits_total",
                "counter",
                "Submissions answered from the results cache.",
                self.cache_hits,
            ),
            (
                "julie_cache_misses_total",
                "counter",
                "Submissions the results cache could not answer.",
                self.cache_misses,
            ),
            (
                "julie_journal_retries_total",
                "counter",
                "Journal writes attempted again after a failed attempt.",
                job::journal_retries(),
            ),
        ] {
            family(&mut out, name, kind, help);
            let _ = writeln!(out, "{name} {value}");
        }
        family(
            &mut out,
            "julie_job_latency_seconds",
            "histogram",
            "Time from admission to the terminal state.",
        );
        let mut cumulative = 0;
        for (le, n) in LATENCY_BUCKETS.iter().zip(self.buckets) {
            cumulative += n;
            let _ = writeln!(
                out,
                "julie_job_latency_seconds_bucket{{le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = write!(
            out,
            "julie_job_latency_seconds_bucket{{le=\"+Inf\"}} {count}\n\
             julie_job_latency_seconds_sum {}\n\
             julie_job_latency_seconds_count {count}\n",
            self.latency_sum,
            count = self.latency_count
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_counts_jobs_and_accumulates_buckets() {
        let mut m = Metrics::default();
        m.observe("po", &JobState::Done, Duration::from_millis(3));
        m.observe("auto", &JobState::Cancelled, Duration::from_millis(40));
        m.observe("po", &JobState::Done, Duration::from_secs(1000));
        m.observe("classes", &JobState::Failed, Duration::from_millis(40));
        let text = m.render(4, 2);
        for line in [
            "julie_jobs_total{engine=\"po\",state=\"done\"} 2",
            "julie_jobs_total{engine=\"auto\",state=\"cancelled\"} 1",
            "julie_jobs_total{engine=\"full\",state=\"failed\"} 0",
            "julie_queue_depth 4",
            "julie_active_workers 2",
            "julie_job_latency_seconds_bucket{le=\"0.005\"} 1",
            "julie_job_latency_seconds_bucket{le=\"0.05\"} 3",
            "julie_job_latency_seconds_bucket{le=\"300\"} 3",
            "julie_job_latency_seconds_bucket{le=\"+Inf\"} 4",
            "julie_job_latency_seconds_count 4",
        ] {
            assert!(text.lines().any(|l| l == line), "missing `{line}`:\n{text}");
        }
        // every sample line belongs to a family announced before it
        let mut announced = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                announced.push(rest.split(' ').next().unwrap().to_string());
            } else if !line.starts_with('#') {
                let name = line.split(['{', ' ']).next().unwrap();
                assert!(
                    announced.iter().any(|f| name.starts_with(f.as_str())),
                    "`{line}` has no TYPE line"
                );
            }
        }
    }
}
