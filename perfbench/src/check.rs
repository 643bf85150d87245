//! The three `julie check` workloads: each query is a real `julie check`
//! process, one at a time, at one thread.

use std::time::Instant;

use julie::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{layer_values, LayerInput, Values};
use crate::outcome::{Class, Judgement, Oracle};
use crate::stats::{geomean, median, percentile, ratio};
use crate::workload::{shuffled, warm_up, Query};
use crate::{
    another_pass, run_query, span_rows, tally, trace_pass, write_nets, Config, Measured, Run,
    SETUPS,
};

/// Runs `queries` as the workload `name`: set-up, the traced pass when
/// the mode asks for one, then untraced passes until the run's time is
/// spent.
pub fn run(cfg: &Config, name: &str, queries: &[Query]) -> Result<Measured, String> {
    let dir = cfg.work.join(name);
    let nets = dir.join("nets");
    let oracles: Vec<Oracle> = queries.iter().map(Oracle::new).collect();
    let warm = warm_up(queries);
    let warm_oracle = Oracle::new(&warm);
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        write_nets(&nets, queries)?;
        let run = run_query(&cfg.julie, &warm, &warm_oracle, &nets, &dir, warm.cap())?;
        if run.judgement.class != Class::Decided {
            return Err(format!(
                "warm-up `{}` ended {}",
                warm.label(),
                run.judgement.class
            ));
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let mut traced = if cfg.mode.traced() {
        trace_pass(cfg, queries, &oracles, &nets, &dir)?
    } else {
        Vec::new()
    };
    let mut runs: Vec<Vec<Run>> = queries.iter().map(|_| Vec::new()).collect();
    let mut pass_secs = Vec::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    while another_pass(start, &pass_secs, cfg) {
        let t = Instant::now();
        for i in shuffled(queries.len(), &mut rng) {
            let q = &queries[i];
            // keep only the last report: a child's ru_maxrss starts from the
            // harness's own peak resident set, so the harness stays small
            if let Some(prev) = runs[i].last_mut() {
                prev.report = None;
            }
            runs[i].push(run_query(&cfg.julie, q, &oracles[i], &nets, &dir, q.cap())?);
        }
        pass_secs.push(t.elapsed().as_secs_f64());
    }
    for (t, rs) in traced.iter_mut().zip(&runs) {
        t.cross_check(rs.iter().map(|r| r.code));
    }

    let medians: Vec<f64> = runs
        .iter()
        .map(|rs| median(&rs.iter().map(|r| r.wall_ms).collect::<Vec<_>>()))
        .collect();
    let judgements: Vec<_> = runs.iter().flatten().map(|r| &r.judgement).collect();
    let decided = judgements
        .iter()
        .filter(|j| j.class == Class::Decided)
        .count();
    let mut values = Values::from([
        ("total_s", medians.iter().sum::<f64>() / 1e3),
        ("geomean_ms", geomean(&medians)),
        ("latency_p90_ms", percentile(&medians, 90.0)),
        (
            "jobs_per_s",
            ratio(judgements.len() as f64, pass_secs.iter().sum()),
        ),
        (
            "decided_share",
            ratio(decided as f64, judgements.len() as f64),
        ),
        (
            "peak_rss_mb",
            runs.iter()
                .flatten()
                .map(|r| r.peak_rss_mb)
                .fold(0.0, f64::max),
        ),
        ("setup_s", median(&setups)),
    ]);
    let per_query: Vec<Vec<_>> = runs
        .iter()
        .map(|rs| rs.iter().map(|r| r.judgement.clone()).collect())
        .collect();
    let inputs: Vec<LayerInput> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| LayerInput {
            query: q,
            traced: traced.get(i).and_then(|t| t.traced.as_ref()),
            wall_ms: medians[i],
            judgements: &per_query[i],
        })
        .collect();
    values.extend(layer_values(&inputs));

    let (attempted, failed, wrong) = tally(
        judgements
            .into_iter()
            .chain(traced.iter().map(|t| &t.judgement)),
    );
    let rows = queries
        .iter()
        .enumerate()
        .map(|(i, q)| row(q, &runs[i], medians[i], traced.get(i).map(|t| &t.judgement)))
        .collect();
    Ok(Measured {
        workload: name.to_string(),
        attempted,
        failed,
        wrong,
        values,
        passes: pass_secs.len(),
        rows,
        spans: span_rows(queries, &traced),
    })
}

/// A query's row in `results.json`.
fn row(q: &Query, runs: &[Run], median_ms: f64, traced: Option<&Judgement>) -> Json {
    let report = runs.iter().rev().find_map(|r| r.report.as_ref());
    let field = |k: &str| report.and_then(|r| r.get(k)).cloned().unwrap_or(Json::Null);
    Json::Obj(vec![
        ("query".into(), Json::str(q.label())),
        ("truth".into(), Json::str(format!("{:?}", q.truth))),
        ("why".into(), Json::str(q.why)),
        ("median_ms".into(), Json::Num(median_ms)),
        (
            "peak_rss_mb".into(),
            Json::Arr(runs.iter().map(|r| Json::Num(r.peak_rss_mb)).collect()),
        ),
        (
            "walls_ms".into(),
            Json::Arr(runs.iter().map(|r| Json::Num(r.wall_ms)).collect()),
        ),
        (
            "classes".into(),
            Json::Arr(
                runs.iter()
                    .map(|r| Json::str(r.judgement.class.to_string()))
                    .collect(),
            ),
        ),
        (
            "traced".into(),
            traced.map_or(Json::Null, |j| Json::str(j.class.to_string())),
        ),
        ("states".into(), field("states")),
        ("details".into(), field("details")),
    ])
}
