//! The traced pass. Each query runs in a child `perf --trace-query check
//! <net> [flags]` process, given the arguments its untraced run passes to
//! `julie`. The child calls each layer's public entry point in turn, as
//! `julie check` does, and times every call from outside the layer. It
//! prints its spans, its own peak memory and the report as one JSON line;
//! the parent keeps them in memory.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use julie::engine::{self, RunSpec};
use julie::json::Json;
use julie::portfolio::{self, PortfolioOptions};
use petri::{Budget, CheckpointConfig, Observed, Property, ReduceOptions};

use crate::exec;
use crate::workload::DEFAULT_MAX_STATES;

/// The options of one traced query, parsed from its `julie` arguments.
struct LayerSpec<'a> {
    engine: &'a str,
    property: Option<&'a str>,
    reduce: bool,
    zdd: bool,
    max_states: usize,
    timeout_secs: u64,
}

/// The root span every layer span hangs off.
pub const ROOT: &str = "query";

/// One timed call, in microseconds since the child started the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `query`, `parse`, `compile`, `reduce`, `engine` or `render`.
    pub name: String,
    /// Start offset.
    pub start_us: f64,
    /// End offset.
    pub end_us: f64,
    /// The enclosing span (`None` for the root).
    pub parent: Option<String>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    /// The span as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("start_us".into(), Json::Num(self.start_us)),
            ("end_us".into(), Json::Num(self.end_us)),
            (
                "parent".into(),
                self.parent.as_ref().map_or(Json::Null, Json::str),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Span> {
        let num = |k| match j.get(k) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        };
        Some(Span {
            name: j.get("name")?.as_str()?.to_string(),
            start_us: num("start_us")?,
            end_us: num("end_us")?,
            parent: j.get("parent").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// What a traced child reported.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The root span first, then one span per layer called.
    pub spans: Vec<Span>,
    /// The child's own `VmHWM`, in KiB.
    pub vmhwm_kb: u64,
    /// The `--json` report document.
    pub report: Json,
}

impl Traced {
    /// Total milliseconds of the spans called `name`.
    pub fn layer_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Parses the child's output line.
    pub fn parse(line: &str) -> Result<Traced, String> {
        let doc = Json::parse(line)?;
        let Some(Json::Arr(spans)) = doc.get("spans") else {
            return Err("trace line has no spans".into());
        };
        Ok(Traced {
            spans: spans
                .iter()
                .map(Span::from_json)
                .collect::<Option<_>>()
                .ok_or("malformed span")?,
            vmhwm_kb: doc.get("vmhwm_kb").and_then(Json::as_u64).unwrap_or(0),
            report: doc
                .get("report")
                .cloned()
                .ok_or("trace line has no report")?,
        })
    }

    /// The line a child prints.
    fn render(&self) -> String {
        Json::Obj(vec![
            (
                "spans".into(),
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
            ("vmhwm_kb".into(), Json::num(self.vmhwm_kb as usize)),
            ("report".into(), self.report.clone()),
        ])
        .render()
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn us(&self, at: Duration) -> f64 {
        at.as_secs_f64() * 1e6
    }

    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let value = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name: name.into(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent: Some(ROOT.into()),
        });
        value
    }
}

/// The flags a traced child accepts: exactly those
/// [`Query::check_args`](crate::workload::Query::check_args) writes.
const CHILD_FLAGS: [&str; 8] = [
    "engine",
    "threads",
    "json",
    "timeout",
    "reduce",
    "zdd",
    "max-states",
    "property",
];

/// Child side: takes the arguments an untraced run passes to `julie`
/// (`check <net> --engine=… …`), calls the layers `julie check` calls
/// with the same budget and options, and returns the line to print.
pub fn run_layers(args: &[String]) -> Result<String, String> {
    if args.first().map(String::as_str) != Some("check") {
        return Err("a traced query takes `check <net> [flags]`".into());
    }
    for a in &args[1..] {
        if let Some(flag) = a.strip_prefix("--") {
            let key = flag.split('=').next().unwrap_or(flag);
            if !CHILD_FLAGS.contains(&key) {
                return Err(format!("a traced query does not take `--{key}`"));
            }
        }
    }
    let number = |key: &str| -> Result<Option<u64>, String> {
        julie::option(args, key)
            .map(|s| s.parse().map_err(|_| format!("bad --{key} `{s}`")))
            .transpose()
    };
    if number("threads")? != Some(1) {
        return Err("a traced query runs at --threads=1".into());
    }
    let net_path = julie::positional(args)
        .first()
        .map(|p| Path::new(p.as_str()))
        .ok_or("missing net file")?;
    let query = LayerSpec {
        engine: julie::option(args, "engine").ok_or("missing --engine")?,
        property: julie::option(args, "property"),
        reduce: julie::flag(args, "reduce"),
        zdd: julie::flag(args, "zdd"),
        max_states: number("max-states")?.map_or(DEFAULT_MAX_STATES, |n| n as usize),
        timeout_secs: number("timeout")?.ok_or("missing --timeout")?,
    };
    let text = std::fs::read_to_string(net_path)
        .map_err(|e| format!("cannot read `{}`: {e}", net_path.display()))?;
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let net = rec
        .time("parse", || petri::parse_net(&text))
        .map_err(|e| e.to_string())?;
    let property = rec.time("compile", || -> Result<Property, String> {
        let property = match query.property {
            Some(p) => Property::parse(p)?,
            None => Property::deadlock(),
        };
        property.compile(&net)?;
        Ok(property)
    })?;
    let reduce_opts = ReduceOptions::default();
    let reduction = if query.reduce {
        let observed = Observed {
            places: property.observed_places(),
            transitions: property.observed_transitions(),
        };
        Some(
            rec.time("reduce", || {
                petri::reduce_observed(&net, &reduce_opts, &observed)
            })
            .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let rules = if query.reduce {
        reduce_opts.rules_string()
    } else {
        String::new()
    };
    let spec = RunSpec {
        engine: query.engine.to_string(),
        zdd: query.zdd,
        witnesses: 1,
        threads: 1,
        property,
    };
    let budget = Budget::default()
        .cap_states(query.max_states)
        .with_timeout(Duration::from_secs(query.timeout_secs));
    let ckpt = CheckpointConfig::default();
    let report = rec.time("engine", || {
        if query.engine == "auto" {
            portfolio::run_portfolio(
                &net,
                reduction.as_ref(),
                &rules,
                &spec,
                &budget,
                &ckpt,
                None,
                &PortfolioOptions::default(),
            )
            .map(|outcome| {
                let mut report = outcome.report;
                report.legs = outcome.legs;
                report
            })
        } else {
            engine::run_engine(
                &net,
                reduction.as_ref(),
                &rules,
                &spec,
                &budget,
                &ckpt,
                None,
            )
        }
    })?;
    let doc = rec.time("render", || {
        let doc = report.to_json();
        black_box(doc.render());
        black_box(report.render_text());
        doc
    });
    let end = rec.origin.elapsed();
    let mut spans = vec![Span {
        name: ROOT.into(),
        start_us: 0.0,
        end_us: rec.us(end),
        parent: None,
    }];
    spans.append(&mut rec.spans);
    Ok(Traced {
        spans,
        vmhwm_kb: exec::vmhwm_kb("self").unwrap_or(0),
        report: doc,
    }
    .render())
}
