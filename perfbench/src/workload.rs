//! The four workloads: the check query lists with their hand-written
//! truths, and the seeded job mix of the serve workload.

use std::fmt;
use std::path::Path;
use std::time::Duration;

use petri::PetriNet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every workload, in the order a full run measures them.
pub const WORKLOADS: [&str; 4] = [
    "table1-explicit",
    "symbolic",
    "properties-reduce",
    "serve-mixed",
];

/// `--timeout` of every query without a deadline of its own.
pub const DEFAULT_TIMEOUT_SECS: u64 = 60;

/// The CLI's default `--max-states`.
pub const DEFAULT_MAX_STATES: usize = 10_000_000;

/// A benchmark family of the `models` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// Non-serialized dining philosophers.
    Nsdp,
    /// Asynchronous arbiter tree.
    Asat,
    /// Overtake protocol.
    Over,
    /// Readers and writers.
    Rw,
    /// Milner's cyclic scheduler.
    Cyclic,
}

/// One sized instance of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Model {
    /// The family.
    pub family: Family,
    /// The size parameter.
    pub n: usize,
}

impl Model {
    /// Builds the net.
    pub fn build(self) -> PetriNet {
        match self.family {
            Family::Nsdp => models::nsdp(self.n),
            Family::Asat => models::asat(self.n),
            Family::Over => models::overtake(self.n),
            Family::Rw => models::readers_writers(self.n),
            Family::Cyclic => models::scheduler(self.n),
        }
    }

    /// The `.net` file the set-up writes this model to.
    pub fn file_name(self) -> String {
        let key = match self.family {
            Family::Nsdp => "nsdp",
            Family::Asat => "asat",
            Family::Over => "over",
            Family::Rw => "rw",
            Family::Cyclic => "cyclic",
        };
        format!("{key}{}.net", self.n)
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.family {
            Family::Nsdp => "NSDP",
            Family::Asat => "ASAT",
            Family::Over => "OVER",
            Family::Rw => "RW",
            Family::Cyclic => "CYCLIC",
        };
        write!(f, "{name}({})", self.n)
    }
}

const fn nsdp(n: usize) -> Model {
    Model {
        family: Family::Nsdp,
        n,
    }
}
const fn asat(n: usize) -> Model {
    Model {
        family: Family::Asat,
        n,
    }
}
const fn over(n: usize) -> Model {
    Model {
        family: Family::Over,
        n,
    }
}
const fn rw(n: usize) -> Model {
    Model {
        family: Family::Rw,
        n,
    }
}
const fn cyclic(n: usize) -> Model {
    Model {
        family: Family::Cyclic,
        n,
    }
}

const EAT: &str = "AG !(m(eat0) >= 1 && m(eat1) >= 1)";
const MUTEX: &str = "AG !(m(using0) >= 1 && m(using1) >= 1)";
const SERVED7: &str = "EF m(served7) >= 1";
const PASSING: &str = "EF m(passedScenic1) >= 1 && m(passedQuick2) >= 1";
const READ_SAFE: &str = "AG m(reading0) <= 1";

/// The answer a query must get, in `julie check` exit-code terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Exit 0: no goal marking is reachable (deadlock-free, `AG` holds,
    /// `EF` does not hold).
    Holds,
    /// Exit 1: a goal marking is reachable (a deadlock, `AG` violated,
    /// `EF` holds).
    Violated,
}

impl Truth {
    /// The exit code of a correct definitive answer.
    pub fn exit_code(self) -> i32 {
        match self {
            Truth::Holds => 0,
            Truth::Violated => 1,
        }
    }
}

/// The hand-written truth table: every (model family, property) pair a
/// workload uses, with the fact of the model that settles it.
fn truth(model: Model, property: Option<&str>) -> (Truth, &'static str) {
    use Family::*;
    use Truth::*;
    match (model.family, property) {
        (Nsdp, None) => (
            Violated,
            "every hungry philosopher can take her left fork first: a circular wait",
        ),
        (Asat, None) => (
            Violated,
            "one tournament round ends with one user served and the losers pending",
        ),
        (Over, None) => (
            Violated,
            "each car runs one overtake round and stops in a final stage",
        ),
        (Rw, None) => (
            Holds,
            "a reader or writer can always finish and hand its slots back",
        ),
        (Cyclic, None) => (
            Holds,
            "the token always circulates and every task ends on its own",
        ),
        (Nsdp, Some(EAT)) => (
            Holds,
            "philosophers 0 and 1 both need fork1 to eat, and it holds one token",
        ),
        (Asat, Some(MUTEX)) => (
            Holds,
            "the root token travels down one locked path to exactly one user",
        ),
        (Asat, Some(SERVED7)) => (
            Violated,
            "every cell on user 7's path can latch it, so user 7 can win",
        ),
        (Over, Some(PASSING)) => (
            Violated,
            "cars choose independently: car 1 crawls past while car 2 passes quickly",
        ),
        (Rw, Some(READ_SAFE)) => (Holds, "the net is safe: no place ever holds two tokens"),
        _ => panic!("no hand-written truth for {model} under {property:?}"),
    }
}

/// One (net, engine, property, flags) tuple: a single `julie check`
/// invocation, or the spec of a serve job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// `--engine`.
    pub engine: &'static str,
    /// The net.
    pub model: Model,
    /// `--property`, or the default `EF deadlock`.
    pub property: Option<&'static str>,
    /// `--reduce` (all rules).
    pub reduce: bool,
    /// `--zdd`.
    pub zdd: bool,
    /// `--max-states`, when not the CLI default.
    pub max_states: Option<usize>,
    /// An explicit `--timeout` makes this a deadline row: it measures
    /// budget polling, and the per-layer counters leave it out.
    pub deadline: Option<u64>,
    /// The expected answer.
    pub truth: Truth,
    /// Why the expected answer is right.
    pub why: &'static str,
}

impl Query {
    /// `engine` on `model` under the default property, with the truth the
    /// table gives it.
    pub fn new(engine: &'static str, model: Model) -> Query {
        let (truth, why) = truth(model, None);
        Query {
            engine,
            model,
            property: None,
            reduce: false,
            zdd: false,
            max_states: None,
            deadline: None,
            truth,
            why,
        }
    }

    fn with_property(mut self, property: &'static str) -> Query {
        (self.truth, self.why) = truth(self.model, Some(property));
        self.property = Some(property);
        self
    }

    fn with_reduce(mut self) -> Query {
        self.reduce = true;
        self
    }

    fn with_zdd(mut self) -> Query {
        self.zdd = true;
        self
    }

    fn with_max_states(mut self, n: usize) -> Query {
        self.max_states = Some(n);
        self
    }

    fn with_deadline(mut self, secs: u64) -> Query {
        self.deadline = Some(secs);
        self
    }

    /// The wall-clock budget passed as `--timeout`.
    pub fn timeout_secs(&self) -> u64 {
        self.deadline.unwrap_or(DEFAULT_TIMEOUT_SECS)
    }

    /// The hard cap at which the harness kills a run still alive:
    /// `timeout + max(2 s, timeout)`.
    pub fn cap(&self) -> Duration {
        let t = self.timeout_secs();
        Duration::from_secs(t + t.max(2))
    }

    /// The `julie` arguments of one untraced run against the net files
    /// in `nets`.
    pub fn check_args(&self, nets: &Path) -> Vec<String> {
        let mut args = vec![
            "check".to_string(),
            nets.join(self.model.file_name()).display().to_string(),
            format!("--engine={}", self.engine),
            "--threads=1".to_string(),
            "--json".to_string(),
            format!("--timeout={}", self.timeout_secs()),
        ];
        if self.reduce {
            args.push("--reduce".into());
        }
        if self.zdd {
            args.push("--zdd".into());
        }
        if let Some(n) = self.max_states {
            args.push(format!("--max-states={n}"));
        }
        if let Some(p) = self.property {
            args.push(format!("--property={p}"));
        }
        args
    }

    /// A short human-readable name, e.g. `po NSDP(8) --reduce`.
    pub fn label(&self) -> String {
        let mut s = format!("{} {}", self.engine, self.model);
        if self.zdd {
            s.push_str(" --zdd");
        }
        if self.reduce {
            s.push_str(" --reduce");
        }
        if let Some(n) = self.max_states {
            s.push_str(&format!(" --max-states={n}"));
        }
        if let Some(t) = self.deadline {
            s.push_str(&format!(" --timeout={t}"));
        }
        if let Some(p) = self.property {
            s.push_str(&format!(" [{p}]"));
        }
        s
    }
}

/// `table1-explicit`: the explicit explorers and the portfolio on the
/// paper's Table 1 nets, default property, no reduction.
fn table1_explicit() -> Vec<Query> {
    let mut qs = Vec::new();
    for m in [nsdp(9), nsdp(8), asat(8), over(6), rw(15), cyclic(12)] {
        qs.push(Query::new("full", m));
    }
    for m in [nsdp(10), asat(8), over(6), rw(15), cyclic(12)] {
        qs.push(Query::new("po", m));
    }
    for m in [nsdp(8), asat(8), over(6), rw(15), cyclic(12)] {
        qs.push(Query::new("gpo", m));
    }
    for m in [nsdp(8), asat(8)] {
        qs.push(Query::new("gpo", m).with_zdd());
    }
    // NSDP(9) rather than NSDP(10): the portfolio's gpo leg does not poll
    // its cancel flag while enumerating |r0|, so on NSDP(10) every auto
    // run holds ~2 GB for ~3 s; NSDP(9) shows the same loser drain at
    // a quarter of the memory
    qs.push(Query::new("auto", nsdp(9)));
    qs
}

/// `symbolic`: the BDD, unfolding and PDR engines plus two deadline rows;
/// never calls an explicit explorer.
fn symbolic() -> Vec<Query> {
    let mut qs = Vec::new();
    for m in [nsdp(8), over(6), cyclic(12), rw(12)] {
        qs.push(Query::new("bdd", m));
    }
    for m in [asat(8), over(6), cyclic(12)] {
        qs.push(Query::new("unfold", m));
    }
    for m in [nsdp(10), asat(8), over(6), rw(15), cyclic(12)] {
        qs.push(Query::new("pdr", m));
    }
    // deadline rows: both engines poll the deadline and answer
    // inconclusive. (unfold ignores its deadline, so an unfold deadline
    // row would be killed at the cap on every run.)
    qs.push(Query::new("pdr", over(8)).with_deadline(1));
    qs.push(Query::new("bdd", nsdp(10)).with_deadline(1));
    qs
}

/// `properties-reduce`: reduction, property compilation, visible-set
/// stubborn sets, goal scans and witness lifting.
fn properties_reduce() -> Vec<Query> {
    let mut qs = Vec::new();
    for (engine, m) in [
        ("full", nsdp(8)),
        ("po", nsdp(8)),
        ("full", asat(8)),
        ("po", asat(8)),
        ("full", over(6)),
        ("gpo", over(6)),
        ("gpo", cyclic(12)),
    ] {
        qs.push(Query::new(engine, m).with_reduce());
    }
    for engine in ["full", "po", "bdd", "pdr"] {
        qs.push(
            Query::new(engine, nsdp(10))
                .with_property(EAT)
                .with_reduce(),
        );
    }
    for engine in ["full", "po", "auto"] {
        qs.push(
            Query::new(engine, asat(8))
                .with_property(MUTEX)
                .with_reduce(),
        );
    }
    qs.push(
        Query::new("pdr", asat(8))
            .with_property(MUTEX)
            .with_reduce()
            .with_max_states(2000),
    );
    qs.push(Query::new("pdr", asat(8)).with_property(MUTEX));
    for engine in ["full", "auto"] {
        qs.push(
            Query::new(engine, asat(8))
                .with_property(SERVED7)
                .with_reduce(),
        );
    }
    for engine in ["full", "po", "bdd", "pdr"] {
        qs.push(
            Query::new(engine, over(6))
                .with_property(PASSING)
                .with_reduce(),
        );
    }
    for engine in ["po", "pdr"] {
        qs.push(
            Query::new(engine, rw(12))
                .with_property(READ_SAFE)
                .with_reduce(),
        );
    }
    qs
}

/// Client threads of the serve workload (a closed loop: each sends its
/// next job only after the previous one is terminal).
pub const SERVE_CLIENTS: usize = 2;

/// Small zoo nets with known truth, for the serve mix.
const SERVE_MODELS: [Model; 17] = [
    nsdp(4),
    nsdp(5),
    nsdp(6),
    asat(2),
    asat(4),
    over(3),
    over(4),
    over(5),
    rw(6),
    rw(7),
    rw(8),
    rw(9),
    cyclic(4),
    cyclic(5),
    cyclic(6),
    cyclic(7),
    cyclic(8),
];

const SERVE_ENGINES: [&str; 5] = ["po", "gpo", "full", "pdr", "bdd"];

/// One slot of a client's job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index of the job's spec in [`ServeMix::specs`].
    pub spec: usize,
    /// The earlier slot of the same list whose submission this job
    /// repeats exactly (a guaranteed cache hit), or `None` for a fresh
    /// submission (a guaranteed miss).
    pub repeat_of: Option<usize>,
}

/// The serve workload's inputs: the distinct job specs and each client's
/// job list.
#[derive(Debug, Clone)]
pub struct ServeMix {
    /// Distinct (net, engine, property) specs.
    pub specs: Vec<Query>,
    /// One job list per client thread.
    pub clients: Vec<Vec<Job>>,
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// Every (model, engine) pair under the default property, plus one
/// adjacent-philosopher `AG` spec per engine on an NSDP net, so a quarter
/// of the NSDP jobs carry the property.
fn serve_specs() -> Vec<Query> {
    let mut specs = Vec::new();
    for model in SERVE_MODELS {
        for engine in SERVE_ENGINES {
            specs.push(Query::new(engine, model));
        }
    }
    for (i, engine) in SERVE_ENGINES.into_iter().enumerate() {
        specs.push(Query::new(engine, nsdp(4 + i % 3)).with_property(EAT));
    }
    specs
}

/// Draws the serve job lists from `seed`. Client `c` owns every
/// `SERVE_CLIENTS`-th spec, so both lists carry the same kinds of work
/// whatever the seed. Each spec is sent fresh once per pass and repeated
/// once later by the same client, so half the jobs are cache hits; the
/// seed orders each list and places the repeats.
pub fn serve_mix(seed: u64) -> ServeMix {
    let specs = serve_specs();
    let mut rng = StdRng::seed_from_u64(seed);
    let clients = (0..SERVE_CLIENTS)
        .map(|c| {
            let own: Vec<usize> = (c..specs.len()).step_by(SERVE_CLIENTS).collect();
            let mut fresh = shuffled(own.len(), &mut rng).into_iter().map(|i| own[i]);
            let mut next = fresh.next();
            let mut jobs: Vec<Job> = Vec::new();
            // slots sent fresh and not yet repeated
            let mut pending: Vec<usize> = Vec::new();
            while next.is_some() || !pending.is_empty() {
                match next {
                    Some(spec) if pending.is_empty() || rng.gen_bool(0.5) => {
                        pending.push(jobs.len());
                        jobs.push(Job {
                            spec,
                            repeat_of: None,
                        });
                        next = fresh.next();
                    }
                    _ => {
                        let slot = pending.swap_remove(rng.gen_range(0..pending.len()));
                        jobs.push(Job {
                            spec: jobs[slot].spec,
                            repeat_of: Some(slot),
                        });
                    }
                }
            }
            jobs
        })
        .collect();
    ServeMix { specs, clients }
}

/// A workload's inputs, made from its name and the seed.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `julie check` queries, run one at a time.
    Check(Vec<Query>),
    /// Jobs for `julie serve`.
    Serve(ServeMix),
}

impl Workload {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "table1-explicit" => Workload::Check(table1_explicit()),
            "symbolic" => Workload::Check(symbolic()),
            "properties-reduce" => Workload::Check(properties_reduce()),
            "serve-mixed" => Workload::Serve(serve_mix(seed)),
            _ => return None,
        })
    }

    /// The queries the traced pass runs: the check queries, or the
    /// distinct serve specs.
    pub fn queries(&self) -> &[Query] {
        match self {
            Workload::Check(qs) => qs,
            Workload::Serve(mix) => &mix.specs,
        }
    }
}

/// The warm-up run of the set-up: `po` on the workload's smallest net.
pub fn warm_up(queries: &[Query]) -> Query {
    let model = queries
        .iter()
        .map(|q| q.model)
        .min_by_key(|m| (m.build().place_count(), *m))
        .expect("a workload has queries");
    Query::new("po", model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_its_queries() {
        let sizes: Vec<usize> = WORKLOADS
            .iter()
            .map(|w| Workload::by_name(w, 1).expect("known").queries().len())
            .collect();
        // serve: 17 nets x 5 engines, plus 5 NSDP property specs
        assert_eq!(sizes, [19, 14, 24, 90]);
        assert!(Workload::by_name("nope", 1).is_none());
    }

    #[test]
    fn the_serve_mix_repeats_half_its_jobs_and_varies_only_the_order() {
        let a = serve_mix(7);
        assert_eq!(a.clients, serve_mix(7).clients, "same seed, same lists");
        assert_ne!(a.clients, serve_mix(8).clients, "the seed orders the lists");
        let mut sent = vec![0; a.specs.len()];
        for list in &a.clients {
            assert_eq!(list.len(), 90);
            for (slot, job) in list.iter().enumerate() {
                sent[job.spec] += 1;
                if let Some(earlier) = job.repeat_of {
                    assert!(earlier < slot);
                    assert_eq!(list[earlier].spec, job.spec);
                    assert_eq!(list[earlier].repeat_of, None);
                }
            }
        }
        assert!(
            sent.iter().all(|&n| n == 2),
            "each spec: one fresh, one repeat"
        );
        let nsdp: Vec<&Query> = a
            .specs
            .iter()
            .filter(|q| q.model.family == Family::Nsdp)
            .collect();
        let with_property = nsdp.iter().filter(|q| q.property.is_some()).count();
        assert_eq!(4 * with_property, nsdp.len());
    }

    #[test]
    fn query_arguments_mirror_the_flags() {
        let q = Query::new("pdr", asat(8))
            .with_property(MUTEX)
            .with_reduce()
            .with_max_states(2000);
        let args = q.check_args(Path::new("nets"));
        assert_eq!(
            args,
            [
                "check",
                "nets/asat8.net",
                "--engine=pdr",
                "--threads=1",
                "--json",
                "--timeout=60",
                "--reduce",
                "--max-states=2000",
                "--property=AG !(m(using0) >= 1 && m(using1) >= 1)",
            ]
        );
        assert_eq!(q.cap(), Duration::from_secs(120));
        assert_eq!(q.with_deadline(1).cap(), Duration::from_secs(3));
    }
}
