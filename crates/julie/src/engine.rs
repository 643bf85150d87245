//! The shared engine runner: one table of the verification engines and
//! one entry point that drives any of them and returns a [`CheckReport`].
//! `julie check` renders the report as prose or `--json`; `julie serve`
//! workers store its JSON rendering as the job result, so both paths agree
//! byte-for-byte on what a verdict looks like.
//!
//! [`ENGINES`] is the only place an engine is named: the CLI, serve
//! admission, the checkpoint checks and the `--engine=auto` schedule all
//! read it, so adding an engine is adding one row.

use gpo_core::{analyze, GpoOptions, ZddFamily};
use partial_order::{ReducedOptions, ReducedReachability, SeedStrategy};
use petri::{
    Budget, CheckpointConfig, CompiledProperty, ExploreOptions, Marking, Outcome, PetriNet,
    Property, ReachabilityGraph, Reduction, Snapshot, TransitionId, Verdict,
};
use symbolic::{SymbolicOptions, SymbolicReachability};
use unfolding::Unfolding;

use crate::portfolio::{AUTO, RACEABLE};
use crate::report::{CheckReport, ReductionSummary, Witness};

/// One row of the engine table.
pub struct Engine {
    /// The `--engine` selector.
    pub name: &'static str,
    /// The stage of the default `--engine=auto` schedule that launches it.
    pub stage: usize,
    /// Whether it honours `--checkpoint`/`--resume`.
    pub checkpoint: bool,
    /// Runs it.
    pub run: fn(&Run) -> Result<CheckReport, String>,
}

/// Every engine, in the escalation order of the default `--engine=auto`
/// schedule: cheap legs first, exhaustive reachability last.
pub const ENGINES: [Engine; 6] = [
    Engine {
        name: "po",
        stage: 0,
        checkpoint: true,
        run: run_po,
    },
    Engine {
        name: "gpo",
        stage: 0,
        checkpoint: true,
        run: run_gpo,
    },
    Engine {
        name: "pdr",
        stage: 0,
        checkpoint: false,
        run: run_pdr,
    },
    Engine {
        name: "bdd",
        stage: 1,
        checkpoint: false,
        run: run_bdd,
    },
    Engine {
        name: "unfold",
        stage: 1,
        checkpoint: false,
        run: run_unfold,
    },
    Engine {
        name: "full",
        stage: 2,
        checkpoint: true,
        run: run_full,
    },
];

/// The engine `julie check` and `julie serve` run when none is named.
pub const DEFAULT_ENGINE: &str = ENGINES[1].name;

/// Looks up the table row of an engine selector.
pub fn find(name: &str) -> Result<&'static Engine, String> {
    let table: &'static [Engine] = &ENGINES;
    table.iter().find(|e| e.name == name).ok_or_else(|| {
        format!(
            "unknown engine `{name}` (engines: {}, {AUTO})",
            RACEABLE.join(", ")
        )
    })
}

/// Checks an `--engine` selector: a table row or the `auto` portfolio.
pub fn check_selector(name: &str) -> Result<(), String> {
    if name == AUTO {
        return Ok(());
    }
    find(name).map(drop)
}

/// Engine-independent knobs of one verification run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Engine selector: a name from [`ENGINES`], or `auto`.
    pub engine: String,
    /// Ignored: the gpo engine always runs on ZDD families. Kept so that
    /// callers which still set it (from an accepted `--zdd`) compile.
    pub zdd: bool,
    /// Deadlock witnesses to report.
    pub witnesses: usize,
    /// Worker threads for the full/po/gpo engines.
    pub threads: usize,
    /// The property to verify. The default (`EF deadlock`) follows the
    /// exact legacy deadlock path of every engine; any other property
    /// re-aims the search at its goal markings (φ under `EF`, ¬φ under
    /// `AG`).
    pub property: Property,
}

impl RunSpec {
    /// Whether this engine supports `--checkpoint`/`--resume`. `auto`
    /// qualifies: the portfolio designates one checkpoint-capable leg to
    /// snapshot under an engine stamp.
    pub fn supports_checkpoint(&self) -> bool {
        self.engine == AUTO || find(&self.engine).is_ok_and(|e| e.checkpoint)
    }
}

/// What one engine run reads: the nets, the compiled property, the knobs,
/// the budget and the checkpoint plumbing.
pub struct Run<'a> {
    original: &'a PetriNet,
    reduction: Option<&'a Reduction>,
    /// The net the engine explores: the reduced net under `--reduce`.
    net: &'a PetriNet,
    compiled: CompiledProperty,
    spec: &'a RunSpec,
    budget: &'a Budget,
    ckpt: &'a CheckpointConfig,
    resume: Option<&'a Snapshot>,
    summary: Option<ReductionSummary>,
}

impl Run<'_> {
    /// Starts the report of a finished exploration: the header fields plus
    /// the outcome's budget facts. Returns the explored value alongside.
    fn open<T>(&self, engine_desc: &'static str, outcome: Outcome<T>) -> (CheckReport, T) {
        let (value, exhausted, coverage) = match outcome {
            Outcome::Complete(v) => (v, None, None),
            Outcome::Partial {
                result,
                reason,
                coverage,
            } => (result, Some(reason), Some(coverage)),
        };
        let report = CheckReport {
            net: self.original.name().to_string(),
            engine: self.spec.engine.clone(),
            engine_desc,
            states_line: String::new(),
            states: 0,
            verdict: Verdict::DeadlockFree,
            exhausted,
            coverage,
            detail_lines: Vec::new(),
            details: Vec::new(),
            witnesses: Vec::new(),
            certificate: Vec::new(),
            reduction: self.summary.clone(),
            property: self.spec.property.clone(),
            legs: Vec::new(),
        };
        (report, value)
    }

    /// Lifts one goal marking (and its trace, when the engine recorded
    /// one) back to the original net and renders it for display. With a
    /// trace the lift is exact; without one, removed sink places show
    /// their initial value and the witness is flagged `statically_lifted`.
    fn witness(
        &self,
        marking: &Marking,
        trace: Option<&[TransitionId]>,
    ) -> Result<Witness, String> {
        let original = self.original;
        let names = |t: &[TransitionId]| {
            t.iter()
                .map(|&x| original.transition_name(x).to_string())
                .collect()
        };
        let Some(r) = self.reduction else {
            return Ok(Witness {
                marking: original.display_marking(marking).to_string(),
                trace: trace.map(names),
                statically_lifted: false,
            });
        };
        let Some(t) = trace else {
            return Ok(Witness {
                marking: original
                    .display_marking(&r.map.lift_marking(marking))
                    .to_string(),
                trace: None,
                statically_lifted: true,
            });
        };
        let lifted = r
            .map
            .lift_trace(t)
            .map_err(|e| e.to_string())?
            .ok_or("reduced-net witness does not lift to the original net")?;
        let m = original
            .fire_sequence(original.initial_marking(), lifted.iter().copied())
            .map_err(|e| e.to_string())?
            .ok_or("lifted witness does not replay on the original net")?;
        Ok(Witness {
            marking: original.display_marking(&m).to_string(),
            trace: Some(names(&lifted)),
            statically_lifted: false,
        })
    }

    /// Lifts trace-less goal markings, in order.
    fn witnesses<'m>(
        &self,
        markings: impl IntoIterator<Item = &'m Marking>,
    ) -> Result<Vec<Witness>, String> {
        markings
            .into_iter()
            .map(|m| self.witness(m, None))
            .collect()
    }
}

/// Sets the verdict of an exploration that did or did not `find` a goal
/// marking, given the budget facts already in `report`.
fn settle(report: &mut CheckReport, found: bool) {
    let frontier = report.coverage.as_ref().map_or(0, |c| c.frontier_len);
    report.verdict = Verdict::from_observation(found, report.exhausted.is_none(), frontier);
}

/// Runs one verification with the chosen engine. `reduction`, when
/// present, is the structural pre-pass whose reduced net the engine
/// explores; all reported witnesses are lifted back to `original`.
///
/// `ckpt`/`resume` are honoured by the engines whose table row sets
/// `checkpoint`; callers must pre-validate (via
/// [`RunSpec::supports_checkpoint`]) that other engines are not asked to
/// checkpoint.
pub fn run_engine(
    original: &PetriNet,
    reduction: Option<&Reduction>,
    rules: &str,
    spec: &RunSpec,
    budget: &Budget,
    ckpt: &CheckpointConfig,
    resume: Option<&Snapshot>,
) -> Result<CheckReport, String> {
    let engine = find(&spec.engine)?;
    let net: &PetriNet = reduction.map_or(original, |r| &r.net);
    // resolve the property against the net the engine actually explores;
    // `--reduce` protects observed nodes, so the names are still there
    let compiled = spec
        .property
        .compile(net)
        .map_err(|e| format!("property error: {e}"))?;
    (engine.run)(&Run {
        original,
        reduction,
        net,
        compiled,
        spec,
        budget,
        ckpt,
        resume,
        summary: reduction.map(|r| ReductionSummary::new(rules, &r.report)),
    })
}

fn run_full(run: &Run) -> Result<CheckReport, String> {
    // witness paths come from the origins the graph always records
    let opts = ExploreOptions {
        record_edges: false,
        threads: run.spec.threads,
    };
    let outcome = ReachabilityGraph::explore(run.net, &opts, run.budget, run.ckpt, run.resume)
        .map_err(|e| e.to_string())?;
    let (mut report, rg) = run.open("exhaustive reachability", outcome);
    report.states = rg.state_count();
    report.states_line = format!("states: {}", rg.state_count());
    let goals = if run.spec.property.is_default() {
        rg.deadlocks().to_vec()
    } else {
        // post-hoc goal scan; smallest goal markings first so the
        // reported witness is deterministic across thread counts
        let mut goals: Vec<_> = rg
            .states()
            .filter(|&s| run.compiled.goal(run.net, rg.marking(s)))
            .collect();
        goals.sort_by(|&a, &b| rg.marking(a).cmp(rg.marking(b)));
        goals
    };
    settle(&mut report, !goals.is_empty());
    report.witnesses = goals
        .iter()
        .take(run.spec.witnesses)
        .map(|&g| run.witness(rg.marking(g), rg.path_to(g).as_deref()))
        .collect::<Result<_, _>>()?;
    Ok(report)
}

const PO_DESC: &str = "stubborn-set partial-order reduction";

fn run_po(run: &Run) -> Result<CheckReport, String> {
    if !run.spec.property.is_default() {
        return run_visible_po(run, PO_DESC);
    }
    let opts = ReducedOptions {
        strategy: SeedStrategy::BestOfEnabled,
        threads: run.spec.threads,
        visible: None,
    };
    let outcome = ReducedReachability::explore(run.net, &opts, run.budget, run.ckpt, run.resume)
        .map_err(|e| e.to_string())?;
    let (mut report, red) = run.open(PO_DESC, outcome);
    report.states = red.state_count();
    report.states_line = format!("states: {}", red.state_count());
    settle(&mut report, red.has_deadlock());
    report.witnesses = run.witnesses(red.deadlock_markings().take(run.spec.witnesses))?;
    Ok(report)
}

fn run_gpo(run: &Run) -> Result<CheckReport, String> {
    // the GPN exploration only decides the default `EF deadlock` (its
    // states are whole firing families, blind to individual marking
    // predicates), so for any other property the gpo engine honestly
    // runs the property-preserving stubborn-set search instead
    if !run.spec.property.is_default() {
        return run_visible_po(
            run,
            "generalized partial order analysis (via property-preserving stubborn sets)",
        );
    }
    let opts = GpoOptions {
        max_witnesses: run.spec.witnesses,
        threads: run.spec.threads,
        coverage_query: Vec::new(),
    };
    let outcome = analyze::<ZddFamily>(run.net, &opts, run.budget, run.ckpt, run.resume)
        .map_err(|e| e.to_string())?;
    let (mut report, gpo) = run.open("generalized partial order analysis", outcome);
    report.states = gpo.state_count;
    report.states_line = format!("GPN states: {}", gpo.state_count);
    report
        .detail_lines
        .push(format!("valid sets |r0|: {}", gpo.valid_set_count_exact));
    report.details.push(("valid_sets", gpo.valid_set_count));
    report.detail_lines.push(format!(
        "zdd: {} nodes allocated, {} unique-table hits, {} op-cache hits, \
         {} op-cache evictions",
        gpo.zdd_nodes_allocated, gpo.unique_hits, gpo.op_cache_hits, gpo.op_cache_evictions
    ));
    report.details.extend([
        ("zdd_nodes_allocated", gpo.zdd_nodes_allocated),
        ("unique_hits", gpo.unique_hits),
        ("op_cache_hits", gpo.op_cache_hits),
        ("op_cache_evictions", gpo.op_cache_evictions),
    ]);
    settle(&mut report, gpo.deadlock_possible);
    report.witnesses = gpo
        .deadlock_witnesses
        .iter()
        .enumerate()
        .map(|(i, w)| run.witness(w, gpo.deadlock_traces.get(i).map(Vec::as_slice)))
        .collect::<Result<_, _>>()?;
    Ok(report)
}

fn run_bdd(run: &Run) -> Result<CheckReport, String> {
    let outcome = SymbolicReachability::explore(
        run.net,
        &SymbolicOptions::default(),
        run.budget,
        &run.compiled,
    );
    let (mut report, sym) = run.open("symbolic (BDD) reachability", outcome);
    // the symbolic engine counts states as f64 (BDD model count)
    report.states = sym.state_count() as usize;
    report.states_line = format!("states: {}", sym.state_count());
    report
        .detail_lines
        .push(format!("peak BDD nodes: {}", sym.peak_live_nodes()));
    report
        .details
        .push(("peak_bdd_nodes", sym.peak_live_nodes() as u64));
    settle(&mut report, sym.has_deadlock());
    if !run.spec.property.is_default() {
        report.witnesses = run.witnesses(sym.deadlock_witness())?;
    }
    Ok(report)
}

fn run_unfold(run: &Run) -> Result<CheckReport, String> {
    let outcome = Unfolding::build(run.net, run.budget);
    let (mut report, unf) = run.open("McMillan finite complete prefix", outcome);
    let prefix = unf.prefix();
    report.states = prefix.event_count();
    report.states_line = format!(
        "prefix: {} events, {} conditions, {} cut-offs",
        prefix.event_count(),
        prefix.condition_count(),
        prefix.cutoff_count()
    );
    report.details.extend([
        ("events", prefix.event_count() as u64),
        ("conditions", prefix.condition_count() as u64),
        ("cutoffs", prefix.cutoff_count() as u64),
    ]);
    // the cut walk behind the verdict obeys the deadline and cancel too:
    // a stopped walk leaves the run inconclusive unless it already found
    // a goal marking, which is a sound violation either way
    let walk = if run.spec.property.is_default() {
        unf.has_deadlock(run.net, run.budget)
            .map(|dead| (dead, None))
    } else {
        unf.goal_marking(run.net, &run.compiled, run.budget)
            .map(|goal| (goal.is_some(), goal))
    };
    if let (
        None,
        Outcome::Partial {
            reason, coverage, ..
        },
    ) = (report.exhausted, &walk)
    {
        report.exhausted = Some(*reason);
        report.coverage = Some(coverage.clone());
    }
    let (found, goal) = walk.into_value();
    settle(&mut report, found);
    report.witnesses = run.witnesses(&goal)?;
    Ok(report)
}

fn run_pdr(run: &Run) -> Result<CheckReport, String> {
    let outcome = pdr::check_bounded(run.net, &run.compiled, run.budget)?;
    let (mut report, res) = run.open(
        "inductive safety proving (IC3/PDR over invariant frames)",
        outcome,
    );
    let stats = &res.stats;
    report.states = stats.lemmas;
    report.states_line = format!("frames: {}, lemmas: {}", stats.frames, stats.lemmas);
    report.detail_lines.push(format!(
        "sat: {} queries, {} conflicts; seeded invariant clauses: {}",
        stats.sat_calls, stats.conflicts, stats.seeded_clauses
    ));
    report.details.extend([
        ("frames", stats.frames as u64),
        ("lemmas", stats.lemmas as u64),
        ("sat_calls", stats.sat_calls),
        ("conflicts", stats.conflicts),
        ("seeded_clauses", stats.seeded_clauses as u64),
    ]);
    settle(&mut report, res.reachable == Some(true));
    if run.spec.witnesses > 0 {
        if let Some(m) = &res.goal_marking {
            report.witnesses.push(run.witness(m, res.trace.as_deref())?);
        }
    }
    if let Some(cert) = &res.certificate {
        // `check_bounded` already re-validated the certificate by
        // independent incidence arithmetic; render its clauses against
        // the net the engine actually proved them on
        report.detail_lines.push(format!(
            "certificate: {} clauses, independently re-validated",
            cert.clauses.len()
        ));
        report
            .details
            .push(("certificate_clauses", cert.clauses.len() as u64));
        report.certificate = cert
            .clauses
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&(p, pos)| {
                        let name = run.net.place_name(p);
                        if pos {
                            name.to_string()
                        } else {
                            format!("!{name}")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" | ")
            })
            .collect();
    }
    Ok(report)
}

/// The property-preserving stubborn-set search shared by the `po` engine
/// (non-default properties) and the `gpo` engine's fallback: explores with
/// the property's visible transitions seeded into every stubborn set, then
/// scans the stored markings for goal states.
fn run_visible_po(run: &Run, engine_desc: &'static str) -> Result<CheckReport, String> {
    let visible = run
        .compiled
        .visible_transitions(run.net)
        .expect("non-default properties always have a visible-transition set");
    let visible_count = visible.len();
    let opts = ReducedOptions {
        strategy: SeedStrategy::BestOfEnabled,
        threads: run.spec.threads,
        visible: Some(visible),
    };
    let outcome = ReducedReachability::explore(run.net, &opts, run.budget, run.ckpt, run.resume)
        .map_err(|e| e.to_string())?;
    let (mut report, red) = run.open(engine_desc, outcome);
    report.states = red.state_count();
    report.states_line = format!("states: {}", red.state_count());
    report
        .detail_lines
        .push(format!("visible transitions: {visible_count}"));
    report
        .details
        .push(("visible_transitions", visible_count as u64));
    // smallest goal markings first, for a deterministic witness choice
    let mut goals: Vec<&Marking> = red
        .markings()
        .filter(|m| run.compiled.goal(run.net, m))
        .collect();
    goals.sort();
    settle(&mut report, !goals.is_empty());
    report.witnesses = run.witnesses(goals.into_iter().take(run.spec.witnesses))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_drives_selectors_schedule_and_checkpoints() {
        assert_eq!(DEFAULT_ENGINE, "gpo");
        assert_eq!(RACEABLE, ["po", "gpo", "pdr", "bdd", "unfold", "full"]);
        // `chunk_by` groups the default schedule, so stages must ascend
        assert!(ENGINES.windows(2).all(|w| w[0].stage <= w[1].stage));
        let stages = crate::portfolio::PortfolioOptions::default().stages;
        assert_eq!(
            stages,
            vec![
                vec!["po", "gpo", "pdr"],
                vec!["bdd", "unfold"],
                vec!["full"]
            ]
        );
        let capable: Vec<&str> = ENGINES
            .iter()
            .filter(|e| e.checkpoint)
            .map(|e| e.name)
            .collect();
        assert_eq!(capable, ["po", "gpo", "full"]);
        assert!(check_selector(AUTO).is_ok());
        let err = check_selector("classes").unwrap_err();
        assert!(err.starts_with("unknown engine `classes`"), "{err}");
    }
}
