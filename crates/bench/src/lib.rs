//! # gpo-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4):
//!
//! * `cargo run --release -p gpo-bench --bin table1` — Table 1: full /
//!   SPIN+PO-equivalent / SMV-equivalent / GPO state counts and times for
//!   NSDP, ASAT, OVER and RW;
//! * `cargo run --release -p gpo-bench --bin figures` — the figure claims
//!   (Fig. 1 interleavings, Fig. 2 reduction gap, Fig. 3/5/7 worked GPN
//!   states);
//! * `cargo bench -p gpo-bench` — Criterion benches per table row group
//!   plus the ablation studies called out in DESIGN.md.
//!
//! The library part holds the shared row runner so that the binaries and
//! benches measure exactly the same code paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use gpo_core::{analyze, GpoOptions, ZddFamily};
use partial_order::{ReducedOptions, ReducedReachability, SeedStrategy};
use petri::{
    Budget, CheckpointConfig, ExploreOptions, Outcome, PetriNet, Property, ReachabilityGraph,
};
use symbolic::{SymbolicOptions, SymbolicReachability, BDD_NODE_BYTES};

/// Outcome of one engine on one net: states (or a bound), auxiliary size,
/// wall-clock time and the deadlock verdict.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// State count (for the BDD engine: reachable markings; for GPO: GPN
    /// states).
    pub states: f64,
    /// Auxiliary size: peak BDD nodes for the symbolic engine, |r₀| for
    /// GPO, 0 otherwise.
    pub aux: f64,
    /// Wall-clock time.
    pub time: Duration,
    /// Deadlock verdict, if the engine produced one.
    pub deadlock: Option<bool>,
    /// `true` if a budget was exhausted and `states` is a lower bound.
    pub truncated: bool,
}

impl EngineResult {
    fn over_budget(budget_label: f64) -> Self {
        EngineResult {
            states: budget_label,
            aux: 0.0,
            time: Duration::ZERO,
            deadlock: None,
            truncated: true,
        }
    }
}

/// Per-row engine budgets. Engines that exceed a budget report a truncated
/// (lower-bound) result instead of running forever — the analogue of the
/// paper's "> 24 hours" entries.
#[derive(Debug, Clone)]
pub struct RowBudgets {
    /// State cap for the explicit engines.
    pub max_states: usize,
    /// Node cap for the BDD engine, charged against the byte budget at
    /// [`BDD_NODE_BYTES`] per allocated node.
    pub max_bdd_nodes: usize,
    /// Worker threads for the GPO exploration (1 = serial loop).
    pub threads: usize,
    /// Skip the BDD engine entirely (for rows where it is hopeless).
    pub skip_bdd: bool,
}

impl Default for RowBudgets {
    fn default() -> Self {
        RowBudgets {
            max_states: 20_000_000,
            max_bdd_nodes: 30_000_000,
            threads: 1,
            skip_bdd: false,
        }
    }
}

/// One row of Table 1: the four engines run on one model instance.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Row label, e.g. `NSDP(4)`.
    pub label: String,
    /// Exhaustive exploration ("States" column).
    pub full: EngineResult,
    /// Stubborn-set reduction (the SPIN+PO stand-in).
    pub po: EngineResult,
    /// BDD reachability (the SMV stand-in); `aux` is the peak node count.
    pub bdd: Option<EngineResult>,
    /// Generalized partial-order analysis; `aux` is |r₀|.
    pub gpo: EngineResult,
}

impl TableRow {
    /// `true` when every engine that produced a verdict agrees on deadlock
    /// freedom.
    pub fn verdicts_agree(&self) -> bool {
        let mut verdicts = vec![self.full.deadlock, self.po.deadlock, self.gpo.deadlock];
        if let Some(b) = &self.bdd {
            verdicts.push(b.deadlock);
        }
        let known: Vec<bool> = verdicts.into_iter().flatten().collect();
        known.windows(2).all(|w| w[0] == w[1])
    }
}

/// Runs all four engines on `net` under the given budgets.
pub fn run_row(label: impl Into<String>, net: &PetriNet, budgets: &RowBudgets) -> TableRow {
    let full = run_full(net, budgets.max_states);
    let po = run_po(net, budgets.max_states);
    let bdd = if budgets.skip_bdd {
        None
    } else {
        Some(run_bdd(net, budgets.max_bdd_nodes))
    };
    let gpo = run_gpo(net, budgets);
    TableRow {
        label: label.into(),
        full,
        po,
        bdd,
        gpo,
    }
}

/// Exhaustive exploration (the "States" column).
pub fn run_full(net: &PetriNet, max_states: usize) -> EngineResult {
    let t0 = Instant::now();
    let opts = ExploreOptions {
        record_edges: false,
        ..Default::default()
    };
    let budget = Budget::default().cap_states(max_states);
    match ReachabilityGraph::explore(net, &opts, &budget, &CheckpointConfig::default(), None) {
        Ok(Outcome::Complete(rg)) => EngineResult {
            states: rg.state_count() as f64,
            aux: 0.0,
            time: t0.elapsed(),
            deadlock: Some(rg.has_deadlock()),
            truncated: false,
        },
        _ => EngineResult::over_budget(max_states as f64),
    }
}

/// Stubborn-set partial-order reduction (the SPIN+PO stand-in).
pub fn run_po(net: &PetriNet, max_states: usize) -> EngineResult {
    let t0 = Instant::now();
    let opts = ReducedOptions {
        strategy: SeedStrategy::BestOfEnabled,
        ..Default::default()
    };
    let budget = Budget::default().cap_states(max_states);
    match ReducedReachability::explore(net, &opts, &budget, &CheckpointConfig::default(), None) {
        Ok(Outcome::Complete(rg)) => EngineResult {
            states: rg.state_count() as f64,
            aux: 0.0,
            time: t0.elapsed(),
            deadlock: Some(rg.has_deadlock()),
            truncated: false,
        },
        _ => EngineResult::over_budget(max_states as f64),
    }
}

/// BDD reachability (the SMV stand-in); `aux` carries the peak node count.
pub fn run_bdd(net: &PetriNet, max_bdd_nodes: usize) -> EngineResult {
    let t0 = Instant::now();
    let budget = Budget::default().cap_bytes(max_bdd_nodes.saturating_mul(BDD_NODE_BYTES));
    let deadlock = Property::deadlock()
        .compile(net)
        .expect("deadlock compiles on every net");
    let outcome =
        SymbolicReachability::explore(net, &SymbolicOptions::default(), &budget, &deadlock);
    let truncated = !outcome.is_complete();
    let sym = outcome.into_value();
    EngineResult {
        states: sym.state_count(),
        aux: sym.peak_live_nodes() as f64,
        time: t0.elapsed(),
        deadlock: if truncated {
            None
        } else {
            Some(sym.has_deadlock())
        },
        truncated,
    }
}

/// Generalized partial-order analysis; `aux` carries |r₀|.
pub fn run_gpo(net: &PetriNet, budgets: &RowBudgets) -> EngineResult {
    let t0 = Instant::now();
    let opts = GpoOptions {
        max_witnesses: 1,
        threads: budgets.threads,
        coverage_query: Vec::new(),
    };
    let budget = Budget::default().cap_states(budgets.max_states);
    match analyze::<ZddFamily>(net, &opts, &budget, &CheckpointConfig::default(), None) {
        Ok(Outcome::Complete(report)) => EngineResult {
            states: report.state_count as f64,
            aux: report.valid_set_count as f64,
            time: t0.elapsed(),
            deadlock: Some(report.deadlock_possible),
            truncated: false,
        },
        _ => EngineResult::over_budget(budgets.max_states as f64),
    }
}

/// Formats a state count like the paper (plain below a million, scientific
/// above).
pub fn fmt_states(r: &EngineResult) -> String {
    let prefix = if r.truncated { "> " } else { "" };
    if r.states >= 1e6 {
        format!("{prefix}{:.2e}", r.states)
    } else {
        format!("{prefix}{}", r.states as u64)
    }
}

/// Formats a duration in seconds with the paper's precision.
pub fn fmt_time(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_runner_produces_consistent_verdicts() {
        let net = models::nsdp(2);
        let row = run_row("NSDP(2)", &net, &RowBudgets::default());
        assert!(row.verdicts_agree());
        assert_eq!(row.full.states, 18.0);
        assert_eq!(row.gpo.states, 3.0);
        assert_eq!(row.bdd.as_ref().unwrap().states, 18.0);
        assert!(row.po.states <= row.full.states);
    }

    #[test]
    fn budgets_mark_truncation() {
        let net = models::nsdp(4);
        let full = run_full(&net, 10);
        assert!(full.truncated);
        assert_eq!(fmt_states(&full), "> 10");
    }

    #[test]
    fn formatting_matches_paper_style() {
        let r = EngineResult {
            states: 1_860_498.0,
            aux: 0.0,
            time: Duration::from_millis(60),
            deadlock: Some(true),
            truncated: false,
        };
        assert_eq!(fmt_states(&r), "1.86e6");
        assert_eq!(fmt_time(r.time), "0.060");
    }
}
