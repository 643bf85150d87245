//! Regenerates the paper's **Table 1**: for every benchmark instance, the
//! full state count, the partial-order-reduced count (SPIN+PO stand-in),
//! the peak BDD size (SMV stand-in) and the GPO state count, with times.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p gpo-bench --bin table1 [-- --quick]
//! ```
//!
//! `--quick` trims the largest instances (NSDP(10), ASAT(8)) so the table
//! finishes in seconds; the full run takes a few minutes, dominated by the
//! exhaustive "States" column on the million-state instances.

use gpo_bench::{fmt_states, fmt_time, run_row, RowBudgets, TableRow};
use petri::PetriNet;

struct Spec {
    label: String,
    net: PetriNet,
    budgets: RowBudgets,
}

fn specs(quick: bool) -> Vec<Spec> {
    let mut out = Vec::new();
    let nsdp_sizes: &[usize] = if quick { &[2, 4, 6] } else { &[2, 4, 6, 8, 10] };
    for &n in nsdp_sizes {
        out.push(Spec {
            label: format!("NSDP({n})"),
            net: models::nsdp(n),
            budgets: RowBudgets {
                // the paper's SMV row reports "> 24 hours" on NSDP(10);
                // ours decides it within this budget
                max_bdd_nodes: 20_000_000,
                ..RowBudgets::default()
            },
        });
    }
    let asat_sizes: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    for &n in asat_sizes {
        out.push(Spec {
            label: format!("ASAT({n})"),
            net: models::asat(n),
            budgets: RowBudgets {
                // the paper's SMV row reports "> 24 hours" on ASAT(8)
                max_bdd_nodes: 20_000_000,
                ..RowBudgets::default()
            },
        });
    }
    for n in 2..=5usize {
        out.push(Spec {
            label: format!("OVER({n})"),
            net: models::overtake(n),
            budgets: RowBudgets::default(),
        });
    }
    for n in [6usize, 9, 12, 15] {
        out.push(Spec {
            label: format!("RW({n})"),
            net: models::readers_writers(n),
            budgets: RowBudgets {
                // the BDD engine collects no garbage, and RW(15)'s
                // fixpoint allocates ~2.4 M nodes
                max_bdd_nodes: 60_000_000,
                skip_bdd: quick && n >= 15,
                ..RowBudgets::default()
            },
        });
    }
    out
}

fn print_row(row: &TableRow) {
    let (bdd_peak, bdd_time) = match &row.bdd {
        Some(b) if b.truncated => ("> budget".to_string(), "-".to_string()),
        Some(b) => (format!("{}", b.aux as u64), fmt_time(b.time)),
        None => ("> budget".to_string(), "-".to_string()),
    };
    println!(
        "| {:9} | {:>10} {:>8} | {:>8} {:>8} | {:>13} {:>8} | {:>6} {:>8} | {:^5} |",
        row.label,
        fmt_states(&row.full),
        fmt_time(row.full.time),
        fmt_states(&row.po),
        fmt_time(row.po.time),
        bdd_peak,
        bdd_time,
        fmt_states(&row.gpo),
        fmt_time(row.gpo.time),
        if row.verdicts_agree() { "yes" } else { "NO" },
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("Table 1 — Results of Generalized Partial Order Analysis (GPO)");
    println!("(SPIN+PO stand-in: stubborn-set reduction; SMV stand-in: from-scratch BDD engine)");
    println!();
    println!(
        "| {:9} | {:^19} | {:^17} | {:^22} | {:^15} | agree |",
        "Problem", "States (count,s)", "PO  (states,s)", "BDD (peak nodes,s)", "GPO (states,s)"
    );
    println!("|{}|", "-".repeat(102));
    for spec in specs(quick) {
        let row = run_row(&spec.label, &spec.net, &spec.budgets);
        print_row(&row);
    }
    println!();
    println!("Verdict column: all engines that completed agree on deadlock freedom.");
    println!("`> budget` marks engines that exhausted their node budget (cf. the");
    println!("paper's `> 24 hours` SMV entries for NSDP(10) and ASAT(8)).");
}
