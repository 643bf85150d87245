//! `julie` — the command-line verifier of this reproduction, named after
//! the paper's 9000-line C prototype.
//!
//! ```text
//! julie info  <net>                structural summary: conflicts, clusters, invariants
//! julie check <net> [options]      deadlock verification with a chosen engine
//! julie dot   <net> [--rg]         Graphviz output of the net (or its reachability graph)
//! julie model <name> <n>           print a built-in benchmark as .net text
//! julie serve --data-dir=DIR       crash-safe verification service (HTTP/1.1)
//!
//! options:
//!   --engine=ENGINE                full|po|gpo|pdr|bdd|unfold|auto (default: gpo);
//!                                  auto races engines, first sound verdict wins
//!   --zdd                          accepted and ignored (gpo always uses ZDD families)
//!   --property=PROP                property to verify (default: `EF deadlock`)
//!   --property-file=PATH           read the property from a file
//!   --format=net|pnml              input format (default: by extension/content)
//!   --max-states=N                 state budget (default: 10,000,000)
//!   --timeout=SECS                 wall-clock budget for the exploration
//!   --mem-limit=MB                 approximate memory budget
//!   --witnesses=K                  deadlock witness markings to print (default: 1)
//!   --threads=N                    worker threads for the full/po/gpo engines
//!   --checkpoint=PATH              write crash-safe snapshots (full/po/gpo engines)
//!   --checkpoint-every=N           also snapshot about every N stored states
//!   --resume=PATH                  resume from a snapshot written by --checkpoint
//!   --reduce[=RULES]               structural reduction pre-pass (sp,st,rp,it,dt)
//!   --json                         machine-readable report instead of prose
//!   <net> is a file in the `.net` text format (or PNML), or `-` for stdin
//! ```
//!
//! Properties are quantified marking predicates, e.g. `EF m(p) >= 1`,
//! `AG not fireable(t)`, `EF (m(a) = 1 and m(b) = 0)`; see the README for
//! the grammar. `julie check` exits 0 when the property is verified
//! (deadlock-free / `AG` holds / `EF` does not hold), 1 when a witness was
//! found, 2 when a budget ran out first (inconclusive), and
//! 3 on errors. Budgets degrade gracefully: the partial exploration is
//! reported with coverage statistics instead of being discarded. SIGINT
//! and SIGTERM trip the run's budget, so an interrupted `--checkpoint`
//! run writes its final snapshot and exits 2 instead of dying mid-write.

use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use petri::checkpoint::read_checkpoint_with_fallback;
use petri::pnml::looks_like_pnml;
use petri::{
    net_to_dot, parse_net, parse_pnml, place_invariants, reachability_to_dot, to_text, Budget,
    CheckpointConfig, ConflictInfo, ExploreOptions, Observed, Outcome, PetriNet, Property,
    ReachabilityGraph, ReduceOptions, Reduction, Snapshot, StampedReduction, Verdict,
};
use unfolding::Unfolding;

use julie::engine::{self, RunSpec, DEFAULT_ENGINE, ENGINES};
use julie::portfolio::{self, PortfolioOptions, AUTO};
use julie::{flag, option, positional, serve, signals};

/// Exit code for usage, I/O, parse and engine errors (0–2 are verdicts).
const EXIT_ERROR: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("julie: {msg}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn run(args: &[String]) -> Result<u8, String> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    let allowed: &[&str] = match command {
        "check" => &[
            "engine",
            "zdd",
            "max-states",
            "timeout",
            "mem-limit",
            "witnesses",
            "threads",
            "checkpoint",
            "checkpoint-every",
            "resume",
            "reduce",
            "property",
            "property-file",
            "format",
            "json",
            "legs",
            "stage-delay-ms",
            "watchdog-secs",
        ],
        "dot" => &["rg"],
        "unfold" => &["dot"],
        "serve" => &[
            "addr",
            "data-dir",
            "workers",
            "queue-bound",
            "max-job-states",
            "checkpoint-every",
            "drain-secs",
        ],
        _ => &[],
    };
    reject_unknown_flags(args, allowed)?;
    match command {
        "info" => info(&load_net(args)?).map(|()| 0),
        "check" => check(&load_net(args)?, args),
        "dot" => dot(&load_net(args)?, args).map(|()| 0),
        "unfold" => unfold(&load_net(args)?, args).map(|()| 0),
        "model" => model(args).map(|()| 0),
        "serve" => serve::serve(args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`; try `julie help`")),
    }
}

/// Rejects any `--flag` not in the command's allowlist, naming the
/// supported flags so a typo is a one-round-trip fix.
fn reject_unknown_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    for a in args.iter().skip(1) {
        let Some(rest) = a.strip_prefix("--") else {
            continue;
        };
        let key = rest.split('=').next().unwrap_or(rest);
        if allowed.contains(&key) {
            continue;
        }
        let supported = if allowed.is_empty() {
            "this command takes no flags".to_string()
        } else {
            format!(
                "supported flags: {}",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        return Err(format!(
            "unknown flag `--{key}`; {supported}; try `julie help`"
        ));
    }
    Ok(())
}

const USAGE: &str = "\
julie — generalized partial order analysis for safe Petri nets

usage:
  julie info  <net>            structural summary: conflicts, clusters, invariants
  julie check <net> [options]  deadlock verification with a chosen engine
  julie dot   <net> [--rg]     Graphviz output of the net (or its reachability graph)
  julie unfold <net> [--dot]   McMillan finite complete prefix (stats or Graphviz)
  julie model <name> <n>       print a built-in benchmark as .net text
                               (nsdp, asat, over, rw, cyclic, fig1, fig2, fig3, fig7)
  julie serve --data-dir=DIR   run the crash-safe verification service
                               (HTTP/1.1; see the README for the wire
                               protocol and the --addr, --workers,
                               --queue-bound, --max-job-states,
                               --checkpoint-every, --drain-secs flags)

options:
  --engine=full|po|gpo|pdr|bdd|unfold|auto
                               verification engine (default: gpo).
                               auto races several engines under the one
                               shared budget: the first sound verdict
                               wins, losers are cancelled, and the report
                               gains a per-leg table
  --legs=a,b/c/d               auto schedule: `/` separates escalation
                               stages, `,` legs within a stage (default:
                               po,gpo,pdr/bdd,unfold/full)
  --stage-delay-ms=MS          delay before each later stage launches
                               (default: 250)
  --watchdog-secs=SECS         cancel any single leg running longer than
                               SECS (its partial result still competes)
  --zdd                        accepted and changes nothing: the gpo engine
                               always runs on ZDD families
  --property=PROP              property to verify (default: EF deadlock).
                               PROP is (EF|AG) over atoms m(place) >= k,
                               m(place) = k, fireable(transition), and
                               deadlock, combined with and/or/not and
                               parentheses. EF holding or AG violated
                               exits 1 with a witness; the po and gpo
                               engines preserve the property with
                               visible-transition stubborn sets
  --property-file=PATH         read the property from PATH instead
  --format=net|pnml            input format; default: .pnml extension or
                               a leading `<` selects PNML (P/T subset,
                               1-safe), anything else is .net text
  --max-states=N               state budget (default: 10000000)
  --timeout=SECS               wall-clock budget for the exploration
  --mem-limit=MB               approximate memory budget for stored states
  --witnesses=K                deadlock witnesses to print (default: 1)
  --threads=N                  worker threads for the full/po/gpo engines
                               (default: available parallelism)
  --checkpoint=PATH            write crash-safe snapshots to PATH so an
                               interrupted run can resume (full/po/gpo);
                               written on budget exhaustion, atomically,
                               keeping the previous snapshot as PATH.prev
  --checkpoint-every=N         also snapshot about every N stored states
                               (requires --checkpoint)
  --resume=PATH                resume from a snapshot written by
                               --checkpoint; falls back to PATH.prev if
                               PATH is corrupt
  --reduce[=RULES]             verdict-preserving structural reduction
                               pre-pass before any engine runs; RULES is a
                               comma list of sp (series places), st (series
                               transitions), rp (redundant places), it
                               (identity transitions), dt (dead
                               transitions); bare --reduce enables all.
                               Witness traces and markings are lifted back
                               to the original net before printing
  --json                       print one machine-readable JSON report
                               instead of prose (same document the serve
                               wire protocol returns); exit codes are
                               unchanged

exit codes (julie check):
  0  verified: the whole state space was explored and the property is
     settled (no deadlock / AG holds / EF does not hold)
  1  witness found: a reachable deadlock or goal marking exists (real
     even if a budget ran out — every explored marking is genuinely
     reachable)
  2  inconclusive: a budget ran out before the question was settled
  3  error: bad usage, unreadable input, or an engine failure

<net> is a file in the .net text format or PNML, or `-` for stdin.
";

fn load_net(args: &[String]) -> Result<PetriNet, String> {
    let pos = positional(args);
    let path = pos
        .first()
        .ok_or_else(|| "missing net file (or `-` for stdin)".to_string())?;
    let text = if path.as_str() == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
    };
    // explicit --format wins; otherwise a .pnml extension or an XML-looking
    // payload selects the PNML reader, and everything else stays .net text
    let pnml = match option(args, "format") {
        Some("pnml") => true,
        Some("net") => false,
        Some(other) => return Err(format!("bad --format `{other}` (use net or pnml)")),
        None => path.to_ascii_lowercase().ends_with(".pnml") || looks_like_pnml(&text),
    };
    if pnml {
        parse_pnml(&text).map_err(|e| e.to_string())
    } else {
        parse_net(&text).map_err(|e| e.to_string())
    }
}

fn info(net: &PetriNet) -> Result<(), String> {
    println!(
        "net `{}`: {} places, {} transitions, {} arcs",
        net.name(),
        net.place_count(),
        net.transition_count(),
        net.arc_count()
    );
    println!(
        "initial marking: {}",
        net.display_marking(net.initial_marking())
    );
    let conflicts = ConflictInfo::new(net);
    let choices: Vec<String> = conflicts
        .choice_clusters()
        .map(|c| {
            let names: Vec<&str> = c.iter().map(|&t| net.transition_name(t)).collect();
            format!("{{{}}}", names.join(","))
        })
        .collect();
    println!(
        "conflict clusters with a choice: {}{}",
        choices.len(),
        if choices.is_empty() {
            String::new()
        } else {
            format!(" — {}", choices.join(" "))
        }
    );
    println!(
        "maximal conflict-free transition sets |r0|: {}",
        conflicts.conflict_free_set_count()
    );
    match petri::siphon_trap_certificate(net, 100_000) {
        Some(true) => println!("siphon-trap certificate: deadlock-free (structural proof)"),
        Some(false) => println!("siphon-trap certificate: inconclusive"),
        None => println!("siphon-trap certificate: skipped (siphon enumeration too large)"),
    }
    let invs = place_invariants(net);
    println!("minimal place invariants: {}", invs.len());
    for inv in invs.iter().take(8) {
        let terms: Vec<String> = net
            .places()
            .filter(|p| inv[p.index()] != 0)
            .map(|p| {
                let w = inv[p.index()];
                if w == 1 {
                    net.place_name(p).to_string()
                } else {
                    format!("{w}*{}", net.place_name(p))
                }
            })
            .collect();
        println!("  {} = const", terms.join(" + "));
    }
    if invs.len() > 8 {
        println!("  … and {} more", invs.len() - 8);
    }
    Ok(())
}

/// Builds the exploration budget from the `--max-states`, `--timeout` and
/// `--mem-limit` flags.
fn budget_from_args(args: &[String]) -> Result<Budget, String> {
    let max_states: usize = option(args, "max-states")
        .map(|s| s.parse().map_err(|_| format!("bad --max-states `{s}`")))
        .transpose()?
        .unwrap_or(10_000_000);
    let mut budget = Budget::default().cap_states(max_states);
    if let Some(s) = option(args, "timeout") {
        let secs: u64 = s.parse().map_err(|_| format!("bad --timeout `{s}`"))?;
        budget = budget.with_timeout(Duration::from_secs(secs));
    }
    if let Some(s) = option(args, "mem-limit") {
        let mb: usize = s.parse().map_err(|_| format!("bad --mem-limit `{s}`"))?;
        budget = budget.cap_bytes(mb.saturating_mul(1024 * 1024));
    }
    Ok(budget)
}

/// Builds the checkpoint configuration and optional resume snapshot from
/// the `--checkpoint`, `--checkpoint-every` and `--resume` flags.
fn checkpoint_from_args(args: &[String]) -> Result<(CheckpointConfig, Option<Snapshot>), String> {
    let mut ckpt = CheckpointConfig::default();
    if let Some(path) = option(args, "checkpoint") {
        ckpt.path = Some(path.into());
    }
    if let Some(s) = option(args, "checkpoint-every") {
        let every: usize = s
            .parse()
            .map_err(|_| format!("bad --checkpoint-every `{s}`"))?;
        if every == 0 {
            return Err("bad --checkpoint-every `0` (must be at least 1)".into());
        }
        if ckpt.path.is_none() {
            return Err("--checkpoint-every requires --checkpoint=PATH".into());
        }
        ckpt.every = Some(every);
    }
    let resume = option(args, "resume")
        .map(|p| {
            read_checkpoint_with_fallback(Path::new(p))
                .map_err(|e| format!("cannot resume from `{p}`: {e}"))
        })
        .transpose()?;
    Ok((ckpt, resume))
}

/// Parses the `--reduce[=RULES]` flag into reduction options, or `None`
/// when the flag is absent (the default: engines see the net as written).
fn reduce_from_args(args: &[String]) -> Result<Option<ReduceOptions>, String> {
    if let Some(spec) = option(args, "reduce") {
        return ReduceOptions::parse(spec)
            .map(Some)
            .map_err(|e| format!("bad --reduce `{spec}`: {e}"));
    }
    if flag(args, "reduce") {
        return Ok(Some(ReduceOptions::default()));
    }
    Ok(None)
}

/// Parses the `--property` / `--property-file` flags into a [`Property`]
/// (default: `EF deadlock`, the classic deadlock check).
fn property_from_args(args: &[String]) -> Result<Property, String> {
    let text = match (option(args, "property"), option(args, "property-file")) {
        (Some(_), Some(_)) => {
            return Err("--property and --property-file are mutually exclusive".into())
        }
        (Some(text), None) => text.to_string(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read --property-file `{path}`: {e}"))?
            .trim()
            .to_string(),
        (None, None) => return Ok(Property::deadlock()),
    };
    Property::parse(&text).map_err(|e| format!("bad --property: {e}"))
}

/// The `--property` analogue of [`check_resume_stamp`]: a snapshot records
/// the property its exploration preserved, and resuming it under any other
/// property fails closed with a flag-precise diagnostic — a visible-set
/// exploration for one property proves nothing about another.
fn check_resume_property(snap: &Snapshot, property: &Property) -> Result<(), String> {
    let current = property.to_string();
    match &snap.stamp.property {
        None if !property.is_default() => Err(format!(
            "--resume snapshot was written without --property; drop --property to resume it, \
             or restart with --property '{current}' and a fresh --checkpoint"
        )),
        Some(st) if *st != current => Err(format!(
            "--resume snapshot was written with --property '{st}' but this run uses \
             --property '{current}'; pass --property '{st}' to resume it"
        )),
        _ => Ok(()),
    }
}

/// Turns a `--resume` net-fingerprint mismatch involving `--reduce` into a
/// precise misuse diagnostic, instead of the engine's generic one: the
/// snapshot's [`RunStamp::reduction`] records how the checkpointed run
/// derived its net, so we can tell the user exactly which flag to change.
fn check_resume_stamp(
    snap: &Snapshot,
    reduction: Option<&Reduction>,
    rules: &str,
    original: &PetriNet,
) -> Result<(), String> {
    match (reduction, &snap.stamp.reduction) {
        (Some(_), None) if snap.fingerprint == original.fingerprint() => Err(format!(
            "--resume snapshot was written without --reduce; drop --reduce to resume it, \
             or restart with --reduce={rules} and a fresh --checkpoint"
        )),
        (Some(r), Some(st)) if snap.fingerprint != r.net.fingerprint() => {
            if st.rules != rules {
                Err(format!(
                    "--resume snapshot was written with --reduce={} but this run uses \
                     --reduce={rules}; pass --reduce={} to resume it",
                    st.rules, st.rules
                ))
            } else {
                Err("--resume snapshot was written for a different net".into())
            }
        }
        (None, Some(st)) => Err(format!(
            "--resume snapshot was written with --reduce={}; pass --reduce={} to resume it",
            st.rules, st.rules
        )),
        // matching fingerprints, or a mismatch --reduce cannot explain:
        // fall through to the engine's own envelope validation
        _ => Ok(()),
    }
}

/// Parses the portfolio flags (`--legs`, `--stage-delay-ms`,
/// `--watchdog-secs`) plus the fault-injection environment hooks
/// (`JULIE_PORTFOLIO_PANIC_LEG`, `JULIE_PORTFOLIO_FLIP_LEG`) used by the
/// CI fault steps to exercise leg isolation in release binaries.
fn portfolio_options_from_args(args: &[String]) -> Result<PortfolioOptions, String> {
    let mut opts = PortfolioOptions::default();
    if let Some(spec) = option(args, "legs") {
        opts.stages =
            PortfolioOptions::parse_stages(spec).map_err(|e| format!("bad --legs: {e}"))?;
    }
    if let Some(s) = option(args, "stage-delay-ms") {
        let ms: u64 = s
            .parse()
            .map_err(|_| format!("bad --stage-delay-ms `{s}`"))?;
        opts.stage_delay = Duration::from_millis(ms);
    }
    if let Some(s) = option(args, "watchdog-secs") {
        let secs: u64 = s
            .parse()
            .map_err(|_| format!("bad --watchdog-secs `{s}`"))?;
        if secs == 0 {
            return Err("bad --watchdog-secs `0` (must be at least 1)".into());
        }
        opts.watchdog = Some(Duration::from_secs(secs));
    }
    opts.inject_panic = std::env::var("JULIE_PORTFOLIO_PANIC_LEG")
        .ok()
        .filter(|s| !s.is_empty());
    opts.inject_flip = std::env::var("JULIE_PORTFOLIO_FLIP_LEG")
        .ok()
        .filter(|s| !s.is_empty());
    Ok(opts)
}

fn check(net: &PetriNet, args: &[String]) -> Result<u8, String> {
    // an unknown engine fails before any property or reduction work
    let engine = option(args, "engine").unwrap_or(DEFAULT_ENGINE);
    engine::check_selector(engine)?;
    let json_mode = flag(args, "json");
    let budget = budget_from_args(args)?;
    let witnesses: usize = option(args, "witnesses")
        .map(|s| s.parse().map_err(|_| format!("bad --witnesses `{s}`")))
        .transpose()?
        .unwrap_or(1);
    let threads: usize = option(args, "threads")
        .map(|s| s.parse().map_err(|_| format!("bad --threads `{s}`")))
        .transpose()?
        .unwrap_or_else(petri::parallel::default_threads);
    let (mut ckpt, resume) = checkpoint_from_args(args)?;
    let property = property_from_args(args)?;
    // resolve the property against the net as written, so an unknown name
    // is reported before any reduction or engine work starts
    property
        .compile(net)
        .map_err(|e| format!("bad --property: {e}"))?;
    let spec = RunSpec {
        engine: engine.to_string(),
        zdd: flag(args, "zdd"),
        witnesses,
        threads,
        property: property.clone(),
    };
    if !spec.supports_checkpoint() && (!ckpt.is_disabled() || resume.is_some()) {
        let capable: Vec<&str> = ENGINES
            .iter()
            .filter(|e| e.checkpoint)
            .map(|e| e.name)
            .collect();
        return Err(format!(
            "engine `{engine}` does not support --checkpoint/--resume (use {}, or {AUTO})",
            capable.join(", ")
        ));
    }
    if engine != AUTO {
        for f in ["legs", "stage-delay-ms", "watchdog-secs"] {
            if option(args, f).is_some() {
                return Err(format!("--{f} requires --engine=auto"));
            }
        }
    }
    // stamped-leg direction check: a solo run must not resume a
    // portfolio snapshot, and --engine=auto must not resume a solo one
    if let Some(snap) = &resume {
        portfolio::check_resume_engine(snap, engine == AUTO)?;
    }

    // Structural reduction pre-pass: every engine below explores `target`
    // (the reduced net) and every printed fact is lifted back to `net`.
    // The property's observed places and transitions are protected from
    // the reduction, so they survive for the engine to evaluate.
    let reduce_opts = reduce_from_args(args)?;
    let rules = reduce_opts
        .as_ref()
        .map(ReduceOptions::rules_string)
        .unwrap_or_default();
    let observed = Observed {
        places: property.observed_places(),
        transitions: property.observed_transitions(),
    };
    let reduction = match &reduce_opts {
        Some(opts) => {
            Some(petri::reduce_observed(net, opts, &observed).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    if let Some(snap) = &resume {
        check_resume_stamp(snap, reduction.as_ref(), &rules, net)?;
        check_resume_property(snap, &property)?;
    }
    let original = net;
    if let Some(r) = &reduction {
        let target = &r.net;
        if !json_mode {
            println!(
                "net `{}`: {} places, {} transitions (reduced from {}/{})",
                original.name(),
                target.place_count(),
                target.transition_count(),
                r.report.places_before,
                r.report.transitions_before
            );
            println!("reduction[{rules}]: {}", r.report);
        }
        // stamp every snapshot this run writes, so a later --resume with
        // different reduction flags fails with a precise diagnostic
        ckpt.stamp.reduction = Some(StampedReduction {
            rules: rules.clone(),
            original_fingerprint: original.fingerprint(),
            places: target.place_count(),
            transitions: target.transition_count(),
        });
    }
    if !property.is_default() {
        // same fail-closed story for --property: snapshots record the
        // property their exploration preserved (default runs stay
        // byte-identical to pre-property snapshots)
        ckpt.stamp.property = Some(property.to_string());
    }

    // SIGINT/SIGTERM become a cooperative budget exhaustion: the engine
    // stops at the next poll, writes its final --checkpoint snapshot, and
    // the run exits 2 (inconclusive) instead of dying mid-write
    signals::cancel_on_termination(budget.cancel.clone());

    let report = if engine == AUTO {
        let opts = portfolio_options_from_args(args)?;
        let outcome = portfolio::run_portfolio(
            original,
            reduction.as_ref(),
            &rules,
            &spec,
            &budget,
            &ckpt,
            resume.as_ref(),
            &opts,
        )?;
        let mut report = outcome.report;
        report.legs = outcome.legs;
        report
    } else {
        engine::run_engine(
            original,
            reduction.as_ref(),
            &rules,
            &spec,
            &budget,
            &ckpt,
            resume.as_ref(),
        )?
    };
    if json_mode {
        println!("{}", report.to_json().render());
    } else {
        print!("{}", report.render_text());
    }
    Ok(report.verdict.exit_code())
}

/// The event cap of `julie unfold`, which always builds a complete prefix.
const UNFOLD_EVENTS: usize = 1_000_000;

fn unfold(net: &PetriNet, args: &[String]) -> Result<(), String> {
    let Outcome::Complete(unf) =
        Unfolding::build(net, &Budget::default().cap_states(UNFOLD_EVENTS))
    else {
        return Err(format!(
            "prefix exceeded the budget of {UNFOLD_EVENTS} events"
        ));
    };
    if flag(args, "dot") {
        print!("{}", unf.prefix().to_dot(net));
    } else {
        println!(
            "prefix of `{}`: {} events, {} conditions, {} cut-offs",
            net.name(),
            unf.prefix().event_count(),
            unf.prefix().condition_count(),
            unf.prefix().cutoff_count()
        );
        let deadlock = unf.has_deadlock(net, &Budget::default()).into_value();
        report_verdict(Verdict::from_observation(deadlock, true, 0));
    }
    Ok(())
}

fn report_verdict(verdict: Verdict) {
    println!("verdict: {verdict}");
}

fn dot(net: &PetriNet, args: &[String]) -> Result<(), String> {
    if flag(args, "rg") {
        let rg = ReachabilityGraph::explore(
            net,
            &ExploreOptions::default(),
            &Budget::default(),
            &CheckpointConfig::default(),
            None,
        )
        .map_err(|e| e.to_string())?;
        print!("{}", reachability_to_dot(net, rg.value()));
    } else {
        print!("{}", net_to_dot(net));
    }
    Ok(())
}

fn model(args: &[String]) -> Result<(), String> {
    let pos = positional(args);
    let name = pos.first().ok_or_else(|| {
        "missing model name (nsdp|asat|over|rw|cyclic|fig1|fig2|fig3|fig7)".to_string()
    })?;
    let n: usize = pos
        .get(1)
        .map(|s| s.parse().map_err(|_| format!("bad size `{s}`")))
        .transpose()?
        .unwrap_or(2);
    let net = match name.as_str() {
        "nsdp" => models::nsdp(n),
        "asat" => models::asat(n),
        "over" => models::overtake(n),
        "rw" => models::readers_writers(n),
        "cyclic" => models::scheduler(n),
        "fig1" => models::figures::fig1(),
        "fig2" => models::figures::fig2(n),
        "fig3" => models::figures::fig3(),
        "fig7" => models::figures::fig7(),
        other => return Err(format!("unknown model `{other}`")),
    };
    print!("{}", to_text(&net));
    Ok(())
}
