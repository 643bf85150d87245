//! The engine-independent verification report: every `julie check` run
//! (and every job a `julie serve` worker finishes) produces one
//! [`CheckReport`], which renders either as the CLI's classic prose or as
//! the machine-readable JSON document shared by `--json` and the serve
//! wire protocol.

use petri::property::Quantifier;
use petri::{CoverageStats, ExhaustionReason, Property, ReductionReport, Verdict};

use crate::json::Json;

/// One deadlock witness, already lifted back to the original net and
/// rendered to display strings.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The dead marking, e.g. `{p3}`.
    pub marking: String,
    /// The firing sequence into it (transition names), when the engine
    /// records traces.
    pub trace: Option<Vec<String>>,
    /// `true` when the marking was lifted statically from a reduced net
    /// (removed sink places show their initial value) — the prose output
    /// labels these `dead marking (lifted):`.
    pub statically_lifted: bool,
}

/// What a structural reduction pre-pass did to the net the engine saw.
#[derive(Debug, Clone)]
pub struct ReductionSummary {
    /// Canonical rule list, e.g. `sp,st,rp,it,dt`.
    pub rules: String,
    /// Sizes before the pass.
    pub places_before: usize,
    /// Transitions before the pass.
    pub transitions_before: usize,
    /// Sizes after the pass.
    pub places: usize,
    /// Transitions after the pass.
    pub transitions: usize,
    /// The per-rule application counts, as the report displays them.
    pub summary: String,
}

impl ReductionSummary {
    /// Builds the summary from a reduction report and its rule string.
    pub fn new(rules: &str, report: &ReductionReport) -> Self {
        ReductionSummary {
            rules: rules.to_string(),
            places_before: report.places_before,
            transitions_before: report.transitions_before,
            places: report.places_after,
            transitions: report.transitions_after,
            summary: report.to_string(),
        }
    }
}

/// One row of the `--engine=auto` per-leg table: how a portfolio leg left
/// the race.
#[derive(Debug, Clone)]
pub struct LegReport {
    /// Leg engine name (`po`, `gpo`, `pdr`, `bdd`, `unfold`, `full`).
    pub engine: String,
    /// `won`, `lost`, `partial`, `panicked`, `error`, or `not-launched`.
    pub outcome: String,
    /// States the leg stored before it stopped (0 when it never reported).
    pub states: usize,
    /// Wall time the leg ran.
    pub wall: std::time::Duration,
    /// Why the leg lost (empty for the winner).
    pub why: String,
    /// Launch attempts (2 when the leg was retried after a panic/error).
    pub attempts: u32,
}

/// The unified result of one verification run.
///
/// `states_line` and `detail_lines` carry the *exact* prose lines the CLI
/// has always printed (so scripts and tests matching them keep working);
/// the typed fields feed the JSON rendering.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Name of the (original) net.
    pub net: String,
    /// Engine selector, as the CLI spells it (`full`, `po`, `gpo`, …).
    pub engine: String,
    /// Human-readable engine description.
    pub engine_desc: &'static str,
    /// The exact prose states line, e.g. `states: 12` or `GPN states: 3`.
    pub states_line: String,
    /// The state count behind `states_line`.
    pub states: usize,
    /// Three-valued deadlock verdict.
    pub verdict: Verdict,
    /// Which budget axis ran out, for partial runs.
    pub exhausted: Option<ExhaustionReason>,
    /// Coverage of a partial run.
    pub coverage: Option<CoverageStats>,
    /// Extra engine-specific prose lines, printed after the states line.
    pub detail_lines: Vec<String>,
    /// Engine-specific numeric counters for the JSON rendering. A counter
    /// past `u64::MAX` saturates: gpo's `valid_sets` does from 2^64 sets
    /// of `r₀` on, while its prose `valid sets |r0|` line stays exact.
    pub details: Vec<(&'static str, u64)>,
    /// Deadlock witnesses, lifted and rendered.
    pub witnesses: Vec<Witness>,
    /// Rendered clauses of an inductive-invariant certificate (pdr HOLDS
    /// verdicts only). Empty for every other engine/verdict — and then
    /// absent from both renderings, like `legs`.
    pub certificate: Vec<String>,
    /// The reduction pre-pass, when one ran.
    pub reduction: Option<ReductionSummary>,
    /// The property this run answered. With the default (`EF deadlock`)
    /// the report renders exactly as it always has; any other property
    /// re-aims the verdict, witness labels, and a `property:` line at
    /// goal markings (φ under `EF`, ¬φ under `AG`).
    pub property: Property,
    /// The `--engine=auto` per-leg table. Empty for solo runs — and then
    /// absent from both renderings, so solo reports stay byte-identical
    /// to what they were before the portfolio existed.
    pub legs: Vec<LegReport>,
}

/// The canonical JSON spelling of a verdict (default-property runs).
pub fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::DeadlockFree => "deadlock-free",
        Verdict::HasDeadlock => "deadlock",
        Verdict::Inconclusive { .. } => "inconclusive",
    }
}

/// The JSON spelling of a verdict under an explicit property. `HasDeadlock`
/// means "a goal marking was found": the `EF` property holds, or the `AG`
/// property is violated. `DeadlockFree` means the complete exploration
/// found no goal marking: the `EF` property does not hold, or the `AG`
/// property holds.
pub fn property_verdict_str(property: &Property, v: Verdict) -> &'static str {
    if property.is_default() {
        return verdict_str(v);
    }
    match (v, property.quantifier) {
        (Verdict::HasDeadlock, Quantifier::Ef) => "holds",
        (Verdict::HasDeadlock, Quantifier::Ag) => "violated",
        (Verdict::DeadlockFree, Quantifier::Ef) => "does-not-hold",
        (Verdict::DeadlockFree, Quantifier::Ag) => "holds",
        (Verdict::Inconclusive { .. }, _) => "inconclusive",
    }
}

impl CheckReport {
    /// Renders the classic CLI prose (without the reduction header, which
    /// the CLI prints before the engine runs).
    pub fn render_text(&self) -> String {
        let default = self.property.is_default();
        let mut out = String::new();
        out.push_str(&format!("engine: {}\n", self.engine_desc));
        if !default {
            out.push_str(&format!("property: {}\n", self.property));
        }
        if let (Some(reason), Some(coverage)) = (self.exhausted, &self.coverage) {
            out.push_str(&format!("budget: {reason} — {coverage}\n"));
        }
        out.push_str(&self.states_line);
        out.push('\n');
        for line in &self.detail_lines {
            out.push_str(line);
            out.push('\n');
        }
        if !self.legs.is_empty() {
            out.push_str("legs:\n");
            for l in &self.legs {
                out.push_str(&format!(
                    "  {:<7} {:<12} states={:<10} {:>8.3}s{}{}\n",
                    l.engine,
                    l.outcome,
                    l.states,
                    l.wall.as_secs_f64(),
                    if l.why.is_empty() { "" } else { "  " },
                    l.why
                ));
            }
        }
        out.push_str(&format!("verdict: {}\n", self.verdict_line()));
        if !self.certificate.is_empty() {
            // prose shows a prefix so big certificates don't drown the
            // report; the JSON rendering always carries every clause
            const SHOWN: usize = 16;
            out.push_str(&format!(
                "certificate: inductive invariant, {} clauses\n",
                self.certificate.len()
            ));
            for c in self.certificate.iter().take(SHOWN) {
                out.push_str(&format!("  {c}\n"));
            }
            if self.certificate.len() > SHOWN {
                out.push_str(&format!(
                    "  ... ({} more clauses; --json carries the full list)\n",
                    self.certificate.len() - SHOWN
                ));
            }
        }
        let label = if default {
            "dead marking"
        } else {
            "goal marking"
        };
        for w in &self.witnesses {
            if w.statically_lifted {
                out.push_str(&format!("{label} (lifted): {}\n", w.marking));
            } else {
                out.push_str(&format!("{label}: {}\n", w.marking));
            }
            if let Some(trace) = &w.trace {
                out.push_str(&format!("witness trace: {}\n", trace.join(" ")));
            }
        }
        out
    }

    /// The prose after `verdict: `. Default property: the classic
    /// [`Verdict`] display. Otherwise the verdict is re-phrased for the
    /// property's quantifier.
    fn verdict_line(&self) -> String {
        if self.property.is_default() {
            return self.verdict.to_string();
        }
        match (self.verdict, self.property.quantifier) {
            (Verdict::HasDeadlock, Quantifier::Ef) => "EF property HOLDS (witness found)".into(),
            (Verdict::HasDeadlock, Quantifier::Ag) => "AG property VIOLATED (witness found)".into(),
            (Verdict::DeadlockFree, Quantifier::Ef) => "EF property does not hold".into(),
            (Verdict::DeadlockFree, Quantifier::Ag) => "AG property holds".into(),
            (Verdict::Inconclusive { .. }, _) => self.verdict.to_string(),
        }
    }

    /// Renders the machine-readable report document. This is also the
    /// `report` object of the serve wire protocol.
    pub fn to_json(&self) -> Json {
        let budget = match (&self.exhausted, &self.coverage) {
            (Some(reason), Some(c)) => Json::Obj(vec![
                ("exhausted".into(), Json::str(reason.to_string())),
                ("states_stored".into(), Json::num(c.states_stored)),
                ("states_expanded".into(), Json::num(c.states_expanded)),
                ("frontier".into(), Json::num(c.frontier_len)),
                ("bytes_estimate".into(), Json::num(c.bytes_estimate)),
                ("elapsed_secs".into(), Json::Num(c.elapsed.as_secs_f64())),
            ]),
            _ => Json::Null,
        };
        let witnesses = Json::Arr(
            self.witnesses
                .iter()
                .map(|w| {
                    Json::Obj(vec![
                        ("marking".into(), Json::str(&w.marking)),
                        (
                            "trace".into(),
                            match &w.trace {
                                Some(t) => Json::Arr(t.iter().map(Json::str).collect()),
                                None => Json::Null,
                            },
                        ),
                        ("statically_lifted".into(), Json::Bool(w.statically_lifted)),
                    ])
                })
                .collect(),
        );
        let reduction = match &self.reduction {
            Some(r) => Json::Obj(vec![
                ("rules".into(), Json::str(&r.rules)),
                ("places_before".into(), Json::num(r.places_before)),
                ("transitions_before".into(), Json::num(r.transitions_before)),
                ("places".into(), Json::num(r.places)),
                ("transitions".into(), Json::num(r.transitions)),
                ("summary".into(), Json::str(&r.summary)),
            ]),
            None => Json::Null,
        };
        let mut doc = Json::Obj(vec![
            ("net".into(), Json::str(&self.net)),
            ("engine".into(), Json::str(&self.engine)),
            ("engine_desc".into(), Json::str(self.engine_desc)),
            ("property".into(), Json::str(self.property.to_string())),
            (
                "verdict".into(),
                Json::str(property_verdict_str(&self.property, self.verdict)),
            ),
            (
                "exit_code".into(),
                Json::num(self.verdict.exit_code() as usize),
            ),
            ("complete".into(), Json::Bool(self.exhausted.is_none())),
            ("states".into(), Json::num(self.states)),
            ("budget".into(), budget),
            (
                "details".into(),
                Json::Obj(
                    self.details
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            ("witnesses".into(), witnesses),
            ("reduction".into(), reduction),
        ]);
        let Json::Obj(fields) = &mut doc else {
            unreachable!("doc is an object")
        };
        if !self.certificate.is_empty() {
            fields.push((
                "certificate".into(),
                Json::Arr(self.certificate.iter().map(Json::str).collect()),
            ));
        }
        if !self.legs.is_empty() {
            fields.push((
                "legs".into(),
                Json::Arr(
                    self.legs
                        .iter()
                        .map(|l| {
                            Json::Obj(vec![
                                ("engine".into(), Json::str(&l.engine)),
                                ("outcome".into(), Json::str(&l.outcome)),
                                ("states".into(), Json::num(l.states)),
                                ("wall_secs".into(), Json::Num(l.wall.as_secs_f64())),
                                ("why".into(), Json::str(&l.why)),
                                ("attempts".into(), Json::num(l.attempts as usize)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> CheckReport {
        CheckReport {
            net: "n".into(),
            engine: "full".into(),
            engine_desc: "exhaustive reachability",
            states_line: "states: 3".into(),
            states: 3,
            verdict: Verdict::HasDeadlock,
            exhausted: Some(ExhaustionReason::States),
            coverage: Some(CoverageStats {
                states_stored: 3,
                states_expanded: 2,
                frontier_len: 1,
                bytes_estimate: 96,
                elapsed: Duration::from_millis(1),
            }),
            detail_lines: vec!["peak BDD nodes: 7".into()],
            details: vec![("peak_bdd_nodes", 7)],
            witnesses: vec![Witness {
                marking: "{q}".into(),
                trace: Some(vec!["go".into()]),
                statically_lifted: false,
            }],
            reduction: None,
            property: Property::deadlock(),
            certificate: Vec::new(),
            legs: Vec::new(),
        }
    }

    #[test]
    fn prose_matches_the_legacy_layout() {
        let text = sample().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "engine: exhaustive reachability");
        assert!(lines[1].starts_with("budget: state budget exhausted — 3 states stored"));
        assert_eq!(lines[2], "states: 3");
        assert_eq!(lines[3], "peak BDD nodes: 7");
        assert_eq!(lines[4], "verdict: DEADLOCK possible");
        assert_eq!(lines[5], "dead marking: {q}");
        assert_eq!(lines[6], "witness trace: go");
    }

    #[test]
    fn property_rendering_reaims_verdict_and_witness_labels() {
        let mut r = sample();
        r.property = Property::parse("EF m(q) >= 1").unwrap();
        let text = r.render_text();
        assert!(text.contains("property: EF m(q) >= 1\n"), "{text}");
        assert!(text.contains("verdict: EF property HOLDS (witness found)\n"));
        assert!(text.contains("goal marking: {q}\n"));
        assert!(!text.contains("dead marking"));
        let j = r.to_json();
        assert_eq!(j.get("property").unwrap().as_str(), Some("EF m(q) >= 1"));
        assert_eq!(j.get("verdict").unwrap().as_str(), Some("holds"));
        assert_eq!(j.get("exit_code").unwrap().as_u64(), Some(1));

        r.property = Property::parse("AG m(q) = 0").unwrap();
        assert!(r
            .render_text()
            .contains("verdict: AG property VIOLATED (witness found)\n"));
        assert_eq!(
            r.to_json().get("verdict").unwrap().as_str(),
            Some("violated")
        );
        r.verdict = Verdict::DeadlockFree;
        assert!(r.render_text().contains("verdict: AG property holds\n"));
        assert_eq!(r.to_json().get("verdict").unwrap().as_str(), Some("holds"));
        r.property = Property::parse("EF m(q) >= 1").unwrap();
        assert!(r
            .render_text()
            .contains("verdict: EF property does not hold\n"));
        assert_eq!(
            r.to_json().get("verdict").unwrap().as_str(),
            Some("does-not-hold")
        );
    }

    #[test]
    fn default_property_rendering_is_unchanged_and_json_names_it() {
        let r = sample();
        assert!(!r.render_text().contains("property:"), "no prose line");
        let j = r.to_json();
        assert_eq!(j.get("property").unwrap().as_str(), Some("EF deadlock"));
        assert_eq!(j.get("verdict").unwrap().as_str(), Some("deadlock"));
    }

    #[test]
    fn certificate_renders_only_when_present() {
        let plain = sample();
        assert!(!plain.render_text().contains("certificate:"));
        assert!(plain.to_json().get("certificate").is_none());
        let mut proved = sample();
        proved.verdict = Verdict::DeadlockFree;
        proved.witnesses.clear();
        proved.certificate = vec!["p0 | !p1".into(), "!q".into()];
        let text = proved.render_text();
        assert!(
            text.contains("certificate: inductive invariant, 2 clauses\n"),
            "{text}"
        );
        assert!(text.contains("  p0 | !p1\n"), "{text}");
        let j = proved.to_json();
        let cert = j.get("certificate").expect("certificate array");
        assert_eq!(cert.get_index(1).and_then(Json::as_str), Some("!q"));

        // big certificates truncate in prose but not in JSON
        proved.certificate = (0..40).map(|i| format!("c{i}")).collect();
        let text = proved.render_text();
        assert!(text.contains("  c15\n"), "{text}");
        assert!(!text.contains("  c16\n"), "{text}");
        assert!(text.contains("(24 more clauses"), "{text}");
        let j = proved.to_json();
        let cert = j.get("certificate").expect("certificate array");
        assert_eq!(cert.get_index(39).and_then(Json::as_str), Some("c39"));
    }

    #[test]
    fn legs_table_renders_only_for_portfolio_runs() {
        let solo = sample();
        assert!(!solo.render_text().contains("legs:"));
        assert!(solo.to_json().get("legs").is_none());
        let mut auto = sample();
        auto.legs = vec![
            LegReport {
                engine: "gpo".into(),
                outcome: "won".into(),
                states: 3,
                wall: Duration::from_millis(2),
                why: String::new(),
                attempts: 1,
            },
            LegReport {
                engine: "full".into(),
                outcome: "partial".into(),
                states: 2,
                wall: Duration::from_millis(3),
                why: "cancelled (race resolved)".into(),
                attempts: 1,
            },
        ];
        let text = auto.render_text();
        assert!(text.contains("legs:"), "{text}");
        assert!(text.contains("gpo"), "{text}");
        assert!(text.contains("cancelled (race resolved)"), "{text}");
        let j = auto.to_json();
        let legs = j.get("legs").expect("legs array present");
        assert_eq!(
            legs.get_index(0)
                .and_then(|l| l.get("outcome"))
                .and_then(Json::as_str),
            Some("won")
        );
        assert_eq!(
            legs.get_index(1)
                .and_then(|l| l.get("why"))
                .and_then(Json::as_str),
            Some("cancelled (race resolved)")
        );
    }

    #[test]
    fn json_carries_verdict_and_witnesses() {
        let j = sample().to_json();
        assert_eq!(j.get("verdict").unwrap().as_str(), Some("deadlock"));
        assert_eq!(j.get("exit_code").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("complete").unwrap().as_bool(), Some(false));
        assert_eq!(
            j.get("budget").unwrap().get("frontier").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            j.get("details")
                .unwrap()
                .get("peak_bdd_nodes")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        // the rendered document re-parses
        let round = Json::parse(&j.render()).unwrap();
        assert_eq!(round.get("net").unwrap().as_str(), Some("n"));
    }
}
