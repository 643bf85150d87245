//! The correctness gate: every run is classed against the query's
//! hand-written truth, and every witness trace is replayed on the
//! original net.

use std::fmt;

use julie::json::Json;
use petri::{CompiledProperty, PetriNet, Property};

use crate::workload::{Query, Truth};

/// The class a run lands in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Class {
    /// Exit 0 or 1, agreeing with the truth.
    Decided,
    /// Exit 2 (a budget ran out) before the cap.
    Undecided,
    /// Exit 3, killed at the cap, a malformed report, or a witness trace
    /// that does not replay to a goal marking on the original net.
    Failed(String),
    /// Exit 0 or 1 contradicting the truth.
    Wrong(String),
}

impl Class {
    /// `failed` or `wrong`: the run counts against the `failed` total.
    pub fn is_failure(&self) -> bool {
        matches!(self, Class::Failed(_) | Class::Wrong(_))
    }
}

/// The class name, and for a failed or wrong run the reason, as in
/// `failed: killed at the cap`.
impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::Decided => f.write_str("decided"),
            Class::Undecided => f.write_str("undecided"),
            Class::Failed(why) => write!(f, "failed: {why}"),
            Class::Wrong(why) => write!(f, "wrong: {why}"),
        }
    }
}

/// The verdict on one run.
#[derive(Debug, Clone)]
pub struct Judgement {
    /// The outcome class.
    pub class: Class,
    /// For a decided violated answer: whether the report carried a witness
    /// trace (which then replayed). `None` for every other answer.
    pub replayed: Option<bool>,
}

impl Judgement {
    /// A failed run.
    pub fn failed(reason: impl Into<String>) -> Judgement {
        Judgement {
            class: Class::Failed(reason.into()),
            replayed: None,
        }
    }
}

/// A query's net and property, resolved once so each run's witness can be
/// replayed cheaply.
pub struct Oracle {
    net: PetriNet,
    property: CompiledProperty,
    truth: Truth,
}

impl Oracle {
    /// Builds the oracle of `query`.
    pub fn new(query: &Query) -> Oracle {
        let net = query.model.build();
        let property = match query.property {
            Some(text) => Property::parse(text).expect("workload properties parse"),
            None => Property::deadlock(),
        }
        .compile(&net)
        .expect("workload properties name real places");
        Oracle {
            net,
            property,
            truth: query.truth,
        }
    }

    /// Classes one run from its exit code (`None`: ended by a signal) and
    /// its `--json` report.
    pub fn judge(&self, exit: Option<i32>, report: Option<&Json>) -> Judgement {
        let class = |class| Judgement {
            class,
            replayed: None,
        };
        let code = match exit {
            None => return Judgement::failed("ended by a signal"),
            Some(2) => return class(Class::Undecided),
            Some(c @ (0 | 1)) => c,
            Some(c) => return Judgement::failed(format!("exit code {c}")),
        };
        let Some(report) = report else {
            return Judgement::failed("no --json report");
        };
        let reported = report.get("exit_code").and_then(Json::as_u64);
        if reported != Some(code as u64) {
            return Judgement::failed(format!(
                "report exit_code {reported:?} disagrees with exit code {code}"
            ));
        }
        if code != self.truth.exit_code() {
            return class(Class::Wrong(format!(
                "exit {code}, expected {}",
                self.truth.exit_code()
            )));
        }
        if code == 0 {
            return class(Class::Decided);
        }
        let trace = report
            .get("witnesses")
            .and_then(|w| w.get_index(0))
            .and_then(|w| w.get("trace"));
        match trace {
            None | Some(Json::Null) => Judgement {
                class: Class::Decided,
                replayed: Some(false),
            },
            Some(t) => match self.replay(t) {
                Ok(()) => Judgement {
                    class: Class::Decided,
                    replayed: Some(true),
                },
                Err(e) => Judgement::failed(format!("witness trace: {e}")),
            },
        }
    }

    /// Fires the named transitions from the initial marking of the
    /// original net and checks that the run ends in a goal marking.
    fn replay(&self, trace: &Json) -> Result<(), String> {
        let Json::Arr(names) = trace else {
            return Err("not an array".into());
        };
        let mut seq = Vec::with_capacity(names.len());
        for name in names {
            let name = name.as_str().ok_or("non-string transition name")?;
            seq.push(
                self.net
                    .transition_by_name(name)
                    .ok_or_else(|| format!("unknown transition `{name}`"))?,
            );
        }
        let end = self
            .net
            .fire_sequence(self.net.initial_marking(), seq)
            .map_err(|e| e.to_string())?
            .ok_or("a transition is not enabled when fired")?;
        if self.property.goal(&self.net, &end) {
            Ok(())
        } else {
            Err("does not end in a goal marking".into())
        }
    }
}
