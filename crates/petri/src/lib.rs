//! # petri — safe Petri net substrate
//!
//! The foundational crate of the *Generalized Partial Order Analysis*
//! reproduction (Vercauteren, Verkest, de Jong, Lin — DATE 1998). It
//! provides classical safe Petri nets (Definitions 2.1–2.4 of the paper):
//!
//! * [`PetriNet`] / [`NetBuilder`] — net structure `⟨P, T, F, m₀⟩`;
//! * [`Marking`] — bitset states of safe nets, with the classical enabling
//!   and firing rules as methods on the net;
//! * [`ReachabilityGraph`] — exhaustive "conventional analysis" (§2.2),
//!   deadlock detection and witness traces;
//! * [`ConflictInfo`] — the conflict relation, conflict clusters (maximal
//!   conflicting sets, Definition 2.2) and the *maximal conflict-free
//!   transition sets* that seed the generalized analysis;
//! * structural analysis ([`place_invariants`], [`transition_invariants`]);
//! * a textual format ([`parse_net`] / [`to_text`]) and DOT export.
//!
//! Higher layers build on this crate: `partial-order` implements classical
//! stubborn-set/anticipation reduction, `gpo-core` implements the paper's
//! Generalized Petri Nets, and `symbolic` provides a BDD-based engine.
//!
//! # Example: detect the dining-philosophers deadlock
//!
//! ```
//! use petri::{verify, Budget, NetBuilder, Property, Verdict};
//!
//! // Two philosophers, two forks, left-then-right grabbing order.
//! let mut b = NetBuilder::new("dp2");
//! let forks: Vec<_> = (0..2).map(|i| b.place_marked(format!("fork{i}"))).collect();
//! for i in 0..2usize {
//!     let think = b.place_marked(format!("think{i}"));
//!     let has_left = b.place(format!("left{i}"));
//!     let eat = b.place(format!("eat{i}"));
//!     b.transition(format!("takeL{i}"), [think, forks[i]], [has_left]);
//!     b.transition(format!("takeR{i}"), [has_left, forks[(i + 1) % 2]], [eat]);
//!     b.transition(format!("drop{i}"), [eat], [think, forks[i], forks[(i + 1) % 2]]);
//! }
//! let net = b.build()?;
//! let bounded = verify(&net, &Default::default(), &Budget::default(), &Property::deadlock())?;
//! assert_eq!(bounded.verdict, Verdict::HasDeadlock, "both grabbed their left fork");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bitset;
pub mod budget;
pub mod checkpoint;
mod conflict;
mod dot;
mod error;
mod firing;
mod ids;
mod invariants;
mod marking;
mod net;
pub mod parallel;
mod parser;
pub mod pnml;
pub mod property;
mod reachability;
pub mod reduce;
mod siphons;
mod state_table;

pub use analysis::{verify, BoundedReport, VerificationReport};
pub use bitset::{BitSet, Iter as BitSetIter};
pub use budget::{Budget, CoverageStats, ExhaustionReason, Outcome, Verdict};
pub use checkpoint::{
    read_checkpoint, read_checkpoint_with_fallback, write_checkpoint, CheckpointConfig,
    CheckpointError, EngineKind, RunStamp, Section, Snapshot, StampedJob, StampedReduction,
};
pub use conflict::ConflictInfo;
pub use dot::{net_to_dot, reachability_to_dot};
pub use error::NetError;
pub use ids::{PlaceId, TransitionId};
pub use invariants::{
    covered_by_place_invariants, incidence_matrix, place_invariants, place_invariants_capped,
    transition_invariants, transition_invariants_capped,
};
pub use marking::Marking;
pub use net::{NetBuilder, PetriNet};
pub use parser::{parse_net, to_text};
pub use pnml::parse_pnml;
pub use property::{CompiledProperty, Property};
pub use reachability::{ExploreOptions, ReachabilityGraph, StateId};
pub use reduce::{
    reduce, reduce_observed, Observed, ReduceOptions, Reduction, ReductionMap, ReductionReport,
};
pub use siphons::{
    empty_places_siphon, is_siphon, is_trap, max_trap_within, minimal_siphons,
    siphon_trap_certificate,
};

/// Test shorthand: the complete reachability graph of `net`.
#[cfg(test)]
fn explore_full(net: &PetriNet) -> Result<ReachabilityGraph, NetError> {
    ReachabilityGraph::explore(
        net,
        &ExploreOptions::default(),
        &Budget::default(),
        &CheckpointConfig::default(),
        None,
    )
    .map(Outcome::into_value)
}

/// Test shorthand: the deadlock facts of a complete exploration of `net`.
#[cfg(test)]
fn verify_all(net: &PetriNet) -> VerificationReport {
    verify(
        net,
        &ExploreOptions::default(),
        &Budget::default(),
        &Property::deadlock(),
    )
    .unwrap()
    .report
}
