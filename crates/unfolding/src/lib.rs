//! # unfolding — McMillan finite complete prefixes for safe Petri nets
//!
//! The *other* classical answer to state explosion, included in this
//! reproduction as a comparator and extension: where the generalized
//! partial-order analysis of `gpo-core` merges conflicting branches into
//! one colored state, an **unfolding** lays all branches out side by side
//! in an acyclic occurrence net, and concurrency costs nothing because
//! independent events simply do not interleave. The paper's related-work
//! section points at unfolding-based verification (Semenov–Yakovlev [13],
//! after McMillan); this crate implements the McMillan construction:
//!
//! * [`Prefix`] — conditions (place instances) and events (transition
//!   instances) of a branching process, with DOT export;
//! * [`Unfolding::build`] — possible-extension search in adequate order
//!   (`|[e]|`) with cut-off events, yielding a *marking-complete* finite
//!   prefix;
//! * [`Unfolding::reachable_markings`] / [`has_deadlock`](Unfolding::has_deadlock)
//!   — the correctness bridge back to classical semantics.
//!
//! # Example: concurrency is free
//!
//! ```
//! use unfolding::Unfolding;
//! use petri::{Budget, CheckpointConfig, ReachabilityGraph};
//!
//! let net = models::figures::fig1(); // 3 concurrent transitions
//! let unf = Unfolding::build(&net, &Budget::default()).into_value();
//! let rg = ReachabilityGraph::explore(
//!     &net,
//!     &Default::default(),
//!     &Budget::default(),
//!     &CheckpointConfig::default(),
//!     None,
//! )?
//! .into_value();
//! assert_eq!(unf.prefix().event_count(), 3); // prefix: one event each
//! assert_eq!(rg.state_count(), 8);           // graph: 2^3 interleaved states
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branching;
mod unfold;

pub use branching::{ConditionId, EventId, Prefix};
pub use unfold::Unfolding;

/// Test shorthand: the complete reachability graph of `net`.
#[cfg(test)]
fn explore_full(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    petri::ReachabilityGraph::explore(
        net,
        &Default::default(),
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
