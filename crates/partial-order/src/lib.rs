//! # partial-order — classical partial-order reduction for safe Petri nets
//!
//! This crate implements the state-space reduction techniques the paper
//! generalizes (§2.3, citing Valmari's stubborn sets [14], Godefroid–Wolper
//! [9] and de Jong's anticipation analysis [6]) and serves as the
//! workspace's stand-in for the **SPIN+PO** column of the paper's Table 1.
//!
//! * [`Dependencies`] — structural conflict / enabling / dependency
//!   relations between transitions;
//! * [`StubbornSets`] — the D1/D2 closure with three [`SeedStrategy`]
//!   choices, including the paper's conflict-cluster *anticipation*; it is
//!   the [`FiringRule`](petri::FiringRule) of the reduced exploration;
//! * [`explore`] — deadlock-preserving reduced exploration: a
//!   [`ReachabilityGraph`](petri::ReachabilityGraph) explored under the
//!   stubborn-set rule.
//!
//! # What reduction does — and what it cannot do
//!
//! For `n` *independent* concurrent transitions, reduction explores one
//! interleaving: `n + 1` states instead of `2^n`. For `n` concurrently
//! marked *conflict places* (the paper's Figure 2), every combination of
//! choices is still a distinct state and reduction is powerless: the
//! reduced graph keeps `2^(n+1) − 1` states. Removing *that* blow-up is
//! exactly what the generalized analysis in the `gpo-core` crate adds.
//!
//! ```
//! use petri::{Budget, CheckpointConfig, NetBuilder, ReachabilityGraph};
//!
//! // Figure 2 of the paper with N = 3 conflict pairs.
//! let mut b = NetBuilder::new("fig2");
//! for i in 0..3 {
//!     let c = b.place_marked(format!("c{i}"));
//!     let a = b.place(format!("a{i}"));
//!     let bb = b.place(format!("b{i}"));
//!     b.transition(format!("A{i}"), [c], [a]);
//!     b.transition(format!("B{i}"), [c], [bb]);
//! }
//! let net = b.build()?;
//! let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
//! let full = ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)?;
//! let red = partial_order::explore(&net, &Default::default(), &budget, &ckpt, None)?;
//! assert_eq!(full.value().state_count(), 27);
//! assert_eq!(red.value().state_count(), 15); // 2^4 - 1
//! # Ok::<(), petri::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dependency;
mod reduced;
mod stubborn;

pub use dependency::Dependencies;
pub use reduced::{explore, ReducedOptions};
pub use stubborn::{SeedStrategy, StubbornSets};

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

/// Test shorthand: the complete reduced graph of `net`.
#[cfg(test)]
fn explore_reduced(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    explore_reduced_with(net, &ReducedOptions::default())
}

/// Test shorthand: the complete reduced graph of `net` under `opts`.
#[cfg(test)]
fn explore_reduced_with(
    net: &petri::PetriNet,
    opts: &ReducedOptions,
) -> Result<petri::ReachabilityGraph, petri::NetError> {
    explore(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
