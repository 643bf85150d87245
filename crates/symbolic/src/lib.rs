//! # symbolic — from-scratch decision-diagram engines and symbolic
//! reachability for safe Petri nets
//!
//! This crate is the workspace's stand-in for the **SMV** column of the
//! paper's Table 1, plus the set-family machinery the generalized analysis
//! can use:
//!
//! * [`Bdd`] — a reduced ordered BDD manager (Bryant [2]): hash-consed
//!   nodes, ITE, quantification, the relational product over a cube,
//!   renaming (also against the order) and model counting, with ITE,
//!   product and rename results kept in persistent, bounded computed
//!   tables;
//! * [`ConcurrentZdd`] — the zero-suppressed DD manager (set families)
//!   with union / intersection / difference / onset / offset / join, used
//!   as the shared representation behind large valid-set relations. It is
//!   `Send + Sync` with `&self` operations behind sharded locks, so the
//!   worker threads of a parallel exploration share one canonical node
//!   store;
//! * [`SymbolicReachability`] — BDD-based breadth-first reachability and
//!   deadlock detection with peak-node tracking. Each transition's
//!   relation ranges over its own places only, and the places are ordered
//!   by one structural rank, with current and next variables either
//!   interleaved or, for the ablation bench, in two halves.
//!
//! # Example
//!
//! ```
//! use petri::{Budget, Property};
//! use symbolic::SymbolicReachability;
//!
//! let net = models::nsdp(2);
//! let deadlock = Property::deadlock().compile(&net)?;
//! let sym = SymbolicReachability::explore(&net, &Default::default(), &Budget::default(), &deadlock)
//!     .into_value();
//! assert_eq!(sym.state_count(), 18.0); // Table 1: NSDP(2)
//! assert!(sym.has_deadlock());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd;
mod czdd;
mod reach;

pub use bdd::{Bdd, BddRef, Renaming, BDD_FALSE, BDD_TRUE};
pub use czdd::{ConcurrentZdd, ZddRef, ZDD_EMPTY, ZDD_UNIT};
pub use reach::{SymbolicOptions, SymbolicReachability, VariableOrder, BDD_NODE_BYTES};

/// Test shorthand: the compiled default property, `EF deadlock`.
#[cfg(test)]
fn deadlock_goal(net: &petri::PetriNet) -> petri::CompiledProperty {
    petri::Property::deadlock()
        .compile(net)
        .expect("deadlock compiles on every net")
}

/// Test shorthand: the complete symbolic deadlock search over `net`.
#[cfg(test)]
fn explore_symbolic(net: &petri::PetriNet) -> SymbolicReachability {
    explore_symbolic_with(net, &SymbolicOptions::default())
}

/// Test shorthand: the complete symbolic deadlock search under `opts`.
#[cfg(test)]
fn explore_symbolic_with(net: &petri::PetriNet, opts: &SymbolicOptions) -> SymbolicReachability {
    SymbolicReachability::explore(net, opts, &petri::Budget::default(), &deadlock_goal(net))
        .into_value()
}

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
