//! # timed — Time Petri nets and state-class graphs
//!
//! The paper closes (§5) by pointing at *"efficient timing verification of
//! concurrent systems, modeled as Timed Petri nets"* ([7], [13]) as the
//! direction the generalized analysis should be leveraged toward. This
//! crate implements that substrate: Merlin's Time Petri nets (a safe net
//! plus a static firing interval per transition) and the classical
//! Berthomieu–Diaz **state-class graph** construction over difference
//! bound matrices.
//!
//! * [`Interval`] / [`TimedNet`] — the model;
//! * [`Dbm`] — canonical difference bound matrices (firing domains);
//! * [`ClassGraph`] — exploration, timed deadlock detection, and the
//!   projection back to reachable markings.
//!
//! With every interval left at `[0, ∞)` the class graph coincides with
//! the untimed reachability graph (tested, also property-tested on random
//! nets); tightening intervals prunes interleavings and whole branches.
//!
//! # Example
//!
//! ```
//! use petri::NetBuilder;
//! use timed::{ClassGraph, Interval, TimedNet};
//!
//! // a watchdog that always beats the timeout
//! let mut b = NetBuilder::new("watchdog");
//! let p = b.place_marked("p");
//! let ok = b.transition("kick", [p], []);
//! let boom = b.transition("timeout", [p], []);
//! let timed = TimedNet::new(b.build()?)
//!     .with_interval(ok, Interval::new(0, 3))
//!     .with_interval(boom, Interval::new(10, 10));
//! let graph = ClassGraph::explore(&timed, &Default::default())?;
//! // the timeout branch is unreachable in time
//! assert!(graph.edges().iter().all(|&(_, t, _)| t == ok));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classes;
mod dbm;
mod error;
mod net;

pub use classes::{ClassGraph, ClassOptions, StateClass};
pub use dbm::{Dbm, INF};
pub use error::TimedError;
pub use net::{Interval, TimedNet};

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
