//! # models — the paper's benchmark nets
//!
//! Parameterized safe Petri nets used throughout the *Generalized Partial
//! Order Analysis* reproduction:
//!
//! * [`nsdp`] — non-serialized dining philosophers; full state counts
//!   reproduce Table 1 exactly (Lucas numbers `L₃ₙ`);
//! * [`asat`] — asynchronous arbiter tree over `n` users;
//! * [`overtake`] — highway overtake protocol with `n` cars;
//! * [`readers_writers`] — readers/writers, the case where classical
//!   partial-order reduction achieves nothing;
//! * [`scheduler`] — Milner's cyclic scheduler: pure concurrency with no
//!   conflicts at all (the complementary stress case);
//! * [`figures`] — the small worked-example nets of the paper's figures;
//! * [`random`] — seeded random safe nets for differential property tests.
//!
//! # Examples
//!
//! ```
//! use petri::{Budget, CheckpointConfig, ReachabilityGraph};
//!
//! let rg = ReachabilityGraph::explore(
//!     &models::nsdp(2),
//!     &Default::default(),
//!     &Budget::default(),
//!     &CheckpointConfig::default(),
//!     None,
//! )?
//! .into_value();
//! assert_eq!(rg.state_count(), 18); // Table 1, NSDP(2)
//! # Ok::<(), petri::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asat;
pub mod figures;
mod nsdp;
mod overtake;
pub mod random;
mod rw;
mod scheduler;

pub use asat::asat;
pub use nsdp::nsdp;
pub use overtake::overtake;
pub use rw::readers_writers;
pub use scheduler::scheduler;

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
