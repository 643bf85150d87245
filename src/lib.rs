//! # gpo-suite — Generalized Partial Order Analysis, end to end
//!
//! Umbrella crate of the reproduction of *"Efficient Verification using
//! Generalized Partial Order Analysis"* (Vercauteren, Verkest, de Jong,
//! Lin — DATE 1998). It re-exports the whole stack so the repository's
//! `examples/` and `tests/` can exercise every layer through one
//! dependency:
//!
//! * [`petri`] — safe Petri nets, classical firing, exhaustive
//!   reachability, conflicts, invariants, parsing and DOT export;
//! * [`partial_order`] — stubborn-set / anticipation reduction (the
//!   SPIN+PO stand-in);
//! * [`symbolic`] — from-scratch BDD and ZDD engines and symbolic
//!   reachability (the SMV stand-in);
//! * [`gpo_core`] — Generalized Petri Nets and the generalized analysis
//!   (the paper's contribution);
//! * [`models`] — the NSDP / ASAT / OVER / RW benchmarks and the paper's
//!   figure nets;
//! * [`unfolding`] — McMillan finite complete prefixes (the related
//!   conflict-aware technique of the paper's related work);
//! * [`timed`] — Time Petri nets and Berthomieu–Diaz state-class graphs
//!   (the paper's §5 outlook).
//!
//! # Quickstart
//!
//! ```
//! use gpo_suite::prelude::*;
//!
//! let net = models::nsdp(4); // 4 dining philosophers
//! let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
//! let full = ReachabilityGraph::explore(&net, &Default::default(), &budget, &ckpt, None)?;
//! let gpo = analyze::<ZddFamily>(&net, &Default::default(), &budget, &ckpt, None)?;
//! let (full, gpo) = (full.into_value(), gpo.into_value());
//! assert_eq!(full.state_count(), 322); // Table 1
//! assert_eq!(gpo.state_count, 3); // GPN states
//! assert_eq!(gpo.deadlock_possible, full.has_deadlock());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use gpo_core;
pub use models;
pub use partial_order;
pub use petri;
pub use symbolic;
pub use timed;
pub use unfolding;

/// The most common imports in one place.
pub mod prelude {
    pub use gpo_core::{analyze, GpnState, GpoOptions, GpoReport, SetFamily, ZddFamily};
    pub use models;
    pub use partial_order::{ReducedOptions, SeedStrategy};
    pub use petri::{
        parse_net, reduce, to_text, verify, Budget, CheckpointConfig, CoverageStats,
        ExhaustionReason, ExploreOptions, Marking, NetBuilder, Outcome, PetriNet, PlaceId,
        Property, ReachabilityGraph, ReduceOptions, Reduction, ReductionReport, TransitionId,
        Verdict,
    };
    pub use symbolic::{SymbolicOptions, SymbolicReachability};
    pub use timed::{ClassGraph, Interval, TimedNet};
    pub use unfolding::Unfolding;
}
