//! # gpo-core — Generalized Partial Order Analysis
//!
//! The primary contribution of *"Efficient Verification using Generalized
//! Partial Order Analysis"* (Vercauteren, Verkest, de Jong, Lin — DATE
//! 1998): verification of safe Petri nets that explores concurrently
//! enabled **conflicting** paths simultaneously, removing the exponential
//! blow-up caused by concurrently marked conflict places that classical
//! partial-order (stubborn-set) reduction cannot touch.
//!
//! The machinery, following §3 of the paper:
//!
//! * [`GpnState`] — Generalized Petri Net states `⟨m, r⟩`: markings map
//!   places to *families of transition sets* (token "colors" = firing
//!   histories) and `r` keeps the *valid* histories (initially the maximal
//!   conflict-free transition sets);
//! * [`s_enabled`] / [`single_update`] — the single firing semantics
//!   (Definitions 3.2–3.3);
//! * [`m_enabled`] / [`multiple_update`] — the multiple firing semantics
//!   (Definitions 3.5–3.6), which fires whole maximal conflicting sets at
//!   once and tightens `r` to prune extended conflicts;
//! * [`GpnState::mapping`] — Definition 3.4, the bridge back to classical
//!   markings;
//! * [`analyze`] — the §3.3 reachability algorithm with the deadlock-
//!   possibility check `⋃ s_enabled(t,s) ≠ r`;
//! * [`SetFamily`] with the [`ZddFamily`] backend every production caller
//!   names, and the [`ExplicitFamily`] reference the tests compare it to.
//!
//! # Example: exponential → constant
//!
//! ```
//! use gpo_core::{analyze, ZddFamily};
//! use partial_order::ReducedReachability;
//! use petri::{Budget, CheckpointConfig};
//!
//! // Figure 2 of the paper with N = 8 concurrently marked conflict places
//! let net = models::figures::fig2(8);
//! let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
//! let po = ReducedReachability::explore(&net, &Default::default(), &budget, &ckpt, None)?;
//! let gpo = analyze::<ZddFamily>(&net, &Default::default(), &budget, &ckpt, None)?;
//! assert_eq!(po.value().state_count(), (1 << 9) - 1); // 511: reduction is powerless
//! assert_eq!(gpo.value().state_count, 2);             // the generalized analysis
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod error;
mod family;
mod semantics;
mod state;

pub use analysis::{analyze, GpoOptions, GpoReport};
pub use error::GpoError;
pub use family::{ExplicitFamily, FamilyStats, SetFamily, ZddFamily};
pub use semantics::{
    blocked_histories, deadlock_possible, m_enabled, m_enabled_all, multiple_update,
    multiple_update_with, s_enabled, s_enabled_all, single_update, single_update_with,
};
pub use state::GpnState;

/// Test shorthand: the complete generalized analysis of `net` on the
/// production representation.
#[cfg(test)]
fn analyze_all(net: &petri::PetriNet) -> Result<GpoReport, GpoError> {
    analyze_all_with::<ZddFamily>(net, &GpoOptions::default())
}

/// Test shorthand: the complete generalized analysis of `net` under `opts`
/// on families of representation `F`.
#[cfg(test)]
fn analyze_all_with<F: SetFamily>(
    net: &petri::PetriNet,
    opts: &GpoOptions,
) -> Result<GpoReport, GpoError> {
    analyze::<F>(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
