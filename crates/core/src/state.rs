//! Generalized Petri Net states (Definition 3.1).
//!
//! A GPN state is a pair `⟨m, r⟩`: `m` maps each place to a family of
//! transition sets (the possible firing "histories" of the token in that
//! place — the colors of §3.1), and `r` is the set of *valid* transition
//! sets. The initial state of the analysis puts `r₀` — the maximal
//! conflict-free transition sets — in every initially marked place (§3.3).

use petri::{BitSet, ConflictInfo, Marking, PetriNet, PlaceId};

use crate::error::GpoError;
use crate::family::SetFamily;

/// A state `⟨m, r⟩` of a Generalized Petri Net.
///
/// `F` chooses the family representation ([`ExplicitFamily`] or
/// [`ZddFamily`]).
///
/// [`ExplicitFamily`]: crate::ExplicitFamily
/// [`ZddFamily`]: crate::ZddFamily
///
/// # Examples
///
/// ```
/// use gpo_core::{ExplicitFamily, GpnState, SetFamily};
///
/// let net = models::figures::fig7();
/// let ctx = ExplicitFamily::new_context(net.transition_count());
/// let s0 = GpnState::<ExplicitFamily>::initial(&net, &ctx, 1 << 20)?;
/// // r0 = {{A,C},{A,D},{B,C},{B,D}} as computed in the paper
/// assert_eq!(s0.valid().count(), 4);
/// # Ok::<(), gpo_core::GpoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GpnState<F: SetFamily> {
    marking: Vec<F>,
    valid: F,
}

impl<F: SetFamily> GpnState<F> {
    /// Builds the initial GPN state of `net` per §3.3: `r₀` is the family
    /// of maximal conflict-free transition sets, `m₀(p) = r₀` for marked
    /// places and `∅` elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`GpoError::ValidSetsTooLarge`] if `r₀` would exceed
    /// `valid_set_limit` sets (only the enumeration is bounded — a ZDD
    /// representation can afford a much higher limit).
    pub fn initial(
        net: &PetriNet,
        ctx: &F::Context,
        valid_set_limit: usize,
    ) -> Result<Self, GpoError> {
        let conflicts = ConflictInfo::new(net);
        Self::initial_with_conflicts(net, &conflicts, ctx, valid_set_limit)
    }

    /// Like [`initial`](Self::initial) with a precomputed conflict
    /// structure.
    ///
    /// # Errors
    ///
    /// Returns [`GpoError::ValidSetsTooLarge`] when `r₀` exceeds the limit.
    pub fn initial_with_conflicts(
        net: &PetriNet,
        conflicts: &ConflictInfo,
        ctx: &F::Context,
        valid_set_limit: usize,
    ) -> Result<Self, GpoError> {
        if conflicts.conflict_free_set_count() > valid_set_limit as u128 {
            return Err(GpoError::ValidSetsTooLarge(valid_set_limit));
        }
        let universe = net.transition_count();
        // r₀ is built from its factored choice-group form: the explicit
        // representation enumerates the product (bounded by the limit
        // check above); the ZDD representation joins the groups directly
        // and never materializes it.
        let valid = F::from_choice_groups(ctx, universe, &conflicts.choice_groups());
        let empty = F::empty(ctx, universe);
        let marking = net
            .places()
            .map(|p| {
                if net.initial_marking().is_marked(p) {
                    valid.clone()
                } else {
                    empty.clone()
                }
            })
            .collect();
        Ok(GpnState { marking, valid })
    }

    /// Builds a state directly from per-place families and a valid-set
    /// relation — used by tests replaying the paper's worked examples.
    pub fn from_parts(marking: Vec<F>, valid: F) -> Self {
        GpnState { marking, valid }
    }

    /// The family in place `p`.
    pub fn place(&self, p: PlaceId) -> &F {
        &self.marking[p.index()]
    }

    /// All per-place families, indexed by place.
    pub fn marking(&self) -> &[F] {
        &self.marking
    }

    /// The valid-set relation `r`.
    pub fn valid(&self) -> &F {
        &self.valid
    }

    /// Replaces the family of one place (test construction helper).
    pub fn set_place(&mut self, p: PlaceId, family: F) {
        self.marking[p.index()] = family;
    }

    /// Definition 3.4: maps this GPN state to the set of classical safe-net
    /// markings it represents — one marking per valid set `v ∈ r`, marking
    /// exactly the places whose family contains `v`.
    pub fn mapping(&self, net: &PetriNet) -> Vec<Marking> {
        let mut out: Vec<Marking> = self
            .valid
            .sets()
            .iter()
            .map(|v| self.marking_of_history(net, v))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The classical marking selected by one history `v`: the places whose
    /// family contains `v`.
    pub fn marking_of_history(&self, net: &PetriNet, v: &BitSet) -> Marking {
        Marking::from_places(
            net.place_count(),
            net.places().filter(|p| self.marking[p.index()].contains(v)),
        )
    }

    /// Total representation footprint across all places and `r` (for the
    /// statistics the benchmarks report).
    pub fn footprint(&self) -> usize {
        self.marking.iter().map(F::footprint).sum::<usize>() + self.valid.footprint()
    }
}

/// GPN states ride the generic frontier loop directly, at every thread
/// count; the byte estimate is the representation footprint, to which the
/// loop adds its per-state and per-edge overheads.
impl<F: SetFamily> petri::parallel::FrontierState for GpnState<F> {
    fn approx_bytes(&self) -> usize {
        self.footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::ExplicitFamily;

    fn bs(universe: usize, elems: &[usize]) -> BitSet {
        BitSet::from_iter_with_capacity(universe, elems.iter().copied())
    }

    #[test]
    fn initial_state_of_fig7_matches_paper() {
        let net = models::figures::fig7();
        ExplicitFamily::new_context(net.transition_count());
        let s0 = GpnState::<ExplicitFamily>::initial(&net, &(), 100).unwrap();
        // r0 = {{A,C},{A,D},{B,C},{B,D}}
        let t = |n: &str| net.transition_by_name(n).unwrap().index();
        let u = net.transition_count();
        assert_eq!(s0.valid().count(), 4);
        assert!(s0.valid().contains(&bs(u, &[t("A"), t("C")])));
        assert!(s0.valid().contains(&bs(u, &[t("B"), t("D")])));
        // marked places carry r0, empty places carry {}
        let p0 = net.place_by_name("p0").unwrap();
        let p1 = net.place_by_name("p1").unwrap();
        assert_eq!(s0.place(p0), s0.valid());
        assert!(s0.place(p1).is_empty());
    }

    #[test]
    fn initial_mapping_is_exactly_m0() {
        let net = models::figures::fig7();
        ExplicitFamily::new_context(net.transition_count());
        let s0 = GpnState::<ExplicitFamily>::initial(&net, &(), 100).unwrap();
        let mapped = s0.mapping(&net);
        assert_eq!(mapped, vec![net.initial_marking().clone()]);
    }

    #[test]
    fn valid_set_limit_is_enforced() {
        let net = models::figures::fig2(8); // 2^8 = 256 valid sets
        ExplicitFamily::new_context(net.transition_count());
        let err = GpnState::<ExplicitFamily>::initial(&net, &(), 100).unwrap_err();
        assert_eq!(err, GpoError::ValidSetsTooLarge(100));
    }

    #[test]
    fn footprint_sums_places_and_valid() {
        let net = models::figures::fig1();
        ExplicitFamily::new_context(net.transition_count());
        let s0 = GpnState::<ExplicitFamily>::initial(&net, &(), 100).unwrap();
        // fig1: no conflicts -> r0 = {{A,B,C}}: 1 set; 3 marked places
        assert_eq!(s0.valid().count(), 1);
        assert_eq!(s0.footprint(), 3 + 1);
    }
}
