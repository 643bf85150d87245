//! Generalized Petri Net states (Definition 3.1).
//!
//! A GPN state is a pair `⟨m, r⟩`: `m` maps each place to a family of
//! transition sets (the possible firing "histories" of the token in that
//! place — the colors of §3.1), and `r` is the set of *valid* transition
//! sets. The initial state of the analysis puts `r₀` — the maximal
//! conflict-free transition sets — in every initially marked place (§3.3).
//! `r₀` is the product of one maximal independent set per conflict
//! cluster, so it can hold exponentially many sets (2^N on the paper's
//! Fig. 2). A [`ZddFamily`](crate::ZddFamily) builds each cluster's family
//! from per-transition constraints and joins the clusters, never listing
//! a set; the explicit reference enumerates them.

use petri::{BitSet, Budget, ConflictInfo, ExhaustionReason, Marking, PetriNet, PlaceId};

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
/// let s0 = GpnState::<ExplicitFamily>::initial(&net, &ctx);
/// // r0 = {{A,C},{A,D},{B,C},{B,D}} as computed in the paper
/// assert_eq!(s0.valid().count(), 4);
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
    pub fn initial(net: &PetriNet, ctx: &F::Context) -> Self {
        let conflicts = ConflictInfo::new(net);
        Self::initial_with_conflicts(net, &conflicts, ctx, &Budget::default())
            .expect("an unlimited budget never stops the r0 build")
    }

    /// Like [`initial`](Self::initial) with a precomputed conflict
    /// structure, building `r₀` under `budget`
    /// ([`SetFamily::from_conflicts`]).
    ///
    /// # Errors
    ///
    /// Returns the budget's reason when it stops the `r₀` build.
    pub fn initial_with_conflicts(
        net: &PetriNet,
        conflicts: &ConflictInfo,
        ctx: &F::Context,
        budget: &Budget,
    ) -> Result<Self, ExhaustionReason> {
        let universe = net.transition_count();
        let valid = F::from_conflicts(ctx, universe, conflicts, budget)?;
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
    use crate::family::{ExplicitFamily, ZddFamily};

    fn bs(universe: usize, elems: &[usize]) -> BitSet {
        BitSet::from_iter_with_capacity(universe, elems.iter().copied())
    }

    #[test]
    fn initial_state_of_fig7_matches_paper() {
        let net = models::figures::fig7();
        ExplicitFamily::new_context(net.transition_count());
        let s0 = GpnState::<ExplicitFamily>::initial(&net, &());
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
        let s0 = GpnState::<ExplicitFamily>::initial(&net, &());
        let mapped = s0.mapping(&net);
        assert_eq!(mapped, vec![net.initial_marking().clone()]);
    }

    #[test]
    fn r0_past_the_old_limit_is_built_as_a_zdd() {
        // 2^30 valid sets, far past the 2^24 sets the explicit
        // enumeration was once capped at, in two nodes per conflict pair
        let net = models::figures::fig2(30);
        let ctx = ZddFamily::new_context(net.transition_count());
        let s0 = GpnState::<ZddFamily>::initial(&net, &ctx);
        assert_eq!(s0.valid().count(), 1 << 30);
        assert_eq!(s0.valid().footprint(), 2 * 30);
    }

    #[test]
    fn footprint_sums_places_and_valid() {
        let net = models::figures::fig1();
        ExplicitFamily::new_context(net.transition_count());
        let s0 = GpnState::<ExplicitFamily>::initial(&net, &());
        // fig1: no conflicts -> r0 = {{A,B,C}}: 1 set; 3 marked places
        assert_eq!(s0.valid().count(), 1);
        assert_eq!(s0.footprint(), 3 + 1);
    }
}
