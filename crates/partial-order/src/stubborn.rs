//! Stubborn-set computation (Valmari [14], Godefroid–Wolper [9]).
//!
//! A *stubborn set* at a marking `m` is a set of transitions `S` such that
//! exploring only the enabled members of `S` from `m` preserves every
//! reachable deadlock. The classical closure conditions for deadlock
//! preservation are:
//!
//! * **D2** — for every *enabled* `t ∈ S`, all transitions that can disable
//!   `t` (i.e. that conflict with it) are in `S`;
//! * **D1** — for every *disabled* `t ∈ S`, there is an empty input place
//!   `p ∈ •t` with `m(p) = 0` whose producers `•p` are all in `S`.
//!
//! Starting from a non-empty seed containing an enabled transition, the
//! closure below enforces both conditions. The paper's §2.3 *anticipation*
//! method corresponds to seeding the closure with a whole enabled conflict
//! cluster (a maximal conflicting set) instead of a single transition.
//!
//! ## Visibility: preserving properties beyond deadlock
//!
//! Deadlock preservation is not enough when the search answers a general
//! reachability query (`EF φ`): a stubborn set could postpone exactly the
//! transition whose firing makes `φ` true. [`StubbornSets::with_visible`]
//! fixes this by seeding every closure with the property's *visible*
//! transitions — all transitions whose firing can change some atom of `φ`,
//! enabled or not. Enabled visible transitions are then explored at every
//! state (D2 adds their competitors), and *disabled* visible transitions
//! pull in their enablers through D1, so no path to a `φ`-state can be
//! pruned. See DESIGN.md "Property-preserving stubborn sets" for the
//! induction argument.

use petri::checkpoint::ByteWriter;
use petri::{BitSet, ConflictInfo, FiringRule, Marking, PetriNet, TransitionId};

use crate::dependency::Dependencies;

/// How the stubborn-set closure is seeded at each explored marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedStrategy {
    /// Seed with the first enabled transition (cheapest, weakest reduction).
    FirstEnabled,
    /// Try every enabled transition as seed and keep the closure with the
    /// fewest enabled members (strongest reduction, costs one closure per
    /// enabled transition).
    #[default]
    BestOfEnabled,
    /// The paper's anticipation rule: seed with all enabled members of one
    /// conflict cluster (maximal conflicting set), trying each cluster and
    /// keeping the smallest result.
    ConflictCluster,
}

/// Reusable stubborn-set computer for one net.
///
/// # Examples
///
/// ```
/// use partial_order::{SeedStrategy, StubbornSets};
/// use petri::NetBuilder;
///
/// let mut b = NetBuilder::new("n");
/// // two independent strands: a stubborn set needs only one of them
/// for i in 0..2 {
///     let p = b.place_marked(format!("p{i}"));
///     let q = b.place(format!("q{i}"));
///     b.transition(format!("t{i}"), [p], [q]);
/// }
/// let net = b.build()?;
/// let stub = StubbornSets::new(&net, SeedStrategy::BestOfEnabled);
/// let fire = stub.enabled_stubborn(net.initial_marking());
/// assert_eq!(fire.len(), 1, "only one strand explored");
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug)]
pub struct StubbornSets<'net> {
    net: &'net PetriNet,
    deps: Dependencies,
    conflicts: ConflictInfo,
    strategy: SeedStrategy,
    /// Transitions seeded into every closure (empty for plain deadlock
    /// preservation).
    visible: Vec<TransitionId>,
}

impl<'net> StubbornSets<'net> {
    /// Prepares the dependency tables for `net` under the given strategy.
    pub fn new(net: &'net PetriNet, strategy: SeedStrategy) -> Self {
        StubbornSets {
            net,
            deps: Dependencies::new(net),
            conflicts: ConflictInfo::new(net),
            strategy,
            visible: Vec::new(),
        }
    }

    /// Makes every closure start from `visible` (plus its per-strategy
    /// seed), turning deadlock-preserving stubborn sets into
    /// property-preserving ones: a transition that can change an observed
    /// atom is never postponed. Pass the set computed by
    /// `CompiledProperty::visible_transitions`.
    pub fn with_visible(mut self, visible: Vec<TransitionId>) -> Self {
        self.visible = visible;
        self
    }

    /// The seed strategy in use.
    pub fn strategy(&self) -> SeedStrategy {
        self.strategy
    }

    /// The visible-transition seed ([`StubbornSets::with_visible`]).
    pub fn visible(&self) -> &[TransitionId] {
        &self.visible
    }

    /// The enabled transitions of a stubborn set at `m` — the transitions a
    /// reduced search must fire from `m`. Empty iff `m` is dead.
    pub fn enabled_stubborn(&self, m: &Marking) -> Vec<TransitionId> {
        let enabled = self.net.enabled_transitions(m);
        if enabled.is_empty() {
            return Vec::new();
        }
        // every closure is additionally seeded with the visible
        // transitions, so an observable firing is never postponed
        let seeded = |seed: Vec<TransitionId>| seed.into_iter().chain(self.visible.iter().copied());
        match self.strategy {
            SeedStrategy::FirstEnabled => {
                self.enabled_members(&self.closure(seeded(vec![enabled[0]]), m), &enabled)
            }
            SeedStrategy::BestOfEnabled => {
                let mut best: Option<Vec<TransitionId>> = None;
                for &t in &enabled {
                    let cand = self.enabled_members(&self.closure(seeded(vec![t]), m), &enabled);
                    if best.as_ref().is_none_or(|b| cand.len() < b.len()) {
                        let done = cand.len() == 1;
                        best = Some(cand);
                        if done {
                            break;
                        }
                    }
                }
                best.expect("at least one enabled transition")
            }
            SeedStrategy::ConflictCluster => {
                let mut best: Option<Vec<TransitionId>> = None;
                let mut tried = BitSet::new(self.net.transition_count());
                for &t in &enabled {
                    // cluster ids are < transition_count, so a transition-
                    // sized bit set can track visited clusters
                    let cid = self.conflicts.cluster_of(t);
                    if !tried.insert(cid) {
                        continue;
                    }
                    let seed: Vec<TransitionId> = self
                        .conflicts
                        .cluster(cid)
                        .iter()
                        .copied()
                        .filter(|&u| self.net.enabled(u, m))
                        .collect();
                    let cand = self.enabled_members(&self.closure(seeded(seed), m), &enabled);
                    if best.as_ref().is_none_or(|b| cand.len() < b.len()) {
                        best = Some(cand);
                    }
                }
                best.expect("at least one enabled transition")
            }
        }
    }

    /// Computes the D1/D2 closure of `seed` at marking `m`, returning the
    /// stubborn set as a bit set over transition indices.
    pub fn closure<I: IntoIterator<Item = TransitionId>>(&self, seed: I, m: &Marking) -> BitSet {
        let n = self.net.transition_count();
        let mut set = BitSet::new(n);
        let mut work: Vec<TransitionId> = Vec::new();
        for t in seed {
            if set.insert(t.index()) {
                work.push(t);
            }
        }
        while let Some(t) = work.pop() {
            if self.net.enabled(t, m) {
                // D2: include everything that competes for t's input tokens
                for u in self.deps.conflict_set(t).iter() {
                    if set.insert(u) {
                        work.push(TransitionId::new(u));
                    }
                }
            } else {
                // D1: pick one empty input place; include its producers.
                // Heuristic: the empty place with the fewest producers keeps
                // the closure small.
                let p = self
                    .net
                    .pre_places(t)
                    .iter()
                    .filter(|&&p| !m.is_marked(p))
                    .min_by_key(|&&p| self.net.pre_transitions(p).len());
                if let Some(&p) = p {
                    for &u in self.net.pre_transitions(p) {
                        if set.insert(u.index()) {
                            work.push(u);
                        }
                    }
                }
                // a disabled transition with no empty input place cannot
                // occur (it would be enabled); a disabled transition whose
                // empty place has no producers can never fire and needs no
                // successors in the set.
            }
        }
        set
    }

    fn enabled_members(&self, set: &BitSet, enabled: &[TransitionId]) -> Vec<TransitionId> {
        enabled
            .iter()
            .copied()
            .filter(|t| set.contains(t.index()))
            .collect()
    }
}

/// The stubborn-set selection is the rule of the reduced exploration
/// (`crate::explore`).
impl FiringRule for StubbornSets<'_> {
    fn fire_from(&self, m: &Marking) -> Vec<TransitionId> {
        self.enabled_stubborn(m)
    }

    /// The strategy's tag, then, for a property run, the visible set: its
    /// length and transition ids.
    fn identity(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(match self.strategy {
            SeedStrategy::FirstEnabled => 0,
            SeedStrategy::BestOfEnabled => 1,
            SeedStrategy::ConflictCluster => 2,
        });
        if !self.visible.is_empty() {
            w.usize(self.visible.len());
            for &t in &self.visible {
                w.u32(t.index() as u32);
            }
        }
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petri::NetBuilder;

    /// N independent strands.
    fn strands(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("strands");
        for i in 0..n {
            let p = b.place_marked(format!("p{i}"));
            let q = b.place(format!("q{i}"));
            b.transition(format!("t{i}"), [p], [q]);
        }
        b.build().unwrap()
    }

    #[test]
    fn independent_strands_reduce_to_one() {
        let net = strands(4);
        for strategy in [
            SeedStrategy::FirstEnabled,
            SeedStrategy::BestOfEnabled,
            SeedStrategy::ConflictCluster,
        ] {
            let stub = StubbornSets::new(&net, strategy);
            assert_eq!(
                stub.enabled_stubborn(net.initial_marking()).len(),
                1,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn conflicting_pair_stays_together() {
        let mut b = NetBuilder::new("pair");
        let p = b.place_marked("p");
        let a = b.transition("a", [p], []);
        let c = b.transition("c", [p], []);
        let net = b.build().unwrap();
        let stub = StubbornSets::new(&net, SeedStrategy::BestOfEnabled);
        let fire = stub.enabled_stubborn(net.initial_marking());
        assert_eq!(fire, vec![a, c], "both branches of the choice kept");
    }

    #[test]
    fn dead_marking_gives_empty_set() {
        let mut b = NetBuilder::new("dead");
        let p = b.place("p");
        b.transition("t", [p], []);
        let net = b.build().unwrap();
        let stub = StubbornSets::new(&net, SeedStrategy::BestOfEnabled);
        assert!(stub.enabled_stubborn(net.initial_marking()).is_empty());
    }

    #[test]
    fn disabled_transition_pulls_in_producers() {
        // t needs q which only a produces; seeding with t must include a.
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let a = b.transition("a", [p], [q]);
        let t = b.transition("t", [q], []);
        let net = b.build().unwrap();
        let stub = StubbornSets::new(&net, SeedStrategy::FirstEnabled);
        let set = stub.closure([t], net.initial_marking());
        assert!(set.contains(a.index()), "producer of empty place included");
        assert!(set.contains(t.index()));
    }

    #[test]
    fn closure_is_idempotent() {
        let net = strands(3);
        let stub = StubbornSets::new(&net, SeedStrategy::FirstEnabled);
        let m = net.initial_marking();
        let first = stub.closure([TransitionId::new(0)], m);
        let again = stub.closure(first.iter().map(TransitionId::new), m);
        assert_eq!(first, again);
    }

    #[test]
    fn cluster_strategy_fires_whole_cluster() {
        // two clusters; anticipation fires one complete cluster
        let mut b = NetBuilder::new("two-choices");
        for i in 0..2 {
            let p = b.place_marked(format!("p{i}"));
            b.transition(format!("a{i}"), [p], []);
            b.transition(format!("b{i}"), [p], []);
        }
        let net = b.build().unwrap();
        let stub = StubbornSets::new(&net, SeedStrategy::ConflictCluster);
        let fire = stub.enabled_stubborn(net.initial_marking());
        assert_eq!(fire.len(), 2, "one full cluster, not both");
        let info = ConflictInfo::new(&net);
        assert_eq!(info.cluster_of(fire[0]), info.cluster_of(fire[1]));
    }
}
