//! Symbolic reachability analysis of safe Petri nets (the SMV stand-in).
//!
//! Each place gets a current-state variable and a next-state variable.
//! The places are ranked once, from the net's structure: a place's rank is
//! its first appearance over each transition's pre- then post-places, in
//! transition order, and places on no arc come last, by index. So the
//! places one transition touches sit close together in the order. The
//! default order interleaves the two copies by rank (`x_p ↦ 2·rank(p)`,
//! `x'_p ↦ 2·rank(p)+1`), the standard encoding that keeps the transition
//! relation small.
//!
//! The transition relation is kept *partitioned*: one BDD per Petri net
//! transition t, over its own places `supp_t = pre(t) ∪ post(t)` only
//! (Burch, Clarke and Long, VLSI 1991). An image is `∃supp_t. (S ∧ R_t)`,
//! one relational product, renamed from next to current on `supp_t`; the
//! places t does not touch pass through unquantified. Each breadth-first
//! iteration unites the images of every transition.
//!
//! The paper's Table 1 reports **peak BDD size** for SMV; we report the
//! high-water mark of live nodes (reached set + frontier + relation
//! partitions) across iterations, plus total allocation.

use std::time::{Duration, Instant};

use petri::property::{CompiledAtom, CompiledFormula, CompiledProperty};
use petri::{Budget, CoverageStats, ExhaustionReason, Marking, Outcome, PetriNet, PlaceId};

use crate::bdd::{Bdd, BddRef, Renaming, BDD_FALSE, BDD_TRUE};

/// Approximate bytes per allocated BDD node (node record plus its share of
/// the unique-table and cache entries) — the unit of budget byte accounting.
pub const BDD_NODE_BYTES: usize = 32;

/// How place indices map to BDD variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariableOrder {
    /// Current and next variables interleaved per place, in the structural
    /// rank (`x_p = 2·rank(p)`, `x'_p = 2·rank(p)+1`) — the standard,
    /// usually good order.
    #[default]
    Interleaved,
    /// All current variables first, then all next variables, each in the
    /// structural rank — a known-bad order kept for the ablation benchmark.
    CurrentThenNext,
}

/// Options for [`SymbolicReachability::explore`].
#[derive(Debug, Clone, Default)]
pub struct SymbolicOptions {
    /// Variable ordering scheme.
    pub order: VariableOrder,
}

/// Result of a symbolic (BDD-based) reachability analysis.
///
/// # Examples
///
/// ```
/// use petri::{Budget, Property};
/// use symbolic::SymbolicReachability;
///
/// let net = models::figures::fig2(4);
/// let deadlock = Property::deadlock().compile(&net)?;
/// let sym = SymbolicReachability::explore(&net, &Default::default(), &Budget::default(), &deadlock)
///     .into_value();
/// assert_eq!(sym.state_count(), 81.0); // 3^4 states
/// assert!(sym.has_deadlock());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct SymbolicReachability {
    state_count: f64,
    has_deadlock: bool,
    deadlock_count: f64,
    deadlock_witness: Option<Marking>,
    peak_live_nodes: usize,
    allocated_nodes: usize,
    iterations: usize,
    elapsed: Duration,
}

struct Encoding {
    bdd: Bdd,
    /// current-state variable per place
    cur: Vec<usize>,
    /// next-state variable per place
    nxt: Vec<usize>,
}

/// One transition's part of the partitioned transition relation.
struct Part {
    /// `R_t`, over the current and next variables of `supp_t` only
    relation: BddRef,
    /// the cube of `supp_t`'s current variables, which an image quantifies
    support: BddRef,
    /// next → current on `supp_t`
    back: Renaming,
}

/// The structural rank of each place: its first appearance over each
/// transition's pre- then post-places, in transition order. Places on no
/// arc come last, by index. The rank depends on the net alone.
fn place_ranks(net: &PetriNet) -> Vec<usize> {
    let mut rank = vec![usize::MAX; net.place_count()];
    let mut next = 0;
    let on_arcs = net
        .transitions()
        .flat_map(|t| net.pre_places(t).iter().chain(net.post_places(t)))
        .map(|p| p.index());
    for i in on_arcs.chain(0..net.place_count()) {
        if rank[i] == usize::MAX {
            rank[i] = next;
            next += 1;
        }
    }
    rank
}

impl Encoding {
    fn new(net: &PetriNet, order: VariableOrder) -> Self {
        let p = net.place_count();
        let rank = place_ranks(net);
        let (cur, nxt) = match order {
            VariableOrder::Interleaved => (
                rank.iter().map(|&r| 2 * r).collect(),
                rank.iter().map(|&r| 2 * r + 1).collect(),
            ),
            VariableOrder::CurrentThenNext => (rank.clone(), rank.iter().map(|&r| p + r).collect()),
        };
        Encoding {
            bdd: Bdd::new(2 * p),
            cur,
            nxt,
        }
    }

    fn marking_bdd(&mut self, m: &Marking, place_count: usize) -> BddRef {
        let mut f = BDD_TRUE;
        // conjoin from the highest variable down for linear-size build
        let mut lits: Vec<(usize, bool)> = (0..place_count)
            .map(|p| (self.cur[p], m.is_marked(PlaceId::new(p))))
            .collect();
        lits.sort_unstable_by_key(|&(v, _)| std::cmp::Reverse(v));
        for (v, positive) in lits {
            let lit = if positive {
                self.bdd.var(v)
            } else {
                self.bdd.nvar(v)
            };
            f = self.bdd.and(lit, f);
        }
        f
    }

    /// The part of the transition relation that belongs to `t`: on each
    /// place of `supp_t`, the current literal is positive iff the place is
    /// in the preset and the next literal iff it is in the postset. So a
    /// token stays, leaves, or arrives at an empty place (safeness); no
    /// other place is constrained.
    fn part(&mut self, net: &PetriNet, t: petri::TransitionId) -> Part {
        let pre = net.pre_place_set(t);
        let post = net.post_place_set(t);
        let mut places: Vec<usize> = net
            .pre_places(t)
            .iter()
            .chain(net.post_places(t))
            .map(|p| p.index())
            .collect();
        // conjoin from the deepest variable up: the relation builds
        // bottom-up, keeping intermediate BDDs small
        places.sort_unstable_by_key(|&i| std::cmp::Reverse(self.cur[i]));
        places.dedup();
        let mut relation = BDD_TRUE;
        let mut back = Vec::with_capacity(places.len());
        for &i in &places {
            let (xc, xn) = (self.cur[i], self.nxt[i]);
            let now = if pre.contains(i) {
                self.bdd.var(xc)
            } else {
                self.bdd.nvar(xc)
            };
            let then = if post.contains(i) {
                self.bdd.var(xn)
            } else {
                self.bdd.nvar(xn)
            };
            let lits = self.bdd.and(now, then);
            relation = self.bdd.and(lits, relation);
            back.push((xn, xc));
        }
        let current: Vec<usize> = places.iter().map(|&i| self.cur[i]).collect();
        Part {
            relation,
            support: self.bdd.cube(&current),
            back: self.bdd.renaming(&back),
        }
    }

    /// Extracts one satisfying assignment of `f` over the current-state
    /// variables and decodes it as a marking (unassigned variables default
    /// to "empty place").
    fn witness_marking(&mut self, f: BddRef, net: &PetriNet) -> Option<Marking> {
        let cube = self.bdd.some_cube(f)?;
        Some(Marking::from_places(
            net.place_count(),
            net.places()
                .filter(|p| cube.get(self.cur[p.index()]).copied().flatten() == Some(true)),
        ))
    }

    /// The successors of `from` under one transition: `∃supp_t. (from ∧
    /// R_t)`, renamed from next to current on `supp_t`.
    fn image(&mut self, part: &Part, from: BddRef) -> BddRef {
        let next_only = self.bdd.and_exists(from, part.relation, part.support);
        self.bdd.rename(next_only, part.back)
    }

    /// One breadth-first step: the union of every part's image of
    /// `frontier`. `stop` is polled before each image; once it names a
    /// reason, the step ends with the images united so far, each a set of
    /// real successors.
    fn step(
        &mut self,
        parts: &[Part],
        frontier: BddRef,
        mut stop: impl FnMut() -> Option<ExhaustionReason>,
    ) -> (BddRef, Option<ExhaustionReason>) {
        let mut next = BDD_FALSE;
        for part in parts {
            if let Some(reason) = stop() {
                return (next, Some(reason));
            }
            let img = self.image(part, frontier);
            next = self.bdd.or(next, img);
        }
        (next, None)
    }

    /// "`t` is enabled": the cube of its preset's current variables.
    fn enabled_bdd(&mut self, net: &PetriNet, t: petri::TransitionId) -> BddRef {
        let vars: Vec<usize> = net
            .pre_places(t)
            .iter()
            .map(|p| self.cur[p.index()])
            .collect();
        self.bdd.cube(&vars)
    }

    /// The markings of `within` that enable no transition: `within` minus
    /// each transition's enabling cube in turn.
    fn dead_within(&mut self, net: &PetriNet, within: BddRef) -> BddRef {
        net.transitions().fold(within, |dead, t| {
            let en = self.enabled_bdd(net, t);
            self.bdd.diff(dead, en)
        })
    }

    /// The markings of `within` that satisfy a compiled property formula.
    /// Each subformula is evaluated inside what its context leaves of
    /// `within`, so no intermediate BDD describes markings outside it: the
    /// reached set keeps the goal small even where the formula alone is
    /// large in the variable order ("no transition enabled" takes 2^n
    /// nodes on RW(n)). On a safe net every `m(p) <op> k` atom collapses
    /// to a constant or a (negated) place literal, since a place holds
    /// zero or one tokens.
    fn formula_within(&mut self, net: &PetriNet, f: &CompiledFormula, within: BddRef) -> BddRef {
        match f {
            CompiledFormula::Atom(CompiledAtom::Deadlock) => self.dead_within(net, within),
            CompiledFormula::Atom(CompiledAtom::Fireable(t)) => {
                let en = self.enabled_bdd(net, *t);
                self.bdd.and(within, en)
            }
            CompiledFormula::Atom(CompiledAtom::Count { place, op, k }) => {
                let holds = match (op.eval(0, *k), op.eval(1, *k)) {
                    (true, true) => BDD_TRUE,
                    (false, false) => BDD_FALSE,
                    (false, true) => self.bdd.var(self.cur[place.index()]),
                    (true, false) => self.bdd.nvar(self.cur[place.index()]),
                };
                self.bdd.and(within, holds)
            }
            CompiledFormula::Not(x) => {
                let inner = self.formula_within(net, x, within);
                self.bdd.diff(within, inner)
            }
            CompiledFormula::And(a, b) => {
                let fa = self.formula_within(net, a, within);
                self.formula_within(net, b, fa)
            }
            CompiledFormula::Or(a, b) => {
                let fa = self.formula_within(net, a, within);
                let fb = self.formula_within(net, b, within);
                self.bdd.or(fa, fb)
            }
        }
    }

    /// The markings of `within` that satisfy the **goal predicate** of
    /// `property` (φ under `EF`, ¬φ under `AG`).
    fn goal_within(
        &mut self,
        net: &PetriNet,
        property: &CompiledProperty,
        within: BddRef,
    ) -> BddRef {
        let phi = self.formula_within(net, &property.formula, within);
        match property.quantifier {
            petri::property::Quantifier::Ef => phi,
            petri::property::Quantifier::Ag => self.bdd.diff(within, phi),
        }
    }
}

/// Converts a satisfying-assignment count to a `usize` for budget
/// comparisons, saturating on counts past `usize::MAX`.
fn sat_count_usize(count: f64) -> usize {
    if count >= usize::MAX as f64 {
        usize::MAX
    } else {
        count as usize
    }
}

impl SymbolicReachability {
    /// Runs symbolic reachability under a cooperative resource [`Budget`],
    /// searching for markings satisfying the **goal predicate** of
    /// `property` (φ under `EF`, ¬φ under `AG`). The deadlock-named
    /// accessors ([`has_deadlock`](Self::has_deadlock),
    /// [`deadlock_count`](Self::deadlock_count),
    /// [`deadlock_witness`](Self::deadlock_witness)) describe goal markings;
    /// under the default property (`EF deadlock`) those are the dead ones.
    ///
    /// The state and byte axes of the budget are checked once per
    /// breadth-first iteration: the state axis compares the
    /// satisfying-assignment count of the reached set, the byte axis the
    /// number of allocated BDD nodes ([`BDD_NODE_BYTES`] each).
    /// Cancellation and the deadline are checked before every transition's
    /// image as well, so a run stops within one image of either. On
    /// exhaustion the fixpoint stops early and the result, a lower bound,
    /// is wrapped in [`Outcome::Partial`]; a stop in mid-iteration keeps
    /// the images already computed. Every state in a partial reached set is
    /// genuinely reachable, so a goal marking found there is a real one.
    ///
    /// Unlike the explicit engines this never errors — an unsafe net
    /// simply has its unsafe successors suppressed by the encoding (token
    /// production requires the target place to be empty), mirroring how a
    /// bounded model checker would encode a safe net.
    pub fn explore(
        net: &PetriNet,
        opts: &SymbolicOptions,
        budget: &Budget,
        property: &CompiledProperty,
    ) -> Outcome<Self> {
        let start = Instant::now();
        let mut enc = Encoding::new(net, opts.order);
        let p = net.place_count();

        let parts: Vec<Part> = net.transitions().map(|t| enc.part(net, t)).collect();
        let rel_nodes: usize = parts.iter().map(|part| enc.bdd.size(part.relation)).sum();

        let init = enc.marking_bdd(net.initial_marking(), p);
        let mut reached = init;
        let mut frontier = init;
        let mut peak = rel_nodes + enc.bdd.size(reached);
        let mut iterations = 0;
        let mut exhausted = None;

        while frontier != BDD_FALSE && exhausted.is_none() {
            let states_so_far = sat_count_usize(enc.bdd.sat_count_over(reached, p));
            exhausted = budget.exceeded(states_so_far, enc.bdd.allocated_nodes() * BDD_NODE_BYTES);
            if exhausted.is_some() {
                break;
            }
            iterations += 1;
            // zero states and bytes: between images only cancellation and
            // the deadline can stop the run
            let (next, stop) = enc.step(&parts, frontier, || budget.exceeded(0, 0));
            exhausted = stop;
            let new = enc.bdd.diff(next, reached);
            reached = enc.bdd.or(reached, new);
            // after a stop in mid-iteration the old frontier is only partly
            // expanded, so it stays on the frontier with the new states
            frontier = if exhausted.is_some() {
                enc.bdd.or(frontier, new)
            } else {
                new
            };
            peak = peak.max(rel_nodes + enc.bdd.size(reached) + enc.bdd.size(frontier));
        }

        // goal states: reached ∧ goal predicate (default: no transition
        // enabled, i.e. dead)
        let dead = enc.goal_within(net, property, reached);
        let deadlock_witness = enc.witness_marking(dead, net);

        let elapsed = start.elapsed();
        let result = SymbolicReachability {
            state_count: enc.bdd.sat_count_over(reached, p),
            has_deadlock: dead != BDD_FALSE,
            deadlock_count: enc.bdd.sat_count_over(dead, p),
            deadlock_witness,
            peak_live_nodes: peak,
            allocated_nodes: enc.bdd.allocated_nodes(),
            iterations,
            elapsed,
        };
        match exhausted {
            None => Outcome::Complete(result),
            Some(reason) => {
                let stored = sat_count_usize(result.state_count);
                let on_frontier = sat_count_usize(enc.bdd.sat_count_over(frontier, p));
                let coverage = CoverageStats {
                    states_stored: stored,
                    states_expanded: stored.saturating_sub(on_frontier),
                    frontier_len: on_frontier,
                    bytes_estimate: enc.bdd.allocated_nodes() * BDD_NODE_BYTES,
                    elapsed,
                };
                Outcome::Partial {
                    result,
                    // re-classify at the stop: a cancel raised while the
                    // reason was latched must win deterministically
                    reason: budget.stop_reason(reason),
                    coverage,
                }
            }
        }
    }

    /// Number of reachable states (exact while below 2⁵³).
    pub fn state_count(&self) -> f64 {
        self.state_count
    }

    /// `true` if a reachable marking enables no transition.
    pub fn has_deadlock(&self) -> bool {
        self.has_deadlock
    }

    /// Number of dead reachable markings.
    pub fn deadlock_count(&self) -> f64 {
        self.deadlock_count
    }

    /// High-water mark of live BDD nodes (relation partitions + reached +
    /// frontier) — the analogue of the paper's "Peak BDD-size" column.
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live_nodes
    }

    /// Total nodes allocated by the manager over the whole run.
    pub fn allocated_nodes(&self) -> usize {
        self.allocated_nodes
    }

    /// Number of breadth-first image iterations until the fixpoint.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// One dead reachable marking decoded from the symbolic deadlock set,
    /// if a deadlock exists.
    pub fn deadlock_witness(&self) -> Option<&Marking> {
        self.deadlock_witness.as_ref()
    }

    /// Wall-clock analysis time.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{deadlock_goal, explore_full, explore_symbolic, explore_symbolic_with};
    use petri::NetBuilder;

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
    fn counts_match_explicit_on_strands() {
        for n in 1..=5 {
            let net = strands(n);
            let sym = explore_symbolic(&net);
            let exp = explore_full(&net).unwrap();
            assert_eq!(sym.state_count(), exp.state_count() as f64, "n={n}");
            assert_eq!(sym.has_deadlock(), exp.has_deadlock());
        }
    }

    #[test]
    fn deadlock_count_matches_explicit() {
        let net = strands(3);
        let sym = explore_symbolic(&net);
        let exp = explore_full(&net).unwrap();
        assert_eq!(sym.deadlock_count(), exp.deadlocks().len() as f64);
    }

    #[test]
    fn cyclic_net_has_no_deadlock() {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let net = b.build().unwrap();
        let sym = explore_symbolic(&net);
        assert_eq!(sym.state_count(), 2.0);
        assert!(!sym.has_deadlock());
        assert!(sym.iterations() >= 2);
    }

    #[test]
    fn both_orders_agree_on_counts() {
        let net = strands(4);
        let a = explore_symbolic_with(
            &net,
            &SymbolicOptions {
                order: VariableOrder::Interleaved,
            },
        );
        let b = explore_symbolic_with(
            &net,
            &SymbolicOptions {
                order: VariableOrder::CurrentThenNext,
            },
        );
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.has_deadlock(), b.has_deadlock());
    }

    #[test]
    fn deadlock_witness_is_reachable_and_dead() {
        let net = strands(3);
        let sym = explore_symbolic(&net);
        let w = sym.deadlock_witness().expect("strands terminate");
        assert!(net.is_dead(w));
        let rg = explore_full(&net).unwrap();
        assert!(rg.contains(w));
        // deadlock-free nets have no witness
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let live = explore_symbolic(&b.build().unwrap());
        assert!(live.deadlock_witness().is_none());
    }

    #[test]
    fn bounded_fixpoint_returns_partial_lower_bound() {
        use petri::ExhaustionReason;
        let net = strands(6); // 2^6 = 64 states
        let outcome = SymbolicReachability::explore(
            &net,
            &SymbolicOptions::default(),
            &Budget::default().cap_states(4),
            &deadlock_goal(&net),
        );
        let Outcome::Partial {
            result,
            reason,
            coverage,
        } = outcome
        else {
            panic!("expected a partial outcome");
        };
        assert_eq!(reason, ExhaustionReason::States);
        assert!(result.state_count() < 64.0);
        assert_eq!(coverage.states_stored, result.state_count() as usize);
        assert!(coverage.bytes_estimate > 0);
    }

    #[test]
    fn cancelled_budget_stops_the_fixpoint() {
        use petri::ExhaustionReason;
        let budget = Budget::default();
        budget.cancel();
        let outcome = SymbolicReachability::explore(
            &strands(4),
            &SymbolicOptions::default(),
            &budget,
            &deadlock_goal(&strands(4)),
        );
        assert_eq!(outcome.reason(), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn a_stop_between_images_keeps_the_images_before_it() {
        // strands(4): each transition's image of m0 is one new marking
        let net = strands(4);
        let mut enc = Encoding::new(&net, VariableOrder::Interleaved);
        let parts: Vec<Part> = net.transitions().map(|t| enc.part(&net, t)).collect();
        let init = enc.marking_bdd(net.initial_marking(), net.place_count());
        for k in 0..=parts.len() {
            let mut polls = 0;
            let (next, stop) = enc.step(&parts, init, || {
                polls += 1;
                (polls > k).then_some(ExhaustionReason::Time)
            });
            // polled before every image, and stopped right at the (k+1)-th
            assert_eq!(polls, (k + 1).min(parts.len()), "k={k}");
            assert_eq!(stop.is_some(), k < parts.len(), "k={k}");
            let mut first_k = BDD_FALSE;
            for part in &parts[..k] {
                let img = enc.image(part, init);
                first_k = enc.bdd.or(first_k, img);
            }
            assert_eq!(next, first_k, "k={k}");
            assert_eq!(enc.bdd.sat_count_over(next, net.place_count()), k as f64);
        }
    }

    #[test]
    fn goal_search_matches_explicit_evaluation() {
        use petri::Property;
        let net = strands(3);
        let rg = explore_full(&net).unwrap();
        for text in [
            "EF m(q0) >= 1 and m(q1) >= 1",
            "AG m(q2) = 0",
            "EF fireable(t1)",
            "AG not (m(q0) >= 1 and m(q1) >= 1 and m(q2) >= 1)",
            "EF deadlock",
        ] {
            let compiled = Property::parse(text).unwrap().compile(&net).unwrap();
            let sym = SymbolicReachability::explore(
                &net,
                &SymbolicOptions::default(),
                &Budget::default(),
                &compiled,
            )
            .into_value();
            let expected: Vec<_> = rg
                .states()
                .filter(|&s| compiled.goal(&net, rg.marking(s)))
                .collect();
            assert_eq!(sym.has_deadlock(), !expected.is_empty(), "{text}");
            assert_eq!(sym.deadlock_count(), expected.len() as f64, "{text}");
            match sym.deadlock_witness() {
                Some(w) => {
                    assert!(compiled.goal(&net, w), "{text}");
                    assert!(rg.contains(w), "{text}");
                }
                None => assert!(expected.is_empty(), "{text}"),
            }
        }
    }

    #[test]
    fn default_goal_is_plain_deadlock_search() {
        // `EF deadlock` compiles to the very "no transition enabled" BDD
        let net = strands(4);
        let mut enc = Encoding::new(&net, VariableOrder::Interleaved);
        let goal = enc.goal_within(&net, &deadlock_goal(&net), BDD_TRUE);
        let mut no_enabled = BDD_TRUE;
        for t in net.transitions() {
            let en = enc.enabled_bdd(&net, t);
            let nen = enc.bdd.not(en);
            no_enabled = enc.bdd.and(no_enabled, nen);
        }
        assert_eq!(goal, no_enabled);
    }

    #[test]
    fn structural_rank_is_a_permutation_of_the_net_alone() {
        // first appearance over each transition's pre- then post-places,
        // in transition order; the place on no arc comes last
        let mut b = NetBuilder::new("ranked");
        let a = b.place_marked("a");
        let _idle = b.place("idle");
        let c = b.place("c");
        let d = b.place("d");
        b.transition("t1", [c], [a]);
        b.transition("t2", [d, a], [c]);
        let ranked = b.build().unwrap();
        assert_eq!(place_ranks(&ranked), vec![1, 3, 0, 2]);

        for net in [
            ranked,
            strands(5),
            models::nsdp(4),
            models::readers_writers(5),
            models::asat(4),
        ] {
            let p = net.place_count();
            let rank = place_ranks(&net);
            let mut sorted = rank.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..p).collect::<Vec<_>>(), "{}", net.name());
            // a copy of the net read back from its text ranks the same
            let copy = petri::parse_net(&petri::to_text(&net)).unwrap();
            assert_eq!(place_ranks(&copy), rank, "{}", net.name());
            // both orders lay their variables out by the one rank
            let inter = Encoding::new(&net, VariableOrder::Interleaved);
            let split = Encoding::new(&net, VariableOrder::CurrentThenNext);
            for (i, &r) in rank.iter().enumerate() {
                assert_eq!((inter.cur[i], inter.nxt[i]), (2 * r, 2 * r + 1));
                assert_eq!((split.cur[i], split.nxt[i]), (r, p + r));
            }
        }
    }

    #[test]
    fn peak_is_at_least_relation_size() {
        let net = strands(3);
        let sym = explore_symbolic(&net);
        assert!(sym.peak_live_nodes() > 0);
        assert!(sym.allocated_nodes() >= sym.peak_live_nodes() / 2);
    }
}
