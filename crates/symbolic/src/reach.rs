//! Symbolic reachability analysis of safe Petri nets (the SMV stand-in).
//!
//! Each place gets a current-state variable and a next-state variable,
//! interleaved in the order (`x_p ↦ 2p`, `x'_p ↦ 2p+1`) — the standard
//! encoding that keeps the transition relation small. The transition
//! relation is kept *partitioned* (one BDD per Petri net transition, each
//! with full frame conditions); images are computed per partition with
//! `and_exists` and united.
//!
//! The paper's Table 1 reports **peak BDD size** for SMV; we report the
//! high-water mark of live nodes (reached set + frontier + relation
//! partitions) across iterations, plus total allocation.

use std::time::{Duration, Instant};

use petri::property::{CompiledAtom, CompiledFormula, CompiledProperty};
use petri::{Budget, CoverageStats, Marking, Outcome, PetriNet, PlaceId};

use crate::bdd::{Bdd, BddRef, BDD_FALSE, BDD_TRUE};

/// Approximate bytes per allocated BDD node (node record plus its share of
/// the unique-table and cache entries) — the unit of budget byte accounting.
pub const BDD_NODE_BYTES: usize = 32;

/// How place indices map to BDD variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariableOrder {
    /// Current and next variables interleaved per place (`x_p = 2p`,
    /// `x'_p = 2p+1`) — the standard, usually good order.
    #[default]
    Interleaved,
    /// All current variables first, then all next variables — a known-bad
    /// order kept for the ablation benchmark.
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
    /// rename map next → current
    rename_map: Vec<usize>,
    /// sorted list of current variables (quantified in images)
    cur_sorted: Vec<usize>,
}

impl Encoding {
    fn new(net: &PetriNet, order: VariableOrder) -> Self {
        let p = net.place_count();
        let bdd = Bdd::new(2 * p);
        let (cur, nxt): (Vec<usize>, Vec<usize>) = match order {
            VariableOrder::Interleaved => (
                (0..p).map(|i| 2 * i).collect(),
                (0..p).map(|i| 2 * i + 1).collect(),
            ),
            VariableOrder::CurrentThenNext => ((0..p).collect(), (0..p).map(|i| p + i).collect()),
        };
        let mut rename_map = vec![0usize; 2 * p];
        for i in 0..p {
            rename_map[nxt[i]] = cur[i];
        }
        let mut cur_sorted = cur.clone();
        cur_sorted.sort_unstable();
        Encoding {
            bdd,
            cur,
            nxt,
            rename_map,
            cur_sorted,
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

    /// Transition relation of one Petri net transition, with frame
    /// conditions for untouched places.
    fn relation(&mut self, net: &PetriNet, t: petri::TransitionId) -> BddRef {
        let p = net.place_count();
        let pre = net.pre_place_set(t);
        let post = net.post_place_set(t);
        // conjoin per-place constraints from the highest place index down —
        // with the interleaved order this builds bottom-up, keeping
        // intermediate BDDs small
        let mut f = BDD_TRUE;
        for i in (0..p).rev() {
            let xc = self.bdd.var(self.cur[i]);
            let xn = self.bdd.var(self.nxt[i]);
            let in_pre = pre.contains(i);
            let in_post = post.contains(i);
            let g = match (in_pre, in_post) {
                (true, true) => self.bdd.and(xc, xn), // marked and stays marked
                (true, false) => {
                    let nn = self.bdd.not(xn);
                    self.bdd.and(xc, nn)
                }
                (false, true) => {
                    // safeness: the target place must be empty before
                    let nc = self.bdd.not(xc);
                    self.bdd.and(nc, xn)
                }
                (false, false) => self.bdd.iff(xc, xn),
            };
            f = self.bdd.and(g, f);
        }
        f
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

    fn image(&mut self, rel: BddRef, from: BddRef) -> BddRef {
        let cur_vars = self.cur_sorted.clone();
        let next_only = self.bdd.and_exists(rel, from, &cur_vars);
        self.bdd.rename(next_only, &self.rename_map)
    }

    /// Characteristic function of "no transition enabled" over the
    /// current-state variables.
    fn no_enabled_bdd(&mut self, net: &PetriNet) -> BddRef {
        let mut no_enabled = BDD_TRUE;
        for t in net.transitions() {
            let mut en = BDD_TRUE;
            for &pl in net.pre_places(t) {
                let v = self.bdd.var(self.cur[pl.index()]);
                en = self.bdd.and(en, v);
            }
            let nen = self.bdd.not(en);
            no_enabled = self.bdd.and(no_enabled, nen);
        }
        no_enabled
    }

    /// Characteristic function of a compiled property formula over the
    /// current-state variables. On a safe net every `m(p) <op> k` atom
    /// collapses to a constant or a (negated) place literal, since a
    /// place holds zero or one tokens.
    fn formula_bdd(&mut self, net: &PetriNet, f: &CompiledFormula) -> BddRef {
        match f {
            CompiledFormula::Atom(CompiledAtom::Deadlock) => self.no_enabled_bdd(net),
            CompiledFormula::Atom(CompiledAtom::Fireable(t)) => {
                let mut en = BDD_TRUE;
                for &pl in net.pre_places(*t) {
                    let v = self.bdd.var(self.cur[pl.index()]);
                    en = self.bdd.and(en, v);
                }
                en
            }
            CompiledFormula::Atom(CompiledAtom::Count { place, op, k }) => {
                match (op.eval(0, *k), op.eval(1, *k)) {
                    (true, true) => BDD_TRUE,
                    (false, false) => BDD_FALSE,
                    (false, true) => self.bdd.var(self.cur[place.index()]),
                    (true, false) => self.bdd.nvar(self.cur[place.index()]),
                }
            }
            CompiledFormula::Not(x) => {
                let g = self.formula_bdd(net, x);
                self.bdd.not(g)
            }
            CompiledFormula::And(a, b) => {
                let fa = self.formula_bdd(net, a);
                let fb = self.formula_bdd(net, b);
                self.bdd.and(fa, fb)
            }
            CompiledFormula::Or(a, b) => {
                let fa = self.formula_bdd(net, a);
                let fb = self.formula_bdd(net, b);
                self.bdd.or(fa, fb)
            }
        }
    }

    /// Characteristic function of the **goal predicate** of `property`
    /// (φ under `EF`, ¬φ under `AG`) over the current-state variables.
    fn goal_bdd(&mut self, net: &PetriNet, property: &CompiledProperty) -> BddRef {
        let phi = self.formula_bdd(net, &property.formula);
        match property.quantifier {
            petri::property::Quantifier::Ef => phi,
            petri::property::Quantifier::Ag => self.bdd.not(phi),
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
    /// Budget checks run once per breadth-first iteration: the state axis
    /// compares the satisfying-assignment count of the reached set, the
    /// byte axis the number of allocated BDD nodes ([`BDD_NODE_BYTES`]
    /// each). On exhaustion the fixpoint stops early and the result, a
    /// lower bound, is wrapped in [`Outcome::Partial`]. Every state in a
    /// partial reached set is genuinely reachable, so a goal marking found
    /// there is a real one.
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

        let relations: Vec<BddRef> = net.transitions().map(|t| enc.relation(net, t)).collect();
        let rel_nodes: usize = relations.iter().map(|&r| enc.bdd.size(r)).sum();

        let init = enc.marking_bdd(net.initial_marking(), p);
        let mut reached = init;
        let mut frontier = init;
        let mut peak = rel_nodes + enc.bdd.size(reached);
        let mut iterations = 0;
        let mut exhausted = None;

        while frontier != BDD_FALSE {
            let states_so_far = sat_count_usize(enc.bdd.sat_count_over(reached, p));
            if let Some(reason) =
                budget.exceeded(states_so_far, enc.bdd.allocated_nodes() * BDD_NODE_BYTES)
            {
                exhausted = Some(reason);
                break;
            }
            iterations += 1;
            let mut next = BDD_FALSE;
            for &r in &relations {
                let img = enc.image(r, frontier);
                next = enc.bdd.or(next, img);
            }
            frontier = enc.bdd.diff(next, reached);
            reached = enc.bdd.or(reached, frontier);
            peak = peak.max(rel_nodes + enc.bdd.size(reached) + enc.bdd.size(frontier));
        }

        // goal states: reached ∧ goal predicate (default: no transition
        // enabled, i.e. dead)
        let target = enc.goal_bdd(net, property);
        let dead = enc.bdd.and(reached, target);
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
        let goal = enc.goal_bdd(&net, &deadlock_goal(&net));
        assert_eq!(goal, enc.no_enabled_bdd(&net));
    }

    #[test]
    fn peak_is_at_least_relation_size() {
        let net = strands(3);
        let sym = explore_symbolic(&net);
        assert!(sym.peak_live_nodes() > 0);
        assert!(sym.allocated_nodes() >= sym.peak_live_nodes() / 2);
    }
}
