//! Construction of McMillan-style finite complete prefixes.
//!
//! Events are added in order of increasing local-configuration size (the
//! McMillan adequate order); an event `e` is a **cut-off** when some
//! earlier event — or the empty configuration — already reaches the same
//! marking with a strictly smaller local configuration. The resulting
//! prefix is *marking-complete*: every reachable marking of the net is the
//! marking of some configuration of the prefix.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::time::Instant;

use petri::{BitSet, Budget, CoverageStats, Marking, Outcome, PetriNet, TransitionId};

use crate::branching::{Condition, ConditionId, Event, EventId, Prefix};

/// Approximate bookkeeping bytes per prefix condition (record plus its
/// share of the by-place and consumer vectors).
const CONDITION_BYTES: usize = 48;
/// Approximate fixed bytes per event beyond its marking, local
/// configuration and pre/postset entries.
const EVENT_BYTES: usize = 96;
/// Approximate fixed bytes per cut stored by the marking walk (the vector
/// header plus its hash-set slot).
const CUT_OVERHEAD_BYTES: usize = 32;

/// A built finite complete prefix together with its net.
///
/// # Examples
///
/// ```
/// use petri::Budget;
/// use unfolding::Unfolding;
///
/// // three concurrent transitions: the prefix has 3 events where the
/// // reachability graph needs 2^3 = 8 states
/// let net = models::figures::fig1();
/// let unf = Unfolding::build(&net, &Budget::default()).into_value();
/// assert_eq!(unf.prefix().event_count(), 3);
/// assert_eq!(unf.prefix().cutoff_count(), 0);
/// ```
#[derive(Debug)]
pub struct Unfolding {
    prefix: Prefix,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Candidate {
    /// `|[e]|` if this event is added — the priority key.
    depth: usize,
    transition: TransitionId,
    /// Sorted preset conditions.
    preset: Vec<ConditionId>,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.depth, self.transition, &self.preset).cmp(&(
            other.depth,
            other.transition,
            &other.preset,
        ))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Builder<'n> {
    net: &'n PetriNet,
    conditions: Vec<Condition>,
    events: Vec<Event>,
    initial_cut: Vec<ConditionId>,
    /// conditions grouped by the place they instantiate
    by_place: Vec<Vec<ConditionId>>,
    queue: BinaryHeap<Reverse<Candidate>>,
    seen: HashSet<(TransitionId, Vec<ConditionId>)>,
    /// minimal local-configuration size seen per marking
    marks: HashMap<Marking, usize>,
}

impl<'n> Builder<'n> {
    fn new(net: &'n PetriNet) -> Self {
        let mut b = Builder {
            net,
            conditions: Vec::new(),
            events: Vec::new(),
            initial_cut: Vec::new(),
            by_place: vec![Vec::new(); net.place_count()],
            queue: BinaryHeap::new(),
            seen: HashSet::new(),
            marks: HashMap::new(),
        };
        for p in net.places() {
            if net.initial_marking().is_marked(p) {
                let id = b.add_condition(p, None);
                b.initial_cut.push(id);
            }
        }
        b.marks.insert(net.initial_marking().clone(), 0);
        let initial: Vec<ConditionId> = b.initial_cut.clone();
        for &c in &initial {
            b.enqueue_extensions_with(c);
        }
        b
    }

    fn add_condition(&mut self, place: petri::PlaceId, producer: Option<EventId>) -> ConditionId {
        let id = ConditionId(self.conditions.len() as u32);
        self.conditions.push(Condition {
            place,
            producer,
            consumers: Vec::new(),
        });
        self.by_place[place.index()].push(id);
        id
    }

    fn history_union(&self, conditions: &[ConditionId]) -> BitSet {
        let mut acc: Option<BitSet> = None;
        for &b in conditions {
            if let Some(e) = self.conditions[b.index()].producer {
                let h = &self.events[e.index()].local_config;
                acc = Some(match acc {
                    None => h.clone(),
                    Some(mut a) => {
                        if a.capacity() < h.capacity() {
                            let mut bigger = h.clone();
                            bigger.union_with(&Self::pad(&a, h.capacity()));
                            bigger
                        } else {
                            a.union_with(&Self::pad(h, a.capacity()));
                            a
                        }
                    }
                });
            }
        }
        acc.unwrap_or_else(|| BitSet::new(0))
    }

    /// Grows a bit set to a larger universe (event sets only ever grow).
    fn pad(s: &BitSet, capacity: usize) -> BitSet {
        if s.capacity() == capacity {
            return s.clone();
        }
        BitSet::from_iter_with_capacity(capacity, s.iter())
    }

    /// `true` if the union of the histories of `conditions` is a
    /// configuration (conflict-free) and no member is consumed inside
    /// another member's history — i.e. the conditions form a co-set.
    fn is_co_set(&self, conditions: &[ConditionId]) -> bool {
        let union = self.history_union(conditions);
        // conflict-freeness: no two events of the union share a precondition
        let members: Vec<usize> = union.iter().collect();
        for (i, &e) in members.iter().enumerate() {
            for &f in &members[i + 1..] {
                if self.direct_conflict(EventId(e as u32), EventId(f as u32)) {
                    return false;
                }
            }
        }
        // no condition consumed by an event of the union
        for &b in conditions {
            for &consumer in &self.conditions[b.index()].consumers {
                if union.contains(consumer.index()) {
                    return false;
                }
            }
        }
        true
    }

    fn direct_conflict(&self, e: EventId, f: EventId) -> bool {
        let pe = &self.events[e.index()].preset;
        let pf = &self.events[f.index()].preset;
        pe.iter().any(|b| pf.contains(b))
    }

    /// Enqueues every possible extension whose preset includes `b`.
    fn enqueue_extensions_with(&mut self, b: ConditionId) {
        let place = self.conditions[b.index()].place;
        for &t in self.net.post_transitions(place) {
            let pre = self.net.pre_places(t);
            // choose one condition per preset place, `b` fixed for `place`
            let mut slots: Vec<Vec<ConditionId>> = Vec::with_capacity(pre.len());
            for &p in pre {
                if p == place {
                    slots.push(vec![b]);
                } else {
                    slots.push(self.by_place[p.index()].clone());
                }
            }
            self.combine(t, &slots, &mut Vec::new(), 0);
        }
    }

    fn combine(
        &mut self,
        t: TransitionId,
        slots: &[Vec<ConditionId>],
        chosen: &mut Vec<ConditionId>,
        i: usize,
    ) {
        if i == slots.len() {
            let mut preset = chosen.clone();
            preset.sort();
            preset.dedup();
            if preset.len() != chosen.len() {
                return; // the same condition cannot fill two preset slots
            }
            if self.seen.contains(&(t, preset.clone())) {
                return;
            }
            if !self.is_co_set(&preset) {
                return;
            }
            let depth = self.history_union(&preset).len() + 1;
            self.seen.insert((t, preset.clone()));
            self.queue.push(Reverse(Candidate {
                depth,
                transition: t,
                preset,
            }));
            return;
        }
        for &c in &slots[i] {
            chosen.push(c);
            self.combine(t, slots, chosen, i + 1);
            chosen.pop();
        }
    }

    /// The marking reached by the configuration `config` (an event set).
    fn mark_of_config(&self, config: &BitSet) -> Marking {
        let mut cut: HashSet<ConditionId> = self.initial_cut.iter().copied().collect();
        for e in config.iter() {
            for &b in &self.events[e].postset {
                cut.insert(b);
            }
        }
        for e in config.iter() {
            for &b in &self.events[e].preset {
                cut.remove(&b);
            }
        }
        Marking::from_places(
            self.net.place_count(),
            cut.iter().map(|&b| self.conditions[b.index()].place),
        )
    }

    fn add_event(&mut self, cand: Candidate) -> EventId {
        let id = EventId(self.events.len() as u32);
        // local configuration = histories of the preset + the event itself
        let mut local = Self::pad(&self.history_union(&cand.preset), self.events.len() + 1);
        local.insert(id.index());
        let depth = local.len();
        debug_assert_eq!(depth, cand.depth);

        for &b in &cand.preset {
            self.conditions[b.index()].consumers.push(id);
        }
        let postset: Vec<ConditionId> = self
            .net
            .post_places(cand.transition)
            .to_vec()
            .into_iter()
            .map(|p| self.add_condition(p, Some(id)))
            .collect();

        self.events.push(Event {
            transition: cand.transition,
            preset: cand.preset,
            postset: postset.clone(),
            local_config: local.clone(),
            depth,
            mark: Marking::empty(0), // filled below
            cutoff: false,
        });
        let mark = self.mark_of_config(&local);

        // McMillan cut-off: some strictly smaller configuration (possibly
        // the empty one) already reaches this marking
        let cutoff = match self.marks.get(&mark) {
            Some(&d) => d < depth,
            None => false,
        };
        self.marks.entry(mark.clone()).or_insert(depth);
        let ev = &mut self.events[id.index()];
        ev.mark = mark;
        ev.cutoff = cutoff;

        if !cutoff {
            for b in postset {
                self.enqueue_extensions_with(b);
            }
        }
        id
    }
}

impl Unfolding {
    /// Builds the finite complete prefix under a cooperative resource
    /// [`Budget`], whose state axis counts *events*.
    ///
    /// On exhaustion the prefix built so far is returned as
    /// [`Outcome::Partial`]. A partial prefix is a genuine prefix of the
    /// unfolding — every marking of one of its configurations is
    /// reachable, so a goal marking found on it is real — but it is not
    /// marking-complete, so the absence of one proves nothing.
    pub fn build(net: &PetriNet, budget: &Budget) -> Outcome<Self> {
        let start = Instant::now();
        let mut b = Builder::new(net);
        let mut bytes = b.conditions.len() * CONDITION_BYTES;
        let mut exhausted = None;
        while let Some(Reverse(cand)) = b.queue.pop() {
            // `+ 1` asks "may one more event be added?", so the prefix
            // never exceeds the cap — matching the legacy event limit
            if let Some(reason) = budget.exceeded(b.events.len() + 1, bytes) {
                b.queue.push(Reverse(cand));
                exhausted = Some(reason);
                break;
            }
            b.add_event(cand);
            let ev = b.events.last().expect("just added");
            bytes += EVENT_BYTES
                + ev.mark.approx_bytes()
                + ev.local_config.capacity().div_ceil(64) * 8
                + (ev.preset.len() + ev.postset.len()) * 4
                + ev.postset.len() * CONDITION_BYTES;
        }
        let elapsed = start.elapsed();
        let events = b.events.len();
        let pending = b.queue.len();
        let unf = Unfolding {
            prefix: Prefix {
                conditions: b.conditions,
                events: b.events,
                initial_cut: b.initial_cut,
            },
        };
        match exhausted {
            None => Outcome::Complete(unf),
            Some(reason) => Outcome::Partial {
                result: unf,
                // re-classify at the stop: a cancel raised while the
                // reason was latched must win deterministically
                reason: budget.stop_reason(reason),
                coverage: CoverageStats {
                    states_stored: events,
                    states_expanded: events,
                    frontier_len: pending,
                    bytes_estimate: bytes,
                    elapsed,
                },
            },
        }
    }

    /// The built prefix.
    pub fn prefix(&self) -> &Prefix {
        &self.prefix
    }

    /// Enumerates every reachable marking of the original net by breadth-
    /// first search over the cuts of the prefix — the marking-completeness
    /// theorem makes this exhaustive on a complete prefix. Used as the
    /// correctness bridge in tests and for the verdicts below.
    ///
    /// The walk stores no states or bytes of its own account, so it polls
    /// only the deadline and the cancellation flag of `budget`, once per
    /// cut. A stopped walk returns the markings found so far as
    /// [`Outcome::Partial`]; its coverage counts cuts.
    pub fn reachable_markings(&self, net: &PetriNet, budget: &Budget) -> Outcome<HashSet<Marking>> {
        let start = Instant::now();
        let p = &self.prefix;
        let initial: Vec<ConditionId> = {
            let mut v = p.initial_cut.clone();
            v.sort();
            v
        };
        let mut seen_cuts: HashSet<Vec<ConditionId>> = HashSet::new();
        let mut marks: HashSet<Marking> = HashSet::new();
        let mut queue = VecDeque::new();
        seen_cuts.insert(initial.clone());
        marks.insert(p.marking_of_cut(&initial, net));
        queue.push_back(initial);
        while let Some(cut) = queue.pop_front() {
            // zero states and bytes: only the deadline and cancel can trip
            if let Some(reason) = budget.exceeded(0, 0) {
                queue.push_front(cut);
                let bytes = seen_cuts
                    .iter()
                    .map(|c| std::mem::size_of_val(c.as_slice()) + CUT_OVERHEAD_BYTES)
                    .chain(marks.iter().map(Marking::approx_bytes))
                    .sum();
                return Outcome::Partial {
                    result: marks,
                    reason: budget.stop_reason(reason),
                    coverage: CoverageStats {
                        states_stored: seen_cuts.len(),
                        states_expanded: seen_cuts.len() - queue.len(),
                        frontier_len: queue.len(),
                        bytes_estimate: bytes,
                        elapsed: start.elapsed(),
                    },
                };
            }
            for e in p.events() {
                let ev = &p.events[e.index()];
                if !ev.preset.iter().all(|b| cut.binary_search(b).is_ok()) {
                    continue;
                }
                let mut next: Vec<ConditionId> = cut
                    .iter()
                    .copied()
                    .filter(|b| !ev.preset.contains(b))
                    .chain(ev.postset.iter().copied())
                    .collect();
                next.sort();
                if seen_cuts.insert(next.clone()) {
                    marks.insert(p.marking_of_cut(&next, net));
                    queue.push_back(next);
                }
            }
        }
        Outcome::Complete(marks)
    }

    /// Deadlock verdict via the prefix: some reachable marking enables no
    /// transition. A dead marking found by a stopped walk is still real.
    pub fn has_deadlock(&self, net: &PetriNet, budget: &Budget) -> Outcome<bool> {
        self.reachable_markings(net, budget)
            .map(|marks| marks.iter().any(|m| net.is_dead(m)))
    }

    /// The smallest reachable marking (by [`Marking`]'s order) satisfying
    /// the **goal predicate** of `property` (φ under `EF`, ¬φ under `AG`),
    /// or `None` if the walk reaches no goal marking. On a complete prefix
    /// and walk `None` settles the property; otherwise a found marking is
    /// still genuinely reachable, so the witness is real.
    pub fn goal_marking(
        &self,
        net: &PetriNet,
        property: &petri::CompiledProperty,
        budget: &Budget,
    ) -> Outcome<Option<Marking>> {
        self.reachable_markings(net, budget)
            .map(|marks| marks.into_iter().filter(|m| property.goal(net, m)).min())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use petri::NetBuilder;

    #[test]
    fn fig1_prefix_is_the_net_itself() {
        let net = models::figures::fig1();
        let unf = Unfolding::build(&net, &Budget::default()).into_value();
        assert_eq!(unf.prefix().event_count(), 3);
        assert_eq!(unf.prefix().condition_count(), 6);
        assert_eq!(unf.prefix().cutoff_count(), 0);
        // vs 8 states of the reachability graph — the concurrency win
        assert_eq!(explore_full(&net).unwrap().state_count(), 8);
    }

    #[test]
    fn fig2_prefix_is_linear_in_n() {
        for n in 1..=6 {
            let net = models::figures::fig2(n);
            let unf = Unfolding::build(&net, &Budget::default()).into_value();
            assert_eq!(unf.prefix().event_count(), 2 * n, "n={n}");
            assert_eq!(unf.prefix().condition_count(), 3 * n, "n={n}");
            // vs 3^n reachable markings
        }
    }

    #[test]
    fn cycle_terminates_with_one_cutoff() {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let net = b.build().unwrap();
        let unf = Unfolding::build(&net, &Budget::default()).into_value();
        assert_eq!(unf.prefix().event_count(), 2);
        assert_eq!(unf.prefix().cutoff_count(), 1, "back reaches m0 again");
    }

    #[test]
    fn choice_between_branches_unfolds_both() {
        let mut b = NetBuilder::new("choice");
        let p = b.place_marked("p");
        let x = b.place("x");
        let y = b.place("y");
        b.transition("a", [p], [x]);
        b.transition("b", [p], [y]);
        let net = b.build().unwrap();
        let unf = Unfolding::build(&net, &Budget::default()).into_value();
        assert_eq!(unf.prefix().event_count(), 2, "both branches present");
        let marks = unf
            .reachable_markings(&net, &Budget::default())
            .into_value();
        assert_eq!(marks.len(), 3);
    }

    #[test]
    fn synchronization_needs_co_set() {
        // t needs both p and q: only one instance of t despite two paths
        let mut b = NetBuilder::new("sync");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let r = b.place("r");
        b.transition("t", [p, q], [r]);
        let net = b.build().unwrap();
        let unf = Unfolding::build(&net, &Budget::default()).into_value();
        assert_eq!(unf.prefix().event_count(), 1);
    }

    #[test]
    fn conflicting_histories_are_not_co() {
        // a|b choice, then join c needs outputs of both a and b: impossible
        let mut b = NetBuilder::new("xor-join");
        let p = b.place_marked("p");
        let x = b.place("x");
        let y = b.place("y");
        let z = b.place("z");
        b.transition("a", [p], [x]);
        b.transition("b", [p], [y]);
        b.transition("c", [x, y], [z]);
        let net = b.build().unwrap();
        let unf = Unfolding::build(&net, &Budget::default()).into_value();
        // c never fires: x and y come from conflicting branches
        assert_eq!(unf.prefix().event_count(), 2);
        let rg = explore_full(&net).unwrap();
        assert_eq!(
            unf.reachable_markings(&net, &Budget::default())
                .into_value()
                .len(),
            rg.state_count()
        );
    }

    #[test]
    fn bounded_build_returns_partial_prefix() {
        use petri::ExhaustionReason;
        let net = models::nsdp(2);
        let outcome = Unfolding::build(&net, &Budget::default().cap_states(3));
        let Outcome::Partial {
            result,
            reason,
            coverage,
        } = outcome
        else {
            panic!("expected a partial outcome");
        };
        assert_eq!(reason, ExhaustionReason::States);
        assert_eq!(result.prefix().event_count(), 3, "cap never exceeded");
        assert_eq!(coverage.states_stored, 3);
        assert!(coverage.frontier_len > 0, "candidates were left queued");
        // markings of the partial prefix are genuinely reachable
        let rg = explore_full(&net).unwrap();
        for m in result
            .reachable_markings(&net, &Budget::default())
            .into_value()
        {
            assert!(rg.contains(&m));
        }
    }

    #[test]
    fn event_limit_enforced() {
        use petri::ExhaustionReason;
        let net = models::nsdp(2);
        let run = |cap| Unfolding::build(&net, &Budget::default().cap_states(cap));
        let total = run(usize::MAX).into_value().prefix().event_count();
        assert!(total > 3);
        assert_eq!(run(3).reason(), Some(ExhaustionReason::States));
        // the cap counts events and is inclusive
        assert_eq!(run(total - 1).reason(), Some(ExhaustionReason::States));
        let at_cap = run(total);
        assert_eq!(at_cap.reason(), None);
        assert_eq!(at_cap.into_value().prefix().event_count(), total);
    }

    #[test]
    fn cancelled_walk_of_a_complete_prefix_is_partial() {
        use petri::ExhaustionReason;
        let net = models::nsdp(3);
        let unf = Unfolding::build(&net, &Budget::default());
        assert!(unf.is_complete());
        let unf = unf.into_value();
        let budget = Budget::default();
        budget.cancel();
        let walk = unf.reachable_markings(&net, &budget);
        assert_eq!(walk.reason(), Some(ExhaustionReason::Cancelled));
        let coverage = walk.coverage().expect("partial walk");
        assert!(coverage.frontier_len > 0, "cuts were left unwalked");
        assert_eq!(
            coverage.states_expanded + coverage.frontier_len,
            coverage.states_stored
        );
        // what the stopped walk found is genuinely reachable
        let rg = explore_full(&net).unwrap();
        for m in walk.value() {
            assert!(rg.contains(m));
        }
        // and neither verdict is claimed from it
        assert!(!unf.has_deadlock(&net, &budget).is_complete());
        let deadlock = petri::Property::deadlock().compile(&net).unwrap();
        assert!(!unf.goal_marking(&net, &deadlock, &budget).is_complete());
    }

    #[test]
    fn marking_completeness_on_benchmarks() {
        for net in [
            models::figures::fig7(),
            models::overtake(2),
            models::readers_writers(3),
            models::nsdp(2),
        ] {
            let unf = Unfolding::build(&net, &Budget::default()).into_value();
            let rg = explore_full(&net).unwrap();
            let marks = unf
                .reachable_markings(&net, &Budget::default())
                .into_value();
            assert_eq!(marks.len(), rg.state_count(), "{}", net.name());
            for s in rg.states() {
                assert!(marks.contains(rg.marking(s)), "{}", net.name());
            }
            assert_eq!(
                unf.has_deadlock(&net, &Budget::default()).into_value(),
                rg.has_deadlock(),
                "{}",
                net.name()
            );
        }
    }

    #[test]
    fn goal_marking_agrees_with_explicit_search() {
        use petri::Property;
        let net = models::readers_writers(3);
        let unf = Unfolding::build(&net, &Budget::default()).into_value();
        let rg = explore_full(&net).unwrap();
        for text in ["EF deadlock", "EF m(writing0) >= 1", "AG m(writing0) = 0"] {
            let compiled = Property::parse(text).unwrap().compile(&net).unwrap();
            let expected = rg
                .states()
                .map(|s| rg.marking(s))
                .filter(|m| compiled.goal(&net, m))
                .min()
                .cloned();
            assert_eq!(
                unf.goal_marking(&net, &compiled, &Budget::default())
                    .into_value(),
                expected,
                "{text}"
            );
        }
    }

    #[test]
    fn dot_export_is_well_formed() {
        let net = models::figures::fig2(2);
        let unf = Unfolding::build(&net, &Budget::default()).into_value();
        let dot = unf.prefix().to_dot(&net);
        assert!(dot.starts_with("digraph prefix"));
        assert!(dot.contains("shape=circle"));
        assert!(dot.contains("shape=box"));
        assert!(dot.ends_with("}\n"));
    }
}
