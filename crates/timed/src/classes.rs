//! The Berthomieu–Diaz state-class graph of a Time Petri net.
//!
//! A *state class* is a marking plus a firing domain (a [`Dbm`]) over the
//! remaining delays of the enabled transitions. Firing `t` is possible
//! when the domain stays consistent under `θ_t ≤ θ_j` for every enabled
//! `j` (strong semantics: nothing may overshoot its latest firing time);
//! the successor domain shifts every *persistent* transition's delay by
//! `−θ_t` and gives newly enabled transitions their static interval.
//!
//! With every interval `[0, ∞)` the class graph coincides with the
//! classical reachability graph; tighter intervals prune interleavings and
//! whole branches — the timing analyses of the paper's §5 outlook.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use petri::{Marking, TransitionId};

use crate::dbm::Dbm;
use crate::error::TimedError;
use crate::net::TimedNet;

/// One state class: a marking and the firing domain of its enabled
/// transitions (variable `i + 1` of the DBM is `enabled[i]`, sorted by
/// transition id so equal classes are structurally equal).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateClass {
    marking: Marking,
    enabled: Vec<TransitionId>,
    domain: Dbm,
}

impl StateClass {
    /// The marking of this class.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// The enabled transitions, sorted by id.
    pub fn enabled(&self) -> &[TransitionId] {
        &self.enabled
    }

    /// The firing domain.
    pub fn domain(&self) -> &Dbm {
        &self.domain
    }

    fn var_of(&self, t: TransitionId) -> Option<usize> {
        self.enabled.iter().position(|&u| u == t).map(|i| i + 1)
    }
}

/// Options for [`ClassGraph::explore`].
#[derive(Debug, Clone)]
pub struct ClassOptions {
    /// Abort with [`TimedError::ClassLimit`] once this many classes exist.
    pub max_classes: usize,
}

impl Default for ClassOptions {
    fn default() -> Self {
        ClassOptions {
            max_classes: 2_000_000,
        }
    }
}

/// The explored state-class graph.
///
/// # Examples
///
/// ```
/// use petri::NetBuilder;
/// use timed::{ClassGraph, Interval, TimedNet};
///
/// // two parallel actions; timing forces `fast` before `slow`
/// let mut b = NetBuilder::new("ordered");
/// let p = b.place_marked("p");
/// let q = b.place_marked("q");
/// let fast = b.transition("fast", [p], []);
/// let slow = b.transition("slow", [q], []);
/// let timed = TimedNet::new(b.build()?)
///     .with_interval(fast, Interval::new(0, 1))
///     .with_interval(slow, Interval::new(10, 20));
/// let graph = ClassGraph::explore(&timed, &Default::default())?;
/// assert_eq!(graph.class_count(), 3, "the slow-first interleaving is pruned");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClassGraph {
    classes: Vec<StateClass>,
    edges: Vec<(usize, TransitionId, usize)>,
    deadlocks: Vec<usize>,
}

impl ClassGraph {
    /// Explores the state-class graph.
    ///
    /// # Errors
    ///
    /// Returns [`TimedError::NotSafe`] if a firing violates safeness or
    /// [`TimedError::ClassLimit`] when the class budget is exceeded.
    pub fn explore(timed: &TimedNet, opts: &ClassOptions) -> Result<Self, TimedError> {
        let net = timed.net();
        let initial = initial_class(timed);
        let mut classes = vec![initial.clone()];
        let mut index: HashMap<StateClass, usize> = HashMap::new();
        index.insert(initial, 0);
        let mut edges = Vec::new();
        let mut deadlocks = Vec::new();

        let mut frontier = 0;
        while frontier < classes.len() {
            let class = classes[frontier].clone();
            let mut any = false;
            for &t in class.enabled().iter() {
                let Some(next) = successor(timed, &class, t)? else {
                    continue;
                };
                any = true;
                let nid = match index.entry(next) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        classes.push(e.key().clone());
                        let id = classes.len() - 1;
                        e.insert(id);
                        if classes.len() > opts.max_classes {
                            return Err(TimedError::ClassLimit(opts.max_classes));
                        }
                        id
                    }
                };
                edges.push((frontier, t, nid));
            }
            if !any {
                deadlocks.push(frontier);
            }
            frontier += 1;
        }
        let _ = net;
        Ok(ClassGraph {
            classes,
            edges,
            deadlocks,
        })
    }

    /// Number of state classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of firing edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The classes themselves.
    pub fn classes(&self) -> &[StateClass] {
        &self.classes
    }

    /// The labelled edges `(from, transition, to)` by class index.
    pub fn edges(&self) -> &[(usize, TransitionId, usize)] {
        &self.edges
    }

    /// Classes from which nothing can fire.
    pub fn deadlocks(&self) -> &[usize] {
        &self.deadlocks
    }

    /// `true` if some reachable class is dead.
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }

    /// The distinct reachable markings (projecting domains away).
    pub fn reachable_markings(&self) -> Vec<Marking> {
        let mut out: Vec<Marking> = self.classes.iter().map(|c| c.marking.clone()).collect();
        out.sort();
        out.dedup();
        out
    }
}

fn initial_class(timed: &TimedNet) -> StateClass {
    let net = timed.net();
    let m0 = net.initial_marking().clone();
    let mut enabled = net.enabled_transitions(&m0);
    enabled.sort();
    let bounds: Vec<(i64, i64)> = enabled
        .iter()
        .map(|&t| {
            let iv = timed.interval(t);
            (iv.eft, iv.lft)
        })
        .collect();
    let mut domain = Dbm::unconstrained(1).extend(&bounds);
    let consistent = domain.close();
    debug_assert!(consistent, "static intervals are non-empty");
    StateClass {
        marking: m0,
        enabled,
        domain,
    }
}

/// Computes the successor class of `class` by firing `t`, or `None` when
/// `t` cannot fire first in the domain.
fn successor(
    timed: &TimedNet,
    class: &StateClass,
    t: TransitionId,
) -> Result<Option<StateClass>, TimedError> {
    let net = timed.net();
    let f = class.var_of(t).expect("t is enabled in the class");

    // firability: t can be the first to fire
    let mut fire_dom = class.domain.clone();
    for (i, _) in class.enabled.iter().enumerate() {
        let v = i + 1;
        if v != f {
            fire_dom.constrain(f, v, 0); // θ_t − θ_j ≤ 0
        }
    }
    if !fire_dom.close() {
        return Ok(None);
    }

    // markings: intermediate (tokens of •t removed) and successor
    let mut intermediate = class.marking.clone();
    for &p in net.pre_places(t) {
        intermediate.remove_token(p);
    }
    let next_marking = net.fire(t, &class.marking).map_err(TimedError::from_net)?;

    // persistence (single-server): enabled before, through the token
    // removal, and after
    let mut persistent: Vec<TransitionId> = class
        .enabled
        .iter()
        .copied()
        .filter(|&j| j != t && net.enabled(j, &intermediate) && net.enabled(j, &next_marking))
        .collect();
    persistent.sort();
    let persistent_vars: Vec<usize> = persistent
        .iter()
        .map(|&j| class.var_of(j).expect("persistent was enabled"))
        .collect();

    let mut newly: Vec<TransitionId> = net
        .enabled_transitions(&next_marking)
        .into_iter()
        .filter(|j| !persistent.contains(j))
        .collect();
    newly.sort();

    // shifted domain over persistent, then fresh intervals for the new ones
    let shifted = fire_dom.after_firing(f, &persistent_vars);
    let bounds: Vec<(i64, i64)> = newly
        .iter()
        .map(|&j| {
            let iv = timed.interval(j);
            (iv.eft, iv.lft)
        })
        .collect();
    let mut domain = shifted.extend(&bounds);
    if !domain.close() {
        return Ok(None); // cannot happen with non-empty static intervals
    }

    // canonical variable order: enabled sorted by transition id
    let mut enabled: Vec<(TransitionId, usize)> = persistent
        .iter()
        .enumerate()
        .map(|(i, &j)| (j, i + 1))
        .chain(
            newly
                .iter()
                .enumerate()
                .map(|(i, &j)| (j, persistent.len() + i + 1)),
        )
        .collect();
    enabled.sort_by_key(|&(j, _)| j);
    let order: Vec<usize> = enabled.iter().map(|&(_, v)| v).collect();
    let domain = permute(&domain, &order);
    let enabled: Vec<TransitionId> = enabled.into_iter().map(|(j, _)| j).collect();

    Ok(Some(StateClass {
        marking: next_marking,
        enabled,
        domain,
    }))
}

/// Reorders DBM variables: `order[k]` is the old variable index that
/// becomes variable `k + 1`.
fn permute(d: &Dbm, order: &[usize]) -> Dbm {
    let mut out = Dbm::unconstrained(order.len() + 1);
    let old_of = |k: usize| if k == 0 { 0 } else { order[k - 1] };
    for i in 0..=order.len() {
        for j in 0..=order.len() {
            if i != j {
                out.constrain(i, j, d.diff_upper(old_of(i), old_of(j)));
            }
        }
    }
    let consistent = out.close();
    debug_assert!(consistent, "permutation preserves consistency");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use crate::net::Interval;
    use petri::NetBuilder;

    #[test]
    fn untimed_intervals_reproduce_the_reachability_graph() {
        for net in [
            models::figures::fig2(3),
            models::nsdp(2),
            models::overtake(2),
        ] {
            let rg = explore_full(&net).unwrap();
            let timed = TimedNet::new(net);
            let graph = ClassGraph::explore(&timed, &Default::default()).unwrap();
            assert_eq!(
                graph.class_count(),
                rg.state_count(),
                "{}",
                timed.net().name()
            );
            assert_eq!(graph.has_deadlock(), rg.has_deadlock());
        }
    }

    #[test]
    fn race_prunes_the_slow_branch() {
        let mut b = NetBuilder::new("race");
        let p = b.place_marked("p");
        let fast = b.transition("fast", [p], []);
        let slow = b.transition("slow", [p], []);
        let net = b.build().unwrap();
        // untimed: both branches
        assert_eq!(explore_full(&net).unwrap().state_count(), 2);
        let timed = TimedNet::new(net)
            .with_interval(fast, Interval::new(0, 1))
            .with_interval(slow, Interval::new(5, 9));
        let graph = ClassGraph::explore(&timed, &Default::default()).unwrap();
        // `slow` can never fire first: only the fast branch remains
        assert_eq!(graph.class_count(), 2);
        assert_eq!(graph.edge_count(), 1);
        assert_eq!(graph.edges()[0].1, fast);
    }

    #[test]
    fn overlapping_race_keeps_both_branches() {
        let mut b = NetBuilder::new("race");
        let p = b.place_marked("p");
        let a = b.transition("a", [p], []);
        let c = b.transition("c", [p], []);
        let net = b.build().unwrap();
        let timed = TimedNet::new(net)
            .with_interval(a, Interval::new(0, 5))
            .with_interval(c, Interval::new(3, 9));
        let graph = ClassGraph::explore(&timed, &Default::default()).unwrap();
        assert_eq!(graph.edge_count(), 2, "intervals overlap: both can win");
    }

    #[test]
    fn timing_orders_parallel_actions() {
        let mut b = NetBuilder::new("ordered");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let pa = b.place("pa");
        let qa = b.place("qa");
        let fast = b.transition("fast", [p], [pa]);
        let slow = b.transition("slow", [q], [qa]);
        let net = b.build().unwrap();
        // untimed: 4 interleaved states
        assert_eq!(explore_full(&net).unwrap().state_count(), 4);
        let timed = TimedNet::new(net)
            .with_interval(fast, Interval::new(0, 1))
            .with_interval(slow, Interval::new(10, 20));
        let graph = ClassGraph::explore(&timed, &Default::default()).unwrap();
        // fast must fire first: m0 -> fast -> slow, 3 classes
        assert_eq!(graph.class_count(), 3);
        assert!(graph.has_deadlock(), "both done: terminal class");
    }

    #[test]
    fn persistent_clock_keeps_elapsed_time() {
        // slow [4,4] survives the firing of fast [1,1]: after fast, slow's
        // remaining delay is [3,3]
        let mut b = NetBuilder::new("clocks");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let fast = b.transition("fast", [p], []);
        let slow = b.transition("slow", [q], []);
        let net = b.build().unwrap();
        let timed = TimedNet::new(net)
            .with_interval(fast, Interval::new(1, 1))
            .with_interval(slow, Interval::new(4, 4));
        let graph = ClassGraph::explore(&timed, &Default::default()).unwrap();
        let after_fast = graph
            .edges()
            .iter()
            .find(|&&(from, t, _)| from == 0 && t == fast)
            .map(|&(_, _, to)| to)
            .expect("fast fires first");
        let class = &graph.classes()[after_fast];
        assert_eq!(class.enabled(), &[slow]);
        assert_eq!(class.domain().lower(1), 3);
        assert_eq!(class.domain().upper(1), 3);
    }

    #[test]
    fn urgent_transition_blocks_later_ones() {
        // watchdog [0,2] must fire before lazy [5,9] ever can
        let mut b = NetBuilder::new("watchdog");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let dog = b.transition("dog", [p], [p]); // self-loop: fires forever
        let lazy = b.transition("lazy", [q], []);
        let net = b.build().unwrap();
        let timed = TimedNet::new(net)
            .with_interval(dog, Interval::new(0, 2))
            .with_interval(lazy, Interval::new(5, 9));
        let graph = ClassGraph::explore(&timed, &Default::default()).unwrap();
        // lazy eventually fires: the dog resets to [0,2] on every loop, so
        // time can pass 2 units per firing — lazy's window is reachable
        assert!(
            graph.edges().iter().any(|&(_, t, _)| t == lazy),
            "lazy fires after enough dog loops"
        );
    }

    #[test]
    fn class_limit_enforced() {
        let timed = TimedNet::new(models::nsdp(2));
        let err = ClassGraph::explore(&timed, &ClassOptions { max_classes: 2 }).unwrap_err();
        assert_eq!(err, TimedError::ClassLimit(2));
    }

    #[test]
    fn timed_markings_are_a_subset_of_untimed() {
        let net = models::figures::fig2(3);
        let rg = explore_full(&net).unwrap();
        let timed = TimedNet::new(net).with_uniform_interval(Interval::new(1, 2));
        let graph = ClassGraph::explore(&timed, &Default::default()).unwrap();
        for m in graph.reachable_markings() {
            assert!(rg.contains(&m));
        }
    }
}
