//! The overtake protocol (OVER) benchmark.
//!
//! A convoy of `n` cars, each running **one** round of an overtake
//! maneuver against the car ahead: signal, approach, ask for permission —
//! the leader *accepts* or *refuses*, a one-shot conflict — and, when
//! accepted, enter the opposite lane and either *pass quickly* or *crawl
//! past* (a second one-shot conflict). The three distinct outcomes
//! (yielded, passed quickly, passed slowly) stay visible in the final
//! marking.
//!
//! Each car cycles through exactly eight local stages, so the full state
//! space is `8ⁿ` — matching the growth of the paper's OVER rows (65, 519,
//! 4175, 33460 ≈ 8.05ⁿ). Because every car resolves two visible choices,
//! interleaving-only partial-order reduction still explores an
//! exponentially growing graph (≥ 3ⁿ distinct outcomes), while the
//! generalized analysis runs all cars' stages simultaneously in a
//! near-constant number of GPN states — the shape of the paper's OVER
//! rows.

use petri::{NetBuilder, PetriNet};

/// Builds the overtake-protocol net with `n ≥ 1` cars.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use petri::{Budget, CheckpointConfig, ReachabilityGraph};
///
/// let net = models::overtake(2);
/// let rg = ReachabilityGraph::explore(
///     &net,
///     &Default::default(),
///     &Budget::default(),
///     &CheckpointConfig::default(),
///     None,
/// )?
/// .into_value();
/// assert_eq!(rg.state_count(), 64); // 8 local stages per car
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn overtake(n: usize) -> PetriNet {
    assert!(n >= 1, "overtake needs at least one car");
    let mut b = NetBuilder::new(format!("over_{n}"));
    for i in 1..=n {
        let fresh = b.place_marked(format!("fresh{i}"));
        let signal = b.place(format!("signal{i}"));
        let ask = b.place(format!("ask{i}"));
        let granted = b.place(format!("granted{i}"));
        let in_lane = b.place(format!("inLane{i}"));
        let yielded = b.place(format!("yielded{i}"));
        let passed_quick = b.place(format!("passedQuick{i}"));
        let passed_scenic = b.place(format!("passedScenic{i}"));
        b.transition(format!("signalOut{i}"), [fresh], [signal]);
        b.transition(format!("approach{i}"), [signal], [ask]);
        // the leader's answer: a one-shot conflict
        b.transition(format!("accept{i}"), [ask], [granted]);
        b.transition(format!("refuse{i}"), [ask], [yielded]);
        b.transition(format!("enterLane{i}"), [granted], [in_lane]);
        // how to pass: the car's one-shot conflict
        b.transition(format!("passQuick{i}"), [in_lane], [passed_quick]);
        b.transition(format!("passScenic{i}"), [in_lane], [passed_scenic]);
    }
    b.build().expect("overtake is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;
    use petri::ConflictInfo;

    #[test]
    fn structure_scales_linearly() {
        let net = overtake(3);
        assert_eq!(net.place_count(), 3 * 8);
        assert_eq!(net.transition_count(), 3 * 7);
    }

    #[test]
    fn full_state_space_is_eight_to_the_n() {
        for n in 1..=4 {
            let rg = explore_full(&overtake(n)).unwrap();
            assert_eq!(rg.state_count(), 8usize.pow(n as u32), "n={n}");
        }
    }

    #[test]
    fn three_outcomes_per_car_stay_distinct() {
        let net = overtake(2);
        let rg = explore_full(&net).unwrap();
        // terminal states: one of three outcomes per car
        assert_eq!(rg.deadlocks().len(), 9, "3^2 resolved convoys");
    }

    #[test]
    fn full_overtake_round_resolves_the_car() {
        let net = overtake(1);
        for tail in [
            vec!["accept1", "enterLane1", "passQuick1"],
            vec!["accept1", "enterLane1", "passScenic1"],
            vec!["refuse1"],
        ] {
            let mut names = vec!["signalOut1", "approach1"];
            names.extend(tail);
            let seq: Vec<_> = names
                .iter()
                .map(|s| net.transition_by_name(s).unwrap())
                .collect();
            let m = net
                .fire_sequence(net.initial_marking(), seq)
                .unwrap()
                .expect("protocol fires in order");
            assert!(net.is_dead(&m), "maneuver resolved: terminal");
        }
    }

    #[test]
    fn choices_are_one_shot_binary_conflicts() {
        let net = overtake(2);
        let info = ConflictInfo::new(&net);
        // two binary choice clusters per car
        assert_eq!(info.choice_clusters().count(), 4);
        assert!(info.clusters_are_cliques());
        let a = net.transition_by_name("accept1").unwrap();
        let r = net.transition_by_name("refuse1").unwrap();
        assert!(net.in_conflict(a, r));
        let q = net.transition_by_name("passQuick1").unwrap();
        let s = net.transition_by_name("passScenic1").unwrap();
        assert!(net.in_conflict(q, s));
    }

    #[test]
    fn cars_are_independent_components() {
        let net = overtake(3);
        let info = ConflictInfo::new(&net);
        // valid sets: one choice per cluster -> 2 * 2 per car
        let r0 = info.maximal_conflict_free_sets(1 << 12).unwrap();
        assert_eq!(r0.len(), 4usize.pow(3));
    }
}
