//! Seeded random safe nets for differential property testing.
//!
//! The correctness story of this workspace rests on comparing analyses
//! against exhaustive exploration on many small nets. This module derives
//! nets deterministically from a `u64` seed so that property-test failures
//! reproduce exactly.
//!
//! Nets are generated as a union of *state machines* (circuits of places
//! with one token each — trivially safe) whose transitions may additionally
//! synchronize on shared *resource* places used in take/return pairs. The
//! construction keeps most nets safe by design; [`random_safe_net`]
//! additionally validates by bounded exploration and rejects the rest.

use petri::{
    Budget, CheckpointConfig, ExploreOptions, NetBuilder, Outcome, PetriNet, PlaceId,
    ReachabilityGraph,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunable shape of the generated nets.
#[derive(Debug, Clone)]
pub struct RandomNetConfig {
    /// Number of sequential components (state machines). At least 1.
    pub components: usize,
    /// Places per component (cycle length). At least 2.
    pub places_per_component: usize,
    /// Number of shared resource places.
    pub resources: usize,
    /// Probability that a transition takes a resource (and a later one in
    /// the same component returns it).
    pub resource_use_prob: f64,
    /// Probability of an extra *choice* transition between two places of a
    /// component (creating a conflict).
    pub choice_prob: f64,
    /// State cap used when validating safety.
    pub max_states: usize,
}

impl Default for RandomNetConfig {
    fn default() -> Self {
        RandomNetConfig {
            components: 3,
            places_per_component: 4,
            resources: 2,
            resource_use_prob: 0.4,
            choice_prob: 0.5,
            max_states: 20_000,
        }
    }
}

/// Generates a random net from `seed`. The construction is biased towards
/// safe nets but does not guarantee safety; see [`random_safe_net`].
pub fn random_net(seed: u64, cfg: &RandomNetConfig) -> PetriNet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetBuilder::new(format!("random_{seed}"));

    let resources: Vec<PlaceId> = (0..cfg.resources)
        .map(|r| b.place_marked(format!("res{r}")))
        .collect();

    for c in 0..cfg.components.max(1) {
        let len = cfg.places_per_component.max(2);
        let places: Vec<PlaceId> = (0..len)
            .map(|i| {
                if i == 0 {
                    b.place_marked(format!("c{c}_p{i}"))
                } else {
                    b.place(format!("c{c}_p{i}"))
                }
            })
            .collect();
        // First pass: decide resource takes/returns and record the set of
        // resources held *before* each step. A resource taken at step i is
        // returned at a later step (forced on the cycle-closing one), so
        // the component restarts cleanly.
        let mut held: Vec<PlaceId> = Vec::new();
        let mut held_before: Vec<Vec<PlaceId>> = Vec::with_capacity(len);
        let mut takes: Vec<Vec<PlaceId>> = vec![Vec::new(); len];
        let mut returns: Vec<Vec<PlaceId>> = vec![Vec::new(); len];
        for i in 0..len {
            let mut snapshot = held.clone();
            snapshot.sort();
            held_before.push(snapshot);
            if !resources.is_empty() && rng.gen_bool(cfg.resource_use_prob) {
                let r = resources[rng.gen_range(0..resources.len())];
                if let Some(pos) = held.iter().position(|&h| h == r) {
                    held.remove(pos);
                    returns[i].push(r);
                } else if i < len - 1 {
                    takes[i].push(r);
                    held.push(r);
                }
            }
            if i == len - 1 {
                returns[i].append(&mut held);
            }
        }

        // Second pass: emit the cycle transitions, plus choice transitions
        // that only jump between positions holding the *same* resources —
        // anything else would unbalance a take/return pair and break
        // safeness by construction.
        for i in 0..len {
            let from = places[i];
            let to = places[(i + 1) % len];
            let mut pre = vec![from];
            pre.extend(takes[i].iter().copied());
            let mut post = vec![to];
            post.extend(returns[i].iter().copied());
            b.transition(format!("c{c}_t{i}"), pre, post);
            if rng.gen_bool(cfg.choice_prob) {
                let j = rng.gen_range(0..len);
                if places[j] != to && j != i && held_before[j] == held_before[i] {
                    b.transition(format!("c{c}_alt{i}"), [from], [places[j]]);
                }
            }
        }
    }
    b.build().expect("generated names are unique")
}

/// Generates a random net from `seed` and keeps it only if it is safe and
/// its state space fits under `cfg.max_states`.
///
/// Returns `None` when the candidate is unsafe or too large — callers
/// (property tests) simply skip those seeds.
pub fn random_safe_net(seed: u64, cfg: &RandomNetConfig) -> Option<PetriNet> {
    let net = random_net(seed, cfg);
    let opts = ExploreOptions {
        record_edges: false,
        // random candidates are tiny and filtered in a hot loop: the
        // serial path avoids per-candidate thread spawns
        threads: 1,
    };
    let budget = Budget::default().cap_states(cfg.max_states);
    match ReachabilityGraph::explore(&net, &opts, &budget, &CheckpointConfig::default(), None) {
        Ok(Outcome::Complete(_)) => Some(net),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_full;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomNetConfig::default();
        let a = random_net(42, &cfg);
        let b = random_net(42, &cfg);
        assert_eq!(petri::to_text(&a), petri::to_text(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = RandomNetConfig::default();
        let a = random_net(1, &cfg);
        let b = random_net(2, &cfg);
        assert_ne!(petri::to_text(&a), petri::to_text(&b));
    }

    #[test]
    fn most_candidates_are_safe() {
        let cfg = RandomNetConfig::default();
        let kept = (0..50)
            .filter(|&s| random_safe_net(s, &cfg).is_some())
            .count();
        assert!(kept >= 25, "only {kept}/50 safe nets — generator too wild");
    }

    #[test]
    fn safe_nets_really_explore() {
        let cfg = RandomNetConfig::default();
        for seed in 0..20 {
            if let Some(net) = random_safe_net(seed, &cfg) {
                let rg = explore_full(&net).unwrap();
                assert!(rg.state_count() >= 1);
            }
        }
    }

    #[test]
    fn components_give_concurrency() {
        let cfg = RandomNetConfig {
            components: 4,
            resources: 0,
            choice_prob: 0.0,
            ..RandomNetConfig::default()
        };
        let net = random_net(7, &cfg);
        // with no resources and no choices: 4 independent 4-cycles
        let rg = explore_full(&net).unwrap();
        assert_eq!(rg.state_count(), 4usize.pow(4));
    }
}
