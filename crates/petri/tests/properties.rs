//! Property tests of the Petri net substrate on seeded random safe nets:
//! token conservation under place invariants, the commutation (diamond)
//! property of independent transitions, and witness-path replay.

use models::random::{random_safe_net, RandomNetConfig};
use petri::{place_invariants, Marking, PetriNet};
use proptest::prelude::*;

fn cfg() -> RandomNetConfig {
    RandomNetConfig {
        components: 3,
        places_per_component: 4,
        resources: 2,
        resource_use_prob: 0.4,
        choice_prob: 0.5,
        max_states: 4_000,
    }
}

fn weighted_tokens(inv: &[i64], m: &Marking) -> i64 {
    m.places().map(|p| inv[p.index()]).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every minimal place invariant is conserved across the entire
    /// reachable state space — the fundamental structural/behavioural link.
    #[test]
    fn place_invariants_are_conserved(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let invs = place_invariants(&net);
        if invs.is_empty() { return Ok(()); }
        let rg = explore_full(&net).expect("validated safe");
        let expected: Vec<i64> = invs
            .iter()
            .map(|inv| weighted_tokens(inv, net.initial_marking()))
            .collect();
        for s in rg.states() {
            let m = rg.marking(s);
            for (inv, &e) in invs.iter().zip(&expected) {
                prop_assert_eq!(
                    weighted_tokens(inv, m), e,
                    "invariant broken at {}\n{}", m, petri::to_text(&net)
                );
            }
        }
    }

    /// Independent enabled transitions commute: firing in either order
    /// reaches the same marking (the diamond property partial-order
    /// reduction relies on).
    #[test]
    fn independent_transitions_commute(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let m0 = net.initial_marking();
        let enabled = net.enabled_transitions(m0);
        for (i, &t) in enabled.iter().enumerate() {
            for &u in &enabled[i + 1..] {
                // structurally independent: no shared place at all
                let shares_pre = net.pre_place_set(t).intersects(net.pre_place_set(u));
                let t_feeds_u = net.post_place_set(t).intersects(net.pre_place_set(u));
                let u_feeds_t = net.post_place_set(u).intersects(net.pre_place_set(t));
                if shares_pre || t_feeds_u || u_feeds_t {
                    continue;
                }
                let tu = net.fire_sequence(m0, [t, u]).expect("safe").expect("enabled");
                let ut = net.fire_sequence(m0, [u, t]).expect("safe").expect("enabled");
                prop_assert_eq!(&tu, &ut, "diamond broken for {} and {}", t, u);
            }
        }
    }

    /// Every deadlock found by exploration is reproducible by replaying the
    /// shortest witness path from the initial marking.
    #[test]
    fn deadlock_paths_replay(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let rg = explore_full(&net).expect("validated safe");
        for &d in rg.deadlocks().iter().take(3) {
            let path = rg.path_to(d).expect("reachable by construction");
            let m = net
                .fire_sequence(net.initial_marking(), path)
                .expect("safe")
                .expect("replayable");
            prop_assert_eq!(&m, rg.marking(d));
            prop_assert!(net.is_dead(&m));
        }
    }

    /// The textual format is lossless for generated nets.
    #[test]
    fn text_round_trip(seed in 0u64..100_000) {
        let net = models::random::random_net(seed, &cfg());
        let text = petri::to_text(&net);
        let back = petri::parse_net(&text).expect("own output parses");
        prop_assert_eq!(petri::to_text(&back), text);
    }

    /// Exploration is insensitive to edge recording.
    #[test]
    fn edge_recording_does_not_change_counts(seed in 0u64..50_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let with_edges = explore_full(&net).expect("safe");
        let without = explore_full_with(&net, &petri::ExploreOptions { record_edges: false, ..Default::default() }).expect("safe");
        prop_assert_eq!(with_edges.state_count(), without.state_count());
        prop_assert_eq!(with_edges.edge_count(), without.edge_count());
        prop_assert_eq!(with_edges.has_deadlock(), without.has_deadlock());
    }
}

/// A hand-rolled regression: conflict clusters partition the transitions.
#[test]
fn clusters_partition_transitions() {
    for net in [models::nsdp(3), models::asat(4), models::readers_writers(4)] {
        let info = petri::ConflictInfo::new(&net);
        let mut seen = vec![false; net.transition_count()];
        for cluster in info.clusters() {
            for &t in cluster {
                assert!(!seen[t.index()], "transition in two clusters");
                seen[t.index()] = true;
                assert_eq!(info.cluster_of(t), info.cluster_of(cluster[0]));
            }
        }
        assert!(seen.iter().all(|&b| b), "every transition clustered");
    }
}

/// Maximal conflict-free sets are maximal independent sets: conflict-free,
/// and no transition can be added.
#[test]
fn conflict_free_sets_are_maximal_independent() {
    for net in [
        models::nsdp(2) as PetriNet,
        models::overtake(2),
        models::figures::fig7(),
    ] {
        let info = petri::ConflictInfo::new(&net);
        let sets = info.maximal_conflict_free_sets(1 << 16).expect("small");
        for v in &sets {
            let members: Vec<usize> = v.iter().collect();
            // pairwise conflict-free
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    assert!(
                        !net.in_conflict(petri::TransitionId::new(a), petri::TransitionId::new(b)),
                        "{}: conflict inside a valid set",
                        net.name()
                    );
                }
            }
            // maximal: every outsider conflicts with some member
            for t in net.transitions() {
                if v.contains(t.index()) {
                    continue;
                }
                assert!(
                    members
                        .iter()
                        .any(|&a| net.in_conflict(t, petri::TransitionId::new(a))),
                    "{}: {} could extend a 'maximal' set",
                    net.name(),
                    net.transition_name(t)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The siphon-trap certificate is sound: whenever it proves deadlock
    /// freedom, exhaustive exploration confirms it.
    #[test]
    fn siphon_trap_certificate_is_sound(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        if petri::siphon_trap_certificate(&net, 50_000) == Some(true) {
            let rg = explore_full(&net).expect("validated safe");
            prop_assert!(!rg.has_deadlock(), "certificate lied\n{}", petri::to_text(&net));
        }
    }

    /// Minimal siphons are siphons, pairwise incomparable, and at any dead
    /// marking the empty places contain one of them.
    #[test]
    fn minimal_siphons_are_minimal_siphons(seed in 0u64..100_000) {
        let Some(net) = random_safe_net(seed, &cfg()) else { return Ok(()); };
        let Some(siphons) = petri::minimal_siphons(&net, 50_000) else { return Ok(()); };
        for (i, s) in siphons.iter().enumerate() {
            prop_assert!(petri::is_siphon(&net, s));
            for (j, t) in siphons.iter().enumerate() {
                if i != j {
                    prop_assert!(!s.is_subset(t), "non-minimal siphon kept");
                }
            }
        }
        let rg = explore_full(&net).expect("validated safe");
        for &d in rg.deadlocks().iter().take(2) {
            let empties = petri::empty_places_siphon(&net, rg.marking(d)).expect("dead");
            prop_assert!(
                siphons.iter().any(|s| s.is_subset(&empties)),
                "no minimal siphon inside the dead marking's empty places"
            );
        }
    }
}

/// The complete reachability graph of `net`.
fn explore_full(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    explore_full_with(net, &petri::ExploreOptions::default())
}

/// The complete reachability graph of `net` under `opts`.
fn explore_full_with(
    net: &petri::PetriNet,
    opts: &petri::ExploreOptions,
) -> Result<petri::ReachabilityGraph, petri::NetError> {
    petri::ReachabilityGraph::explore(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
