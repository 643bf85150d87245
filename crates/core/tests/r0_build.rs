//! The valid-set relation `r₀` two ways: the ZDD build carves each conflict
//! cluster's maximal independent sets out of its power set, the explicit
//! reference lists them by Bron–Kerbosch. Both must give the same family,
//! set for set, on hand-built conflict shapes and on random nets.

use gpo_core::{ExplicitFamily, SetFamily, ZddFamily};
use models::random::{random_net, RandomNetConfig};
use petri::{Budget, ConflictInfo, NetBuilder, PetriNet};
use proptest::prelude::*;

/// Builds `r₀` both ways and checks they hold the same sets; returns them
/// as sorted index lists.
fn r0_both_ways(net: &PetriNet) -> Vec<Vec<usize>> {
    let u = net.transition_count();
    let conflicts = ConflictInfo::new(net);
    let budget = Budget::default();
    let explicit = ExplicitFamily::from_conflicts(&(), u, &conflicts, &budget).unwrap();
    let ctx = ZddFamily::new_context(u);
    let zdd = ZddFamily::from_conflicts(&ctx, u, &conflicts, &budget).unwrap();
    assert_eq!(zdd.count(), explicit.count(), "{}", petri::to_text(net));
    // canonical: the listed sets rebuild the very same node
    assert_eq!(
        ZddFamily::from_sets(&ctx, u, &explicit.sets()),
        zdd,
        "{}",
        petri::to_text(net)
    );
    let mut sets: Vec<Vec<usize>> = zdd.sets().iter().map(|s| s.iter().collect()).collect();
    sets.sort();
    let mut reference: Vec<Vec<usize>> =
        explicit.sets().iter().map(|s| s.iter().collect()).collect();
    reference.sort();
    assert_eq!(sets, reference, "{}", petri::to_text(net));
    sets
}

#[test]
fn chain_cluster() {
    // t0 - t1 - t2 - t3 - t4: neighbours share a place
    let mut b = NetBuilder::new("chain");
    let links: Vec<_> = (0..4).map(|i| b.place_marked(format!("p{i}"))).collect();
    for i in 0..5usize {
        let pre: Vec<_> = [i.checked_sub(1), (i < 4).then_some(i)]
            .into_iter()
            .flatten()
            .map(|j| links[j])
            .collect();
        b.transition(format!("t{i}"), pre, []);
    }
    let sets = r0_both_ways(&b.build().unwrap());
    assert_eq!(
        sets,
        vec![vec![0, 2, 4], vec![0, 3], vec![1, 3], vec![1, 4]]
    );
}

#[test]
fn clique_cluster() {
    let mut b = NetBuilder::new("clique");
    let p = b.place_marked("p");
    for i in 0..5 {
        b.transition(format!("t{i}"), [p], []);
    }
    let sets = r0_both_ways(&b.build().unwrap());
    assert_eq!(sets, (0..5).map(|i| vec![i]).collect::<Vec<_>>());
}

#[test]
fn star_plus_clique_cluster() {
    // the readers-writers shape: writers share a mutex (a clique) and each
    // takes every reader's slot (a star from each writer), readers are
    // pairwise independent; one free transition joins every set
    let mut b = NetBuilder::new("rw-shaped");
    let mutex = b.place_marked("mutex");
    let slots: Vec<_> = (0..3).map(|i| b.place_marked(format!("slot{i}"))).collect();
    for (i, &slot) in slots.iter().enumerate() {
        b.transition(format!("read{i}"), [slot], []);
    }
    for i in 0..2 {
        let mut pre = vec![mutex];
        pre.extend(&slots);
        b.transition(format!("write{i}"), pre, []);
    }
    let q = b.place_marked("q");
    b.transition("free", [q], []);
    let sets = r0_both_ways(&b.build().unwrap());
    assert_eq!(sets, vec![vec![0, 1, 2, 5], vec![3, 5], vec![4, 5]]);
}

#[test]
fn conflict_free_net() {
    let mut b = NetBuilder::new("free");
    for i in 0..4 {
        let p = b.place_marked(format!("p{i}"));
        b.transition(format!("t{i}"), [p], []);
    }
    assert_eq!(r0_both_ways(&b.build().unwrap()), vec![vec![0, 1, 2, 3]]);
}

#[test]
fn zero_transition_net() {
    let mut b = NetBuilder::new("idle");
    b.place_marked("p");
    assert_eq!(r0_both_ways(&b.build().unwrap()), vec![Vec::<usize>::new()]);
}

#[test]
fn bundled_models() {
    for net in [
        models::nsdp(5),
        models::readers_writers(5),
        models::asat(4),
        models::overtake(3),
        models::scheduler(4),
        models::figures::fig2(6),
        models::figures::fig7(),
    ] {
        r0_both_ways(&net);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random nets of every size class (not only safe ones: `r₀`
    /// depends on the presets alone), the ZDD build is the Bron–Kerbosch
    /// family.
    #[test]
    fn zdd_r0_equals_bron_kerbosch_r0(
        seed in 0u64..100_000,
        components in 1usize..4,
        places_per_component in 2usize..6,
        resources in 0usize..4,
        resource_use_tenths in 0u32..10,
        choice_tenths in 0u32..10,
    ) {
        let cfg = RandomNetConfig {
            components,
            places_per_component,
            resources,
            resource_use_prob: f64::from(resource_use_tenths) / 10.0,
            choice_prob: f64::from(choice_tenths) / 10.0,
            max_states: 1,
        };
        r0_both_ways(&random_net(seed, &cfg));
    }
}
