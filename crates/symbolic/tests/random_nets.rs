//! Symbolic reachability against exhaustive exploration on random safe
//! nets: for the deadlock goal and for random goal formulas, under both
//! variable orders, the BDD engine must count exactly the states and goal
//! markings that full enumeration finds.

use models::random::{random_safe_net, RandomNetConfig};
use petri::{
    Budget, CheckpointConfig, CompiledProperty, ExploreOptions, PetriNet, Property,
    ReachabilityGraph,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symbolic::{SymbolicOptions, SymbolicReachability, VariableOrder};

/// A random state formula over `net`'s places and transitions, in the
/// property language's concrete syntax.
fn random_formula(net: &PetriNet, rng: &mut StdRng, depth: u32) -> String {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    if leaf {
        let place = net.place_name(petri::PlaceId::new(rng.gen_range(0..net.place_count())));
        return match rng.gen_range(0..4) {
            0 => format!("m({place}) >= 1"),
            1 => format!("m({place}) = 0"),
            2 if net.transition_count() > 0 => {
                let t = petri::TransitionId::new(rng.gen_range(0..net.transition_count()));
                format!("fireable({})", net.transition_name(t))
            }
            _ => "deadlock".to_string(),
        };
    }
    match rng.gen_range(0..3) {
        0 => format!("!({})", random_formula(net, rng, depth - 1)),
        1 => format!(
            "({}) && ({})",
            random_formula(net, rng, depth - 1),
            random_formula(net, rng, depth - 1)
        ),
        _ => format!(
            "({}) || ({})",
            random_formula(net, rng, depth - 1),
            random_formula(net, rng, depth - 1)
        ),
    }
}

fn full_graph(net: &PetriNet) -> ReachabilityGraph {
    let opts = ExploreOptions {
        record_edges: false,
        threads: 1,
    };
    ReachabilityGraph::explore(
        net,
        &opts,
        &Budget::default(),
        &CheckpointConfig::default(),
        None,
    )
    .expect("random_safe_net nets are safe")
    .into_value()
}

/// bdd against full on one property, under both orders.
fn check(net: &PetriNet, rg: &ReachabilityGraph, text: &str, property: &CompiledProperty) {
    let goals = rg
        .states()
        .filter(|&s| property.goal(net, rg.marking(s)))
        .count();
    for order in [VariableOrder::Interleaved, VariableOrder::CurrentThenNext] {
        let sym = SymbolicReachability::explore(
            net,
            &SymbolicOptions { order },
            &Budget::default(),
            property,
        )
        .into_value();
        let what = format!(
            "{} ({} places), {order:?}, {text}",
            net.name(),
            net.place_count()
        );
        assert_eq!(sym.state_count(), rg.state_count() as f64, "{what}: states");
        assert_eq!(sym.deadlock_count(), goals as f64, "{what}: goal markings");
        assert_eq!(sym.has_deadlock(), goals > 0, "{what}: verdict");
        if let Some(w) = sym.deadlock_witness() {
            assert!(property.goal(net, w), "{what}: witness is a goal marking");
            assert!(rg.contains(w), "{what}: witness is reachable");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random safe nets of every size class: up to four short cycles, or
    /// two long ones whose nets pass 64 places (more than one marking word)
    /// while their state spaces stay small.
    #[test]
    fn bdd_counts_match_full_on_random_nets(
        seed in 0u64..100_000,
        shape in prop_oneof![(1usize..5, 2usize..7), (Just(2usize), 33usize..37)],
        resources in 0usize..4,
        resource_use_tenths in 0u32..10,
        choice_tenths in 0u32..10,
    ) {
        let (components, places_per_component) = shape;
        let cfg = RandomNetConfig {
            components,
            places_per_component,
            resources,
            resource_use_prob: f64::from(resource_use_tenths) / 10.0,
            choice_prob: f64::from(choice_tenths) / 10.0,
            max_states: 5_000,
        };
        let Some(net) = random_safe_net(seed, &cfg) else { return Ok(()); };
        let rg = full_graph(&net);
        let deadlock = Property::deadlock().compile(&net).unwrap();
        check(&net, &rg, "EF deadlock", &deadlock);
        let mut rng = StdRng::seed_from_u64(seed);
        let quantifier = if rng.gen_bool(0.5) { "EF" } else { "AG" };
        let text = format!("{quantifier} {}", random_formula(&net, &mut rng, 3));
        let property = Property::parse(&text).unwrap().compile(&net).unwrap();
        check(&net, &rg, &text, &property);
    }
}
