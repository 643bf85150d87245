//! Safety queries through the generalized analysis: the paper's §4 remark
//! that the framework also answers safety questions. A query asks whether
//! some reachable marking covers a given set of places simultaneously.
//!
//! Soundness is absolute (every hit is replayed against the exhaustive
//! graph); completeness is not claimed — a miss is cross-checked here only
//! on nets where the reduction provably visits the covering scenario.

use gpo_core::GpoOptions;
use petri::{PetriNet, PlaceId};
use proptest::prelude::*;

fn places(net: &PetriNet, names: &[&str]) -> Vec<PlaceId> {
    names
        .iter()
        .map(|n| net.place_by_name(n).expect("place exists"))
        .collect()
}

fn query(net: &PetriNet, q: Vec<PlaceId>) -> Option<petri::Marking> {
    analyze_all_with(
        net,
        &GpoOptions {
            coverage_query: q,
            ..Default::default()
        },
    )
    .expect("within limits")
    .coverage_hit
}

#[test]
fn rw_two_writers_never_coexist() {
    let net = models::readers_writers(4);
    let hit = query(&net, places(&net, &["writing0", "writing1"]));
    assert!(hit.is_none(), "mutual exclusion of writers");
    // ground truth: genuinely unreachable
    let rg = explore_full(&net).unwrap();
    let w: Vec<PlaceId> = places(&net, &["writing0", "writing1"]);
    assert!(rg
        .states()
        .all(|s| !w.iter().all(|&p| rg.marking(s).is_marked(p))));
}

#[test]
fn rw_concurrent_readers_found() {
    let net = models::readers_writers(4);
    let hit =
        query(&net, places(&net, &["reading0", "reading1", "reading2"])).expect("readers share");
    let rg = explore_full(&net).unwrap();
    assert!(rg.contains(&hit), "hit is classically reachable");
    for p in places(&net, &["reading0", "reading1", "reading2"]) {
        assert!(hit.is_marked(p));
    }
}

#[test]
fn nsdp_circular_wait_found_as_coverage() {
    let net = models::nsdp(3);
    let q = places(&net, &["hasL0", "hasL1", "hasL2"]);
    let hit = query(&net, q.clone()).expect("the circular wait is reachable");
    let rg = explore_full(&net).unwrap();
    assert!(rg.contains(&hit));
    assert!(
        net.is_dead(&hit),
        "this particular coverage is the deadlock"
    );
    for p in q {
        assert!(hit.is_marked(p));
    }
}

#[test]
fn asat_mutual_exclusion_holds_via_query() {
    let net = models::asat(4);
    let hit = query(&net, places(&net, &["using0", "using1"]));
    assert!(hit.is_none(), "two users in the critical section");
}

#[test]
fn empty_query_is_disabled() {
    let report = analyze_all_with(&models::nsdp(2), &GpoOptions::default()).unwrap();
    assert!(report.coverage_hit.is_none());
}

#[test]
fn single_place_query_finds_any_marked_place() {
    let net = models::figures::fig7();
    let hit = query(&net, places(&net, &["p5"])).expect("p5 eventually marked");
    assert!(hit.is_marked(net.place_by_name("p5").unwrap()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Soundness on random nets: every coverage hit is a classically
    /// reachable marking that covers the query.
    #[test]
    fn coverage_hits_are_sound(seed in 0u64..100_000, q0 in 0usize..6, q1 in 0usize..6) {
        let cfg = models::random::RandomNetConfig {
            components: 2,
            places_per_component: 3,
            resources: 1,
            resource_use_prob: 0.4,
            choice_prob: 0.6,
            max_states: 2_000,
        };
        let Some(net) = models::random::random_safe_net(seed, &cfg) else { return Ok(()); };
        let q: Vec<PlaceId> = [q0, q1]
            .iter()
            .map(|&i| PlaceId::new(i % net.place_count()))
            .collect();
        let Ok(report) = analyze_all_with(&net, &GpoOptions {
            coverage_query: q.clone(),
            ..Default::default()
        }) else { return Ok(()); };
        if let Some(hit) = report.coverage_hit {
            for &p in &q {
                prop_assert!(hit.is_marked(p), "hit covers the query");
            }
            let rg = explore_full(&net).expect("validated safe");
            prop_assert!(rg.contains(&hit), "hit reachable\n{}", petri::to_text(&net));
        }
    }
}

/// The complete reachability graph of `net`.
fn explore_full(net: &petri::PetriNet) -> Result<petri::ReachabilityGraph, petri::NetError> {
    petri::ReachabilityGraph::explore(
        net,
        &Default::default(),
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}

/// The complete generalized analysis of `net` under `opts` on the
/// production representation.
fn analyze_all_with(
    net: &petri::PetriNet,
    opts: &gpo_core::GpoOptions,
) -> Result<gpo_core::GpoReport, gpo_core::GpoError> {
    gpo_core::analyze::<gpo_core::ZddFamily>(
        net,
        opts,
        &petri::Budget::default(),
        &petri::CheckpointConfig::default(),
        None,
    )
    .map(petri::Outcome::into_value)
}
