//! The pdr engine's reason for existing: on state spaces too large for
//! the enumerative engines' budget, an inductive proof still settles the
//! property — soundly, with a certificate this test re-validates through
//! an independent code path and against brute-force enumeration.

use gpo_suite::prelude::*;
use julie::engine::{run_engine, RunSpec};
use petri::{CheckpointConfig, Property};

fn spec(engine: &str, property: &Property) -> RunSpec {
    RunSpec {
        engine: engine.to_string(),
        zdd: false,
        witnesses: 1,
        threads: 1,
        property: property.clone(),
    }
}

/// Mutual exclusion of two adjacent dining philosophers: holds (they
/// share a fork), and the fork's P-invariant makes it inductively
/// provable without unrolling the ~10^5-state space.
const MUTEX: &str = "AG !(m(eat0) >= 1 & m(eat1) >= 1)";

#[test]
fn pdr_answers_where_enumeration_exhausts() {
    let net = models::nsdp(8);
    let property = Property::parse(MUTEX).unwrap();
    // a CI-sized budget: far too small for nsdp(8)'s reachable space (and
    // too few events for a complete prefix). The wall cap is a backstop
    // so a slow machine degrades on time instead of stalling; either axis
    // leaves the verdict unsound, which is all this test asserts.
    let budget = || {
        Budget::default()
            .cap_states(50)
            .with_timeout(std::time::Duration::from_secs(30))
    };

    for engine in ["full", "po", "gpo", "bdd", "unfold"] {
        let report = run_engine(
            &net,
            None,
            "",
            &spec(engine, &property),
            &budget(),
            &CheckpointConfig::default(),
            None,
        )
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert!(
            !report.verdict.is_sound(),
            "{engine} cannot soundly settle nsdp(8) within 50 states"
        );
    }

    let report = run_engine(
        &net,
        None,
        "",
        &spec("pdr", &property),
        &budget(),
        &CheckpointConfig::default(),
        None,
    )
    .unwrap();
    assert!(
        report.verdict.is_sound(),
        "pdr proves under the same budget"
    );
    assert_eq!(report.verdict, Verdict::DeadlockFree, "AG holds");
    assert!(
        !report.certificate.is_empty(),
        "the proof carries a certificate"
    );
}

#[test]
fn the_certificate_is_independently_revalidated() {
    // small enough to enumerate, so the certificate can be checked both
    // by the independent validator and against every reachable marking
    let net = models::nsdp(6);
    let property = Property::parse(MUTEX).unwrap();
    let compiled = property.compile(&net).unwrap();

    let result = pdr::check_bounded(&net, &compiled, &Budget::default())
        .unwrap()
        .into_value();
    assert_eq!(result.reachable, Some(false));
    let cert = result.certificate.expect("certificate");

    // 1. the independent DPLL/incidence validator accepts it
    pdr::validate::validate_certificate(&net, &compiled, &cert).unwrap();

    // 2. brute force: every reachable marking satisfies every clause and
    //    none is a goal marking
    let rg = explore_full(&net).unwrap();
    assert!(rg.state_count() > 1000, "the instance is non-trivial");
    for s in rg.states() {
        let m = rg.marking(s);
        for (i, clause) in cert.clauses.iter().enumerate() {
            assert!(
                clause.iter().any(|&(p, pos)| m.is_marked(p) == pos),
                "clause {i} fails at reachable marking {}",
                net.display_marking(m)
            );
        }
        assert!(
            !compiled.goal(&net, m),
            "goal marking reachable at {}",
            net.display_marking(m)
        );
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
