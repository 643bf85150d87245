//! End-to-end checks of the IC3/PDR engine against enumerative ground
//! truth on the benchmark zoo and random nets.

use models::random::{random_safe_net, RandomNetConfig};
use pdr::{check_bounded, validate};
use petri::{Budget, ExploreOptions, Outcome, PetriNet, Property};

fn compiled(net: &PetriNet, text: &str) -> petri::CompiledProperty {
    Property::parse(text).unwrap().compile(net).unwrap()
}

/// Enumerative ground truth: is some reachable marking a goal marking?
fn brute_force_goal_reachable(net: &PetriNet, prop: &Property) -> bool {
    let report = petri::verify(net, &ExploreOptions::default(), &Budget::default(), prop)
        .expect("exploration succeeds");
    assert!(report.verdict.is_sound(), "ground truth must be exhaustive");
    report.report.has_deadlock
}

#[test]
fn finds_the_dining_philosophers_deadlock() {
    let net = models::nsdp(3);
    let prop = compiled(&net, "EF deadlock");
    let outcome = check_bounded(&net, &prop, &Budget::default()).unwrap();
    let result = outcome.into_value();
    assert_eq!(result.reachable, Some(true));
    let trace = result.trace.expect("counterexample trace");
    // replay independently and confirm the final marking is dead
    let m = net
        .fire_sequence(net.initial_marking(), trace.iter().copied())
        .unwrap()
        .expect("trace fires");
    assert!(net.is_dead(&m), "trace must end in a deadlock");
}

#[test]
fn proves_mutual_exclusion_inductively() {
    // two adjacent philosophers never eat at once: follows from the
    // seeded fork invariant, so the proof needs no frame unrolling
    let net = models::nsdp(4);
    let prop = compiled(&net, "AG !(m(eat0) >= 1 & m(eat1) >= 1)");
    let outcome = check_bounded(&net, &prop, &Budget::default()).unwrap();
    assert!(outcome.is_complete());
    let result = outcome.into_value();
    assert_eq!(result.reachable, Some(false));
    let cert = result.certificate.expect("proof carries a certificate");
    // the certificate must independently re-validate
    validate::validate_certificate(&net, &prop, &cert).unwrap();
    // and the enumerative answer agrees
    assert!(!brute_force_goal_reachable(
        &net,
        &Property::parse("AG !(m(eat0) >= 1 & m(eat1) >= 1)").unwrap()
    ));
}

#[test]
fn tampered_certificates_are_rejected() {
    let net = models::nsdp(4);
    let prop = compiled(&net, "AG !(m(eat0) >= 1 & m(eat1) >= 1)");
    let outcome = check_bounded(&net, &prop, &Budget::default()).unwrap();
    let cert = outcome.into_value().certificate.expect("certificate");

    // dropping every clause leaves an invariant that no longer excludes
    // the goal
    let empty = pdr::Certificate { clauses: vec![] };
    assert!(validate::validate_certificate(&net, &prop, &empty).is_err());

    // flipping a literal breaks initiation or consecution
    let mut flipped = cert.clone();
    flipped.clauses[0][0].1 = !flipped.clauses[0][0].1;
    assert!(validate::validate_certificate(&net, &prop, &flipped).is_err());
}

#[test]
fn zoo_verdicts_match_enumeration() {
    let nets: Vec<PetriNet> = vec![
        models::nsdp(3),
        models::overtake(2),
        models::readers_writers(2),
        models::scheduler(3),
    ];
    for net in nets {
        let t0 = net
            .transition_name(net.transitions().next().unwrap())
            .to_string();
        for text in [
            "EF deadlock",
            "AG !deadlock",
            &format!("EF fireable({t0})"),
            &format!("AG !fireable({t0})"),
        ] {
            let prop = Property::parse(text).unwrap();
            let expected = brute_force_goal_reachable(&net, &prop);
            let outcome = check_bounded(&net, &prop.compile(&net).unwrap(), &Budget::default())
                .unwrap_or_else(|e| panic!("{} / {text}: {e}", net.name()));
            assert!(outcome.is_complete(), "{} / {text}", net.name());
            let result = outcome.into_value();
            assert_eq!(
                result.reachable,
                Some(expected),
                "{} / {text}: pdr disagrees with enumeration",
                net.name()
            );
            if expected {
                assert!(result.trace.is_some());
            } else {
                assert!(result.certificate.is_some());
            }
        }
    }
}

#[test]
fn random_nets_agree_with_enumeration() {
    let cfg = RandomNetConfig {
        components: 2,
        places_per_component: 3,
        resources: 1,
        ..RandomNetConfig::default()
    };
    let mut checked = 0;
    for seed in 0..40u64 {
        let Some(net) = random_safe_net(seed, &cfg) else {
            continue;
        };
        for text in ["EF deadlock", "AG !deadlock"] {
            let prop = Property::parse(text).unwrap();
            let expected = brute_force_goal_reachable(&net, &prop);
            let outcome = check_bounded(&net, &prop.compile(&net).unwrap(), &Budget::default())
                .unwrap_or_else(|e| panic!("seed {seed} / {text}: {e}"));
            let result = outcome.into_value();
            assert_eq!(
                result.reachable,
                Some(expected),
                "seed {seed} / {text}: pdr disagrees with enumeration"
            );
        }
        checked += 1;
    }
    assert!(checked >= 10, "too few safe candidates: {checked}");
}

#[test]
fn budget_exhaustion_degrades_to_partial() {
    let net = models::nsdp(8);
    let prop = compiled(&net, "AG !deadlock");
    // one lemma is not enough to settle nsdp(8)'s deadlock
    let budget = Budget::default().cap_states(1);
    let outcome = check_bounded(&net, &prop, &budget).unwrap();
    match outcome {
        Outcome::Partial {
            result, coverage, ..
        } => {
            assert_eq!(result.reachable, None);
            assert!(result.trace.is_none());
            assert!(result.certificate.is_none());
            assert!(coverage.states_stored >= 1);
        }
        Outcome::Complete(r) => panic!("a 1-lemma budget cannot settle nsdp(8): {:?}", r.reachable),
    }
}

#[test]
fn cancellation_stops_the_engine() {
    let net = models::nsdp(8);
    let prop = compiled(&net, "AG !deadlock");
    let budget = Budget::default();
    budget.cancel();
    let outcome = check_bounded(&net, &prop, &budget).unwrap();
    match outcome {
        Outcome::Partial { reason, .. } => {
            assert_eq!(reason, petri::ExhaustionReason::Cancelled);
        }
        Outcome::Complete(_) => panic!("cancelled run must degrade"),
    }
}

#[test]
fn goal_at_the_initial_marking_yields_an_empty_trace() {
    let net = models::nsdp(3);
    let t0 = net
        .transition_name(net.transitions().next().unwrap())
        .to_string();
    let prop = compiled(&net, &format!("EF fireable({t0})"));
    let result = check_bounded(&net, &prop, &Budget::default())
        .unwrap()
        .into_value();
    assert_eq!(result.reachable, Some(true));
    assert_eq!(result.trace.as_deref(), Some(&[][..]));
}
