//! The certificate validator against the one it replaced, which sent
//! every (transition, clause) pair to its DPLL search, including the
//! pairs whose clause has no literal on the transition's places. Kept
//! here verbatim as the oracle. On pdr's certificates for small zoo nets
//! and random safe nets, under deadlock and random `AG` formulas, and on
//! tampered copies of each certificate, `validate_certificate` must give
//! the same `Ok` or the same `Err` text.

use models::random::{random_safe_net, RandomNetConfig};
use pdr::validate::validate_certificate;
use pdr::{check_bounded, Certificate};
use petri::{Budget, CompiledProperty, PetriNet, PlaceId, Property};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod oracle {
    use petri::property::{CompiledAtom, CompiledFormula, CompiledProperty, Quantifier};
    use petri::PetriNet;

    use pdr::Certificate;

    /// A validator literal: `(variable, polarity)`.
    type VLit = (usize, bool);

    /// Plain DPLL satisfiability: unit propagation to fixpoint plus
    /// chronological branching. No learning, no heuristics — transparency
    /// over speed, since certificates are small.
    fn satisfiable(clauses: &[Vec<VLit>], nvars: usize, assume: &[VLit]) -> bool {
        let mut assign: Vec<Option<bool>> = vec![None; nvars];
        for &(v, b) in assume {
            match assign[v] {
                Some(x) if x != b => return false,
                _ => assign[v] = Some(b),
            }
        }
        search(clauses, &mut assign)
    }

    fn search(clauses: &[Vec<VLit>], assign: &mut Vec<Option<bool>>) -> bool {
        let mut trail: Vec<usize> = Vec::new();
        loop {
            let mut changed = false;
            for c in clauses {
                let mut sat = false;
                let mut open: Option<VLit> = None;
                let mut open_count = 0;
                for &(v, pos) in c {
                    match assign[v] {
                        Some(x) => {
                            if x == pos {
                                sat = true;
                                break;
                            }
                        }
                        None => {
                            open_count += 1;
                            open = Some((v, pos));
                        }
                    }
                }
                if sat {
                    continue;
                }
                match open_count {
                    0 => {
                        for v in trail {
                            assign[v] = None;
                        }
                        return false;
                    }
                    1 => {
                        let (v, pos) = open.expect("one open literal");
                        assign[v] = Some(pos);
                        trail.push(v);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        let sat = match assign.iter().position(|a| a.is_none()) {
            None => true,
            Some(v) => {
                let mut found = false;
                for val in [false, true] {
                    assign[v] = Some(val);
                    if search(clauses, assign) {
                        found = true;
                        break;
                    }
                }
                if !found {
                    assign[v] = None;
                }
                found
            }
        };
        if !sat {
            for v in trail {
                assign[v] = None;
            }
        }
        sat
    }

    /// Validator-local NNF over place literals (independent re-derivation,
    /// not shared with the engine's encoder).
    enum Nf {
        Const(bool),
        Lit(usize, bool),
        And(Vec<Nf>),
        Or(Vec<Nf>),
    }

    fn nf_and(parts: Vec<Nf>) -> Nf {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Nf::Const(true) => {}
                Nf::Const(false) => return Nf::Const(false),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Nf::Const(true),
            1 => out.pop().expect("one element"),
            _ => Nf::And(out),
        }
    }

    fn nf_or(parts: Vec<Nf>) -> Nf {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Nf::Const(false) => {}
                Nf::Const(true) => return Nf::Const(true),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Nf::Const(false),
            1 => out.pop().expect("one element"),
            _ => Nf::Or(out),
        }
    }

    fn nf_negate(n: Nf) -> Nf {
        match n {
            Nf::Const(b) => Nf::Const(!b),
            Nf::Lit(p, pos) => Nf::Lit(p, !pos),
            Nf::And(parts) => nf_or(parts.into_iter().map(nf_negate).collect()),
            Nf::Or(parts) => nf_and(parts.into_iter().map(nf_negate).collect()),
        }
    }

    fn nf_of_formula(net: &PetriNet, f: &CompiledFormula, positive: bool) -> Nf {
        match f {
            CompiledFormula::Atom(a) => {
                let n = match a {
                    CompiledAtom::Count { place, op, k } => {
                        match (op.eval(0, *k), op.eval(1, *k)) {
                            (true, true) => Nf::Const(true),
                            (false, false) => Nf::Const(false),
                            (false, true) => Nf::Lit(place.index(), true),
                            (true, false) => Nf::Lit(place.index(), false),
                        }
                    }
                    CompiledAtom::Fireable(t) => nf_and(
                        net.pre_places(*t)
                            .iter()
                            .map(|p| Nf::Lit(p.index(), true))
                            .collect(),
                    ),
                    CompiledAtom::Deadlock => nf_and(
                        net.transitions()
                            .map(|t| {
                                nf_or(
                                    net.pre_places(t)
                                        .iter()
                                        .map(|p| Nf::Lit(p.index(), false))
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                };
                if positive {
                    n
                } else {
                    nf_negate(n)
                }
            }
            CompiledFormula::Not(x) => nf_of_formula(net, x, !positive),
            CompiledFormula::And(a, b) => {
                let parts = vec![
                    nf_of_formula(net, a, positive),
                    nf_of_formula(net, b, positive),
                ];
                if positive {
                    nf_and(parts)
                } else {
                    nf_or(parts)
                }
            }
            CompiledFormula::Or(a, b) => {
                let parts = vec![
                    nf_of_formula(net, a, positive),
                    nf_of_formula(net, b, positive),
                ];
                if positive {
                    nf_or(parts)
                } else {
                    nf_and(parts)
                }
            }
        }
    }

    /// Biconditional Tseitin transform; returns the root literal. Fresh
    /// auxiliary variables are allocated from `*next_var`.
    fn tseitin(n: &Nf, next_var: &mut usize, clauses: &mut Vec<Vec<VLit>>) -> VLit {
        match n {
            Nf::Const(_) => unreachable!("constants folded before encoding"),
            Nf::Lit(p, pos) => (*p, *pos),
            Nf::And(parts) => {
                let lits: Vec<VLit> = parts
                    .iter()
                    .map(|p| tseitin(p, next_var, clauses))
                    .collect();
                let a = *next_var;
                *next_var += 1;
                let mut back: Vec<VLit> = vec![(a, true)];
                for &(v, pos) in &lits {
                    clauses.push(vec![(a, false), (v, pos)]);
                    back.push((v, !pos));
                }
                clauses.push(back);
                (a, true)
            }
            Nf::Or(parts) => {
                let lits: Vec<VLit> = parts
                    .iter()
                    .map(|p| tseitin(p, next_var, clauses))
                    .collect();
                let a = *next_var;
                *next_var += 1;
                let mut fwd: Vec<VLit> = vec![(a, false)];
                for &(v, pos) in &lits {
                    clauses.push(vec![(a, true), (v, !pos)]);
                    fwd.push((v, pos));
                }
                clauses.push(fwd);
                (a, true)
            }
        }
    }

    /// Checks initiation, consecution, and safety of `cert` for the goal of
    /// `prop` on `net`. `Ok(())` means the certificate genuinely proves the
    /// goal unreachable.
    pub fn validate_certificate(
        net: &PetriNet,
        prop: &CompiledProperty,
        cert: &Certificate,
    ) -> Result<(), String> {
        let nplaces = net.place_count();
        let m0 = net.initial_marking();

        // structural sanity + initiation
        let mut inv_clauses: Vec<Vec<VLit>> = Vec::with_capacity(cert.clauses.len());
        for (i, clause) in cert.clauses.iter().enumerate() {
            if clause.is_empty() {
                return Err(format!("clause {i} is empty (unsatisfiable invariant)"));
            }
            for &(p, _) in clause {
                if p.index() >= nplaces {
                    return Err(format!("clause {i} names out-of-range place {}", p.index()));
                }
            }
            if !clause.iter().any(|&(p, pos)| m0.is_marked(p) == pos) {
                return Err(format!(
                    "initiation fails: the initial marking falsifies clause {i}"
                ));
            }
            inv_clauses.push(clause.iter().map(|&(p, pos)| (p.index(), pos)).collect());
        }

        // consecution, one (transition, clause) pair at a time
        for t in net.transitions() {
            let pre = net.pre_place_set(t);
            let post = net.post_place_set(t);
            // firing preconditions on the current state
            let mut fire_units: Vec<VLit> = Vec::new();
            for p in net.pre_places(t) {
                fire_units.push((p.index(), true));
            }
            for p in net.post_places(t) {
                if !pre.contains(p.index()) {
                    fire_units.push((p.index(), false)); // no-contact rule
                }
            }
            'clauses: for (i, clause) in cert.clauses.iter().enumerate() {
                // can firing t falsify every literal of the clause?
                let mut units = fire_units.clone();
                for &(p, pos) in clause {
                    let idx = p.index();
                    let after: Option<bool> = if post.contains(idx) {
                        Some(true)
                    } else if pre.contains(idx) {
                        Some(false)
                    } else {
                        None
                    };
                    match after {
                        // the firing itself makes the literal true: the
                        // clause survives every such step
                        Some(v) if v == pos => continue 'clauses,
                        // the firing makes the literal false: nothing to add
                        Some(_) => {}
                        // untouched place: falsifying the literal pins its
                        // current value
                        None => {
                            if units.iter().any(|&(v, b)| v == idx && b == pos) {
                                // contradicts the firing precondition: this
                                // literal cannot go false across the step
                                continue 'clauses;
                            }
                            if !units.contains(&(idx, !pos)) {
                                units.push((idx, !pos));
                            }
                        }
                    }
                }
                // a pre-state satisfying the invariant and these constraints
                // would fire t into a marking falsifying the clause
                if satisfiable(&inv_clauses, nplaces, &units) {
                    return Err(format!(
                        "consecution fails: firing `{}` can falsify clause {i}",
                        net.transition_name(t)
                    ));
                }
            }
        }

        // safety: invariant ∧ goal must be unsatisfiable
        let goal = nf_of_formula(
            net,
            &prop.formula,
            matches!(prop.quantifier, Quantifier::Ef),
        );
        match goal {
            Nf::Const(false) => Ok(()),
            Nf::Const(true) => Err("safety fails: the goal is constantly true".into()),
            g => {
                let mut next_var = nplaces;
                let mut clauses = inv_clauses;
                let root = tseitin(&g, &mut next_var, &mut clauses);
                if satisfiable(&clauses, next_var, &[root]) {
                    Err("safety fails: some invariant state satisfies the goal".into())
                } else {
                    Ok(())
                }
            }
        }
    }
}

fn compiled(net: &PetriNet, text: &str) -> CompiledProperty {
    Property::parse(text).unwrap().compile(net).unwrap()
}

/// pdr's certificate for `text` on `net`, if it proves the property.
fn certificate(net: &PetriNet, prop: &CompiledProperty) -> Option<Certificate> {
    let outcome = check_bounded(net, prop, &Budget::default().cap_states(20_000)).ok()?;
    outcome.into_value().certificate
}

fn assert_same(net: &PetriNet, prop: &CompiledProperty, cert: &Certificate, what: &str) {
    assert_eq!(
        validate_certificate(net, prop, cert),
        oracle::validate_certificate(net, prop, cert),
        "{}: {what}",
        net.name()
    );
}

/// The certificate and four tampered copies of it: a clause dropped, a
/// literal flipped, a clause the initial marking falsifies added, and a
/// clause that is not inductive added.
fn check(net: &PetriNet, prop: &CompiledProperty, cert: &Certificate, rng: &mut StdRng) {
    assert_same(net, prop, cert, "certificate");
    let m0 = net.initial_marking();
    if !cert.clauses.is_empty() {
        let mut dropped = cert.clone();
        dropped.clauses.remove(rng.gen_range(0..cert.clauses.len()));
        assert_same(net, prop, &dropped, "clause dropped");

        let mut flipped = cert.clone();
        let clause = &mut flipped.clauses[rng.gen_range(0..cert.clauses.len())];
        let j = rng.gen_range(0..clause.len());
        clause[j].1 = !clause[j].1;
        assert_same(net, prop, &flipped, "literal flipped");
    }
    if net.place_count() > 0 {
        let p = PlaceId::new(rng.gen_range(0..net.place_count()));
        let mut falsified = cert.clone();
        falsified.clauses.push(vec![(p, !m0.is_marked(p))]);
        assert_same(net, prop, &falsified, "clause false initially added");
    }
    // a marked place some initially enabled transition empties: its unit
    // clause holds initially and is broken by that firing
    if let Some(p) = net
        .transitions()
        .filter(|&t| net.enabled(t, m0))
        .find_map(|t| {
            net.pre_places(t)
                .iter()
                .copied()
                .find(|&p| !net.post_places(t).contains(&p))
        })
    {
        let mut loose = cert.clone();
        let at = rng.gen_range(0..cert.clauses.len() + 1);
        loose.clauses.insert(at, vec![(p, true)]);
        assert!(validate_certificate(net, prop, &loose).is_err());
        assert_same(net, prop, &loose, "non-inductive clause added");
    }
}

/// A random state formula over `net`'s places and transitions.
fn random_formula(net: &PetriNet, rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..5) {
            0 if net.transition_count() > 0 => {
                let t = net
                    .transitions()
                    .nth(rng.gen_range(0..net.transition_count()));
                format!("fireable({})", net.transition_name(t.unwrap()))
            }
            1 => "deadlock".to_string(),
            k => {
                let p = net.places().nth(rng.gen_range(0..net.place_count()));
                let op = if k == 2 { ">= 1" } else { "= 0" };
                format!("m({}) {op}", net.place_name(p.unwrap()))
            }
        };
    }
    let a = random_formula(net, rng, depth - 1);
    match rng.gen_range(0..3) {
        0 => format!("!({a})"),
        1 => format!("({a}) && ({})", random_formula(net, rng, depth - 1)),
        _ => format!("({a}) || ({})", random_formula(net, rng, depth - 1)),
    }
}

/// Deadlock freedom, adjacent mutual exclusion where the net has it, and
/// random `AG` formulas: every certificate pdr finds, and its tampered
/// copies, under both validators.
fn check_net(net: &PetriNet, seed: u64, formulas: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut texts = vec!["AG !deadlock".to_string(), "EF deadlock".to_string()];
    for _ in 0..formulas {
        texts.push(format!("AG {}", random_formula(net, &mut rng, 3)));
    }
    for text in &texts {
        let prop = compiled(net, text);
        if let Some(cert) = certificate(net, &prop) {
            check(net, &prop, &cert, &mut rng);
            // the same invariant against the other properties' goals
            let other = compiled(net, "AG !deadlock");
            assert_same(net, &other, &cert, "certificate under deadlock freedom");
        }
    }
}

#[test]
fn small_zoo_certificates_match_the_oracle() {
    let mut zoo = vec![models::asat(2), models::asat(4)];
    for n in 4..=6 {
        zoo.push(models::nsdp(n));
    }
    for n in 3..=5 {
        zoo.push(models::overtake(n));
    }
    for n in 6..=9 {
        zoo.push(models::readers_writers(n));
    }
    for n in 4..=8 {
        zoo.push(models::scheduler(n));
    }
    for (seed, net) in zoo.iter().enumerate() {
        check_net(net, seed as u64, 6);
    }
    let nsdp = models::nsdp(5);
    let eat = compiled(&nsdp, "AG !(m(eat0) >= 1 && m(eat1) >= 1)");
    let cert = certificate(&nsdp, &eat).expect("adjacent philosophers never eat together");
    check(&nsdp, &eat, &cert, &mut StdRng::seed_from_u64(7));
}

/// ASAT(8)'s 5298-clause mutex certificate: the oracle alone takes over
/// a second on it in release.
#[test]
#[ignore]
fn asat8_mutex_certificate_matches_the_oracle() {
    let net = models::asat(8);
    let prop = compiled(&net, "AG !(m(using0) >= 1 && m(using1) >= 1)");
    let cert = certificate(&net, &prop).expect("the arbiter tree is mutually exclusive");
    assert_eq!(cert.clauses.len(), 5298);
    check(&net, &prop, &cert, &mut StdRng::seed_from_u64(8));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_safe_net_certificates_match_the_oracle(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomNetConfig {
            components: rng.gen_range(1..5),
            places_per_component: rng.gen_range(2..6),
            resources: rng.gen_range(0..4),
            ..RandomNetConfig::default()
        };
        if let Some(net) = random_safe_net(seed, &cfg) {
            check_net(&net, seed, 4);
        }
    }
}
