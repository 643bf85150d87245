//! The Farkas kernel against the one it replaced: `Vec` rows of
//! `(x·M, x)` pairs, supports as index lists and a quadratic
//! minimal-support scan. Kept here as the oracle, with one fix applied:
//! each combined row is divided by the gcd of its nonzero entries (the
//! replaced kernel folded from 0, and `gcd(0, 0)` is 1, so it stopped
//! normalising once column 0 was eliminated). On the zoo and on random
//! nets of every size class, at caps 1, 8, 256 and none, the public
//! `place_invariants_capped` and `transition_invariants_capped` must
//! return the same rows in the same order.

use models::random::{random_net, RandomNetConfig};
use petri::{incidence_matrix, place_invariants_capped, transition_invariants_capped, PetriNet};
use proptest::prelude::*;

const CAPS: [usize; 4] = [1, 8, 256, usize::MAX];

fn oracle_farkas(m: &[Vec<i64>], rows: usize, cols: usize, max_rows: usize) -> Vec<Vec<i64>> {
    let mut work: Vec<(Vec<i64>, Vec<i64>)> = (0..rows)
        .map(|i| {
            let mut id = vec![0i64; rows];
            id[i] = 1;
            (m[i].clone(), id)
        })
        .collect();

    let mut remaining: Vec<usize> = (0..cols).collect();
    while let Some((ri, &col)) = remaining.iter().enumerate().min_by_key(|(_, &c)| {
        let pos = work.iter().filter(|r| r.0[c] > 0).count();
        let neg = work.iter().filter(|r| r.0[c] < 0).count();
        pos * neg
    }) {
        remaining.swap_remove(ri);
        let mut next: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
        for row in &work {
            if row.0[col] == 0 {
                next.push(row.clone());
            }
        }
        let growth_cap = max_rows.saturating_mul(8);
        let pos: Vec<&(Vec<i64>, Vec<i64>)> = work.iter().filter(|r| r.0[col] > 0).collect();
        let neg: Vec<&(Vec<i64>, Vec<i64>)> = work.iter().filter(|r| r.0[col] < 0).collect();
        'combine: for p in &pos {
            for n in &neg {
                if next.len() >= growth_cap {
                    break 'combine;
                }
                let a = p.0[col];
                let Some(b) = n.0[col].checked_neg() else {
                    continue;
                };
                let g = gcd(a, b);
                let (fp, fn_) = (b / g, a / g);
                let combine = |xs: &[i64], ys: &[i64]| -> Option<Vec<i64>> {
                    xs.iter()
                        .zip(ys)
                        .map(|(&x, &y)| fp.checked_mul(x)?.checked_add(fn_.checked_mul(y)?))
                        .collect()
                };
                let Some(mut vec_part) = combine(&p.0, &n.0) else {
                    continue;
                };
                let Some(mut comb) = combine(&p.1, &n.1) else {
                    continue;
                };
                // the fix: zero entries take no part in the gcd
                let g2 = vec_part
                    .iter()
                    .chain(comb.iter())
                    .filter(|&&v| v != 0)
                    .fold(0i64, |acc, &v| gcd(acc, v));
                if g2 > 1 {
                    for v in vec_part.iter_mut().chain(comb.iter_mut()) {
                        *v /= g2;
                    }
                }
                next.push((vec_part, comb));
            }
        }
        next = oracle_minimal_support(next);
        if next.len() > max_rows {
            next.sort_by_key(|r| r.1.iter().filter(|&&v| v != 0).count());
            next.truncate(max_rows);
        }
        work = next;
    }

    let mut out: Vec<Vec<i64>> = work
        .into_iter()
        .map(|(_, comb)| comb)
        .filter(|c| c.iter().any(|&v| v != 0))
        .collect();
    out.sort();
    out.dedup();
    out
}

fn oracle_minimal_support(rows: Vec<(Vec<i64>, Vec<i64>)>) -> Vec<(Vec<i64>, Vec<i64>)> {
    let supports: Vec<Vec<usize>> = rows
        .iter()
        .map(|r| {
            r.1.iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let mut keep = vec![true; rows.len()];
    for i in 0..rows.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..rows.len() {
            if i == j || !keep[j] {
                continue;
            }
            if supports[j].len() < supports[i].len()
                && supports[j].iter().all(|x| supports[i].contains(x))
            {
                keep[i] = false;
                break;
            }
            if supports[j] == supports[i] && j < i {
                keep[i] = false;
                break;
            }
        }
    }
    rows.into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(r, _)| r)
        .collect()
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    if a == 0 {
        1
    } else {
        i64::try_from(a).unwrap_or(1)
    }
}

fn oracle_place_invariants(net: &PetriNet, cap: usize) -> Vec<Vec<i64>> {
    let c = incidence_matrix(net);
    oracle_farkas(&c, net.place_count(), net.transition_count(), cap)
}

fn oracle_transition_invariants(net: &PetriNet, cap: usize) -> Vec<Vec<i64>> {
    let c = incidence_matrix(net);
    let (rows, cols) = (net.transition_count(), net.place_count());
    let ct: Vec<Vec<i64>> = (0..rows)
        .map(|t| (0..cols).map(|p| c[p][t]).collect())
        .collect();
    oracle_farkas(&ct, rows, cols, cap)
}

fn check(net: &PetriNet, caps: &[usize]) {
    for &cap in caps {
        assert_eq!(
            place_invariants_capped(net, cap),
            oracle_place_invariants(net, cap),
            "{}: place invariants at cap {cap}",
            net.name()
        );
        assert_eq!(
            transition_invariants_capped(net, cap),
            oracle_transition_invariants(net, cap),
            "{}: transition invariants at cap {cap}",
            net.name()
        );
    }
}

#[test]
fn zoo_matches_the_oracle() {
    let mut zoo = vec![
        models::figures::fig1(),
        models::figures::fig3(),
        models::figures::fig4(),
        models::figures::fig5(),
        models::figures::fig7(),
        models::asat(2),
        models::asat(4),
    ];
    for n in 2..=5 {
        zoo.push(models::nsdp(n));
        zoo.push(models::overtake(n));
        zoo.push(models::readers_writers(n));
        zoo.push(models::scheduler(n));
        zoo.push(models::figures::fig2(n));
    }
    for net in &zoo {
        check(net, &CAPS);
    }
}

#[test]
fn asat8_matches_the_oracle_at_the_reduction_cap() {
    check(&models::asat(8), &[256]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random nets of every size class, safe or not.
    #[test]
    fn random_nets_match_the_oracle(
        seed in 0u64..100_000,
        components in 1usize..5,
        places_per_component in 2usize..7,
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
        check(&random_net(seed, &cfg), &CAPS);
    }
}
