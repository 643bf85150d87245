//! Structural analysis: incidence matrix and P/T-invariants.
//!
//! Place invariants (`x ≥ 0`, `x·C = 0` for the incidence matrix `C`) give
//! token-conservation laws; a net covered by place invariants is structurally
//! bounded, and a cover by *binary* invariants with a single initial token
//! witnesses safeness. Transition invariants (`C·y = 0`) characterize firing
//! count vectors of cycles. Both are computed with the classical Farkas
//! (Fourier–Motzkin style) elimination over integers.

use crate::net::PetriNet;

/// Dense integer incidence matrix `C[p][t] = post(p,t) − pre(p,t)`.
///
/// # Examples
///
/// ```
/// use petri::{incidence_matrix, NetBuilder};
///
/// let mut b = NetBuilder::new("n");
/// let p = b.place_marked("p");
/// let q = b.place("q");
/// b.transition("t", [p], [q]);
/// let c = incidence_matrix(&b.build()?);
/// assert_eq!(c, vec![vec![-1], vec![1]]);
/// # Ok::<(), petri::NetError>(())
/// ```
pub fn incidence_matrix(net: &PetriNet) -> Vec<Vec<i64>> {
    let mut c = vec![vec![0i64; net.transition_count()]; net.place_count()];
    for t in net.transitions() {
        for p in net.pre_places(t) {
            c[p.index()][t.index()] -= 1;
        }
        for p in net.post_places(t) {
            c[p.index()][t.index()] += 1;
        }
    }
    c
}

/// Computes the minimal-support non-negative integer solutions of
/// `x · M = 0` (rows of `M` indexed by the solution vector) using the Farkas
/// algorithm. `M` is `rows × cols`.
fn farkas(m: &[Vec<i64>], rows: usize, cols: usize) -> Vec<Vec<i64>> {
    farkas_capped(m, rows, cols, usize::MAX)
}

/// [`farkas`] with the work matrix truncated to `max_rows` rows (smallest
/// supports kept) after each elimination step. Every row the algorithm
/// keeps is a genuine non-negative combination that is zero in all
/// processed columns, so every returned vector is a true invariant —
/// capping only makes the enumeration *incomplete*, never unsound. This
/// bounds the classical exponential blow-up of Farkas elimination.
fn farkas_capped(m: &[Vec<i64>], rows: usize, cols: usize, max_rows: usize) -> Vec<Vec<i64>> {
    let mut work = Work::identity(m, rows, cols);

    // eliminate the cheapest column first (fewest pos×neg combinations):
    // the classical heuristic that keeps the intermediate basis small
    let mut remaining: Vec<usize> = (0..cols).collect();
    while let Some((ri, &col)) = remaining.iter().enumerate().min_by_key(|(_, &c)| {
        let (mut pos, mut neg) = (0usize, 0usize);
        for i in 0..work.len() {
            let v = work.row(i)[c];
            pos += usize::from(v > 0);
            neg += usize::from(v < 0);
        }
        pos * neg
    }) {
        remaining.swap_remove(ri);
        let mut next = Work::empty(&work);
        // rows already zero in this column survive
        for i in 0..work.len() {
            if work.row(i)[col] == 0 {
                next.push_copy(&work, i);
            }
        }
        // combine every positive with every negative row; under a cap,
        // stop well past it — the kept rows get pruned below anyway
        let growth_cap = max_rows.saturating_mul(8);
        let pos: Vec<usize> = (0..work.len()).filter(|&i| work.row(i)[col] > 0).collect();
        let neg: Vec<usize> = (0..work.len()).filter(|&i| work.row(i)[col] < 0).collect();
        'combine: for &p in &pos {
            for &n in &neg {
                if next.len() >= growth_cap {
                    break 'combine;
                }
                next.push_combination(&work, p, n, col);
            }
        }
        // prune non-minimal supports to keep the basis small; under the
        // cap keep the smallest-support rows: those are the invariants
        // the structural analyses (reduction guards, safeness
        // certificates) actually consume
        let mut kept = next.minimal_rows();
        if kept.len() > max_rows {
            kept.truncate(max_rows);
        } else {
            kept.sort_unstable();
        }
        work = next.gather(&kept);
    }

    let mut out: Vec<Vec<i64>> = (0..work.len())
        .map(|i| work.row(i)[cols..].to_vec())
        .filter(|c| c.iter().any(|&v| v != 0))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The Farkas work matrix `[ M | I ]`, one flat row `[x·M | x]` per
/// combination `x` of the original rows, beside the support of each `x`
/// as a bitset and its size. Every `x` is non-negative (a positive
/// combination of non-negative rows), so a combined row's support is the
/// union of its parents' supports.
struct Work {
    /// Entries per row: the `x·M` columns, then the `x` weights.
    width: usize,
    /// Support words per row.
    words: usize,
    data: Vec<i64>,
    support: Vec<u64>,
    /// Support size of each row.
    sizes: Vec<u32>,
}

impl Work {
    fn identity(m: &[Vec<i64>], rows: usize, cols: usize) -> Self {
        let mut work = Work {
            width: cols + rows,
            words: rows.div_ceil(64),
            data: Vec::with_capacity(rows * (cols + rows)),
            support: vec![0; rows * rows.div_ceil(64)],
            sizes: vec![1; rows],
        };
        for (i, row) in m[..rows].iter().enumerate() {
            work.data.extend_from_slice(&row[..cols]);
            work.data.extend((0..rows).map(|j| i64::from(i == j)));
            work.support[i * work.words + i / 64] = 1 << (i % 64);
        }
        work
    }

    fn empty(shape: &Work) -> Self {
        Work {
            width: shape.width,
            words: shape.words,
            data: Vec::new(),
            support: Vec::new(),
            sizes: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.sizes.len()
    }

    fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    fn support(&self, i: usize) -> &[u64] {
        &self.support[i * self.words..(i + 1) * self.words]
    }

    fn push_copy(&mut self, from: &Work, i: usize) {
        self.data.extend_from_slice(from.row(i));
        self.support.extend_from_slice(from.support(i));
        self.sizes.push(from.sizes[i]);
    }

    /// Appends the combination of `from`'s rows `p` (positive in `col`)
    /// and `n` (negative in `col`) that is zero in `col`, divided by the
    /// gcd of its nonzero entries.
    fn push_combination(&mut self, from: &Work, p: usize, n: usize, col: usize) {
        let (xs, ys) = (from.row(p), from.row(n));
        // Farkas coefficients blow up exponentially across elimination
        // steps; every arithmetic step is checked and an overflowing
        // combination is *dropped*, like a capped row — incomplete, never
        // unsound (a wrapped product would fabricate a vector that is not
        // an invariant)
        let Some(b) = ys[col].checked_neg() else {
            return;
        };
        let a = xs[col];
        let g = gcd(a, b);
        let (fp, fn_) = (b / g, a / g);
        let start = self.data.len();
        let mut overflow = false;
        self.data.extend(xs.iter().zip(ys).map(|(&x, &y)| {
            let (u, o1) = fp.overflowing_mul(x);
            let (v, o2) = fn_.overflowing_mul(y);
            let (s, o3) = u.overflowing_add(v);
            overflow |= o1 | o2 | o3;
            s
        }));
        if overflow {
            self.data.truncate(start);
            return;
        }
        let row = &mut self.data[start..];
        let g2 = nonzero_gcd(row);
        if g2 > 1 {
            for v in row {
                *v /= g2;
            }
        }
        let mut size = 0;
        for (&s, &t) in from.support(p).iter().zip(from.support(n)) {
            self.support.push(s | t);
            size += (s | t).count_ones();
        }
        self.sizes.push(size);
    }

    /// The rows of minimal support, in order of (support size, index):
    /// row `i` is kept iff no row's support is a strict subset of `i`'s
    /// and no earlier row has the same support. That rule does not
    /// depend on the order rows are examined in — the first row of each
    /// minimal support is never dropped, so a kept witness always exists
    /// — so each row needs testing only against the smaller or earlier
    /// rows already kept.
    fn minimal_rows(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| self.sizes[i]);
        let mut kept: Vec<usize> = Vec::new();
        for i in order {
            let s = self.support(i);
            let covered = kept.iter().any(|&k| {
                self.support(k)
                    .iter()
                    .zip(s)
                    .all(|(&sub, &sup)| sub & !sup == 0)
            });
            if !covered {
                kept.push(i);
            }
        }
        kept
    }

    /// The rows `idx`, in that order.
    fn gather(&self, idx: &[usize]) -> Self {
        let mut out = Work::empty(self);
        out.data.reserve(idx.len() * self.width);
        for &i in idx {
            out.push_copy(self, i);
        }
        out
    }
}

/// The gcd of the nonzero entries of `xs` (0 if there are none); stops
/// at 1.
fn nonzero_gcd(xs: &[i64]) -> i64 {
    let mut g = 0;
    for &x in xs {
        if x != 0 {
            g = gcd(g, x);
            if g == 1 {
                break;
            }
        }
    }
    g
}

/// Total gcd: widens through `unsigned_abs`, so `i64::MIN` neither panics
/// (debug) nor wraps (release). The result is always a positive divisor of
/// both inputs; the one unrepresentable case — a true gcd of exactly 2⁶³ —
/// degrades to 1, which is still a valid (if trivial) common divisor, so
/// callers that divide by the result stay exact.
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

/// Minimal-support place invariants: vectors `x ≥ 0` with `x · C = 0`.
///
/// Each returned vector has one weight per place.
pub fn place_invariants(net: &PetriNet) -> Vec<Vec<i64>> {
    let c = incidence_matrix(net);
    farkas(&c, net.place_count(), net.transition_count())
}

/// Like [`place_invariants`], but bounds the Farkas work matrix to
/// `max_rows` rows between elimination steps, keeping the rows with the
/// smallest supports. Every returned vector is still a genuine place
/// invariant; the cap only makes the enumeration incomplete on nets
/// whose minimal-invariant count explodes combinatorially. Consumers
/// that use invariants as *sufficient* guards (structural reduction,
/// boundedness certificates) stay sound under a cap.
pub fn place_invariants_capped(net: &PetriNet, max_rows: usize) -> Vec<Vec<i64>> {
    let c = incidence_matrix(net);
    farkas_capped(&c, net.place_count(), net.transition_count(), max_rows)
}

/// Minimal-support transition invariants: vectors `y ≥ 0` with `C · y = 0`.
///
/// Each returned vector has one weight per transition.
pub fn transition_invariants(net: &PetriNet) -> Vec<Vec<i64>> {
    transition_invariants_capped(net, usize::MAX)
}

/// Like [`transition_invariants`], but bounds the Farkas work matrix to
/// `max_rows` rows between elimination steps — the same ASAT-style
/// exponential-blowup guard [`place_invariants_capped`] provides for place
/// invariants. Every returned vector is still a genuine T-invariant; the
/// cap only makes the enumeration incomplete.
pub fn transition_invariants_capped(net: &PetriNet, max_rows: usize) -> Vec<Vec<i64>> {
    let c = incidence_matrix(net);
    // transpose
    let rows = net.transition_count();
    let cols = net.place_count();
    let ct: Vec<Vec<i64>> = (0..rows)
        .map(|t| (0..cols).map(|p| c[p][t]).collect())
        .collect();
    farkas_capped(&ct, rows, cols, max_rows)
}

/// `true` if every place has a positive weight in some place invariant —
/// a structural witness of boundedness.
pub fn covered_by_place_invariants(net: &PetriNet) -> bool {
    let invs = place_invariants(net);
    (0..net.place_count()).all(|p| invs.iter().any(|inv| inv[p] > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    fn cycle_net() -> PetriNet {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        b.build().unwrap()
    }

    #[test]
    fn incidence_of_cycle() {
        let c = incidence_matrix(&cycle_net());
        assert_eq!(c, vec![vec![-1, 1], vec![1, -1]]);
    }

    #[test]
    fn cycle_has_token_conservation_invariant() {
        let invs = place_invariants(&cycle_net());
        assert_eq!(invs, vec![vec![1, 1]], "p + q is constant");
        assert!(covered_by_place_invariants(&cycle_net()));
    }

    #[test]
    fn cycle_has_firing_invariant() {
        let invs = transition_invariants(&cycle_net());
        assert_eq!(invs, vec![vec![1, 1]], "go and back fire equally often");
    }

    #[test]
    fn acyclic_net_has_no_transition_invariant() {
        let mut b = NetBuilder::new("line");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [p], [q]);
        let net = b.build().unwrap();
        assert!(transition_invariants(&net).is_empty());
        assert!(covered_by_place_invariants(&net), "p+q still conserved");
    }

    #[test]
    fn fork_join_invariants() {
        let mut b = NetBuilder::new("fork-join");
        let p0 = b.place_marked("p0");
        let p1 = b.place("p1");
        let p2 = b.place("p2");
        let p3 = b.place("p3");
        let p4 = b.place("p4");
        b.transition("split", [p0], [p1, p2]);
        b.transition("a", [p1], [p3]);
        b.transition("b", [p2], [p4]);
        b.transition("join", [p3, p4], [p0]);
        let net = b.build().unwrap();
        let invs = place_invariants(&net);
        // two independent conservation laws: p0+p1+p3 and p0+p2+p4
        assert_eq!(invs.len(), 2);
        assert!(invs.contains(&vec![1, 1, 0, 1, 0]));
        assert!(invs.contains(&vec![1, 0, 1, 0, 1]));
        assert!(covered_by_place_invariants(&net));
        // the full cycle is the unique minimal T-invariant
        assert_eq!(transition_invariants(&net), vec![vec![1, 1, 1, 1]]);
    }

    #[test]
    fn unbounded_source_not_covered() {
        let mut b = NetBuilder::new("src");
        let p = b.place("p");
        b.transition("gen", [], [p]);
        let net = b.build().unwrap();
        assert!(!covered_by_place_invariants(&net));
        assert!(place_invariants(&net).is_empty());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(6, 4), 2);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 1);
        assert_eq!(gcd(-6, 4), 2);
    }

    #[test]
    fn gcd_is_total_at_i64_min() {
        // i64::MIN.abs() panics in debug and wraps in release; the widened
        // gcd must stay a positive divisor of both inputs instead.
        assert_eq!(gcd(i64::MIN, 2), 2);
        assert_eq!(gcd(i64::MIN, 3), 1);
        assert_eq!(gcd(2, i64::MIN), 2);
        assert_eq!(gcd(i64::MIN, i64::MAX), 1);
        // true gcd 2⁶³ is unrepresentable; degrading to 1 keeps division
        // by the result exact
        assert_eq!(gcd(i64::MIN, 0), 1);
        assert_eq!(gcd(i64::MIN, i64::MIN), 1);
    }

    /// Exact wide-arithmetic check that `comb · m = 0` for every returned
    /// combination — the defining property of a Farkas row.
    fn assert_exact_invariants(m: &[Vec<i64>], rows: usize, cols: usize, out: &[Vec<i64>]) {
        for comb in out {
            assert!(comb.iter().all(|&w| w >= 0), "negative weight: {comb:?}");
            assert!(comb.iter().any(|&w| w > 0), "zero row returned");
            let mut sums = vec![0i128; cols];
            for (&w, row) in comb.iter().zip(&m[..rows]) {
                for (s, &x) in sums.iter_mut().zip(row) {
                    *s += i128::from(w) * i128::from(x);
                }
            }
            for (c, s) in sums.iter().enumerate() {
                assert_eq!(*s, 0, "x·M ≠ 0 at column {c} for {comb:?}");
            }
        }
    }

    #[test]
    fn overflowing_combination_is_dropped_not_wrapped() {
        // Combining rows 0 and 1 on column 0 sums the second column:
        // MIN + MIN ≡ 0 (mod 2⁶⁴), so the pre-fix wrapping arithmetic
        // fabricated a "zero" column and emitted x = (1, 1, 0), which is
        // NOT an invariant (the true sum is −2⁶⁴). The third row forces
        // column 0 to be eliminated first (it has the fewest pos×neg
        // pairings). Post-fix the overflowing combination is dropped and
        // nothing is returned.
        let m = vec![vec![1, i64::MIN], vec![-1, i64::MIN], vec![0, 1]];
        let out = farkas_capped(&m, 3, 2, usize::MAX);
        assert_exact_invariants(&m, 3, 2, &out);
        assert!(out.is_empty(), "no exact invariant exists: {out:?}");
    }

    #[test]
    fn every_combined_row_is_normalised() {
        // column 0 is eliminated first; the rows combined on column 1
        // start with a zero, which once kept the gcd fold at 1 and
        // returned [2,2,0,2] and [22,14,2,0]
        let m = vec![vec![-2, 1], vec![3, -2], vec![1, 3], vec![-1, 1]];
        let out = farkas_capped(&m, 4, 2, usize::MAX);
        assert_exact_invariants(&m, 4, 2, &out);
        assert_eq!(out, vec![vec![1, 1, 0, 1], vec![11, 7, 1, 0]]);
    }

    #[test]
    fn nonzero_gcd_skips_zeros_and_stops_at_one() {
        assert_eq!(nonzero_gcd(&[0, 4, 0, 6]), 2);
        assert_eq!(nonzero_gcd(&[0, 0]), 0);
        assert_eq!(nonzero_gcd(&[3, 2, i64::MIN]), 1);
    }

    #[test]
    fn transition_invariants_capped_matches_uncapped_on_small_nets() {
        let net = cycle_net();
        assert_eq!(
            transition_invariants(&net),
            transition_invariants_capped(&net, 4)
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Random matrix with entries large enough that Farkas
        /// combinations overflow `i64` unless every step is checked.
        fn random_matrix(seed: u64) -> (Vec<Vec<i64>>, usize, usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rng.gen_range(1..6usize);
            let cols = rng.gen_range(1..5usize);
            let m = (0..rows)
                .map(|_| {
                    (0..cols)
                        .map(|_| {
                            let magnitude: i64 = if rng.gen_bool(0.3) {
                                rng.gen_range(0..i64::MAX / 2)
                            } else {
                                rng.gen_range(0..8)
                            };
                            if rng.gen_bool(0.5) {
                                -magnitude
                            } else {
                                magnitude
                            }
                        })
                        .collect()
                })
                .collect();
            (m, rows, cols)
        }

        proptest! {
            /// Every row Farkas returns — capped or not, huge entries or
            /// not — is an exact non-negative solution of `x·M = 0` under
            /// i128 arithmetic. Pins the checked-combination, total-gcd,
            /// and capping fixes at once.
            #[test]
            fn farkas_rows_are_exact_solutions(seed in 0u64..1u64 << 48) {
                let (m, rows, cols) = random_matrix(seed);
                for cap in [usize::MAX, 8] {
                    let out = farkas_capped(&m, rows, cols, cap);
                    assert_exact_invariants(&m, rows, cols, &out);
                }
            }
        }
    }
}
