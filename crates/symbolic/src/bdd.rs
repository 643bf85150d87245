//! A from-scratch reduced ordered binary decision diagram (ROBDD) engine.
//!
//! Implements the classical Bryant construction [2]: hash-consed nodes in a
//! fixed variable order, an ITE-based apply, existential quantification,
//! the relational product `∃cube. (f ∧ g)` that image computation runs on,
//! variable renaming (also against the order), and model counting.
//!
//! The unique table is open-addressed. ITE, relational-product and rename
//! results live in lossy, direct-mapped computed tables (Brace, Rudell and
//! Bryant, DAC 1990): each key has one slot, a new result overwrites the
//! old one, and the tables persist across calls, so every image of a
//! fixpoint reuses the work of the images before it. All four tables hash
//! with petri's multiply-rotate [`hash_words`] and double together with the
//! node store, which bounds them by a constant number of bytes per node.
//!
//! The engine does not garbage-collect: the paper's comparison metric is
//! *peak* BDD size, so keeping everything allocated and reporting both the
//! high-water mark of live nodes and the total allocation is exactly what
//! the evaluation needs.

use petri::hash_words;

/// Index of a BDD node within its [`Bdd`] manager.
///
/// `NodeId`s are only meaningful relative to the manager that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The constant **false** function.
pub const BDD_FALSE: BddRef = BddRef(0);
/// The constant **true** function.
pub const BDD_TRUE: BddRef = BddRef(1);

const TERMINAL_VAR: u32 = u32::MAX;

/// Slots of a fresh unique table.
const INITIAL_SLOTS: usize = 1 << 12;
/// Each computed table has `2^-CACHE_SHIFT` as many entries as the unique
/// table has slots: between a quarter and a half entry per node.
const CACHE_SHIFT: u32 = 3;

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
}

/// The slot of a two-word key in a table of `len` slots (a power of two):
/// the top bits of its multiply-rotate hash.
fn slot_of(key: [u64; 2], len: usize) -> usize {
    (hash_words(&key) >> (64 - len.trailing_zeros())) as usize
}

/// One memoised result of a [`ComputedTable`].
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    key: [u32; 3],
    result: BddRef,
}

/// No operand reaches `u32::MAX` (node ids stop below it), so no real key
/// equals this one.
const VACANT: CacheEntry = CacheEntry {
    key: [u32::MAX; 3],
    result: BDD_FALSE,
};

/// A lossy, direct-mapped computed table: a key hashes to exactly one
/// entry, and storing a result overwrites whatever that entry held.
#[derive(Debug)]
struct ComputedTable {
    entries: Vec<CacheEntry>,
}

impl ComputedTable {
    fn new(len: usize) -> Self {
        ComputedTable {
            entries: vec![VACANT; len],
        }
    }

    fn slot(&self, [a, b, c]: [u32; 3]) -> usize {
        slot_of(
            [u64::from(a) << 32 | u64::from(b), u64::from(c)],
            self.entries.len(),
        )
    }

    fn get(&self, key: [u32; 3]) -> Option<BddRef> {
        let entry = self.entries[self.slot(key)];
        (entry.key == key).then_some(entry.result)
    }

    fn put(&mut self, key: [u32; 3], result: BddRef) {
        let i = self.slot(key);
        self.entries[i] = CacheEntry { key, result };
    }

    /// Doubles the table, re-placing the results it holds.
    fn grow(&mut self) {
        let len = 2 * self.entries.len();
        let old = std::mem::replace(&mut self.entries, vec![VACANT; len]);
        for entry in old.into_iter().filter(|e| e.key != VACANT.key) {
            self.put(entry.key, entry.result);
        }
    }
}

/// A variable renaming registered with one [`Bdd`] manager by
/// [`Bdd::renaming`]. Like a [`BddRef`], it is only meaningful there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Renaming(u32);

#[derive(Debug)]
struct RenameMap {
    /// `(from, to)` for every variable the map moves, by `from`.
    moves: Vec<(u32, u32)>,
    /// One past the deepest variable the map moves: a function whose top
    /// variable is `limit` or deeper keeps every variable it has.
    limit: u32,
}

/// A BDD manager: owns the node store and all operation caches.
///
/// # Examples
///
/// ```
/// use symbolic::{Bdd, BDD_FALSE};
///
/// let mut bdd = Bdd::new(4);
/// let x0 = bdd.var(0);
/// let x1 = bdd.var(1);
/// let f = bdd.and(x0, x1);
/// assert_eq!(bdd.eval(f, &[true, true, false, false]), true);
/// assert_eq!(bdd.eval(f, &[true, false, false, false]), false);
/// let g = bdd.not(f);
/// assert_eq!(bdd.and(f, g), BDD_FALSE);
/// ```
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    /// Open-addressing unique table of node ids, at most half full. The
    /// terminals are never hashed, so id 0 marks a free slot.
    unique: Vec<u32>,
    ite_cache: ComputedTable,
    and_exists_cache: ComputedTable,
    rename_cache: ComputedTable,
    renamings: Vec<RenameMap>,
    nvars: u32,
}

impl Bdd {
    /// Creates a manager over variables `0..nvars`.
    pub fn new(nvars: usize) -> Self {
        let nodes = vec![
            Node {
                var: TERMINAL_VAR,
                lo: BDD_FALSE,
                hi: BDD_FALSE,
            },
            Node {
                var: TERMINAL_VAR,
                lo: BDD_TRUE,
                hi: BDD_TRUE,
            },
        ];
        Bdd {
            nodes,
            unique: vec![0; INITIAL_SLOTS],
            ite_cache: ComputedTable::new(INITIAL_SLOTS >> CACHE_SHIFT),
            and_exists_cache: ComputedTable::new(INITIAL_SLOTS >> CACHE_SHIFT),
            rename_cache: ComputedTable::new(INITIAL_SLOTS >> CACHE_SHIFT),
            renamings: Vec::new(),
            nvars: u32::try_from(nvars).expect("variable count fits in u32"),
        }
    }

    /// Number of variables in the order.
    pub fn var_count(&self) -> usize {
        self.nvars as usize
    }

    /// Total nodes ever allocated (terminals included).
    pub fn allocated_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn var_of(&self, f: BddRef) -> u32 {
        self.nodes[f.index()].var
    }

    fn unique_slot(&self, node: Node) -> usize {
        slot_of(
            [
                u64::from(node.var),
                u64::from(node.lo.0) << 32 | u64::from(node.hi.0),
            ],
            self.unique.len(),
        )
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        let mask = self.unique.len() - 1;
        let mut i = self.unique_slot(node);
        loop {
            let id = self.unique[i];
            if id == 0 {
                break;
            }
            let n = self.nodes[id as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return BddRef(id);
            }
            i = (i + 1) & mask;
        }
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("node count fits in u32");
        self.nodes.push(node);
        self.unique[i] = id;
        if 2 * self.nodes.len() > self.unique.len() {
            self.grow();
        }
        BddRef(id)
    }

    /// Doubles the unique table and, with it, every computed table.
    fn grow(&mut self) {
        self.unique = vec![0; 2 * self.unique.len()];
        let mask = self.unique.len() - 1;
        for id in 2..self.nodes.len() {
            let mut i = self.unique_slot(self.nodes[id]);
            while self.unique[i] != 0 {
                i = (i + 1) & mask;
            }
            self.unique[i] = id as u32;
        }
        self.ite_cache.grow();
        self.and_exists_cache.grow();
        self.rename_cache.grow();
    }

    fn checked_var(&self, v: usize) -> u32 {
        assert!(
            v < self.nvars as usize,
            "variable {v} out of order 0..{}",
            self.nvars
        );
        v as u32
    }

    /// The single-variable function `x_v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the variable order.
    pub fn var(&mut self, v: usize) -> BddRef {
        let v = self.checked_var(v);
        self.mk(v, BDD_FALSE, BDD_TRUE)
    }

    /// The negated single-variable function `¬x_v`.
    pub fn nvar(&mut self, v: usize) -> BddRef {
        let v = self.checked_var(v);
        self.mk(v, BDD_TRUE, BDD_FALSE)
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        if f == BDD_TRUE {
            return g;
        }
        if f == BDD_FALSE {
            return h;
        }
        // ite(f, f, h) = ite(f, 1, h) and ite(f, g, f) = ite(f, g, 0)
        let g = if g == f { BDD_TRUE } else { g };
        let h = if h == f { BDD_FALSE } else { h };
        if g == h {
            return g;
        }
        if g == BDD_TRUE && h == BDD_FALSE {
            return f;
        }
        // one key per commutative pair: f ∧ g = g ∧ f and f ∨ h = h ∨ f
        let (f, g, h) = match (g, h) {
            (g, BDD_FALSE) if g < f => (g, f, h),
            (BDD_TRUE, h) if h < f => (h, g, f),
            _ => (f, g, h),
        };
        let key = [f.0, g.0, h.0];
        if let Some(r) = self.ite_cache.get(key) {
            return r;
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        self.ite_cache.put(key, r);
        r
    }

    fn cofactors(&self, f: BddRef, var: u32) -> (BddRef, BddRef) {
        let n = self.nodes[f.index()];
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, g, BDD_FALSE)
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, BDD_TRUE, g)
    }

    /// Negation `¬f`.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        self.ite(f, BDD_FALSE, BDD_TRUE)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Difference `f ∧ ¬g`, as `ite(g, 0, f)`: no complement of `g` is
    /// built.
    pub fn diff(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(g, BDD_FALSE, f)
    }

    /// The positive cube `x_v ∧ …` over every variable in `vars` (any
    /// order, repeats allowed): the quantified set of
    /// [`and_exists`](Self::and_exists).
    pub fn cube(&mut self, vars: &[usize]) -> BddRef {
        let mut vars: Vec<u32> = vars.iter().map(|&v| self.checked_var(v)).collect();
        vars.sort_unstable();
        vars.dedup();
        vars.into_iter()
            .rev()
            .fold(BDD_TRUE, |rest, v| self.mk(v, BDD_FALSE, rest))
    }

    /// Existential quantification of every variable in `vars`.
    pub fn exists(&mut self, f: BddRef, vars: &[usize]) -> BddRef {
        let cube = self.cube(vars);
        self.and_exists(f, BDD_TRUE, cube)
    }

    /// The relational product `∃cube. (f ∧ g)` computed in one pass — the
    /// workhorse of symbolic image computation. `cube` is a positive cube
    /// from [`cube`](Self::cube). Results persist across calls, keyed by
    /// `(f, g, cube)` with `f` and `g` in a fixed order.
    pub fn and_exists(&mut self, f: BddRef, g: BddRef, cube: BddRef) -> BddRef {
        if f == BDD_FALSE || g == BDD_FALSE {
            return BDD_FALSE;
        }
        let (f, g) = if g < f { (g, f) } else { (f, g) };
        // f ∧ f = f; the constant true sorts before every inner node
        let f = if f == g { BDD_TRUE } else { f };
        if g == BDD_TRUE {
            return BDD_TRUE;
        }
        let top = self.var_of(f).min(self.var_of(g));
        // quantified variables above both operands quantify nothing
        let mut cube = cube;
        while self.var_of(cube) < top {
            cube = self.nodes[cube.index()].hi;
        }
        if cube == BDD_TRUE {
            return self.and(f, g);
        }
        let key = [f.0, g.0, cube.0];
        if let Some(r) = self.and_exists_cache.get(key) {
            return r;
        }
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let r = if self.var_of(cube) == top {
            let rest = self.nodes[cube.index()].hi;
            let lo = self.and_exists(f0, g0, rest);
            if lo == BDD_TRUE {
                BDD_TRUE
            } else {
                let hi = self.and_exists(f1, g1, rest);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists(f0, g0, cube);
            let hi = self.and_exists(f1, g1, cube);
            self.mk(top, lo, hi)
        };
        self.and_exists_cache.put(key, r);
        r
    }

    /// Registers for [`rename`](Self::rename) the renaming that replaces
    /// `x_v` by `x_w` for each pair `(v, w)` of `moves` and keeps every
    /// other variable. Every call returns a fresh handle, so the rename
    /// table can never answer one map with another map's result.
    ///
    /// # Panics
    ///
    /// Panics if a variable lies outside the order or is moved twice.
    pub fn renaming(&mut self, moves: &[(usize, usize)]) -> Renaming {
        let mut moves: Vec<(u32, u32)> = moves
            .iter()
            .map(|&(v, w)| (self.checked_var(v), self.checked_var(w)))
            .filter(|&(v, w)| v != w)
            .collect();
        moves.sort_unstable();
        assert!(
            moves.windows(2).all(|pair| pair[0].0 != pair[1].0),
            "a renaming moves each variable once"
        );
        let limit = moves.last().map_or(0, |&(v, _)| v + 1);
        self.renamings.push(RenameMap { moves, limit });
        Renaming(u32::try_from(self.renamings.len() - 1).expect("renaming count fits in u32"))
    }

    /// `f` under a renaming registered by [`renaming`](Self::renaming).
    /// The renaming need not keep the order: a node whose new variable
    /// would not lie above its renamed children is rebuilt through
    /// [`ite`](Self::ite).
    pub fn rename(&mut self, f: BddRef, renaming: Renaming) -> BddRef {
        let var = self.var_of(f);
        // terminals sit below every limit
        if var >= self.renamings[renaming.0 as usize].limit {
            return f;
        }
        let key = [f.0, renaming.0, 0];
        if let Some(r) = self.rename_cache.get(key) {
            return r;
        }
        let moves = &self.renamings[renaming.0 as usize].moves;
        let new_var = match moves.binary_search_by_key(&var, |&(from, _)| from) {
            Ok(i) => moves[i].1,
            Err(_) => var,
        };
        let n = self.nodes[f.index()];
        let lo = self.rename(n.lo, renaming);
        let hi = self.rename(n.hi, renaming);
        let r = if new_var < self.var_of(lo) && new_var < self.var_of(hi) {
            self.mk(new_var, lo, hi)
        } else {
            let x = self.mk(new_var, BDD_FALSE, BDD_TRUE);
            self.ite(x, hi, lo)
        };
        self.rename_cache.put(key, r);
        r
    }

    /// Evaluates `f` under a full assignment (index = variable).
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            if cur == BDD_TRUE {
                return true;
            }
            if cur == BDD_FALSE {
                return false;
            }
            let n = self.nodes[cur.index()];
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
    }

    /// Number of satisfying assignments of `f` counted over `k` relevant
    /// variables, assuming `f` only depends on variables from that set.
    ///
    /// This is [`sat_count_total`](Self::sat_count_total) renormalized: a
    /// function over the first `k` of `n` manager variables has each model
    /// counted `2^(n−k)` times by the total count.
    pub fn sat_count_over(&self, f: BddRef, k: usize) -> f64 {
        let n = self.nvars as i32;
        self.sat_count_total(f) / 2f64.powi(n - k as i32)
    }

    /// Counts satisfying assignments over **all** manager variables.
    pub fn sat_count_total(&self, f: BddRef) -> f64 {
        let inner = self.inner_nodes(f);
        let mut counts: Vec<f64> = Vec::with_capacity(inner.len());
        // a count per node over the variables below it, children first
        let count = |counts: &[f64], g: BddRef| match g {
            BDD_FALSE => 0.0,
            BDD_TRUE => 1.0,
            _ => counts[inner.binary_search(&g.0).expect("a reachable node")],
        };
        let below =
            |var: u32, g: BddRef| 2f64.powi((self.var_of(g).min(self.nvars) - var - 1) as i32);
        for &id in &inner {
            let n = self.nodes[id as usize];
            let c = count(&counts, n.lo) * below(n.var, n.lo)
                + count(&counts, n.hi) * below(n.var, n.hi);
            counts.push(c);
        }
        count(&counts, f) * 2f64.powi(self.var_of(f).min(self.nvars) as i32)
    }

    /// Extracts one satisfying assignment as a vector indexed by variable:
    /// `Some(true/false)` for variables on the chosen path, `None` for
    /// don't-cares. Returns `None` when `f` is unsatisfiable.
    pub fn some_cube(&self, f: BddRef) -> Option<Vec<Option<bool>>> {
        if f == BDD_FALSE {
            return None;
        }
        let mut cube = vec![None; self.nvars as usize];
        let mut cur = f;
        while cur != BDD_TRUE {
            let n = self.nodes[cur.index()];
            if n.lo != BDD_FALSE {
                cube[n.var as usize] = Some(false);
                cur = n.lo;
            } else {
                cube[n.var as usize] = Some(true);
                cur = n.hi;
            }
        }
        Some(cube)
    }

    /// Number of distinct nodes reachable from `f` (its BDD size),
    /// terminals excluded.
    pub fn size(&self, f: BddRef) -> usize {
        self.inner_nodes(f).len()
    }

    /// The ids of the inner nodes reachable from `f`, in increasing order.
    /// A node is always younger than its children, so this lists every
    /// node after its children.
    fn inner_nodes(&self, f: BddRef) -> Vec<u32> {
        let mut seen = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            let (word, bit) = (g.index() / 64, g.index() % 64);
            if g == BDD_FALSE || g == BDD_TRUE || seen[word] >> bit & 1 == 1 {
                continue;
            }
            seen[word] |= 1 << bit;
            let n = self.nodes[g.index()];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        let mut ids = Vec::new();
        for (word, &bits) in seen.iter().enumerate() {
            let mut rest = bits;
            while rest != 0 {
                ids.push((word * 64) as u32 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_behave() {
        let mut b = Bdd::new(2);
        assert_eq!(b.and(BDD_TRUE, BDD_FALSE), BDD_FALSE);
        assert_eq!(b.or(BDD_TRUE, BDD_FALSE), BDD_TRUE);
        assert_eq!(b.not(BDD_TRUE), BDD_FALSE);
        assert_eq!(b.not(BDD_FALSE), BDD_TRUE);
    }

    #[test]
    fn hash_consing_canonicalizes() {
        let mut b = Bdd::new(3);
        let x = b.var(0);
        let y = b.var(1);
        let f1 = b.and(x, y);
        let f2 = b.and(y, x);
        assert_eq!(f1, f2, "structural equality by construction");
        let nx = b.not(x);
        let back = b.not(nx);
        assert_eq!(back, x, "double negation is identity");
    }

    #[test]
    fn de_morgan_holds() {
        let mut b = Bdd::new(2);
        let x = b.var(0);
        let y = b.var(1);
        let lhs = {
            let a = b.and(x, y);
            b.not(a)
        };
        let rhs = {
            let nx = b.not(x);
            let ny = b.not(y);
            b.or(nx, ny)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_and_iff_are_complements() {
        let mut b = Bdd::new(2);
        let x = b.var(0);
        let y = b.var(1);
        let xo = b.xor(x, y);
        let eq = b.iff(x, y);
        let neq = b.not(eq);
        assert_eq!(xo, neq);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut b = Bdd::new(3);
        let x = b.var(0);
        let y = b.var(1);
        let z = b.var(2);
        let xy = b.and(x, y);
        let f = b.or(xy, z); // (x ∧ y) ∨ z
        for bits in 0..8u8 {
            let a = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let expected = (a[0] && a[1]) || a[2];
            assert_eq!(b.eval(f, &a), expected, "{a:?}");
        }
    }

    #[test]
    fn exists_quantifies() {
        let mut b = Bdd::new(2);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        assert_eq!(b.exists(f, &[0]), y);
        assert_eq!(b.exists(f, &[1]), x);
        assert_eq!(b.exists(f, &[0, 1]), BDD_TRUE);
        let none = b.exists(BDD_FALSE, &[0, 1]);
        assert_eq!(none, BDD_FALSE);
    }

    #[test]
    fn and_exists_equals_composed_ops() {
        let mut b = Bdd::new(4);
        let x0 = b.var(0);
        let x1 = b.var(1);
        let x2 = b.var(2);
        let x3 = b.var(3);
        let f = {
            let a = b.or(x0, x2);
            b.and(a, x3)
        };
        let g = {
            let a = b.xor(x1, x2);
            b.or(a, x0)
        };
        let cube = b.cube(&[2, 0]);
        let direct = b.and_exists(f, g, cube);
        let composed = {
            let fg = b.and(f, g);
            b.exists(fg, &[0, 2])
        };
        assert_eq!(direct, composed);
    }

    #[test]
    fn rename_shifts_variables() {
        let mut b = Bdd::new(4);
        let x1 = b.var(1);
        let x3 = b.var(3);
        let f = b.and(x1, x3);
        // monotone map: 1 -> 0, 3 -> 2
        let shift = b.renaming(&[(1, 0), (3, 2)]);
        let g = b.rename(f, shift);
        let x0 = b.var(0);
        let x2 = b.var(2);
        let expected = b.and(x0, x2);
        assert_eq!(g, expected);
    }

    #[test]
    fn sat_count_total_counts() {
        let mut b = Bdd::new(3);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.or(x, y); // 6 of 8 assignments
        assert_eq!(b.sat_count_total(f), 6.0);
        assert_eq!(b.sat_count_total(BDD_TRUE), 8.0);
        assert_eq!(b.sat_count_total(BDD_FALSE), 0.0);
        let single = {
            let nx = b.not(x);
            let ny = b.not(y);
            let z = b.var(2);
            let a = b.and(nx, ny);
            b.and(a, z)
        };
        assert_eq!(b.sat_count_total(single), 1.0);
    }

    #[test]
    fn sat_count_over_renormalizes() {
        let mut b = Bdd::new(3);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.or(x, y); // depends only on the first two variables
        assert_eq!(b.sat_count_over(f, 2), 3.0);
        assert_eq!(b.sat_count_over(BDD_TRUE, 2), 4.0);
    }

    #[test]
    fn size_counts_distinct_nodes() {
        let mut b = Bdd::new(2);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        assert_eq!(b.size(f), 2);
        assert_eq!(b.size(BDD_TRUE), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn var_out_of_range_panics() {
        let mut b = Bdd::new(2);
        b.var(2);
    }

    /// Variables of the brute-force tests: a function's truth table is
    /// then one `u64`, bit `a` holding its value under assignment `a`
    /// (bit `v` of `a` is `x_v`).
    const N: usize = 6;

    /// A splitmix64 stream of deterministic test bits.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn assignment(a: u64) -> Vec<bool> {
        (0..N).map(|v| a >> v & 1 == 1).collect()
    }

    /// A random function over the `N` variables, and its truth table.
    fn random_function(b: &mut Bdd, bits: &mut Bits) -> (BddRef, u64) {
        let table = bits.next();
        let mut f = BDD_FALSE;
        for a in (0..1u64 << N).filter(|a| table >> a & 1 == 1) {
            let mut minterm = BDD_TRUE;
            for v in 0..N {
                let lit = if a >> v & 1 == 1 { b.var(v) } else { b.nvar(v) };
                minterm = b.and(minterm, lit);
            }
            f = b.or(f, minterm);
        }
        (f, table)
    }

    #[test]
    fn cube_relational_product_is_and_then_exists_across_calls() {
        // one manager throughout: every product runs after unrelated
        // operations have filled the persistent tables, and the first
        // rounds are asked again at the end
        let mut b = Bdd::new(N);
        let mut bits = Bits(7);
        let mut asked = Vec::new();
        for round in 0..64 {
            let (f, tf) = random_function(&mut b, &mut bits);
            let (g, tg) = random_function(&mut b, &mut bits);
            for _ in 0..3 {
                let vars: Vec<usize> = (0..N).filter(|_| bits.next() & 1 == 1).collect();
                let cube = b.cube(&vars);
                let product = b.and_exists(f, g, cube);
                let fg = b.and(f, g);
                assert_eq!(product, b.exists(fg, &vars), "round {round}, {vars:?}");
                assert_eq!(product, b.and_exists(g, f, cube), "operand order");
                let kept: u64 = (0..N).filter(|v| !vars.contains(v)).map(|v| 1 << v).sum();
                for a in 0..1u64 << N {
                    let expected = (0..1u64 << N)
                        .filter(|w| w & kept == a & kept)
                        .any(|w| (tf & tg) >> w & 1 == 1);
                    assert_eq!(
                        b.eval(product, &assignment(a)),
                        expected,
                        "round {round}, {vars:?}, a = {a:06b}"
                    );
                }
                asked.push((f, g, vars, product));
            }
            // unrelated work in between: a renaming and a fresh function
            let shift = b.renaming(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
            let (h, _) = random_function(&mut b, &mut bits);
            b.rename(h, shift);
        }
        for (f, g, vars, product) in asked {
            let cube = b.cube(&vars);
            assert_eq!(b.and_exists(f, g, cube), product, "asked again");
        }
    }

    #[test]
    fn renaming_against_the_order_agrees_with_eval() {
        let mut b = Bdd::new(N);
        let x0 = b.var(0);
        let nx1 = b.nvar(1);
        let f = b.and(x0, nx1);
        let swap = b.renaming(&[(0, 1), (1, 0)]);
        let g = b.rename(f, swap);
        let x1 = b.var(1);
        let nx0 = b.nvar(0);
        assert_eq!(g, b.and(x1, nx0));

        let mut bits = Bits(11);
        for round in 0..64 {
            let (f, tf) = random_function(&mut b, &mut bits);
            // two random permutations of the same function, each through
            // its own registered map
            for _ in 0..2 {
                let mut map: Vec<usize> = (0..N).collect();
                for i in (1..N).rev() {
                    map.swap(i, (bits.next() % (i as u64 + 1)) as usize);
                }
                let moves: Vec<(usize, usize)> = map.iter().copied().enumerate().collect();
                let renaming = b.renaming(&moves);
                let g = b.rename(f, renaming);
                for a in 0..1u64 << N {
                    // g(a) = f(a'), where x_v of a' is x_map[v] of a
                    let moved: u64 = (0..N)
                        .filter(|&v| a >> map[v] & 1 == 1)
                        .map(|v| 1 << v)
                        .sum();
                    assert_eq!(
                        b.eval(g, &assignment(a)),
                        tf >> moved & 1 == 1,
                        "round {round}, map {map:?}, a = {a:06b}"
                    );
                }
                assert_eq!(b.rename(f, renaming), g, "asked again");
            }
        }
    }
}
