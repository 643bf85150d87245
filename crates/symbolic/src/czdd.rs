//! The zero-suppressed decision diagram (ZDD) manager for set families.
//!
//! ZDDs (Minato) canonically represent *families of sets* over a fixed
//! element universe — exactly the shape of Generalized Petri Net markings
//! (`P → 2^(2^T)`) and valid-set relations. Where an explicit family stores
//! each transition set separately, a ZDD shares common sub-structure, which
//! is what makes valid-set relations with exponentially many members
//! tractable.
//!
//! Terminals: ⊥ = the empty family, ⊤ = the family containing only the
//! empty set. A node `(v, lo, hi)` represents `lo ∪ {s ∪ {v} | s ∈ hi}`
//! with the zero-suppression rule `hi = ⊥ ⇒ node ≡ lo`.
//!
//! [`ConcurrentZdd`] is `Send + Sync` and every method takes `&self`, so
//! one manager can be shared across worker threads (e.g. behind an `Arc`
//! by the generalized partial-order engine's parallel frontier).
//!
//! # Design
//!
//! The node store is split into `2^k` **shards**. Each shard owns
//!
//! * an append-only node **arena** (`RwLock<Vec<Node>>`) — nodes are never
//!   mutated after insertion, so readers only take the cheap read lock;
//! * a **unique table** (`Mutex<HashMap<(var, lo, hi), ZddRef>>`) — the
//!   hash-consing map that guarantees canonicity;
//! * an **op cache** (`Mutex<HashMap<(Op, f, g), ZddRef>>`) memoizing
//!   union / intersect / diff / join results.
//!
//! A node's shard is chosen by hashing its `(var, lo, hi)` key, so *every*
//! thread constructing a structurally equal node lands on the same shard
//! and receives the same [`ZddRef`] — canonicity (and therefore O(1)
//! structural equality) holds across threads by construction. Node ids
//! encode `shard << 28 | index-within-shard`; shard 0 pre-seeds the two
//! terminals so [`ZDD_EMPTY`] (id 0) and [`ZDD_UNIT`] (id 1) keep their
//! global meaning.
//!
//! The whole design is safe Rust (`#![forbid(unsafe_code)]` stands): no
//! hand-rolled atomics over packed nodes, just fine-grained locking that
//! is uncontended in practice because operations on distinct sub-diagrams
//! hash to distinct shards.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

/// Index of a ZDD node within its [`ConcurrentZdd`]. Within one manager
/// the handle is canonical: equal families have equal handles.
///
/// # Examples
///
/// ```
/// use symbolic::ConcurrentZdd;
///
/// let z = ConcurrentZdd::new(3);
/// // family {{0,1},{2}}
/// let a = z.family(&[vec![0, 1], vec![2]]);
/// let b = z.family(&[vec![2], vec![0]]);
/// assert_eq!(z.count(z.union(a, b)), 3);
/// assert_eq!(z.sets(z.intersect(a, b)), vec![vec![2]]);
/// assert_eq!(z.intersect(a, b), z.singleton(&[2]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZddRef(u32);

/// The empty family `∅`.
pub const ZDD_EMPTY: ZddRef = ZddRef(0);
/// The family `{∅}` containing just the empty set.
pub const ZDD_UNIT: ZddRef = ZddRef(1);

const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: ZddRef,
    hi: ZddRef,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Union,
    Intersect,
    Diff,
    Join,
}

/// log₂ of the shard count.
const SHARD_BITS: u32 = 4;
/// Number of unique-table / arena / op-cache shards.
const SHARDS: usize = 1 << SHARD_BITS;
/// Bits of a [`ZddRef`] holding the within-shard arena index.
const INDEX_BITS: u32 = 32 - SHARD_BITS;
/// Mask extracting the within-shard arena index.
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;
/// Default per-shard op-cache entry cap (see
/// [`ConcurrentZdd::with_cache_capacity`]).
const DEFAULT_OP_CACHE_CAPACITY: usize = 1 << 18;

/// Acquires a mutex even if another thread panicked while holding it; all
/// critical sections below perform only non-panicking map/vec inserts, so
/// the protected data is never torn.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A generationally evicted memo table: lookups consult the `current`
/// generation first and fall back to (promoting from) `previous`; once
/// `current` fills its per-shard cap, `previous` is dropped wholesale and
/// `current` takes its place. Recently used entries therefore survive at
/// least one full generation, and the table never holds more than two
/// generations' worth of entries — bounding memory on long runs.
#[derive(Default)]
struct OpCache {
    current: HashMap<(Op, ZddRef, ZddRef), ZddRef>,
    previous: HashMap<(Op, ZddRef, ZddRef), ZddRef>,
}

struct Shard {
    nodes: RwLock<Vec<Node>>,
    unique: Mutex<HashMap<(u32, ZddRef, ZddRef), ZddRef>>,
    cache: Mutex<OpCache>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            nodes: RwLock::new(Vec::new()),
            unique: Mutex::new(HashMap::new()),
            cache: Mutex::new(OpCache::default()),
        }
    }
}

/// A sharded-lock, shareable ZDD manager: owns the node store and
/// operation caches (see the module docs).
///
/// Structurally equal families built through the same manager — from any
/// thread — receive the same [`ZddRef`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use symbolic::ConcurrentZdd;
///
/// let z = Arc::new(ConcurrentZdd::new(3));
/// let refs: Vec<_> = std::thread::scope(|s| {
///     (0..4)
///         .map(|_| {
///             let z = Arc::clone(&z);
///             s.spawn(move || z.family(&[vec![0, 1], vec![2]]))
///         })
///         .collect::<Vec<_>>()
///         .into_iter()
///         .map(|h| h.join().unwrap())
///         .collect()
/// });
/// assert!(refs.windows(2).all(|w| w[0] == w[1]), "canonical across threads");
/// assert_eq!(z.count(refs[0]), 2);
/// ```
pub struct ConcurrentZdd {
    shards: Vec<Shard>,
    nvars: u32,
    cache_capacity: usize,
    unique_hits: AtomicU64,
    op_cache_hits: AtomicU64,
    op_cache_evictions: AtomicU64,
}

impl std::fmt::Debug for ConcurrentZdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentZdd")
            .field("nvars", &self.nvars)
            .field("allocated_nodes", &self.allocated_nodes())
            .field("unique_hits", &self.unique_hits())
            .field("op_cache_hits", &self.op_cache_hits())
            .field("op_cache_evictions", &self.op_cache_evictions())
            .finish()
    }
}

impl ConcurrentZdd {
    /// Creates a manager over elements `0..nvars` with the default
    /// per-shard op-cache capacity.
    pub fn new(nvars: usize) -> Self {
        Self::with_cache_capacity(nvars, DEFAULT_OP_CACHE_CAPACITY)
    }

    /// Creates a manager whose memo caches hold at most
    /// `2 × per_shard_capacity` entries per shard (two generations — see
    /// the eviction scheme on the op cache). Eviction only ever discards
    /// memoized results, never nodes: every operation recomputes to the
    /// same canonical [`ZddRef`], so results are identical at any capacity.
    pub fn with_cache_capacity(nvars: usize, per_shard_capacity: usize) -> Self {
        let shards: Vec<Shard> = (0..SHARDS).map(|_| Shard::new()).collect();
        // shard 0 owns the terminals at indices 0 and 1, so the shared
        // ZDD_EMPTY / ZDD_UNIT constants keep their ids in this manager
        {
            let mut nodes = shards[0]
                .nodes
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            nodes.push(Node {
                var: TERMINAL_VAR,
                lo: ZDD_EMPTY,
                hi: ZDD_EMPTY,
            });
            nodes.push(Node {
                var: TERMINAL_VAR,
                lo: ZDD_UNIT,
                hi: ZDD_UNIT,
            });
        }
        ConcurrentZdd {
            shards,
            nvars: u32::try_from(nvars).expect("element count fits in u32"),
            cache_capacity: per_shard_capacity.max(1),
            unique_hits: AtomicU64::new(0),
            op_cache_hits: AtomicU64::new(0),
            op_cache_evictions: AtomicU64::new(0),
        }
    }

    /// Number of elements in the universe.
    pub fn var_count(&self) -> usize {
        self.nvars as usize
    }

    /// Total nodes ever allocated (terminals included).
    pub fn allocated_nodes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.nodes.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// How many [`mk`](Self::new) requests were answered from the unique
    /// table instead of allocating a fresh node.
    pub fn unique_hits(&self) -> u64 {
        self.unique_hits.load(Ordering::Relaxed)
    }

    /// How many algebra operations were answered from the memo caches.
    pub fn op_cache_hits(&self) -> u64 {
        self.op_cache_hits.load(Ordering::Relaxed)
    }

    /// How many memoized operation results were discarded by generational
    /// cache eviction (0 until a shard's cache first fills its capacity).
    pub fn op_cache_evictions(&self) -> u64 {
        self.op_cache_evictions.load(Ordering::Relaxed)
    }

    /// Copies the node behind `f` out of its shard arena.
    fn node(&self, f: ZddRef) -> Node {
        let raw = f.0;
        let shard = (raw >> INDEX_BITS) as usize;
        let idx = (raw & INDEX_MASK) as usize;
        self.shards[shard]
            .nodes
            .read()
            .unwrap_or_else(PoisonError::into_inner)[idx]
    }

    fn var_of(&self, f: ZddRef) -> u32 {
        self.node(f).var
    }

    fn key_shard(var: u32, lo: ZddRef, hi: ZddRef) -> usize {
        let mut h = DefaultHasher::new();
        (var, lo, hi).hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }

    /// Hash-conses a node, applying the zero-suppression rule. The arena
    /// write happens under the shard's unique-table lock, so two threads
    /// racing on the same key always agree on the winner's id.
    fn mk(&self, var: u32, lo: ZddRef, hi: ZddRef) -> ZddRef {
        if hi == ZDD_EMPTY {
            return lo; // zero-suppression
        }
        let shard = &self.shards[Self::key_shard(var, lo, hi)];
        let mut unique = lock_ignore_poison(&shard.unique);
        if let Some(&r) = unique.get(&(var, lo, hi)) {
            self.unique_hits.fetch_add(1, Ordering::Relaxed);
            return r;
        }
        let idx = {
            let mut nodes = shard.nodes.write().unwrap_or_else(PoisonError::into_inner);
            nodes.push(Node { var, lo, hi });
            nodes.len() - 1
        };
        assert!(
            idx <= INDEX_MASK as usize,
            "shard arena exceeds 2^{INDEX_BITS} nodes"
        );
        let r = ZddRef(((Self::key_shard(var, lo, hi) as u32) << INDEX_BITS) | idx as u32);
        unique.insert((var, lo, hi), r);
        r
    }

    fn cached(&self, op: Op, f: ZddRef, g: ZddRef) -> Option<ZddRef> {
        let shard = &self.shards[Self::key_shard(op as u32, f, g)];
        let mut cache = lock_ignore_poison(&shard.cache);
        let key = (op, f, g);
        let mut hit = cache.current.get(&key).copied();
        if hit.is_none() {
            if let Some(r) = cache.previous.get(&key).copied() {
                // promote: survivors of the previous generation that are
                // still in use should outlive the next rotation too
                cache.current.insert(key, r);
                hit = Some(r);
            }
        }
        if hit.is_some() {
            self.op_cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn remember(&self, op: Op, f: ZddRef, g: ZddRef, r: ZddRef) {
        let shard = &self.shards[Self::key_shard(op as u32, f, g)];
        let mut cache = lock_ignore_poison(&shard.cache);
        cache.current.insert((op, f, g), r);
        if cache.current.len() >= self.cache_capacity {
            let retired = std::mem::take(&mut cache.current);
            let evicted = std::mem::replace(&mut cache.previous, retired);
            self.op_cache_evictions
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        }
    }

    /// The family containing exactly one set (given as element indices).
    ///
    /// # Panics
    ///
    /// Panics if an element is outside the universe.
    pub fn singleton(&self, set: &[usize]) -> ZddRef {
        let mut sorted: Vec<usize> = set.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut cur = ZDD_UNIT;
        for &e in sorted.iter().rev() {
            assert!((e as u32) < self.nvars, "element {e} out of universe");
            cur = self.mk(e as u32, ZDD_EMPTY, cur);
        }
        cur
    }

    /// The family containing each of the given sets.
    pub fn family(&self, sets: &[Vec<usize>]) -> ZddRef {
        let mut acc = ZDD_EMPTY;
        for s in sets {
            let one = self.singleton(s);
            acc = self.union(acc, one);
        }
        acc
    }

    fn cofactors(&self, f: ZddRef, var: u32) -> (ZddRef, ZddRef) {
        let n = self.node(f);
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, ZDD_EMPTY)
        }
    }

    /// Family union `f ∪ g`.
    pub fn union(&self, f: ZddRef, g: ZddRef) -> ZddRef {
        if f == g || g == ZDD_EMPTY {
            return f;
        }
        if f == ZDD_EMPTY {
            return g;
        }
        if let Some(r) = self.cached(Op::Union, f, g) {
            return r;
        }
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let top = vf.min(vg);
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let lo = self.union(f0, g0);
        let hi = self.union(f1, g1);
        let r = self.mk(top, lo, hi);
        self.remember(Op::Union, f, g, r);
        self.remember(Op::Union, g, f, r);
        r
    }

    /// Family intersection `f ∩ g` (sets belonging to both families).
    pub fn intersect(&self, f: ZddRef, g: ZddRef) -> ZddRef {
        if f == g {
            return f;
        }
        if f == ZDD_EMPTY || g == ZDD_EMPTY {
            return ZDD_EMPTY;
        }
        if let Some(r) = self.cached(Op::Intersect, f, g) {
            return r;
        }
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let r = if vf == vg {
            let (f0, f1) = self.cofactors(f, vf);
            let (g0, g1) = self.cofactors(g, vf);
            let lo = self.intersect(f0, g0);
            let hi = self.intersect(f1, g1);
            self.mk(vf, lo, hi)
        } else if vf < vg {
            // sets in f containing vf cannot be in g
            let f0 = self.node(f).lo;
            self.intersect(f0, g)
        } else {
            let g0 = self.node(g).lo;
            self.intersect(f, g0)
        };
        self.remember(Op::Intersect, f, g, r);
        self.remember(Op::Intersect, g, f, r);
        r
    }

    /// Family difference `f \ g` (sets of `f` not in `g`).
    pub fn diff(&self, f: ZddRef, g: ZddRef) -> ZddRef {
        if f == ZDD_EMPTY || f == g {
            return ZDD_EMPTY;
        }
        if g == ZDD_EMPTY {
            return f;
        }
        if let Some(r) = self.cached(Op::Diff, f, g) {
            return r;
        }
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let r = if vf == vg {
            let (f0, f1) = self.cofactors(f, vf);
            let (g0, g1) = self.cofactors(g, vf);
            let lo = self.diff(f0, g0);
            let hi = self.diff(f1, g1);
            self.mk(vf, lo, hi)
        } else if vf < vg {
            let node = self.node(f);
            let lo = self.diff(node.lo, g);
            self.mk(vf, lo, node.hi)
        } else {
            let g0 = self.node(g).lo;
            self.diff(f, g0)
        };
        self.remember(Op::Diff, f, g, r);
        r
    }

    /// The sub-family of sets **containing** element `e` (sets keep `e`).
    pub fn onset(&self, f: ZddRef, e: usize) -> ZddRef {
        self.split(f, e as u32, true, &mut HashMap::new())
    }

    /// The sub-family of sets **not containing** element `e`.
    pub fn offset(&self, f: ZddRef, e: usize) -> ZddRef {
        self.split(f, e as u32, false, &mut HashMap::new())
    }

    /// The [`onset`](Self::onset) (`with`) or [`offset`](Self::offset) of
    /// `f` at `e`. `memo` holds the result of every node above `e`, so a
    /// shared sub-diagram is walked once and the work is linear in the
    /// nodes of `f`, not in its paths.
    fn split(&self, f: ZddRef, e: u32, with: bool, memo: &mut HashMap<ZddRef, ZddRef>) -> ZddRef {
        let n = self.node(f);
        if n.var > e {
            // e cannot occur below (vars increase downward)
            return if with { ZDD_EMPTY } else { f };
        }
        if n.var == e {
            return if with {
                self.mk(e, ZDD_EMPTY, n.hi)
            } else {
                n.lo
            };
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let lo = self.split(n.lo, e, with, memo);
        let hi = self.split(n.hi, e, with, memo);
        let r = self.mk(n.var, lo, hi);
        memo.insert(f, r);
        r
    }

    /// The cross-join `f ⊔ g = {a ∪ b | a ∈ f, b ∈ g}`.
    pub fn join(&self, f: ZddRef, g: ZddRef) -> ZddRef {
        if f == ZDD_EMPTY || g == ZDD_EMPTY {
            return ZDD_EMPTY;
        }
        if f == ZDD_UNIT {
            return g;
        }
        if g == ZDD_UNIT {
            return f;
        }
        if let Some(r) = self.cached(Op::Join, f, g) {
            return r;
        }
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let top = vf.min(vg);
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        // sets with `top`: f1⊔g1 ∪ f1⊔g0 ∪ f0⊔g1; without: f0⊔g0
        let a = self.join(f1, g1);
        let b = self.join(f1, g0);
        let c = self.join(f0, g1);
        let hi = {
            let ab = self.union(a, b);
            self.union(ab, c)
        };
        let lo = self.join(f0, g0);
        let r = self.mk(top, lo, hi);
        self.remember(Op::Join, f, g, r);
        self.remember(Op::Join, g, f, r);
        r
    }

    /// Number of sets in the family, exact up to `u128::MAX` (saturating
    /// beyond — a family over ≤ 128 elements can never saturate).
    pub fn count(&self, f: ZddRef) -> u128 {
        let mut cache: HashMap<ZddRef, u128> = HashMap::new();
        self.count_rec(f, &mut cache)
    }

    fn count_rec(&self, f: ZddRef, cache: &mut HashMap<ZddRef, u128>) -> u128 {
        if f == ZDD_EMPTY {
            return 0;
        }
        if f == ZDD_UNIT {
            return 1;
        }
        if let Some(&c) = cache.get(&f) {
            return c;
        }
        let n = self.node(f);
        let c = self
            .count_rec(n.lo, cache)
            .saturating_add(self.count_rec(n.hi, cache));
        cache.insert(f, c);
        c
    }

    /// `true` if `f` is the empty family.
    pub fn is_empty(&self, f: ZddRef) -> bool {
        f == ZDD_EMPTY
    }

    /// Membership test: is `set` one of the family's sets?
    pub fn contains_set(&self, f: ZddRef, set: &[usize]) -> bool {
        let mut sorted: Vec<u32> = set.iter().map(|&e| e as u32).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut cur = f;
        let mut i = 0;
        loop {
            if cur == ZDD_EMPTY {
                return false;
            }
            if cur == ZDD_UNIT {
                return i == sorted.len();
            }
            let n = self.node(cur);
            if i < sorted.len() && sorted[i] == n.var {
                cur = n.hi;
                i += 1;
            } else if i < sorted.len() && sorted[i] < n.var {
                return false; // required element cannot occur anymore
            } else {
                cur = n.lo;
            }
        }
    }

    /// Materializes every set of the family, each sorted ascending; the
    /// family itself is returned in lexicographic order.
    pub fn sets(&self, f: ZddRef) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.sets_rec(f, &mut prefix, &mut out);
        out.sort();
        out
    }

    fn sets_rec(&self, f: ZddRef, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if f == ZDD_EMPTY {
            return;
        }
        if f == ZDD_UNIT {
            out.push(prefix.clone());
            return;
        }
        let n = self.node(f);
        self.sets_rec(n.lo, prefix, out);
        prefix.push(n.var as usize);
        self.sets_rec(n.hi, prefix, out);
        prefix.pop();
    }

    /// Materializes at most `k` sets of the family (depth-first order) —
    /// cheap even when the family is astronomically large.
    pub fn some_sets(&self, f: ZddRef, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.some_sets_rec(f, k, &mut prefix, &mut out);
        out
    }

    fn some_sets_rec(
        &self,
        f: ZddRef,
        k: usize,
        prefix: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if out.len() >= k || f == ZDD_EMPTY {
            return;
        }
        if f == ZDD_UNIT {
            out.push(prefix.clone());
            return;
        }
        let n = self.node(f);
        self.some_sets_rec(n.lo, k, prefix, out);
        if out.len() >= k {
            return;
        }
        prefix.push(n.var as usize);
        self.some_sets_rec(n.hi, k, prefix, out);
        prefix.pop();
    }

    /// Number of distinct nodes reachable from `f` (terminals excluded).
    pub fn size(&self, f: ZddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if n == ZDD_EMPTY || n == ZDD_UNIT || !seen.insert(n) {
                continue;
            }
            count += 1;
            let node = self.node(n);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        count
    }

    /// Exports the sub-diagrams rooted at `roots` as a portable node
    /// table: entries are `(var, lo, hi)` in dependency (children first)
    /// order, children referring to earlier entries by index. Terminals are
    /// implicit at indices 0 (`∅`) and 1 (`{∅}`); proper nodes are numbered
    /// from 2. Returned alongside are the roots translated to table
    /// indices.
    ///
    /// Node ids of this manager encode shard/index pairs, so the table —
    /// not the raw [`ZddRef`]s — is the only serializable form of a
    /// family: [`import`](Self::import) into this or any other manager over
    /// the same universe rebuilds the exact same families.
    pub fn export(&self, roots: &[ZddRef]) -> (Vec<(u32, u32, u32)>, Vec<u32>) {
        let mut index: HashMap<ZddRef, u32> = HashMap::from([(ZDD_EMPTY, 0), (ZDD_UNIT, 1)]);
        let mut table: Vec<(u32, u32, u32)> = Vec::new();
        for &root in roots {
            let mut stack = vec![(root, false)];
            while let Some((f, children_done)) = stack.pop() {
                if index.contains_key(&f) {
                    continue;
                }
                let n = self.node(f);
                if children_done {
                    table.push((n.var, index[&n.lo], index[&n.hi]));
                    index.insert(f, table.len() as u32 + 1);
                } else {
                    stack.push((f, true));
                    stack.push((n.hi, false));
                    stack.push((n.lo, false));
                }
            }
        }
        let roots_out = roots.iter().map(|r| index[r]).collect();
        (table, roots_out)
    }

    /// Rebuilds families from a node table produced by
    /// [`export`](Self::export), returning one [`ZddRef`] per root. Every
    /// node goes back through hash-consing, so the returned references are
    /// canonical in *this* manager regardless of where the table came from.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation: a variable
    /// outside the universe, a child index referring forward, a
    /// zero-suppression violation (`hi = ∅`), a child variable not strictly
    /// below its parent, or a root index out of range. A table that imports
    /// cleanly always denotes well-formed families.
    pub fn import(&self, table: &[(u32, u32, u32)], roots: &[u32]) -> Result<Vec<ZddRef>, String> {
        let nvars = self.nvars;
        let var_at = |i: usize| -> Option<u32> {
            if i < 2 {
                None // terminal
            } else {
                Some(table[i - 2].0)
            }
        };
        let mut refs: Vec<ZddRef> = vec![ZDD_EMPTY, ZDD_UNIT];
        for (pos, &(var, lo, hi)) in table.iter().enumerate() {
            let id = pos + 2;
            if var >= nvars {
                return Err(format!(
                    "node {id}: variable {var} outside universe of {nvars} elements"
                ));
            }
            let (lo, hi) = (lo as usize, hi as usize);
            if lo >= id || hi >= id {
                return Err(format!("node {id}: child index refers forward"));
            }
            if hi == 0 {
                return Err(format!(
                    "node {id}: empty hi child violates zero-suppression"
                ));
            }
            for child in [lo, hi] {
                if let Some(cv) = var_at(child) {
                    if cv <= var {
                        return Err(format!(
                            "node {id}: child variable {cv} not strictly below {var}"
                        ));
                    }
                }
            }
            refs.push(self.mk(var, refs[lo], refs[hi]));
        }
        let mut out = Vec::with_capacity(roots.len());
        for &r in roots {
            let r = r as usize;
            match refs.get(r) {
                Some(&f) => out.push(f),
                None => {
                    return Err(format!(
                        "root index {r} out of range for a table of {} nodes",
                        refs.len()
                    ))
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// A small zoo of families over a 6-element universe.
    fn zoo() -> Vec<Vec<Vec<usize>>> {
        vec![
            vec![],
            vec![vec![]],
            vec![vec![0]],
            vec![vec![0, 1], vec![2]],
            vec![vec![1, 2], vec![0, 3], vec![5]],
            vec![vec![0, 2, 4], vec![1, 3, 5], vec![], vec![2]],
            vec![vec![0], vec![1], vec![2], vec![3], vec![4], vec![5]],
        ]
    }

    /// The brute-force oracle: a family as a set of sorted element lists.
    type Fam = BTreeSet<Vec<usize>>;

    fn norm(mut set: Vec<usize>) -> Vec<usize> {
        set.sort_unstable();
        set.dedup();
        set
    }

    fn fam(sets: &[Vec<usize>]) -> Fam {
        sets.iter().cloned().map(norm).collect()
    }

    fn brute_join(a: &Fam, b: &Fam) -> Fam {
        let mut out = Fam::new();
        for x in a {
            for y in b {
                out.insert(norm([&x[..], &y[..]].concat()));
            }
        }
        out
    }

    fn sets_of(z: &ConcurrentZdd, f: ZddRef) -> Fam {
        z.sets(f).into_iter().collect()
    }

    #[test]
    fn matches_brute_force_on_the_algebra() {
        for a in zoo() {
            for b in zoo() {
                let z = ConcurrentZdd::new(6);
                let (za, zb) = (z.family(&a), z.family(&b));
                let (fa, fb) = (fam(&a), fam(&b));
                assert_eq!(sets_of(&z, z.union(za, zb)), &fa | &fb);
                assert_eq!(sets_of(&z, z.intersect(za, zb)), &fa & &fb);
                assert_eq!(sets_of(&z, z.diff(za, zb)), &fa - &fb);
                assert_eq!(sets_of(&z, z.join(za, zb)), brute_join(&fa, &fb));
                assert_eq!(z.count(za), fa.len() as u128);
                for e in 0..6 {
                    let (on, off): (Fam, Fam) = fa.iter().cloned().partition(|s| s.contains(&e));
                    assert_eq!(sets_of(&z, z.onset(za, e)), on);
                    assert_eq!(sets_of(&z, z.offset(za, e)), off);
                }
            }
        }
    }

    #[test]
    fn terminals_are_distinct() {
        let z = ConcurrentZdd::new(2);
        assert!(z.is_empty(ZDD_EMPTY));
        assert!(!z.is_empty(ZDD_UNIT));
        assert_eq!(z.count(ZDD_EMPTY), 0);
        assert_eq!(z.count(ZDD_UNIT), 1);
        assert!(z.contains_set(ZDD_UNIT, &[]));
        assert!(!z.contains_set(ZDD_EMPTY, &[]));
    }

    #[test]
    fn terminals_keep_their_ids() {
        let z = ConcurrentZdd::new(4);
        assert!(z.is_empty(ZDD_EMPTY));
        assert!(!z.is_empty(ZDD_UNIT));
        assert_eq!(z.count(ZDD_EMPTY), 0);
        assert_eq!(z.count(ZDD_UNIT), 1);
        assert_eq!(z.allocated_nodes(), 2);
        assert_eq!(z.family(&[vec![]]), ZDD_UNIT);
    }

    #[test]
    fn singleton_round_trips() {
        let z = ConcurrentZdd::new(5);
        let s = z.singleton(&[3, 1]);
        assert_eq!(z.count(s), 1);
        assert!(z.contains_set(s, &[1, 3]));
        assert!(!z.contains_set(s, &[1]));
        assert_eq!(z.sets(s), vec![vec![1, 3]]);
    }

    #[test]
    fn duplicate_elements_collapse() {
        let z = ConcurrentZdd::new(4);
        let a = z.singleton(&[2, 2, 0]);
        let b = z.singleton(&[0, 2]);
        assert_eq!(a, b, "canonical form ignores duplicates and order");
    }

    #[test]
    fn union_intersect_diff_algebra() {
        let z = ConcurrentZdd::new(4);
        let f = z.family(&[vec![0], vec![1, 2], vec![3]]);
        let g = z.family(&[vec![1, 2], vec![0, 3]]);
        let u = z.union(f, g);
        assert_eq!(z.count(u), 4);
        let i = z.intersect(f, g);
        assert_eq!(z.sets(i), vec![vec![1, 2]]);
        let d = z.diff(f, g);
        assert_eq!(z.sets(d), vec![vec![0], vec![3]]);
        // f \ g ∪ (f ∩ g) == f
        assert_eq!(z.union(d, i), f);
    }

    #[test]
    fn union_is_idempotent_and_commutative() {
        let z = ConcurrentZdd::new(3);
        let f = z.family(&[vec![0], vec![1]]);
        let g = z.family(&[vec![1], vec![2]]);
        assert_eq!(z.union(f, f), f);
        assert_eq!(z.union(f, g), z.union(g, f));
    }

    #[test]
    fn onset_and_offset_partition() {
        let z = ConcurrentZdd::new(4);
        let f = z.family(&[vec![0, 1], vec![1, 2], vec![3], vec![]]);
        let on = z.onset(f, 1);
        assert_eq!(z.sets(on), vec![vec![0, 1], vec![1, 2]]);
        let off = z.offset(f, 1);
        assert_eq!(z.sets(off), vec![vec![], vec![3]]);
        assert_eq!(z.union(on, off), f, "onset ∪ offset == original");
    }

    #[test]
    fn onset_and_offset_allocate_in_proportion_to_size() {
        // {a0|b0} x ... x {a39|b39}: 2^40 sets, 2^40 paths, 80 nodes
        let z = ConcurrentZdd::new(80);
        let f = (0..40).fold(ZDD_UNIT, |f, i| {
            let pair = z.family(&[vec![2 * i], vec![2 * i + 1]]);
            z.join(f, pair)
        });
        assert_eq!(z.count(f), 1 << 40);
        let size = z.size(f);
        assert_eq!(size, 80);
        for e in [0, 41, 79] {
            let before = z.allocated_nodes();
            let on = z.onset(f, e);
            let off = z.offset(f, e);
            let allocated = z.allocated_nodes() - before;
            assert!(allocated <= 2 * size, "e={e}: {allocated} nodes");
            assert_eq!(z.count(on), 1 << 39, "e={e}");
            assert_eq!(z.count(off), 1 << 39, "e={e}");
            assert_eq!(z.union(on, off), f, "e={e}");
        }
    }

    #[test]
    fn join_is_cross_union() {
        let z = ConcurrentZdd::new(4);
        let f = z.family(&[vec![0], vec![1]]);
        let g = z.family(&[vec![2], vec![3]]);
        let j = z.join(f, g);
        assert_eq!(
            z.sets(j),
            vec![vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3]]
        );
        assert_eq!(z.join(f, ZDD_UNIT), f);
        assert_eq!(z.join(f, ZDD_EMPTY), ZDD_EMPTY);
    }

    #[test]
    fn join_merges_overlapping_sets() {
        let z = ConcurrentZdd::new(3);
        let f = z.family(&[vec![0, 1]]);
        let g = z.family(&[vec![1, 2]]);
        assert_eq!(z.sets(z.join(f, g)), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn contains_set_rejects_subsets_and_supersets() {
        let z = ConcurrentZdd::new(4);
        let f = z.family(&[vec![0, 1, 2]]);
        assert!(z.contains_set(f, &[0, 1, 2]));
        assert!(!z.contains_set(f, &[0, 1]));
        assert!(!z.contains_set(f, &[0, 1, 2, 3]));
    }

    #[test]
    fn canonicity_within_one_manager() {
        let z = ConcurrentZdd::new(4);
        let a = z.family(&[vec![0, 2], vec![1]]);
        let b = {
            let x = z.singleton(&[1]);
            let y = z.singleton(&[2, 0]);
            z.union(x, y)
        };
        assert_eq!(a, b, "same family ⇒ same node id");
        assert!(z.unique_hits() > 0, "second build hit the unique table");
    }

    #[test]
    fn canonical_equal_families_share_node() {
        // {{0,2},{1}} built in one call, as a union of singletons, through
        // a join and through a difference is one node
        let z = ConcurrentZdd::new(4);
        let f = z.family(&[vec![0, 2], vec![1]]);
        let by_union = z.union(z.singleton(&[1]), z.singleton(&[2, 0]));
        let by_join = z.union(
            z.join(z.singleton(&[0]), z.singleton(&[2])),
            z.singleton(&[1]),
        );
        let by_diff = z.diff(z.family(&[vec![0, 2], vec![1], vec![3]]), z.singleton(&[3]));
        assert_eq!([by_union, by_join, by_diff], [f; 3]);
    }

    #[test]
    fn canonicity_across_threads() {
        // many threads build the same family; all must get the same id
        let z = Arc::new(ConcurrentZdd::new(8));
        let sets = vec![vec![0, 3], vec![1, 2], vec![4, 7], vec![5], vec![6, 0]];
        let refs: Vec<ZddRef> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let z = Arc::clone(&z);
                    let sets = sets.clone();
                    scope.spawn(move || z.family(&sets))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(refs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(z.count(refs[0]), 5);
    }

    #[test]
    fn concurrent_algebra_is_linearizable() {
        // threads race on overlapping operations; the final sets must be
        // exactly what the brute-force set algebra computes
        let z = Arc::new(ConcurrentZdd::new(10));
        let a = |i: usize| vec![vec![i], vec![i, (i + 1) % 10]];
        let b = |i: usize| vec![vec![(i + 1) % 10], vec![i]];
        let results: Vec<Fam> = std::thread::scope(|scope| {
            (0..8usize)
                .map(|i| {
                    let z = Arc::clone(&z);
                    scope.spawn(move || {
                        let (za, zb) = (z.family(&a(i)), z.family(&b(i)));
                        let u = z.union(za, zb);
                        let d = z.diff(u, zb);
                        sets_of(&z, z.join(d, ZDD_UNIT))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (i, got) in results.iter().enumerate() {
            let (fa, fb) = (fam(&a(i)), fam(&b(i)));
            let want = brute_join(&(&(&fa | &fb) - &fb), &fam(&[vec![]]));
            assert_eq!(&want, got, "thread {i}");
        }
    }

    #[test]
    fn stats_counters_track_work() {
        let z = ConcurrentZdd::new(6);
        let a = z.family(&[vec![0, 1], vec![2, 3]]);
        let b = z.family(&[vec![2, 3], vec![4, 5]]);
        let u1 = z.union(a, b);
        let u2 = z.union(a, b); // memoized
        assert_eq!(u1, u2);
        assert!(z.op_cache_hits() > 0);
        assert!(z.allocated_nodes() > 2);
        let before = z.allocated_nodes();
        let _again = z.family(&[vec![0, 1], vec![2, 3]]);
        assert_eq!(z.allocated_nodes(), before, "no new nodes for a rebuild");
        assert!(z.unique_hits() > 0);
    }

    #[test]
    fn product_families_stay_linear() {
        // product family {a0|b0} x {a1|b1} x ... has 2^n sets but O(n) nodes
        let z = ConcurrentZdd::new(16);
        let mut f = ZDD_UNIT;
        for i in 0..8 {
            let pair = z.family(&[vec![2 * i], vec![2 * i + 1]]);
            f = z.join(f, pair);
        }
        assert_eq!(z.count(f), 256);
        assert!(z.size(f) <= 16, "ZDD stays linear: {} nodes", z.size(f));
    }

    #[test]
    fn sharing_beats_explicit_on_products() {
        // listed, {a0|b0} x ... x {a7|b7} is 256 sets of 8 elements;
        // exported, it is one table row per shared node
        let z = ConcurrentZdd::new(16);
        let f = (0..8).fold(ZDD_UNIT, |f, i| {
            let pair = z.family(&[vec![2 * i], vec![2 * i + 1]]);
            z.join(f, pair)
        });
        let listed: usize = z.sets(f).iter().map(Vec::len).sum();
        assert_eq!(listed, 256 * 8);
        let (table, _) = z.export(&[f]);
        assert_eq!(table.len(), z.size(f));
        assert!(
            table.len() <= 16,
            "export stays linear: {} rows",
            table.len()
        );
    }

    #[test]
    fn manager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentZdd>();
    }

    #[test]
    fn export_import_round_trips_into_a_fresh_manager() {
        let z = ConcurrentZdd::new(6);
        let a = z.family(&[vec![0, 2], vec![1], vec![3, 4, 5], vec![]]);
        let b = z.family(&[vec![1], vec![2, 5]]);
        let (table, roots) = z.export(&[a, b, ZDD_EMPTY, ZDD_UNIT]);
        assert_eq!(roots[2], 0, "empty terminal keeps index 0");
        assert_eq!(roots[3], 1, "unit terminal keeps index 1");

        let fresh = ConcurrentZdd::new(6);
        let imported = fresh.import(&table, &roots).unwrap();
        assert_eq!(fresh.sets(imported[0]), z.sets(a));
        assert_eq!(fresh.sets(imported[1]), z.sets(b));
        assert_eq!(imported[2], ZDD_EMPTY);
        assert_eq!(imported[3], ZDD_UNIT);

        // importing into the exporting manager re-canonicalizes to the
        // exact same references
        let again = z.import(&table, &roots).unwrap();
        assert_eq!(again, vec![a, b, ZDD_EMPTY, ZDD_UNIT]);
    }

    #[test]
    fn export_import_round_trips_into_a_populated_manager() {
        // the table names no node ids: a manager over a wider universe
        // that already holds other nodes rebuilds the same families
        let z = ConcurrentZdd::new(6);
        let a = z.family(&[vec![0, 2], vec![1], vec![3, 4, 5], vec![]]);
        let b = z.family(&[vec![1], vec![2, 5]]);
        let (table, roots) = z.export(&[a, b]);

        let other = ConcurrentZdd::new(9);
        let busy = other.family(&[vec![6, 7], vec![8], vec![0, 8]]);
        let imported = other.import(&table, &roots).unwrap();
        assert_eq!(other.sets(imported[0]), z.sets(a));
        assert_eq!(other.sets(imported[1]), z.sets(b));
        assert_eq!(imported[1], other.family(&[vec![1], vec![2, 5]]));
        assert_eq!(busy, other.family(&[vec![6, 7], vec![8], vec![0, 8]]));
    }

    #[test]
    fn export_shares_structure_between_roots() {
        let z = ConcurrentZdd::new(8);
        let a = z.family(&[vec![0, 1], vec![2]]);
        let b = z.union(a, ZDD_UNIT); // shares every node of a
        let (table, _) = z.export(&[a, b]);
        let (solo, _) = z.export(&[a]);
        assert!(
            table.len() < 2 * solo.len(),
            "shared sub-diagram serialized once: {} vs {}",
            table.len(),
            solo.len()
        );
    }

    #[test]
    fn import_rejects_malformed_tables() {
        let z = ConcurrentZdd::new(3);
        let err = |table: &[(u32, u32, u32)], roots: &[u32]| z.import(table, roots).unwrap_err();
        assert!(err(&[(7, 0, 1)], &[2]).contains("universe"));
        assert!(
            err(&[(0, 2, 1)], &[2]).contains("forward"),
            "self reference"
        );
        assert!(err(&[(0, 1, 0)], &[2]).contains("zero-suppression"));
        assert!(err(&[(1, 0, 1), (1, 0, 2)], &[3]).contains("below"));
        assert!(err(&[(0, 0, 1)], &[9]).contains("root"));
        // a valid table still imports after the failures above
        assert!(z.import(&[(0, 0, 1)], &[2]).is_ok());
    }

    #[test]
    fn import_recovers_after_a_rejected_table() {
        // a table rejected at its last row has already hash-consed the
        // rows before it; the manager stays canonical and keeps importing
        let z = ConcurrentZdd::new(3);
        let f = z.family(&[vec![0, 1], vec![2]]);
        let (mut table, roots) = z.export(&[f]);
        let last = table.len() as u32 + 2;
        table.push((0, 0, 0));
        let fresh = ConcurrentZdd::new(3);
        let err = fresh.import(&table, &[last]).unwrap_err();
        assert!(err.contains("zero-suppression"), "{err}");
        table.pop();
        let back = fresh.import(&table, &roots).unwrap();
        assert_eq!(back, vec![fresh.family(&[vec![0, 1], vec![2]])]);
    }

    #[test]
    fn tiny_cache_capacity_evicts_but_preserves_results() {
        // a capacity-starved manager must still compute the exact same
        // canonical families as an unconstrained one
        let tiny = ConcurrentZdd::with_cache_capacity(10, 2);
        let roomy = ConcurrentZdd::new(10);
        for a in zoo() {
            for b in zoo() {
                let (ta, tb) = (tiny.family(&a), tiny.family(&b));
                let (ra, rb) = (roomy.family(&a), roomy.family(&b));
                assert_eq!(
                    tiny.sets(tiny.union(ta, tb)),
                    roomy.sets(roomy.union(ra, rb))
                );
                assert_eq!(tiny.sets(tiny.join(ta, tb)), roomy.sets(roomy.join(ra, rb)));
                assert_eq!(tiny.sets(tiny.diff(ta, tb)), roomy.sets(roomy.diff(ra, rb)));
            }
        }
        assert!(
            tiny.op_cache_evictions() > 0,
            "a 2-entry cache must rotate generations under this load"
        );
        assert_eq!(
            roomy.op_cache_evictions(),
            0,
            "default capacity never fills on toy families"
        );
    }

    #[test]
    fn promoted_entries_survive_a_rotation() {
        let z = ConcurrentZdd::with_cache_capacity(8, 4);
        let a = z.family(&[vec![0, 1], vec![2, 3]]);
        let b = z.family(&[vec![2, 3], vec![4, 5]]);
        let u1 = z.union(a, b);
        // churn the caches well past several rotations
        for i in 0..6 {
            let x = z.family(&[vec![i], vec![i + 1, i + 2]]);
            let y = z.family(&[vec![i + 1], vec![i, i + 2]]);
            let _ = z.join(x, y);
        }
        // the result is identical whether it was re-memoized or recomputed
        assert_eq!(z.union(a, b), u1);
    }
}
