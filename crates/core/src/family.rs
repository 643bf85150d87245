//! Families of transition sets — the "colored token" payloads of a
//! Generalized Petri Net marking (`P → 2^(2^T)`).
//!
//! Two representations implement [`SetFamily`]:
//!
//! * [`ZddFamily`] — a zero-suppressed decision diagram sharing structure
//!   between sets, which keeps exponentially large valid-set relations
//!   (e.g. products of many independent choices) polynomial in memory.
//!   It is the representation every production caller of
//!   [`analyze`](crate::analyze) names;
//! * [`ExplicitFamily`] — a canonical sorted vector of transition bit sets.
//!   It is the reference the tests and the `ablation_family` benchmark run
//!   the analysis against.
//!
//! The generalized analysis is generic over this trait, and the type
//! parameter alone selects the representation: both give the same states,
//! verdicts, counters, witnesses and traces, because both list witness
//! histories in one order ([`SetFamily::some_sets`]).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use petri::{BitSet, Budget, ConflictInfo, EngineKind, ExhaustionReason, TransitionId};
use symbolic::{ConcurrentZdd, ZddRef, ZDD_EMPTY};

/// Allocation and caching statistics of a family representation's backing
/// store, reported by [`SetFamily::context_stats`]. All zeros for
/// representations that track nothing (the explicit family).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FamilyStats {
    /// Total decision-diagram nodes allocated by the context.
    pub nodes_allocated: u64,
    /// Node requests answered from the hash-consing unique table.
    pub unique_hits: u64,
    /// Algebra operations answered from the memo caches.
    pub op_cache_hits: u64,
    /// Memoized operation results discarded by generational cache
    /// eviction (0 until the manager's op cache first fills).
    pub op_cache_evictions: u64,
}

/// Operations a family-of-transition-sets representation must support.
///
/// A family is a set of transition sets over a fixed universe of `|T|`
/// transitions. All binary operations require both operands to come from
/// the same [context](SetFamily::Context).
pub trait SetFamily: Clone + Eq + Hash + fmt::Debug + Send + Sync {
    /// Shared construction context (e.g. a decision-diagram manager),
    /// shareable across the worker threads of a parallel exploration.
    type Context: Clone + Send + Sync;

    /// The engine kind of the analysis snapshots this representation
    /// writes: their `FAMILIES` payloads are not interchangeable, so a
    /// snapshot only resumes under the representation that wrote it.
    const ENGINE_KIND: EngineKind;

    /// Creates the context for a universe of `universe` transitions.
    fn new_context(universe: usize) -> Self::Context;

    /// Builds a family from explicit sets.
    fn from_sets(ctx: &Self::Context, universe: usize, sets: &[BitSet]) -> Self;

    /// Builds the valid-set relation `r₀` of §3.3: the maximal
    /// conflict-free transition sets of a net with conflict structure
    /// `conflicts` over `universe` transitions. The build polls the
    /// budget's cancel flag and deadline before each of its passes and
    /// returns the reason of the first stop it sees.
    ///
    /// # Errors
    ///
    /// Returns [`ExhaustionReason::Cancelled`] or [`ExhaustionReason::Time`]
    /// when the budget stops the build before `r₀` is complete.
    fn from_conflicts(
        ctx: &Self::Context,
        universe: usize,
        conflicts: &ConflictInfo,
        budget: &Budget,
    ) -> Result<Self, ExhaustionReason>;

    /// Materializes the first `k` sets in the ZDD's depth-first order: of
    /// two sets, the one without their lowest differing transition comes
    /// first. Every representation lists the same sets, so witnesses do
    /// not depend on it. The ZDD walks only as far as `k` sets, which is
    /// cheap even for huge families; the default sorts all of them.
    fn some_sets(&self, k: usize) -> Vec<BitSet> {
        let mut all = self.sets();
        all.sort_by(depth_first_order);
        all.truncate(k);
        all
    }

    /// The empty family.
    fn empty(ctx: &Self::Context, universe: usize) -> Self;

    /// Set-of-sets union.
    #[must_use]
    fn union(&self, other: &Self) -> Self;

    /// Set-of-sets intersection (sets present in both families).
    #[must_use]
    fn intersect(&self, other: &Self) -> Self;

    /// Set-of-sets difference (sets of `self` not in `other`).
    #[must_use]
    fn difference(&self, other: &Self) -> Self;

    /// The sub-family of sets containing transition index `t`.
    #[must_use]
    fn onset(&self, t: usize) -> Self;

    /// `true` if the family has no sets.
    fn is_empty(&self) -> bool;

    /// Number of sets in the family, exact up to `u128::MAX` (a family
    /// over at most 128 transitions never reaches it).
    fn count(&self) -> u128;

    /// Membership test for one transition set.
    fn contains(&self, set: &BitSet) -> bool;

    /// Materializes all sets (sorted, canonical order).
    fn sets(&self) -> Vec<BitSet>;

    /// Approximate memory footprint in representation units (stored sets
    /// for the explicit family, live nodes for the ZDD) — used by the
    /// ablation benchmarks.
    fn footprint(&self) -> usize;

    /// Allocation/caching statistics of the backing store, if the
    /// representation tracks any (ZDD manager counters; zeros otherwise).
    fn context_stats(_ctx: &Self::Context) -> FamilyStats {
        FamilyStats::default()
    }

    /// Serializes a batch of families into a flat byte blob for the
    /// checkpoint layer. The default enumerates every family's sets —
    /// portable but exponential for shared representations, which should
    /// override this (the ZDD backend serializes one shared node table
    /// for the whole batch instead).
    fn encode_families(_ctx: &Self::Context, universe: usize, families: &[&Self]) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, families.len() as u64);
        for f in families {
            let sets = f.sets();
            push_u64(&mut out, sets.len() as u64);
            for s in &sets {
                debug_assert_eq!(s.capacity(), universe);
                for &b in s.as_blocks() {
                    push_u64(&mut out, b);
                }
            }
        }
        out
    }

    /// Rebuilds a batch of families from [`encode_families`] output, in
    /// order. Implementations must validate the bytes structurally and
    /// report the first violation as an error string — a blob that decodes
    /// cleanly always denotes well-formed families over `universe`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation (truncated
    /// input, out-of-range bits, trailing bytes, …).
    fn decode_families(
        ctx: &Self::Context,
        universe: usize,
        bytes: &[u8],
    ) -> Result<Vec<Self>, String> {
        let mut r = Cursor::new(bytes);
        let nfamilies = r.u64()? as usize;
        let blocks_per_set = universe.div_ceil(64);
        let mut out = Vec::with_capacity(nfamilies.min(1 << 20));
        for i in 0..nfamilies {
            let nsets = r.u64()? as usize;
            let mut sets = Vec::with_capacity(nsets.min(1 << 20));
            for j in 0..nsets {
                let mut blocks = Vec::with_capacity(blocks_per_set);
                for _ in 0..blocks_per_set {
                    blocks.push(r.u64()?);
                }
                let set = BitSet::from_blocks(universe, blocks).ok_or_else(|| {
                    format!("family {i} set {j}: bits outside the universe of {universe}")
                })?;
                sets.push(set);
            }
            out.push(Self::from_sets(ctx, universe, &sets));
        }
        r.finish()?;
        Ok(out)
    }
}

/// The `r₀` builders' budget poll: only cancel and the deadline can stop
/// a build, since it stores no states and accounts no bytes.
fn poll(budget: &Budget) -> Result<(), ExhaustionReason> {
    budget.exceeded(0, 0).map_or(Ok(()), Err)
}

/// The order of [`SetFamily::some_sets`]: at the lowest transition in
/// which `a` and `b` differ, the set without it comes first.
fn depth_first_order(a: &BitSet, b: &BitSet) -> std::cmp::Ordering {
    match a
        .as_blocks()
        .iter()
        .zip(b.as_blocks())
        .find(|(x, y)| x != y)
    {
        None => std::cmp::Ordering::Equal,
        Some((x, y)) => {
            let lowest = (x ^ y).trailing_zeros();
            ((x >> lowest) & 1).cmp(&((y >> lowest) & 1))
        }
    }
}

/// Little-endian u64 append for the family encoders.
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian u32 append for the family encoders.
fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader for the family decoders.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated family blob")?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes after family blob".into())
        }
    }
}

/// Canonical explicit family: a sorted, deduplicated `Vec<BitSet>`.
///
/// # Examples
///
/// ```
/// use gpo_core::{ExplicitFamily, SetFamily};
/// use petri::BitSet;
///
/// let ctx = ExplicitFamily::new_context(4);
/// let a = ExplicitFamily::from_sets(&ctx, 4, &[
///     BitSet::from_iter_with_capacity(4, [0, 2]),
///     BitSet::from_iter_with_capacity(4, [1]),
/// ]);
/// let b = a.onset(0);
/// assert_eq!(b.count(), 1);
/// assert!(b.contains(&BitSet::from_iter_with_capacity(4, [0, 2])));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ExplicitFamily {
    universe: usize,
    /// sorted + deduplicated
    sets: Vec<BitSet>,
}

impl ExplicitFamily {
    fn normalize(mut sets: Vec<BitSet>) -> Vec<BitSet> {
        sets.sort();
        sets.dedup();
        sets
    }

    /// Iterates over the stored sets in canonical order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &BitSet> + '_ {
        self.sets.iter()
    }
}

impl fmt::Debug for ExplicitFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.sets.iter()).finish()
    }
}

impl SetFamily for ExplicitFamily {
    type Context = ();

    const ENGINE_KIND: EngineKind = EngineKind::GpoExplicit;

    fn new_context(_universe: usize) -> Self::Context {}

    fn from_sets(_ctx: &Self::Context, universe: usize, sets: &[BitSet]) -> Self {
        ExplicitFamily {
            universe,
            sets: Self::normalize(sets.to_vec()),
        }
    }

    /// The reference build: Bron–Kerbosch lists each conflict cluster's
    /// maximal independent sets ([`ConflictInfo::choice_groups`]), and
    /// `r₀` is their cross-union product, enumerated one group at a time.
    fn from_conflicts(
        ctx: &Self::Context,
        universe: usize,
        conflicts: &ConflictInfo,
        budget: &Budget,
    ) -> Result<Self, ExhaustionReason> {
        let mut acc = vec![BitSet::new(universe)];
        for group in conflicts.choice_groups() {
            poll(budget)?;
            acc = acc
                .iter()
                .flat_map(|base| group.iter().map(move |pick| base.union(pick)))
                .collect();
        }
        Ok(Self::from_sets(ctx, universe, &acc))
    }

    fn empty(_ctx: &Self::Context, universe: usize) -> Self {
        ExplicitFamily {
            universe,
            sets: Vec::new(),
        }
    }

    fn union(&self, other: &Self) -> Self {
        // merge two sorted sequences
        let mut out = Vec::with_capacity(self.sets.len() + other.sets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.sets.len() && j < other.sets.len() {
            match self.sets[i].cmp(&other.sets[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.sets[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.sets[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.sets[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.sets[i..]);
        out.extend_from_slice(&other.sets[j..]);
        ExplicitFamily {
            universe: self.universe,
            sets: out,
        }
    }

    fn intersect(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.sets.len() && j < other.sets.len() {
            match self.sets[i].cmp(&other.sets[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.sets[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        ExplicitFamily {
            universe: self.universe,
            sets: out,
        }
    }

    fn difference(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.sets.len() {
            if j >= other.sets.len() {
                out.extend_from_slice(&self.sets[i..]);
                break;
            }
            match self.sets[i].cmp(&other.sets[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.sets[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        ExplicitFamily {
            universe: self.universe,
            sets: out,
        }
    }

    fn onset(&self, t: usize) -> Self {
        ExplicitFamily {
            universe: self.universe,
            sets: self
                .sets
                .iter()
                .filter(|s| s.contains(t))
                .cloned()
                .collect(),
        }
    }

    fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    fn count(&self) -> u128 {
        self.sets.len() as u128
    }

    fn contains(&self, set: &BitSet) -> bool {
        self.sets.binary_search(set).is_ok()
    }

    fn sets(&self) -> Vec<BitSet> {
        self.sets.clone()
    }

    fn footprint(&self) -> usize {
        self.sets.len()
    }
}

/// A family backed by a shared concurrent ZDD manager.
///
/// All families of one analysis share the manager, so equality and hashing
/// reduce to node-id comparison (ZDDs are canonical — including across
/// threads, because [`ConcurrentZdd`] hash-conses nodes under sharded
/// locks). The `Arc` context makes `ZddFamily: Send + Sync`, which is what
/// lets the generalized analysis ride the parallel frontier engine.
///
/// # Examples
///
/// ```
/// use gpo_core::{SetFamily, ZddFamily};
/// use petri::BitSet;
///
/// let ctx = ZddFamily::new_context(4);
/// let a = ZddFamily::from_sets(&ctx, 4, &[
///     BitSet::from_iter_with_capacity(4, [0, 2]),
///     BitSet::from_iter_with_capacity(4, [1]),
/// ]);
/// assert_eq!(a.onset(0).count(), 1);
/// ```
#[derive(Clone)]
pub struct ZddFamily {
    mgr: Arc<ConcurrentZdd>,
    node: ZddRef,
    universe: usize,
}

impl PartialEq for ZddFamily {
    fn eq(&self, other: &Self) -> bool {
        debug_assert!(
            Arc::ptr_eq(&self.mgr, &other.mgr),
            "comparing families from different managers"
        );
        self.node == other.node
    }
}

impl Eq for ZddFamily {}

impl Hash for ZddFamily {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.node.hash(state);
    }
}

impl fmt::Debug for ZddFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sets = self.sets();
        f.debug_set().entries(sets.iter()).finish()
    }
}

impl SetFamily for ZddFamily {
    type Context = Arc<ConcurrentZdd>;

    const ENGINE_KIND: EngineKind = EngineKind::GpoZdd;

    fn new_context(universe: usize) -> Self::Context {
        Arc::new(ConcurrentZdd::new(universe))
    }

    fn from_sets(ctx: &Self::Context, universe: usize, sets: &[BitSet]) -> Self {
        let mut node = ZDD_EMPTY;
        for s in sets {
            let elems: Vec<usize> = s.iter().collect();
            let one = ctx.singleton(&elems);
            node = ctx.union(node, one);
        }
        ZddFamily {
            mgr: Arc::clone(ctx),
            node,
            universe,
        }
    }

    fn empty(ctx: &Self::Context, universe: usize) -> Self {
        ZddFamily {
            mgr: Arc::clone(ctx),
            node: ZDD_EMPTY,
            universe,
        }
    }

    fn union(&self, other: &Self) -> Self {
        self.with_node(self.mgr.union(self.node, other.node))
    }

    fn intersect(&self, other: &Self) -> Self {
        self.with_node(self.mgr.intersect(self.node, other.node))
    }

    fn difference(&self, other: &Self) -> Self {
        self.with_node(self.mgr.diff(self.node, other.node))
    }

    fn onset(&self, t: usize) -> Self {
        self.with_node(self.mgr.onset(self.node, t))
    }

    fn is_empty(&self) -> bool {
        self.mgr.is_empty(self.node)
    }

    fn count(&self) -> u128 {
        self.mgr.count(self.node)
    }

    fn contains(&self, set: &BitSet) -> bool {
        let elems: Vec<usize> = set.iter().collect();
        self.mgr.contains_set(self.node, &elems)
    }

    fn sets(&self) -> Vec<BitSet> {
        self.mgr
            .sets(self.node)
            .into_iter()
            .map(|s| BitSet::from_iter_with_capacity(self.universe, s))
            .collect()
    }

    fn footprint(&self) -> usize {
        self.mgr.size(self.node)
    }

    /// The per-vertex build: each conflict cluster's maximal independent
    /// sets are carved out of the cluster's power set in `2·|C|` passes
    /// (`cluster_family`), never listed, and `r₀` joins them with the
    /// set of conflict-free transitions, which belong to every valid set.
    fn from_conflicts(
        ctx: &Self::Context,
        universe: usize,
        conflicts: &ConflictInfo,
        budget: &Budget,
    ) -> Result<Self, ExhaustionReason> {
        poll(budget)?;
        let free: Vec<usize> = conflicts
            .clusters()
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c[0].index())
            .collect();
        let mut node = ctx.singleton(&free);
        for cluster in conflicts.choice_clusters() {
            node = ctx.join(node, cluster_family(ctx, conflicts, cluster, budget)?);
        }
        Ok(ZddFamily {
            mgr: Arc::clone(ctx),
            node,
            universe,
        })
    }

    fn some_sets(&self, k: usize) -> Vec<BitSet> {
        self.mgr
            .some_sets(self.node, k)
            .into_iter()
            .map(|s| BitSet::from_iter_with_capacity(self.universe, s))
            .collect()
    }

    fn context_stats(ctx: &Self::Context) -> FamilyStats {
        FamilyStats {
            nodes_allocated: ctx.allocated_nodes() as u64,
            unique_hits: ctx.unique_hits(),
            op_cache_hits: ctx.op_cache_hits(),
            op_cache_evictions: ctx.op_cache_evictions(),
        }
    }

    /// One shared node table for the whole batch: families with
    /// exponentially many sets stay polynomial on disk, exactly as they do
    /// in memory.
    fn encode_families(ctx: &Self::Context, _universe: usize, families: &[&Self]) -> Vec<u8> {
        let roots: Vec<ZddRef> = families.iter().map(|f| f.node).collect();
        let (table, root_ids) = ctx.export(&roots);
        let mut out = Vec::new();
        push_u64(&mut out, families.len() as u64);
        push_u64(&mut out, table.len() as u64);
        for &(var, lo, hi) in &table {
            push_u32(&mut out, var);
            push_u32(&mut out, lo);
            push_u32(&mut out, hi);
        }
        for &r in &root_ids {
            push_u32(&mut out, r);
        }
        out
    }

    fn decode_families(
        ctx: &Self::Context,
        universe: usize,
        bytes: &[u8],
    ) -> Result<Vec<Self>, String> {
        let mut r = Cursor::new(bytes);
        let nfamilies = r.u64()? as usize;
        let nnodes = r.u64()? as usize;
        let mut table = Vec::with_capacity(nnodes.min(1 << 20));
        for _ in 0..nnodes {
            table.push((r.u32()?, r.u32()?, r.u32()?));
        }
        let mut roots = Vec::with_capacity(nfamilies.min(1 << 20));
        for _ in 0..nfamilies {
            roots.push(r.u32()?);
        }
        r.finish()?;
        // import re-canonicalizes every node through the shared manager's
        // hash-consing, so decoded families compare equal (by node id) to
        // families built natively in `ctx`
        let refs = ctx.import(&table, &roots)?;
        Ok(refs
            .into_iter()
            .map(|node| ZddFamily {
                mgr: Arc::clone(ctx),
                node,
                universe,
            })
            .collect())
    }
}

/// The maximal independent sets of one conflict cluster `C`, where `N(t)`
/// is the set of `t`'s conflicts and `N[t] = N(t) ∪ {t}` (Minato's ZDD
/// set algebra; Knuth, TAOCP 4A §7.1.4). Starting from `I = P(C)`:
///
/// 1. for each `t ∈ C`, `I = offset(I,t) ∪ (onset(I,t) ∩ P(C∖N(t)))`
///    keeps a set holding `t` only if it holds none of `t`'s conflicts,
///    leaving the independent sets;
/// 2. for each `t ∈ C`, `I = I ∖ (I ∩ P(C∖N[t]))` drops every set that
///    avoids `t` and all its conflicts, since adding `t` would keep it
///    independent, leaving the maximal ones.
///
/// Every pass works on families over `C` only, and the budget is polled
/// before each one.
fn cluster_family(
    z: &ConcurrentZdd,
    conflicts: &ConflictInfo,
    cluster: &[TransitionId],
    budget: &Budget,
) -> Result<ZddRef, ExhaustionReason> {
    // P(C∖N(t)), or P(C∖N[t]) when `closed`
    let avoiding = |t: TransitionId, closed: bool| {
        let conflicting = conflicts.conflicts_of(t);
        let keep: Vec<usize> = cluster
            .iter()
            .filter(|&&u| !(conflicting.contains(u.index()) || (closed && u == t)))
            .map(|u| u.index())
            .collect();
        z.powerset(&keep)
    };
    let members: Vec<usize> = cluster.iter().map(|t| t.index()).collect();
    let mut family = z.powerset(&members);
    for &t in cluster {
        poll(budget)?;
        let with_t = z.intersect(z.onset(family, t.index()), avoiding(t, false));
        family = z.union(z.offset(family, t.index()), with_t);
    }
    for &t in cluster {
        poll(budget)?;
        family = z.diff(family, z.intersect(family, avoiding(t, true)));
    }
    Ok(family)
}

impl ZddFamily {
    fn with_node(&self, node: ZddRef) -> Self {
        ZddFamily {
            mgr: Arc::clone(&self.mgr),
            node,
            universe: self.universe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(universe: usize, elems: &[usize]) -> BitSet {
        BitSet::from_iter_with_capacity(universe, elems.iter().copied())
    }

    fn sample_sets(u: usize) -> Vec<BitSet> {
        vec![bs(u, &[0, 2]), bs(u, &[1]), bs(u, &[1, 3]), bs(u, &[])]
    }

    /// Runs the same algebra through any implementation.
    fn exercise<F: SetFamily>() {
        let u = 4;
        let ctx = F::new_context(u);
        let a = F::from_sets(&ctx, u, &sample_sets(u));
        let b = F::from_sets(&ctx, u, &[bs(u, &[1]), bs(u, &[0, 2]), bs(u, &[2])]);

        assert_eq!(a.count(), 4);
        assert!(!a.is_empty());
        assert!(F::empty(&ctx, u).is_empty());

        let uni = a.union(&b);
        assert_eq!(uni.count(), 5);
        let int = a.intersect(&b);
        assert_eq!(int.count(), 2);
        assert!(int.contains(&bs(u, &[1])));
        assert!(int.contains(&bs(u, &[0, 2])));
        let dif = a.difference(&b);
        assert_eq!(dif.count(), 2);
        assert!(dif.contains(&bs(u, &[])));
        assert!(dif.contains(&bs(u, &[1, 3])));

        let on = a.onset(1);
        assert_eq!(on.count(), 2);
        assert!(on.contains(&bs(u, &[1])));
        assert!(on.contains(&bs(u, &[1, 3])));
        assert!(!on.contains(&bs(u, &[0, 2])));

        // identities
        assert_eq!(a.union(&a), a);
        assert_eq!(a.intersect(&a), a);
        assert!(a.difference(&a).is_empty());
        let rebuilt = dif.union(&int);
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn explicit_family_algebra() {
        exercise::<ExplicitFamily>();
    }

    #[test]
    fn zdd_family_algebra() {
        exercise::<ZddFamily>();
    }

    #[test]
    fn representations_agree_on_materialized_sets() {
        let u = 5;
        ExplicitFamily::new_context(u);
        let zctx = ZddFamily::new_context(u);
        let sets = vec![bs(u, &[0, 3]), bs(u, &[2]), bs(u, &[1, 2, 4])];
        let e = ExplicitFamily::from_sets(&(), u, &sets);
        let z = ZddFamily::from_sets(&zctx, u, &sets);
        // `sets()` order is representation-specific; compare as sets
        let norm = |v: Vec<BitSet>| {
            let mut out: Vec<Vec<usize>> = v.iter().map(|s| s.iter().collect()).collect();
            out.sort();
            out
        };
        assert_eq!(norm(e.sets()), norm(z.sets()));
        assert_eq!(norm(e.onset(2).sets()), norm(z.onset(2).sets()));
        assert_eq!(e.count(), z.count());
    }

    #[test]
    fn explicit_deduplicates() {
        let u = 3;
        let ctx = ();
        let a = ExplicitFamily::from_sets(&ctx, u, &[bs(u, &[1]), bs(u, &[1])]);
        assert_eq!(a.count(), 1);
    }

    #[test]
    #[allow(clippy::mutable_key_type)] // ZddFamily's Hash uses only the
                                       // immutable node id; the shared manager never changes existing nodes
    fn hash_consistency() {
        use std::collections::HashSet;
        let u = 3;
        let ctx = ZddFamily::new_context(u);
        let a = ZddFamily::from_sets(&ctx, u, &[bs(u, &[1]), bs(u, &[0, 2])]);
        let b = ZddFamily::from_sets(&ctx, u, &[bs(u, &[0, 2]), bs(u, &[1])]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn families_are_send_and_sync() {
        // the PR's acceptance criterion: ZddFamily (and its context) can
        // cross thread boundaries, so the GPO engine can parallelize
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExplicitFamily>();
        assert_send_sync::<ZddFamily>();
        assert_send_sync::<<ZddFamily as SetFamily>::Context>();
    }

    #[test]
    fn zdd_context_stats_track_allocation() {
        let u = 4;
        let ctx = ZddFamily::new_context(u);
        assert_eq!(ZddFamily::context_stats(&ctx).nodes_allocated, 2);
        let a = ZddFamily::from_sets(&ctx, u, &[bs(u, &[0, 2]), bs(u, &[1])]);
        let b = ZddFamily::from_sets(&ctx, u, &[bs(u, &[1]), bs(u, &[0, 2])]);
        assert_eq!(a, b);
        let stats = ZddFamily::context_stats(&ctx);
        assert!(stats.nodes_allocated > 2);
        assert!(stats.unique_hits > 0, "rebuild hits the unique table");
        let _ = a.union(&b);
        let _ = a.union(&b);
        assert!(ZddFamily::context_stats(&ctx).op_cache_hits >= 1);
    }

    /// Round-trips a batch through encode/decode in a fresh context and
    /// checks set-level equality.
    fn round_trip<F: SetFamily>() {
        let u = 6;
        let ctx = F::new_context(u);
        let fams = vec![
            F::from_sets(&ctx, u, &sample_sets(u)),
            F::empty(&ctx, u),
            F::from_sets(&ctx, u, &[bs(u, &[])]),
            F::from_sets(&ctx, u, &[bs(u, &[5]), bs(u, &[0, 1, 2, 3, 4, 5])]),
        ];
        let refs: Vec<&F> = fams.iter().collect();
        let blob = F::encode_families(&ctx, u, &refs);

        // same-context decode: families compare equal directly
        let back = F::decode_families(&ctx, u, &blob).unwrap();
        assert_eq!(back, fams);

        // fresh-context decode: compare materialized sets
        let fresh = F::new_context(u);
        let again = F::decode_families(&fresh, u, &blob).unwrap();
        assert_eq!(again.len(), fams.len());
        for (a, b) in again.iter().zip(&fams) {
            assert_eq!(a.sets(), b.sets());
        }
    }

    #[test]
    fn explicit_families_round_trip() {
        round_trip::<ExplicitFamily>();
    }

    #[test]
    fn zdd_families_round_trip() {
        round_trip::<ZddFamily>();
    }

    #[test]
    fn zdd_blob_stays_polynomial_on_products() {
        // r₀ of fig. 2 with N = 10: 2^10 sets must not enumerate on disk
        let net = models::figures::fig2(10);
        let u = net.transition_count();
        let ctx = ZddFamily::new_context(u);
        let conflicts = ConflictInfo::new(&net);
        let big = ZddFamily::from_conflicts(&ctx, u, &conflicts, &Budget::default()).unwrap();
        assert_eq!(big.count(), 1024);
        let blob = ZddFamily::encode_families(&ctx, u, &[&big]);
        assert!(
            blob.len() < 1024,
            "shared node table, not 1024 enumerated sets: {} bytes",
            blob.len()
        );
        let back = ZddFamily::decode_families(&ctx, u, &blob).unwrap();
        assert_eq!(back[0], big, "canonical node id restored");
    }

    #[test]
    fn r0_build_stops_on_cancel_and_on_an_expired_deadline() {
        fn check<F: SetFamily>() {
            let net = models::nsdp(6);
            let u = net.transition_count();
            let conflicts = ConflictInfo::new(&net);
            let ctx = F::new_context(u);
            let cancelled = Budget::default();
            cancelled.cancel();
            let expired = Budget::default().with_timeout(std::time::Duration::ZERO);
            for (budget, reason) in [
                (cancelled, ExhaustionReason::Cancelled),
                (expired, ExhaustionReason::Time),
            ] {
                let built = F::from_conflicts(&ctx, u, &conflicts, &budget);
                assert_eq!(built.err(), Some(reason), "{}", std::any::type_name::<F>());
            }
        }
        check::<ExplicitFamily>();
        check::<ZddFamily>();
    }

    #[test]
    fn zdd_r0_costs_its_nodes_not_its_sets() {
        // NSDP(11)'s fork ring has ~2 million maximal independent sets
        // (the count the Bron–Kerbosch listing gives); the build allocates
        // a few tens of thousands of nodes
        let net = models::nsdp(11);
        let u = net.transition_count();
        let ctx = ZddFamily::new_context(u);
        let r0 = ZddFamily::from_conflicts(&ctx, u, &ConflictInfo::new(&net), &Budget::default())
            .unwrap();
        assert_eq!(r0.count(), 1_956_244);
        let allocated = ZddFamily::context_stats(&ctx).nodes_allocated;
        assert!(allocated < 100_000, "{allocated} nodes allocated");
    }

    #[test]
    fn decode_rejects_corrupt_blobs() {
        let u = 4;
        let fams = [ExplicitFamily::from_sets(&(), u, &sample_sets(u))];
        let refs: Vec<&ExplicitFamily> = fams.iter().collect();
        let blob = ExplicitFamily::encode_families(&(), u, &refs);
        assert!(ExplicitFamily::decode_families(&(), u, &blob[..blob.len() - 1]).is_err());
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(ExplicitFamily::decode_families(&(), u, &trailing).is_err());
        // a set with bits outside the universe
        let mut bad = blob;
        let last = bad.len() - 1;
        bad[last] = 0xff;
        assert!(ExplicitFamily::decode_families(&(), u, &bad).is_err());

        let zctx = ZddFamily::new_context(u);
        let zfams = [ZddFamily::from_sets(&zctx, u, &sample_sets(u))];
        let zrefs: Vec<&ZddFamily> = zfams.iter().collect();
        let zblob = ZddFamily::encode_families(&zctx, u, &zrefs);
        assert!(ZddFamily::decode_families(&zctx, u, &zblob[..zblob.len() - 1]).is_err());
    }

    #[test]
    fn zdd_footprint_beats_explicit_on_products() {
        // 10 binary choices: 1024 sets
        let u = 20;
        let all: Vec<BitSet> = {
            let mut acc = vec![bs(u, &[])];
            for i in 0..10 {
                let mut next = Vec::new();
                for base in &acc {
                    for pick in [2 * i, 2 * i + 1] {
                        let mut s = base.clone();
                        s.insert(pick);
                        next.push(s);
                    }
                }
                acc = next;
            }
            acc
        };
        let e = ExplicitFamily::from_sets(&(), u, &all);
        let zctx = ZddFamily::new_context(u);
        let z = ZddFamily::from_sets(&zctx, u, &all);
        assert_eq!(e.count(), 1024);
        assert_eq!(z.count(), 1024);
        assert_eq!(e.footprint(), 1024);
        assert!(
            z.footprint() <= 20,
            "zdd shares structure: {}",
            z.footprint()
        );
    }
}
