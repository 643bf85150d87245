//! Conflict structure of a net (Definition 2.2): the conflict relation,
//! conflict clusters, maximal conflicting sets, and maximal conflict-free
//! transition sets (the paper's valid-set universe `r₀`).

use crate::bitset::BitSet;
use crate::ids::TransitionId;
use crate::net::PetriNet;

/// Precomputed conflict structure of a [`PetriNet`].
///
/// Two transitions *conflict* when they share an input place. A *conflict
/// cluster* is a connected component of the conflict relation; a cluster is
/// exactly a maximal conflicting set in the sense of Definition 2.2 (every
/// transition outside the cluster is conflict-free with every one inside).
///
/// # Examples
///
/// ```
/// use petri::{ConflictInfo, NetBuilder};
///
/// let mut b = NetBuilder::new("choice");
/// let p = b.place_marked("p");
/// let q = b.place("q");
/// let a = b.transition("a", [p], []);
/// let c = b.transition("c", [p], []);
/// let d = b.transition("d", [q], []);
/// let net = b.build()?;
/// let info = ConflictInfo::new(&net);
/// assert!(info.in_conflict(a, c));
/// assert!(!info.in_conflict(a, d));
/// assert_eq!(info.cluster_of(a), info.cluster_of(c));
/// assert_ne!(info.cluster_of(a), info.cluster_of(d));
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConflictInfo {
    /// For each transition, the set of transitions it conflicts with
    /// (excluding itself).
    adjacency: Vec<BitSet>,
    /// Cluster index of each transition.
    cluster_idx: Vec<usize>,
    /// Members of each cluster, in index order.
    clusters: Vec<Vec<TransitionId>>,
}

impl ConflictInfo {
    /// Computes the conflict structure of `net`.
    pub fn new(net: &PetriNet) -> Self {
        let n = net.transition_count();
        let mut adjacency = vec![BitSet::new(n); n];
        for p in net.places() {
            let out = net.post_transitions(p);
            for (i, &t) in out.iter().enumerate() {
                for &u in &out[i + 1..] {
                    adjacency[t.index()].insert(u.index());
                    adjacency[u.index()].insert(t.index());
                }
            }
        }

        // connected components by DFS
        let mut cluster_idx = vec![usize::MAX; n];
        let mut clusters: Vec<Vec<TransitionId>> = Vec::new();
        for start in 0..n {
            if cluster_idx[start] != usize::MAX {
                continue;
            }
            let cid = clusters.len();
            let mut stack = vec![start];
            let mut members = Vec::new();
            cluster_idx[start] = cid;
            while let Some(t) = stack.pop() {
                members.push(TransitionId::new(t));
                for u in adjacency[t].iter() {
                    if cluster_idx[u] == usize::MAX {
                        cluster_idx[u] = cid;
                        stack.push(u);
                    }
                }
            }
            members.sort();
            clusters.push(members);
        }

        ConflictInfo {
            adjacency,
            cluster_idx,
            clusters,
        }
    }

    /// `true` if `t` and `u` share an input place (`t ≠ u`).
    pub fn in_conflict(&self, t: TransitionId, u: TransitionId) -> bool {
        self.adjacency[t.index()].contains(u.index())
    }

    /// The transitions conflicting with `t`, excluding `t` itself.
    pub fn conflicts_of(&self, t: TransitionId) -> &BitSet {
        &self.adjacency[t.index()]
    }

    /// Index of the cluster containing `t`.
    pub fn cluster_of(&self, t: TransitionId) -> usize {
        self.cluster_idx[t.index()]
    }

    /// All conflict clusters (singletons included), each sorted.
    pub fn clusters(&self) -> &[Vec<TransitionId>] {
        &self.clusters
    }

    /// Clusters with at least two members — the maximal conflicting sets
    /// that actually express a choice.
    pub fn choice_clusters(&self) -> impl Iterator<Item = &[TransitionId]> + '_ {
        self.clusters
            .iter()
            .filter(|c| c.len() > 1)
            .map(Vec::as_slice)
    }

    /// Members of cluster `idx`.
    pub fn cluster(&self, idx: usize) -> &[TransitionId] {
        &self.clusters[idx]
    }

    /// `true` if every cluster's conflict relation is a clique, i.e. any two
    /// members conflict directly. Conflict clusters arising from single
    /// shared choice places are cliques; chains of overlapping presets are
    /// not.
    pub fn clusters_are_cliques(&self) -> bool {
        self.clusters.iter().all(|members| {
            members
                .iter()
                .enumerate()
                .all(|(i, &t)| members[i + 1..].iter().all(|&u| self.in_conflict(t, u)))
        })
    }

    /// The maximal conflict-free transition sets factored as a product of
    /// independent **choice groups**: the first group is the single set of
    /// all conflict-free transitions (members of every valid set); each
    /// further group lists the maximal independent sets of one non-trivial
    /// conflict cluster. `r₀` is the cross-union of one pick per group.
    ///
    /// Listing a cluster's groups costs as many sets as it has (524174 for
    /// NSDP(10)'s fork ring), so this is the explicit reference build; the
    /// GPO engine's ZDD build derives the same family from the conflict
    /// relation without listing it.
    pub fn choice_groups(&self) -> Vec<Vec<BitSet>> {
        let n = self.adjacency.len();
        let mut free = BitSet::new(n);
        let mut groups = Vec::new();
        for members in &self.clusters {
            if members.len() == 1 {
                free.insert(members[0].index());
            } else {
                groups.push(self.cluster_mis(members));
            }
        }
        let mut out = vec![vec![free]];
        out.extend(groups);
        out
    }

    /// Enumerates the **maximal conflict-free transition sets** — the valid
    /// sets `r₀` of the paper's §3.3 worked examples (maximal independent
    /// sets of the conflict graph).
    ///
    /// The enumeration works per cluster (maximal independent sets via
    /// Bron–Kerbosch on the cluster subgraph) and combines clusters by
    /// cartesian product; transitions that conflict with nothing are members
    /// of every valid set.
    ///
    /// Returns `None` if more than `limit` sets would be produced.
    pub fn maximal_conflict_free_sets(&self, limit: usize) -> Option<Vec<BitSet>> {
        let groups = self.choice_groups();
        let mut result: Vec<BitSet> = groups[0].clone();
        for mis in &groups[1..] {
            let mut next = Vec::with_capacity(result.len() * mis.len());
            for base in &result {
                for choice in mis {
                    if next.len() >= limit {
                        return None;
                    }
                    next.push(base.union(choice));
                }
            }
            result = next;
        }
        result.sort();
        Some(result)
    }

    /// Maximal independent sets of a single cluster's conflict subgraph
    /// (Bron–Kerbosch with pivoting on the complement relation).
    fn cluster_mis(&self, members: &[TransitionId]) -> Vec<BitSet> {
        let n = self.adjacency.len();
        let member_set = BitSet::from_iter_with_capacity(n, members.iter().map(|t| t.index()));
        // Independent sets in the conflict graph = cliques in its complement.
        // neighbours[v] = non-conflicting other members of the cluster.
        let neighbour = |v: usize| -> BitSet {
            let mut s = member_set.clone();
            s.difference_with(&self.adjacency[v]);
            s.remove(v);
            s
        };
        let mut out = Vec::new();
        fn bron_kerbosch(
            r: &BitSet,
            p: &BitSet,
            x: &BitSet,
            neighbour: &dyn Fn(usize) -> BitSet,
            out: &mut Vec<BitSet>,
        ) {
            if p.is_empty() && x.is_empty() {
                out.push(r.clone());
                return;
            }
            // pivot: vertex from p ∪ x with most neighbours in p
            let pivot = p
                .iter()
                .chain(x.iter())
                .max_by_key(|&v| neighbour(v).intersection(p).len())
                .expect("p ∪ x nonempty");
            let candidates = p.difference(&neighbour(pivot));
            let mut p = p.clone();
            let mut x = x.clone();
            for v in candidates.iter() {
                let nv = neighbour(v);
                let mut r2 = r.clone();
                r2.insert(v);
                bron_kerbosch(
                    &r2,
                    &p.intersection(&nv),
                    &x.intersection(&nv),
                    neighbour,
                    out,
                );
                p.remove(v);
                x.insert(v);
            }
        }
        let empty = BitSet::new(n);
        bron_kerbosch(&empty, &member_set, &empty, &neighbour, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    fn sets_to_sorted_vecs(sets: &[BitSet]) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = sets.iter().map(|s| s.iter().collect()).collect();
        v.sort();
        v
    }

    #[test]
    fn no_conflicts_single_valid_set() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        b.transition("a", [p], []);
        b.transition("b", [q], []);
        let net = b.build().unwrap();
        let info = ConflictInfo::new(&net);
        assert_eq!(info.clusters().len(), 2);
        assert_eq!(info.choice_clusters().count(), 0);
        let sets = info.maximal_conflict_free_sets(100).unwrap();
        assert_eq!(sets_to_sorted_vecs(&sets), vec![vec![0, 1]]);
    }

    #[test]
    fn single_choice_place_gives_one_set_per_branch() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        b.transition("a", [p], []);
        b.transition("b", [p], []);
        b.transition("c", [p], []);
        let net = b.build().unwrap();
        let info = ConflictInfo::new(&net);
        assert!(info.clusters_are_cliques());
        let sets = info.maximal_conflict_free_sets(100).unwrap();
        assert_eq!(sets_to_sorted_vecs(&sets), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn fig7_valid_sets() {
        // A#B (share p0), C#D (share p3): r0 = {{A,C},{A,D},{B,C},{B,D}}
        let mut b = NetBuilder::new("fig7");
        let p0 = b.place_marked("p0");
        let p3 = b.place_marked("p3");
        b.transition("A", [p0], []);
        b.transition("B", [p0], []);
        b.transition("C", [p3], []);
        b.transition("D", [p3], []);
        let net = b.build().unwrap();
        let info = ConflictInfo::new(&net);
        let sets = info.maximal_conflict_free_sets(100).unwrap();
        assert_eq!(
            sets_to_sorted_vecs(&sets),
            vec![vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3]]
        );
    }

    #[test]
    fn chain_cluster_is_not_clique() {
        // a-b conflict via p, b-c conflict via q, but a and c independent
        let mut b = NetBuilder::new("chain");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let a = b.transition("a", [p], []);
        let bb = b.transition("b", [p, q], []);
        let c = b.transition("c", [q], []);
        let net = b.build().unwrap();
        let info = ConflictInfo::new(&net);
        assert_eq!(info.clusters().len(), 1);
        assert!(!info.clusters_are_cliques());
        assert!(info.in_conflict(a, bb));
        assert!(info.in_conflict(bb, c));
        assert!(!info.in_conflict(a, c));
        // maximal independent sets: {a,c} and {b}
        let sets = info.maximal_conflict_free_sets(100).unwrap();
        assert_eq!(sets_to_sorted_vecs(&sets), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn product_across_clusters() {
        // two independent binary choices and one free transition
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let r = b.place_marked("r");
        b.transition("a1", [p], []);
        b.transition("a2", [p], []);
        b.transition("b1", [q], []);
        b.transition("b2", [q], []);
        b.transition("free", [r], []);
        let net = b.build().unwrap();
        let info = ConflictInfo::new(&net);
        let sets = info.maximal_conflict_free_sets(100).unwrap();
        assert_eq!(sets.len(), 4);
        for s in &sets {
            assert!(s.contains(4), "free transition in every valid set");
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn limit_enforced() {
        // 8 binary choices -> 256 valid sets
        let mut b = NetBuilder::new("n");
        for i in 0..8 {
            let p = b.place_marked(format!("p{i}"));
            b.transition(format!("a{i}"), [p], []);
            b.transition(format!("b{i}"), [p], []);
        }
        let net = b.build().unwrap();
        let info = ConflictInfo::new(&net);
        assert!(info.maximal_conflict_free_sets(255).is_none());
        assert_eq!(info.maximal_conflict_free_sets(256).unwrap().len(), 256);
    }

    #[test]
    fn conflicts_of_excludes_self() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let a = b.transition("a", [p], []);
        b.transition("b", [p], []);
        let net = b.build().unwrap();
        let info = ConflictInfo::new(&net);
        assert!(!info.conflicts_of(a).contains(a.index()));
        assert_eq!(info.conflicts_of(a).len(), 1);
    }
}
