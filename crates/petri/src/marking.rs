//! Markings of safe Petri nets.
//!
//! A safe net never holds more than one token per place, so a marking is a
//! set of places, stored as a [`BitSet`]. This makes hashing, equality and
//! the firing rule O(|P|/64).

use std::fmt;

use crate::bitset::BitSet;
use crate::ids::PlaceId;

/// A marking (state) of a safe Petri net: the set of marked places.
///
/// # Examples
///
/// ```
/// use petri::{Marking, PlaceId};
///
/// let mut m = Marking::empty(4);
/// m.add_token(PlaceId::new(2));
/// assert!(m.is_marked(PlaceId::new(2)));
/// assert_eq!(m.token_count(), 1);
/// ```
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking {
    bits: BitSet,
}

// not derived, so that `clone_from` reuses the block allocation
impl Clone for Marking {
    fn clone(&self) -> Self {
        Marking {
            bits: self.bits.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
    }
}

impl Marking {
    /// The empty marking over a net with `place_count` places.
    pub fn empty(place_count: usize) -> Self {
        Marking {
            bits: BitSet::new(place_count),
        }
    }

    /// Builds a marking directly from a place bit set.
    pub fn from_bits(bits: BitSet) -> Self {
        Marking { bits }
    }

    /// Builds a marking from an iterator of marked places.
    pub fn from_places<I: IntoIterator<Item = PlaceId>>(place_count: usize, places: I) -> Self {
        Marking {
            bits: BitSet::from_iter_with_capacity(
                place_count,
                places.into_iter().map(PlaceId::index),
            ),
        }
    }

    /// `true` if place `p` holds a token.
    pub fn is_marked(&self, p: PlaceId) -> bool {
        self.bits.contains(p.index())
    }

    /// Adds a token to `p`, returning `false` if `p` was already marked
    /// (a safeness violation for a token *production*).
    pub fn add_token(&mut self, p: PlaceId) -> bool {
        self.bits.insert(p.index())
    }

    /// Removes the token from `p`, returning `false` if `p` was empty.
    pub fn remove_token(&mut self, p: PlaceId) -> bool {
        self.bits.remove(p.index())
    }

    /// Number of tokens (= number of marked places, since the net is safe).
    pub fn token_count(&self) -> usize {
        self.bits.len()
    }

    /// Iterates over the marked places in increasing index order.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.bits.iter().map(PlaceId::new)
    }

    /// Approximate memory footprint of this marking in bytes (struct plus
    /// heap-allocated bit blocks) — the unit of the budget governor's
    /// byte accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.bits.capacity().div_ceil(64) * 8
    }

    /// The underlying bit set over place indices.
    pub fn as_bits(&self) -> &BitSet {
        &self.bits
    }

    /// `true` if every place of `required` is marked in `self`.
    pub fn covers(&self, required: &BitSet) -> bool {
        required.is_subset(&self.bits)
    }

    /// `true` if no place of `set` is marked in `self`.
    pub fn disjoint_from(&self, set: &BitSet) -> bool {
        self.bits.is_disjoint(set)
    }

    /// Number of places in the net this marking belongs to.
    pub fn place_count(&self) -> usize {
        self.bits.capacity()
    }

    /// The marking as packed words, 64 places per word: what the state
    /// table stores and the word firing rule reads.
    pub(crate) fn words(&self) -> &[u64] {
        self.bits.as_blocks()
    }

    /// The packed words, writable (see [`BitSet::blocks_mut`]).
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        self.bits.blocks_mut()
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.places().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_marking_has_no_tokens() {
        let m = Marking::empty(5);
        assert_eq!(m.token_count(), 0);
        assert_eq!(m.place_count(), 5);
        assert!(!m.is_marked(PlaceId::new(0)));
    }

    #[test]
    fn add_and_remove_tokens() {
        let mut m = Marking::empty(5);
        assert!(m.add_token(PlaceId::new(1)));
        assert!(!m.add_token(PlaceId::new(1)), "double add detected");
        assert!(m.remove_token(PlaceId::new(1)));
        assert!(!m.remove_token(PlaceId::new(1)), "double remove detected");
    }

    #[test]
    fn from_places_builds_expected_set() {
        let m = Marking::from_places(6, [PlaceId::new(0), PlaceId::new(5)]);
        assert_eq!(m.token_count(), 2);
        assert_eq!(
            m.places().collect::<Vec<_>>(),
            vec![PlaceId::new(0), PlaceId::new(5)]
        );
    }

    #[test]
    fn covers_and_disjoint() {
        let m = Marking::from_places(6, [PlaceId::new(1), PlaceId::new(2)]);
        let need = BitSet::from_iter_with_capacity(6, [1, 2]);
        let need_more = BitSet::from_iter_with_capacity(6, [1, 2, 3]);
        let other = BitSet::from_iter_with_capacity(6, [4]);
        assert!(m.covers(&need));
        assert!(!m.covers(&need_more));
        assert!(m.disjoint_from(&other));
        assert!(!m.disjoint_from(&need));
    }

    #[test]
    fn display_lists_places() {
        let m = Marking::from_places(6, [PlaceId::new(0), PlaceId::new(3)]);
        assert_eq!(m.to_string(), "{p0,p3}");
    }

    #[test]
    fn equal_markings_hash_equal() {
        use std::collections::HashSet;
        let a = Marking::from_places(10, [PlaceId::new(2)]);
        let mut b = Marking::empty(10);
        b.add_token(PlaceId::new(2));
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
