//! The state store of the one-thread frontier loop: every explored state
//! once, under its dense `u32` id, plus an open-addressing index of those
//! ids.
//!
//! The index ([`IdIndex`]) holds ids only. It hashes and compares through
//! the store, so a lookup clones no key and a duplicate successor costs one
//! hash, one probe and one comparison. The state type picks the store
//! behind it through [`FrontierState::Table`](crate::parallel::FrontierState::Table):
//!
//! * [`PackedTable`] keeps [`Marking`]s as packed words in one arena of
//!   fixed stride (⌈|P|/64⌉ words a state), with no per-state allocation;
//! * [`VecTable`] keeps any other state type in a `Vec`, hashed through
//!   its [`Hash`] impl.
//!
//! Both hash with the multiply-rotate hash of [`hash_words`].

use std::hash::{Hash, Hasher};

use crate::bitset::BitSet;
use crate::marking::Marking;

/// The multiplier of the multiply-rotate hash (the "Fx" hash).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(K)
}

/// The multiply-rotate hash of a word slice. The final multiply leaves
/// its best bits at the top, which is where the state table's id index
/// takes its slot from: a table of 2^k slots should index by the hash's
/// top k bits.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0, |h, &w| mix(h, w))
}

/// A [`Hasher`] running the same multiply-rotate step over whatever a
/// [`Hash`] impl feeds it.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.0 = mix(self.0, u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = mix(self.0, u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = mix(self.0, n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_of<St: Hash>(state: &St) -> u64 {
    let mut h = WordHasher::default();
    state.hash(&mut h);
    h.finish()
}

/// Marks an empty slot; no stored id reaches it (the loop reserves
/// `u32::MAX` as its overflow sentinel).
const EMPTY: u32 = u32::MAX;
/// Slots of a fresh index: small, since most explorations are small.
const MIN_SLOTS: usize = 16;

/// An open-addressing set of dense ids with linear probing, at most half
/// full. It stores no keys: callers pass a state's hash and a predicate
/// that compares a candidate id's state with the one looked up.
#[derive(Debug, Clone)]
pub(crate) struct IdIndex {
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
    len: usize,
}

impl IdIndex {
    /// An empty index with room for `n` ids before it first grows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let slots = n.saturating_mul(2).next_power_of_two().max(MIN_SLOTS);
        IdIndex {
            slots: vec![EMPTY; slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// The index of ids `0..n`, which must name pairwise distinct states.
    pub(crate) fn of_distinct(n: usize, hash_of: impl Fn(u32) -> u64) -> Self {
        let mut index = IdIndex::with_capacity(n);
        for id in 0..n as u32 {
            let slot = index.empty_slot(hash_of(id));
            index.slots[slot] = id;
        }
        index.len = n;
        index
    }

    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    fn empty_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Looks up the id whose state `is_it` accepts among those hashing
    /// to `hash`: `Ok(id)`, or `Err(slot)` naming the empty slot where it
    /// belongs (valid until the next [`fill`](Self::fill)).
    pub(crate) fn probe(
        &self,
        hash: u64,
        mut is_it: impl FnMut(u32) -> bool,
    ) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                return Err(i);
            }
            if is_it(id) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `id` in the empty `slot` a [`probe`](Self::probe) returned,
    /// doubling the table (rehashing every id through `hash_of`) once it
    /// is more than half full.
    pub(crate) fn fill(&mut self, slot: usize, id: u32, hash_of: impl Fn(u32) -> u64) {
        debug_assert_eq!(self.slots[slot], EMPTY);
        self.slots[slot] = id;
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let old = std::mem::take(&mut self.slots);
            let slots = old.len() * 2;
            self.slots = vec![EMPTY; slots];
            self.shift = 64 - slots.trailing_zeros();
            for id in old.into_iter().filter(|&id| id != EMPTY) {
                let slot = self.empty_slot(hash_of(id));
                self.slots[slot] = id;
            }
        }
    }
}

/// A state store of the one-thread frontier loop (see the module docs).
/// Ids are dense: the `n`-th stored state has id `n - 1`.
pub trait StateTable<St>: Sized {
    /// How many budget polls the loop makes per read of the deadline
    /// clock. Reading `Instant::now()` costs tens of nanoseconds, as much
    /// as a whole marking lookup, so stores of cheap states read it only
    /// now and then; stores whose expansions are expensive read it on
    /// every poll.
    const POLLS_PER_CLOCK_READ: u32;

    /// A table holding `states` under ids `0..states.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `states` holds a state twice.
    fn from_states(states: Vec<St>) -> Self;

    /// Number of stored states.
    fn len(&self) -> usize;

    /// `true` when no state is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of `state`, which is stored under the next id if it is new
    /// (the only case in which it is copied); the flag says whether it was.
    fn insert(&mut self, state: &St) -> (usize, bool);

    /// State `id`, as a new value.
    fn get(&self, id: usize) -> St;

    /// Overwrites `into` with state `id`, reusing its allocation where the
    /// state type allows.
    fn load(&self, id: usize, into: &mut St);

    /// Every stored state, in id order.
    fn into_states(self) -> Vec<St>;
}

/// [`StateTable`] for any state type: the states in a `Vec`, hashed
/// through their [`Hash`] impl.
#[derive(Debug)]
pub struct VecTable<St> {
    states: Vec<St>,
    index: IdIndex,
}

impl<St: Clone + Eq + Hash> VecTable<St> {
    fn push(&mut self, slot: usize, state: St) -> usize {
        let id = self.states.len();
        self.states.push(state);
        let states = &self.states;
        self.index
            .fill(slot, id as u32, |i| hash_of(&states[i as usize]));
        id
    }
}

impl<St: Clone + Eq + Hash> StateTable<St> for VecTable<St> {
    const POLLS_PER_CLOCK_READ: u32 = 1;

    fn from_states(states: Vec<St>) -> Self {
        let mut table = VecTable {
            states: Vec::with_capacity(states.len()),
            index: IdIndex::with_capacity(states.len()),
        };
        for state in states {
            let states = &table.states;
            let slot = table
                .index
                .probe(hash_of(&state), |id| states[id as usize] == state)
                .expect_err("duplicate state in seed");
            table.push(slot, state);
        }
        table
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn insert(&mut self, state: &St) -> (usize, bool) {
        let states = &self.states;
        match self
            .index
            .probe(hash_of(state), |id| states[id as usize] == *state)
        {
            Ok(id) => (id as usize, false),
            Err(slot) => (self.push(slot, state.clone()), true),
        }
    }

    fn get(&self, id: usize) -> St {
        self.states[id].clone()
    }

    fn load(&self, id: usize, into: &mut St) {
        into.clone_from(&self.states[id]);
    }

    fn into_states(self) -> Vec<St> {
        self.states
    }
}

/// [`StateTable`] for [`Marking`]s: one arena of packed words, `stride`
/// words a state, so storing a state allocates nothing of its own and
/// comparing one is a slice comparison.
#[derive(Debug)]
pub struct PackedTable {
    words: Vec<u64>,
    /// Words per state, ⌈|P|/64⌉.
    stride: usize,
    /// |P|, shared by every stored marking.
    places: usize,
    len: usize,
    index: IdIndex,
}

/// State `id`'s words in an arena of `stride` words a state.
fn words_of(words: &[u64], stride: usize, id: usize) -> &[u64] {
    &words[id * stride..(id + 1) * stride]
}

impl PackedTable {
    fn marking(&self, id: usize) -> Marking {
        let words = words_of(&self.words, self.stride, id).to_vec();
        let bits = BitSet::from_blocks(self.places, words)
            .expect("stored words come from a marking of this net");
        Marking::from_bits(bits)
    }
}

impl StateTable<Marking> for PackedTable {
    const POLLS_PER_CLOCK_READ: u32 = 256;

    fn from_states(states: Vec<Marking>) -> Self {
        let places = states.first().map_or(0, Marking::place_count);
        let mut table = PackedTable {
            words: Vec::new(),
            stride: places.div_ceil(64),
            places,
            len: 0,
            index: IdIndex::with_capacity(states.len()),
        };
        for state in &states {
            let (_, new) = table.insert(state);
            assert!(new, "duplicate state in seed");
        }
        table
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, state: &Marking) -> (usize, bool) {
        assert_eq!(
            state.place_count(),
            self.places,
            "every state of one exploration has the same places"
        );
        let w = state.words();
        let (words, stride) = (&self.words, self.stride);
        match self.index.probe(hash_words(w), |id| {
            words_of(words, stride, id as usize) == w
        }) {
            Ok(id) => (id as usize, false),
            Err(slot) => {
                let id = self.len;
                self.words.extend_from_slice(w);
                self.len += 1;
                let words = &self.words;
                self.index.fill(slot, id as u32, |i| {
                    hash_words(words_of(words, stride, i as usize))
                });
                (id, true)
            }
        }
    }

    fn get(&self, id: usize) -> Marking {
        self.marking(id)
    }

    fn load(&self, id: usize, into: &mut Marking) {
        into.words_mut()
            .copy_from_slice(words_of(&self.words, self.stride, id));
    }

    fn into_states(mut self) -> Vec<Marking> {
        // the index goes first: the markings below are the peak
        drop(std::mem::replace(
            &mut self.index,
            IdIndex::with_capacity(0),
        ));
        (0..self.len).map(|id| self.marking(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PlaceId;

    fn marking(places: usize, marked: &[usize]) -> Marking {
        Marking::from_places(places, marked.iter().map(|&p| PlaceId::new(p)))
    }

    #[test]
    fn packed_table_numbers_states_densely_and_grows() {
        // 130 places: three words a state, the last one partial
        let states: Vec<Marking> = (0..1000)
            .map(|i| marking(130, &[i % 130, (i * 7) % 129 + 1]))
            .collect();
        let mut table = PackedTable::from_states(vec![states[0].clone()]);
        let mut seen = vec![states[0].clone()];
        for s in &states {
            let before = table.len();
            match seen.iter().position(|d| d == s) {
                Some(id) => assert_eq!(table.insert(s), (id, false)),
                None => {
                    assert_eq!(table.insert(s), (before, true));
                    seen.push(s.clone());
                }
            }
        }
        assert_eq!(table.len(), seen.len());
        let mut scratch = marking(130, &[]);
        for (id, s) in seen.iter().enumerate() {
            assert_eq!(&table.get(id), s);
            table.load(id, &mut scratch);
            assert_eq!(&scratch, s);
        }
        assert_eq!(table.into_states(), seen);
    }

    #[test]
    fn vec_table_numbers_states_densely() {
        let mut table = VecTable::from_states(vec![String::from("a")]);
        assert_eq!(table.insert(&"b".to_string()), (1, true));
        assert_eq!(table.insert(&"a".to_string()), (0, false));
        for i in 0..100 {
            assert_eq!(table.insert(&i.to_string()).0, i + 2);
        }
        assert_eq!(table.insert(&"b".to_string()), (1, false));
        let mut s = String::new();
        table.load(1, &mut s);
        assert_eq!(s, "b");
        assert_eq!(table.into_states().len(), 102);
    }

    #[test]
    #[should_panic(expected = "duplicate state in seed")]
    fn seeds_with_duplicates_are_rejected() {
        PackedTable::from_states(vec![marking(3, &[1]), marking(3, &[1])]);
    }

    #[test]
    fn zero_place_nets_have_one_state() {
        let mut table = PackedTable::from_states(vec![Marking::empty(0)]);
        assert_eq!(table.insert(&Marking::empty(0)), (0, false));
        assert_eq!(table.into_states(), vec![Marking::empty(0)]);
    }

    #[test]
    fn index_of_distinct_ids_finds_each() {
        let words: Vec<u64> = (0..500u64).map(|i| i * 0x9E37).collect();
        let index = IdIndex::of_distinct(words.len(), |id| {
            hash_words(&words[id as usize..=id as usize])
        });
        for (id, w) in words.iter().enumerate() {
            let found = index.probe(hash_words(&[*w]), |c| words[c as usize] == *w);
            assert_eq!(found, Ok(id as u32));
        }
        assert!(index
            .probe(hash_words(&[7]), |c| words[c as usize] == 7)
            .is_err());
    }
}
