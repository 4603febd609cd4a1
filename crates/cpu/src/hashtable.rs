//! Flat open-addressing group-by hash table.
//!
//! The paper keeps GROUP-BY state in statically allocated, open-addressing
//! hash tables backed by byte arrays (§5.3/§5.4) so that aggregation never
//! allocates on the critical path and so that CPU and GPGPU use the same
//! table layout. [`GroupTable`] is four flat arrays: linearly probed
//! power-of-two `slots` (`0` empty, else group index + 1), and per group in
//! insertion order its hash, its `arity` key words and one [`AggState`] per
//! aggregate. A group is a dense index, so a fold can resolve rows to group
//! ids in one pass and scatter aggregate inputs in another. Nothing is
//! allocated per group (COUNT DISTINCT states aside, which carry value
//! sets), and [`GroupTable::clear`] keeps every buffer.
//!
//! The hash reads whole key words, folding each into the running hash with
//! one 64×64→128-bit multiply whose halves are xor-ed, across the columns of
//! a composite key. Slots are indexed by the hash's **high** bits, which
//! depend on every key bit, so keys that differ only in high bits —
//! multiples of 2^k, `f32` bit patterns, timestamps — do not cluster.

use saber_query::aggregate::{AggState, AggregateFunction};

/// Odd multiplier of the word hash (2^64 / φ).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Initial value of the word hash, so an empty key hashes to a constant.
const SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Folds one key word into the running hash `h`.
#[inline]
fn mix(h: u64, word: i64) -> u64 {
    let product = u128::from(h ^ word as u64) * u128::from(MUL);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The word hash of one group key.
#[inline]
fn hash(keys: &[i64]) -> u64 {
    keys.iter().fold(SEED, |h, &k| mix(h, k))
}

/// An open-addressing (linear probing) hash table from group keys to partial
/// aggregate states, stored flat (see the module docs).
#[derive(Debug, Clone)]
pub struct GroupTable {
    /// `0` = empty, otherwise group index + 1.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the slot index is `hash >> shift`.
    shift: u32,
    hashes: Vec<u64>,
    keys: Vec<i64>,
    states: Vec<AggState>,
    /// Key words per group.
    arity: usize,
    /// The identity state of each aggregate, copied into every new group.
    identity: Vec<AggState>,
}

impl GroupTable {
    /// Creates a table for keys of `arity` words and `functions.len()`
    /// aggregates per group, sized for 64 groups (one when ungrouped).
    pub fn new(arity: usize, functions: &[AggregateFunction]) -> Self {
        Self::with_capacity(arity, functions, if arity == 0 { 1 } else { 64 })
    }

    /// Creates a table that holds `groups` groups without growing (at a load
    /// factor of at most 1/2).
    pub fn with_capacity(arity: usize, functions: &[AggregateFunction], groups: usize) -> Self {
        let slots = (2 * groups).next_power_of_two().max(8);
        let identity: Vec<AggState> = functions
            .iter()
            .map(|f| match f {
                AggregateFunction::CountDistinct => AggState::new_distinct(),
                _ => AggState::new(),
            })
            .collect();
        Self {
            slots: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            hashes: Vec::with_capacity(groups),
            keys: Vec::with_capacity(groups * arity),
            states: Vec::with_capacity(groups * identity.len()),
            arity,
            identity,
        }
    }

    /// Number of distinct groups currently stored.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if no group has been inserted.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Number of aggregates tracked per group.
    pub fn num_aggregates(&self) -> usize {
        self.identity.len()
    }

    /// Removes all groups, keeping every buffer (object pooling, §5.1).
    pub fn clear(&mut self) {
        self.slots.fill(0);
        self.hashes.clear();
        self.keys.clear();
        self.states.clear();
    }

    /// The key of group `group`.
    #[inline]
    pub fn keys(&self, group: usize) -> &[i64] {
        &self.keys[group * self.arity..(group + 1) * self.arity]
    }

    /// The aggregate states of group `group`.
    #[inline]
    pub fn states(&self, group: usize) -> &[AggState] {
        let n = self.num_aggregates();
        &self.states[group * n..(group + 1) * n]
    }

    /// Every group's states, group-major: aggregate `a` of group `g` is at
    /// `g * num_aggregates() + a`.
    #[inline]
    pub fn states_mut(&mut self) -> &mut [AggState] {
        &mut self.states
    }

    /// The index of the group of `keys`, inserting the group (with identity
    /// states) if it is new. Indices are dense and in insertion order.
    #[inline]
    pub fn group(&mut self, keys: &[i64]) -> usize {
        self.group_hashed(hash(keys), keys)
    }

    #[inline]
    fn group_hashed(&mut self, hash: u64, keys: &[i64]) -> usize {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        match self.find(hash, keys) {
            Ok(group) => group,
            Err(slot) => {
                let group = self.len();
                self.slots[slot] = u32::try_from(group + 1).expect("fewer than 2^32 groups");
                self.hashes.push(hash);
                self.keys.extend_from_slice(keys);
                self.states.extend_from_slice(&self.identity);
                group
            }
        }
    }

    /// Probes for `keys`: `Ok(group)` if present, otherwise `Err(slot)` of
    /// the empty slot that ends its probe sequence. Keys are compared word
    /// by word with no stored-hash check first, the cheaper test for the
    /// usual one- or two-word key.
    #[inline]
    fn find(&self, hash: u64, keys: &[i64]) -> Result<usize, usize> {
        debug_assert_eq!(keys.len(), self.arity);
        let mask = self.slots.len() - 1;
        let mut idx = (hash >> self.shift) as usize;
        loop {
            let group = match self.slots[idx] {
                0 => return Err(idx),
                slot => slot as usize - 1,
            };
            let hit = match keys {
                [key] => self.keys[group] == *key,
                _ => {
                    let stored = &self.keys[group * self.arity..];
                    keys.iter().zip(stored).all(|(k, s)| k == s)
                }
            };
            if hit {
                return Ok(group);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Doubles the slot array and re-slots every group from its stored hash.
    fn grow(&mut self) {
        let slots = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(slots, 0);
        self.shift = 64 - slots.trailing_zeros();
        for group in 0..self.len() {
            if let Err(slot) = self.find(self.hashes[group], self.keys(group)) {
                self.slots[slot] = group as u32 + 1;
            }
        }
    }

    /// Looks up the states of `keys` without inserting.
    pub fn get(&self, keys: &[i64]) -> Option<&[AggState]> {
        let group = (keys.len() == self.arity).then(|| self.find(hash(keys), keys).ok());
        group.flatten().map(|g| self.states(g))
    }

    /// Merges another table into this one (the assembly operator function
    /// for GROUP-BY aggregation: per-group state merge).
    pub fn merge(&mut self, other: &GroupTable) {
        debug_assert_eq!(self.arity, other.arity);
        debug_assert_eq!(self.num_aggregates(), other.num_aggregates());
        let n = self.num_aggregates();
        for (g, &hash) in other.hashes.iter().enumerate() {
            let mine = self.group_hashed(hash, other.keys(g)) * n;
            for (m, o) in self.states[mine..].iter_mut().zip(other.states(g)) {
                m.merge(o);
            }
        }
    }

    /// Sorted snapshot of the table (tests and deterministic output).
    pub fn sorted_groups(&self) -> Vec<(Vec<i64>, Vec<AggState>)> {
        let mut v: Vec<(Vec<i64>, Vec<AggState>)> = (0..self.len())
            .map(|g| (self.keys(g).to_vec(), self.states(g).to_vec()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_count() -> Vec<AggregateFunction> {
        vec![AggregateFunction::Sum, AggregateFunction::Count]
    }

    impl GroupTable {
        /// The per-aggregate states of `keys`, creating the group if needed.
        fn entry(&mut self, keys: &[i64]) -> &mut [AggState] {
            let n = self.num_aggregates();
            let group = self.group(keys);
            &mut self.states[group * n..(group + 1) * n]
        }

        /// The longest probe sequence any stored group needs.
        fn longest_probe(&self) -> usize {
            let mask = self.slots.len() - 1;
            (0..self.slots.len())
                .filter(|&idx| self.slots[idx] != 0)
                .map(|idx| {
                    let home = (self.hashes[self.slots[idx] as usize - 1] >> self.shift) as usize;
                    ((idx.wrapping_sub(home)) & mask) + 1
                })
                .max()
                .unwrap_or(0)
        }
    }

    #[test]
    fn insert_and_lookup_single_group() {
        let mut t = GroupTable::new(1, &sum_count());
        t.entry(&[7])[0].update(2.0);
        t.entry(&[7])[0].update(3.0);
        t.entry(&[7])[1].update(1.0);
        assert_eq!(t.len(), 1);
        let states = t.get(&[7]).unwrap();
        assert_eq!(states[0].sum, 5.0);
        assert_eq!(states[1].count, 1);
        assert!(t.get(&[8]).is_none());
    }

    #[test]
    fn many_groups_with_growth() {
        let mut t = GroupTable::with_capacity(1, &sum_count(), 4);
        for g in 0..1000i64 {
            for _ in 0..3 {
                t.entry(&[g])[0].update(g as f64);
            }
        }
        assert_eq!(t.len(), 1000);
        for g in (0..1000i64).step_by(97) {
            let s = t.get(&[g]).unwrap();
            assert_eq!(s[0].sum, 3.0 * g as f64);
            assert_eq!(s[0].count, 3);
        }
    }

    #[test]
    fn groups_are_dense_in_insertion_order() {
        let mut t = GroupTable::new(1, &sum_count());
        for (i, k) in [40, -3, 7, 40, 7, 12].iter().enumerate() {
            let g = t.group(&[*k]);
            assert_eq!(t.keys(g), &[*k], "row {i}");
        }
        let keys: Vec<i64> = (0..t.len()).map(|g| t.keys(g)[0]).collect();
        assert_eq!(keys, vec![40, -3, 7, 12]);
        assert_eq!(t.states_mut().len(), 4 * 2);
    }

    #[test]
    fn composite_keys_are_distinguished() {
        let mut t = GroupTable::new(2, &sum_count());
        t.entry(&[1, 2])[0].update(1.0);
        t.entry(&[2, 1])[0].update(10.0);
        t.entry(&[1, 2])[0].update(1.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&[1, 2]).unwrap()[0].sum, 2.0);
        assert_eq!(t.get(&[2, 1]).unwrap()[0].sum, 10.0);
    }

    #[test]
    fn merge_combines_group_states() {
        let mut a = GroupTable::new(1, &sum_count());
        let mut b = GroupTable::new(1, &sum_count());
        a.entry(&[1])[0].update(1.0);
        a.entry(&[2])[0].update(2.0);
        b.entry(&[2])[0].update(3.0);
        b.entry(&[3])[0].update(4.0);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(&[2]).unwrap()[0].sum, 5.0);
        assert_eq!(a.get(&[3]).unwrap()[0].sum, 4.0);
    }

    #[test]
    fn merge_matches_single_table_reference() {
        // Property: splitting updates across two tables and merging gives the
        // same result as applying all updates to one table.
        let updates: Vec<(i64, f64)> = (0..500)
            .map(|i| ((i % 37) as i64, i as f64 * 0.25))
            .collect();
        let mut whole = GroupTable::new(1, &sum_count());
        for (k, v) in &updates {
            whole.entry(&[*k])[0].update(*v);
            whole.entry(&[*k])[1].update(*v);
        }
        let mut left = GroupTable::new(1, &sum_count());
        let mut right = GroupTable::new(1, &sum_count());
        for (i, (k, v)) in updates.iter().enumerate() {
            let t = if i % 2 == 0 { &mut left } else { &mut right };
            t.entry(&[*k])[0].update(*v);
            t.entry(&[*k])[1].update(*v);
        }
        left.merge(&right);
        let a = whole.sorted_groups();
        let b = left.sorted_groups();
        assert_eq!(a.len(), b.len());
        for ((ka, sa), (kb, sb)) in a.iter().zip(b.iter()) {
            assert_eq!(ka, kb);
            assert!((sa[0].sum - sb[0].sum).abs() < 1e-9);
            assert_eq!(sa[1].count, sb[1].count);
        }
    }

    #[test]
    fn distinct_states_are_created_for_count_distinct() {
        let mut t = GroupTable::new(1, &[AggregateFunction::CountDistinct]);
        t.entry(&[1])[0].update_distinct(5);
        t.entry(&[1])[0].update_distinct(5);
        t.entry(&[1])[0].update_distinct(6);
        assert_eq!(
            t.get(&[1]).unwrap()[0].finalize(AggregateFunction::CountDistinct),
            2.0
        );
    }

    #[test]
    fn ungrouped_table_holds_one_group() {
        let mut t = GroupTable::new(0, &sum_count());
        t.entry(&[])[1].update(1.0);
        t.entry(&[])[1].update(1.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[]).unwrap()[1].count, 2);
        assert!(t.get(&[0]).is_none());
    }

    #[test]
    fn clear_retains_capacity_and_empties_table() {
        let mut t = GroupTable::with_capacity(1, &sum_count(), 4);
        for g in 0..100i64 {
            t.entry(&[g])[0].update(1.0);
        }
        let (slots, states) = (t.slots.len(), t.states.capacity());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.slots.len(), slots);
        assert_eq!(t.states.capacity(), states);
        assert!(t.get(&[5]).is_none());
        t.entry(&[5])[0].update(1.0);
        assert_eq!(t.get(&[5]).unwrap()[0].count, 1);
    }

    #[test]
    fn hash_is_deterministic_and_key_sensitive() {
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[3, 2, 1]));
        assert_ne!(hash(&[0]), hash(&[1]));
        assert_ne!(hash(&[]), hash(&[0]));
    }

    /// Keys that differ only in their high bits must spread over the slots
    /// like small integers do: every lookup succeeds and no probe sequence
    /// grows past a small bound.
    #[test]
    fn keys_differing_in_high_bits_spread() {
        const KEYS: i64 = 4096;
        const LONGEST_PROBE: usize = 24;
        let f32_bits = |i: i64| {
            let mut keys = Vec::new();
            let mut rows = saber_types::RowBuffer::new(
                saber_types::Schema::from_pairs(&[
                    ("timestamp", saber_types::DataType::Timestamp),
                    ("v", saber_types::DataType::Float),
                ])
                .unwrap()
                .into_ref(),
            );
            rows.push_values(&[
                saber_types::Value::Timestamp(0),
                saber_types::Value::Float(i as f32),
            ])
            .unwrap();
            saber_types::columnar::gather_keys(&rows, 0..1, 1, &mut keys);
            keys[0]
        };
        let kinds: Vec<(&str, Vec<Vec<i64>>)> = vec![
            (
                "multiples of 2^20",
                (0..KEYS).map(|i| vec![i << 20]).collect(),
            ),
            ("negative", (0..KEYS).map(|i| vec![-1 - i * 3]).collect()),
            (
                "f32 bit patterns",
                (0..KEYS).map(|i| vec![f32_bits(i)]).collect(),
            ),
            (
                "second column",
                (0..KEYS).map(|i| vec![7, i << 32]).collect(),
            ),
        ];
        for (kind, keys) in kinds {
            let mut t = GroupTable::new(keys[0].len(), &sum_count());
            for (i, k) in keys.iter().enumerate() {
                t.entry(k)[0].update(i as f64);
            }
            assert_eq!(t.len(), KEYS as usize, "{kind}");
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(t.get(k).map(|s| s[0].sum), Some(i as f64), "{kind}");
            }
            let longest = t.longest_probe();
            assert!(longest <= LONGEST_PROBE, "{kind}: probe of {longest} slots");
        }
    }
}
