//! The bucket-chained hash table used by the hand-tuned baseline.
//!
//! MonetDB builds its join and group-by hash tables sequentially with a
//! classic bucket + chain layout: `buckets[h]` holds the index of the most
//! recent row that hashed to `h`, and `next[i]` links to the previous row in
//! the same bucket. Build is a single pass without any synchronisation —
//! the paper's Figure 5(e) shows this sequential build beating Ocelot's
//! atomic-heavy parallel build on the CPU, which is why it is reproduced
//! faithfully here.

use ocelot_storage::Oid;

const EMPTY: u32 = u32::MAX;

/// Multiplicative integer hash (Fibonacci hashing); good enough spread for
/// the dense and uniform keys TPC-H produces.
#[inline]
pub fn hash_i32(key: i32, mask: u32) -> u32 {
    let h = (key as u32).wrapping_mul(0x9E37_79B1);
    h & mask
}

/// Multiplicative hash of a 64-bit key to a `bits`-bit slot index (the
/// top bits of the Fibonacci product, which depend on every key bit).
#[inline]
pub fn hash_u64(key: u64, bits: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// A read-only bucket-chained hash table over an `i32` key column.
#[derive(Debug, Clone)]
pub struct MonetHashTable {
    buckets: Vec<u32>,
    next: Vec<u32>,
    keys: Vec<i32>,
    mask: u32,
}

impl MonetHashTable {
    /// Builds a hash table over `keys` with roughly one bucket per key.
    pub fn build(keys: &[i32]) -> MonetHashTable {
        let bucket_count = (keys.len().max(1)).next_power_of_two();
        let mask = (bucket_count - 1) as u32;
        let mut buckets = vec![EMPTY; bucket_count];
        let mut next = vec![EMPTY; keys.len()];
        for (row, key) in keys.iter().enumerate() {
            let slot = hash_i32(*key, mask) as usize;
            next[row] = buckets[slot];
            buckets[slot] = row as u32;
        }
        MonetHashTable { buckets, next, keys: keys.to_vec(), mask }
    }

    /// Iterates over the row ids whose key equals `key` (most recently
    /// inserted first).
    pub fn probe(&self, key: i32) -> ProbeIter<'_> {
        let slot = hash_i32(key, self.mask) as usize;
        ProbeIter { table: self, key, cursor: self.buckets[slot] }
    }

    /// The first matching row id for `key`, if any. For key (unique)
    /// columns this is *the* match.
    pub fn find_first(&self, key: i32) -> Option<Oid> {
        self.probe(key).next()
    }

    /// Whether any row has the given key.
    pub fn contains(&self, key: i32) -> bool {
        self.find_first(key).is_some()
    }
}

/// Iterator over the row ids matching a probe key.
pub struct ProbeIter<'a> {
    table: &'a MonetHashTable,
    key: i32,
    cursor: u32,
}

impl Iterator for ProbeIter<'_> {
    type Item = Oid;

    fn next(&mut self) -> Option<Oid> {
        while self.cursor != EMPTY {
            let row = self.cursor;
            self.cursor = self.table.next[row as usize];
            if self.table.keys[row as usize] == self.key {
                return Some(row);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_and_probe_unique_keys() {
        let keys: Vec<i32> = (0..1000).collect();
        let table = MonetHashTable::build(&keys);
        assert_eq!(table.keys.len(), 1000);
        for k in 0..1000 {
            assert_eq!(table.find_first(k), Some(k as Oid));
            assert_eq!(table.probe(k).count(), 1);
        }
        assert_eq!(table.find_first(5000), None);
        assert!(!table.contains(-1));
    }

    #[test]
    fn duplicate_keys_are_all_found() {
        let keys = vec![7, 3, 7, 7, 3, 1];
        let table = MonetHashTable::build(&keys);
        let mut sevens: Vec<Oid> = table.probe(7).collect();
        sevens.sort_unstable();
        assert_eq!(sevens, vec![0, 2, 3]);
        assert_eq!(table.probe(3).count(), 2);
        assert_eq!(table.probe(1).count(), 1);
        assert_eq!(table.probe(99).count(), 0);
    }

    #[test]
    fn empty_table() {
        let table = MonetHashTable::build(&[]);
        assert!(table.keys.is_empty() && table.next.is_empty());
        assert_eq!(table.find_first(0), None);
        assert_eq!(table.buckets, vec![EMPTY]);
    }

    #[test]
    fn negative_keys() {
        let keys = vec![-5, -1, 0, 3, -5];
        let table = MonetHashTable::build(&keys);
        assert_eq!(table.probe(-5).count(), 2);
        assert_eq!(table.probe(-1).count(), 1);
        assert_eq!(table.probe(5).count(), 0);
    }

    #[test]
    fn bucket_count_is_power_of_two() {
        for n in [0usize, 1, 2, 3, 100, 1000] {
            let keys: Vec<i32> = (0..n as i32).collect();
            let table = MonetHashTable::build(&keys);
            assert!(table.buckets.len().is_power_of_two());
            assert!(table.buckets.len() >= n.max(1));
        }
    }

    proptest! {
        #[test]
        fn probe_matches_linear_scan(keys in proptest::collection::vec(-50i32..50, 0..300), probe in -60i32..60) {
            let table = MonetHashTable::build(&keys);
            let mut expected: Vec<Oid> = keys
                .iter()
                .enumerate()
                .filter(|(_, k)| **k == probe)
                .map(|(i, _)| i as Oid)
                .collect();
            let mut found: Vec<Oid> = table.probe(probe).collect();
            expected.sort_unstable();
            found.sort_unstable();
            prop_assert_eq!(found, expected);
        }
    }
}
