//! A fixed hasher for the engines' integer-id tables.
//!
//! The fabric, the disk pool, the repair loops and [`crate::EventQueue`]
//! look up flows, streams, repairs and live events by a `u64` id they
//! issue themselves, on every modelled event. The standard library's
//! SipHash is built to resist adversarial keys, which these ids are
//! not, and a B-tree pays a pointer chase per level. [`IdHasher`] is
//! one multiply by the 64-bit golden-ratio constant: sequential ids
//! spread over the table's low (bucket) bits and its high (tag) bits
//! alike. It takes no random state, so a table built by the same
//! inserts is the same table on every run.
//!
//! Hash-table iteration order is an artefact of the table, not of the
//! ids. Every walk whose order can reach a result takes its ids from
//! [`sorted_ids`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (⌊2⁶⁴ / φ⌋): multiplication by it is a
/// bijection on `u64` that carries each input bit into every higher
/// output bit.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiplicative hasher for integer ids. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(K);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`std::hash::BuildHasher`] for [`IdHasher`]: stateless, so every
/// table hashes an id the same way.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A hash map from `u64` ids, hashed by [`IdHasher`].
pub type IdMap<V> = HashMap<u64, V, IdBuildHasher>;

/// The ids of `table`'s entries that satisfy `keep`, ascending: the
/// order every walk whose effects can reach a result must take.
pub fn sorted_ids<V>(table: &IdMap<V>, keep: impl Fn(&V) -> bool) -> Vec<u64> {
    let mut ids: Vec<u64> = table
        .iter()
        .filter(|(_, v)| keep(v))
        .map(|(&id, _)| id)
        .collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_a_fixed_function_of_the_id() {
        let h = |v: u64| IdBuildHasher::default().hash_one(v);
        assert_eq!(h(0), 0);
        assert_eq!(h(1), K);
        assert_eq!(h(12_345), 12_345u64.wrapping_mul(K));
        assert_eq!(h(7), IdBuildHasher::default().hash_one(7u64));
    }

    #[test]
    fn sequential_ids_spread_over_high_and_low_bits() {
        let h = |v: u64| IdBuildHasher::default().hash_one(v);
        // Distinct top-7-bit tags and distinct low-10-bit buckets over
        // a run of sequential ids.
        let tags: std::collections::BTreeSet<u64> = (0..128).map(|v| h(v) >> 57).collect();
        let buckets: std::collections::BTreeSet<u64> = (0..1024).map(|v| h(v) & 1023).collect();
        assert!(tags.len() > 64, "{} distinct tags", tags.len());
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn sorted_ids_filter_and_ascend() {
        let mut m: IdMap<u32> = IdMap::default();
        for id in (0..10_000u64).rev() {
            m.insert(id * 3, id as u32);
        }
        let odd = sorted_ids(&m, |v| v % 2 == 1);
        assert_eq!(odd.len(), 5_000);
        assert!(odd.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(odd[0], 3);
    }
}
