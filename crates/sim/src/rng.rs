//! Reproducible seed derivation.
//!
//! Every experiment takes one `u64` master seed. Components derive child
//! seeds from `(master, stream-label)` via SplitMix64 so that, e.g., the
//! trace generator and the scheduler use decorrelated streams and adding a
//! new consumer never perturbs existing ones.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One round of the SplitMix64 output function.
///
/// SplitMix64 is the standard generator for seeding other PRNGs; a single
/// round is an excellent 64-bit mixer (it is bijective and passes strict
/// avalanche tests).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives a child seed from a master seed and a stream label.
pub(crate) fn derive_seed(master: u64, stream: &str) -> u64 {
    // FNV-1a over the label, then mix with the master via SplitMix64.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in stream.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(master ^ splitmix64(h))
}

/// Derives a child seed indexed by an integer (e.g., per-server streams).
pub fn derive_seed_indexed(master: u64, stream: &str, index: u64) -> u64 {
    splitmix64(derive_seed(master, stream) ^ splitmix64(index.wrapping_add(1)))
}

/// Creates a [`StdRng`] for a named stream of the master seed.
pub fn stream_rng(master: u64, stream: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, stream))
}

/// Creates a [`StdRng`] for an indexed stream of the master seed.
pub fn indexed_rng(master: u64, stream: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed_indexed(master, stream, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, "trace"), derive_seed(42, "trace"));
        assert_eq!(
            derive_seed_indexed(42, "server", 7),
            derive_seed_indexed(42, "server", 7)
        );
    }

    #[test]
    fn streams_are_decorrelated() {
        assert_ne!(derive_seed(42, "trace"), derive_seed(42, "sched"));
        assert_ne!(derive_seed(42, "trace"), derive_seed(43, "trace"));
        assert_ne!(
            derive_seed_indexed(42, "server", 0),
            derive_seed_indexed(42, "server", 1)
        );
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Distinct inputs must give distinct outputs (spot check).
        let outs: Vec<u64> = (0..1_000u64).map(splitmix64).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), outs.len());
    }

    #[test]
    fn stream_rngs_replay() {
        let a: Vec<u32> = {
            let mut r = stream_rng(7, "x");
            (0..10).map(|_| r.random()).collect()
        };
        let b: Vec<u32> = {
            let mut r = stream_rng(7, "x");
            (0..10).map(|_| r.random()).collect()
        };
        assert_eq!(a, b);
    }
}
