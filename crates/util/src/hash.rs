//! FxHash: the rustc hash function, in-tree.
//!
//! A fast, non-cryptographic, deterministic hash (multiply-rotate over
//! 8-byte words). Hashing is stable across runs and platforms of the
//! same word size, which keeps `FxHashMap` iteration-order-independent
//! code honest and the experiment harness reproducible.

#![expect(
    clippy::disallowed_types,
    reason = "defines the Fx aliases over std's maps and differential-tests them against std"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc-hash hasher: `hash = (hash.rotl(5) ^ word) * SEED` per
/// 8-byte word, with the tail folded in by descending power of two.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u32::from_le_bytes(buf) as u64);
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            let mut buf = [0u8; 2];
            buf.copy_from_slice(&bytes[..2]);
            self.add_to_hash(u16::from_le_bytes(buf) as u64);
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};
    use std::hash::Hash;

    fn fx_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(fx_of(&"Coconut Creek"), fx_of(&"Coconut Creek"));
        assert_ne!(fx_of(&"Coconut Creek"), fx_of(&"Pompano Beach"));
        assert_ne!(fx_of(&1u64), fx_of(&2u64));
    }

    #[test]
    fn map_agrees_with_std_hashmap_on_random_workload() {
        // Same inserts/removes against FxHashMap and std HashMap must
        // leave identical contents — the hasher only changes layout.
        let mut fx: FxHashMap<String, i64> = FxHashMap::default();
        let mut std_map: HashMap<String, i64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20_000 {
            let key = format!("k{}", rng.gen_range(0..500));
            match rng.gen_range(0..3) {
                0 | 1 => {
                    let v = rng.gen_range(-1000i64..1000);
                    fx.insert(key.clone(), v);
                    std_map.insert(key, v);
                }
                _ => {
                    assert_eq!(fx.remove(&key), std_map.remove(&key));
                }
            }
        }
        assert_eq!(fx.len(), std_map.len());
        for (k, v) in &std_map {
            assert_eq!(fx.get(k), Some(v), "diverged at {k}");
        }
    }

    #[test]
    fn set_agrees_with_std_hashset() {
        let mut fx: FxHashSet<u64> = FxHashSet::default();
        let mut std_set: HashSet<u64> = HashSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = rng.gen_range(0u64..300);
            assert_eq!(fx.insert(v), std_set.insert(v));
        }
        assert_eq!(fx.len(), std_set.len());
    }
}
