//! A fast, non-cryptographic hasher for the in-memory hash tables over rows
//! and values: deduplication indexes, hash joins and groupings.
//!
//! It is the multiply-rotate word hash of the Firefox/rustc `FxHasher`,
//! finished with MurmurHash3's 64-bit avalanche (`fmix64`) so that the low
//! bits, which the open-addressed tables index by, depend on every input
//! bit: a multiplication only carries bits upwards, and the words of small
//! numbers (the `f64` bits `Value` hashes them by) differ in their high
//! bits. The tables hold the system's own data, so resistance to crafted
//! collisions is not needed, and the outputs never depend on hash values,
//! only on the rows.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A word-at-a-time multiplicative hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct RowHasher {
    hash: u64,
}

/// Builds [`RowHasher`]s; use it as a `HashMap`'s `S` parameter.
pub type RowHashBuilder = BuildHasherDefault<RowHasher>;

impl RowHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for RowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn equal_values_hash_equally_and_small_keys_spread() {
        let build = RowHashBuilder::default();
        assert_eq!(
            build.hash_one([Value::Int(2)].as_slice()),
            build.hash_one([Value::double(2.0)].as_slice())
        );
        assert_ne!(
            build.hash_one(Value::from("ab")),
            build.hash_one(Value::from("ba"))
        );
        // The low 10 bits of 1,000 consecutive keys (a table index) take
        // most of their 1,024 values.
        let low: HashSet<u64> = (0..1000)
            .map(|i| build.hash_one([Value::Int(i)].as_slice()) & 1023)
            .collect();
        assert!(low.len() > 550, "{}", low.len());
    }
}
