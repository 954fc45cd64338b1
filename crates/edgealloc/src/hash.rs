//! A multiplicative hasher for the small integer keys of per-user lookups.
//!
//! The cohort plan's index and the capacity refill's order cache look up a
//! key of two or three machine words once per user. SipHash, the standard
//! library default, costs tens of nanoseconds per such lookup, which at a
//! million users per slot is tens of milliseconds. One folded multiply
//! per word suffices: the 128-bit product's halves XORed together, so that
//! keys differing only in their high bits (as `f64` bit patterns of small
//! integers do) still land in different buckets with different tags.
//!
//! Unlike SipHash this gives no protection against keys crafted to
//! collide. The keys are slot data (station indices and workload bits),
//! and every lookup compares whole keys, so a workload trace crafted to
//! collide could slow a slot down but never change its decision.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time folded-multiply hasher.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`MulHasher`].
pub(crate) type MulMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;
