//! A multiplicative hasher for the engine's per-step maps.
//!
//! The maps probed on every simulated step — KV reservations and chains,
//! host snapshots, the cost model's L1 plan caches and the recipe cache —
//! are keyed by request ids and phase-shape tuples that the simulator
//! mints itself, and none of them is ever iterated. So they need neither
//! SipHash's defence against crafted keys nor any particular order: one
//! rotate-xor-multiply per key word (the Fx scheme) is enough to spread
//! sequential ids over the table.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by simulator-internal ids or shapes.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` of simulator-internal ids or shapes.
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Odd multiplier with well-mixed high bits (the Fx constant).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiplicative hasher. Integer keys hash as one word
/// each (the signed `write_i*` methods forward to these); anything else
/// goes through `write` in 8-byte words.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_spread_over_the_low_bits() {
        // The table picks a bucket from the hash's low bits: 1024
        // consecutive ids must land in 1024 distinct low-10-bit buckets.
        let buckets: std::collections::BTreeSet<u64> = (0..1024u64)
            .map(|id| {
                let mut h = IdHasher::default();
                h.write_u64(id);
                h.finish() & 1023
            })
            .collect();
        assert_eq!(buckets.len(), 1024);
    }
}
