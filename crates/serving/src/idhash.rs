//! Hashers for the engine's internal maps.
//!
//! The map probed on every simulated step — each replica's recipe table
//! of phase shapes — is keyed by shapes that the simulator mints itself,
//! and it is never iterated in an order that reaches a result (it is only
//! ever counted). So it needs neither SipHash's defence against crafted
//! keys nor any particular order: one rotate-xor-multiply per key word
//! (the Fx scheme, [`IdMap`]) is enough to spread its keys over the table.
//!
//! That holds only for keys the simulator mints itself. A multiply carries
//! bits upward only, so Fx's low output bits, which pick the bucket,
//! depend only on the key's low bits, and measured values such as the bit
//! patterns of latency floats like 4.25 end in runs of zero bits: under Fx
//! they would pile into a few buckets. Such keys go in a [`MixMap`], whose
//! SplitMix64 finalizer carries every key bit into every output bit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by simulator-internal ids or shapes.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashMap` keyed by arbitrary 64-bit words, such as the bit patterns of
/// measured latencies.
pub(crate) type MixMap<V> = HashMap<u64, V, BuildHasherDefault<MixHasher>>;

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

/// SplitMix64: a bijective mix in which every input bit reaches every
/// output bit. It hashes [`MixMap`] keys and assigns each request its
/// cluster home box, and it is the workspace's seeding primitive.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`splitmix64`] over each 8-byte word of the key.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = splitmix64(self.0 ^ i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    #[test]
    fn sequential_ids_spread_over_the_low_bits() {
        // The table picks a bucket from the hash's low bits: 1024
        // consecutive ids must land in 1024 distinct low-10-bit buckets.
        let buckets: BTreeSet<u64> = (0..1024u64)
            .map(|id| {
                let mut h = IdHasher::default();
                h.write_u64(id);
                h.finish() & 1023
            })
            .collect();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn latency_bit_patterns_spread_only_under_the_mix() {
        // Quarter-millisecond latencies end in dozens of zero mantissa
        // bits: Fx sends all of them to one low-10-bit bucket, the mix
        // spreads them like sequential ids.
        let buckets = |hash: &dyn Fn(u64) -> u64| -> usize {
            (0..1024u64)
                .map(|i| hash((i as f64 * 0.25).to_bits()) & 1023)
                .collect::<BTreeSet<_>>()
                .len()
        };
        let fx = BuildHasherDefault::<IdHasher>::default();
        let mix = BuildHasherDefault::<MixHasher>::default();
        assert_eq!(buckets(&|k| fx.hash_one(k)), 1);
        assert!(buckets(&|k| mix.hash_one(k)) > 600);
    }
}
