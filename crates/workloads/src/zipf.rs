//! Zipf-distributed sampling via inverse-CDF lookup.
//!
//! A draw takes the first rank whose cumulative probability reaches
//! `u = SeededRng::uniform()`, and that `u` is exactly `k · 2⁻²⁴` for a
//! 24-bit integer `k`. Scaling by a power of two is exact, so
//! `cdf[i] >= u` holds exactly when `floor(cdf[i] · 2²⁴) >= k`: the
//! sampler keeps those integer thresholds, plus a guide table over the top
//! bits of `k` that narrows each draw's search to the ranks its bucket can
//! reach. The ranks drawn are the ones a binary search of the `f64` CDF
//! for `u` returns.

use gaudi_tensor::SeededRng;

/// Bits of the integer behind [`SeededRng::uniform`].
const DRAW_BITS: u32 = 24;
/// Draws per guide bucket, as a shift: 256 buckets over the 2²⁴ draws.
const BUCKET_SHIFT: u32 = DRAW_BITS - 8;

/// Samples ranks `0..n` with probability proportional to `1/(rank+1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// `floor(cdf[i] · 2²⁴)`: the first rank whose threshold is at least
    /// a draw's `k` is the rank drawn.
    thresholds: Vec<u32>,
    /// `guide[b]` is the rank drawn for `k = b << BUCKET_SHIFT`, the first
    /// draw of bucket `b`; the last entry bounds the last bucket.
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Sampler over `n` ranks with exponent `s` (natural language ≈ 1.0).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(!s.is_nan(), "a Zipf exponent must be a number");
        let scale = (1u64 << DRAW_BITS) as f64;
        // `cdf <= 1`, so every threshold fits; `as` floors non-negatives.
        let thresholds: Vec<u32> = cdf(n, s).iter().map(|&c| (c * scale) as u32).collect();
        let guide = (0..=1u32 << (DRAW_BITS - BUCKET_SHIFT))
            .map(|b| thresholds.partition_point(|&t| t < b << BUCKET_SHIFT) as u32)
            .collect();
        ZipfSampler { thresholds, guide }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        // Exact: `uniform` is a 24-bit integer over 2²⁴.
        let k = (rng.uniform() * (1u32 << DRAW_BITS) as f32) as u32;
        self.rank(k)
    }

    /// The rank drawn for `u = k · 2⁻²⁴`.
    fn rank(&self, k: u32) -> usize {
        let b = (k >> BUCKET_SHIFT) as usize;
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let i = lo + self.thresholds[lo..hi].partition_point(|&t| t < k);
        i.min(self.thresholds.len() - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The normalized cumulative distribution of `n` ranks at exponent `s`.
fn cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for k in 0..n {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = SeededRng::new(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = SeededRng::new(2);
        let n = 50_000;
        let mut counts = vec![0usize; 1000];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 should be roughly twice as frequent as rank 1, and the top
        // 10 ranks should cover a large share.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[4]);
        let top10: usize = counts[..10].iter().sum();
        assert!(
            top10 as f64 / n as f64 > 0.3,
            "top-10 share {}",
            top10 as f64 / n as f64
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let z = ZipfSampler::new(50, 1.2);
        let mut a = SeededRng::new(9);
        let mut b = SeededRng::new(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    /// The binary search of the `f64` CDF the integer lookup replaces.
    fn searched(cdf: &[f64], k: u32) -> usize {
        let u = k as f64 / (1u64 << DRAW_BITS) as f64;
        match cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn integer_lookup_draws_what_the_cdf_search_draws() {
        // The length ranges of the benchmark's three traffic configs
        // (prompt and output, s = 1.1), and the corpus sampler over a
        // GPT-2 vocabulary. The answer only changes where `k` crosses a
        // threshold, and the guide only where it crosses a bucket, so
        // those draws and their neighbours cover every case.
        let corpus = 50257 - crate::corpus::FIRST_WORD as usize;
        for (n, s) in [
            (57, 1.1),
            (13, 1.1),
            (497, 1.1),
            (121, 1.1),
            (49, 1.1),
            (29, 1.1),
            (corpus, 1.05),
        ] {
            let z = ZipfSampler::new(n, s);
            let cdf = cdf(n, s);
            let edges = (0..=256u32).map(|b| b << BUCKET_SHIFT);
            let draws = z.thresholds.iter().copied().chain(edges);
            for k in draws.flat_map(|k| [k.saturating_sub(1), k, k + 1]) {
                if k < 1 << DRAW_BITS {
                    assert_eq!(z.rank(k), searched(&cdf, k), "n {n}, s {s}, k {k}");
                }
            }
        }
    }
}
