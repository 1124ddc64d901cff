//! Deterministic random number generation for weights and workloads.
//!
//! Every stochastic component in the workspace (weight init, Performer
//! feature matrices, synthetic corpora) draws from a [`SeededRng`] so that
//! experiments are exactly reproducible run-to-run.

/// A seeded RNG with the distributions the workspace needs.
///
/// The generator is a self-contained xoshiro256++ (Blackman & Vigna) whose
/// state is expanded from the 64-bit seed with splitmix64 — no external
/// crates, identical streams on every platform. Gaussian sampling is
/// implemented with the Box–Muller transform.
pub struct SeededRng {
    state: [u64; 4],
    /// Cached second output of the last Box–Muller draw.
    spare: Option<f32>,
}

impl SeededRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // splitmix64 expansion, the canonical xoshiro seeding procedure.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SeededRng {
            state: [next(), next(), next(), next()],
            spare: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // Top 24 bits give every representable f32 step in [0, 1).
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is empty");
        // Modulo bias is negligible for the n (vocab sizes, ranks) used here.
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > f32::EPSILON {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fill a buffer with standard-normal samples scaled by `std`.
    pub fn fill_normal(&mut self, buf: &mut [f32], std: f32) {
        for v in buf {
            *v = self.normal() * std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.normal(), b.normal());
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SeededRng::new(7);
        let n = 100_000;
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        for _ in 0..n {
            let x = rng.normal() as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SeededRng::new(9);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }
}
