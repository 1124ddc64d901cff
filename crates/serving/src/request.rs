//! Seeded request-stream generation: Poisson arrivals, Zipf lengths.
//!
//! An online serving trace is characterized by *when* requests arrive and
//! *how much work* each carries. Arrivals are memoryless (exponential
//! inter-arrival gaps — a Poisson process at the configured rate), and
//! prompt/output lengths follow a Zipf law over their configured ranges,
//! mirroring the short-head/long-tail mix of production LLM traffic. Both
//! draws come from one [`SeededRng`] stream, so a seed fully determines
//! the trace.

use gaudi_tensor::SeededRng;
use gaudi_workloads::ZipfSampler;

/// One inference request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Monotonic id in arrival order.
    pub id: u64,
    /// Arrival time in whole simulated microseconds;
    /// [`arrival_ms`](Self::arrival_ms) gives the milliseconds the report
    /// quotes.
    pub arrival_us: u64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of tokens to generate.
    pub output_len: usize,
}

impl Request {
    /// Arrival time in milliseconds.
    pub fn arrival_ms(&self) -> f64 {
        self.arrival_us as f64 / 1e3
    }

    /// Total KV-cache footprint of the fully-decoded request, in tokens.
    pub fn total_tokens(&self) -> usize {
        self.prompt_len + self.output_len
    }
}

/// Request-stream parameters.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Mean arrival rate in requests per second.
    pub arrival_rate_per_s: f64,
    /// Number of requests in the trace.
    pub num_requests: usize,
    /// Shortest/longest prompt, tokens (inclusive).
    pub prompt_range: (usize, usize),
    /// Shortest/longest generation, tokens (inclusive).
    pub output_range: (usize, usize),
    /// Zipf exponent for both length distributions (≈1 for natural
    /// language; larger values skew shorter).
    pub zipf_s: f64,
    /// Seed for the whole trace.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            arrival_rate_per_s: 4.0,
            num_requests: 100,
            prompt_range: (16, 1024),
            output_range: (8, 256),
            zipf_s: 1.1,
            seed: 0,
        }
    }
}

impl TrafficConfig {
    /// Reject a stream the generator cannot draw: no requests, an arrival
    /// rate that is not positive, or so low that `num_requests` of the
    /// longest possible gaps would overflow the `u64` µs arrival clock, a
    /// length range that starts at zero or is reversed, or a Zipf exponent
    /// that is NaN or negative (a negative one is no Zipf law, and a large
    /// one overflows the length CDF).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_requests == 0 {
            return Err("traffic.num_requests must be positive".into());
        }
        let rate = self.arrival_rate_per_s;
        if rate.is_nan() || rate <= 0.0 {
            return Err(format!(
                "traffic.arrival_rate_per_s must be > 0, got {rate}"
            ));
        }
        let worst_us = u128::from(gap_us(1.0, rate)) * self.num_requests as u128;
        if worst_us > u128::from(u64::MAX) {
            return Err(format!(
                "traffic.arrival_rate_per_s {rate} is too low for {} requests: \
                 their arrivals could overflow the µs clock",
                self.num_requests
            ));
        }
        for (name, (lo, hi)) in [
            ("prompt_range", self.prompt_range),
            ("output_range", self.output_range),
        ] {
            if lo == 0 || lo > hi {
                return Err(format!(
                    "traffic.{name} must satisfy 0 < lo <= hi, got ({lo}, {hi})"
                ));
            }
        }
        if self.zipf_s.is_nan() || self.zipf_s < 0.0 {
            return Err(format!("traffic.zipf_s must be >= 0, got {}", self.zipf_s));
        }
        Ok(())
    }
}

/// One exponential inter-arrival gap at `rate` per second for the uniform
/// draw `u`, quantized down to whole µs so the trace is exactly
/// reproducible regardless of float summation order. `u` is capped just
/// below 1, so the gap is finite, and `gap_us(1.0, rate)` is the longest
/// one the rate can draw.
fn gap_us(u: f64, rate: f64) -> u64 {
    let u = u.min(1.0 - 1e-9);
    let gap_s = -(1.0 - u).ln() / rate;
    (gap_s * 1e6) as u64
}

/// A time of `us` microseconds rounded up onto the µs grid that arrivals
/// and submissions live on, or `None` when it is NaN or at or past 2^64
/// µs (about 1.8447e16 ms), where an `as` cast would saturate to
/// `u64::MAX` instead (`u64::MAX as f64` is 2^64).
pub(crate) fn ceil_us(us: f64) -> Option<u64> {
    let us = us.ceil();
    (us < u64::MAX as f64).then_some(us as u64)
}

/// Generate the full request trace for a configuration, sorted by arrival,
/// with ids `0..num_requests` in arrival order.
///
/// # Panics
///
/// If there are requests to draw and [`TrafficConfig::validate`] rejects
/// `cfg`; the simulation entry points validate first and return the error.
pub fn generate_requests(cfg: &TrafficConfig) -> Vec<Request> {
    if cfg.num_requests == 0 {
        return Vec::new();
    }
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    let (p_lo, p_hi) = cfg.prompt_range;
    let (o_lo, o_hi) = cfg.output_range;

    let mut rng = SeededRng::new(cfg.seed);
    let prompt_zipf = ZipfSampler::new(p_hi - p_lo + 1, cfg.zipf_s);
    let output_zipf = ZipfSampler::new(o_hi - o_lo + 1, cfg.zipf_s);

    let mut t_us = 0u64;
    let mut out = Vec::with_capacity(cfg.num_requests);
    for id in 0..cfg.num_requests as u64 {
        t_us += gap_us(rng.uniform() as f64, cfg.arrival_rate_per_s);
        out.push(Request {
            id,
            arrival_us: t_us,
            prompt_len: p_lo + prompt_zipf.sample(&mut rng),
            output_len: o_lo + output_zipf.sample(&mut rng),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = TrafficConfig::default();
        assert_eq!(generate_requests(&cfg), generate_requests(&cfg));
        let other = TrafficConfig { seed: 1, ..cfg };
        assert_ne!(generate_requests(&cfg), generate_requests(&other));
    }

    #[test]
    fn lengths_stay_in_range_and_arrivals_are_sorted() {
        let cfg = TrafficConfig {
            num_requests: 500,
            ..TrafficConfig::default()
        };
        let reqs = generate_requests(&cfg);
        assert_eq!(reqs.len(), 500);
        for w in reqs.windows(2) {
            assert!(w[0].arrival_us <= w[1].arrival_us);
        }
        for r in &reqs {
            assert!((16..=1024).contains(&r.prompt_len));
            assert!((8..=256).contains(&r.output_len));
        }
    }

    #[test]
    fn mean_interarrival_matches_rate() {
        let cfg = TrafficConfig {
            arrival_rate_per_s: 10.0,
            num_requests: 4000,
            ..TrafficConfig::default()
        };
        let reqs = generate_requests(&cfg);
        let span_s = reqs.last().unwrap().arrival_us as f64 / 1e6;
        let measured = reqs.len() as f64 / span_s;
        assert!((measured - 10.0).abs() < 1.0, "measured rate {measured}");
    }

    #[test]
    fn a_rate_too_low_for_the_arrival_clock_is_rejected() {
        // The longest gap at 1e-6 req/s is ~2.1e13 µs, so about 890k of
        // them fit the µs clock: the bound admits exactly that many.
        let low = |num_requests| TrafficConfig {
            arrival_rate_per_s: 1e-6,
            num_requests,
            ..TrafficConfig::default()
        };
        let longest = gap_us(1.0, 1e-6);
        let fits = (u64::MAX / longest) as usize;
        assert!(low(fits).validate().is_ok());
        assert!(low(fits + 1).validate().is_err());
        let reqs = generate_requests(&low(3));
        assert!(reqs.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert!(reqs.iter().all(|r| r.arrival_us <= 3 * longest));
    }

    #[test]
    fn zipf_skews_lengths_short() {
        let cfg = TrafficConfig {
            num_requests: 2000,
            ..TrafficConfig::default()
        };
        let reqs = generate_requests(&cfg);
        let short = reqs.iter().filter(|r| r.prompt_len < 80).count();
        assert!(
            short * 2 > reqs.len(),
            "most prompts should be short under Zipf, got {short}/{}",
            reqs.len()
        );
    }
}
