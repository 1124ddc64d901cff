//! Overload protection: admission bounds, SLO deadlines, and retry backoff.
//!
//! Without limits, the serving engine is infinitely patient: queues grow
//! without bound and every request eventually "succeeds", which makes an
//! overloaded system indistinguishable from a healthy one in every metric
//! except latency tails. A [`RobustnessConfig`] makes overload explicit:
//!
//! * **bounded admission queue** — arrivals that would push the queue past
//!   `max_queue_depth` requests are *shed* (terminated as [`Rejected`])
//!   instead of queued;
//! * **SLO deadlines** — a request whose first token cannot be produced
//!   within `ttft_deadline_ms` of arrival, or whose completion would
//!   exceed `deadline_ms`, is terminated as [`TimedOut`]; its tokens count
//!   toward throughput but not goodput;
//! * **bounded retries** — a request orphaned by a replica failure is
//!   re-dispatched with deterministic exponential backoff plus seeded
//!   jitter, up to `max_retries` attempts, after which it terminates as
//!   [`Failed`].
//!
//! The default configuration is [`RobustnessConfig::unlimited`]: no queue
//! bound, no deadlines, unbounded instant retries — exactly the legacy
//! engine behavior, so fault-free runs and existing tests are unchanged.
//!
//! Everything here is a pure function of the configuration: the backoff
//! jitter is drawn from a [`SeededRng`] keyed by `(backoff_seed, request
//! id, attempt)`, so a retry schedule is reproducible bit-for-bit across
//! runs and across execution policies.
//!
//! [`Rejected`]: crate::report::DropKind::Rejected
//! [`TimedOut`]: crate::report::DropKind::TimedOut
//! [`Failed`]: crate::report::DropKind::Failed

use gaudi_tensor::SeededRng;

/// Periodic KV-cache checkpointing to host memory.
///
/// Every `interval_ms` of replica clock, a replica snapshots the KV chains
/// of its running requests to host DRAM over PCIe/DMA. The snapshot is
/// *priced*, not free: the copy occupies the DMA engine for
/// `bytes / dma_bytes_per_s` seconds of replica clock, so aggressive
/// intervals show up as goodput loss even with zero faults.
///
/// The payoff comes at restart: a request orphaned by a [`kill_for`] whose
/// chain was checkpointed restores the snapshot (again priced over DMA,
/// `(prompt + checkpointed) * kv_bytes_per_token / dma_bytes_per_s`) and
/// resumes decoding *past* the snapshot instead of re-running the full
/// prefill plus every decode step from scratch. Cold recipe-cache
/// recompiles after a restart are unaffected — checkpointing saves
/// recomputation, not recompilation.
///
/// [`kill_for`]: gaudi_hw::FaultPlan::kill_for
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Replica-clock interval between snapshots, ms (> 0).
    pub interval_ms: f64,
    /// Host-link bandwidth the snapshot and restore copies are priced
    /// against, bytes per second (> 0).
    pub dma_bytes_per_s: f64,
}

/// Overload-protection and recovery policy for a serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessConfig {
    /// Shed arrivals once this many requests are queued (`None`: no bound).
    pub max_queue_depth: Option<usize>,
    /// Time-to-first-token SLO, ms from the request's original arrival
    /// (`None`: no TTFT deadline). Checked while queued and again at
    /// admission with the prefill priced but not yet run, so a request
    /// that cannot meet the SLO never wastes engine time.
    pub ttft_deadline_ms: Option<f64>,
    /// End-to-end latency SLO, ms from arrival (`None`: no deadline).
    pub deadline_ms: Option<f64>,
    /// Failed scheduling attempts tolerated before a request terminates as
    /// `Failed`. `u32::MAX` (the default) retries forever.
    pub max_retries: u32,
    /// Base of the exponential backoff: retry `r` waits
    /// `backoff_base_ms * 2^(r-1)` ms (before jitter). `0.0` re-queues
    /// instantly, reproducing the legacy requeue-at-failure-time behavior.
    pub backoff_base_ms: f64,
    /// Jitter fraction in `[0, 1]`: each delay is stretched by a
    /// deterministic uniform factor in `[1, 1 + backoff_jitter)`.
    pub backoff_jitter: f64,
    /// Seed for the jitter stream (mixed with request id and attempt).
    pub backoff_seed: u64,
    /// Periodic KV-cache checkpointing to host (`None`: orphaned requests
    /// recompute from scratch on retry, the legacy behavior).
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig::unlimited()
    }
}

impl RobustnessConfig {
    /// No queue bounds, no deadlines, unbounded instant retries — the
    /// legacy engine behavior in which every request eventually completes.
    pub fn unlimited() -> Self {
        RobustnessConfig {
            max_queue_depth: None,
            ttft_deadline_ms: None,
            deadline_ms: None,
            max_retries: u32::MAX,
            backoff_base_ms: 0.0,
            backoff_jitter: 0.0,
            backoff_seed: 0,
            checkpoint: None,
        }
    }

    /// Bound the admission queue to `depth` waiting requests.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = Some(depth);
        self
    }

    /// Set the time-to-first-token SLO, ms from arrival.
    pub fn ttft_deadline(mut self, ms: f64) -> Self {
        self.ttft_deadline_ms = Some(ms);
        self
    }

    /// Set the end-to-end latency SLO, ms from arrival.
    pub fn deadline(mut self, ms: f64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Tolerate at most `n` failed scheduling attempts per request.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Checkpoint running KV chains to host every `interval_ms`, pricing
    /// the copies against `dma_bytes_per_s` (see [`CheckpointPolicy`]).
    pub fn checkpoint(mut self, interval_ms: f64, dma_bytes_per_s: f64) -> Self {
        self.checkpoint = Some(CheckpointPolicy {
            interval_ms,
            dma_bytes_per_s,
        });
        self
    }

    /// Configure exponential backoff: retry `r` waits
    /// `base_ms * 2^(r-1) * u` where `u` is a deterministic uniform draw in
    /// `[1, 1 + jitter)` keyed by `(seed, request id, r)`.
    pub fn backoff(mut self, base_ms: f64, jitter: f64, seed: u64) -> Self {
        self.backoff_base_ms = base_ms;
        self.backoff_jitter = jitter;
        self.backoff_seed = seed;
        self
    }

    /// Delay before retry `attempt` (1-based) of request `id`, ms.
    ///
    /// Pure function of `(self, id, attempt)`: exponential in the attempt
    /// number, stretched by seeded jitter. Zero when `backoff_base_ms` is
    /// zero — instant requeue, the legacy behavior.
    pub fn backoff_delay_ms(&self, id: u64, attempt: u32) -> f64 {
        if self.backoff_base_ms <= 0.0 || attempt == 0 {
            return 0.0;
        }
        // Cap the exponent: past 2^40 the delay is already astronomically
        // beyond any simulation horizon, and powi would overflow to inf.
        let exp = (attempt - 1).min(40);
        let base = self.backoff_base_ms * 2f64.powi(exp as i32);
        if self.backoff_jitter <= 0.0 {
            return base;
        }
        let mut rng = SeededRng::new(
            self.backoff_seed
                ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        base * (1.0 + self.backoff_jitter * f64::from(rng.uniform()))
    }

    /// Reject malformed policies (negative deadlines, jitter outside
    /// `[0, 1]`, zero-size queue bounds that could never admit anything).
    pub fn validate(&self) -> Result<(), String> {
        if let Some(d) = self.ttft_deadline_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("ttft_deadline_ms must be finite and > 0, got {d}"));
            }
        }
        if let Some(d) = self.deadline_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("deadline_ms must be finite and > 0, got {d}"));
            }
        }
        if let Some(0) = self.max_queue_depth {
            return Err("max_queue_depth of 0 would shed every arrival".into());
        }
        if !self.backoff_base_ms.is_finite() || self.backoff_base_ms < 0.0 {
            return Err(format!(
                "backoff_base_ms must be finite and >= 0, got {}",
                self.backoff_base_ms
            ));
        }
        if !self.backoff_jitter.is_finite() || !(0.0..=1.0).contains(&self.backoff_jitter) {
            return Err(format!(
                "backoff_jitter must be in [0, 1], got {}",
                self.backoff_jitter
            ));
        }
        if let Some(ckpt) = self.checkpoint {
            if !ckpt.interval_ms.is_finite() || ckpt.interval_ms <= 0.0 {
                return Err(format!(
                    "checkpoint interval_ms must be finite and > 0, got {}",
                    ckpt.interval_ms
                ));
            }
            if !ckpt.dma_bytes_per_s.is_finite() || ckpt.dma_bytes_per_s <= 0.0 {
                return Err(format!(
                    "checkpoint dma_bytes_per_s must be finite and > 0, got {}",
                    ckpt.dma_bytes_per_s
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_the_default_and_validates() {
        let cfg = RobustnessConfig::default();
        assert_eq!(cfg, RobustnessConfig::unlimited());
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.backoff_delay_ms(7, 1), 0.0, "no backoff by default");
    }

    #[test]
    fn builders_compose() {
        let cfg = RobustnessConfig::unlimited()
            .queue_depth(16)
            .ttft_deadline(50.0)
            .deadline(500.0)
            .retries(3)
            .backoff(2.0, 0.5, 99);
        assert_eq!(cfg.max_queue_depth, Some(16));
        assert_eq!(cfg.ttft_deadline_ms, Some(50.0));
        assert_eq!(cfg.deadline_ms, Some(500.0));
        assert_eq!(cfg.max_retries, 3);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn backoff_is_exponential_and_deterministic() {
        let cfg = RobustnessConfig::unlimited().backoff(2.0, 0.0, 0);
        assert_eq!(cfg.backoff_delay_ms(1, 1), 2.0);
        assert_eq!(cfg.backoff_delay_ms(1, 2), 4.0);
        assert_eq!(cfg.backoff_delay_ms(1, 3), 8.0);
        // Without jitter the id does not matter.
        assert_eq!(cfg.backoff_delay_ms(42, 3), 8.0);

        let jittered = RobustnessConfig::unlimited().backoff(2.0, 0.5, 7);
        let d = jittered.backoff_delay_ms(3, 2);
        assert_eq!(d, jittered.backoff_delay_ms(3, 2), "same key, same delay");
        assert!((4.0..4.0 * 1.5).contains(&d), "jitter stays in [1, 1.5)x");
        // Different requests de-synchronize (thundering-herd protection).
        assert_ne!(d, jittered.backoff_delay_ms(4, 2));
        // Different seeds give different schedules.
        let other = RobustnessConfig::unlimited().backoff(2.0, 0.5, 8);
        assert_ne!(d, other.backoff_delay_ms(3, 2));
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let cfg = RobustnessConfig::unlimited().backoff(1.0, 0.0, 0);
        let d = cfg.backoff_delay_ms(0, u32::MAX);
        assert!(d.is_finite());
        assert_eq!(d, 2f64.powi(40));
    }

    #[test]
    fn validation_rejects_malformed_policies() {
        assert!(RobustnessConfig::unlimited()
            .ttft_deadline(-1.0)
            .validate()
            .is_err());
        assert!(RobustnessConfig::unlimited()
            .deadline(f64::NAN)
            .validate()
            .is_err());
        assert!(RobustnessConfig::unlimited()
            .queue_depth(0)
            .validate()
            .is_err());
        assert!(RobustnessConfig::unlimited()
            .backoff(1.0, 1.5, 0)
            .validate()
            .is_err());
        assert!(RobustnessConfig::unlimited()
            .backoff(-1.0, 0.0, 0)
            .validate()
            .is_err());
    }

    #[test]
    fn checkpoint_policy_composes_and_validates() {
        let cfg = RobustnessConfig::unlimited().checkpoint(25.0, 64e9);
        assert_eq!(
            cfg.checkpoint,
            Some(CheckpointPolicy {
                interval_ms: 25.0,
                dma_bytes_per_s: 64e9,
            })
        );
        assert!(cfg.validate().is_ok());
        assert!(RobustnessConfig::unlimited()
            .checkpoint(0.0, 64e9)
            .validate()
            .is_err());
        assert!(RobustnessConfig::unlimited()
            .checkpoint(25.0, -1.0)
            .validate()
            .is_err());
        assert!(RobustnessConfig::unlimited()
            .checkpoint(f64::NAN, 64e9)
            .validate()
            .is_err());
    }
}
