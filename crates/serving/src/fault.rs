//! Serving-side fault handling: the [`Job`], one scheduling attempt of a
//! request.
//!
//! The hardware layer says *what* fails ([`gaudi_hw::FaultPlan`]); the
//! engine decides what the scheduler does about it. When a replica dies,
//! every request it had not finished — in-flight, queued, or not yet
//! arrived — becomes an **orphan**: a [`Job`] whose `submitted_us` is
//! bumped to the failure time plus its backoff delay and whose retry count
//! is incremented. The engine's event loop re-dispatches orphans *live*,
//! round-robin onto whichever replicas are up when the backoff expires, so
//! a replica that restarts mid-run takes new work the moment it is back.
//! Without KV checkpointing, tokens the dead card had already generated
//! are lost and regenerated from scratch — exactly the goodput cost the
//! availability metrics in [`crate::ServingReport`] quantify. With a
//! [`CheckpointPolicy`](crate::CheckpointPolicy), an orphan carries the
//! generated-token count of its last host-side snapshot
//! ([`Job::checkpointed_tokens`]), and the retry restores that many tokens
//! over DMA instead of re-running prefill plus the snapshotted decode
//! steps. A runner the paged KV pool preempts carries its snapshot the
//! same way.

use crate::report::{DropKind, DroppedRequest};
use crate::request::{ceil_us, Request};

/// One scheduling attempt of a request on a particular replica.
///
/// A fresh job's `submitted_us` equals the request's arrival; a re-queued
/// job's is the failure time of the replica that dropped it. Queue time is
/// measured from `submitted_us` (time spent waiting on the serving
/// replica); TTFT is always measured from the request's *original* arrival,
/// so retries show up as tail latency, not as bookkeeping resets.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The underlying request (arrival, prompt, output length).
    pub req: Request,
    /// When this attempt entered its replica's admission queue, µs.
    pub submitted_us: u64,
    /// Completed (failed) scheduling attempts before this one.
    pub retries: u32,
    /// Generated tokens captured by the request's last KV snapshot, if its
    /// previous attempt was checkpointed before the replica died or a paged
    /// preemption evicted it. Zero for fresh jobs and for evictions that
    /// never reached a checkpoint: the attempt recomputes from scratch.
    pub checkpointed_tokens: usize,
}

impl Job {
    /// A first attempt: submitted at the request's own arrival time.
    pub fn fresh(req: Request) -> Self {
        Job {
            submitted_us: req.arrival_us,
            retries: 0,
            checkpointed_tokens: 0,
            req,
        }
    }

    /// Submission time of this attempt, ms.
    pub fn submitted_ms(&self) -> f64 {
        self.submitted_us as f64 / 1e3
    }

    /// The terminal record of this attempt, dropped as `kind` at `at_ms`
    /// after generating `tokens_generated` tokens.
    pub(crate) fn dropped(
        &self,
        kind: DropKind,
        at_ms: f64,
        tokens_generated: usize,
    ) -> DroppedRequest {
        DroppedRequest {
            id: self.req.id,
            arrival_ms: self.req.arrival_ms(),
            kind,
            at_ms,
            retries: self.retries,
            tokens_generated,
        }
    }

    /// The next attempt after a replica failure at `at_ms`: re-queued at
    /// the failure time (never before the request's own arrival), with the
    /// retry count bumped. `None` when `at_ms` lies past the µs clock.
    pub fn requeued(mut self, at_ms: f64) -> Option<Self> {
        let at_us = ceil_us(at_ms * 1e3)?;
        self.submitted_us = self.req.arrival_us.max(at_us);
        self.retries += 1;
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival_us: u64, tokens: usize) -> Request {
        Request {
            id,
            arrival_us,
            prompt_len: tokens,
            output_len: 1,
        }
    }

    #[test]
    fn requeue_bumps_submission_and_retries() {
        let j = Job::fresh(req(0, 5_000, 8));
        assert_eq!(j.submitted_us, 5_000);
        assert_eq!(j.retries, 0);
        let r = j.requeued(10.5).expect("10.5 ms is on the µs clock");
        assert_eq!(r.submitted_us, 10_500);
        assert_eq!(r.retries, 1);
        assert_eq!(r.checkpointed_tokens, 0, "no snapshot unless one is set");
        // Requeue time never precedes the request's own arrival.
        let early = Job::fresh(req(1, 9_000, 8)).requeued(2.0).unwrap();
        assert_eq!(early.submitted_us, 9_000);
        // Past the µs clock (2^64 µs is about 1.8447e16 ms), or NaN: no
        // attempt, rather than one saturated to `u64::MAX` µs.
        for at_ms in [2e16, f64::INFINITY, f64::NAN] {
            assert_eq!(Job::fresh(req(2, 0, 8)).requeued(at_ms), None, "{at_ms}");
        }
        let late = Job::fresh(req(3, 0, 8)).requeued(1.8e16).unwrap();
        assert_eq!(late.submitted_us, 18_000_000_000_000_000_000);
    }
}
