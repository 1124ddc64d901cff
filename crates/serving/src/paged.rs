//! Block-granular (paged) KV-cache allocation.
//!
//! The contiguous accountant in [`kv`](crate::kv) reserves a request's
//! worst-case `prompt + output` footprint at admission, so every token the
//! request has not generated yet is HBM nobody else can use. Paged
//! allocation (the vLLM design, picked up by the HPU serving stack's
//! bucketed block tables) instead carves the KV region into fixed-size
//! blocks: a request is admitted on the blocks its *current* context
//! needs and takes one more block only when decode actually crosses a
//! block boundary. The reclaimed headroom admits more concurrent
//! sequences from the same device; the price is per-request rounding waste
//! (the tail of the last block) and the possibility that the pool runs
//! dry mid-decode, which the engine resolves by deterministically
//! preempting the newest sequence.
//!
//! No simulated decision reads which blocks a request holds, only how
//! many, so the pool is a free-block count and each request's
//! [`KvLease`] records its own block count.

use crate::kv::{KvAdmission, KvLease};
use gaudi_hw::config::MemoryConfig;
use gaudi_hw::memory::OutOfMemory;

/// Paged [`KvAdmission`]: a pool of fixed-size KV blocks, counted, with
/// weights resident outside the pool.
///
/// Invariant (checked by the conservation property test): the free blocks
/// plus the blocks every live lease holds equal
/// [`capacity_blocks`](Self::capacity_blocks) at all times.
#[derive(Debug)]
pub struct PagedKv {
    free_blocks: usize,
    capacity_blocks: usize,
    /// Leases handed out and not yet released.
    live_leases: usize,
    block_tokens: usize,
    block_bytes: u64,
    weight_bytes: u64,
    capacity_bytes: u64,
    /// Live context tokens summed over all leases.
    tokens_in_use: usize,
    peak_bytes: u64,
    /// Snapshot taken whenever `peak_bytes` advances.
    tokens_at_peak: usize,
    blocks_at_peak: usize,
}

impl PagedKv {
    /// Carve the HBM left after `weight_bytes` of resident parameters into
    /// `block_tokens`-sized KV blocks. Fails if the weights alone overflow.
    pub fn new(
        mem: &MemoryConfig,
        weight_bytes: u64,
        bytes_per_token: u64,
        block_tokens: usize,
    ) -> Result<Self, OutOfMemory> {
        assert!(bytes_per_token > 0, "KV rows cannot be zero-sized");
        assert!(
            block_tokens > 0,
            "paged KV blocks must hold at least 1 token"
        );
        let capacity_bytes = mem.hbm_capacity_bytes;
        if weight_bytes > capacity_bytes {
            return Err(OutOfMemory::new(weight_bytes, capacity_bytes));
        }
        let block_bytes = (block_tokens as u64)
            .checked_mul(bytes_per_token)
            .expect("a KV block's byte size must fit in u64");
        let capacity_blocks = ((capacity_bytes - weight_bytes) / block_bytes).min(u32::MAX as u64);
        Ok(PagedKv {
            free_blocks: capacity_blocks as usize,
            capacity_blocks: capacity_blocks as usize,
            live_leases: 0,
            block_tokens,
            block_bytes,
            weight_bytes,
            capacity_bytes,
            tokens_in_use: 0,
            peak_bytes: weight_bytes,
            tokens_at_peak: 0,
            blocks_at_peak: 0,
        })
    }

    /// Growth headroom held back per live lease at admission, tokens
    /// (capped at one block for coarse block sizes).
    const WATERMARK_TOKENS: usize = 8;

    /// Blocks needed to hold `tokens` context tokens.
    fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Blocks currently held by live leases.
    fn allocated_blocks(&self) -> usize {
        self.capacity_blocks - self.free_blocks
    }

    /// Called whenever blocks were taken: the byte count only moves then.
    fn note_peak(&mut self) {
        let now = self.allocated();
        if now > self.peak_bytes {
            self.peak_bytes = now;
            self.tokens_at_peak = self.tokens_in_use;
            self.blocks_at_peak = self.allocated_blocks();
        }
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.free_blocks
    }

    /// Total blocks in the pool.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }
}

impl KvAdmission for PagedKv {
    fn try_admit(&mut self, prompt_len: usize, _output_len: usize) -> Result<KvLease, OutOfMemory> {
        // Prefill leaves `prompt + 1` live tokens (its last forward pass
        // emits the first output token). The rest of the output is NOT
        // reserved — that is the whole point. A watermark of a few tokens
        // of growth headroom per live lease is held back (vLLM holds a
        // free-block watermark for the same reason), so a saturating burst
        // cannot over-admit the pool into recompute-preemption thrash on
        // the very next decode steps.
        let tokens = prompt_len + 1;
        let need = self.blocks_for(tokens);
        let headroom_tokens = self.block_tokens.min(Self::WATERMARK_TOKENS);
        let watermark = (self.live_leases * headroom_tokens).div_ceil(self.block_tokens);
        if need + watermark > self.free_blocks {
            // Report the caller's true request; the watermark is the
            // pool's own reserve and is surfaced separately so operators
            // can size pools from the error instead of chasing a phantom
            // oversized request.
            return Err(OutOfMemory {
                requested: need as u64 * self.block_bytes,
                available: self.free_blocks as u64 * self.block_bytes,
                held_back: watermark as u64 * self.block_bytes,
            });
        }
        self.free_blocks -= need;
        self.live_leases += 1;
        self.tokens_in_use += tokens;
        self.note_peak();
        Ok(KvLease { tokens, held: need })
    }

    fn grow(&mut self, lease: &mut KvLease) -> Result<(), OutOfMemory> {
        let needs_block = lease.tokens + 1 > lease.held * self.block_tokens;
        if needs_block && self.free_blocks == 0 {
            // Leave the lease unchanged; the scheduler will preempt.
            return Err(OutOfMemory::new(self.block_bytes, 0));
        }
        lease.tokens += 1;
        self.tokens_in_use += 1;
        if needs_block {
            self.free_blocks -= 1;
            lease.held += 1;
            self.note_peak();
        }
        Ok(())
    }

    fn release(&mut self, lease: KvLease) {
        self.tokens_in_use -= lease.tokens;
        self.free_blocks += lease.held;
        self.live_leases -= 1;
    }

    fn allocated(&self) -> u64 {
        self.weight_bytes + self.allocated_blocks() as u64 * self.block_bytes
    }

    fn peak(&self) -> u64 {
        self.peak_bytes
    }

    fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    fn max_admissible_tokens(&self) -> u64 {
        // `ceil(t / block_tokens) <= capacity_blocks` iff
        // `t <= capacity_blocks * block_tokens`, so the block-rounded
        // bound equals the token-granular one.
        self.capacity_blocks as u64 * self.block_tokens as u64
    }

    fn utilization_at_peak(&self) -> f64 {
        if self.blocks_at_peak == 0 {
            1.0
        } else {
            self.tokens_at_peak as f64 / (self.blocks_at_peak * self.block_tokens) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(cap: u64) -> MemoryConfig {
        MemoryConfig {
            hbm_capacity_bytes: cap,
            ..MemoryConfig::default()
        }
    }

    // 1 KiB/token, 4-token blocks, 16 blocks of KV after 4 KiB of weights.
    fn small() -> PagedKv {
        PagedKv::new(&mem(4096 + 16 * 4096), 4096, 1024, 4).unwrap()
    }

    #[test]
    fn admit_charges_current_footprint_not_worst_case() {
        let mut kv = small();
        // prompt 3 → 4 live tokens → 1 block, regardless of output_len.
        let lease = kv.try_admit(3, 1000).unwrap();
        assert_eq!((lease.tokens(), lease.held()), (4, 1));
        assert_eq!(kv.free_blocks(), 15);
        // Contiguous admission could never have taken this request.
        assert!(3 + 1000 > kv.max_admissible_tokens() as usize);
        kv.release(lease);
        assert_eq!(kv.free_blocks(), kv.capacity_blocks());
    }

    #[test]
    fn grow_takes_a_block_only_at_the_boundary() {
        let mut kv = small();
        let mut lease = kv.try_admit(2, 8).unwrap(); // 3 live tokens, 1 block
        assert_eq!(kv.free_blocks(), 15);
        kv.grow(&mut lease).unwrap(); // 4 tokens — still fits block 0
        assert_eq!((lease.held(), kv.free_blocks()), (1, 15));
        kv.grow(&mut lease).unwrap(); // 5 tokens — crosses into block 1
        assert_eq!((lease.held(), kv.free_blocks()), (2, 14));
        assert_eq!(lease.tokens(), 5);
    }

    #[test]
    fn dry_pool_fails_growth_without_corrupting_the_lease() {
        // 3 blocks of 4 tokens (admission holds one back as watermark).
        let mut kv = PagedKv::new(&mem(3 * 4096), 0, 1024, 4).unwrap();
        let mut a = kv.try_admit(3, 64).unwrap(); // 4 tokens, 1 block
        let mut b = kv.try_admit(3, 64).unwrap(); // 4 tokens, 1 block
        kv.grow(&mut a).unwrap(); // 5 tokens — takes the last block
        let err = kv.grow(&mut b).unwrap_err();
        assert_eq!(err.available, 0);
        // Lease b is untouched: releasing both returns exactly 3 blocks.
        assert_eq!((b.tokens(), b.held()), (4, 1));
        kv.release(a);
        kv.release(b);
        assert_eq!(kv.free_blocks(), 3);
        assert_eq!(kv.allocated(), 0);
    }

    #[test]
    fn admission_holds_back_one_block_per_live_lease() {
        // 2 blocks of 4: admitting a second lease would leave no growth
        // headroom for the first, so the watermark rejects it.
        let mut kv = PagedKv::new(&mem(2 * 4096), 0, 1024, 4).unwrap();
        let first = kv.try_admit(3, 64).unwrap();
        assert!(kv.try_admit(3, 64).is_err());
        // Once the first request completes, the pool is all headroom again.
        kv.release(first);
        let _second = kv.try_admit(3, 64).unwrap();
        assert_eq!(kv.free_blocks(), 1);
    }

    #[test]
    fn admission_oom_reports_true_request_and_watermark_separately() {
        // Regression: the error used to fold the growth watermark into
        // `requested`, making a 1-block ask look like a 2-block one.
        let mut kv = PagedKv::new(&mem(2 * 4096), 0, 1024, 4).unwrap();
        let _held = kv.try_admit(3, 64).unwrap(); // 1 block live, 1 free
        let err = kv.try_admit(3, 64).unwrap_err();
        assert_eq!(err.requested, 4096, "one block actually requested");
        assert_eq!(err.held_back, 4096, "one watermark block withheld");
        assert_eq!(err.available, 4096);
        let msg = err.to_string();
        assert!(msg.contains("held back"), "watermark surfaced: {msg}");
    }

    #[test]
    fn a_restore_that_runs_the_pool_dry_midway_rolls_back() {
        // 16 blocks: a 10-block lease leaves 6, enough to admit a 5-token
        // prompt (2 blocks + 1 watermark) but not to grow it to 30 tokens.
        let mut kv = small();
        let _held = kv.try_admit(39, 1).unwrap();
        assert_eq!(kv.free_blocks(), 6);
        let (allocated, peak) = (kv.allocated(), kv.peak());
        assert!(kv.try_restore(4, 40, 26).is_err());
        assert_eq!(kv.free_blocks(), 6, "partial restore must roll back");
        assert_eq!(kv.allocated(), allocated);
        assert!(kv.peak() > peak, "the partial restore did reach a new peak");
        // The rolled-back lease is no longer live: with one live lease the
        // watermark is one block, so a 5-block admission fits the 6 free.
        let lease = kv.try_admit(19, 1).unwrap();
        assert_eq!((lease.held(), kv.free_blocks()), (5, 1));
    }

    #[test]
    fn utilization_counts_last_block_rounding_only() {
        let mut kv = small();
        // 5 live tokens over 2 blocks of 4 → 5/8 at the peak.
        let mut lease = kv.try_admit(4, 100).unwrap();
        assert!((kv.utilization_at_peak() - 5.0 / 8.0).abs() < 1e-12);
        // Growing into the slack raises utilization at the next peak…
        kv.grow(&mut lease).unwrap(); // 6/8, no new block: same bytes, old snapshot
        kv.grow(&mut lease).unwrap(); // 7/8
        kv.grow(&mut lease).unwrap(); // 8/8
        assert!((kv.utilization_at_peak() - 5.0 / 8.0).abs() < 1e-12);
        kv.grow(&mut lease).unwrap(); // 9 tokens, 3rd block → new byte peak, 9/12
        assert!((kv.utilization_at_peak() - 9.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn max_admissible_matches_token_granular_bound() {
        let kv = small();
        assert_eq!(kv.max_admissible_tokens(), 64);
        // A 64-token request takes exactly all 16 blocks.
        let mut kv = small();
        let _held = kv.try_admit(63, 1).unwrap();
        assert_eq!(kv.free_blocks(), 0);
        // 65 tokens can never fit.
        let mut kv = small();
        assert!(kv.try_admit(64, 1).is_err());
    }

    #[test]
    fn weights_that_overflow_fail_construction() {
        assert!(PagedKv::new(&mem(1 << 20), 2 << 20, 1, 16).is_err());
    }
}
