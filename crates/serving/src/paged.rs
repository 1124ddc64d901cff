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
//! sequences from the same device; the price is per-chain rounding waste
//! (the tail of the last block) and the possibility that the pool runs
//! dry mid-decode, which the engine resolves by deterministically
//! preempting the newest sequence.

use crate::error::ServingError;
use crate::idhash::IdMap;
use crate::kv::KvAdmission;
use gaudi_hw::config::MemoryConfig;
use gaudi_hw::memory::OutOfMemory;

/// Fixed-size block allocator over the KV region of one device.
///
/// Blocks are identified by dense indices `0..capacity`. The free list is
/// LIFO, so allocation order is deterministic: a fresh pool hands out
/// `0, 1, 2, …` and re-uses the most recently freed block first (warm
/// blocks, like a real allocator chasing cache locality).
///
/// Invariant (checked by the conservation property test):
/// `free_blocks() + allocated_blocks() == capacity_blocks()` at all times.
#[derive(Debug, Clone)]
pub struct BlockPool {
    /// Free block indices; `pop` yields the next allocation.
    free: Vec<u32>,
    capacity: u32,
}

impl BlockPool {
    /// Pool over `capacity_blocks` blocks, all initially free.
    pub fn new(capacity_blocks: u32) -> Self {
        // Reverse order so LIFO pop hands out 0, 1, 2, … on a fresh pool.
        BlockPool {
            free: (0..capacity_blocks).rev().collect(),
            capacity: capacity_blocks,
        }
    }

    /// Take one block, or `None` when the pool is dry.
    pub fn alloc(&mut self) -> Option<u32> {
        self.free.pop()
    }

    /// Return a block to the pool. The caller owns the handed-out index;
    /// returning a foreign or doubly-freed index is a logic error (checked
    /// in debug builds).
    pub fn dealloc(&mut self, block: u32) {
        debug_assert!(block < self.capacity, "freed block {block} out of range");
        debug_assert!(!self.free.contains(&block), "double free of block {block}");
        self.free.push(block);
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently handed out.
    pub fn allocated_blocks(&self) -> usize {
        self.capacity as usize - self.free.len()
    }

    /// Total blocks in the pool.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity as usize
    }
}

/// One request's block chain: the ordered blocks backing its context plus
/// the live token count (which the last block only partially fills).
#[derive(Debug, Clone)]
struct Chain {
    blocks: Vec<u32>,
    tokens: usize,
}

/// Paged [`KvAdmission`]: per-request block chains over a [`BlockPool`],
/// with weights resident outside the pool.
#[derive(Debug)]
pub struct PagedKv {
    pool: BlockPool,
    chains: IdMap<u64, Chain>,
    block_tokens: usize,
    block_bytes: u64,
    weight_bytes: u64,
    capacity_bytes: u64,
    /// Live context tokens summed over all chains.
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
        let block_bytes = block_tokens as u64 * bytes_per_token;
        let capacity_blocks = ((capacity_bytes - weight_bytes) / block_bytes).min(u32::MAX as u64);
        Ok(PagedKv {
            pool: BlockPool::new(capacity_blocks as u32),
            chains: IdMap::default(),
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

    /// Growth headroom held back per live chain at admission, tokens
    /// (capped at one block for coarse block sizes).
    const WATERMARK_TOKENS: usize = 8;

    /// Blocks needed to hold `tokens` context tokens.
    fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    fn note_peak(&mut self) {
        let now = self.allocated();
        if now > self.peak_bytes {
            self.peak_bytes = now;
            self.tokens_at_peak = self.tokens_in_use;
            self.blocks_at_peak = self.pool.allocated_blocks();
        }
    }

    /// The underlying pool (read-only), for reporting.
    pub fn pool(&self) -> &BlockPool {
        &self.pool
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }
}

impl KvAdmission for PagedKv {
    fn try_admit(
        &mut self,
        id: u64,
        prompt_len: usize,
        _output_len: usize,
    ) -> Result<(), OutOfMemory> {
        // Prefill leaves `prompt + 1` live tokens (its last forward pass
        // emits the first output token). The rest of the output is NOT
        // reserved — that is the whole point. A watermark of a few tokens
        // of growth headroom per live chain is held back (vLLM holds a
        // free-block watermark for the same reason), so a saturating burst
        // cannot over-admit the pool into recompute-preemption thrash on
        // the very next decode steps.
        let tokens = prompt_len + 1;
        let need = self.blocks_for(tokens);
        let headroom_tokens = self.block_tokens.min(Self::WATERMARK_TOKENS);
        let watermark = (self.chains.len() * headroom_tokens).div_ceil(self.block_tokens);
        if need + watermark > self.pool.free_blocks() {
            // Report the caller's true request; the watermark is the
            // pool's own reserve and is surfaced separately so operators
            // can size pools from the error instead of chasing a phantom
            // oversized request.
            return Err(OutOfMemory {
                requested: need as u64 * self.block_bytes,
                available: self.pool.free_blocks() as u64 * self.block_bytes,
                held_back: watermark as u64 * self.block_bytes,
            });
        }
        let mut blocks = Vec::with_capacity(need);
        for _ in 0..need {
            blocks.push(self.pool.alloc().expect("free count was just checked"));
        }
        self.chains.insert(id, Chain { blocks, tokens });
        self.tokens_in_use += tokens;
        self.note_peak();
        Ok(())
    }

    fn grow(&mut self, id: u64) -> Result<(), OutOfMemory> {
        let block_bytes = self.block_bytes;
        let block_tokens = self.block_tokens;
        let free = self.pool.free_blocks();
        let Some(chain) = self.chains.get_mut(&id) else {
            // Unknown id: nothing to grow (mirrors ContiguousKv::grow).
            return Ok(());
        };
        let needs_block = chain.tokens + 1 > chain.blocks.len() * block_tokens;
        if needs_block && free == 0 {
            // Leave the chain unchanged; the scheduler will preempt.
            return Err(OutOfMemory::new(block_bytes, 0));
        }
        if needs_block {
            let b = self.pool.alloc().expect("free count was just checked");
            self.chains
                .get_mut(&id)
                .expect("chain existed above")
                .blocks
                .push(b);
        }
        let chain = self.chains.get_mut(&id).expect("chain existed above");
        chain.tokens += 1;
        self.tokens_in_use += 1;
        self.note_peak();
        Ok(())
    }

    fn release(&mut self, id: u64) -> Result<(), ServingError> {
        let chain = self.chains.remove(&id).ok_or_else(|| {
            ServingError::KvAccounting(format!("request {id} released without a block chain"))
        })?;
        self.tokens_in_use -= chain.tokens;
        // Free in reverse so the LIFO free list re-issues this chain's
        // blocks in their original order on the next allocation.
        for b in chain.blocks.into_iter().rev() {
            self.pool.dealloc(b);
        }
        Ok(())
    }

    fn allocated(&self) -> u64 {
        self.weight_bytes + self.pool.allocated_blocks() as u64 * self.block_bytes
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
        self.pool.capacity_blocks() as u64 * self.block_tokens as u64
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
    fn pool_hands_out_blocks_in_order_and_reuses_lifo() {
        let mut p = BlockPool::new(4);
        assert_eq!(p.alloc(), Some(0));
        assert_eq!(p.alloc(), Some(1));
        p.dealloc(0);
        assert_eq!(p.alloc(), Some(0), "most recently freed comes back first");
        assert_eq!(p.free_blocks() + p.allocated_blocks(), p.capacity_blocks());
    }

    #[test]
    fn admit_charges_current_footprint_not_worst_case() {
        let mut kv = small();
        // prompt 3 → 4 live tokens → 1 block, regardless of output_len.
        kv.try_admit(0, 3, 1000).unwrap();
        assert_eq!(kv.pool().allocated_blocks(), 1);
        // Contiguous admission could never have taken this request.
        assert!(3 + 1000 > kv.max_admissible_tokens() as usize);
    }

    #[test]
    fn grow_takes_a_block_only_at_the_boundary() {
        let mut kv = small();
        kv.try_admit(0, 2, 8).unwrap(); // 3 live tokens, 1 block
        assert_eq!(kv.pool().allocated_blocks(), 1);
        kv.grow(0).unwrap(); // 4 tokens — still fits block 0
        assert_eq!(kv.pool().allocated_blocks(), 1);
        kv.grow(0).unwrap(); // 5 tokens — crosses into block 1
        assert_eq!(kv.pool().allocated_blocks(), 2);
    }

    #[test]
    fn dry_pool_fails_growth_without_corrupting_the_chain() {
        // 3 blocks of 4 tokens (admission holds one back as watermark).
        let mut kv = PagedKv::new(&mem(3 * 4096), 0, 1024, 4).unwrap();
        kv.try_admit(0, 3, 64).unwrap(); // 4 tokens, block 0
        kv.try_admit(1, 3, 64).unwrap(); // 4 tokens, block 1
        kv.grow(0).unwrap(); // 5 tokens — takes the last block
        let err = kv.grow(1).unwrap_err();
        assert_eq!(err.available, 0);
        // Chain 1 is untouched: releasing both must return exactly 3 blocks.
        kv.release(0).unwrap();
        kv.release(1).unwrap();
        assert_eq!(kv.pool().free_blocks(), 3);
        assert_eq!(kv.allocated(), 0);
    }

    #[test]
    fn admission_holds_back_one_block_per_live_chain() {
        // 2 blocks of 4: admitting a second chain would leave no growth
        // headroom for the first, so the watermark rejects it.
        let mut kv = PagedKv::new(&mem(2 * 4096), 0, 1024, 4).unwrap();
        kv.try_admit(0, 3, 64).unwrap();
        assert!(kv.try_admit(1, 3, 64).is_err());
        // Once the first chain completes, the pool is all headroom again.
        kv.release(0).unwrap();
        kv.try_admit(1, 3, 64).unwrap();
        assert_eq!(kv.pool().allocated_blocks(), 1);
    }

    #[test]
    fn admission_oom_reports_true_request_and_watermark_separately() {
        // Regression: the error used to fold the growth watermark into
        // `requested`, making a 1-block ask look like a 2-block one.
        let mut kv = PagedKv::new(&mem(2 * 4096), 0, 1024, 4).unwrap();
        kv.try_admit(0, 3, 64).unwrap(); // 1 block live, 1 free
        let err = kv.try_admit(1, 3, 64).unwrap_err();
        assert_eq!(err.requested, 4096, "one block actually requested");
        assert_eq!(err.held_back, 4096, "one watermark block withheld");
        assert_eq!(err.available, 4096);
        let msg = err.to_string();
        assert!(msg.contains("held back"), "watermark surfaced: {msg}");
    }

    #[test]
    fn release_is_checked() {
        let mut kv = small();
        kv.try_admit(5, 3, 4).unwrap();
        kv.release(5).unwrap();
        assert!(matches!(kv.release(5), Err(ServingError::KvAccounting(_))));
        assert!(matches!(kv.release(99), Err(ServingError::KvAccounting(_))));
    }

    #[test]
    fn utilization_counts_last_block_rounding_only() {
        let mut kv = small();
        // 5 live tokens over 2 blocks of 4 → 5/8 at the peak.
        kv.try_admit(0, 4, 100).unwrap();
        assert!((kv.utilization_at_peak() - 5.0 / 8.0).abs() < 1e-12);
        // Growing into the slack raises utilization at the next peak…
        kv.grow(0).unwrap(); // 6/8, no new block: same bytes, old snapshot
        kv.grow(0).unwrap(); // 7/8
        kv.grow(0).unwrap(); // 8/8
        kv.grow(0).unwrap(); // 9 tokens, 3rd block → new byte peak, 9/12
        assert!((kv.utilization_at_peak() - 9.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn max_admissible_matches_token_granular_bound() {
        let kv = small();
        assert_eq!(kv.max_admissible_tokens(), 64);
        // A 64-token request takes exactly all 16 blocks.
        let mut kv = small();
        kv.try_admit(0, 63, 1).unwrap();
        assert_eq!(kv.pool().free_blocks(), 0);
        // 65 tokens can never fit.
        let mut kv = small();
        assert!(kv.try_admit(0, 64, 1).is_err());
    }

    #[test]
    fn weights_that_overflow_fail_construction() {
        assert!(PagedKv::new(&mem(1 << 20), 2 << 20, 1, 16).is_err());
    }
}
