//! KV-cache HBM accounting with admission backpressure.
//!
//! Decode-phase attention reads every previously-cached key/value row, so a
//! request's KV footprint is `2 · layers · heads · head_dim · tokens`
//! elements and lives until the request completes. How that footprint is
//! *reserved* is the [`KvAdmission`] strategy:
//!
//! * [`KvAdmissionConfig::Contiguous`] ([`ContiguousKv`], the legacy
//!   accountant) charges a worst-case reservation — `prompt + output`
//!   tokens — at admission.
//!   Reserving up front makes the capacity invariant airtight (an admitted
//!   request can always finish), but every not-yet-generated output token
//!   is dead headroom while the request decodes.
//! * [`KvAdmissionConfig::Paged`] ([`PagedKv`]) allocates fixed-size
//!   blocks as the context actually grows (the vLLM design): admission
//!   needs only the prompt's blocks, so many more sequences fit the same
//!   HBM, at the price of block-rounding waste and the possibility of
//!   preempting the newest sequence when the pool runs dry mid-decode.
//!
//! Either way the model weights are resident up front and overflow turns
//! into queueing backpressure (or deterministic preemption) instead of a
//! mid-generation OOM. An admitted request holds a [`KvLease`] that
//! records what its strategy reserved for it; the runner gives it back
//! exactly once, so the strategies keep no table keyed by request id. A
//! replica holds its strategy as a [`KvStrategy`], a closed enum, so the
//! lease growth of every runner in every decode step is a static call.

use crate::paged::PagedKv;
use gaudi_hw::config::MemoryConfig;
use gaudi_hw::memory::{HbmTracker, OutOfMemory};
use gaudi_models::LlmConfig;
use gaudi_tensor::DType;

/// How much HBM admission charges for the activation/workspace memory of
/// the compiled phase graphs, on top of resident weights and KV cache.
///
/// The legacy budget ([`Off`](Self::Off), the default) reserves nothing —
/// the optimism the paper's §3.4 warns against, kept as the default so
/// existing reports stay bit-identical. [`Unplanned`](Self::Unplanned)
/// reserves the worst-case phase graph's *naive* footprint (every tensor
/// gets its own slot, no lifetime reuse); [`Planned`](Self::Planned)
/// reserves the static memory planner's packed arena instead, and the
/// difference — the arena's reclaimed headroom — flows straight into KV
/// capacity: more blocks in the paged pool, more concurrent sequences at
/// equal HBM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ActivationBudget {
    /// No activation reserve (`weights + KV` only) — the legacy,
    /// bit-identical default.
    #[default]
    Off,
    /// Reserve the naive sum-of-tensors footprint of the worst-case phase.
    Unplanned,
    /// Reserve the memory planner's arena extent for the worst-case phase.
    Planned,
}

impl ActivationBudget {
    /// Bytes this budget reserves, given the worst-case phase's planned
    /// (arena) and naive (sum-of-tensors) footprints.
    pub fn reserve_bytes(&self, planned_bytes: u64, naive_bytes: u64) -> u64 {
        match self {
            ActivationBudget::Off => 0,
            ActivationBudget::Unplanned => naive_bytes,
            ActivationBudget::Planned => planned_bytes,
        }
    }
}

/// Admission-strategy selection for [`ServingConfig`], and the home of the
/// model-footprint arithmetic both strategies share.
///
/// [`ServingConfig`]: crate::ServingConfig
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum KvAdmissionConfig {
    /// Worst-case contiguous reservation (`prompt + output` tokens charged
    /// at admission) — the legacy accountant.
    #[default]
    Contiguous,
    /// Block-granular paged allocation: sequences are admitted on their
    /// *current* footprint and grow block by block, so idle worst-case
    /// headroom becomes admissible concurrency.
    Paged {
        /// Tokens per KV block. Smaller blocks waste less of the last
        /// block per sequence but make the free list churn more.
        block_tokens: usize,
    },
}

impl KvAdmissionConfig {
    /// Paged admission with a 16-token block — the vLLM default size.
    pub fn paged() -> Self {
        KvAdmissionConfig::Paged { block_tokens: 16 }
    }

    /// Bytes of KV cache per token for a model (keys + values, all
    /// layers). Identical under both strategies; paged admission rounds
    /// *reservations* to blocks, not the rows themselves.
    ///
    /// # Panics
    ///
    /// If the size overflows `u64`. A simulation refuses such a model with
    /// [`ServingError::InvalidConfig`](crate::ServingError::InvalidConfig)
    /// before it sizes anything.
    pub fn kv_bytes_per_token(&self, model: &LlmConfig, dtype: DType) -> u64 {
        kv_row_bytes(model, dtype).expect("the KV row size overflows u64")
    }

    /// Bytes of resident model weights (embeddings, per-layer projections
    /// and norms, LM head tied to the token embedding).
    ///
    /// # Panics
    ///
    /// If the size overflows `u64`, as
    /// [`kv_bytes_per_token`](Self::kv_bytes_per_token).
    pub fn weight_bytes(&self, model: &LlmConfig, max_positions: usize, dtype: DType) -> u64 {
        resident_weight_bytes(model, max_positions, dtype).expect("the weight size overflows u64")
    }

    /// Reject malformed strategies for `model` before a simulation starts:
    /// KV rows of zero bytes (a model with no layers, heads or head
    /// dimension), an empty paged block, or a block whose byte size does
    /// not fit in `u64`.
    pub fn validate(&self, model: &LlmConfig, dtype: DType) -> Result<(), String> {
        let row = self.kv_bytes_per_token(model, dtype);
        if row == 0 {
            return Err(
                "KV rows are 0 bytes: layers, heads and head_dim must be at least 1".into(),
            );
        }
        match *self {
            KvAdmissionConfig::Contiguous => Ok(()),
            KvAdmissionConfig::Paged { block_tokens: 0 } => {
                Err("paged KV blocks must hold at least 1 token".into())
            }
            KvAdmissionConfig::Paged { block_tokens } => {
                match (block_tokens as u64).checked_mul(row) {
                    Some(_) => Ok(()),
                    None => Err(format!(
                        "a paged KV block of {block_tokens} tokens of {row} B overflows u64"
                    )),
                }
            }
        }
    }

    /// Build the admission state for one replica: weights plus
    /// `activation_bytes` of planned phase workspace resident up front,
    /// strategy-specific KV bookkeeping empty. `activation_bytes` is what
    /// the configured [`ActivationBudget`] reserved — `0` under the legacy
    /// `Off` budget, where admission is `weights + KV` exactly as before.
    /// Fails if the resident footprint alone overflows HBM.
    pub fn build(
        &self,
        mem: &MemoryConfig,
        model: &LlmConfig,
        max_positions: usize,
        dtype: DType,
        activation_bytes: u64,
    ) -> Result<KvStrategy, OutOfMemory> {
        let resident = self.weight_bytes(model, max_positions, dtype) + activation_bytes;
        let per_token = self.kv_bytes_per_token(model, dtype);
        Ok(match *self {
            KvAdmissionConfig::Contiguous => {
                KvStrategy::Contiguous(ContiguousKv::new(mem, resident, per_token)?)
            }
            KvAdmissionConfig::Paged { block_tokens } => {
                KvStrategy::Paged(PagedKv::new(mem, resident, per_token, block_tokens)?)
            }
        })
    }
}

/// One replica's KV admission state, as [`KvAdmissionConfig::build`] makes
/// it: the configured strategy behind a closed enum. The engine grows every
/// runner's lease once per decode step, so its calls dispatch by a `match`
/// the compiler can see through, not through a vtable. The enum forwards
/// each [`KvAdmission`] call to the strategy it holds, which stays the one
/// interface both strategies implement.
#[derive(Debug)]
pub enum KvStrategy {
    /// Worst-case contiguous reservation.
    Contiguous(ContiguousKv),
    /// Block-granular paged allocation.
    Paged(PagedKv),
}

/// Forward one [`KvAdmission`] call to the strategy a [`KvStrategy`] holds.
macro_rules! forward {
    ($strategy:expr, $kv:ident => $call:expr) => {
        match $strategy {
            KvStrategy::Contiguous($kv) => $call,
            KvStrategy::Paged($kv) => $call,
        }
    };
}

impl KvAdmission for KvStrategy {
    fn try_admit(&mut self, prompt_len: usize, output_len: usize) -> Result<KvLease, OutOfMemory> {
        forward!(self, kv => kv.try_admit(prompt_len, output_len))
    }

    fn grow(&mut self, lease: &mut KvLease) -> Result<(), OutOfMemory> {
        forward!(self, kv => kv.grow(lease))
    }

    fn release(&mut self, lease: KvLease) {
        forward!(self, kv => kv.release(lease))
    }

    fn allocated(&self) -> u64 {
        forward!(self, kv => kv.allocated())
    }

    fn peak(&self) -> u64 {
        forward!(self, kv => kv.peak())
    }

    fn capacity(&self) -> u64 {
        forward!(self, kv => kv.capacity())
    }

    fn max_admissible_tokens(&self) -> u64 {
        forward!(self, kv => kv.max_admissible_tokens())
    }

    fn utilization_at_peak(&self) -> f64 {
        forward!(self, kv => kv.utilization_at_peak())
    }
}

/// [`KvAdmissionConfig::kv_bytes_per_token`], or `None` if it overflows
/// `u64`.
pub(crate) fn kv_row_bytes(model: &LlmConfig, dtype: DType) -> Option<u64> {
    let d = model.heads.checked_mul(model.head_dim)? as u64;
    2u64.checked_mul(model.layers as u64)?
        .checked_mul(d)?
        .checked_mul(dtype.size_of() as u64)
}

/// [`KvAdmissionConfig::weight_bytes`], or `None` if it overflows `u64`.
pub(crate) fn resident_weight_bytes(
    model: &LlmConfig,
    max_positions: usize,
    dtype: DType,
) -> Option<u64> {
    let d = model.heads.checked_mul(model.head_dim)? as u64;
    let d_ff = d.checked_mul(model.ffn_mult as u64)?;
    // A `[rows, cols]` matrix plus its `cols` bias.
    let linear = |rows: u64, cols: u64| rows.checked_mul(cols)?.checked_add(cols);
    let embed = (model.vocab as u64)
        .checked_mul(d)?
        .checked_add((max_positions as u64).checked_mul(d)?)?;
    // q/k/v/out projections + biases, two layernorms, two FFN projections.
    let per_layer = linear(d, d)?
        .checked_mul(4)?
        .checked_add(d.checked_mul(2 * 2)?)?
        .checked_add(linear(d, d_ff)?)?
        .checked_add(linear(d_ff, d)?)?;
    embed
        .checked_add((model.layers as u64).checked_mul(per_layer)?)?
        .checked_add(d.checked_mul(2)?)?
        .checked_mul(dtype.size_of() as u64)
}

/// One running request's KV reservation: handed out by
/// [`KvAdmission::try_admit`] or [`KvAdmission::try_restore`], grown once
/// per decode step, and given back exactly once to
/// [`KvAdmission::release`]. The runner holds it, so no side table keyed
/// by request id is needed to know what a release frees. Neither `Clone`
/// nor `Copy`, and releasing consumes it: a lease cannot be released twice.
#[must_use = "a lease holds KV memory until it is released"]
#[derive(Debug)]
pub struct KvLease {
    /// Live context tokens (prompt + generated).
    pub(crate) tokens: usize,
    /// What the strategy holds for those tokens: the worst-case token
    /// reservation under contiguous admission, the block count under paged
    /// admission.
    pub(crate) held: usize,
}

impl KvLease {
    /// Live context tokens: the prompt plus every generated token.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// What the issuing strategy holds for this request: tokens of
    /// worst-case reservation ([`ContiguousKv`]) or KV blocks
    /// ([`PagedKv`]).
    pub fn held(&self) -> usize {
        self.held
    }
}

/// Per-replica KV admission bookkeeping: the interface both strategies
/// implement, and the one a replica's [`KvStrategy`] forwards to. One
/// value per replica; each admitted request holds its [`KvLease`].
///
/// The lifecycle per request is `try_admit` (or `try_restore`) → `grow`
/// once per decode step → `release` exactly once (completion,
/// cancellation, preemption, or halt). The lease carries what the
/// release frees, so a release cannot fail.
pub trait KvAdmission: std::fmt::Debug + Send {
    /// Reserve the admission footprint of a request (`prompt_len + 1`
    /// live tokens; contiguous admission additionally pins the whole
    /// worst-case `prompt + output`). Fails — leaving the state
    /// unchanged — when the reservation does not fit; the scheduler turns
    /// that into backpressure.
    fn try_admit(&mut self, prompt_len: usize, output_len: usize) -> Result<KvLease, OutOfMemory>;

    /// Extend a lease by one decoded token. Never fails under contiguous
    /// admission (the worst case is pre-reserved); under paged admission a
    /// dry pool fails the growth, leaving the lease unchanged, and the
    /// scheduler preempts.
    fn grow(&mut self, lease: &mut KvLease) -> Result<(), OutOfMemory>;

    /// Release everything a lease holds.
    fn release(&mut self, lease: KvLease);

    /// Bytes currently reserved (weights + KV).
    fn allocated(&self) -> u64;

    /// High-water mark in bytes.
    fn peak(&self) -> u64;

    /// Device capacity in bytes.
    fn capacity(&self) -> u64;

    /// Largest request (in total tokens) this device can ever admit.
    fn max_admissible_tokens(&self) -> u64;

    /// Fraction of the reserved KV bytes that held live tokens when the
    /// reservation peaked (`1.0` when nothing was ever reserved).
    /// Contiguous admission wastes the not-yet-generated output tail;
    /// paged admission wastes only the rounding of each lease's last
    /// block.
    fn utilization_at_peak(&self) -> f64;

    /// Re-admit a request at a checkpointed decode position: reserve its
    /// admission footprint and then grow it to `generated` live decode
    /// tokens, as if the chain had been decoded in place. All-or-nothing:
    /// if any growth step fails, the partial lease is released and the
    /// state is as before the call — the scheduler turns the failure into
    /// backpressure exactly like a failed [`try_admit`].
    ///
    /// `generated` must be at least 1 (the chain was checkpointed after
    /// its prefill produced the first token) and below `output_len`.
    ///
    /// [`try_admit`]: KvAdmission::try_admit
    fn try_restore(
        &mut self,
        prompt_len: usize,
        output_len: usize,
        generated: usize,
    ) -> Result<KvLease, OutOfMemory> {
        debug_assert!((1..output_len.max(1)).contains(&generated));
        let mut lease = self.try_admit(prompt_len, output_len)?;
        // Admission leaves `prompt + 1` live tokens — the first generated
        // token — so the snapshot needs `generated - 1` growth steps.
        for _ in 1..generated {
            if let Err(oom) = self.grow(&mut lease) {
                self.release(lease);
                return Err(oom);
            }
        }
        Ok(lease)
    }
}

/// The legacy worst-case strategy behind the [`KvAdmission`] trait: an
/// HBM tracker with the weights resident. Each lease holds its request's
/// worst-case reservation and its live tokens, and the totals of both are
/// kept here, so the waste of up-front reservation becomes measurable
/// ([`utilization_at_peak`](KvAdmission::utilization_at_peak)).
#[derive(Debug)]
pub struct ContiguousKv {
    tracker: HbmTracker,
    weight_bytes: u64,
    bytes_per_token: u64,
    reserved_tokens: usize,
    live_tokens: usize,
    live_at_peak: usize,
    reserved_at_peak: usize,
}

impl ContiguousKv {
    /// Admission state for a device, with `weight_bytes` made resident up
    /// front and `bytes_per_token` of KV per cached token. Fails if the
    /// weights alone overflow HBM.
    pub fn new(
        mem: &MemoryConfig,
        weight_bytes: u64,
        bytes_per_token: u64,
    ) -> Result<Self, OutOfMemory> {
        assert!(bytes_per_token > 0, "KV rows cannot be zero-sized");
        let mut tracker = HbmTracker::new(mem);
        tracker.allocate(weight_bytes)?;
        Ok(ContiguousKv {
            tracker,
            weight_bytes,
            bytes_per_token,
            reserved_tokens: 0,
            live_tokens: 0,
            live_at_peak: 0,
            reserved_at_peak: 0,
        })
    }
}

impl KvAdmission for ContiguousKv {
    fn try_admit(&mut self, prompt_len: usize, output_len: usize) -> Result<KvLease, OutOfMemory> {
        let total = prompt_len + output_len;
        let peak = self.tracker.peak();
        self.tracker.allocate(total as u64 * self.bytes_per_token)?;
        // Prefill leaves `prompt + 1` tokens live (its last forward pass
        // emits the first output token).
        let lease = KvLease {
            tokens: prompt_len + 1,
            held: total,
        };
        self.reserved_tokens += total;
        self.live_tokens += lease.tokens;
        // Only a new high-water mark re-snapshots the live/reserved mix.
        if self.tracker.peak() > peak {
            self.live_at_peak = self.live_tokens;
            self.reserved_at_peak = self.reserved_tokens;
        }
        Ok(lease)
    }

    fn grow(&mut self, lease: &mut KvLease) -> Result<(), OutOfMemory> {
        // The worst case is pre-reserved; growth just moves a token from
        // "reserved headroom" to "live".
        lease.tokens += 1;
        self.live_tokens += 1;
        Ok(())
    }

    fn release(&mut self, lease: KvLease) {
        // The lease bounds the free: it is exactly what its request
        // reserved.
        self.tracker.free(lease.held as u64 * self.bytes_per_token);
        self.reserved_tokens -= lease.held;
        self.live_tokens -= lease.tokens;
    }

    fn allocated(&self) -> u64 {
        self.tracker.allocated()
    }

    fn peak(&self) -> u64 {
        self.tracker.peak()
    }

    fn capacity(&self) -> u64 {
        self.tracker.capacity()
    }

    fn max_admissible_tokens(&self) -> u64 {
        (self.capacity() - self.weight_bytes) / self.bytes_per_token
    }

    fn utilization_at_peak(&self) -> f64 {
        if self.reserved_at_peak == 0 {
            1.0
        } else {
            self.live_at_peak as f64 / self.reserved_at_peak as f64
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

    #[test]
    fn paper_model_kv_row_size() {
        // 2 layers * 512 model dim * 2 (K and V) * 4 bytes = 8 KiB/token.
        let m = LlmConfig::paper_section_3_4(50257);
        assert_eq!(
            KvAdmissionConfig::Contiguous.kv_bytes_per_token(&m, DType::F32),
            8192
        );
        // The footprint arithmetic is strategy-independent.
        assert_eq!(
            KvAdmissionConfig::paged().kv_bytes_per_token(&m, DType::F32),
            8192
        );
        assert_eq!(
            KvAdmissionConfig::Contiguous.weight_bytes(&m, 1024, DType::F32),
            KvAdmissionConfig::paged().weight_bytes(&m, 1024, DType::F32),
        );
    }

    #[test]
    fn reserve_release_roundtrip() {
        let mut kv = ContiguousKv::new(&mem(1 << 20), 1 << 16, 256).unwrap();
        let before = kv.allocated();
        let lease = kv.try_admit(60, 40).unwrap();
        assert_eq!((lease.tokens(), lease.held()), (61, 100));
        assert_eq!(kv.allocated(), before + 100 * 256);
        kv.release(lease);
        assert_eq!(kv.allocated(), before);
        assert!(kv.peak() >= before + 100 * 256);
    }

    #[test]
    fn overflow_is_rejected_not_exceeded() {
        let mut kv = ContiguousKv::new(&mem(1 << 20), 0, 1024).unwrap();
        // Capacity is 1024 tokens worth; reserve most of it.
        let _held = kv.try_admit(900, 100).unwrap();
        let err = kv.try_admit(50, 50).unwrap_err();
        assert_eq!(err.available, 24 * 1024);
        // Failed reservation must not change accounting.
        assert_eq!(kv.allocated(), 1000 * 1024);
        assert!(kv.allocated() <= kv.capacity());
    }

    #[test]
    fn weights_that_overflow_fail_construction() {
        assert!(ContiguousKv::new(&mem(1 << 20), 2 << 20, 1).is_err());
    }

    #[test]
    fn contiguous_admission_tracks_per_request_reservations() {
        let mut kv = ContiguousKv::new(&mem(1 << 20), 0, 1024).unwrap();
        let a = kv.try_admit(100, 50).unwrap();
        assert_eq!(kv.allocated(), 150 * 1024);
        // A second lease, then release both, each freeing its own
        // reservation whatever the other holds.
        let mut b = kv.try_admit(10, 5).unwrap();
        assert_eq!(kv.allocated(), 165 * 1024);
        kv.grow(&mut b).unwrap();
        assert_eq!((b.tokens(), b.held()), (12, 15), "growth stays reserved");
        assert_eq!(kv.allocated(), 165 * 1024);
        kv.release(a);
        assert_eq!(kv.allocated(), 15 * 1024);
        kv.release(b);
        assert_eq!(kv.allocated(), 0);
        assert_eq!((kv.reserved_tokens, kv.live_tokens), (0, 0));
    }

    #[test]
    fn contiguous_utilization_measures_worst_case_waste() {
        let mut kv = ContiguousKv::new(&mem(1 << 20), 0, 1024).unwrap();
        // 100 reserved, 11 live at the (only) peak: utilization is the
        // live fraction of the reservation.
        let mut a = kv.try_admit(10, 90).unwrap();
        let u = kv.utilization_at_peak();
        assert!((u - 11.0 / 100.0).abs() < 1e-12, "utilization {u}");
        // Growth without a new peak does not rewrite the snapshot…
        kv.grow(&mut a).unwrap();
        assert_eq!(kv.utilization_at_peak(), u);
        // …but a new peak does.
        let _b = kv.try_admit(10, 10).unwrap();
        assert!(kv.utilization_at_peak() > u);
    }

    #[test]
    fn try_restore_is_all_or_nothing() {
        let mut kv = ContiguousKv::new(&mem(1 << 20), 0, 1024).unwrap();
        // Restore at 5 generated tokens: prompt 100 + 5 live, 140 reserved.
        let mut lease = kv.try_restore(100, 40, 5).unwrap();
        assert_eq!((lease.tokens(), lease.held()), (105, 140));
        assert_eq!(kv.allocated(), 140 * 1024);
        kv.grow(&mut lease).unwrap();
        kv.release(lease);
        assert_eq!(kv.allocated(), 0);
        // A restore that cannot even admit leaves the state untouched.
        let _held = kv.try_admit(900, 100).unwrap();
        let before = kv.allocated();
        assert!(kv.try_restore(100, 40, 5).is_err());
        assert_eq!(kv.allocated(), before);
    }

    #[test]
    fn paged_restore_rolls_back_when_the_pool_runs_dry() {
        // A paged pool of two 16-token blocks, both held by a resident
        // 21-token lease: a restore that cannot get its blocks leaves the
        // pool as it was. (`paged.rs` tests a restore that runs dry midway.)
        let m = LlmConfig::paper_section_3_4(50257);
        let per_token = KvAdmissionConfig::paged().kv_bytes_per_token(&m, DType::F32);
        let cap = 40 * per_token;
        let mut kv = PagedKv::new(&mem(cap), 0, per_token, 16).unwrap();
        let _held = kv.try_admit(20, 4).unwrap();
        let (before, free) = (kv.allocated(), kv.free_blocks());
        // Restoring 100 prompt + 30 generated needs far more than a block.
        assert!(kv.try_restore(100, 40, 30).is_err());
        assert_eq!(kv.allocated(), before, "partial restore must roll back");
        assert_eq!(kv.free_blocks(), free);
        assert!(kv.peak() <= kv.capacity());
    }

    #[test]
    fn paged_config_validates_block_size() {
        let (model, dtype) = (LlmConfig::tiny(97), DType::F32);
        assert!(KvAdmissionConfig::Paged { block_tokens: 0 }
            .validate(&model, dtype)
            .is_err());
        assert!(KvAdmissionConfig::paged().validate(&model, dtype).is_ok());
        assert!(KvAdmissionConfig::Contiguous
            .validate(&model, dtype)
            .is_ok());
    }
}
