//! Memory-system model: HBM capacity accounting and DMA transfer timing.
//!
//! The paper notes (§3.4) that "due to limited GAUDI memory" the end-to-end
//! LLM runs had to shrink the batch size to 8 at sequence length 2048. The
//! capacity tracker lets the reproduction make the same check, and the DMA
//! model times the engine-to-engine tensor movements visible as the DMA lane
//! in Figures 4–9.

use crate::config::MemoryConfig;

/// DMA transfer timing.
#[derive(Debug, Clone)]
pub struct DmaModel {
    cfg: MemoryConfig,
}

impl DmaModel {
    /// Build a model from a configuration.
    pub fn new(cfg: MemoryConfig) -> Self {
        DmaModel { cfg }
    }

    /// Time to move `bytes` between engines through shared memory, ns.
    pub fn transfer_time_ns(&self, bytes: u64) -> f64 {
        // GB/s == bytes/ns.
        bytes as f64 / self.cfg.dma_bandwidth_gbps + self.cfg.dma_latency_ns
    }
}

/// Tracks simulated HBM allocations against the 32 GB device capacity.
#[derive(Debug, Clone)]
pub struct HbmTracker {
    capacity: u64,
    allocated: u64,
    peak: u64,
}

/// Error returned when an allocation exceeds device memory — the condition
/// that forced the paper's batch-size-8 LLM configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failing allocation — the caller's actual
    /// ask, never inflated by allocator-internal reserves.
    pub requested: u64,
    /// Bytes still free at the time of the request.
    pub available: u64,
    /// Bytes the allocator held back on top of the request (e.g. a paged
    /// pool's growth watermark for already-admitted sequences). Zero for
    /// plain capacity trackers. Operators sizing a device from this error
    /// need `requested + held_back - available` more bytes.
    pub held_back: u64,
}

impl OutOfMemory {
    /// An over-capacity request with no allocator-internal reserve.
    pub fn new(requested: u64, available: u64) -> Self {
        OutOfMemory {
            requested,
            available,
            held_back: 0,
        }
    }
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} MiB, only {} MiB free",
            self.requested >> 20,
            self.available >> 20
        )?;
        if self.held_back > 0 {
            write!(
                f,
                " ({} KiB held back as growth watermark)",
                self.held_back >> 10
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for OutOfMemory {}

impl HbmTracker {
    /// Tracker for a device with the given configuration.
    pub fn new(cfg: &MemoryConfig) -> Self {
        HbmTracker {
            capacity: cfg.hbm_capacity_bytes,
            allocated: 0,
            peak: 0,
        }
    }

    /// Attempt to allocate `bytes`; fails like the real allocator would.
    pub fn allocate(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        let available = self.capacity - self.allocated;
        if bytes > available {
            return Err(OutOfMemory::new(bytes, available));
        }
        self.allocated += bytes;
        self.peak = self.peak.max(self.allocated);
        Ok(())
    }

    /// Release `bytes`.
    ///
    /// Freeing more than is allocated is a caller accounting bug: it
    /// panics in debug builds and saturates to zero in release builds
    /// rather than wrapping. Callers must bound what they free — the
    /// serving `ContiguousKv` frees only what the released request's
    /// lease says it reserved.
    pub fn free(&mut self, bytes: u64) {
        debug_assert!(
            bytes <= self.allocated,
            "HBM underflow: freeing {bytes} B with only {} B allocated",
            self.allocated
        );
        self.allocated = self.allocated.saturating_sub(bytes);
    }

    /// Currently allocated bytes.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// High-water mark of the allocation history.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_time_has_latency_floor() {
        let d = DmaModel::new(MemoryConfig::default());
        let t0 = d.transfer_time_ns(0);
        assert_eq!(t0, MemoryConfig::default().dma_latency_ns);
        // 1 GB at 1000 GB/s = 1 ms + latency.
        let t = d.transfer_time_ns(1 << 30);
        assert!((t - (1.073_741_824e6 + 2000.0)).abs() < 1.0);
    }

    #[test]
    fn hbm_allocates_and_frees() {
        let mut h = HbmTracker::new(&MemoryConfig::default());
        h.allocate(16 << 30).unwrap();
        assert_eq!(h.allocated(), 16 << 30);
        h.free(8 << 30);
        assert_eq!(h.allocated(), 8 << 30);
        assert_eq!(h.peak(), 16 << 30);
    }

    #[test]
    fn hbm_rejects_oversubscription() {
        let mut h = HbmTracker::new(&MemoryConfig::default());
        h.allocate(30 << 30).unwrap();
        let err = h.allocate(4 << 30).unwrap_err();
        assert_eq!(err.requested, 4 << 30);
        assert_eq!(err.available, 2 << 30);
        // State unchanged after a failed allocation.
        assert_eq!(h.allocated(), 30 << 30);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "HBM underflow")]
    fn free_underflow_is_a_debug_assertion() {
        // Regression: `free` used to saturate silently, so a double free
        // ate into someone else's reservation without a trace.
        let mut h = HbmTracker::new(&MemoryConfig::default());
        h.allocate(1024).unwrap();
        h.free(1 << 30);
    }

    #[test]
    fn free_of_exactly_the_allocation_is_fine() {
        let mut h = HbmTracker::new(&MemoryConfig::default());
        h.allocate(1024).unwrap();
        h.free(1024);
        assert_eq!(h.allocated(), 0);
        assert_eq!(h.peak(), 1024);
    }
}
