//! Per-engine availability tracking for the compiler's scheduler: an
//! operation scheduled on an engine starts no earlier than both its
//! dependencies and the engine's previous work.

use crate::engine::EngineId;

/// Per-engine availability tracker.
///
/// A plan touches a handful of lanes (MME, TPC, one DMA channel, the
/// host, the NIC), so each lane's free-at time sits in a short table
/// scanned linearly; a lane gets its slot the first time it is reserved.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    free_at: Vec<(EngineId, f64)>,
}

impl Timeline {
    /// Fresh timeline with every engine free at time zero.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// When the engine is next free.
    pub fn free_at(&self, engine: EngineId) -> f64 {
        self.free_at
            .iter()
            .find(|(e, _)| *e == engine)
            .map_or(0.0, |&(_, t)| t)
    }

    /// Reserve the engine for `duration` starting no earlier than
    /// `earliest_start`; returns the actual `(start, end)` interval.
    pub fn reserve(&mut self, engine: EngineId, earliest_start: f64, duration: f64) -> (f64, f64) {
        let slot = match self.free_at.iter().position(|(e, _)| *e == engine) {
            Some(i) => i,
            None => {
                self.free_at.push((engine, 0.0));
                self.free_at.len() - 1
            }
        };
        let start = self.free_at[slot].1.max(earliest_start);
        let end = start + duration;
        self.free_at[slot].1 = end;
        (start, end)
    }

    /// The time at which every engine is idle (overall makespan).
    pub fn makespan(&self) -> f64 {
        self.free_at.iter().map(|&(_, t)| t).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_serializes_same_engine() {
        let mut t = Timeline::new();
        let (s1, e1) = t.reserve(EngineId::Mme, 0.0, 10.0);
        let (s2, e2) = t.reserve(EngineId::Mme, 0.0, 5.0);
        assert_eq!((s1, e1), (0.0, 10.0));
        assert_eq!((s2, e2), (10.0, 15.0));
    }

    #[test]
    fn timeline_engines_are_independent() {
        let mut t = Timeline::new();
        t.reserve(EngineId::Mme, 0.0, 10.0);
        let (s, e) = t.reserve(EngineId::TpcCluster, 0.0, 4.0);
        assert_eq!((s, e), (0.0, 4.0));
        assert_eq!(t.makespan(), 10.0);
    }

    #[test]
    fn timeline_respects_dependencies() {
        let mut t = Timeline::new();
        t.reserve(EngineId::Mme, 0.0, 3.0);
        // Dependency ready at 8 -> starts at 8 even though engine free at 3.
        let (s, _) = t.reserve(EngineId::Mme, 8.0, 1.0);
        assert_eq!(s, 8.0);
    }
}
