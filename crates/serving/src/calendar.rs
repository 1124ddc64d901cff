//! Indexed event calendar: where the serving engine's dispatcher keeps
//! re-queued and parked jobs (fresh arrivals stream from the sorted trace).
//!
//! The PR-5 engine kept pending dispatches in a
//! `BTreeMap<(u64, u64), Job>` and popped the first entry each loop
//! iteration. That is O(log n) too, but with heavy constants (pointer-chasing
//! node allocations, one allocation per insert) and — more importantly — it
//! offers no cheap way to *peek* the next deadline without materializing an
//! iterator. The calendar replaces it with a binary min-heap keyed
//! `(time, seq)`, the classic discrete-event-simulation structure: push and
//! pop are O(log n) on a flat `Vec`, peek is O(1), and a million in-flight
//! events fit in one contiguous allocation.
//!
//! **Ordering contract.** Keys must be unique across live entries (the
//! engine keys by `(submitted_us, request id)`, and a job is popped before
//! it can be re-inserted, so uniqueness holds by construction). Under that
//! contract the heap pops in exactly ascending key order — byte-identical
//! to iterating the old `BTreeMap` — which is what lets the golden tests in
//! `tests/golden_report.rs` pin the refactor to bit-for-bit equivalence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One calendar entry: a `(time, seq)` key and its payload. Ordering looks
/// at the key only, so the payload needs no `Ord`.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: (u64, u64),
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the calendar pops min first.
        other.key.cmp(&self.key)
    }
}

/// A min-ordered event calendar keyed `(time, seq)`.
///
/// `time` is whatever integer clock the caller uses (the serving engine
/// uses microseconds); `seq` breaks ties deterministically (the engine uses
/// the request id). See the module docs for the key-uniqueness contract.
#[derive(Debug, Clone)]
pub struct EventCalendar<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> EventCalendar<T> {
    /// An empty calendar.
    pub fn new() -> Self {
        EventCalendar {
            heap: BinaryHeap::new(),
        }
    }

    /// An empty calendar with room for `n` events before reallocating —
    /// use when the event count is known up front (e.g. one per request).
    pub fn with_capacity(n: usize) -> Self {
        EventCalendar {
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Schedule `payload` at `(time, seq)`.
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        self.heap.push(Entry {
            key: (time, seq),
            payload,
        });
    }

    /// The earliest key, without removing it.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|e| e.key)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<((u64, u64), T)> {
        self.heap.pop().map(|e| (e.key, e.payload))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventCalendar<T> {
    fn default() -> Self {
        EventCalendar::new()
    }
}

impl<T> FromIterator<((u64, u64), T)> for EventCalendar<T> {
    fn from_iter<I: IntoIterator<Item = ((u64, u64), T)>>(iter: I) -> Self {
        let mut cal = EventCalendar::new();
        for ((time, seq), payload) in iter {
            cal.push(time, seq, payload);
        }
        cal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn pops_in_ascending_key_order() {
        let mut cal = EventCalendar::new();
        cal.push(30, 1, "c");
        cal.push(10, 2, "a");
        cal.push(10, 7, "b");
        cal.push(50, 0, "d");
        assert_eq!(cal.peek_key(), Some((10, 2)));
        assert_eq!(cal.pop(), Some(((10, 2), "a")));
        assert_eq!(cal.pop(), Some(((10, 7), "b")));
        assert_eq!(cal.pop(), Some(((30, 1), "c")));
        assert_eq!(cal.pop(), Some(((50, 0), "d")));
        assert_eq!(cal.pop(), None);
        assert!(cal.is_empty());
    }

    #[test]
    fn matches_btreemap_on_a_seeded_bulk_load() {
        let mut state = 0xC0FF_EE42u64;
        let mut cal = EventCalendar::with_capacity(10_000);
        let mut tree: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for seq in 0..10_000u64 {
            let t = splitmix(&mut state) % 1_000_000;
            let v = splitmix(&mut state);
            cal.push(t, seq, v);
            tree.insert((t, seq), v);
        }
        assert_eq!(cal.len(), tree.len());
        for (key, value) in tree {
            assert_eq!(cal.pop(), Some((key, value)));
        }
        assert!(cal.pop().is_none());
    }

    #[test]
    fn matches_btreemap_under_interleaved_push_and_pop() {
        // The engine's actual access pattern: pop the earliest event, maybe
        // re-schedule work later (strictly later key — uniqueness holds).
        let mut state = 7u64;
        let mut cal = EventCalendar::new();
        let mut tree: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        for round in 0..5_000 {
            if round % 3 != 2 || tree.is_empty() {
                let t = splitmix(&mut state) % 100_000;
                tree.insert((t, seq), seq);
                cal.push(t, seq, seq);
                seq += 1;
            } else {
                let first = *tree.keys().next().unwrap();
                let expect = tree.remove(&first).unwrap();
                assert_eq!(cal.pop(), Some((first, expect)));
                if expect.is_multiple_of(2) {
                    // Requeue with a bumped time, like a parked retry.
                    let t = first.0 + 1 + splitmix(&mut state) % 1_000;
                    tree.insert((t, seq), seq);
                    cal.push(t, seq, seq);
                    seq += 1;
                }
            }
        }
        while let Some((key, value)) = cal.pop() {
            assert_eq!(tree.remove(&key), Some(value));
        }
        assert!(tree.is_empty());
    }

    #[test]
    fn from_iterator_collects_and_orders() {
        let cal: EventCalendar<usize> = [((5, 0), 50usize), ((1, 1), 10), ((3, 0), 30)]
            .into_iter()
            .collect();
        assert_eq!(cal.len(), 3);
        let order: Vec<usize> = std::iter::from_fn({
            let mut c = cal;
            move || c.pop().map(|(_, v)| v)
        })
        .collect();
        assert_eq!(order, vec![10, 30, 50]);
    }
}
