//! Bucketed calendar queue for the core's timed-event loop.
//!
//! The simulator advances one cycle at a time and only ever asks for
//! events due *now*, so a general priority queue (`BinaryHeap`, `O(log n)`
//! per operation plus poor locality) is overkill. [`CalendarQueue`] keeps
//! a ring of per-cycle buckets covering the next `horizon` cycles: a push
//! within the horizon is a `Vec::push` into its cycle's bucket, and the
//! per-cycle drain is a linear walk of one bucket — both `O(1)` amortized.
//! The rare event beyond the horizon (longer than any memory round trip)
//! spills into a small fallback heap and migrates into a bucket once its
//! cycle comes within range.
//!
//! Ordering matches the `BinaryHeap` event queue it replaces exactly:
//! earliest cycle first, FIFO among events scheduled for the same cycle —
//! so swapping the implementations cannot perturb simulation results.

use std::collections::BinaryHeap;

use rfp_types::Cycle;

/// An event parked in the overflow heap, ordered earliest-first with
/// push-order (FIFO) tie-breaking.
#[derive(Debug, Clone, Copy)]
struct SpillEntry<T> {
    at: Cycle,
    order: u64,
    item: T,
}

impl<T> PartialEq for SpillEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.order == other.order
    }
}

impl<T> Eq for SpillEntry<T> {}

impl<T> Ord for SpillEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.order.cmp(&self.order))
    }
}

impl<T> PartialOrd for SpillEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A calendar queue of `(cycle, payload)` events.
///
/// Pops are driven by [`CalendarQueue::pop_due`], which never returns an
/// event scheduled after the caller-supplied `now` — mirroring how the
/// core drains its event heap at the top of every cycle.
///
/// # Examples
///
/// ```
/// use rfp_core::CalendarQueue;
///
/// let mut q = CalendarQueue::new();
/// q.push(30, "c");
/// q.push(10, "a");
/// q.push(10, "b");
/// assert_eq!(q.pop_due(9), None);
/// assert_eq!(q.pop_due(10), Some((10, "a")));
/// assert_eq!(q.pop_due(10), Some((10, "b")));
/// assert_eq!(q.pop_due(10), None);
/// assert_eq!(q.pop_due(30), Some((30, "c")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// Ring of per-cycle buckets; bucket `at % horizon` holds the events
    /// for the next occurrence of that residue at or after `cursor`.
    buckets: Vec<Vec<T>>,
    /// Read position within the bucket currently being drained (entries
    /// before it have been popped; the bucket is cleared when exhausted).
    bucket_pos: usize,
    /// Events scheduled at or beyond `cursor + horizon`.
    spill: BinaryHeap<SpillEntry<T>>,
    /// All events strictly before this cycle have been popped.
    cursor: Cycle,
    /// Monotone push counter; orders spill entries FIFO within a cycle.
    order: u64,
    /// Total undelivered events.
    len: usize,
}

/// Default bucket-ring span in cycles. Must comfortably exceed the
/// longest event latency the core schedules (a DRAM round trip plus
/// queueing, a few hundred cycles) so the spill heap stays cold.
const DEFAULT_HORIZON: usize = 1024;

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates a queue with the default horizon.
    pub fn new() -> Self {
        Self::with_horizon(DEFAULT_HORIZON)
    }

    /// Creates a queue whose bucket ring spans `horizon` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn with_horizon(horizon: usize) -> Self {
        assert!(horizon > 0, "calendar queue needs at least one bucket");
        CalendarQueue {
            buckets: (0..horizon).map(|_| Vec::new()).collect(),
            bucket_pos: 0,
            spill: BinaryHeap::new(),
            cursor: 0,
            order: 0,
            len: 0,
        }
    }

    /// Undelivered events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn horizon(&self) -> u64 {
        self.buckets.len() as u64
    }

    fn bucket_index(&self, at: Cycle) -> usize {
        (at % self.horizon()) as usize
    }

    /// Schedules `item` at cycle `at`.
    ///
    /// Events are delivered earliest-cycle-first and FIFO within a cycle.
    /// An `at` earlier than the drain cursor (the core never produces
    /// one: every event is scheduled strictly in the future) is clamped
    /// forward to the cursor so it still delivers.
    pub fn push(&mut self, at: Cycle, item: T) {
        debug_assert!(
            at >= self.cursor,
            "event scheduled at {at} behind the drain cursor {}",
            self.cursor
        );
        let at = at.max(self.cursor);
        self.order += 1;
        self.len += 1;
        if at - self.cursor < self.horizon() {
            let idx = self.bucket_index(at);
            self.buckets[idx].push(item);
        } else {
            self.spill.push(SpillEntry {
                at,
                order: self.order,
                item,
            });
        }
    }

    /// Moves spill events that have come within the horizon into their
    /// buckets. Called on every cursor advance, so any bucket receives
    /// its migrated (older-order) events before any later direct push —
    /// preserving global FIFO order within each cycle.
    fn migrate_spill(&mut self) {
        while let Some(top) = self.spill.peek() {
            if top.at - self.cursor >= self.horizon() {
                break;
            }
            let e = self.spill.pop().expect("peeked");
            let idx = self.bucket_index(e.at);
            self.buckets[idx].push(e.item);
        }
    }
}

// Events are copied out of their bucket on delivery; the core's
// `EventKind` payload is two words, so this is the cheap path.
impl<T: Copy> CalendarQueue<T> {
    /// Delivers the next event scheduled at or before `now`, or `None`
    /// when nothing (further) is due yet.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.len == 0 {
            // Fast-forward an empty queue so a long quiet stretch doesn't
            // force a cycle-by-cycle cursor walk later.
            if self.cursor <= now {
                let idx = self.bucket_index(self.cursor);
                self.buckets[idx].clear();
                self.bucket_pos = 0;
                self.cursor = now + 1;
            }
            return None;
        }
        while self.cursor <= now {
            let idx = self.bucket_index(self.cursor);
            if self.bucket_pos < self.buckets[idx].len() {
                let item = self.buckets[idx][self.bucket_pos];
                self.bucket_pos += 1;
                self.len -= 1;
                return Some((self.cursor, item));
            }
            self.buckets[idx].clear();
            self.bucket_pos = 0;
            self.cursor += 1;
            self.migrate_spill();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_earliest_first_with_fifo_ties() {
        let mut q = CalendarQueue::new();
        q.push(30, 1u32);
        q.push(10, 2);
        q.push(10, 3);
        q.push(20, 4);
        let mut out = Vec::new();
        for now in 0..=30 {
            while let Some(e) = q.pop_due(now) {
                out.push(e);
            }
        }
        assert_eq!(out, vec![(10, 2), (10, 3), (20, 4), (30, 1)]);
    }

    #[test]
    fn never_delivers_future_events() {
        let mut q = CalendarQueue::new();
        q.push(5, ());
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some((5, ())));
    }

    #[test]
    fn events_beyond_horizon_spill_and_return() {
        let mut q = CalendarQueue::with_horizon(8);
        q.push(3, "near");
        q.push(1000, "far");
        q.push(1000, "far2");
        q.push(20, "mid");
        assert_eq!(q.pop_due(3), Some((3, "near")));
        assert_eq!(q.pop_due(19), None);
        assert_eq!(q.pop_due(20), Some((20, "mid")));
        assert_eq!(q.pop_due(999), None);
        assert_eq!(q.pop_due(1000), Some((1000, "far")));
        assert_eq!(q.pop_due(1000), Some((1000, "far2")));
        assert!(q.is_empty());
    }

    #[test]
    fn spill_migration_keeps_fifo_with_direct_pushes() {
        let mut q = CalendarQueue::with_horizon(4);
        // Pushed while 10 is beyond the horizon: goes to the spill heap.
        q.push(10, "spilled");
        // Drain to cycle 8; 10 is now within the horizon and migrates.
        assert_eq!(q.pop_due(8), None);
        // Direct push for the same cycle must land *after* the migrant.
        q.push(10, "direct");
        assert_eq!(q.pop_due(10), Some((10, "spilled")));
        assert_eq!(q.pop_due(10), Some((10, "direct")));
    }

    #[test]
    fn empty_queue_fast_forwards_without_degrading() {
        let mut q = CalendarQueue::with_horizon(16);
        assert_eq!(q.pop_due(1_000_000), None);
        // A push right after the quiet stretch must use a bucket, not
        // walk the cursor a million steps.
        q.push(1_000_005, 7u8);
        assert_eq!(q.pop_due(1_000_004), None);
        assert_eq!(q.pop_due(1_000_005), Some((1_000_005, 7)));
    }

    #[test]
    fn matches_reference_heap_on_mixed_workload() {
        // Reference: (at, order)-sorted pops from a BinaryHeap, exactly
        // the structure the core used to use.
        #[derive(PartialEq, Eq)]
        struct Ref {
            at: Cycle,
            order: u64,
            item: u32,
        }
        impl Ord for Ref {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                o.at.cmp(&self.at).then_with(|| o.order.cmp(&self.order))
            }
        }
        impl PartialOrd for Ref {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }

        let mut heap = BinaryHeap::new();
        let mut q = CalendarQueue::with_horizon(32);
        let mut order = 0u64;
        // Deterministic pseudo-random schedule: bursty pushes with
        // latencies straddling the horizon, drained cycle by cycle.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut item = 0u32;
        for now in 0..600u64 {
            for _ in 0..(rng() % 4) {
                let delta = 1 + rng() % 90; // up to ~3x the horizon
                order += 1;
                item += 1;
                heap.push(Ref {
                    at: now + delta,
                    order,
                    item,
                });
                q.push(now + delta, item);
            }
            loop {
                let due = heap.peek().is_some_and(|e| e.at <= now);
                let expect = if due {
                    heap.pop().map(|e| (e.at, e.item))
                } else {
                    None
                };
                let got = q.pop_due(now);
                assert_eq!(got, expect, "diverged at cycle {now}");
                if got.is_none() {
                    break;
                }
            }
        }
        assert_eq!(q.len(), heap.len());
    }
}
