//! Miss Status Holding Registers.
//!
//! An MSHR file tracks in-flight line fills. A load that misses a cache but
//! finds its line already being fetched merges with the outstanding request
//! — the paper's Fig. 2 reports these as "MSHR hits". A full MSHR file adds
//! back-pressure: new misses queue behind the oldest outstanding fill.

use std::collections::HashMap;

use rfp_types::{Addr, Cycle};

/// Outcome of registering a miss with an [`MshrFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// The line was already being fetched; data arrives at the given cycle.
    Merged(Cycle),
    /// A new entry was allocated; the fill completes at the given cycle.
    Allocated(Cycle),
    /// The file was full; the request was delayed behind the oldest entry
    /// and completes at the given cycle.
    Delayed(Cycle),
}

impl MshrOutcome {
    /// The cycle at which the requested data is available.
    pub fn complete_at(self) -> Cycle {
        match self {
            MshrOutcome::Merged(c) | MshrOutcome::Allocated(c) | MshrOutcome::Delayed(c) => c,
        }
    }

    /// True when the request merged with an existing in-flight fill.
    pub fn is_merge(self) -> bool {
        matches!(self, MshrOutcome::Merged(_))
    }
}

/// A bounded file of in-flight line fills, keyed by line address.
///
/// # Examples
///
/// ```
/// use rfp_mem::{MshrFile, MshrOutcome};
/// use rfp_types::Addr;
///
/// let mut m = MshrFile::new(2);
/// let a = m.request(Addr::new(0x40), 10, 100);
/// assert_eq!(a, MshrOutcome::Allocated(110));
/// // Same line while in flight: merge, same completion.
/// assert_eq!(m.request(Addr::new(0x44), 20, 100), MshrOutcome::Merged(110));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// line number -> completion cycle
    inflight: HashMap<u64, Cycle>,
    merges: u64,
    delays: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            capacity,
            inflight: HashMap::new(),
            merges: 0,
            delays: 0,
        }
    }

    /// Registers a miss for the line containing `addr` at cycle `now`, with
    /// a fill that would otherwise take `fill_latency` cycles.
    pub fn request(&mut self, addr: Addr, now: Cycle, fill_latency: Cycle) -> MshrOutcome {
        self.expire(now);
        let line = addr.line_number();
        if let Some(&done) = self.inflight.get(&line) {
            self.merges += 1;
            return MshrOutcome::Merged(done);
        }
        if self.inflight.len() >= self.capacity {
            // Queue behind the oldest outstanding fill.
            let oldest = self
                .inflight
                .values()
                .copied()
                .min()
                .expect("file is non-empty when full");
            let done = oldest + fill_latency;
            self.inflight.insert(line, done);
            self.delays += 1;
            return MshrOutcome::Delayed(done);
        }
        let done = now + fill_latency;
        self.inflight.insert(line, done);
        MshrOutcome::Allocated(done)
    }

    /// Returns the completion cycle of an in-flight fill of `addr`'s line,
    /// if one exists at cycle `now`.
    pub fn lookup(&mut self, addr: Addr, now: Cycle) -> Option<Cycle> {
        self.expire(now);
        self.inflight.get(&addr.line_number()).copied()
    }

    /// Number of live entries at cycle `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.expire(now);
        self.inflight.len()
    }

    /// Total merged (secondary-miss) requests.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total requests delayed by a full file.
    pub fn delays(&self) -> u64 {
        self.delays
    }

    /// Discards every in-flight fill. Entry completion times are absolute
    /// cycles, so a warmed file transplanted into a core whose clock
    /// restarts at zero would otherwise report its entries "in flight" for
    /// the donor's entire elapsed time — checkpoint-style warmup
    /// (`rfp-core`'s transplant path) clears them instead.
    pub fn clear_in_flight(&mut self) {
        self.inflight.clear();
    }

    fn expire(&mut self, now: Cycle) {
        self.inflight.retain(|_, done| *done > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_expire_after_completion() {
        let mut m = MshrFile::new(4);
        m.request(Addr::new(0), 0, 50);
        assert!(m.lookup(Addr::new(0), 10).is_some());
        assert!(m.lookup(Addr::new(0), 50).is_none());
    }

    #[test]
    fn full_file_delays_new_misses() {
        let mut m = MshrFile::new(1);
        let a = m.request(Addr::new(0), 0, 100);
        assert_eq!(a, MshrOutcome::Allocated(100));
        let b = m.request(Addr::new(0x1000), 0, 100);
        assert_eq!(b, MshrOutcome::Delayed(200));
        assert_eq!(m.delays(), 1);
    }

    #[test]
    fn merge_counts_and_shares_completion() {
        let mut m = MshrFile::new(4);
        let a = m.request(Addr::new(0x80), 5, 40);
        let b = m.request(Addr::new(0xbf), 9, 40); // same line
        assert_eq!(b.complete_at(), a.complete_at());
        assert!(b.is_merge());
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn occupancy_tracks_live_entries() {
        let mut m = MshrFile::new(8);
        m.request(Addr::new(0), 0, 10);
        m.request(Addr::new(0x40), 0, 20);
        assert_eq!(m.occupancy(5), 2);
        assert_eq!(m.occupancy(15), 1);
        assert_eq!(m.occupancy(25), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
