//! Memory-dependence prediction (store sets, Chrysos & Emer) — paper §3.2.1.
//!
//! When a load (or an RFP request acting as the load's proxy) finds an older
//! store with an *unresolved* address, the Memory Disambiguation predictor
//! decides whether to wait for the store or speculate past it. Mispeculating
//! (the store later turns out to alias) costs a pipeline flush. We implement
//! the store-set structure: an SSIT mapping PCs to store-set IDs and an LFST
//! tracking the last in-flight store of each set.

use rfp_types::{Pc, SeqNum};

/// Store Set ID Table entries (PC-indexed, loads and stores share it).
const SSIT_ENTRIES: usize = 2048;
/// Maximum distinct store sets (LFST entries).
const LFST_ENTRIES: usize = 128;

/// A store-set identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreSetId(u16);

/// Store-set memory dependence predictor.
///
/// # Examples
///
/// ```
/// use rfp_predictors::StoreSets;
/// use rfp_types::{Pc, SeqNum};
///
/// let mut md = StoreSets::new();
/// let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
/// assert!(md.predicted_store_dependence(ld).is_none()); // speculate freely
/// md.record_violation(ld, st);                           // load was wrong once
/// // Now, with the store in flight, the load is told to wait for it.
/// md.store_dispatched(st, SeqNum::new(7));
/// assert_eq!(md.predicted_store_dependence(ld), Some(SeqNum::new(7)));
/// ```
#[derive(Debug, Clone)]
pub struct StoreSets {
    /// PC -> store set id (u16::MAX = invalid).
    ssit: Vec<u16>,
    /// set id -> last fetched store in that set still in flight.
    lfst: Vec<Option<SeqNum>>,
    next_set: u16,
    violations: u64,
}

impl Default for StoreSets {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreSets {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        StoreSets {
            ssit: vec![u16::MAX; SSIT_ENTRIES],
            lfst: vec![None; LFST_ENTRIES],
            next_set: 0,
            violations: 0,
        }
    }

    fn index(pc: Pc) -> usize {
        ((pc.raw() >> 2) % SSIT_ENTRIES as u64) as usize
    }

    /// Records a memory-ordering violation between a load and the store
    /// that should have fed it, merging both PCs into one store set.
    pub fn record_violation(&mut self, load_pc: Pc, store_pc: Pc) {
        self.violations += 1;
        let li = Self::index(load_pc);
        let si = Self::index(store_pc);
        let existing = [self.ssit[li], self.ssit[si]]
            .into_iter()
            .find(|&s| s != u16::MAX);
        let set = existing.unwrap_or_else(|| {
            let s = self.next_set;
            self.next_set = (self.next_set + 1) % LFST_ENTRIES as u16;
            s
        });
        self.ssit[li] = set;
        self.ssit[si] = set;
    }

    /// A store in a known set dispatched; remember it as the youngest
    /// in-flight store of that set.
    pub fn store_dispatched(&mut self, store_pc: Pc, seq: SeqNum) {
        let set = self.ssit[Self::index(store_pc)];
        if set != u16::MAX {
            self.lfst[set as usize] = Some(seq);
        }
    }

    /// A store completed (executed/retired); clear it from the LFST if it
    /// is still the recorded youngest.
    pub fn store_completed(&mut self, store_pc: Pc, seq: SeqNum) {
        let set = self.ssit[Self::index(store_pc)];
        if set != u16::MAX && self.lfst[set as usize] == Some(seq) {
            self.lfst[set as usize] = None;
        }
    }

    /// Should this load wait for a specific in-flight store? Returns that
    /// store's sequence number when a dependence is predicted.
    pub fn predicted_store_dependence(&mut self, load_pc: Pc) -> Option<SeqNum> {
        let set = self.ssit[Self::index(load_pc)];
        if set == u16::MAX {
            return None;
        }
        self.lfst[set as usize]
    }

    /// Ordering violations recorded since construction.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Storage bits: SSIT (log2(LFST) bits each) + LFST (seq tags, ~8 B).
    pub fn storage_bits() -> u64 {
        SSIT_ENTRIES as u64 * 7 + LFST_ENTRIES as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_load_speculates() {
        let mut md = StoreSets::new();
        assert!(md.predicted_store_dependence(Pc::new(0x10)).is_none());
    }

    #[test]
    fn violation_links_load_to_inflight_store() {
        let mut md = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        md.record_violation(ld, st);
        md.store_dispatched(st, SeqNum::new(42));
        assert_eq!(md.predicted_store_dependence(ld), Some(SeqNum::new(42)));
    }

    #[test]
    fn completed_store_releases_the_load() {
        let mut md = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        md.record_violation(ld, st);
        md.store_dispatched(st, SeqNum::new(42));
        md.store_completed(st, SeqNum::new(42));
        assert!(md.predicted_store_dependence(ld).is_none());
    }

    #[test]
    fn younger_store_supersedes_older_in_lfst() {
        let mut md = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        md.record_violation(ld, st);
        md.store_dispatched(st, SeqNum::new(10));
        md.store_dispatched(st, SeqNum::new(20));
        // Completing the *older* instance must not clear the younger.
        md.store_completed(st, SeqNum::new(10));
        assert_eq!(md.predicted_store_dependence(ld), Some(SeqNum::new(20)));
    }

    #[test]
    fn merging_reuses_existing_set() {
        let mut md = StoreSets::new();
        let (ld, st1, st2) = (Pc::new(0x100), Pc::new(0x200), Pc::new(0x300));
        md.record_violation(ld, st1);
        md.record_violation(ld, st2); // st2 joins ld's existing set
        md.store_dispatched(st2, SeqNum::new(5));
        assert_eq!(md.predicted_store_dependence(ld), Some(SeqNum::new(5)));
        assert_eq!(md.violations(), 2);
    }
}
