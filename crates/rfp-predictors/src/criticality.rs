//! Load-criticality estimation — the paper's future-work direction (§5.1).
//!
//! The paper observes that "some prefetches are more critical for
//! performance and not all prefetches have a high impact", pointing at
//! FVP-/CATCH-style criticality learning as future work for RFP. This
//! module implements the natural estimator: a load PC is *critical* when
//! its instances are repeatedly found blocking retirement at the head of
//! the ROB. Saturating per-PC counters with periodic decay keep the
//! classification adaptive.

use rfp_types::Pc;

/// Tracked static loads.
const TABLE_ENTRIES: usize = 1024;
/// Counter ceiling.
const MAX: u8 = 15;
/// Trainings between global decay passes.
const DECAY_PERIOD: u64 = 4096;

/// Per-PC retirement-blocking criticality estimator.
///
/// # Examples
///
/// ```
/// use rfp_predictors::CriticalityTable;
/// use rfp_types::Pc;
///
/// let mut ct = CriticalityTable::new(4);
/// let hot = Pc::new(0x400100);
/// for _ in 0..8 {
///     ct.record_head_stall(hot);
/// }
/// assert!(ct.is_critical(hot));
/// assert!(!ct.is_critical(Pc::new(0x400200)));
/// ```
#[derive(Debug, Clone)]
pub struct CriticalityTable {
    counters: Vec<u8>,
    threshold: u8,
    events: u64,
}

impl CriticalityTable {
    /// Creates a table classifying PCs with at least `threshold` recent
    /// head-of-ROB stalls as critical.
    pub fn new(threshold: u8) -> Self {
        CriticalityTable {
            counters: vec![0; TABLE_ENTRIES],
            threshold,
            events: 0,
        }
    }

    fn index(pc: Pc) -> usize {
        ((pc.raw() >> 2) % TABLE_ENTRIES as u64) as usize
    }

    /// Records that a dynamic instance of `pc` was blocking retirement at
    /// the head of the ROB this cycle.
    pub fn record_head_stall(&mut self, pc: Pc) {
        let c = &mut self.counters[Self::index(pc)];
        *c = (*c + 1).min(MAX);
        self.events += 1;
        if self.events.is_multiple_of(DECAY_PERIOD) {
            for c in &mut self.counters {
                *c /= 2;
            }
        }
    }

    /// Whether `pc` is currently classified as critical.
    pub fn is_critical(&self, pc: Pc) -> bool {
        self.counters[Self::index(pc)] >= self.threshold
    }

    /// Head-stall events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Storage bits (4-bit counters).
    pub fn storage_bits() -> u64 {
        TABLE_ENTRIES as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criticality_requires_repeated_stalls() {
        let mut ct = CriticalityTable::new(4);
        let pc = Pc::new(0x100);
        for _ in 0..3 {
            ct.record_head_stall(pc);
        }
        assert!(!ct.is_critical(pc));
        ct.record_head_stall(pc);
        assert!(ct.is_critical(pc));
    }

    #[test]
    fn decay_forgets_stale_criticality() {
        let mut ct = CriticalityTable::new(8);
        let pc = Pc::new(0x200);
        for _ in 0..MAX as u64 {
            ct.record_head_stall(pc);
        }
        assert!(ct.is_critical(pc));
        // Push enough unrelated events to trigger several decay passes.
        let other = Pc::new(0x97531);
        for _ in 0..3 * DECAY_PERIOD {
            ct.record_head_stall(other);
        }
        assert!(!ct.is_critical(pc), "stale criticality must decay away");
    }

    #[test]
    fn counters_saturate() {
        let mut ct = CriticalityTable::new(1);
        let pc = Pc::new(0x300);
        for _ in 0..100 {
            ct.record_head_stall(pc);
        }
        assert!(ct.is_critical(pc));
    }
}
