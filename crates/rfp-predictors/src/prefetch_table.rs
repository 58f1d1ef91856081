//! The RFP Prefetch Table (PT) — paper §3.1 and §3.5.
//!
//! A static-load-PC-indexed, 8-way set-associative stride table. It is
//! trained at load *retirement* (which simplifies stride detection), and
//! consulted at load *allocation* to decide whether to launch a register
//! file prefetch. Each entry holds a tag, a (configurably narrow)
//! confidence counter incremented *probabilistically* (1/16) on stride
//! repeats, a 2-bit utility counter driving replacement, the stride, a
//! 7-bit in-flight instance counter, and the last retired address — stored
//! either in full or compressed through the [`PageAddrTable`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfp_types::{Addr, ConfigError, Pc};

use crate::pat::{PageAddrTable, PatPointer, PAT_POINTER_BITS};

/// Configuration of the Prefetch Table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchTableConfig {
    /// Total entries (paper default: 1024; Fig. 18 sweeps 1K–16K).
    pub entries: usize,
    /// Associativity (paper: 8).
    pub ways: usize,
    /// Width of the confidence counter (paper default: 1; Fig. 17 sweeps
    /// 1–4).
    pub confidence_bits: u8,
    /// Probability of incrementing confidence on a stride repeat (paper:
    /// 1/16).
    pub confidence_increment_prob: f64,
    /// Compress stored addresses through the Page Address Table (§3.5).
    pub use_pat: bool,
    /// Width of the stored stride field (Table 1: 5 bits at 8-byte
    /// granularity, covering ±128 B). Strides outside the representable
    /// range can never arm the entry.
    pub stride_bits: u8,
    /// RNG seed for the probabilistic confidence updates.
    pub seed: u64,
}

impl Default for PrefetchTableConfig {
    fn default() -> Self {
        PrefetchTableConfig {
            entries: 1024,
            ways: 8,
            confidence_bits: 1,
            confidence_increment_prob: 1.0 / 16.0,
            use_pat: true,
            stride_bits: 5,
            seed: 0xf00d,
        }
    }
}

impl PrefetchTableConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on zero sizes, non-dividing associativity
    /// or out-of-range probability/width.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 || self.ways == 0 {
            return Err(ConfigError::new(
                "prefetch_table",
                "entries/ways must be nonzero",
            ));
        }
        if !self.entries.is_multiple_of(self.ways) {
            return Err(ConfigError::new(
                "prefetch_table",
                "entries must divide by ways",
            ));
        }
        if self.confidence_bits == 0 || self.confidence_bits > 8 {
            return Err(ConfigError::new("confidence_bits", "must be in 1..=8"));
        }
        if self.stride_bits == 0 || self.stride_bits > 16 {
            return Err(ConfigError::new("stride_bits", "must be in 1..=16"));
        }
        if !(0.0..=1.0).contains(&self.confidence_increment_prob) {
            return Err(ConfigError::new(
                "confidence_increment_prob",
                "must be within [0, 1]",
            ));
        }
        Ok(())
    }
}

/// Bits per entry and total storage (Table 1 reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtStorage {
    /// Tag bits per entry.
    pub tag_bits: u64,
    /// Confidence bits per entry.
    pub confidence_bits: u64,
    /// Utility bits per entry.
    pub utility_bits: u64,
    /// Stride bits per entry.
    pub stride_bits: u64,
    /// In-flight counter bits per entry.
    pub inflight_bits: u64,
    /// Address bits per entry (PAT pointer + offset, or full address).
    pub address_bits: u64,
    /// Number of entries.
    pub entries: u64,
}

impl PtStorage {
    /// Bits per entry.
    pub fn entry_bits(&self) -> u64 {
        self.tag_bits
            + self.confidence_bits
            + self.utility_bits
            + self.stride_bits
            + self.inflight_bits
            + self.address_bits
    }

    /// Total table bits.
    pub fn total_bits(&self) -> u64 {
        self.entry_bits() * self.entries
    }

    /// Total table size in KiB (rounded to one decimal as the paper
    /// presents it).
    pub fn total_kib(&self) -> f64 {
        self.total_bits() as f64 / 8.0 / 1024.0
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PtEntry {
    valid: bool,
    tag: u64,
    confidence: u8,
    utility: u8,
    stride: i64,
    inflight: u8,
    /// The entry has seen at least one retirement (last_addr is real).
    has_addr: bool,
    /// Last retired address: full form (always kept for simulation; when
    /// `use_pat` the *reconstruction* goes through the PAT instead).
    last_addr: Addr,
    pat_ptr: Option<PatPointer>,
    page_offset: u64,
    lru: u64,
}

/// Decision returned at load allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtDecision {
    /// No entry / not yet confident: no prefetch.
    NoPrefetch,
    /// Launch an RFP to the given predicted address.
    Prefetch(Addr),
}

/// Why [`PrefetchTable::on_allocate`] returned
/// [`PtDecision::NoPrefetch`] — a read-only diagnosis for per-site
/// attribution ([`PrefetchTable::miss_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtMissKind {
    /// No trained entry for this PC (never seen, evicted, or allocated
    /// but not yet retired once).
    Cold,
    /// The entry exists and is trained, but its confidence counter has
    /// not saturated.
    LowConfidence,
    /// The entry is confident but no base address could be formed (the
    /// Page Address Table pointer went stale).
    NoAddress,
}

/// The Prefetch Table.
///
/// # Examples
///
/// ```
/// use rfp_predictors::{PrefetchTable, PrefetchTableConfig, PtDecision};
/// use rfp_types::{Addr, Pc};
///
/// let mut cfg = PrefetchTableConfig::default();
/// cfg.confidence_increment_prob = 1.0; // deterministic for the example
/// let mut pt = PrefetchTable::new(cfg).unwrap();
/// let pc = Pc::new(0x400100);
/// for i in 0..4u64 {
///     pt.on_allocate(pc);
///     pt.on_retire(pc, Addr::new(0x1000 + i * 8));
/// }
/// pt.on_allocate(pc); // inflight = 1 now
/// // last retired 0x1018, stride 8, one instance in flight => 0x1020.
/// # // (allocation consumed above; check via a fresh allocate)
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchTable {
    config: PrefetchTableConfig,
    sets: Vec<Vec<PtEntry>>,
    pat: PageAddrTable,
    rng: SmallRng,
    stamp: u64,
    predictions: u64,
    trainings: u64,
}

impl PrefetchTable {
    /// Creates an empty table.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid configuration.
    pub fn new(config: PrefetchTableConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let sets = vec![vec![PtEntry::default(); config.ways]; config.entries / config.ways];
        Ok(PrefetchTable {
            sets,
            pat: PageAddrTable::new(),
            rng: SmallRng::seed_from_u64(config.seed),
            stamp: 0,
            predictions: 0,
            trainings: 0,
            config,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> PrefetchTableConfig {
        self.config
    }

    fn max_confidence(&self) -> u8 {
        ((1u16 << self.config.confidence_bits) - 1) as u8
    }

    fn locate(&self, pc: Pc) -> (usize, u64) {
        let sets = self.sets.len() as u64;
        let idx = (pc.raw() >> 2) % sets;
        let tag = ((pc.raw() >> 2) / sets) & 0xffff;
        (idx as usize, tag)
    }

    /// Called when a load allocates into the OOO. Bumps the in-flight
    /// counter and, if the entry is confident, returns the predicted
    /// prefetch address `last_retired + stride * inflight` (§3.1).
    pub fn on_allocate(&mut self, pc: Pc) -> PtDecision {
        let max_conf = self.max_confidence();
        let use_pat = self.config.use_pat;
        let (set, tag) = self.locate(pc);
        self.stamp += 1;
        let stamp = self.stamp;
        if !self.sets[set].iter().any(|e| e.valid && e.tag == tag) {
            // Allocate the tracking entry here so the in-flight counter
            // counts every outstanding instance from the very first one;
            // stride/confidence training still happens at retirement.
            // Creating it at retirement instead would leave the counter
            // permanently short by however many instances were in flight
            // at creation (the decrements of untracked instances floor at
            // zero and eat the matched ones).
            let way = (0..self.config.ways)
                .min_by_key(|&w| {
                    let e = &self.sets[set][w];
                    if !e.valid {
                        (0u8, 0u64)
                    } else {
                        (e.utility + 1, e.lru)
                    }
                })
                .expect("ways > 0");
            self.sets[set][way] = PtEntry {
                valid: true,
                tag,
                confidence: 0,
                utility: 0,
                stride: 0,
                inflight: 0,
                has_addr: false,
                last_addr: Addr::new(0),
                pat_ptr: None,
                page_offset: 0,
                lru: stamp,
            };
        }
        let pat = &self.pat;
        let e = self.sets[set]
            .iter_mut()
            .find(|e| e.valid && e.tag == tag)
            .expect("just ensured");
        e.lru = stamp;
        e.inflight = e.inflight.saturating_add(1).min(127);
        if e.confidence < max_conf || !e.has_addr {
            return PtDecision::NoPrefetch;
        }
        // Reconstruct the base address: through the PAT when enabled (a
        // stale pointer yields a wrong page -> a natural misprediction),
        // otherwise from the stored full address.
        let base = if use_pat {
            match e.pat_ptr.and_then(|p| pat.reconstruct(p, e.page_offset)) {
                Some(a) => a,
                None => return PtDecision::NoPrefetch,
            }
        } else {
            e.last_addr
        };
        let predicted = base.offset(e.stride.wrapping_mul(e.inflight as i64));
        self.predictions += 1;
        PtDecision::Prefetch(predicted)
    }

    /// Diagnoses *why* the most recent [`PrefetchTable::on_allocate`]
    /// for `pc` produced no prefetch. Read-only: no training, no LRU
    /// touch, no RNG draw — safe to call (or skip) without perturbing
    /// the simulation.
    ///
    /// Meaningful right after an `on_allocate(pc)` that returned
    /// [`PtDecision::NoPrefetch`] (the entry it allocated or touched is
    /// still resident); at other times it reports the entry's current
    /// state on a best-effort basis.
    pub fn miss_kind(&self, pc: Pc) -> PtMissKind {
        let (set, tag) = self.locate(pc);
        let Some(e) = self.sets[set].iter().find(|e| e.valid && e.tag == tag) else {
            return PtMissKind::Cold;
        };
        if !e.has_addr {
            return PtMissKind::Cold;
        }
        if e.confidence < self.max_confidence() {
            return PtMissKind::LowConfidence;
        }
        // Confident and trained, yet no prefetch: the only remaining
        // path in on_allocate is a failed PAT reconstruction.
        PtMissKind::NoAddress
    }

    /// Called when a load retires with its actual `addr`. Trains stride,
    /// confidence and utility; decrements the in-flight counter; allocates
    /// the entry if absent (training happens at retirement, §3.1).
    pub fn on_retire(&mut self, pc: Pc, addr: Addr) {
        self.trainings += 1;
        let max_conf = self.max_confidence();
        let inc = self
            .rng
            .gen_bool(self.config.confidence_increment_prob.clamp(0.0, 1.0));
        let use_pat = self.config.use_pat;
        let (set, tag) = self.locate(pc);
        self.stamp += 1;
        let stamp = self.stamp;

        let pos = self.sets[set].iter().position(|e| e.valid && e.tag == tag);
        match pos {
            Some(i) => {
                let old = self.sets[set][i];
                let e = &mut self.sets[set][i];
                e.lru = stamp;
                e.inflight = e.inflight.saturating_sub(1);
                if old.has_addr {
                    let new_stride = addr.stride_from(old.last_addr);
                    // The stride field is narrow (Table 1): strides the
                    // hardware cannot encode never gain confidence.
                    let limit = 8i64 << (self.config.stride_bits - 1);
                    if new_stride.abs() >= limit {
                        e.stride = 0;
                        e.confidence = 0;
                        e.utility = 0;
                    } else if new_stride == e.stride {
                        if inc && e.confidence < max_conf {
                            e.confidence += 1;
                        }
                        e.utility = (e.utility + 1).min(3);
                    } else {
                        e.stride = new_stride;
                        e.confidence = 0;
                        e.utility = 0;
                    }
                }
                e.has_addr = true;
                e.last_addr = addr;
                e.page_offset = addr.page_offset();
                if use_pat {
                    let ptr = self.pat.insert(addr.page_frame());
                    self.sets[set][i].pat_ptr = Some(ptr);
                }
            }
            None => {
                // Allocate: victim = lowest utility, LRU tie-break.
                let way = (0..self.config.ways)
                    .min_by_key(|&w| {
                        let e = &self.sets[set][w];
                        if !e.valid {
                            (0u8, 0u64)
                        } else {
                            (e.utility + 1, e.lru)
                        }
                    })
                    .expect("ways > 0");
                let pat_ptr = use_pat.then(|| self.pat.insert(addr.page_frame()));
                self.sets[set][way] = PtEntry {
                    valid: true,
                    tag,
                    confidence: 0,
                    utility: 0,
                    stride: 0,
                    inflight: 0,
                    has_addr: true,
                    last_addr: addr,
                    pat_ptr,
                    page_offset: addr.page_offset(),
                    lru: stamp,
                };
            }
        }
    }

    /// Called for each squashed in-flight load on a branch misprediction
    /// (§3.1: "this counter is decremented for each squashed load").
    pub fn on_squash(&mut self, pc: Pc) {
        let (set, tag) = self.locate(pc);
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.valid && e.tag == tag) {
            e.inflight = e.inflight.saturating_sub(1);
        }
    }

    /// Records that a prediction for `pc` was wrong and — when the PAT is
    /// enabled — repairs the delinquent PAT entry with the actual page
    /// (§3.5: "the delinquent PAT entry is replaced ... and the pointer in
    /// the PT entry is also adjusted").
    pub fn on_mispredict(&mut self, pc: Pc, actual: Addr) {
        if !self.config.use_pat {
            return;
        }
        let (set, tag) = self.locate(pc);
        let ptr = self.pat.insert(actual.page_frame());
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.valid && e.tag == tag) {
            e.pat_ptr = Some(ptr);
            e.page_offset = actual.page_offset();
            e.last_addr = actual;
        }
    }

    /// Predictions issued since construction.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Training (retirement) events since construction.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    /// Approximate host-memory footprint in bytes — what a warm-state
    /// snapshot of this table costs to retain (not the modelled hardware
    /// bits; see [`PrefetchTable::storage`] for those). A lower bound:
    /// allocator overhead is not counted.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.sets.capacity() * std::mem::size_of::<Vec<PtEntry>>()
            + self.sets.len() * self.config.ways * std::mem::size_of::<PtEntry>()
    }

    /// Storage accounting for Table 1.
    pub fn storage(&self) -> PtStorage {
        PtStorage {
            tag_bits: 16,
            confidence_bits: self.config.confidence_bits as u64,
            utility_bits: 2,
            stride_bits: self.config.stride_bits as u64,
            inflight_bits: 7,
            address_bits: if self.config.use_pat {
                PAT_POINTER_BITS + 12
            } else {
                64
            },
            entries: self.config.entries as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deterministic_pt(use_pat: bool) -> PrefetchTable {
        PrefetchTable::new(PrefetchTableConfig {
            confidence_increment_prob: 1.0,
            use_pat,
            ..PrefetchTableConfig::default()
        })
        .unwrap()
    }

    fn train_stride(pt: &mut PrefetchTable, pc: Pc, base: u64, stride: u64, n: u64) {
        for i in 0..n {
            pt.on_allocate(pc);
            pt.on_retire(pc, Addr::new(base + i * stride));
        }
    }

    #[test]
    fn stride_load_becomes_predictable() {
        let mut pt = deterministic_pt(false);
        let pc = Pc::new(0x400100);
        train_stride(&mut pt, pc, 0x10000, 64, 4);
        // Next allocation: one instance in flight, last retired = 0x100c0.
        match pt.on_allocate(pc) {
            PtDecision::Prefetch(a) => assert_eq!(a, Addr::new(0x10100)),
            other => panic!("expected prefetch, got {other:?}"),
        }
    }

    #[test]
    fn inflight_counter_extrapolates_multiple_instances() {
        let mut pt = deterministic_pt(false);
        let pc = Pc::new(0x400104);
        train_stride(&mut pt, pc, 0x2000, 8, 4);
        let first = pt.on_allocate(pc);
        let second = pt.on_allocate(pc);
        assert_eq!(first, PtDecision::Prefetch(Addr::new(0x2020)));
        assert_eq!(second, PtDecision::Prefetch(Addr::new(0x2028)));
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut pt = deterministic_pt(false);
        let pc = Pc::new(0x400200);
        train_stride(&mut pt, pc, 0x3000, 16, 4);
        assert!(matches!(pt.on_allocate(pc), PtDecision::Prefetch(_)));
        pt.on_retire(pc, Addr::new(0x9999)); // wild address: stride broken
        pt.on_allocate(pc);
        assert_eq!(pt.on_allocate(pc), PtDecision::NoPrefetch);
    }

    #[test]
    fn squash_decrements_inflight() {
        let mut pt = deterministic_pt(false);
        let pc = Pc::new(0x400300);
        train_stride(&mut pt, pc, 0x4000, 8, 4);
        let a = pt.on_allocate(pc); // inflight 1
        pt.on_squash(pc); // back to 0
        let b = pt.on_allocate(pc); // inflight 1 again
        assert_eq!(a, b);
    }

    #[test]
    fn probabilistic_confidence_needs_many_repeats() {
        let mut pt = PrefetchTable::new(PrefetchTableConfig::default()).unwrap();
        let pc = Pc::new(0x400400);
        // With p = 1/16 and a 1-bit counter, 2 repeats are very unlikely to
        // saturate; 200 repeats essentially always do.
        train_stride(&mut pt, pc, 0x5000, 8, 3);
        assert_eq!(pt.on_allocate(pc), PtDecision::NoPrefetch);
        pt.on_retire(pc, Addr::new(0x5000 + 3 * 8)); // rebalance inflight
        train_stride(&mut pt, pc, 0x6000, 8, 200);
        // One stride break at the 0x5018 -> 0x6000 seam, then 199 repeats.
        assert!(matches!(pt.on_allocate(pc), PtDecision::Prefetch(_)));
    }

    #[test]
    fn pat_mode_predicts_same_as_full_addresses() {
        let mut full = deterministic_pt(false);
        let mut pat = deterministic_pt(true);
        let pc = Pc::new(0x400500);
        train_stride(&mut full, pc, 0x7000, 8, 4);
        train_stride(&mut pat, pc, 0x7000, 8, 4);
        assert_eq!(full.on_allocate(pc), pat.on_allocate(pc));
    }

    #[test]
    fn storage_matches_table_1() {
        let pt = PrefetchTable::new(PrefetchTableConfig::default()).unwrap();
        let s = pt.storage();
        // 16 + 1 + 2 + 5 + 7 + 18 = 49 bits/entry with a 1-bit counter;
        // Table 1 prints 51 (3-bit confidence). Check the 3-bit variant:
        let pt3 = PrefetchTable::new(PrefetchTableConfig {
            confidence_bits: 3,
            ..PrefetchTableConfig::default()
        })
        .unwrap();
        assert_eq!(pt3.storage().entry_bits(), 51);
        // 1024 entries at 51 bits ~ 6.4 KiB (paper: "6.5KB").
        assert!((pt3.storage().total_kib() - 6.4).abs() < 0.1);
        // Full-address variant roughly doubles storage (paper: ~50% saved).
        let full = PrefetchTable::new(PrefetchTableConfig {
            use_pat: false,
            confidence_bits: 3,
            ..PrefetchTableConfig::default()
        })
        .unwrap();
        assert!(full.storage().total_bits() as f64 / s.total_bits() as f64 > 1.6);
    }

    #[test]
    fn miss_kind_diagnoses_each_no_prefetch_path() {
        let mut pt = deterministic_pt(false);
        let pc = Pc::new(0x400600);
        assert_eq!(pt.miss_kind(pc), PtMissKind::Cold, "never seen");
        // Allocated (on_allocate creates the tracking entry) but never
        // retired: still cold.
        assert_eq!(pt.on_allocate(pc), PtDecision::NoPrefetch);
        assert_eq!(pt.miss_kind(pc), PtMissKind::Cold);
        // One retirement trains the address but not the stride.
        pt.on_retire(pc, Addr::new(0x8000));
        assert_eq!(pt.on_allocate(pc), PtDecision::NoPrefetch);
        assert_eq!(pt.miss_kind(pc), PtMissKind::LowConfidence);
        pt.on_retire(pc, Addr::new(0x8008));
        // Fully trained: predicts, so miss_kind no longer applies — but
        // it must stay read-only (no state perturbation).
        train_stride(&mut pt, pc, 0x9000, 8, 4);
        let before = pt.on_allocate(pc);
        let _ = pt.miss_kind(pc);
        let after = pt.on_allocate(pc);
        assert!(matches!(before, PtDecision::Prefetch(_)));
        assert!(matches!(after, PtDecision::Prefetch(_)));
        assert_ne!(before, after, "inflight extrapolation still advanced");
    }

    #[test]
    fn miss_kind_reports_no_address_on_stale_pat() {
        // Train through the PAT, then churn the PAT with other pages
        // until the entry's pointer reconstructs to nothing (or a
        // different page). If reconstruction fails outright,
        // on_allocate declines and miss_kind says NoAddress.
        let mut pt = deterministic_pt(true);
        let pc = Pc::new(0x400700);
        train_stride(&mut pt, pc, 0x4000_0000, 8, 4);
        assert!(matches!(pt.on_allocate(pc), PtDecision::Prefetch(_)));
        pt.on_retire(pc, Addr::new(0x4000_0020));
        // Evict the page from the PAT by training many other PCs on
        // distinct pages.
        for i in 0..4096u64 {
            let other = Pc::new(0x500000 + i * 4);
            pt.on_allocate(other);
            pt.on_retire(other, Addr::new(0x8000_0000 + i * 0x1000));
        }
        if pt.on_allocate(pc) == PtDecision::NoPrefetch {
            assert_eq!(pt.miss_kind(pc), PtMissKind::NoAddress);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(PrefetchTable::new(PrefetchTableConfig {
            entries: 1000,
            ways: 16,
            ..PrefetchTableConfig::default()
        })
        .is_err());
        assert!(PrefetchTable::new(PrefetchTableConfig {
            confidence_bits: 0,
            ..PrefetchTableConfig::default()
        })
        .is_err());
    }
}
