//! DLVP path-based load *address* predictor (Sheikh et al.) — the paper's
//! AP comparison point (§2.2, §5.4, Fig. 16).
//!
//! DLVP predicts a load's address at *fetch* from the path history, probes
//! the L1 early, and uses the fetched data as a value prediction at
//! allocation. Because a wrong address prediction costs a pipeline flush
//! (the probed data was forwarded to dependents), the predictor requires
//! very high confidence (APHC), and additionally refuses loads likely to be
//! fed by in-flight stores (the no-FWD filter). This module provides the
//! predictor structures; the fetch-probe pipeline timing lives in the core.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfp_types::{Addr, ConfigError, Pc};

/// Configuration of the path-based address predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DlvpConfig {
    /// Predictor table entries.
    pub entries: usize,
    /// Confidence ceiling; address predictions fire only at the ceiling
    /// (the paper's "AP high confidence").
    pub confidence_max: u8,
    /// Probability of a confidence increment on a stride repeat.
    pub increment_prob: f64,
    /// Path-history tokens hashed into the index.
    pub path_length: usize,
    /// Threshold of the no-FWD filter: a load observed store-forwarding at
    /// least this often (counter-saturated) is not predicted.
    pub fwd_threshold: u8,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DlvpConfig {
    fn default() -> Self {
        DlvpConfig {
            entries: 4096,
            confidence_max: 15,
            increment_prob: 0.75,
            path_length: 8,
            fwd_threshold: 2,
            seed: 0xd17b,
        }
    }
}

impl DlvpConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on zero sizes or invalid probability.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 || self.confidence_max == 0 || self.path_length == 0 {
            return Err(ConfigError::new("dlvp", "sizes must be nonzero"));
        }
        if !(0.0..=1.0).contains(&self.increment_prob) {
            return Err(ConfigError::new("dlvp.increment_prob", "must be in [0, 1]"));
        }
        Ok(())
    }
}

/// A rolling path-history register (hashed branch/load PCs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathHistory(u64);

impl PathHistory {
    /// Folds a PC into the path. The shift gives the register a finite
    /// window (~9 branches): two dynamic instances of the same load that
    /// took the same recent control path hash identically, which is what
    /// lets the path table train.
    pub fn push(&mut self, pc: Pc) {
        self.0 = (self.0 << 7) ^ (pc.raw() >> 2);
    }

    /// Raw hashed value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DlvpEntry {
    valid: bool,
    tag: u64,
    last_addr: Addr,
    stride: i64,
    confidence: u8,
    inflight: u8,
}

/// The DLVP predictor: a path-indexed address table plus a per-PC no-FWD
/// filter.
///
/// # Examples
///
/// ```
/// use rfp_predictors::{Dlvp, DlvpConfig, PathHistory};
/// use rfp_types::{Addr, Pc};
///
/// let mut cfg = DlvpConfig::default();
/// cfg.increment_prob = 1.0;
/// cfg.confidence_max = 2;
/// let mut ap = Dlvp::new(cfg).unwrap();
/// let (pc, path) = (Pc::new(0x400100), PathHistory::default());
/// for i in 0..5u64 {
///     ap.on_allocate(pc, path);
///     ap.train(pc, path, Addr::new(0x1000 + i * 8));
/// }
/// assert!(ap.on_allocate(pc, path).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Dlvp {
    config: DlvpConfig,
    entries: Vec<DlvpEntry>,
    /// Per-PC store-forwarding counters (no-FWD filter).
    fwd_counters: Vec<u8>,
    rng: SmallRng,
    predictions: u64,
    mispredictions: u64,
}

impl Dlvp {
    /// Creates an empty predictor.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid configuration.
    pub fn new(config: DlvpConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Dlvp {
            entries: vec![DlvpEntry::default(); config.entries],
            fwd_counters: vec![0; 2048],
            rng: SmallRng::seed_from_u64(config.seed),
            predictions: 0,
            mispredictions: 0,
            config,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> DlvpConfig {
        self.config
    }

    fn locate(&self, pc: Pc, path: PathHistory) -> (usize, u64) {
        let n = self.entries.len() as u64;
        let h = (pc.raw() >> 2) ^ path.raw().rotate_left(17);
        ((h % n) as usize, (h / n) & 0xffff)
    }

    /// High-confidence address prediction at fetch/allocate; bumps the
    /// in-flight counter. Returns `None` for low confidence — callers
    /// separately apply the no-FWD filter ([`Dlvp::forwarding_likely`]).
    pub fn on_allocate(&mut self, pc: Pc, path: PathHistory) -> Option<Addr> {
        let max = self.config.confidence_max;
        let (idx, tag) = self.locate(pc, path);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            return None;
        }
        e.inflight = e.inflight.saturating_add(1).min(127);
        if e.confidence < max {
            return None;
        }
        self.predictions += 1;
        Some(e.last_addr.offset(e.stride.wrapping_mul(e.inflight as i64)))
    }

    /// Whether the predictor has *any* (even low-confidence) knowledge of
    /// this (pc, path): used for Fig. 16's "address predictable" base bar.
    pub fn knows(&self, pc: Pc, path: PathHistory) -> bool {
        let (idx, tag) = self.locate(pc, path);
        let e = &self.entries[idx];
        e.valid && e.tag == tag && e.stride != i64::MIN
    }

    /// Trains on a retired load's actual address; decrements in-flight.
    pub fn train(&mut self, pc: Pc, path: PathHistory, addr: Addr) {
        let inc = self.rng.gen_bool(self.config.increment_prob);
        let max = self.config.confidence_max;
        let (idx, tag) = self.locate(pc, path);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            *e = DlvpEntry {
                valid: true,
                tag,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                inflight: 0,
            };
            return;
        }
        e.inflight = e.inflight.saturating_sub(1);
        let stride = addr.stride_from(e.last_addr);
        if stride == e.stride {
            if inc && e.confidence < max {
                e.confidence += 1;
            }
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
    }

    /// Called for squashed in-flight loads.
    pub fn on_squash(&mut self, pc: Pc, path: PathHistory) {
        let (idx, tag) = self.locate(pc, path);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            e.inflight = e.inflight.saturating_sub(1);
        }
    }

    /// A fired prediction turned out wrong (flush); reset confidence.
    pub fn on_mispredict(&mut self, pc: Pc, path: PathHistory) {
        self.mispredictions += 1;
        let (idx, tag) = self.locate(pc, path);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            e.confidence = 0;
        }
    }

    /// no-FWD filter: true when this load recently received data via
    /// store-to-load forwarding and must not be address-predicted.
    pub fn forwarding_likely(&self, pc: Pc) -> bool {
        self.fwd_counters[((pc.raw() >> 2) % 2048) as usize] >= self.config.fwd_threshold
    }

    /// Trains the no-FWD filter with whether the load was store-forwarded.
    pub fn record_forwarding(&mut self, pc: Pc, forwarded: bool) {
        let c = &mut self.fwd_counters[((pc.raw() >> 2) % 2048) as usize];
        if forwarded {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// (fired predictions, mispredictions).
    pub fn accuracy_counters(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }

    /// Storage bits: entry(16 tag + 64 addr + 16 stride + 8 conf + 7 infl)
    /// plus the no-FWD filter (2 b x 2048).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * (16 + 64 + 16 + 8 + 7) + 2048 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap(prob: f64, max: u8) -> Dlvp {
        Dlvp::new(DlvpConfig {
            increment_prob: prob,
            confidence_max: max,
            ..DlvpConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn strided_addresses_become_predictable_per_path() {
        let mut p = ap(1.0, 2);
        let pc = Pc::new(0x100);
        let path = PathHistory::default();
        for i in 0..5u64 {
            p.on_allocate(pc, path);
            p.train(pc, path, Addr::new(0x2000 + i * 16));
        }
        let predicted = p.on_allocate(pc, path).unwrap();
        assert_eq!(predicted, Addr::new(0x2000 + 4 * 16 + 16));
    }

    #[test]
    fn different_paths_use_different_entries() {
        let mut p = ap(1.0, 2);
        let pc = Pc::new(0x100);
        let mut path_b = PathHistory::default();
        path_b.push(Pc::new(0x5555));
        for i in 0..5u64 {
            p.on_allocate(pc, PathHistory::default());
            p.train(pc, PathHistory::default(), Addr::new(0x2000 + i * 16));
        }
        assert!(p.on_allocate(pc, PathHistory::default()).is_some());
        assert!(p.on_allocate(pc, path_b).is_none());
    }

    #[test]
    fn no_fwd_filter_learns_and_decays() {
        let mut p = ap(1.0, 2);
        let pc = Pc::new(0x300);
        assert!(!p.forwarding_likely(pc));
        p.record_forwarding(pc, true);
        p.record_forwarding(pc, true);
        assert!(p.forwarding_likely(pc));
        p.record_forwarding(pc, false);
        assert!(!p.forwarding_likely(pc));
    }

    #[test]
    fn mispredict_resets() {
        let mut p = ap(1.0, 2);
        let pc = Pc::new(0x400);
        let path = PathHistory::default();
        for i in 0..5u64 {
            p.on_allocate(pc, path);
            p.train(pc, path, Addr::new(0x9000 + i * 8));
        }
        assert!(p.on_allocate(pc, path).is_some());
        p.on_mispredict(pc, path);
        assert!(p.on_allocate(pc, path).is_none());
    }

    #[test]
    fn path_history_is_order_sensitive() {
        let mut a = PathHistory::default();
        let mut b = PathHistory::default();
        a.push(Pc::new(0x10));
        a.push(Pc::new(0x20));
        b.push(Pc::new(0x20));
        b.push(Pc::new(0x10));
        assert_ne!(a, b);
    }
}
