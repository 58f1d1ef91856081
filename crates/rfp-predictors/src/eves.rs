//! EVES-style load value predictor — the paper's VP baseline component
//! (§5.3, Fig. 15).
//!
//! Predicts a load's *value* (last-value + stride) and speculatively breaks
//! the dependence at dispatch. Because a value misprediction costs a full
//! pipeline flush (20 cycles in the paper's setup), the predictor only
//! fires at a very high confidence threshold, reached through probabilistic
//! increments — exactly the property that caps VP coverage and leaves room
//! for RFP's low-confidence prefetching to complement it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfp_types::{ConfigError, Pc};

/// Configuration of the value predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValuePredictorConfig {
    /// Table entries (direct-mapped, tagged).
    pub entries: usize,
    /// Confidence ceiling; predictions fire only at the ceiling.
    pub confidence_max: u8,
    /// Probability of a confidence increment on a correct training.
    pub increment_prob: f64,
    /// RNG seed for probabilistic confidence.
    pub seed: u64,
}

impl Default for ValuePredictorConfig {
    fn default() -> Self {
        ValuePredictorConfig {
            entries: 4096,
            confidence_max: 15,
            increment_prob: 0.35,
            seed: 0xe7e5,
        }
    }
}

impl ValuePredictorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on zero entries/ceiling or an out-of-range
    /// probability.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 {
            return Err(ConfigError::new("vp.entries", "must be nonzero"));
        }
        if self.confidence_max == 0 {
            return Err(ConfigError::new("vp.confidence_max", "must be nonzero"));
        }
        if !(0.0..=1.0).contains(&self.increment_prob) {
            return Err(ConfigError::new("vp.increment_prob", "must be in [0, 1]"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct VpEntry {
    valid: bool,
    tag: u64,
    last_value: u64,
    stride: u64,
    confidence: u8,
    inflight: u8,
}

/// The value predictor.
///
/// # Examples
///
/// ```
/// use rfp_predictors::{ValuePredictor, ValuePredictorConfig};
/// use rfp_types::Pc;
///
/// let mut cfg = ValuePredictorConfig::default();
/// cfg.increment_prob = 1.0; // deterministic for the example
/// cfg.confidence_max = 3;
/// let mut vp = ValuePredictor::new(cfg).unwrap();
/// let pc = Pc::new(0x400100);
/// for i in 0..6u64 {
///     vp.on_allocate(pc);
///     vp.train(pc, 100 + i * 4);
/// }
/// assert_eq!(vp.on_allocate(pc), Some(124)); // 120 + 4, one in flight
/// ```
#[derive(Debug, Clone)]
pub struct ValuePredictor {
    config: ValuePredictorConfig,
    entries: Vec<VpEntry>,
    rng: SmallRng,
    predictions: u64,
    mispredictions: u64,
}

impl ValuePredictor {
    /// Creates an empty predictor.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid configuration.
    pub fn new(config: ValuePredictorConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(ValuePredictor {
            entries: vec![VpEntry::default(); config.entries],
            rng: SmallRng::seed_from_u64(config.seed),
            predictions: 0,
            mispredictions: 0,
            config,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> ValuePredictorConfig {
        self.config
    }

    fn locate(&self, pc: Pc) -> (usize, u64) {
        let n = self.entries.len() as u64;
        (((pc.raw() >> 2) % n) as usize, (pc.raw() >> 2) / n)
    }

    /// Called at load allocation. Bumps the in-flight counter and returns a
    /// predicted value when the entry is at maximum confidence
    /// (`last + stride * inflight`).
    pub fn on_allocate(&mut self, pc: Pc) -> Option<u64> {
        let (idx, tag) = self.locate(pc);
        let max = self.config.confidence_max;
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            return None;
        }
        e.inflight = e.inflight.saturating_add(1).min(127);
        if e.confidence < max {
            return None;
        }
        self.predictions += 1;
        Some(
            e.last_value
                .wrapping_add(e.stride.wrapping_mul(e.inflight as u64)),
        )
    }

    /// Trains on the actual retired value; decrements the in-flight
    /// counter. Wrong-stride observations reset confidence.
    pub fn train(&mut self, pc: Pc, value: u64) {
        let inc = self.rng.gen_bool(self.config.increment_prob);
        let max = self.config.confidence_max;
        let (idx, tag) = self.locate(pc);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            *e = VpEntry {
                valid: true,
                tag,
                last_value: value,
                stride: 0,
                confidence: 0,
                inflight: 0,
            };
            return;
        }
        e.inflight = e.inflight.saturating_sub(1);
        let observed_stride = value.wrapping_sub(e.last_value);
        if observed_stride == e.stride {
            if inc && e.confidence < max {
                e.confidence += 1;
            }
        } else {
            e.stride = observed_stride;
            e.confidence = 0;
        }
        e.last_value = value;
    }

    /// Called for squashed in-flight loads on a branch misprediction.
    pub fn on_squash(&mut self, pc: Pc) {
        let (idx, tag) = self.locate(pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            e.inflight = e.inflight.saturating_sub(1);
        }
    }

    /// Records that a fired prediction was wrong (flush happened); resets
    /// confidence so the entry must re-earn eligibility.
    pub fn on_mispredict(&mut self, pc: Pc) {
        self.mispredictions += 1;
        let (idx, tag) = self.locate(pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            e.confidence = 0;
        }
    }

    /// (fired predictions, mispredictions) since construction.
    pub fn accuracy_counters(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }

    /// Storage bits: tag(16) + value(64) + stride(64) + confidence + inflight(7).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * (16 + 64 + 64 + 8 + 7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(prob: f64, max: u8) -> ValuePredictor {
        ValuePredictor::new(ValuePredictorConfig {
            increment_prob: prob,
            confidence_max: max,
            ..ValuePredictorConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn constant_value_becomes_predictable() {
        let mut p = vp(1.0, 3);
        let pc = Pc::new(0x100);
        for _ in 0..5 {
            p.on_allocate(pc);
            p.train(pc, 777);
        }
        assert_eq!(p.on_allocate(pc), Some(777));
    }

    #[test]
    fn random_values_never_fire() {
        let mut p = vp(1.0, 3);
        let pc = Pc::new(0x200);
        for i in 0..50u64 {
            p.on_allocate(pc);
            // A proper hash: multiplying by a constant would itself be a
            // value *stride* the predictor legitimately learns.
            let mut v = i ^ 0x1234_5678;
            v ^= v >> 33;
            v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
            v ^= v >> 29;
            p.train(pc, v);
        }
        assert_eq!(p.on_allocate(pc), None);
    }

    #[test]
    fn mispredict_resets_confidence() {
        let mut p = vp(1.0, 3);
        let pc = Pc::new(0x300);
        for _ in 0..5 {
            p.on_allocate(pc);
            p.train(pc, 5);
        }
        assert!(p.on_allocate(pc).is_some());
        p.on_mispredict(pc);
        assert_eq!(p.on_allocate(pc), None);
        assert_eq!(p.accuracy_counters().1, 1);
    }

    #[test]
    fn inflight_extrapolates_strided_values() {
        let mut p = vp(1.0, 2);
        let pc = Pc::new(0x400);
        for i in 0..5u64 {
            p.on_allocate(pc);
            p.train(pc, i * 10);
        }
        let a = p.on_allocate(pc);
        let b = p.on_allocate(pc);
        assert_eq!(a, Some(50));
        assert_eq!(b, Some(60));
    }

    #[test]
    fn probabilistic_confidence_limits_fast_learning() {
        let mut p = vp(0.05, 15);
        let pc = Pc::new(0x500);
        for _ in 0..10 {
            p.on_allocate(pc);
            p.train(pc, 1);
        }
        assert_eq!(p.on_allocate(pc), None, "10 trainings cannot saturate");
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(ValuePredictor::new(ValuePredictorConfig {
            entries: 0,
            ..ValuePredictorConfig::default()
        })
        .is_err());
    }
}
