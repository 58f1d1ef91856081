//! The L1 hit/miss predictor of Yoaz et al., used for speculative wakeup of
//! load dependents (paper §2.5).
//!
//! Dependents of a load must be woken before the load's hit/miss outcome is
//! known, or back-to-back scheduling is impossible. The predictor is a
//! per-PC table of 2-bit saturating counters biased towards "hit" (the
//! overwhelmingly common case, Fig. 2). A mispredicted hit costs a cancel +
//! re-dispatch of the speculatively woken dependents, not a flush.

use rfp_types::Pc;

/// Tracked static loads.
const TABLE_ENTRIES: usize = 2048;
/// Counter value at and above which we predict "hit".
const HIT_THRESHOLD: u8 = 1;
/// Saturation maximum.
const MAX: u8 = 3;

/// Per-PC 2-bit hit/miss predictor.
///
/// # Examples
///
/// ```
/// use rfp_predictors::HitMissPredictor;
/// use rfp_types::Pc;
///
/// let mut hm = HitMissPredictor::new();
/// let pc = Pc::new(0x400100);
/// assert!(hm.predict_hit(pc));     // optimistic default
/// for _ in 0..3 {
///     hm.train(pc, false);
/// }
/// assert!(!hm.predict_hit(pc));    // learned the missing load
/// ```
#[derive(Debug, Clone)]
pub struct HitMissPredictor {
    counters: Vec<u8>,
    predictions: u64,
    mispredictions: u64,
}

impl Default for HitMissPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl HitMissPredictor {
    /// Creates a predictor with all counters biased to "hit".
    pub fn new() -> Self {
        HitMissPredictor {
            counters: vec![MAX; TABLE_ENTRIES],
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(pc: Pc) -> usize {
        ((pc.raw() >> 2) % TABLE_ENTRIES as u64) as usize
    }

    /// Predicts whether the load at `pc` will hit the L1.
    pub fn predict_hit(&mut self, pc: Pc) -> bool {
        self.predictions += 1;
        self.counters[Self::index(pc)] >= HIT_THRESHOLD
    }

    /// Trains with the observed outcome and tracks accuracy against the
    /// counter state prior to the update.
    pub fn train(&mut self, pc: Pc, hit: bool) {
        let c = &mut self.counters[Self::index(pc)];
        let predicted_hit = *c >= HIT_THRESHOLD;
        if predicted_hit != hit {
            self.mispredictions += 1;
        }
        if hit {
            *c = (*c + 1).min(MAX);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// (predictions, mispredictions) since construction. Mispredictions are
    /// counted at training time.
    pub fn accuracy_counters(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_prediction_is_hit() {
        let mut hm = HitMissPredictor::new();
        assert!(hm.predict_hit(Pc::new(0x1234)));
    }

    #[test]
    fn consistent_misses_flip_the_prediction() {
        let mut hm = HitMissPredictor::new();
        let pc = Pc::new(0x4000);
        for _ in 0..4 {
            hm.train(pc, false);
        }
        assert!(!hm.predict_hit(pc));
        // And hits bring it back.
        for _ in 0..2 {
            hm.train(pc, true);
        }
        assert!(hm.predict_hit(pc));
    }

    #[test]
    fn hysteresis_tolerates_single_outliers() {
        let mut hm = HitMissPredictor::new();
        let pc = Pc::new(0x8000);
        hm.train(pc, false); // one miss from saturation
        assert!(hm.predict_hit(pc), "a single miss must not flip");
    }

    #[test]
    fn misprediction_counter_increments() {
        let mut hm = HitMissPredictor::new();
        let pc = Pc::new(0xc000);
        hm.train(pc, false); // counter said hit -> mispredict
        let (_, wrong) = hm.accuracy_counters();
        assert_eq!(wrong, 1);
    }
}
