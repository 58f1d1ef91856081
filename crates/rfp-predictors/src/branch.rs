//! A gshare conditional branch predictor.
//!
//! The paper's baseline core models a conventional front-end branch
//! predictor; our traces can either carry oracle mispredict markers
//! (calibrated per workload) or let this predictor decide dynamically from
//! the branch outcome stream. Gshare XORs a global history register into
//! the PC to index a table of 2-bit saturating counters.

use rfp_types::Pc;

/// Global history bits / table index width.
const HISTORY_BITS: u32 = 12;
/// Predictor table entries (2-bit counters).
const TABLE_ENTRIES: usize = 1 << HISTORY_BITS;

/// A gshare predictor with a 12-bit global history.
///
/// # Examples
///
/// ```
/// use rfp_predictors::Gshare;
/// use rfp_types::Pc;
///
/// let mut bp = Gshare::new();
/// let pc = Pc::new(0x400100);
/// // An always-taken branch becomes perfectly predicted.
/// for _ in 0..8 {
///     let _ = bp.predict_and_train(pc, true);
/// }
/// assert!(!bp.predict_and_train(pc, true), "no mispredict once learned");
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Default for Gshare {
    fn default() -> Self {
        Self::new()
    }
}

impl Gshare {
    /// Creates a predictor with weakly-taken counters and empty history.
    pub fn new() -> Self {
        Gshare {
            counters: vec![2; TABLE_ENTRIES],
            history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, pc: Pc) -> usize {
        (((pc.raw() >> 2) ^ self.history) % TABLE_ENTRIES as u64) as usize
    }

    /// Predicts the branch at `pc`, trains with the actual outcome, and
    /// updates global history. Returns `true` when the prediction was
    /// WRONG (a misprediction).
    pub fn predict_and_train(&mut self, pc: Pc, taken: bool) -> bool {
        self.predictions += 1;
        let idx = self.index(pc);
        let predicted_taken = self.counters[idx] >= 2;
        let mispredicted = predicted_taken != taken;
        if mispredicted {
            self.mispredictions += 1;
        }
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u64) & ((1 << HISTORY_BITS) - 1);
        mispredicted
    }

    /// (predictions, mispredictions) since construction.
    pub fn accuracy_counters(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }

    /// Misprediction rate so far (0 when no predictions yet).
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Storage bits: 2-bit counters plus the history register.
    pub fn storage_bits() -> u64 {
        TABLE_ENTRIES as u64 * 2 + HISTORY_BITS as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_branch_is_learned() {
        let mut bp = Gshare::new();
        let pc = Pc::new(0x100);
        let mut late_misses = 0;
        for i in 0..400 {
            let m = bp.predict_and_train(pc, true);
            if i >= 100 {
                late_misses += m as u32;
            }
        }
        assert_eq!(late_misses, 0, "an always-taken branch must be learned");
    }

    #[test]
    fn alternating_pattern_is_learned_through_history() {
        let mut bp = Gshare::new();
        let pc = Pc::new(0x200);
        let mut late_misses = 0;
        for i in 0..2_000u64 {
            let taken = i % 2 == 0;
            let m = bp.predict_and_train(pc, taken);
            if i >= 1_000 {
                late_misses += m as u32;
            }
        }
        assert!(
            late_misses < 20,
            "history must capture the alternation, {late_misses} misses"
        );
    }

    #[test]
    fn random_outcomes_mispredict_about_half_the_time() {
        let mut bp = Gshare::new();
        let pc = Pc::new(0x300);
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut misses = 0u32;
        let n = 4_000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            misses += bp.predict_and_train(pc, x & 1 == 1) as u32;
        }
        let rate = misses as f64 / n as f64;
        assert!((0.35..=0.65).contains(&rate), "rate {rate} not ~0.5");
    }

    #[test]
    fn counters_report_consistent_totals() {
        let mut bp = Gshare::new();
        for i in 0..10u64 {
            bp.predict_and_train(Pc::new(i * 4), i % 3 == 0);
        }
        let (p, m) = bp.accuracy_counters();
        assert_eq!(p, 10);
        assert!(m <= p);
        assert!((0.0..=1.0).contains(&bp.mispredict_rate()));
    }
}
