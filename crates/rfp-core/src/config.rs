//! Core configuration — the paper's Table 2 plus feature switches for every
//! evaluated mechanism.

use rfp_mem::{HierarchyConfig, OracleMode, PortConfig};
use rfp_predictors::{DlvpConfig, PrefetchTableConfig, ValuePredictorConfig};
use rfp_types::{ConfigError, Cycle};

/// Configuration of the RFP engine (§3).
#[derive(Debug, Clone, PartialEq)]
pub struct RfpConfig {
    /// The stride Prefetch Table.
    pub table: PrefetchTableConfig,
    /// RFP request FIFO depth (paper: 64).
    pub queue_entries: usize,
    /// Also consult the delta-context prefetcher and prefetch on its
    /// prediction when the stride table declines (§5.5.3).
    pub use_context: bool,
    /// Drop prefetches that miss the DTLB (§3.2.2; default true).
    pub drop_on_tlb_miss: bool,
    /// Let prefetches that miss the L1 continue to the lower levels
    /// (§3.2.2; default true — dropping costs only ~0.02%).
    pub continue_on_l1_miss: bool,
    /// When value prediction is also enabled, skip RFP for loads the VP
    /// already covers (the paper's VP+RFP fusion policy, §5.3).
    pub vp_filter: bool,
    /// Criticality-targeted prefetching (the paper's §5.1 future-work
    /// direction): only inject prefetches for loads observed blocking
    /// retirement at the head of the ROB.
    pub critical_only: bool,
    /// Head-stall count at which a load PC becomes critical.
    pub criticality_threshold: u8,
}

impl Default for RfpConfig {
    fn default() -> Self {
        RfpConfig {
            table: PrefetchTableConfig::default(),
            queue_entries: 64,
            use_context: false,
            drop_on_tlb_miss: true,
            continue_on_l1_miss: true,
            vp_filter: true,
            critical_only: false,
            criticality_threshold: 3,
        }
    }
}

/// How conditional-branch mispredictions are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchMode {
    /// Trust the trace's oracle mispredict markers (calibrated per
    /// workload; the default, as in most trace-driven simulators).
    #[default]
    TraceOracle,
    /// Model a gshare predictor over the trace's actual branch outcomes.
    Gshare,
}

/// Which value/address prediction scheme runs alongside (Fig. 15/16).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum VpMode {
    /// No value prediction.
    #[default]
    Off,
    /// EVES-style value prediction only.
    Eves(ValuePredictorConfig),
    /// DLVP: fetch-time address prediction + early L1 probe used as a value
    /// prediction (§5.4).
    Dlvp(DlvpConfig),
    /// Composite: EVES fused with DLVP (the paper's VP baseline, ref \[68]).
    Composite(ValuePredictorConfig, DlvpConfig),
    /// EPP: DLVP-style early address prediction with register-file reuse
    /// and an SSBF whose false positives force retirement re-executions.
    Epp(DlvpConfig),
}

impl VpMode {
    /// True when any scheme is active.
    pub fn is_on(&self) -> bool {
        !matches!(self, VpMode::Off)
    }
}

/// Full core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Rename/dispatch width (uops per cycle).
    pub width: usize,
    /// Retire width.
    pub retire_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Reservation station (scheduler) entries.
    pub rs_entries: usize,
    /// Load queue entries.
    pub ldq_entries: usize,
    /// Store queue entries.
    pub stq_entries: usize,
    /// Integer/branch execution ports.
    pub alu_ports: usize,
    /// FP/vector execution ports (the FSPEC bottleneck).
    pub fp_ports: usize,
    /// Load AGU ports (loads entering address generation per cycle).
    pub load_agu_ports: usize,
    /// Store AGU ports.
    pub store_agu_ports: usize,
    /// Scheduling pipeline depth: wakeup + select + regread (paper: 3).
    pub sched_latency: Cycle,
    /// Extra cycles a cancelled uop needs before it can re-enter selection.
    pub reissue_penalty: Cycle,
    /// Front-end redirect penalty after a mispredicted branch resolves.
    pub mispredict_redirect: Cycle,
    /// Fetch-to-allocate depth with a uop-cache hit: the window DLVP's
    /// early probe has to return data (§5.4 point 4).
    pub fetch_to_alloc: Cycle,
    /// Flush penalty for a value/address misprediction (paper: 20).
    pub vp_flush_penalty: Cycle,
    /// Extra pipeline cycles of a DLVP early probe beyond the raw L1
    /// latency (predictor access, decode identification, data transfer
    /// back to the rename-time value file).
    pub ap_probe_overhead: Cycle,
    /// Maximum cycles a DLVP probe's data can be held in the (small)
    /// probe buffer before allocation consumes it; older probe data is
    /// recycled and the prediction is lost.
    pub ap_probe_hold: Cycle,
    /// Store-to-load forwarding latency.
    pub forward_latency: Cycle,
    /// Memory hierarchy.
    pub mem: HierarchyConfig,
    /// L1 data port pool.
    pub ports: PortConfig,
    /// Baseline L1 IP-stride prefetcher (on in every paper configuration;
    /// turn off only for ablations).
    pub l1_ip_prefetcher: bool,
    /// Branch misprediction source.
    pub branch_mode: BranchMode,
    /// Register file prefetching (None = baseline).
    pub rfp: Option<RfpConfig>,
    /// Value/address prediction scheme.
    pub vp: VpMode,
    /// EPP SSBF false-positive rate (fraction of loads re-executed at
    /// retirement when `VpMode::Epp` is active).
    pub epp_false_positive_rate: f64,
    /// Deterministic seed for any core-side randomness.
    pub seed: u64,
}

impl CoreConfig {
    /// The paper's baseline: a 5-wide OOO core with parameters similar to
    /// Intel Tiger Lake (Table 2), no RFP, no VP.
    pub fn tiger_lake() -> Self {
        CoreConfig {
            width: 5,
            retire_width: 5,
            rob_entries: 352,
            rs_entries: 128,
            ldq_entries: 128,
            stq_entries: 72,
            alu_ports: 4,
            fp_ports: 2,
            load_agu_ports: 2,
            store_agu_ports: 1,
            sched_latency: 3,
            reissue_penalty: 2,
            mispredict_redirect: 15,
            fetch_to_alloc: 4,
            vp_flush_penalty: 20,
            ap_probe_overhead: 4,
            ap_probe_hold: 32,
            forward_latency: 5,
            mem: HierarchyConfig::tiger_lake(),
            ports: PortConfig {
                load_ports: 2,
                dedicated_rfp: 0,
            },
            l1_ip_prefetcher: true,
            branch_mode: BranchMode::default(),
            rfp: None,
            vp: VpMode::Off,
            epp_false_positive_rate: 0.03,
            seed: 0xc0de,
        }
    }

    /// The paper's futuristic up-scaled core (`Baseline-2x`, Fig. 12):
    /// 10-wide, all execution resources doubled, more L1 bandwidth.
    pub fn baseline_2x() -> Self {
        let mut c = Self::tiger_lake();
        c.width = 10;
        c.retire_width = 10;
        c.rob_entries = 704;
        c.rs_entries = 256;
        c.ldq_entries = 256;
        c.stq_entries = 144;
        c.alu_ports = 8;
        c.fp_ports = 4;
        c.load_agu_ports = 4;
        c.store_agu_ports = 2;
        c.ports.load_ports = 4;
        c
    }

    /// Returns this configuration with RFP enabled (default RFP settings).
    pub fn with_rfp(mut self) -> Self {
        self.rfp = Some(RfpConfig::default());
        self
    }

    /// Returns this configuration with an oracle prefetch mode installed.
    pub fn with_oracle(mut self, oracle: OracleMode) -> Self {
        self.mem.oracle = oracle;
        self
    }

    /// Number of physical registers needed: one per ROB entry plus the
    /// architectural state.
    pub fn phys_regs(&self) -> usize {
        self.rob_entries + 64
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width == 0 || self.retire_width == 0 {
            return Err(ConfigError::new("width", "must be nonzero"));
        }
        if self.rob_entries < self.width {
            return Err(ConfigError::new(
                "rob_entries",
                "must cover one dispatch group",
            ));
        }
        if self.rs_entries == 0 || self.rs_entries > self.rob_entries {
            return Err(ConfigError::new(
                "rs_entries",
                "must be nonzero and no larger than the ROB",
            ));
        }
        if self.ldq_entries == 0 || self.stq_entries == 0 {
            return Err(ConfigError::new("lsq", "queues must be nonzero"));
        }
        if self.alu_ports == 0 || self.load_agu_ports == 0 || self.store_agu_ports == 0 {
            return Err(ConfigError::new("ports", "execution ports must be nonzero"));
        }
        if self.sched_latency == 0 {
            return Err(ConfigError::new("sched_latency", "must be nonzero"));
        }
        if !(0.0..=1.0).contains(&self.epp_false_positive_rate) {
            return Err(ConfigError::new(
                "epp_false_positive_rate",
                "must be within [0, 1]",
            ));
        }
        self.mem.validate()?;
        self.ports.validate()?;
        if let Some(rfp) = &self.rfp {
            rfp.table.validate()?;
            if rfp.queue_entries == 0 {
                return Err(ConfigError::new("rfp.queue_entries", "must be nonzero"));
            }
        }
        match &self.vp {
            VpMode::Off => {}
            VpMode::Eves(v) => v.validate()?,
            VpMode::Dlvp(d) | VpMode::Epp(d) => d.validate()?,
            VpMode::Composite(v, d) => {
                v.validate()?;
                d.validate()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_validate() {
        CoreConfig::tiger_lake().validate().unwrap();
        CoreConfig::baseline_2x().validate().unwrap();
        CoreConfig::tiger_lake().with_rfp().validate().unwrap();
    }

    #[test]
    fn baseline_2x_doubles_resources() {
        let a = CoreConfig::tiger_lake();
        let b = CoreConfig::baseline_2x();
        assert_eq!(b.width, 2 * a.width);
        assert_eq!(b.rob_entries, 2 * a.rob_entries);
        assert_eq!(b.ports.load_ports, 2 * a.ports.load_ports);
    }

    #[test]
    fn invalid_rs_size_is_rejected() {
        let mut c = CoreConfig::tiger_lake();
        c.rs_entries = c.rob_entries + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn oracle_builder_installs_mode() {
        let c = CoreConfig::tiger_lake().with_oracle(OracleMode::L1ToRf);
        assert_eq!(c.mem.oracle, OracleMode::L1ToRf);
    }

    #[test]
    fn vp_modes_validate() {
        let mut c = CoreConfig::tiger_lake();
        c.vp = VpMode::Eves(ValuePredictorConfig::default());
        c.validate().unwrap();
        c.vp = VpMode::Composite(ValuePredictorConfig::default(), DlvpConfig::default());
        c.validate().unwrap();
        assert!(!VpMode::Off.is_on());
        assert!(c.vp.is_on());
    }

    #[test]
    fn branch_mode_defaults_to_trace_oracle() {
        let c = CoreConfig::tiger_lake();
        assert_eq!(c.branch_mode, BranchMode::TraceOracle);
        let mut g = c.clone();
        g.branch_mode = BranchMode::Gshare;
        g.validate().unwrap();
    }

    #[test]
    fn critical_only_rfp_validates() {
        let mut c = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = c.rfp.as_mut() {
            r.critical_only = true;
            r.criticality_threshold = 5;
        }
        c.validate().unwrap();
    }

    #[test]
    fn phys_regs_cover_rob_plus_arch_state() {
        let c = CoreConfig::tiger_lake();
        assert!(c.phys_regs() >= c.rob_entries + 64);
    }
}
