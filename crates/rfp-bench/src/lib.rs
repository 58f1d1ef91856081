//! Experiment harness regenerating every table and figure of
//! *Register File Prefetching* (ISCA 2022).
//!
//! Each `figNN`/`tabN`/`sNNN` function runs the 65-workload suite under the
//! configurations the paper compares and renders the same rows/series the
//! paper reports, annotated with the paper's numbers for side-by-side
//! comparison. The `experiments` binary dispatches on experiment ids;
//! `EXPERIMENTS.md` records a full paper-vs-measured log.
//!
//! # Examples
//!
//! ```no_run
//! use rfp_bench::Harness;
//! let mut h = Harness::new(60_000);
//! println!("{}", h.fig10());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod engine;
mod engine_trace;
mod history;
mod inspect;
mod report;
mod store;

use std::collections::{HashMap, HashSet};

use rfp_core::{CoreConfig, OracleMode, VpMode};
use rfp_predictors::{storage_table, DlvpConfig, PrefetchTableConfig, ValuePredictorConfig};
use rfp_stats::{
    geomean_speedup, mean_frac, pct, CpiBucket, CpiReport, Log2Histogram, ObsMetrics,
    ProfileReport, SimReport, TextTable, CPI_INTERVALS, CPI_INTERVAL_SHIFT, PREDICT_MISS_LABELS,
    PROFILE_DROP_LABELS,
};
use rfp_trace::Category;
use rfp_types::json_escape;

pub use diff::{
    diff_metrics, diff_metrics_with, flatten, parse_json, DiffOutcome, Json, Violation,
};
pub use engine::{
    build_sample_plan, config_key, default_threads, env_parsed, inspect_windows_from_env, run_grid,
    run_grid_full, run_grid_obs, run_grid_pooled, telemetry_jsonl, trace_len_from_env,
    update_bench_json, warm_key, warm_projection, warm_twin, GridOutcome, JobTelemetry,
    SamplePhase, SamplePlan, SimMode, WarmMode, WarmPool, WarmPoolStats, SAMPLE_INTERVAL_UOPS,
    SAMPLE_WARM_PREFIX, TELEMETRY_SCHEMA_VERSION,
};
pub use engine_trace::{
    engine_metrics, engine_trace_from_env, engine_trace_json, write_engine_trace, EngineTracePath,
};
pub use history::{
    history_export_json, history_store_from_env, parse_trend_tolerances, render_history_list,
    render_history_show, trend_rows, HistoryDir, HistoryLedger, LedgerView, RunRecord,
    SamplingErrorSummary, WorkloadRow, HISTORY_SCHEMA_VERSION, TREND_METRICS,
};
pub use inspect::{inspect_workload, InspectOutcome, INSPECT_LEAD_UOPS};
pub use report::{render_report, ReportInputs, ReportPath};
pub use store::{
    render_store_stats, result_key, ExpStore, StoreDir, StoreStats, Tier, TierUsage,
    STORE_SCHEMA_VERSION,
};

/// Default measured trace length per workload (after an equal warmup).
pub const DEFAULT_TRACE_LEN: u64 = 120_000;

/// Runs the whole suite under `cfg` on the default worker count
/// (see [`default_threads`]).
///
/// # Panics
///
/// Panics if `cfg` is invalid or a worker thread panics.
pub fn run_suite(cfg: &CoreConfig, len: u64) -> Vec<SimReport> {
    run_suite_with_threads(cfg, len, default_threads())
}

/// Runs the whole suite under `cfg` on exactly `threads` work-stealing
/// workers. The result is byte-identical at every thread count.
///
/// # Panics
///
/// Panics if `cfg` is invalid or a worker thread panics.
pub fn run_suite_with_threads(cfg: &CoreConfig, len: u64, threads: usize) -> Vec<SimReport> {
    run_grid(std::slice::from_ref(cfg), len, threads)
        .pop()
        .expect("one config in, one row out")
}

/// The experiment harness: caches suite runs keyed by configuration
/// *content* ([`config_key`]), so the same config reached through
/// different experiments — or `all` — is simulated exactly once.
pub struct Harness {
    len: u64,
    threads: usize,
    cache: HashMap<u64, Vec<SimReport>>,
    /// Obs-instrumented runs live in their own cache: an instrumented
    /// report is *not* byte-identical to a plain one (its canonical text
    /// carries the histograms), so the two kinds must never alias.
    obs_cache: HashMap<u64, Vec<SimReport>>,
    telemetry: Vec<JobTelemetry>,
    /// Warm-state pool shared by every grid this harness runs, so the
    /// observability re-runs fork the snapshots the plain sweep built.
    pool: WarmPool,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("len", &self.len)
            .field("threads", &self.threads)
            .field("cached_runs", &self.cache.len())
            .field("cached_obs_runs", &self.obs_cache.len())
            .finish()
    }
}

impl Harness {
    /// Creates a harness measuring `len` micro-ops per workload, using
    /// the default worker count.
    pub fn new(len: u64) -> Self {
        Self::with_threads(len, default_threads())
    }

    /// Creates a harness with an explicit worker-thread count. The
    /// warm-state sharing mode comes from `RFP_WARM_MODE` (default
    /// `exact`, which is byte-identical to no sharing).
    pub fn with_threads(len: u64, threads: usize) -> Self {
        Self::with_pool(len, threads, WarmPool::from_env(len))
    }

    /// Creates a harness around an explicit [`WarmPool`] (whose measured
    /// length must equal `len`) — lets tests pick a [`WarmMode`] without
    /// touching the process environment.
    pub fn with_pool(len: u64, threads: usize, pool: WarmPool) -> Self {
        assert_eq!(pool.measured_len(), len, "pool sized for a different len");
        Harness {
            len,
            threads: threads.max(1),
            cache: HashMap::new(),
            obs_cache: HashMap::new(),
            telemetry: Vec::new(),
            pool,
        }
    }

    /// The harness's warm-state pool (for stats reporting and pinning).
    pub fn warm_pool(&self) -> &WarmPool {
        &self.pool
    }

    /// Pins `cfg`'s snapshots in the pool so they are built during the
    /// main sweep and survive for follow-up grids — call before
    /// [`Self::prefetch`] when an observability pass over `cfg` will
    /// follow (`--metrics-out`, `timeliness`).
    pub fn pin_config(&self, cfg: &CoreConfig) {
        self.pool.pin_config(cfg);
    }

    /// Per-job host telemetry (worker, queue depth, wall time) from every
    /// grid this harness has run, in the order the grids ran. Render with
    /// [`telemetry_jsonl`] for `--telemetry-out`.
    pub fn job_telemetry(&self) -> &[JobTelemetry] {
        &self.telemetry
    }

    /// All experiment ids in paper order, plus the `ext*` extension
    /// studies (features the paper lists as future work).
    pub const ALL_IDS: [&'static str; 20] = [
        "fig1", "fig2", "tab1", "tab2", "fig10", "fig11", "fig12", "fig13", "fig14", "s522",
        "fig15", "fig16", "fig17", "fig18", "s552", "s553", "s554", "s555", "ext1", "ext2",
    ];

    /// Runs one experiment by id, returning its rendered report.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id (the binary validates first).
    pub fn run(&mut self, id: &str) -> String {
        match id {
            "fig1" => self.fig1(),
            "fig2" => self.fig2(),
            "tab1" => self.tab1(),
            "tab2" => self.tab2(),
            "fig10" => self.fig10(),
            "fig11" => self.fig11(),
            "fig12" => self.fig12(),
            "fig13" => self.fig13(),
            "fig14" => self.fig14(),
            "s522" => self.s522(),
            "fig15" => self.fig15(),
            "fig16" => self.fig16(),
            "fig17" => self.fig17(),
            "fig18" => self.fig18(),
            "s552" => self.s552(),
            "s553" => self.s553(),
            "s554" => self.s554(),
            "s555" => self.s555(),
            "ext1" => self.ext1(),
            "ext2" => self.ext2(),
            // Observability extras: not part of `ALL_IDS` (and so of `all`),
            // because their instrumented runs don't share the plain cache.
            "timeliness" => self.timeliness(),
            "cpi" => self.cpi(),
            "profile" => self.profile(),
            other => panic!("unknown experiment id: {other}"),
        }
    }

    /// Runs every configuration the listed experiments will need —
    /// minus whatever is already cached — as **one** work-stealing grid,
    /// so the whole machine stays busy across configuration boundaries
    /// instead of draining between suites.
    ///
    /// Purely an optimization: [`Self::plan`] may drift from what an
    /// experiment actually runs, in which case the content-keyed cache
    /// simply misses and the experiment fills it itself.
    pub fn prefetch(&mut self, ids: &[&str]) {
        let mut seen: HashSet<u64> = HashSet::new();
        let pending: Vec<CoreConfig> = ids
            .iter()
            .flat_map(|id| Self::plan(id))
            .filter(|cfg| {
                let key = config_key(cfg);
                !self.cache.contains_key(&key) && seen.insert(key)
            })
            .collect();
        if pending.is_empty() {
            return;
        }
        let outcome = run_grid_pooled(&self.pool, &pending, self.threads, false);
        self.telemetry.extend(outcome.telemetry);
        for (cfg, reports) in pending.iter().zip(outcome.reports) {
            self.cache.insert(config_key(cfg), reports);
        }
    }

    /// The configurations experiment `id` needs (empty for static
    /// experiments and unknown ids). Kept alongside the experiment
    /// methods; used by [`Self::prefetch`] to batch work up front.
    pub fn plan(id: &str) -> Vec<CoreConfig> {
        let base = CoreConfig::tiger_lake;
        let rfp = || CoreConfig::tiger_lake().with_rfp();
        let rfp_with = |f: &dyn Fn(&mut rfp_core::RfpConfig)| {
            let mut c = rfp();
            if let Some(r) = c.rfp.as_mut() {
                f(r);
            }
            c
        };
        match id {
            "fig1" => vec![
                base(),
                base().with_oracle(OracleMode::L1ToRf),
                base().with_oracle(OracleMode::L2ToL1),
                base().with_oracle(OracleMode::LlcToL2),
                base().with_oracle(OracleMode::MemToLlc),
            ],
            "fig2" => vec![base()],
            "fig10" | "fig11" => vec![base(), rfp()],
            "fig12" => vec![
                base(),
                rfp(),
                CoreConfig::baseline_2x(),
                CoreConfig::baseline_2x().with_rfp(),
            ],
            "fig13" | "s522" => vec![rfp()],
            "fig14" => {
                let mut dedicated = rfp();
                dedicated.ports.dedicated_rfp = dedicated.ports.load_ports;
                vec![base(), rfp(), dedicated]
            }
            "fig15" => {
                let mut comp = base();
                comp.vp = VpMode::Composite(ValuePredictorConfig::default(), DlvpConfig::default());
                let mut epp = base();
                epp.vp = VpMode::Epp(DlvpConfig::default());
                let mut fused = rfp();
                fused.vp = VpMode::Eves(ValuePredictorConfig::default());
                vec![base(), comp, epp, rfp(), fused]
            }
            "fig16" => {
                let mut dl = base();
                dl.vp = VpMode::Dlvp(DlvpConfig::default());
                vec![dl]
            }
            "fig17" => {
                let mut out = vec![base()];
                for bits in [1u8, 2, 3, 4] {
                    out.push(rfp_with(&|r| r.table.confidence_bits = bits));
                }
                out
            }
            "fig18" => {
                let mut out = vec![base()];
                for entries in [1024usize, 2048, 4096, 8192, 16384] {
                    out.push(rfp_with(&|r| r.table.entries = entries));
                }
                out
            }
            "s552" => {
                let mut base6 = base();
                base6.mem.l1.latency = 6;
                let mut rfp6 = rfp();
                rfp6.mem.l1.latency = 6;
                vec![base(), rfp(), base6, rfp6]
            }
            "s553" => vec![base(), rfp(), rfp_with(&|r| r.use_context = true)],
            "s554" => vec![base(), rfp(), rfp_with(&|r| r.table.use_pat = false)],
            "s555" => vec![
                base(),
                rfp(),
                rfp_with(&|r| r.drop_on_tlb_miss = false),
                rfp_with(&|r| r.continue_on_l1_miss = false),
            ],
            "ext1" => vec![
                base(),
                rfp(),
                rfp_with(&|r| r.critical_only = true),
                rfp_with(&|r| r.table.entries = 128),
                rfp_with(&|r| {
                    r.critical_only = true;
                    r.table.entries = 128;
                }),
            ],
            "ext2" => {
                let mut gbase = base();
                gbase.branch_mode = rfp_core::BranchMode::Gshare;
                let mut grfp = rfp();
                grfp.branch_mode = rfp_core::BranchMode::Gshare;
                vec![base(), rfp(), gbase, grfp]
            }
            _ => Vec::new(), // tab1/tab2 are static; unknown ids fail later
        }
    }

    /// Total micro-ops simulated across all cached runs (warmup
    /// included) and the host wall-clock seconds those simulations took,
    /// summed per run (CPU-seconds when runs were parallel).
    pub fn simulated_totals(&self) -> (u64, f64) {
        let mut uops = 0u64;
        let mut secs = 0f64;
        for r in self.cache.values().chain(self.obs_cache.values()).flatten() {
            uops += r.stats.total_retired_uops;
            secs += r.wall_seconds();
        }
        (uops, secs)
    }

    /// The `label` is human-readable only; cache identity comes from the
    /// configuration content, so two experiments asking for the same
    /// config under different labels share one run.
    fn suite_for(&mut self, _label: &str, cfg: &CoreConfig) -> &[SimReport] {
        let key = config_key(cfg);
        if !self.cache.contains_key(&key) {
            let mut outcome =
                run_grid_pooled(&self.pool, std::slice::from_ref(cfg), self.threads, false);
            self.telemetry.extend(outcome.telemetry);
            let reports = outcome.reports.pop().expect("one config in, one row out");
            self.cache.insert(key, reports);
        }
        &self.cache[&key]
    }

    /// Like [`Self::suite_for`] but with a `MetricsSink` attached to every
    /// simulation, cached separately (see the `obs_cache` field note).
    fn obs_suite_for(&mut self, _label: &str, cfg: &CoreConfig) -> &[SimReport] {
        let key = config_key(cfg);
        if !self.obs_cache.contains_key(&key) {
            let mut outcome =
                run_grid_pooled(&self.pool, std::slice::from_ref(cfg), self.threads, true);
            self.telemetry.extend(outcome.telemetry);
            let reports = outcome.reports.pop().expect("one config in, one row out");
            self.obs_cache.insert(key, reports);
        }
        &self.obs_cache[&key]
    }

    /// The `--metrics-out` payload for `cfg`, produced through the
    /// harness's obs cache and warm pool — when `cfg` was pinned before
    /// the main sweep, this forks the sweep's snapshots instead of paying
    /// warmup again (and it shares the `timeliness` report's runs).
    pub fn metrics_json(&mut self, cfg: &CoreConfig) -> String {
        let len = self.len;
        let reports = self.obs_suite_for("metrics", cfg).to_vec();
        metrics_reports_json(cfg, len, &reports)
    }

    /// The `--sampling-report` payload for `cfg` (see
    /// [`sampling_report_json`]), produced through the obs cache — the
    /// metrics it summarizes come from whatever [`SimMode`] the harness's
    /// pool runs at, so the same call emits the full-fidelity reference
    /// or the sampled candidate depending on `RFP_SIM_MODE`.
    pub fn sampling_json(&mut self, cfg: &CoreConfig) -> String {
        let len = self.len;
        let reports = self.obs_suite_for("sampling", cfg).to_vec();
        sampling_report_json(cfg, len, &reports)
    }

    fn baseline(&mut self) -> Vec<SimReport> {
        self.suite_for("baseline", &CoreConfig::tiger_lake())
            .to_vec()
    }

    fn rfp(&mut self) -> Vec<SimReport> {
        self.suite_for("rfp", &CoreConfig::tiger_lake().with_rfp())
            .to_vec()
    }

    fn speedup_vs_baseline(&mut self, key: &str, cfg: &CoreConfig) -> f64 {
        let base = self.baseline();
        let new = self.suite_for(key, cfg).to_vec();
        geomean_speedup(&base, &new).unwrap_or(1.0)
    }

    // --- Figure 1 -----------------------------------------------------------

    /// Figure 1: oracle prefetch headroom per hierarchy level.
    pub fn fig1(&mut self) -> String {
        let rows = [
            ("L1 -> RF", OracleMode::L1ToRf, "9.0%"),
            ("L2 -> L1", OracleMode::L2ToL1, "~3%"),
            ("LLC -> L2", OracleMode::LlcToL2, "~4%"),
            ("Mem -> LLC", OracleMode::MemToLlc, "13.3%"),
        ];
        let mut t = TextTable::new(&["oracle prefetch", "speedup (measured)", "paper"]);
        for (label, mode, paper) in rows {
            let s = self.speedup_vs_baseline(
                &format!("oracle-{label}"),
                &CoreConfig::tiger_lake().with_oracle(mode),
            );
            t.row(&[label, &pct(s - 1.0), paper]);
        }
        format!(
            "Figure 1: performance headroom from oracle prefetching across the hierarchy\n\
             (an oracle from level N to N-1 serves all level-N hits at level-(N-1) latency)\n\n{}",
            t.render()
        )
    }

    // --- Figure 2 -----------------------------------------------------------

    /// Figure 2: distribution of demand loads across the hierarchy.
    pub fn fig2(&mut self) -> String {
        let base = self.baseline();
        let labels = ["L1", "MSHR", "L2", "LLC", "DRAM"];
        let paper = ["92.8%", "~3%", "~2%", "~1%", "~1%"];
        let mut t = TextTable::new(&["level", "loads served (measured)", "paper"]);
        for i in 0..5 {
            let frac = mean_frac(&base, |r| r.hit_distribution()[i]);
            t.row(&[labels[i], &pct(frac), paper[i]]);
        }
        format!(
            "Figure 2: demand-load hit distribution on the baseline\n\
             (MSHR = merged with an in-flight prefetch or demand fill)\n\n{}",
            t.render()
        )
    }

    // --- Tables -------------------------------------------------------------

    /// Table 1: RFP storage bill.
    pub fn tab1(&mut self) -> String {
        let rows = storage_table(1024, 2048, 128);
        let mut t = TextTable::new(&["structure", "fields", "storage"]);
        for r in &rows {
            t.row(&[&r.structure, &r.fields, &r.pretty_size()]);
        }
        format!(
            "Table 1: storage requirements for RFP\n\
             (paper: PT 6.5KB-12KB, PAT 352B of 44b entries, RFP-inflight 128b)\n\n{}",
            t.render()
        )
    }

    /// Table 2: core parameters of the simulated baseline.
    pub fn tab2(&mut self) -> String {
        let c = CoreConfig::tiger_lake();
        let c2 = CoreConfig::baseline_2x();
        let mut t = TextTable::new(&["parameter", "Baseline", "Baseline-2x"]);
        let rows: Vec<(&str, String, String)> = vec![
            (
                "width (rename/dispatch)",
                c.width.to_string(),
                c2.width.to_string(),
            ),
            (
                "ROB entries",
                c.rob_entries.to_string(),
                c2.rob_entries.to_string(),
            ),
            (
                "RS entries",
                c.rs_entries.to_string(),
                c2.rs_entries.to_string(),
            ),
            (
                "LDQ / STQ",
                format!("{} / {}", c.ldq_entries, c.stq_entries),
                format!("{} / {}", c2.ldq_entries, c2.stq_entries),
            ),
            (
                "ALU / FP ports",
                format!("{} / {}", c.alu_ports, c.fp_ports),
                format!("{} / {}", c2.alu_ports, c2.fp_ports),
            ),
            (
                "L1 load ports",
                c.ports.load_ports.to_string(),
                c2.ports.load_ports.to_string(),
            ),
            (
                "L1D",
                format!(
                    "{} KiB, {}-cycle",
                    c.mem.l1.size_bytes >> 10,
                    c.mem.l1.latency
                ),
                format!(
                    "{} KiB, {}-cycle",
                    c2.mem.l1.size_bytes >> 10,
                    c2.mem.l1.latency
                ),
            ),
            (
                "L2",
                format!(
                    "{} KiB, {}-cycle",
                    c.mem.l2.size_bytes >> 10,
                    c.mem.l2.latency
                ),
                format!(
                    "{} KiB, {}-cycle",
                    c2.mem.l2.size_bytes >> 10,
                    c2.mem.l2.latency
                ),
            ),
            (
                "LLC",
                format!(
                    "{} MiB, {}-cycle",
                    c.mem.llc.size_bytes >> 20,
                    c.mem.llc.latency
                ),
                format!(
                    "{} MiB, {}-cycle",
                    c2.mem.llc.size_bytes >> 20,
                    c2.mem.llc.latency
                ),
            ),
            (
                "DRAM latency",
                c.mem.dram_latency.to_string(),
                c2.mem.dram_latency.to_string(),
            ),
            (
                "VP flush penalty",
                c.vp_flush_penalty.to_string(),
                c2.vp_flush_penalty.to_string(),
            ),
        ];
        for (k, a, b) in &rows {
            t.row(&[k, a, b]);
        }
        format!("Table 2: core parameters for simulation\n\n{}", t.render())
    }

    // --- Figure 10/11/12 ------------------------------------------------------

    /// Figure 10: RFP speedup and coverage per category.
    pub fn fig10(&mut self) -> String {
        let base = self.baseline();
        let rfp = self.rfp();
        let mut t = TextTable::new(&["category", "speedup", "coverage"]);
        for cat in Category::ALL {
            let b: Vec<SimReport> = base
                .iter()
                .filter(|r| r.category == cat.label())
                .cloned()
                .collect();
            let n: Vec<SimReport> = rfp
                .iter()
                .filter(|r| r.category == cat.label())
                .cloned()
                .collect();
            let s = geomean_speedup(&b, &n).unwrap_or(1.0);
            let cov = mean_frac(&n, |r| r.coverage());
            t.row(&[cat.label(), &pct(s - 1.0), &pct(cov)]);
        }
        let s = geomean_speedup(&base, &rfp).unwrap_or(1.0);
        let cov = mean_frac(&rfp, |r| r.coverage());
        t.row(&["GEOMEAN/ALL", &pct(s - 1.0), &pct(cov)]);
        format!(
            "Figure 10: performance and coverage of RFP on the baseline processor\n\
             (paper geomean: +3.1% speedup at 43.4% coverage)\n\n{}",
            t.render()
        )
    }

    /// Figure 11: per-workload IPC gain vs coverage, sorted by gain.
    pub fn fig11(&mut self) -> String {
        let base = self.baseline();
        let rfp = self.rfp();
        let mut rows: Vec<(String, f64, f64)> = base
            .iter()
            .filter_map(|b| {
                let n = rfp.iter().find(|n| n.workload == b.workload)?;
                Some((b.workload.clone(), n.ipc() / b.ipc() - 1.0, n.coverage()))
            })
            .collect();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut t = TextTable::new(&["workload", "IPC gain", "coverage"]);
        for (w, g, c) in &rows {
            t.row(&[w, &pct(*g), &pct(*c)]);
        }
        format!(
            "Figure 11: IPC gain and coverage of RFP for all 65 workloads (sorted by gain)\n\
             (paper: gains correlate with coverage; low-coverage workloads like\n\
             spec06_tonto/gamess/milc gain least; lammps, spec06_namd,\n\
             spec17_xalancbmk, hadoop gain >4% below 40% coverage)\n\n{}",
            t.render()
        )
    }

    /// Figure 12: RFP on the up-scaled `Baseline-2x` core.
    pub fn fig12(&mut self) -> String {
        let base2 = self
            .suite_for("baseline2x", &CoreConfig::baseline_2x())
            .to_vec();
        let rfp2 = self
            .suite_for("baseline2x-rfp", &CoreConfig::baseline_2x().with_rfp())
            .to_vec();
        let s = geomean_speedup(&base2, &rfp2).unwrap_or(1.0);
        let cov = mean_frac(&rfp2, |r| r.coverage());
        let base = self.baseline();
        let rfp = self.rfp();
        let s1 = geomean_speedup(&base, &rfp).unwrap_or(1.0);
        let cov1 = mean_frac(&rfp, |r| r.coverage());
        let mut t = TextTable::new(&["core", "RFP speedup", "coverage", "paper"]);
        t.row(&["Baseline", &pct(s1 - 1.0), &pct(cov1), "+3.1% @ 43.4%"]);
        t.row(&["Baseline-2x", &pct(s - 1.0), &pct(cov), "+5.7% @ 53.7%"]);
        format!(
            "Figure 12: RFP on the futuristic up-scaled core (10-wide, doubled resources)\n\n{}",
            t.render()
        )
    }

    // --- Figure 13 / 14 / 5.2.2 ---------------------------------------------

    /// Figure 13: prefetch timeliness taxonomy per category.
    pub fn fig13(&mut self) -> String {
        let rfp = self.rfp();
        let mut t = TextTable::new(&["category", "injected", "executed", "useful", "wrong"]);
        for cat in Category::ALL {
            let n: Vec<SimReport> = rfp
                .iter()
                .filter(|r| r.category == cat.label())
                .cloned()
                .collect();
            t.row(&[
                cat.label(),
                &pct(mean_frac(&n, |r| r.injected_frac())),
                &pct(mean_frac(&n, |r| r.executed_frac())),
                &pct(mean_frac(&n, |r| r.coverage())),
                &pct(mean_frac(&n, |r| r.wrong_frac())),
            ]);
        }
        t.row(&[
            "ALL",
            &pct(mean_frac(&rfp, |r| r.injected_frac())),
            &pct(mean_frac(&rfp, |r| r.executed_frac())),
            &pct(mean_frac(&rfp, |r| r.coverage())),
            &pct(mean_frac(&rfp, |r| r.wrong_frac())),
        ]);
        format!(
            "Figure 13: timeliness and accuracy of RFP (fractions of all loads)\n\
             (paper: injected 72%, executed 48%, useful 43%, wrong ~5%)\n\n{}",
            t.render()
        )
    }

    /// Figure 14: shared vs dedicated L1 ports for RFP.
    pub fn fig14(&mut self) -> String {
        let base = self.baseline();
        let shared = self.rfp();
        let mut dedicated_cfg = CoreConfig::tiger_lake().with_rfp();
        dedicated_cfg.ports.dedicated_rfp = dedicated_cfg.ports.load_ports;
        let dedicated = self.suite_for("rfp-dedicated", &dedicated_cfg).to_vec();
        let s_sh = geomean_speedup(&base, &shared).unwrap_or(1.0);
        let s_de = geomean_speedup(&base, &dedicated).unwrap_or(1.0);
        let ex_sh = mean_frac(&shared, |r| r.executed_frac());
        let ex_de = mean_frac(&dedicated, |r| r.executed_frac());
        let mut t = TextTable::new(&["L1 ports for RFP", "speedup", "executed", "paper"]);
        t.row(&[
            "shared (lowest priority)",
            &pct(s_sh - 1.0),
            &pct(ex_sh),
            "+3.1%",
        ]);
        t.row(&[
            "dedicated (doubled ports)",
            &pct(s_de - 1.0),
            &pct(ex_de),
            "+4.0%",
        ]);
        let extra = if ex_sh > 0.0 {
            ex_de / ex_sh - 1.0
        } else {
            0.0
        };
        format!(
            "Figure 14: impact of L1 cache bandwidth on RFP timeliness\n\
             (paper: dedicated ports execute 16.1% more prefetches)\n\n{}\nextra prefetches executed with dedicated ports: {}\n",
            t.render(),
            pct(extra)
        )
    }

    /// Section 5.2.2: fully vs partially hidden load latency.
    pub fn s522(&mut self) -> String {
        let rfp = self.rfp();
        let full = mean_frac(&rfp, |r| r.fully_hidden_frac());
        let useful = mean_frac(&rfp, |r| r.coverage());
        let partial = (useful - full).max(0.0);
        let mut t = TextTable::new(&["effectiveness", "fraction of loads", "paper"]);
        t.row(&["latency fully hidden", &pct(full), "34.2%"]);
        t.row(&["latency partially hidden", &pct(partial), "9.2%"]);
        t.row(&["total useful", &pct(useful), "43.4%"]);
        format!(
            "Section 5.2.2: effectiveness of RFP (prefetch completes before the load dispatches)\n\n{}",
            t.render()
        )
    }

    // --- Figure 15 / 16 -------------------------------------------------------

    /// Figure 15: RFP vs value prediction vs their fusion.
    pub fn fig15(&mut self) -> String {
        let base = self.baseline();
        let mut comp = CoreConfig::tiger_lake();
        comp.vp = VpMode::Composite(ValuePredictorConfig::default(), DlvpConfig::default());
        let mut epp = CoreConfig::tiger_lake();
        epp.vp = VpMode::Epp(DlvpConfig::default());
        let mut fused = CoreConfig::tiger_lake().with_rfp();
        fused.vp = VpMode::Eves(ValuePredictorConfig::default());

        let comp_r = self.suite_for("composite-vp", &comp).to_vec();
        let epp_r = self.suite_for("epp", &epp).to_vec();
        let rfp_r = self.rfp();
        let fused_r = self.suite_for("vp+rfp", &fused).to_vec();

        let mut t = TextTable::new(&["configuration", "speedup", "coverage", "paper"]);
        t.row(&[
            "EPP [2]",
            &pct(geomean_speedup(&base, &epp_r).unwrap_or(1.0) - 1.0),
            &pct(mean_frac(&epp_r, |r| r.vp_coverage())),
            "+2.05%",
        ]);
        t.row(&[
            "Composite VP [68]",
            &pct(geomean_speedup(&base, &comp_r).unwrap_or(1.0) - 1.0),
            &pct(mean_frac(&comp_r, |r| r.vp_coverage())),
            "+2.2%",
        ]);
        t.row(&[
            "RFP (this paper)",
            &pct(geomean_speedup(&base, &rfp_r).unwrap_or(1.0) - 1.0),
            &pct(mean_frac(&rfp_r, |r| r.coverage())),
            "+3.1% @ 43.4%",
        ]);
        t.row(&[
            "VP + RFP",
            &pct(geomean_speedup(&base, &fused_r).unwrap_or(1.0) - 1.0),
            &pct(mean_frac(&fused_r, |r| r.vp_coverage() + r.coverage())),
            "+4.15% @ 54.6%",
        ]);
        format!(
            "Figure 15: RFP vs state-of-the-art value prediction (and their fusion)\n\
             (expected ordering: EPP <= Composite VP < RFP < VP+RFP)\n\n{}",
            t.render()
        )
    }

    /// Figure 16: the DLVP coverage waterfall.
    pub fn fig16(&mut self) -> String {
        let mut dl = CoreConfig::tiger_lake();
        dl.vp = VpMode::Dlvp(DlvpConfig::default());
        let d = self.suite_for("dlvp", &dl).to_vec();
        let loads: u64 = d.iter().map(|r| r.stats.retired_loads).sum();
        let frac = |f: fn(&SimReport) -> u64| -> f64 {
            if loads == 0 {
                0.0
            } else {
                d.iter().map(f).sum::<u64>() as f64 / loads as f64
            }
        };
        let mut t = TextTable::new(&["constraint", "loads remaining", "paper"]);
        t.row(&[
            "address predictable (any confidence)",
            &pct(frac(|r| r.stats.ap_known)),
            "~RFP level",
        ]);
        t.row(&[
            "AP high confidence (APHC)",
            &pct(frac(|r| r.stats.ap_high_confidence)),
            "49%",
        ]);
        t.row(&["+ no-FWD filter", &pct(frac(|r| r.stats.ap_no_fwd)), "45%"]);
        t.row(&[
            "+ L1 port available at fetch",
            &pct(frac(|r| r.stats.ap_probe_launched)),
            "22%",
        ]);
        t.row(&[
            "+ probe data back by allocate",
            &pct(frac(|r| r.stats.ap_probe_success)),
            "11%",
        ]);
        format!(
            "Figure 16: coverage of the DLVP address predictor under successive constraints\n\n{}",
            t.render()
        )
    }

    // --- Figure 17 / 18 and sensitivities --------------------------------------

    /// Figure 17: confidence-counter width sweep.
    pub fn fig17(&mut self) -> String {
        let base = self.baseline();
        let mut t = TextTable::new(&[
            "confidence bits",
            "speedup",
            "coverage",
            "wrong",
            "paper (speedup/cov)",
        ]);
        let paper = [
            "+3.1% / 43.4%",
            "+2.9% / 41.6%",
            "+2.7% / 39.9%",
            "+2.4% / 37.7%",
        ];
        for (i, bits) in [1u8, 2, 3, 4].iter().enumerate() {
            let mut cfg = CoreConfig::tiger_lake().with_rfp();
            if let Some(r) = cfg.rfp.as_mut() {
                r.table.confidence_bits = *bits;
            }
            let run = self.suite_for(&format!("rfp-conf{bits}"), &cfg).to_vec();
            t.row(&[
                &bits.to_string(),
                &pct(geomean_speedup(&base, &run).unwrap_or(1.0) - 1.0),
                &pct(mean_frac(&run, |r| r.coverage())),
                &pct(mean_frac(&run, |r| r.wrong_frac())),
                paper[i],
            ]);
        }
        format!(
            "Figure 17: impact of Prefetch Table confidence counter width\n\
             (wider counters: better accuracy, lower coverage; 1 bit is enough)\n\n{}",
            t.render()
        )
    }

    /// Figure 18: Prefetch Table size sweep.
    pub fn fig18(&mut self) -> String {
        let base = self.baseline();
        let paper = ["+3.1%", "+3.2%", "+3.3%", "+3.4%", "+3.5%"];
        let mut t = TextTable::new(&["PT entries", "speedup", "coverage", "paper"]);
        for (i, entries) in [1024usize, 2048, 4096, 8192, 16384].iter().enumerate() {
            let mut cfg = CoreConfig::tiger_lake().with_rfp();
            if let Some(r) = cfg.rfp.as_mut() {
                r.table.entries = *entries;
            }
            let run = self.suite_for(&format!("rfp-pt{entries}"), &cfg).to_vec();
            t.row(&[
                &format!("{}K", entries / 1024),
                &pct(geomean_speedup(&base, &run).unwrap_or(1.0) - 1.0),
                &pct(mean_frac(&run, |r| r.coverage())),
                paper[i],
            ]);
        }
        format!(
            "Figure 18: RFP sensitivity to Prefetch Table entries\n\
             (minor improvements from 1K to 16K, then flat)\n\n{}",
            t.render()
        )
    }

    /// Section 5.5.2: RFP gain with a 6-cycle L1.
    pub fn s552(&mut self) -> String {
        let base = self.baseline();
        let rfp = self.rfp();
        let mut base6 = CoreConfig::tiger_lake();
        base6.mem.l1.latency = 6;
        let mut rfp6 = CoreConfig::tiger_lake().with_rfp();
        rfp6.mem.l1.latency = 6;
        let b6 = self.suite_for("baseline-l1lat6", &base6).to_vec();
        let r6 = self.suite_for("rfp-l1lat6", &rfp6).to_vec();
        let mut t = TextTable::new(&["L1 latency", "RFP speedup", "paper"]);
        t.row(&[
            "5 cycles",
            &pct(geomean_speedup(&base, &rfp).unwrap_or(1.0) - 1.0),
            "+3.1%",
        ]);
        t.row(&[
            "6 cycles",
            &pct(geomean_speedup(&b6, &r6).unwrap_or(1.0) - 1.0),
            "+3.6%",
        ]);
        format!(
            "Section 5.5.2: RFP gains grow with L1 latency\n\n{}",
            t.render()
        )
    }

    /// Section 5.5.3: stride-only vs stride+context prefetcher.
    pub fn s553(&mut self) -> String {
        let base = self.baseline();
        let rfp = self.rfp();
        let mut ctx = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = ctx.rfp.as_mut() {
            r.use_context = true;
        }
        let c = self.suite_for("rfp-context", &ctx).to_vec();
        let s_stride = geomean_speedup(&base, &rfp).unwrap_or(1.0);
        let s_ctx = geomean_speedup(&base, &c).unwrap_or(1.0);
        let mut t = TextTable::new(&["RFP prefetcher", "speedup", "coverage"]);
        t.row(&[
            "stride only",
            &pct(s_stride - 1.0),
            &pct(mean_frac(&rfp, |r| r.coverage())),
        ]);
        t.row(&[
            "stride + context",
            &pct(s_ctx - 1.0),
            &pct(mean_frac(&c, |r| r.coverage())),
        ]);
        format!(
            "Section 5.5.3: the context (delta-correlating) prefetcher adds only\n\
             a marginal gain over stride (paper: +0.3%); measured delta: {}\n\n{}",
            pct(s_ctx - s_stride),
            t.render()
        )
    }

    /// Section 5.5.4: PAT area optimisation cost.
    pub fn s554(&mut self) -> String {
        let base = self.baseline();
        let rfp = self.rfp(); // PAT enabled by default
        let mut full = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = full.rfp.as_mut() {
            r.table.use_pat = false;
        }
        let f = self.suite_for("rfp-fulladdr", &full).to_vec();
        let s_pat = geomean_speedup(&base, &rfp).unwrap_or(1.0);
        let s_full = geomean_speedup(&base, &f).unwrap_or(1.0);
        let mut t = TextTable::new(&["PT address storage", "speedup", "PT size (1K entries)"]);
        let pat_kib = {
            let pt =
                rfp_predictors::PrefetchTable::new(PrefetchTableConfig::default()).expect("valid");
            format!("{:.1} KiB", pt.storage().total_kib())
        };
        let full_kib = {
            let pt = rfp_predictors::PrefetchTable::new(PrefetchTableConfig {
                use_pat: false,
                ..PrefetchTableConfig::default()
            })
            .expect("valid");
            format!("{:.1} KiB", pt.storage().total_kib())
        };
        t.row(&["PAT pointer + offset", &pct(s_pat - 1.0), &pat_kib]);
        t.row(&["full virtual address", &pct(s_full - 1.0), &full_kib]);
        format!(
            "Section 5.5.4: the Page Address Table saves ~50% storage for a\n\
             negligible performance cost (paper: -0.09%); measured delta: {}\n\n{}",
            pct(s_full - s_pat),
            t.render()
        )
    }

    /// Section 5.5.5: pipeline simplifications.
    pub fn s555(&mut self) -> String {
        let base = self.baseline();
        let rfp = self.rfp();
        let mut keep_tlb = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = keep_tlb.rfp.as_mut() {
            r.drop_on_tlb_miss = false;
        }
        let mut drop_miss = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = drop_miss.rfp.as_mut() {
            r.continue_on_l1_miss = false;
        }
        let kt = self.suite_for("rfp-keep-tlbmiss", &keep_tlb).to_vec();
        let dm = self.suite_for("rfp-drop-l1miss", &drop_miss).to_vec();
        let s0 = geomean_speedup(&base, &rfp).unwrap_or(1.0);
        let s1 = geomean_speedup(&base, &kt).unwrap_or(1.0);
        let s2 = geomean_speedup(&base, &dm).unwrap_or(1.0);
        let mut t = TextTable::new(&["variant", "speedup", "delta vs default"]);
        t.row(&[
            "default (drop on TLB miss, continue on L1 miss)",
            &pct(s0 - 1.0),
            "-",
        ]);
        t.row(&[
            "also prefetch across TLB misses",
            &pct(s1 - 1.0),
            &pct(s1 - s0),
        ]);
        t.row(&[
            "drop prefetches that miss the L1",
            &pct(s2 - 1.0),
            &pct(s2 - s0),
        ]);
        format!(
            "Section 5.5.5: pipeline simplifications\n\
             (paper: TLB-miss drop costs ~nothing; serving L1 misses adds only +0.02%)\n\n{}",
            t.render()
        )
    }
}

impl Harness {
    /// Extension study (paper 5.1 future work): criticality-targeted RFP.
    ///
    /// Only loads observed blocking retirement at the ROB head get
    /// prefetched. The question: how much of the gain survives with far
    /// fewer prefetches (saving L1 bandwidth and PT footprint)?
    pub fn ext1(&mut self) -> String {
        let base = self.baseline();
        let rfp = self.rfp();

        let mut crit = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = crit.rfp.as_mut() {
            r.critical_only = true;
        }
        let crit_r = self.suite_for("rfp-critical", &crit).to_vec();

        let mut small = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = small.rfp.as_mut() {
            r.table.entries = 128;
        }
        let small_r = self.suite_for("rfp-pt128", &small).to_vec();

        let mut crit_small = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = crit_small.rfp.as_mut() {
            r.critical_only = true;
            r.table.entries = 128;
        }
        let cs_r = self.suite_for("rfp-critical-pt128", &crit_small).to_vec();

        let mut t = TextTable::new(&["configuration", "speedup", "coverage", "injected"]);
        let mut row = |label: &str, rs: &[SimReport]| {
            t.row(&[
                label,
                &pct(geomean_speedup(&base, rs).unwrap_or(1.0) - 1.0),
                &pct(mean_frac(rs, |r| r.coverage())),
                &pct(mean_frac(rs, |r| r.injected_frac())),
            ]);
        };
        row("RFP (all eligible loads, 1K PT)", &rfp);
        row("RFP critical-only (1K PT)", &crit_r);
        row("RFP all loads, 128-entry PT", &small_r);
        row("RFP critical-only, 128-entry PT", &cs_r);
        format!(
            "Extension 1 (paper 5.1 future work): criticality-targeted RFP\n\
             (only loads seen blocking retirement at the ROB head inject prefetches;\n\
             the interesting cell is how much speedup survives at a fraction of the\n\
             prefetch traffic and table footprint)\n\n{}",
            t.render()
        )
    }
}

impl Harness {
    /// Extension study: modelled gshare branch prediction instead of the
    /// trace's oracle mispredict markers.
    ///
    /// The calibrated suite embeds per-workload mispredict rates in the
    /// trace; this study swaps in a real 12-bit gshare over the actual
    /// branch outcome stream and checks that RFP's benefit is robust to
    /// how the front-end is modelled.
    pub fn ext2(&mut self) -> String {
        let base = self.baseline();
        let rfp = self.rfp();

        let mut gbase = CoreConfig::tiger_lake();
        gbase.branch_mode = rfp_core::BranchMode::Gshare;
        let mut grfp = CoreConfig::tiger_lake().with_rfp();
        grfp.branch_mode = rfp_core::BranchMode::Gshare;
        let gb = self.suite_for("baseline-gshare", &gbase).to_vec();
        let gr = self.suite_for("rfp-gshare", &grfp).to_vec();

        let mut t = TextTable::new(&["front-end model", "RFP speedup", "baseline IPC (mean)"]);
        let mean_ipc = |rs: &[SimReport]| {
            if rs.is_empty() {
                0.0
            } else {
                rs.iter().map(|r| r.ipc()).sum::<f64>() / rs.len() as f64
            }
        };
        t.row(&[
            "trace-oracle mispredicts",
            &pct(geomean_speedup(&base, &rfp).unwrap_or(1.0) - 1.0),
            &format!("{:.3}", mean_ipc(&base)),
        ]);
        t.row(&[
            "modelled gshare predictor",
            &pct(geomean_speedup(&gb, &gr).unwrap_or(1.0) - 1.0),
            &format!("{:.3}", mean_ipc(&gb)),
        ]);
        format!(
            "Extension 2: RFP robustness to the branch-prediction model\n\
             (the RFP gain should be of the same order under either front end)\n\n{}",
            t.render()
        )
    }
}

impl Harness {
    /// Observability report (`experiments timeliness`): *when* prefetched
    /// data actually arrives, from per-prefetch lifetime histograms.
    ///
    /// The counters behind Fig. 13/14 and §5.2.2 say how many prefetches
    /// were useful or fully hidden; the histograms collected by the
    /// metrics sink say how early or late each one completed relative to
    /// its load's issue, how long packets waited for an L1 port, and why
    /// the rest died. Shared vs dedicated L1 ports (the Fig. 14 axis)
    /// shows how bandwidth shifts the whole distribution.
    pub fn timeliness(&mut self) -> String {
        let shared = self.obs_suite_for("rfp-obs", &CoreConfig::tiger_lake().with_rfp());
        let sh = Self::merged_obs(shared);
        let mut dedicated_cfg = CoreConfig::tiger_lake().with_rfp();
        dedicated_cfg.ports.dedicated_rfp = dedicated_cfg.ports.load_ports;
        let dedicated = self.obs_suite_for("rfp-dedicated-obs", &dedicated_cfg);
        let de = Self::merged_obs(dedicated);

        let frac = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut t = TextTable::new(&[
            "L1 ports for RFP",
            "useful",
            "fully hidden",
            "late <=16cy",
            "late >16cy",
            "median queue wait",
        ]);
        for (label, m) in [
            ("shared (lowest priority)", &sh),
            ("dedicated (doubled)", &de),
        ] {
            let total = m.rfp_complete_rel_issue.total();
            let hidden = m.rfp_complete_rel_issue.count_le(1);
            let near = m.rfp_complete_rel_issue.count_le(16) - hidden;
            t.row(&[
                label,
                &total.to_string(),
                &pct(frac(hidden, total)),
                &pct(frac(near, total)),
                &pct(frac(total - hidden - near, total)),
                &format!("{} cy", Self::median_bucket_label(&m.rfp_queue_wait)),
            ]);
        }

        let mut d = TextTable::new(&[
            "drop reason",
            "shared",
            "share",
            "dedicated",
            "share (dedicated)",
        ]);
        let sh_drops = sh.drops_by_reason();
        let de_drops = de.drops_by_reason();
        let sh_total: u64 = sh_drops.iter().sum();
        let de_total: u64 = de_drops.iter().sum();
        let reasons = [
            "load-first",
            "tlb-miss",
            "queue-full",
            "l1-miss",
            "squashed",
        ];
        for (i, reason) in reasons.iter().enumerate() {
            d.row(&[
                reason,
                &sh_drops[i].to_string(),
                &pct(frac(sh_drops[i], sh_total)),
                &de_drops[i].to_string(),
                &pct(frac(de_drops[i], de_total)),
            ]);
        }

        let mut h = TextTable::new(&["completion - load issue", "prefetches", "share"]);
        let rel = &sh.rfp_complete_rel_issue;
        let rel_total = rel.total();
        if rel.neg.total() > 0 {
            h.row(&[
                "early (before issue)",
                &rel.neg.total().to_string(),
                &pct(frac(rel.neg.total(), rel_total)),
            ]);
        }
        for (k, &count) in rel.nonneg.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (lo, hi) = Log2Histogram::bucket_range(k);
            let label = if hi == u64::MAX {
                format!(">= {lo} cycles after issue")
            } else if hi - lo <= 1 {
                format!("{lo} cycles after issue")
            } else {
                format!("{lo}-{} cycles after issue", hi - 1)
            };
            h.row(&[&label, &count.to_string(), &pct(frac(count, rel_total))]);
        }

        format!(
            "Timeliness (observability): per-prefetch completion relative to load issue\n\
             (fully hidden = complete <= issue + 1, the paper's 34.2% class in §5.2.2;\n\
             histograms from the rfp-obs metrics sink, aggregated over all 65 workloads)\n\n\
             {}\nRFP drop funnel (every injected packet lands in exactly one bucket):\n\n{}\n\
             Completion distribution, shared ports:\n\n{}",
            t.render(),
            d.render(),
            h.render()
        )
    }

    /// Observability report (`experiments cpi`): cycle-accounting CPI
    /// stacks, their interval time-series, and the Fig. 1 headroom
    /// cross-check.
    ///
    /// Every retire slot of every measured cycle is charged to exactly
    /// one bucket at retire time (DESIGN §9.5), so the stacks are a
    /// *conserved* decomposition of runtime: buckets sum to
    /// `cycles x retire_width` exactly. Three configs side by side show
    /// where the baseline spends its slots, what RFP reclaims (plus the
    /// `rfp-late` bucket it introduces), and what a perfect L1->RF
    /// oracle would reclaim — the paper's ~9% headroom claim.
    pub fn cpi(&mut self) -> String {
        let base_cfg = CoreConfig::tiger_lake();
        let rfp_cfg = CoreConfig::tiger_lake().with_rfp();
        let oracle_cfg = CoreConfig::tiger_lake().with_oracle(OracleMode::L1ToRf);
        let width = base_cfg.retire_width as f64;
        let base = self.obs_suite_for("baseline-obs", &base_cfg).to_vec();
        let rfp = self.obs_suite_for("rfp-obs", &rfp_cfg).to_vec();
        let oracle = self.obs_suite_for("oracle-l1-obs", &oracle_cfg).to_vec();
        let b = Self::merged_cpi(&base);
        let r = Self::merged_cpi(&rfp);
        let o = Self::merged_cpi(&oracle);

        // CPI from the stack itself: slots/width = cycles, retiring
        // slots = uops. Conservation makes this exact, not approximate.
        let cpi_of = |s: &rfp_stats::CpiStack| -> f64 {
            let uops = s.get(CpiBucket::Retiring) + s.get(CpiBucket::RetiringRfpHidden);
            if uops == 0 {
                0.0
            } else {
                s.total() as f64 / width / uops as f64
            }
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den - 1.0 } else { 0.0 };

        let mut t = TextTable::new(&[
            "retire-slot bucket",
            "baseline",
            "RFP",
            "delta",
            "oracle L1->RF",
        ]);
        for bucket in CpiBucket::ALL {
            let (fb, fr, fo) = (
                b.stack.frac(bucket),
                r.stack.frac(bucket),
                o.stack.frac(bucket),
            );
            if fb == 0.0 && fr == 0.0 && fo == 0.0 {
                continue; // never charged under any of the three configs
            }
            t.row(&[bucket.label(), &pct(fb), &pct(fr), &pct(fr - fb), &pct(fo)]);
        }
        let (bc, rc, oc) = (cpi_of(&b.stack), cpi_of(&r.stack), cpi_of(&o.stack));
        t.row(&[
            "CPI",
            &format!("{bc:.3}"),
            &format!("{rc:.3}"),
            &pct(ratio(rc, bc)),
            &format!("{oc:.3}"),
        ]);

        let mut rows: Vec<(String, f64, f64, f64, f64)> = base
            .iter()
            .filter_map(|bw| {
                let rw = rfp.iter().find(|n| n.workload == bw.workload)?;
                let bs = &bw.cpi.as_ref().expect("cpi-instrumented run").stack;
                let rs = &rw.cpi.as_ref().expect("cpi-instrumented run").stack;
                let (wb, wr) = (cpi_of(bs), cpi_of(rs));
                Some((
                    bw.workload.clone(),
                    wb,
                    wr,
                    ratio(wr, wb),
                    bs.frac(CpiBucket::MemL1),
                ))
            })
            .collect();
        rows.sort_by(|a, b| a.3.total_cmp(&b.3));
        let mut w = TextTable::new(&[
            "workload",
            "base CPI",
            "RFP CPI",
            "delta",
            "base mem-l1 slice",
        ]);
        for (name, wb, wr, d, l1) in &rows {
            w.row(&[
                name,
                &format!("{wb:.3}"),
                &format!("{wr:.3}"),
                &pct(*d),
                &pct(*l1),
            ]);
        }

        let mut iv = TextTable::new(&[
            "epoch (retired uops)",
            "CPI",
            "top stall bucket",
            "stall share",
        ]);
        for (k, s) in r.intervals.iter().enumerate() {
            if s.total() == 0 {
                continue; // epochs past the measured window stay empty
            }
            let lo = (k as u64) << CPI_INTERVAL_SHIFT;
            let label = if k + 1 == CPI_INTERVALS {
                format!("{lo}+")
            } else {
                format!("{lo}-{}", lo + (1 << CPI_INTERVAL_SHIFT) - 1)
            };
            let top = CpiBucket::ALL
                .iter()
                .copied()
                .filter(|bkt| !matches!(bkt, CpiBucket::Retiring | CpiBucket::RetiringRfpHidden))
                .max_by_key(|bkt| s.get(*bkt))
                .expect("non-empty bucket list");
            iv.row(&[
                &label,
                &format!("{:.3}", cpi_of(s)),
                top.label(),
                &pct(s.frac(top)),
            ]);
        }

        let s_oracle = geomean_speedup(&base, &oracle).unwrap_or(1.0);
        let s_rfp = geomean_speedup(&base, &rfp).unwrap_or(1.0);
        format!(
            "CPI stacks (observability): where every retire slot of every cycle went\n\
             (one bucket per slot, charged at retire; buckets sum exactly to\n\
             cycles x retire_width; aggregated over all 65 workloads)\n\n{}\n\
             Headroom cross-check (Fig. 1): the baseline spends {} of its retire\n\
             slots stalled on L1-hit latency (mem-l1); the L1->RF oracle reclaims\n\
             them for a measured {} speedup (paper: ~9%), of which RFP's realistic\n\
             prefetcher captures {}.\n\n\
             Per-workload CPI under RFP (sorted by delta):\n\n{}\n\
             RFP interval time-series, aggregated over workloads ({}-uop epochs):\n\n{}",
            t.render(),
            pct(b.stack.frac(CpiBucket::MemL1)),
            pct(s_oracle - 1.0),
            pct(s_rfp - 1.0),
            w.render(),
            1u64 << CPI_INTERVAL_SHIFT,
            iv.render()
        )
    }

    /// Observability report (`experiments profile`): *why* every RFP
    /// prefetch succeeded or failed, attributed to the static load PC
    /// that spawned it.
    ///
    /// The aggregate funnel (`timeliness`) says how many packets died of
    /// each cause; this report says *where*. Every prefetch-lifecycle
    /// event carries its load's PC, so the profiler can rank call sites
    /// by the retire slots their misses actually cost (the join against
    /// the CPI-stack attribution) and name each site's bottleneck —
    /// port starvation, lateness, a cold predictor — instead of leaving
    /// the user to guess from whole-run percentages.
    ///
    /// Before rendering, the per-site sums are reconciled against the
    /// independently-collected `CoreStats` and [`ObsMetrics`] aggregates
    /// ([`Self::reconcile_profile`]); any mismatch is a hard error.
    pub fn profile(&mut self) -> String {
        let reports = self
            .obs_suite_for("rfp-obs", &CoreConfig::tiger_lake().with_rfp())
            .to_vec();
        let prof = Self::reconcile_profile(&reports);
        let t = prof.totals();
        let frac = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };

        let mut top = TextTable::new(&[
            "site",
            "loads",
            "miss share",
            "coverage",
            "late",
            "mean Q wait",
            "stall slots",
            "bottleneck",
        ]);
        for (pc, s) in prof.top_offenders(15) {
            top.row(&[
                &format!("{pc:#x}"),
                &s.loads.to_string(),
                &pct(frac(s.misses, t.misses)),
                &pct(s.coverage()),
                &pct(s.late_frac()),
                &format!("{:.1} cy", s.mean_queue_wait()),
                &s.stall_slots.to_string(),
                s.bottleneck(),
            ]);
        }

        let mut outcomes = TextTable::new(&["terminal outcome", "packets", "share"]);
        let terminal = t.terminal_total();
        outcomes.row(&[
            "useful, fully hidden",
            &t.useful_fully_hidden.to_string(),
            &pct(frac(t.useful_fully_hidden, terminal)),
        ]);
        outcomes.row(&[
            "useful, late",
            &t.useful_late.to_string(),
            &pct(frac(t.useful_late, terminal)),
        ]);
        outcomes.row(&[
            "wrong address",
            &t.wrong_addr.to_string(),
            &pct(frac(t.wrong_addr, terminal)),
        ]);
        for (label, &count) in PROFILE_DROP_LABELS.iter().zip(&t.drops) {
            if *label == "queue-full" {
                continue; // outside the funnel: never injected
            }
            outcomes.row(&[
                &format!("dropped: {label}"),
                &count.to_string(),
                &pct(frac(count, terminal)),
            ]);
        }

        let mut np = TextTable::new(&["no prediction because", "loads"]);
        np.row(&["(queue full, pre-inject)", &t.drops[2].to_string()]);
        for (label, &count) in PREDICT_MISS_LABELS.iter().zip(&t.not_predicted) {
            np.row(&[label, &count.to_string()]);
        }

        format!(
            "Per-load-PC attribution (observability): why each site's prefetches\n\
             succeeded or failed, over all 65 workloads under the RFP config.\n\
             Sites ranked by retire slots lost to memory/rfp-late stalls while a\n\
             load from that PC blocked the ROB head; reconciliation against the\n\
             aggregate counters passed exactly.\n\n\
             {} distinct load sites; top offenders:\n\n{}\n\
             Terminal outcome of every injected packet:\n\n{}\n\
             Loads that never injected a packet:\n\n{}",
            prof.site_count(),
            top.render(),
            outcomes.render(),
            np.render()
        )
    }

    /// Merges an obs-instrumented suite's per-site profiles and
    /// cross-checks them against the two independent aggregate views of
    /// the same run — `CoreStats` (the simulator's own counters) and the
    /// [`ObsMetrics`] sink — panicking on any mismatch. The profiler is
    /// a *decomposition* of those aggregates, so the sums must reconcile
    /// exactly, refined reasons folded through the same mapping
    /// `MetricsSink` uses (mshr-starve -> l1-miss, no-port -> load-first).
    ///
    /// # Panics
    ///
    /// Panics when any per-site sum disagrees with its aggregate — that
    /// means the event stream and the counters have diverged and every
    /// number in the report is suspect.
    pub fn reconcile_profile(reports: &[SimReport]) -> ProfileReport {
        let prof = Self::merged_profile(reports);
        let obs = Self::merged_obs(reports);
        let t = prof.totals();
        let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
        assert_eq!(
            t.useful(),
            sum(&|r| r.stats.rfp_useful),
            "per-site useful prefetches != CoreStats rfp_useful"
        );
        assert_eq!(
            t.useful(),
            obs.rfp_complete_rel_issue.total(),
            "per-site useful prefetches != ObsMetrics timeliness samples"
        );
        assert_eq!(
            t.injected,
            sum(&|r| r.stats.rfp_injected),
            "per-site injections != CoreStats rfp_injected"
        );
        assert_eq!(
            t.wrong_addr,
            sum(&|r| r.stats.rfp_wrong_addr),
            "per-site wrong-address != CoreStats rfp_wrong_addr"
        );
        let folded = [
            t.drops[0] + t.drops[6], // load-first + no-port
            t.drops[1],
            t.drops[2],
            t.drops[3] + t.drops[5], // l1-miss + mshr-starve
            t.drops[4],
        ];
        let stats_funnel = [
            sum(&|r| r.stats.rfp_dropped_load_first),
            sum(&|r| r.stats.rfp_dropped_tlb),
            sum(&|r| r.stats.rfp_dropped_queue_full),
            sum(&|r| r.stats.rfp_dropped_l1_miss),
            sum(&|r| r.stats.rfp_dropped_squashed),
        ];
        assert_eq!(
            folded, stats_funnel,
            "per-site drop funnel != CoreStats rfp_dropped_*"
        );
        assert_eq!(
            folded,
            obs.drops_by_reason(),
            "per-site drop funnel != ObsMetrics drop timeline"
        );
        prof
    }

    /// The `--profile-out` payload for `cfg`: the per-site profile of an
    /// obs-instrumented suite run as one JSON document, reconciled first
    /// (see [`Self::reconcile_profile`]). A separate document from
    /// [`Self::metrics_json`] so the metrics baseline stays untouched;
    /// gate it with `experiments diff baselines/profile.json`.
    pub fn profile_json(&mut self, cfg: &CoreConfig) -> String {
        let len = self.len;
        let reports = self.obs_suite_for("profile", cfg).to_vec();
        profile_reports_json(cfg, len, &reports)
    }

    /// The `--collapsed-out` payload for `cfg`: the merged per-site
    /// profile as collapsed stacks (`pc;outcome count` lines) for
    /// flamegraph tooling.
    pub fn profile_collapsed(&mut self, cfg: &CoreConfig) -> String {
        let reports = self.obs_suite_for("profile", cfg).to_vec();
        Self::merged_profile(&reports).collapsed()
    }

    /// Merges the per-workload profiles of an obs-instrumented suite run
    /// into one report (commutative, so order doesn't matter).
    fn merged_profile(reports: &[SimReport]) -> ProfileReport {
        let mut m = ProfileReport::default();
        for r in reports {
            m.merge(r.profile.as_ref().expect("profile-instrumented run"));
        }
        m
    }

    /// Merges the per-workload metrics of an obs-instrumented suite run
    /// into one aggregate (commutative, so order doesn't matter).
    fn merged_obs(reports: &[SimReport]) -> ObsMetrics {
        let mut m = ObsMetrics::default();
        for r in reports {
            m.merge(r.obs.as_ref().expect("obs-instrumented run"));
        }
        m
    }

    /// Merges the per-workload CPI reports of an instrumented suite run
    /// into one aggregate (plain addition, so order doesn't matter).
    fn merged_cpi(reports: &[SimReport]) -> CpiReport {
        let mut m = CpiReport::default();
        for r in reports {
            m.merge(r.cpi.as_ref().expect("cpi-instrumented run"));
        }
        m
    }

    /// Lower bound of the bucket holding the median sample — a cheap,
    /// deterministic "typical value" label for a log2 histogram.
    fn median_bucket_label(h: &Log2Histogram) -> String {
        let total = h.total();
        if total == 0 {
            return "-".to_string();
        }
        let mut seen = 0u64;
        for (k, &c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen * 2 >= total {
                return Log2Histogram::bucket_range(k).0.to_string();
            }
        }
        unreachable!("total > 0 implies a median bucket")
    }
}

/// Simulates `workload` under `cfg` with a Chrome-trace sink attached and
/// returns the Perfetto/`chrome://tracing`-loadable JSON document: one
/// timeline lane set for the retired pipeline, one for prefetch lifetime
/// spans (inject → register-file writeback), one for L1-port denials.
pub fn trace_workload_json(cfg: &CoreConfig, workload: &rfp_trace::Workload, len: u64) -> String {
    let sink = rfp_obs::ChromeTraceSink::new(cfg.rob_entries);
    let (_report, sink) =
        rfp_core::simulate_workload_probed(cfg, workload, len, sink).expect("valid config");
    sink.into_json()
}

/// Renders the per-workload latency histograms of obs-instrumented
/// `reports` (one suite row, as produced by [`run_grid_obs`]) as a JSON
/// document, plus their order-independent aggregate.
///
/// # Panics
///
/// Panics if a report carries no `obs` or `cpi` payload.
pub fn metrics_reports_json(cfg: &CoreConfig, len: u64, reports: &[SimReport]) -> String {
    let mut agg = ObsMetrics::default();
    let mut agg_cpi = CpiReport::default();
    let mut rows = Vec::with_capacity(reports.len());
    for r in reports {
        let m = r.obs.as_ref().expect("obs-instrumented run");
        let c = r.cpi.as_ref().expect("cpi-instrumented run");
        agg.merge(m);
        agg_cpi.merge(c);
        rows.push(format!(
            "{{\"workload\":\"{}\",\"category\":\"{}\",\"metrics\":{},\"cpi\":{}}}",
            json_escape(&r.workload),
            json_escape(&r.category),
            m.to_json(),
            c.to_json()
        ));
    }
    format!(
        "{{\"config_key\":\"{:016x}\",\"len\":{len},\"aggregate\":{},\"aggregate_cpi\":{},\
         \"workloads\":[{}]}}\n",
        config_key(cfg),
        agg.to_json(),
        agg_cpi.to_json(),
        rows.join(",")
    )
}

/// Renders the merged per-site profile of obs-instrumented `reports`
/// (one suite row, as produced by [`run_grid_obs`]) as one JSON document
/// — the `--profile-out` payload — after reconciling the per-site sums
/// against the aggregate counters ([`Harness::reconcile_profile`]).
///
/// # Panics
///
/// Panics if a report carries no `profile` payload or the sums fail to
/// reconcile.
pub fn profile_reports_json(cfg: &CoreConfig, len: u64, reports: &[SimReport]) -> String {
    let prof = Harness::reconcile_profile(reports);
    format!(
        "{{\"config_key\":\"{:016x}\",\"len\":{len},\"profile\":{}}}\n",
        config_key(cfg),
        prof.to_json()
    )
}

/// Runs the whole suite under `cfg` with metrics sinks attached and
/// returns the [`metrics_reports_json`] document (the `--metrics-out`
/// payload).
pub fn metrics_suite_json(cfg: &CoreConfig, len: u64, threads: usize) -> String {
    let reports = run_grid_obs(std::slice::from_ref(cfg), len, threads)
        .pop()
        .expect("one config in, one row out");
    metrics_reports_json(cfg, len, &reports)
}

/// The `--sampling-report` payload: a compact per-workload document of
/// exactly the headline metrics the phase sampler's accuracy gate
/// tracks — IPC, RFP coverage, cycles and the whole-run CPI stack
/// rendered as *shares* (each bucket's fraction of total retire
/// slots). Shares rather than raw slot counts because the gate's
/// relative-error formula (`|b - a| / max(|a|, 1)`) degenerates to an
/// absolute count on near-empty buckets — a 3-slot bucket that
/// extrapolates to 2600 slots would read as a "2600x" error even
/// though it moved 0.02% of the stack. A share diff *is* the
/// displacement of the CPI stack, which is what the sampler actually
/// promises to preserve. Generated once in full fidelity and once
/// under `RFP_SIM_MODE=sample`, the two documents feed
/// `experiments diff` with `baselines/sampling_tolerances.json` as
/// the gating overlay.
///
/// # Panics
///
/// Panics if a report carries no `cpi` payload (the document needs
/// obs-instrumented runs).
pub fn sampling_report_json(cfg: &CoreConfig, len: u64, reports: &[SimReport]) -> String {
    let mut rows = Vec::with_capacity(reports.len());
    for r in reports {
        let c = r.cpi.as_ref().expect("cpi-instrumented run");
        let total: u64 = CpiBucket::ALL.iter().map(|&b| c.stack.get(b)).sum();
        let buckets: Vec<String> = CpiBucket::ALL
            .iter()
            .map(|&b| {
                let share = c.stack.get(b) as f64 / total.max(1) as f64;
                format!("\"{}\":{share:.6}", b.label())
            })
            .collect();
        rows.push(format!(
            "{{\"workload\":\"{}\",\"ipc\":{:.6},\"coverage\":{:.6},\"cycles\":{},\
             \"cpi\":{{{}}}}}",
            json_escape(&r.workload),
            r.ipc(),
            r.coverage(),
            r.stats.cycles,
            buckets.join(",")
        ));
    }
    format!(
        "{{\"config_key\":\"{:016x}\",\"len\":{len},\"workloads\":[{}]}}\n",
        config_key(cfg),
        rows.join(",")
    )
}

/// Summarizes the sampling error between two [`sampling_report_json`]
/// documents (full fidelity vs sampled) as per-metric p50/p95/max
/// relative errors across the workload suite — the CI error-bound
/// artifact. The relative-error formula matches [`diff_metrics`]
/// (`|b - a| / max(|a|, 1)`), so the report predicts exactly what the
/// tolerance gate will see.
///
/// # Errors
///
/// Returns `Err` when either document fails to parse.
pub fn sampling_error_report_json(full_text: &str, sampled_text: &str) -> Result<String, String> {
    let full = flatten(&parse_json(full_text).map_err(|e| format!("full: {e}"))?);
    let sampled = flatten(&parse_json(sampled_text).map_err(|e| format!("sampled: {e}"))?);
    // Group per-workload leaves by metric path (the part after
    // `workloads[i].`); non-numeric leaves (names) don't participate.
    let mut by_metric: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut workloads = 0usize;
    for (path, v) in &full {
        let Some(bracket) = path.strip_prefix("workloads[") else {
            continue;
        };
        let Some((_, metric)) = bracket.split_once("].") else {
            continue;
        };
        let (Json::Num(a), Some(Json::Num(b))) = (v, sampled.get(path)) else {
            continue;
        };
        if metric == "ipc" {
            workloads += 1;
        }
        let rel = (b - a).abs() / a.abs().max(1.0);
        by_metric.entry(metric.to_string()).or_default().push(rel);
    }
    let mut worst: (String, f64) = (String::new(), -1.0);
    let mut rows = Vec::with_capacity(by_metric.len());
    for (metric, mut errs) in by_metric {
        errs.sort_by(f64::total_cmp);
        let p50 = rfp_stats::percentile(&errs, 50).unwrap_or(0.0);
        let p95 = rfp_stats::percentile(&errs, 95).unwrap_or(0.0);
        let max = errs.last().copied().unwrap_or(0.0);
        if max > worst.1 {
            worst = (metric.clone(), max);
        }
        rows.push(format!(
            "\"{}\":{{\"p50\":{p50:.6},\"p95\":{p95:.6},\"max\":{max:.6}}}",
            json_escape(&metric)
        ));
    }
    Ok(format!(
        "{{\"workloads\":{workloads},\"worst_metric\":\"{}\",\"worst_rel_error\":{:.6},\
         \"metrics\":{{{}}}}}\n",
        json_escape(&worst.0),
        worst.1.max(0.0),
        rows.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_experiments_render() {
        let mut h = Harness::new(5_000);
        let t1 = h.tab1();
        assert!(t1.contains("Prefetch Table"));
        assert!(t1.contains("Page Address Table"));
        let t2 = h.tab2();
        assert!(t2.contains("ROB entries"));
        assert!(t2.contains("352"));
    }

    #[test]
    fn all_ids_dispatch() {
        // Only the static experiments are cheap enough for unit tests; the
        // dynamic ones are covered by the integration suite.
        assert!(Harness::ALL_IDS.contains(&"fig10"));
        assert_eq!(Harness::ALL_IDS.len(), 20);
    }

    #[test]
    fn plans_cover_every_dynamic_experiment() {
        for id in Harness::ALL_IDS {
            let plan = Harness::plan(id);
            if id == "tab1" || id == "tab2" {
                assert!(plan.is_empty(), "{id} is static");
            } else {
                assert!(!plan.is_empty(), "{id} needs a plan for prefetching");
                for cfg in &plan {
                    assert!(cfg.validate().is_ok(), "{id} planned an invalid config");
                }
            }
        }
        assert!(Harness::plan("nonsense").is_empty());
    }

    #[test]
    fn timeliness_is_an_extra_outside_all() {
        // `all` must stay byte-identical to pre-observability builds, so
        // the timeliness report dispatches by name without joining the
        // canonical id list.
        assert!(!Harness::ALL_IDS.contains(&"timeliness"));
        let mut h = Harness::with_threads(1_000, 2);
        let s = h.run("timeliness");
        assert!(s.contains("fully hidden"));
        assert!(s.contains("queue-full"));
        assert!(s.contains("Completion distribution"));
        // Instrumented runs never pollute the plain cache (their canonical
        // text differs), and every grid leaves telemetry behind.
        assert_eq!(h.cache.len(), 0);
        assert_eq!(h.obs_cache.len(), 2);
        assert!(!h.job_telemetry().is_empty());
    }

    #[test]
    fn cpi_is_an_extra_outside_all() {
        // Same contract as `timeliness`: `all` stays byte-identical, so
        // the CPI report dispatches by name without joining `ALL_IDS`.
        assert!(!Harness::ALL_IDS.contains(&"cpi"));
        let mut h = Harness::with_threads(1_000, 2);
        let s = h.run("cpi");
        assert!(s.contains("retire-slot bucket"));
        assert!(s.contains("mem-l1"));
        assert!(s.contains("Headroom cross-check"));
        assert!(s.contains("interval time-series"));
        // Three instrumented configs (baseline, RFP, oracle), no plain runs.
        assert_eq!(h.cache.len(), 0);
        assert_eq!(h.obs_cache.len(), 3);
    }

    #[test]
    fn profile_is_an_extra_outside_all() {
        // Same contract as `timeliness`/`cpi`: `all` stays byte-identical,
        // so the profiler dispatches by name without joining `ALL_IDS`.
        assert!(!Harness::ALL_IDS.contains(&"profile"));
        let mut h = Harness::with_threads(1_000, 2);
        let s = h.run("profile");
        assert!(s.contains("top offenders"));
        assert!(s.contains("bottleneck"));
        assert!(s.contains("useful, fully hidden"));
        assert!(s.contains("0x"), "sites are hex PCs");
        // One instrumented config (RFP), no plain runs.
        assert_eq!(h.cache.len(), 0);
        assert_eq!(h.obs_cache.len(), 1);
        // The shared obs pass: `timeliness` reuses the RFP run the
        // profiler just paid for and only adds the dedicated-ports one.
        h.run("timeliness");
        assert_eq!(h.obs_cache.len(), 2, "rfp obs run simulated once");
    }

    #[test]
    fn profile_json_and_collapsed_parse_shapewise() {
        let cfg = CoreConfig::tiger_lake().with_rfp();
        let mut h = Harness::with_threads(600, 2);
        let json = h.profile_json(&cfg);
        assert!(json.starts_with("{\"config_key\":\""));
        assert!(json.contains("\"profile\":{\"site_count\":"));
        assert!(json.contains("\"totals\":{\"loads\":"));
        assert!(json.ends_with("}\n"));
        let parsed = parse_json(json.trim_end()).expect("profile JSON parses");
        let flat = flatten(&parsed);
        assert!(flat.iter().any(|(k, _)| k == "len"));
        assert!(flat.iter().any(|(k, _)| k.contains("profile.totals.loads")));
        let collapsed = h.profile_collapsed(&cfg);
        for line in collapsed.lines() {
            let (frame, count) = line.rsplit_once(' ').expect("`pc;outcome count` shape");
            assert!(frame.starts_with("0x") && frame.contains(';'), "{line}");
            assert!(count.parse::<u64>().is_ok(), "{line}");
        }
        // Both went through the same obs pass: one cached run.
        assert_eq!(h.obs_cache.len(), 1);
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        // The trace sink hand-writes its JSON; parse it back with the
        // diff parser and check the event-shape contract Perfetto needs.
        let cfg = CoreConfig::tiger_lake().with_rfp();
        let w = rfp_trace::suite()
            .into_iter()
            .find(|w| w.name == "spec17_mcf")
            .expect("suite workload");
        let doc = trace_workload_json(&cfg, &w, 2_000);
        let parsed = parse_json(&doc).expect("trace JSON parses");
        let Json::Obj(top) = &parsed else {
            panic!("top level must be an object")
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let Json::Arr(events) = events else {
            panic!("traceEvents must be an array")
        };
        assert!(!events.is_empty(), "a 2k-uop run must emit events");
        let field = |obj: &[(String, Json)], key: &str| -> Option<Json> {
            obj.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };
        let mut slices = 0;
        for e in events {
            let Json::Obj(e) = e else {
                panic!("every event must be an object")
            };
            assert!(matches!(field(e, "name"), Some(Json::Str(_))));
            let Some(Json::Str(ph)) = field(e, "ph") else {
                panic!("every event needs a phase")
            };
            assert!(matches!(field(e, "pid"), Some(Json::Num(_))));
            if ph != "M" {
                // Metadata names a process; everything else sits on a lane.
                assert!(matches!(field(e, "tid"), Some(Json::Num(_))));
            }
            match ph.as_str() {
                // Complete slices carry both endpoints — the "matched
                // begin/end" contract (the sink never emits split B/E
                // pairs, so a lone B can't dangle).
                "X" => {
                    slices += 1;
                    let Some(Json::Num(ts)) = field(e, "ts") else {
                        panic!("slice without ts")
                    };
                    let Some(Json::Num(dur)) = field(e, "dur") else {
                        panic!("slice without dur")
                    };
                    assert!(ts >= 0.0 && dur >= 0.0);
                }
                "i" => assert!(matches!(field(e, "ts"), Some(Json::Num(_)))),
                "M" => assert!(matches!(field(e, "args"), Some(Json::Obj(_)))),
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert!(slices > 0, "retired pipeline must produce slices");
    }

    #[test]
    fn metrics_suite_json_parses_shapewise() {
        let cfg = CoreConfig::tiger_lake().with_rfp();
        let json = metrics_suite_json(&cfg, 600, 2);
        assert!(json.starts_with("{\"config_key\":\""));
        assert!(json.contains("\"aggregate\":{\"load_use_latency\":["));
        assert!(json.contains("\"aggregate_cpi\":{\"interval_uops\":8192"));
        assert!(json.contains("\"cpi\":{\"interval_uops\":8192"));
        assert!(json.contains("\"workload\":\"spec17_mcf\""));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn plan_configs_dedupe_across_experiments() {
        use std::collections::HashSet;
        // The baseline appears in almost every plan but must map to one
        // cache key — that's the point of content hashing.
        let keys: HashSet<u64> = ["fig10", "fig11", "fig2"]
            .iter()
            .flat_map(|id| Harness::plan(id))
            .map(|cfg| config_key(&cfg))
            .collect();
        assert_eq!(keys.len(), 2, "baseline + rfp only");
    }
}
