//! Work-stealing parallel experiment engine.
//!
//! Every experiment ultimately needs the same thing: the full workload
//! suite simulated under one or more [`CoreConfig`]s. The engine
//! flattens all `(config, workload)` pairs into one global job grid and
//! lets a pool of scoped threads *steal* jobs off a shared atomic index —
//! so a long-running workload never leaves the rest of a static chunk's
//! cores idle, and multiple configurations fill the machine together
//! instead of running one after another.
//!
//! Results are reduced into per-job slots indexed by grid position, so
//! the output order is identical no matter how many threads ran or how
//! the jobs interleaved. Each simulation is seeded and single-threaded,
//! which makes the whole grid bit-deterministic (see
//! `tests/parallel_determinism.rs`).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rfp_core::{
    report_for, simulate_workload, simulate_workload_probed, simulate_workload_probed_from_trace,
    warm_up_workload, CoreConfig, VpMode, WarmState,
};
use rfp_obs::{CpiStackSink, EngineTracer, MetricsSink, ProfileSink, TeeProbe};
use rfp_stats::{CoreStats, CpiReport, ObsMetrics, ProfileReport, SimReport, CPI_INTERVAL_SHIFT};
use rfp_trace::{CompiledTrace, MicroOp, Workload};
use rfp_types::{fnv1a_64, json_escape};

use crate::store::{self, ExpStore, Tier};

/// Reads environment variable `name` and parses it as `T`.
///
/// Returns `None` when the variable is unset. When it is set but
/// malformed, exits the process with a clear error instead of silently
/// falling back — `RFP_TRACE_LEN=120_000` used to quietly run the default
/// length, which is exactly the kind of mistake that wastes a sweep.
pub fn env_parsed<T: std::str::FromStr>(name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("error: {name}={raw:?} is not a valid value: {e}");
            std::process::exit(2);
        }
    }
}

/// `RFP_TRACE_LEN` with strict parsing ([`env_parsed`]), or `default`
/// when unset. Zero-length runs are rejected too.
pub fn trace_len_from_env(default: u64) -> u64 {
    match env_parsed::<u64>("RFP_TRACE_LEN") {
        Some(0) => {
            eprintln!("error: RFP_TRACE_LEN must be >= 1");
            std::process::exit(2);
        }
        Some(n) => n,
        None => default,
    }
}

/// `RFP_INSPECT_WINDOWS` — how many anomalous capture windows
/// `experiments inspect` records — with strict parsing ([`env_parsed`]),
/// defaulting to 4. Zero windows would capture nothing and is rejected.
pub fn inspect_windows_from_env() -> usize {
    match env_parsed::<usize>("RFP_INSPECT_WINDOWS") {
        Some(0) => {
            eprintln!("error: RFP_INSPECT_WINDOWS must be >= 1");
            std::process::exit(2);
        }
        Some(n) => n,
        None => 4,
    }
}

/// Worker-thread count to use when the caller doesn't override it:
/// the `RFP_THREADS` environment variable if set (strictly parsed — a
/// malformed or zero value is an error, not a silent fallback), otherwise
/// the machine's available parallelism.
pub fn default_threads() -> usize {
    match env_parsed::<usize>("RFP_THREADS") {
        Some(0) => {
            eprintln!("error: RFP_THREADS must be >= 1");
            std::process::exit(2);
        }
        Some(n) => n,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    }
}

/// Content hash of a configuration (FNV-1a over its `Debug` rendering).
///
/// Two configs that would simulate identically hash identically, so a
/// cache keyed by this value dedupes the same configuration reached via
/// different experiments — `fig10`'s RFP run and `fig13`'s are one run.
///
/// # Examples
///
/// ```
/// use rfp_bench::config_key;
/// use rfp_core::CoreConfig;
///
/// let a = config_key(&CoreConfig::tiger_lake());
/// assert_eq!(a, config_key(&CoreConfig::tiger_lake()));
/// assert_ne!(a, config_key(&CoreConfig::tiger_lake().with_rfp()));
/// ```
pub fn config_key(cfg: &CoreConfig) -> u64 {
    fnv1a_64(format!("{cfg:?}").as_bytes())
}

/// How the engine reuses warmup work across the grid (`RFP_WARM_MODE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmMode {
    /// No snapshotting at all: every job re-runs its own warmup through
    /// the legacy per-job path. Useful as the byte-identity reference.
    Off,
    /// The default. Jobs whose *warmup-relevant* configuration projection
    /// matches fork one shared [`WarmState`]; results are byte-identical
    /// to straight-through runs by construction.
    #[default]
    Exact,
    /// [`WarmMode::Exact`] plus approximate cross-config sharing: configs
    /// that differ only in measurement-phase features (RFP, VP) warm up
    /// once under a common *twin* baseline and transplant its caches and
    /// predictors ([`WarmState::transplant`]). Fast, but measured numbers
    /// are an approximation — keep it out of publication sweeps.
    Checkpoint,
}

impl WarmMode {
    /// Parses `RFP_WARM_MODE` (`off` | `exact` | `checkpoint`; unset means
    /// `exact`), exiting with a clear error on anything else.
    pub fn from_env() -> Self {
        match std::env::var("RFP_WARM_MODE")
            .ok()
            .as_deref()
            .map(str::trim)
        {
            None | Some("") | Some("exact") => WarmMode::Exact,
            Some("off") => WarmMode::Off,
            Some("checkpoint") => WarmMode::Checkpoint,
            Some(other) => {
                eprintln!(
                    "error: RFP_WARM_MODE={other:?} is not a valid value \
                     (expected off, exact, or checkpoint)"
                );
                std::process::exit(2);
            }
        }
    }
}

/// Simulation fidelity for grid jobs (`RFP_SIM_MODE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Simulate every job's full measured region. The accuracy
    /// reference, and the default.
    #[default]
    Full,
    /// Phase-sampled simulation: cluster each workload's interval BBVs
    /// (computed by the trace compiler), simulate one representative
    /// interval per phase plus the ragged tail, and extrapolate every
    /// counter by integer phase weights. Several times faster than
    /// `Full`; per-metric error bounds are committed in
    /// `baselines/sampling_tolerances.json` and enforced by CI.
    Sample,
}

impl std::str::FromStr for SimMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "" | "full" => Ok(SimMode::Full),
            "sample" => Ok(SimMode::Sample),
            other => Err(format!("expected full or sample, got {other:?}")),
        }
    }
}

impl SimMode {
    /// Parses `RFP_SIM_MODE` strictly ([`env_parsed`]; `full` | `sample`);
    /// unset means [`SimMode::Full`].
    pub fn from_env() -> Self {
        env_parsed::<SimMode>("RFP_SIM_MODE").unwrap_or_default()
    }
}

/// Interval size of the sampler's BBV grid, in micro-ops. Deliberately
/// equal to the CPI-stack epoch size, so a phase member's interval index
/// doubles as its CPI epoch during extrapolation.
pub const SAMPLE_INTERVAL_UOPS: u64 = 1 << CPI_INTERVAL_SHIFT;

/// Detailed-warming prefix re-simulated in front of every sampled
/// window: the ops immediately before a representative interval rebuild
/// the short-lived state (ROB contents, queue occupancy, MSHR fill) that
/// the long-lived warm snapshot cannot carry across the jump.
pub const SAMPLE_WARM_PREFIX: u64 = 2048;

/// One phase of a [`SamplePlan`]: a cluster of behaviourally-equivalent
/// intervals and the representative simulated on their behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePhase {
    /// Interval index of the representative (the cluster medoid, ties
    /// broken toward the lowest index).
    pub rep: usize,
    /// Member interval indices, ascending (`rep` included).
    pub members: Vec<usize>,
}

/// A workload's phase-sampling plan: which intervals to simulate and the
/// integer weight each result is extrapolated by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePlan {
    /// Phases in discovery order (ascending first-member index).
    pub phases: Vec<SamplePhase>,
    /// Measured ops past the interval grid, simulated exactly with
    /// weight 1.
    pub tail: u64,
}

impl SamplePlan {
    /// Measured uops the plan actually simulates (one interval per phase
    /// plus the tail) — the numerator of the sampler's speedup estimate.
    pub fn simulated_uops(&self, interval_len: u64) -> u64 {
        self.phases.len() as u64 * interval_len + self.tail
    }
}

/// Clusters `trace`'s interval BBV signatures into phases.
///
/// Deterministic greedy leader clustering: intervals join the first
/// existing phase whose *leader* (first member) is within an L1 distance
/// of `interval_len / 16` op counts, else found a new phase. After
/// grouping, each phase's representative is re-picked as the medoid —
/// the member minimizing total L1 distance to the rest — so an atypical
/// leader doesn't get extrapolated across the whole cluster. No RNG, no
/// floating point: the plan is a pure function of the trace.
pub fn build_sample_plan(trace: &CompiledTrace) -> SamplePlan {
    let sigs = trace.intervals();
    let threshold = trace.interval_len() / 16;
    let mut phases: Vec<SamplePhase> = Vec::new();
    for (i, sig) in sigs.iter().enumerate() {
        match phases
            .iter_mut()
            .find(|p| sigs[p.members[0]].l1_distance(sig) <= threshold)
        {
            Some(p) => p.members.push(i),
            None => phases.push(SamplePhase {
                rep: i,
                members: vec![i],
            }),
        }
    }
    for p in &mut phases {
        let mut best = (u64::MAX, usize::MAX);
        for &a in &p.members {
            let d: u64 = p
                .members
                .iter()
                .map(|&b| sigs[a].l1_distance(&sigs[b]))
                .sum();
            if (d, a) < best {
                best = (d, a);
            }
        }
        p.rep = best.1;
    }
    SamplePlan {
        phases,
        tail: trace.tail_len(),
    }
}

/// The *warmup-relevant projection* of a configuration: `cfg` with every
/// field that provably cannot influence warm-state construction
/// normalized to a canonical value.
///
/// Two configs with equal projections produce bit-identical warm state,
/// so their grid jobs can share one snapshot. The rule for adding fields
/// here is conservative: a field may be normalized **only** when the
/// simulator provably never reads it before the stats-reset boundary
/// under the rest of the projection — anything else must stay, which
/// `tests/parallel_determinism.rs` enforces by perturbation.
pub fn warm_projection(cfg: &CoreConfig) -> CoreConfig {
    let mut c = cfg.clone();
    if !matches!(c.vp, VpMode::Epp(_)) {
        // The core RNG is drawn only for EPP SSBF false-positive rolls;
        // under every other VP mode the seed and rate are dead state.
        c.seed = 0;
        c.epp_false_positive_rate = 0.0;
    }
    if let Some(rfp) = c.rfp.as_mut() {
        if !rfp.critical_only {
            // The criticality table only consults the threshold when
            // critical-only targeting is on.
            rfp.criticality_threshold = 0;
        }
        if !c.vp.is_on() {
            // The VP filter can only veto a prefetch when a value
            // prediction exists to veto with.
            rfp.vp_filter = false;
        }
    }
    c
}

/// Snapshot-sharing key: [`config_key`] of the [`warm_projection`].
pub fn warm_key(cfg: &CoreConfig) -> u64 {
    config_key(&warm_projection(cfg))
}

/// The *twin* of a configuration for [`WarmMode::Checkpoint`]: the same
/// memory hierarchy, branch handling, and core sizing, but with the
/// measurement-phase features (RFP, value prediction, dedicated RFP
/// ports) stripped, then projected. Every config in a typical sweep that
/// varies only those features collapses onto one twin, whose warm caches
/// and predictors are transplanted into each measured config.
pub fn warm_twin(cfg: &CoreConfig) -> CoreConfig {
    let mut c = cfg.clone();
    c.rfp = None;
    c.vp = VpMode::Off;
    c.ports.dedicated_rfp = 0;
    warm_projection(&c)
}

/// Counter snapshot of a [`WarmPool`] (see [`WarmPool::stats`]).
#[derive(Debug, Clone)]
pub struct WarmPoolStats {
    /// The pool's sharing mode.
    pub mode: WarmMode,
    /// Forks served from an already-built snapshot.
    pub snapshot_hits: u64,
    /// Snapshots built (first touch of a `(key, workload)` cell).
    pub snapshot_misses: u64,
    /// Checkpoint-mode transplants performed.
    pub transplants: u64,
    /// Workload traces synthesized (first touch + post-eviction rebuilds).
    pub trace_builds: u64,
    /// Snapshots currently held live.
    pub live_snapshots: usize,
    /// Approximate host bytes held by live snapshots.
    pub live_snapshot_bytes: usize,
}

impl WarmPoolStats {
    /// Renders the stats as one JSONL line, appended to `--telemetry-out`
    /// streams so CI can assert the pool actually worked.
    pub fn jsonl_line(&self) -> String {
        let mode = match self.mode {
            WarmMode::Off => "off",
            WarmMode::Exact => "exact",
            WarmMode::Checkpoint => "checkpoint",
        };
        format!(
            "{{\"warm_pool\":{{\"schema\":{TELEMETRY_SCHEMA_VERSION},\
             \"mode\":\"{mode}\",\"snapshot_hits\":{},\
             \"snapshot_misses\":{},\"transplants\":{},\"trace_builds\":{},\
             \"live_snapshots\":{},\"live_snapshot_bytes\":{}}}}}\n",
            self.snapshot_hits,
            self.snapshot_misses,
            self.transplants,
            self.trace_builds,
            self.live_snapshots,
            self.live_snapshot_bytes,
        )
    }
}

/// Shared warm-state cache behind the grid runners: memoizes one
/// synthesized trace per workload and one [`WarmState`] per
/// `(warm key, workload)` cell, both `Arc`-shared across the
/// work-stealing workers.
///
/// Snapshots are built lazily inside a per-cell `OnceLock`, so two
/// workers racing to the same cell build it exactly once and one of them
/// forks. Traces and unpinned snapshots are evicted as soon as every
/// config in the running grid has finished a workload; pinned keys
/// (see [`WarmPool::pin_config`]) survive for follow-up grids — the
/// observability passes fork the same snapshots the plain sweep built.
pub struct WarmPool {
    mode: WarmMode,
    sim: SimMode,
    /// Measured uops per run (the grid's `len`).
    measured: u64,
    /// Warmup uops per run (`len / 2`, matching `simulate_workload`).
    warmup: u64,
    /// Persistent content-addressed store ([`crate::ExpStore`]), when
    /// configured: the grid runner checks it for finished job results
    /// before simulating at all, and publishes every result it simulates.
    store: Option<Arc<ExpStore>>,
    /// Engine self-tracer ([`EngineTracer`]), when armed: the pool and
    /// the grid runner record spans for trace compiles, warm captures,
    /// store traffic and job lifecycle. `None` (the default) keeps the
    /// cost to one branch per site.
    tracer: Option<Arc<EngineTracer>>,
    pinned: Mutex<HashSet<u64>>,
    traces: Mutex<HashMap<usize, Arc<CompiledTrace>>>,
    plans: Mutex<HashMap<usize, Arc<SamplePlan>>>,
    #[allow(clippy::type_complexity)]
    snapshots: Mutex<HashMap<(u64, usize), Arc<OnceLock<Arc<WarmState>>>>>,
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
    transplants: AtomicU64,
    trace_builds: AtomicU64,
}

impl std::fmt::Debug for WarmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WarmPool")
            .field("measured", &self.measured)
            .field("stats", &stats)
            .finish()
    }
}

impl WarmPool {
    /// A pool for grids measuring `len` uops per job, sharing warm state
    /// according to `mode`, at full simulation fidelity.
    pub fn new(mode: WarmMode, len: u64) -> Self {
        Self::with_sim(mode, SimMode::Full, len)
    }

    /// [`WarmPool::new`] with an explicit simulation fidelity. Under
    /// [`SimMode::Sample`] the warm mode is ignored by grid jobs — the
    /// sampler always snapshots under the config's [`warm_twin`] and
    /// jumps between representative intervals from there.
    pub fn with_sim(mode: WarmMode, sim: SimMode, len: u64) -> Self {
        WarmPool {
            mode,
            sim,
            measured: len,
            warmup: len / 2,
            store: None,
            tracer: None,
            pinned: Mutex::new(HashSet::new()),
            traces: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            snapshots: Mutex::new(HashMap::new()),
            snapshot_hits: AtomicU64::new(0),
            snapshot_misses: AtomicU64::new(0),
            transplants: AtomicU64::new(0),
            trace_builds: AtomicU64::new(0),
        }
    }

    /// [`WarmPool::with_sim`] with both modes taken from the environment
    /// (`RFP_WARM_MODE`, `RFP_SIM_MODE`), plus the persistent store when
    /// `RFP_STORE` is set.
    pub fn from_env(len: u64) -> Self {
        Self::with_sim(WarmMode::from_env(), SimMode::from_env(), len)
            .with_store(ExpStore::from_env())
    }

    /// Replaces the pool's persistent store (`None` disables it). The
    /// builder form keeps test pools store-free by default while letting
    /// binaries override the `RFP_STORE` environment resolution
    /// (`--store` / `--no-store`).
    pub fn with_store(mut self, store: Option<Arc<ExpStore>>) -> Self {
        self.store = store;
        self
    }

    /// The pool's persistent store, when configured.
    pub fn store(&self) -> Option<&Arc<ExpStore>> {
        self.store.as_ref()
    }

    /// Arms (or disarms, with `None`) the engine self-tracer. Tracing
    /// never changes simulated results — spans carry only engine-side
    /// counters, and wall times stay in the spans' timing stratum — so
    /// `experiments all` output is byte-identical tracer on or off.
    pub fn with_tracer(mut self, tracer: Option<Arc<EngineTracer>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The pool's engine self-tracer, when armed.
    pub fn tracer(&self) -> Option<&Arc<EngineTracer>> {
        self.tracer.as_ref()
    }

    /// The pool's sharing mode.
    pub fn mode(&self) -> WarmMode {
        self.mode
    }

    /// The pool's simulation fidelity.
    pub fn sim(&self) -> SimMode {
        self.sim
    }

    /// Measured uops per job this pool was sized for.
    pub fn measured_len(&self) -> u64 {
        self.measured
    }

    /// Marks `cfg`'s snapshot keys as pinned: its snapshots are built
    /// even if the key appears only once in a grid, and survive
    /// end-of-workload eviction so later grids (the observability
    /// re-runs) fork them instead of re-warming.
    pub fn pin_config(&self, cfg: &CoreConfig) {
        let mut pinned = self.pinned.lock().expect("pinned lock");
        pinned.insert(warm_key(cfg));
        if self.mode == WarmMode::Checkpoint || self.sim == SimMode::Sample {
            pinned.insert(config_key(&warm_twin(cfg)));
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WarmPoolStats {
        let snaps = self.snapshots.lock().expect("snapshot lock");
        let live_snapshot_bytes = snaps
            .values()
            .filter_map(|cell| cell.get())
            .map(|s| s.approx_bytes())
            .sum();
        WarmPoolStats {
            mode: self.mode,
            snapshot_hits: self.snapshot_hits.load(Ordering::Relaxed),
            snapshot_misses: self.snapshot_misses.load(Ordering::Relaxed),
            transplants: self.transplants.load(Ordering::Relaxed),
            trace_builds: self.trace_builds.load(Ordering::Relaxed),
            live_snapshots: snaps.len(),
            live_snapshot_bytes,
        }
    }

    /// The memoized compiled trace (warmup + measured, with interval BBV
    /// signatures over the measured region) for `suite[wi]`, built on
    /// first touch. The compiled op stream is byte-identical to the
    /// generator's, so full-fidelity jobs slice it directly.
    fn trace(&self, suite: &[Workload], wi: usize) -> Arc<CompiledTrace> {
        let mut traces = self.traces.lock().expect("trace lock");
        if let Some(t) = traces.get(&wi) {
            return Arc::clone(t);
        }
        // Built while holding the lock: compilation is ~1% of a job's
        // simulation time, and building once beats racing builds.
        let total = self.measured + self.warmup;
        let t0 = self.tracer.as_ref().map(|tr| tr.now_nanos());
        self.trace_builds.fetch_add(1, Ordering::Relaxed);
        let t = Arc::new(suite[wi].compiled(total, self.warmup, SAMPLE_INTERVAL_UOPS));
        if let (Some(tr), Some(t0)) = (&self.tracer, t0) {
            let (name, fields) = (suite[wi].name.to_string(), vec![("uops", total)]);
            tr.record("trace-compile", name, "built", fields, 0, t0);
        }
        traces.insert(wi, Arc::clone(&t));
        t
    }

    /// The memoized [`SamplePlan`] for `suite[wi]`, clustered on first
    /// touch from the compiled trace's BBV grid.
    fn sample_plan(&self, suite: &[Workload], wi: usize) -> Arc<SamplePlan> {
        if let Some(p) = self.plans.lock().expect("plan lock").get(&wi) {
            return Arc::clone(p);
        }
        let trace = self.trace(suite, wi);
        let mut plans = self.plans.lock().expect("plan lock");
        Arc::clone(
            plans
                .entry(wi)
                .or_insert_with(|| Arc::new(build_sample_plan(&trace))),
        )
    }

    /// The shared snapshot for `(key, wi)`, warming `cfg` on first touch.
    /// Concurrent callers block on the cell's `OnceLock` and share the
    /// one build.
    fn snapshot(
        &self,
        cfg: &CoreConfig,
        key: u64,
        suite: &[Workload],
        wi: usize,
    ) -> Arc<WarmState> {
        let cell = {
            let mut snaps = self.snapshots.lock().expect("snapshot lock");
            Arc::clone(snaps.entry((key, wi)).or_default())
        };
        let mut built = false;
        let state = cell.get_or_init(|| {
            built = true;
            self.snapshot_misses.fetch_add(1, Ordering::Relaxed);
            let t0 = self.tracer.as_ref().map(|tr| tr.now_nanos());
            let trace = self.trace(suite, wi);
            let ws = Arc::new(
                warm_up_workload(cfg, &suite[wi], self.warmup, trace.ops().iter().copied())
                    .expect("valid config"),
            );
            if let (Some(tr), Some(t0)) = (&self.tracer, t0) {
                let key = format!("{}|{key:016x}", suite[wi].name);
                let fields = vec![("warmup", self.warmup)];
                tr.record("warm-capture", key, "built", fields, 0, t0);
            }
            ws
        });
        if !built {
            self.snapshot_hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(state)
    }

    /// Forks the §9.4 warm snapshot for `suite[wi]` under `cfg` and runs
    /// the measured region with `probe` attached, returning the stats and
    /// the probe. Always the *exact* fork path (the probe observes the
    /// true trajectory) regardless of the pool's warm/sim mode — this is
    /// the `experiments inspect` two-pass entry point, where both passes
    /// must replay the identical measured stream.
    pub fn fork_probed<Q: rfp_obs::Probe>(
        &self,
        cfg: &CoreConfig,
        suite: &[Workload],
        wi: usize,
        probe: Q,
    ) -> (rfp_stats::CoreStats, Q) {
        let trace = self.trace(suite, wi);
        let snap = self.snapshot(cfg, warm_key(cfg), suite, wi);
        let rest = trace.ops()[snap.consumed_uops() as usize..].iter().copied();
        snap.resume_probed(rest, probe)
    }

    /// Drops `suite[wi]`'s trace and unpinned snapshots — called when the
    /// last in-flight grid job for that workload finishes, bounding the
    /// pool's footprint to roughly one workload band.
    fn evict_workload(&self, wi: usize) {
        let pinned = self.pinned.lock().expect("pinned lock");
        let mut snaps = self.snapshots.lock().expect("snapshot lock");
        snaps.retain(|(key, w), _| *w != wi || pinned.contains(key));
        drop(snaps);
        drop(pinned);
        self.traces.lock().expect("trace lock").remove(&wi);
        self.plans.lock().expect("plan lock").remove(&wi);
    }
}

/// Per-config fork plan for one pooled grid run.
struct JobPlan {
    /// [`warm_key`] of the config.
    exact: u64,
    /// Checkpoint or sampled runs only: the twin's key and (projected)
    /// config, when the config is *not* its own twin.
    twin: Option<(u64, CoreConfig)>,
    /// Whether a snapshot is worth building: its sharing key occurs at
    /// least twice in the grid, or is pinned.
    worthy: bool,
}

fn plan_jobs(pool: &WarmPool, configs: &[CoreConfig]) -> Vec<JobPlan> {
    let pinned = pool.pinned.lock().expect("pinned lock");
    let plans: Vec<JobPlan> = configs
        .iter()
        .map(|cfg| {
            let exact = warm_key(cfg);
            let twin = if pool.mode == WarmMode::Checkpoint || pool.sim == SimMode::Sample {
                let twin_cfg = warm_twin(cfg);
                let twin_key = config_key(&twin_cfg);
                (twin_key != exact).then_some((twin_key, twin_cfg))
            } else {
                None
            };
            JobPlan {
                exact,
                twin,
                worthy: false,
            }
        })
        .collect();
    // A snapshot pays for itself when its sharing key serves >= 2 jobs
    // (or a pinned follow-up grid).
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for p in &plans {
        let share = p.twin.as_ref().map_or(p.exact, |(k, _)| *k);
        *counts.entry(share).or_insert(0) += 1;
    }
    plans
        .into_iter()
        .map(|mut p| {
            let share = p.twin.as_ref().map_or(p.exact, |(k, _)| *k);
            p.worthy = counts[&share] >= 2 || pinned.contains(&share);
            p
        })
        .collect()
}

/// Runs one `(config, workload)` job through the pool, returning the
/// report and which warm path served it.
fn pooled_job(
    pool: &WarmPool,
    cfg: &CoreConfig,
    plan: &JobPlan,
    suite: &[Workload],
    wi: usize,
    collect_obs: bool,
) -> (SimReport, &'static str) {
    if pool.sim == SimMode::Sample {
        return sampled_job(pool, cfg, plan, suite, wi, collect_obs);
    }
    let w = &suite[wi];
    let attach = |stats, sink: Option<ObsSinks>| {
        let mut r = report_for(w, stats);
        if let Some(sink) = sink {
            attach_obs(&mut r, sink);
        }
        r
    };
    if pool.mode == WarmMode::Off {
        let report = if collect_obs {
            let (mut r, sink) =
                simulate_workload_probed(cfg, w, pool.measured, obs_sinks()).expect("valid config");
            attach_obs(&mut r, sink);
            r
        } else {
            simulate_workload(cfg, w, pool.measured).expect("valid config")
        };
        return (report, "off");
    }
    if !plan.worthy {
        let trace = pool.trace(suite, wi);
        let report = if collect_obs {
            let (mut r, sink) = simulate_workload_probed_from_trace(
                cfg,
                w,
                pool.warmup,
                trace.ops().iter().copied(),
                obs_sinks(),
            )
            .expect("valid config");
            attach_obs(&mut r, sink);
            r
        } else {
            simulate_workload_probed_from_trace(
                cfg,
                w,
                pool.warmup,
                trace.ops().iter().copied(),
                rfp_obs::NoopProbe,
            )
            .expect("valid config")
            .0
        };
        return (report, "straight");
    }
    match &plan.twin {
        None => {
            let snap = pool.snapshot(cfg, plan.exact, suite, wi);
            let trace = pool.trace(suite, wi);
            let rest = trace.ops()[snap.consumed_uops() as usize..].iter().copied();
            let report = if collect_obs {
                let (stats, sink) = snap.resume_probed(rest, obs_sinks());
                attach(stats, Some(sink))
            } else {
                attach(snap.resume(rest), None)
            };
            (report, "fork")
        }
        Some((twin_key, twin_cfg)) => {
            let snap = pool.snapshot(twin_cfg, *twin_key, suite, wi);
            pool.transplants.fetch_add(1, Ordering::Relaxed);
            let trace = pool.trace(suite, wi);
            let measured = trace.ops()[pool.warmup as usize..].iter().copied();
            let report = if collect_obs {
                let (stats, sink) = snap
                    .transplant_probed(cfg, measured, obs_sinks())
                    .expect("valid config");
                attach(stats, Some(sink))
            } else {
                attach(snap.transplant(cfg, measured).expect("valid config"), None)
            };
            (report, "transplant")
        }
    }
}

/// Simulates one sampled window: up to [`SAMPLE_WARM_PREFIX`] ops of
/// detailed warming before `start`, then `mlen` measured ops, riding the
/// shared twin snapshot. When `cfg` *is* its own twin the fork resumes
/// exactly; otherwise the snapshot's caches and predictors are
/// transplanted into a fresh `cfg` core first.
fn window_run<Q: rfp_obs::Probe>(
    snap: &WarmState,
    cfg: &CoreConfig,
    own_twin: bool,
    ops: &[MicroOp],
    start: u64,
    mlen: u64,
    probe: Q,
) -> (CoreStats, Q) {
    let prefix = SAMPLE_WARM_PREFIX.min(start);
    let window = ops[(start - prefix) as usize..(start + mlen) as usize]
        .iter()
        .copied();
    if own_twin {
        snap.resume_window_probed(window, prefix, probe)
    } else {
        snap.transplant_window_probed(cfg, window, prefix, probe)
            .expect("valid config")
    }
}

/// Runs one `(config, workload)` job in [`SimMode::Sample`].
///
/// One warm snapshot per workload (under the config's [`warm_twin`], so
/// every config in the sweep shares it), then one simulated window per
/// phase representative plus the exactly-simulated ragged tail. Every
/// counter is extrapolated by integer phase weights
/// ([`CoreStats::merge_scaled`]), which preserves the simulator's linear
/// invariants — funnel balance, profile reconciliation, CPI conservation
/// — exactly; the representative's CPI stack is placed at each member's
/// epoch so interval time-series keep their shape. Host wall time is
/// summed unscaled (it measures real work done). With fewer than two
/// full intervals sampling cannot skip anything, so the job runs the
/// whole measured region straight from the compiled arena
/// (`"sample-full"`), which is bit-equal to full fidelity.
fn sampled_job(
    pool: &WarmPool,
    cfg: &CoreConfig,
    plan: &JobPlan,
    suite: &[Workload],
    wi: usize,
    collect_obs: bool,
) -> (SimReport, &'static str) {
    let w = &suite[wi];
    let compiled = pool.trace(suite, wi);
    if compiled.intervals().len() < 2 {
        let report = if collect_obs {
            let (mut r, sink) = simulate_workload_probed_from_trace(
                cfg,
                w,
                pool.warmup,
                compiled.ops().iter().copied(),
                obs_sinks(),
            )
            .expect("valid config");
            attach_obs(&mut r, sink);
            r
        } else {
            simulate_workload_probed_from_trace(
                cfg,
                w,
                pool.warmup,
                compiled.ops().iter().copied(),
                rfp_obs::NoopProbe,
            )
            .expect("valid config")
            .0
        };
        return (report, "sample-full");
    }
    let splan = pool.sample_plan(suite, wi);
    let (key, warm_cfg, own_twin) = match &plan.twin {
        None => (plan.exact, cfg, true),
        Some((k, c)) => (*k, c, false),
    };
    let snap = pool.snapshot(warm_cfg, key, suite, wi);
    // Windows to simulate: `(start, measured len, member epochs)`. The
    // weight of a window is its member count; members double as CPI
    // epoch indices because the interval size equals the epoch size.
    let interval = compiled.interval_len();
    let n_full = compiled.intervals().len();
    let mut windows: Vec<(u64, u64, &[usize])> = splan
        .phases
        .iter()
        .map(|p| (compiled.intervals()[p.rep].start, interval, &p.members[..]))
        .collect();
    let tail_epoch = [n_full];
    if splan.tail > 0 {
        let tail_start = compiled.measured_from() + n_full as u64 * interval;
        windows.push((tail_start, splan.tail, &tail_epoch[..]));
    }
    if !own_twin {
        pool.transplants
            .fetch_add(windows.len() as u64, Ordering::Relaxed);
    }
    let ops = compiled.ops();
    let mut stats = CoreStats::default();
    let report = if collect_obs {
        let mut obs = ObsMetrics::default();
        let mut cpi = CpiReport::default();
        let mut profile = ProfileReport::default();
        for &(start, mlen, epochs) in &windows {
            let (s, sink) = window_run(&snap, cfg, own_twin, ops, start, mlen, obs_sinks());
            let weight = epochs.len() as u64;
            stats.merge_scaled(&s, weight);
            obs.merge_scaled(&sink.a.a.into_metrics(), weight);
            let c = sink.a.b.into_report();
            for &e in epochs {
                cpi.merge_scaled_at(&c, 1, e);
            }
            profile.merge_scaled(&sink.b.into_report(), weight);
        }
        let mut r = report_for(w, stats);
        r.obs = Some(Box::new(obs));
        r.cpi = Some(Box::new(cpi));
        r.profile = Some(Box::new(profile));
        r
    } else {
        for &(start, mlen, epochs) in &windows {
            let (s, _) = window_run(&snap, cfg, own_twin, ops, start, mlen, rfp_obs::NoopProbe);
            stats.merge_scaled(&s, epochs.len() as u64);
        }
        report_for(w, stats)
    };
    let warm = if own_twin {
        "sample-fork"
    } else {
        "sample-transplant"
    };
    (report, warm)
}

/// The sink trio every instrumented grid job carries: latency metrics,
/// the CPI stack, and the per-load-PC profile, fanned out from one
/// event stream.
type ObsSinks = TeeProbe<TeeProbe<MetricsSink, CpiStackSink>, ProfileSink>;

fn obs_sinks() -> ObsSinks {
    TeeProbe::new(
        TeeProbe::new(MetricsSink::new(), CpiStackSink::new()),
        ProfileSink::new(),
    )
}

/// Moves a drained sink trio into the report's `obs`/`cpi`/`profile`
/// slots.
fn attach_obs(r: &mut SimReport, sink: ObsSinks) {
    r.obs = Some(Box::new(sink.a.a.into_metrics()));
    r.cpi = Some(Box::new(sink.a.b.into_report()));
    r.profile = Some(Box::new(sink.b.into_report()));
}

/// Per-job scheduling and wall-time telemetry from one grid run.
///
/// Everything here describes the *host-side* execution of a job —
/// which worker ran it, how deep the unclaimed queue was when it was
/// grabbed, how long it took — and is therefore host- and
/// schedule-dependent. It is deliberately kept out of [`SimReport`]
/// so the simulated results stay byte-deterministic; telemetry is a
/// side channel for engine tuning (see `--telemetry-out`).
#[derive(Debug, Clone)]
pub struct JobTelemetry {
    /// Grid position (`config_index * n_workloads + workload_index`).
    pub job: usize,
    /// Index of the configuration within the grid's config list.
    pub config: usize,
    /// Workload name.
    pub workload: &'static str,
    /// Worker thread (0-based) that claimed the job.
    pub worker: usize,
    /// Jobs not yet claimed at grab time, this one included — a proxy
    /// for how much stealing headroom remained.
    pub queue_depth: usize,
    /// Host wall time the simulation took.
    pub wall_nanos: u64,
    /// Warm path that served the job: `"off"` (legacy, pool disabled),
    /// `"straight"` (memoized trace, own warmup), `"fork"` (resumed a
    /// shared snapshot), or `"transplant"` (checkpoint-mode twin). Under
    /// [`SimMode::Sample`]: `"sample-fork"` / `"sample-transplant"`
    /// (phase-sampled windows off the twin snapshot) or `"sample-full"`
    /// (degenerate short run, simulated in full). `"store"` means the
    /// whole job was served from the persistent result store and nothing
    /// was simulated.
    pub warm: &'static str,
    /// Result-store outcome for this job: `"off"` (no store configured),
    /// `"hit"` (report read from disk, nothing simulated) or `"miss"`
    /// (simulated, then published).
    pub store: &'static str,
    /// Result-entry bytes read on a store hit (0 otherwise).
    pub store_bytes_read: u64,
    /// Result-entry bytes published on a store miss (0 otherwise, and 0
    /// when the best-effort publish failed).
    pub store_bytes_written: u64,
}

/// Everything one work-stealing grid run produces: the suite-ordered
/// reports (as [`run_grid`]) plus per-job telemetry sorted by grid
/// position.
#[derive(Debug)]
pub struct GridOutcome {
    /// One suite-ordered report vector per config, in config order.
    pub reports: Vec<Vec<SimReport>>,
    /// Per-job host telemetry, sorted by grid position.
    pub telemetry: Vec<JobTelemetry>,
}

/// Simulates the whole workload suite under every config in `configs`
/// on `threads` work-stealing workers, returning one suite-ordered
/// report vector per config (in `configs` order).
///
/// The job grid is `(config, workload)` pairs; a shared atomic index
/// hands the next job to whichever worker frees up first. Output is
/// deterministic and thread-count-independent: jobs land in slots keyed
/// by grid position and each simulation is internally seeded.
///
/// # Panics
///
/// Panics if a config is invalid or a worker thread panics.
pub fn run_grid(configs: &[CoreConfig], len: u64, threads: usize) -> Vec<Vec<SimReport>> {
    run_grid_full(configs, len, threads, false).reports
}

/// [`run_grid`] with a `MetricsSink` attached to every simulation: each
/// returned report carries `obs` latency histograms covering its
/// measured window.
///
/// The histograms are per-job and land in slots keyed by grid position,
/// so — like the plain reports — they are byte-identical at any thread
/// count (see `tests/parallel_determinism.rs`).
///
/// # Panics
///
/// Panics if a config is invalid or a worker thread panics.
pub fn run_grid_obs(configs: &[CoreConfig], len: u64, threads: usize) -> Vec<Vec<SimReport>> {
    run_grid_full(configs, len, threads, true).reports
}

/// The full-fat grid runner behind [`run_grid`] and [`run_grid_obs`]:
/// optionally instruments every simulation with a metrics sink
/// (`collect_obs`) and always returns per-job host telemetry. Warm-state
/// sharing follows `RFP_WARM_MODE` via a grid-local [`WarmPool`]; use
/// [`run_grid_pooled`] to share the pool (and its snapshots) across
/// several grids.
///
/// # Panics
///
/// Panics if a config is invalid or a worker thread panics.
pub fn run_grid_full(
    configs: &[CoreConfig],
    len: u64,
    threads: usize,
    collect_obs: bool,
) -> GridOutcome {
    run_grid_pooled(&WarmPool::from_env(len), configs, threads, collect_obs)
}

/// [`run_grid_full`] against a caller-owned [`WarmPool`] (which fixes the
/// measured length and the sharing mode). Jobs are claimed in
/// *workload-major* order — all configs of workload 0, then workload 1 —
/// so the jobs that share a snapshot run close together and the pool can
/// evict each workload's band as soon as its last job retires. Reports
/// still land in config-major grid positions, so output is byte-identical
/// to the unpooled engine at every thread count.
///
/// # Panics
///
/// Panics if a config is invalid or a worker thread panics.
pub fn run_grid_pooled(
    pool: &WarmPool,
    configs: &[CoreConfig],
    threads: usize,
    collect_obs: bool,
) -> GridOutcome {
    let suite = rfp_trace::suite();
    let n_workloads = suite.len();
    let n_configs = configs.len();
    let n_jobs = n_configs * n_workloads;
    if n_jobs == 0 {
        return GridOutcome {
            reports: configs.iter().map(|_| Vec::new()).collect(),
            telemetry: Vec::new(),
        };
    }
    let plans = plan_jobs(pool, configs);
    let threads = threads.clamp(1, n_jobs);
    let next = AtomicUsize::new(0);
    let remaining: Vec<AtomicUsize> = (0..n_workloads)
        .map(|_| AtomicUsize::new(n_configs))
        .collect();

    let per_worker: Vec<Vec<(SimReport, JobTelemetry)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let next = &next;
                let suite = &suite;
                let plans = &plans;
                let remaining = &remaining;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let claim = next.fetch_add(1, Ordering::Relaxed);
                        if claim >= n_jobs {
                            break;
                        }
                        // Workload-major claim order; config-major grid
                        // position (what slot reduction and telemetry
                        // sorting key on).
                        let (wi, ci) = (claim / n_configs, claim % n_configs);
                        let job = ci * n_workloads + wi;
                        let t0 = Instant::now();
                        let lane = worker as u32 + 1;
                        let cell = || format!("{}|cfg{}", suite[wi].name, ci);
                        if let Some(tr) = pool.tracer() {
                            tr.instant(
                                "claim",
                                cell(),
                                "claimed",
                                vec![
                                    ("claim", claim as u64),
                                    ("queue_depth", (n_jobs - claim) as u64),
                                ],
                                lane,
                            );
                        }
                        let sim_start = pool.tracer().map(|tr| tr.now_nanos());
                        // Persistent-store fast path: a verified result
                        // entry replaces the whole simulation. On a miss
                        // the freshly simulated report is published so
                        // the next sweep (or process) hits.
                        let (report, warm, store_tag, s_read, s_written) = match pool.store() {
                            Some(s) => {
                                let key = store::result_key(
                                    pool.measured,
                                    pool.warmup,
                                    pool.sim,
                                    pool.mode,
                                    collect_obs,
                                    suite[wi].name,
                                    &configs[ci],
                                );
                                match s.get::<SimReport>(Tier::Result, &key) {
                                    Some((r, n)) => {
                                        if let Some(tr) = pool.tracer() {
                                            tr.instant(
                                                "store-get",
                                                format!("result|{}", cell()),
                                                "hit",
                                                vec![("bytes", n)],
                                                lane,
                                            );
                                        }
                                        (r, "store", "hit", n, 0)
                                    }
                                    None => {
                                        if let Some(tr) = pool.tracer() {
                                            tr.instant(
                                                "store-get",
                                                format!("result|{}", cell()),
                                                "miss",
                                                vec![],
                                                lane,
                                            );
                                        }
                                        let (r, warm) = pooled_job(
                                            pool,
                                            &configs[ci],
                                            &plans[ci],
                                            suite,
                                            wi,
                                            collect_obs,
                                        );
                                        let written = s.put(Tier::Result, &key, &r);
                                        if let Some(tr) = pool.tracer() {
                                            tr.instant(
                                                "store-put",
                                                format!("result|{}", cell()),
                                                "published",
                                                vec![("bytes", written)],
                                                lane,
                                            );
                                        }
                                        (r, warm, "miss", 0, written)
                                    }
                                }
                            }
                            None => {
                                let (r, warm) = pooled_job(
                                    pool,
                                    &configs[ci],
                                    &plans[ci],
                                    suite,
                                    wi,
                                    collect_obs,
                                );
                                (r, warm, "off", 0, 0)
                            }
                        };
                        if let (Some(tr), Some(s0)) = (pool.tracer(), sim_start) {
                            tr.record(
                                "simulate",
                                cell(),
                                warm,
                                vec![("obs", u64::from(collect_obs))],
                                lane,
                                s0,
                            );
                        }
                        if (pool.mode() != WarmMode::Off || pool.sim() == SimMode::Sample)
                            && remaining[wi].fetch_sub(1, Ordering::AcqRel) == 1
                        {
                            pool.evict_workload(wi);
                        }
                        done.push((
                            report,
                            JobTelemetry {
                                job,
                                config: ci,
                                workload: suite[wi].name,
                                worker,
                                queue_depth: n_jobs - claim,
                                wall_nanos: t0.elapsed().as_nanos() as u64,
                                warm,
                                store: store_tag,
                                store_bytes_read: s_read,
                                store_bytes_written: s_written,
                            },
                        ));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Order-stable reduction: each job index is produced exactly once.
    let reduce_start = pool.tracer().map(|tr| tr.now_nanos());
    let mut slots: Vec<Option<SimReport>> = vec![None; n_jobs];
    let mut telemetry = Vec::with_capacity(n_jobs);
    for (report, tel) in per_worker.into_iter().flatten() {
        debug_assert!(slots[tel.job].is_none(), "job {} produced twice", tel.job);
        slots[tel.job] = Some(report);
        telemetry.push(tel);
    }
    telemetry.sort_by_key(|t| t.job);
    let mut slots = slots.into_iter();
    let reports = configs
        .iter()
        .map(|_| {
            (&mut slots)
                .take(n_workloads)
                .map(|r| r.expect("every job ran"))
                .collect()
        })
        .collect();
    if let (Some(tr), Some(r0)) = (pool.tracer(), reduce_start) {
        tr.record(
            "reduce",
            "grid".to_string(),
            "ok",
            vec![
                ("jobs", n_jobs as u64),
                ("configs", n_configs as u64),
                ("workloads", n_workloads as u64),
            ],
            0,
            r0,
        );
        // Host-dependent schedule facts go to the quarantined timing
        // counters, never into span fields: worker count, claim-order
        // worker handoffs ("steals"), and summed job wall time.
        tr.timing_max("workers", threads as u64);
        tr.timing_counter(
            "wall_nanos",
            telemetry.iter().map(|t| t.wall_nanos).sum::<u64>(),
        );
        let mut by_claim: Vec<(usize, usize)> = telemetry
            .iter()
            .map(|t| (n_jobs - t.queue_depth, t.worker))
            .collect();
        by_claim.sort_unstable();
        let steals = by_claim.windows(2).filter(|w| w[0].1 != w[1].1).count() as u64;
        tr.timing_counter("steals", steals);
    }
    GridOutcome { reports, telemetry }
}

/// Schema version of the engine's JSONL side channels: the per-job
/// telemetry lines and the `warm_pool`/`store` summary blocks appended
/// to `--telemetry-out` streams. Bump whenever a field is added,
/// removed or reinterpreted.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// Renders job telemetry as JSONL (one object per line), ready for
/// `--telemetry-out` or ad-hoc analysis with `jq`. Workload names pass
/// through [`json_escape`], so names with quotes or backslashes stay
/// valid JSON.
pub fn telemetry_jsonl(telemetry: &[JobTelemetry]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for t in telemetry {
        writeln!(
            out,
            "{{\"schema\":{TELEMETRY_SCHEMA_VERSION},\
             \"job\":{},\"config\":{},\"workload\":\"{}\",\"worker\":{},\
             \"queue_depth\":{},\"wall_nanos\":{},\"warm\":\"{}\",\
             \"store\":\"{}\",\"store_bytes_read\":{},\"store_bytes_written\":{}}}",
            t.job,
            t.config,
            json_escape(t.workload),
            t.worker,
            t.queue_depth,
            t.wall_nanos,
            t.warm,
            t.store,
            t.store_bytes_read,
            t.store_bytes_written,
        )
        .expect("write to String");
    }
    out
}

/// Merges `sections` (top-level key → rendered JSON value) into the JSON
/// object stored at `path`, preserving any other top-level sections —
/// so `benches/simulator.rs` and `benches/warm_fork.rs` can each own
/// their slice of `BENCH_engine.json` without clobbering the other's.
///
/// The file is created as `{}`-rooted when missing. This is a
/// deliberately dumb splitter, not a JSON parser: it walks the top level
/// of the object tracking string/brace/bracket nesting, which is all the
/// bench files need.
///
/// # Errors
///
/// Propagates I/O errors; returns `InvalidData` when the existing file
/// is not a single top-level JSON object.
pub fn update_bench_json(
    path: &std::path::Path,
    sections: &[(&str, String)],
) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::from("{}"),
        Err(e) => return Err(e),
    };
    let mut entries = split_top_level_object(&existing).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{} is not a single top-level JSON object", path.display()),
        )
    })?;
    for (key, value) in sections {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value.clone(),
            None => entries.push((key.to_string(), value.clone())),
        }
    }
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("  \"{}\": {}{}\n", json_escape(key), value, sep));
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Splits the top level of a JSON object into `(key, raw value)` pairs.
/// Returns `None` when `text` isn't a single object.
fn split_top_level_object(text: &str) -> Option<Vec<(String, String)>> {
    let body = text.trim();
    let body = body.strip_prefix('{')?.strip_suffix('}')?;
    let mut entries = Vec::new();
    let mut chars = body.char_indices().peekable();
    loop {
        // Skip whitespace and the comma separating entries.
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        let Some(&(_, c)) = chars.peek() else {
            return Some(entries);
        };
        if c != '"' {
            return None;
        }
        chars.next();
        let mut key = String::new();
        let mut escaped = false;
        for (_, c) in chars.by_ref() {
            if escaped {
                // Keys in our bench files are plain identifiers; keep the
                // escape verbatim so round-tripping is lossless.
                key.push('\\');
                key.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                break;
            } else {
                key.push(c);
            }
        }
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        if !matches!(chars.next(), Some((_, ':'))) {
            return None;
        }
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        // Consume the value: track nesting until a top-level ',' or end.
        let start = chars.peek()?.0;
        let mut end = body.len();
        let mut depth = 0i32;
        let mut in_str = false;
        let mut str_escaped = false;
        for (i, c) in chars.by_ref() {
            if in_str {
                if str_escaped {
                    str_escaped = false;
                } else if c == '\\' {
                    str_escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                ',' if depth == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        if depth > 0 || in_str {
            return None;
        }
        entries.push((key, body[start..end].trim_end().to_string()));
        if end == body.len() {
            return Some(entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_key_is_content_based() {
        let a = CoreConfig::tiger_lake();
        let b = CoreConfig::tiger_lake();
        assert_eq!(config_key(&a), config_key(&b));
        let mut c = CoreConfig::tiger_lake();
        c.rob_entries += 1;
        assert_ne!(config_key(&a), config_key(&c));
    }

    #[test]
    fn empty_grid_returns_empty_per_config() {
        let out = run_grid(&[], 1_000, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn grid_rows_follow_config_order() {
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        let out = run_grid(&configs, 400, 3);
        assert_eq!(out.len(), 2);
        let suite = rfp_trace::suite();
        for row in &out {
            assert_eq!(row.len(), suite.len());
            for (r, w) in row.iter().zip(&suite) {
                assert_eq!(r.workload, w.name);
            }
        }
        // The RFP row must actually have run the RFP config.
        assert!(out[1].iter().any(|r| r.stats.rfp_injected > 0));
        assert!(out[0].iter().all(|r| r.stats.rfp_injected == 0));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn full_grid_reports_one_telemetry_row_per_job() {
        let configs = [CoreConfig::tiger_lake()];
        let out = run_grid_full(&configs, 300, 3, false);
        let n = rfp_trace::suite().len();
        assert_eq!(out.telemetry.len(), n);
        for (i, t) in out.telemetry.iter().enumerate() {
            assert_eq!(t.job, i, "telemetry sorted by grid position");
            assert_eq!(t.config, 0);
            assert_eq!(t.queue_depth, n - i);
            assert!(t.worker < 3);
        }
        // Plain runs carry no obs payload.
        assert!(out.reports[0].iter().all(|r| r.obs.is_none()));
    }

    #[test]
    fn obs_grid_attaches_metrics_without_changing_stats() {
        let configs = [CoreConfig::tiger_lake().with_rfp()];
        let plain = run_grid(&configs, 400, 2);
        let obs = run_grid_obs(&configs, 400, 2);
        for (p, o) in plain[0].iter().zip(&obs[0]) {
            assert_eq!(
                p.stats, o.stats,
                "{}: probing changed the simulation",
                p.workload
            );
            let m = o.obs.as_ref().expect("obs attached");
            assert_eq!(
                m.rfp_complete_rel_issue.total(),
                o.stats.rfp_useful,
                "{}: one timeliness sample per useful prefetch",
                o.workload
            );
            let prof = o.profile.as_ref().expect("profile attached");
            let t = prof.totals();
            assert_eq!(
                t.useful(),
                o.stats.rfp_useful,
                "{}: per-site useful sums to the aggregate",
                o.workload
            );
            assert_eq!(
                t.injected, o.stats.rfp_injected,
                "{}: per-site injections sum to the aggregate",
                o.workload
            );
        }
    }

    #[test]
    fn telemetry_jsonl_is_line_per_job_json() {
        let rows = [JobTelemetry {
            job: 3,
            config: 1,
            workload: "w\"x",
            worker: 0,
            queue_depth: 7,
            wall_nanos: 42,
            warm: "fork",
            store: "hit",
            store_bytes_read: 9,
            store_bytes_written: 0,
        }];
        let s = telemetry_jsonl(&rows);
        assert_eq!(
            s,
            "{\"schema\":1,\"job\":3,\"config\":1,\"workload\":\"w\\\"x\",\"worker\":0,\
             \"queue_depth\":7,\"wall_nanos\":42,\"warm\":\"fork\",\
             \"store\":\"hit\",\"store_bytes_read\":9,\"store_bytes_written\":0}\n"
        );
    }

    #[test]
    fn warm_key_normalizes_inert_fields_only() {
        // Seed is dead state unless EPP is rolling SSBF false positives.
        let a = CoreConfig::tiger_lake();
        let mut b = a.clone();
        b.seed ^= 0xdead_beef;
        assert_eq!(warm_key(&a), warm_key(&b), "seed is inert without EPP");
        assert_ne!(config_key(&a), config_key(&b));

        let mut ea = a.clone();
        ea.vp = VpMode::Epp(Default::default());
        let mut eb = ea.clone();
        eb.seed ^= 0xdead_beef;
        assert_ne!(warm_key(&ea), warm_key(&eb), "seed is live under EPP");

        // A warmup-relevant field must change the key.
        let mut c = a.clone();
        c.mem.l1.size_bytes *= 2;
        assert_ne!(warm_key(&a), warm_key(&c), "L1 geometry shapes warmup");
    }

    #[test]
    fn warm_twin_collapses_measurement_features() {
        let base = CoreConfig::tiger_lake();
        let rfp = CoreConfig::tiger_lake().with_rfp();
        let mut dedicated = CoreConfig::tiger_lake().with_rfp();
        dedicated.ports.dedicated_rfp = 2;
        // All three warm up identically once RFP/VP/ports are stripped.
        let t = config_key(&warm_twin(&base));
        assert_eq!(t, config_key(&warm_twin(&rfp)));
        assert_eq!(t, config_key(&warm_twin(&dedicated)));
        // The baseline is its own twin.
        assert_eq!(t, warm_key(&base));
        assert_ne!(t, warm_key(&rfp));
        // Twins always validate (they must be runnable configs).
        warm_twin(&dedicated).validate().unwrap();
    }

    #[test]
    fn pooled_grid_matches_unpooled_at_any_mode() {
        // Two seed-variants of the same projection: the exact pool forks
        // one snapshot per workload; results must be byte-identical to
        // the pool-disabled engine.
        let mut seeded = CoreConfig::tiger_lake().with_rfp();
        seeded.seed ^= 0x5eed;
        let configs = [CoreConfig::tiger_lake().with_rfp(), seeded];
        let off = run_grid_pooled(&WarmPool::new(WarmMode::Off, 400), &configs, 2, false);
        let exact = run_grid_pooled(&WarmPool::new(WarmMode::Exact, 400), &configs, 2, false);
        for (o, e) in off
            .reports
            .iter()
            .flatten()
            .zip(exact.reports.iter().flatten())
        {
            assert_eq!(o.stats, e.stats, "{}: exact fork diverged", o.workload);
        }
        assert!(exact.telemetry.iter().all(|t| t.warm == "fork"));
        assert!(off.telemetry.iter().all(|t| t.warm == "off"));
    }

    #[test]
    fn pool_counts_hits_and_evicts_bands() {
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake(), // duplicate: shares every snapshot
        ];
        let pool = WarmPool::new(WarmMode::Exact, 300);
        run_grid_pooled(&pool, &configs, 2, false);
        let stats = pool.stats();
        let n = rfp_trace::suite().len();
        assert_eq!(stats.snapshot_misses, n as u64, "one build per workload");
        assert_eq!(stats.snapshot_hits, n as u64, "one fork per workload");
        assert_eq!(stats.live_snapshots, 0, "bands evicted as they finish");
        assert!(stats.trace_builds >= n as u64);
    }

    #[test]
    fn pinned_snapshots_survive_eviction_and_serve_next_grid() {
        let cfg = CoreConfig::tiger_lake().with_rfp();
        let pool = WarmPool::new(WarmMode::Exact, 300);
        pool.pin_config(&cfg);
        let plain = run_grid_pooled(&pool, std::slice::from_ref(&cfg), 2, false);
        let after_first = pool.stats();
        assert_eq!(after_first.live_snapshots, rfp_trace::suite().len());
        // The follow-up (obs) grid forks the pinned snapshots: all hits.
        let obs = run_grid_pooled(&pool, &[cfg], 2, true);
        let stats = pool.stats();
        assert_eq!(stats.snapshot_misses, after_first.snapshot_misses);
        assert!(stats.snapshot_hits >= rfp_trace::suite().len() as u64);
        for (p, o) in plain.reports[0].iter().zip(&obs.reports[0]) {
            assert_eq!(p.stats, o.stats, "{}: probed fork diverged", p.workload);
            assert!(o.obs.is_some());
        }
    }

    #[test]
    fn checkpoint_mode_transplants_and_keeps_baseline_exact() {
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake(), // shares the baseline snapshot exactly
            CoreConfig::tiger_lake().with_rfp(),
        ];
        // 1500 uops: long enough for a cold prefetch table (the twin
        // carries no PT) to train and inject during the measured window.
        let pool = WarmPool::new(WarmMode::Checkpoint, 1_500);
        let out = run_grid_pooled(&pool, &configs, 2, false);
        let reference = run_grid_pooled(
            &WarmPool::new(WarmMode::Off, 1_500),
            &configs[..1],
            2,
            false,
        );
        // Baseline rows fork exactly — byte-identical.
        for row in 0..2 {
            for (o, r) in out.reports[row].iter().zip(&reference.reports[0]) {
                assert_eq!(o.stats, r.stats, "{}: baseline must stay exact", o.workload);
            }
        }
        // The RFP row transplanted: plausible, RFP actually ran.
        assert!(out.reports[2].iter().any(|r| r.stats.rfp_injected > 0));
        let n = rfp_trace::suite().len() as u64;
        assert_eq!(pool.stats().transplants, n);
        assert!(out
            .telemetry
            .iter()
            .filter(|t| t.config == 2)
            .all(|t| t.warm == "transplant"));
    }

    #[test]
    fn unshared_configs_run_straight_through() {
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        let pool = WarmPool::new(WarmMode::Exact, 300);
        let out = run_grid_pooled(&pool, &configs, 2, false);
        assert!(out.telemetry.iter().all(|t| t.warm == "straight"));
        assert_eq!(pool.stats().snapshot_misses, 0);
    }

    #[test]
    fn sim_mode_parses_strictly() {
        assert_eq!("full".parse::<SimMode>().unwrap(), SimMode::Full);
        assert_eq!("".parse::<SimMode>().unwrap(), SimMode::Full);
        assert_eq!("sample".parse::<SimMode>().unwrap(), SimMode::Sample);
        assert!("quick".parse::<SimMode>().is_err());
    }

    #[test]
    fn sample_plan_partitions_the_interval_grid() {
        let w = &rfp_trace::suite()[0];
        let ct = w.compiled(
            7 * SAMPLE_INTERVAL_UOPS,
            SAMPLE_INTERVAL_UOPS,
            SAMPLE_INTERVAL_UOPS,
        );
        let n = ct.intervals().len();
        assert_eq!(n, 6);
        let plan = build_sample_plan(&ct);
        // Every interval lands in exactly one phase, reps are members.
        let mut covered: Vec<usize> = plan
            .phases
            .iter()
            .flat_map(|p| p.members.iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..n).collect::<Vec<_>>());
        for p in &plan.phases {
            assert!(p.members.contains(&p.rep));
        }
        assert_eq!(plan.tail, 0);
        assert_eq!(plan, build_sample_plan(&ct), "plan is deterministic");
        assert_eq!(
            plan.simulated_uops(SAMPLE_INTERVAL_UOPS),
            plan.phases.len() as u64 * SAMPLE_INTERVAL_UOPS
        );
    }

    #[test]
    fn sampled_grid_extrapolates_to_the_full_measured_length() {
        // Two full intervals plus a ragged tail: weights must cover the
        // whole measured region exactly — retired_uops is extrapolated,
        // not simulated, so an off-by-one-interval bug shows up here.
        let len = 2 * SAMPLE_INTERVAL_UOPS + 4096;
        let configs = [
            CoreConfig::tiger_lake(),
            CoreConfig::tiger_lake().with_rfp(),
        ];
        let pool = WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, len);
        let out = run_grid_pooled(&pool, &configs, 2, false);
        for t in &out.telemetry {
            let expect = if t.config == 0 {
                "sample-fork" // the baseline is its own twin
            } else {
                "sample-transplant"
            };
            assert_eq!(t.warm, expect, "{}", t.workload);
        }
        for r in out.reports.iter().flatten() {
            assert_eq!(r.stats.retired_uops, len, "{}", r.workload);
            assert!(r.stats.cycles > 0, "{}", r.workload);
        }
        assert!(out.reports[1].iter().any(|r| r.stats.rfp_injected > 0));
    }

    #[test]
    fn sampled_degenerate_short_run_matches_full_fidelity() {
        // Under two full intervals the sampler cannot skip anything and
        // must fall back to a bit-exact full run of the compiled arena.
        let configs = [CoreConfig::tiger_lake().with_rfp()];
        let full = run_grid_pooled(&WarmPool::new(WarmMode::Off, 1_000), &configs, 2, false);
        let pool = WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, 1_000);
        let samp = run_grid_pooled(&pool, &configs, 2, false);
        assert!(samp.telemetry.iter().all(|t| t.warm == "sample-full"));
        for (f, s) in full
            .reports
            .iter()
            .flatten()
            .zip(samp.reports.iter().flatten())
        {
            assert_eq!(f.stats, s.stats, "{}", f.workload);
        }
    }

    #[test]
    fn sampled_obs_grid_stays_consistent_with_its_stats() {
        let len = 3 * SAMPLE_INTERVAL_UOPS;
        let configs = [CoreConfig::tiger_lake().with_rfp()];
        let pool = WarmPool::with_sim(WarmMode::Exact, SimMode::Sample, len);
        let plain = run_grid_pooled(&pool, &configs, 2, false);
        let obs = run_grid_pooled(&pool, &configs, 2, true);
        for (p, o) in plain.reports[0].iter().zip(&obs.reports[0]) {
            assert_eq!(p.stats, o.stats, "{}: probing changed the run", p.workload);
            let m = o.obs.as_ref().expect("obs attached");
            assert_eq!(
                m.rfp_complete_rel_issue.total(),
                o.stats.rfp_useful,
                "{}: extrapolated timeliness tracks extrapolated useful",
                o.workload
            );
            let cpi = o.cpi.as_ref().expect("cpi attached");
            assert!(
                cpi.intervals_consistent(),
                "{}: epoch placement must conserve the stack",
                o.workload
            );
            let t = o.profile.as_ref().expect("profile attached").totals();
            assert_eq!(t.useful(), o.stats.rfp_useful, "{}", o.workload);
            assert_eq!(t.injected, o.stats.rfp_injected, "{}", o.workload);
        }
    }

    #[test]
    fn update_bench_json_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("rfp_bench_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        update_bench_json(&path, &[("alpha", "{\n    \"x\": [1, 2]\n  }".into())]).unwrap();
        update_bench_json(&path, &[("beta", "3.5".into())]).unwrap();
        update_bench_json(&path, &[("alpha", "\"s,{}\"".into())]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = split_top_level_object(&text).unwrap();
        assert_eq!(
            entries,
            vec![
                ("alpha".to_string(), "\"s,{}\"".to_string()),
                ("beta".to_string(), "3.5".to_string()),
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn split_top_level_rejects_non_objects() {
        assert!(split_top_level_object("[1, 2]").is_none());
        assert!(split_top_level_object("{\"a\": {").is_none());
        assert_eq!(split_top_level_object("{}").unwrap(), vec![]);
    }
}
