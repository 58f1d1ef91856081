//! Statistics collection and plain-text report formatting for the RFP
//! simulator.
//!
//! [`CoreStats`] is the flat counter block the core fills in while it runs;
//! [`SimReport`] couples it with a workload identity and derives the
//! quantities the paper reports (IPC, prefetch coverage taxonomy, hit
//! distribution). [`TextTable`] renders the figures/tables as aligned text.
//!
//! # Examples
//!
//! ```
//! use rfp_stats::{CoreStats, SimReport};
//!
//! let mut s = CoreStats::default();
//! s.cycles = 1000;
//! s.retired_uops = 2500;
//! s.retired_loads = 600;
//! s.rfp_useful = 240;
//! let r = SimReport::new("demo", "Client", s);
//! assert!((r.ipc() - 2.5).abs() < 1e-9);
//! assert!((r.coverage() - 0.4).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

mod anomaly;
mod cpi;
mod profile;
mod trend;

pub use anomaly::{detect_anomalies, AnomalyWindow, ANOMALY_Z_THRESHOLD};
pub use cpi::{CpiBucket, CpiReport, CpiStack, CPI_BUCKETS, CPI_INTERVALS, CPI_INTERVAL_SHIFT};
pub use profile::{
    ProfileReport, SiteProfile, PREDICT_MISS_KINDS, PREDICT_MISS_LABELS, PROFILE_DROP_LABELS,
    PROFILE_DROP_REASONS,
};
pub use rfp_types::geomean;
pub use trend::{detect_trend, render_trend_table, Direction, TrendParams, TrendVerdict};

/// Host-side wall-clock measurement attached to a run.
///
/// Wall time varies run to run on the same inputs, so it is deliberately
/// *transparent to equality*: two stat blocks that simulated identically
/// compare equal no matter how long the host took. Determinism checks on
/// [`CoreStats`]/[`SimReport`] therefore keep working unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostThroughput {
    /// Wall-clock nanoseconds the run took on the host (warmup included).
    pub host_nanos: u64,
}

impl PartialEq for HostThroughput {
    fn eq(&self, _other: &Self) -> bool {
        true // see type docs: wall time never participates in equality
    }
}

impl Eq for HostThroughput {}

/// Flat counter block filled by the core during simulation.
///
/// All counters are dynamic-instance counts unless stated otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired micro-ops.
    pub retired_uops: u64,
    /// Retired loads.
    pub retired_loads: u64,
    /// Retired stores.
    pub retired_stores: u64,
    /// Retired branches.
    pub retired_branches: u64,
    /// Retired mispredicted branches.
    pub branch_mispredicts: u64,

    /// Demand-load hits per level: [L1, MSHR, L2, LLC, DRAM].
    pub load_hit_levels: [u64; 5],
    /// Loads served by store-to-load forwarding.
    pub load_forwarded: u64,
    /// Loads whose source operands were all ready at allocation
    /// (paper §3: 37%).
    pub loads_ready_at_alloc: u64,

    /// RFP: prefetch packets injected (entered the RFP queue).
    pub rfp_injected: u64,
    /// RFP: prefetches that reached the L1 pipeline (executed).
    pub rfp_executed: u64,
    /// RFP: prefetches whose data the load actually consumed (useful —
    /// this over loads is the paper's *coverage*).
    pub rfp_useful: u64,
    /// RFP: executed prefetches whose predicted address was wrong.
    pub rfp_wrong_addr: u64,
    /// RFP: packets dropped because the load issued first.
    pub rfp_dropped_load_first: u64,
    /// RFP: packets dropped on a DTLB miss.
    pub rfp_dropped_tlb: u64,
    /// RFP: packets dropped because the queue was full.
    pub rfp_dropped_queue_full: u64,
    /// RFP: packets dropped on an L1 miss (only when configured to drop).
    pub rfp_dropped_l1_miss: u64,
    /// RFP: queued or in-flight packets killed by a pipeline flush
    /// squashing their load before it could consume (or reject) the data.
    pub rfp_dropped_squashed: u64,
    /// RFP: useful prefetches that completed before the load dispatched
    /// (latency fully hidden, §5.2.2).
    pub rfp_fully_hidden: u64,

    /// Value prediction: loads whose value was predicted (dependence
    /// broken).
    pub vp_predicted: u64,
    /// Value prediction: mispredictions (each costs a flush).
    pub vp_mispredicted: u64,

    /// DLVP waterfall (Fig. 16): loads with any path-table knowledge.
    pub ap_known: u64,
    /// ... of those, loads passing the high-confidence bar (APHC).
    pub ap_high_confidence: u64,
    /// ... passing the no-FWD filter too.
    pub ap_no_fwd: u64,
    /// ... that found a free L1 port for the early probe.
    pub ap_probe_launched: u64,
    /// ... whose probe data returned before allocation (ProbeSuccess).
    pub ap_probe_success: u64,
    /// DLVP address mispredictions that fired (flush).
    pub ap_mispredicted: u64,

    /// Scheduler: speculatively issued uops cancelled at the scoreboard
    /// and re-issued.
    pub sched_reissues: u64,
    /// Memory-ordering violations (store-set training events).
    pub md_violations: u64,
    /// Pipeline flushes from value/address misprediction.
    pub vp_flushes: u64,
    /// EPP-style SSBF false-positive re-executions at retirement.
    pub epp_reexecutions: u64,

    /// Raw memory-side access counts per level (includes warmup, stores,
    /// RFP requests and prefetch traffic) — diagnostic only.
    pub mem_hit_counts: [u64; 5],
    /// Page walks performed by the data TLB (diagnostic).
    pub tlb_walks: u64,
    /// Cycles with zero retirement, classified by the kind of the ROB head
    /// blocking it: [load, store, branch, alu, fp, rob-empty] (diagnostic).
    pub stall_head_kind: [u64; 6],

    /// Retired micro-ops over the *whole* run, warmup included (the
    /// denominator-side counter for host throughput; `retired_uops` only
    /// covers the measured window).
    pub total_retired_uops: u64,
    /// Simulated cycles over the whole run, warmup included.
    pub total_cycles: u64,
    /// Host-side throughput measurement (equality-transparent).
    pub throughput: HostThroughput,
}

impl CoreStats {
    /// Total demand loads that accessed the hierarchy (excludes pure
    /// forwarding).
    pub fn demand_loads(&self) -> u64 {
        self.load_hit_levels.iter().sum()
    }

    /// Host wall-clock seconds the run took (0 when never measured).
    pub fn wall_seconds(&self) -> f64 {
        self.throughput.host_nanos as f64 / 1e9
    }

    /// Simulated micro-ops retired per host second (whole run).
    pub fn uops_per_sec(&self) -> f64 {
        per_second(self.total_retired_uops, self.throughput.host_nanos)
    }

    /// Simulated cycles per host second (whole run).
    pub fn cycles_per_sec(&self) -> f64 {
        per_second(self.total_cycles, self.throughput.host_nanos)
    }

    /// Sum of every terminal RFP bucket: each injected prefetch must end
    /// up useful, wrong-address, or dropped for exactly one reason.
    ///
    /// Queue-full rejections are *not* terminal buckets — those packets
    /// never entered the funnel (`rfp_injected` is not incremented for
    /// them).
    pub fn rfp_terminal_total(&self) -> u64 {
        self.rfp_useful
            + self.rfp_wrong_addr
            + self.rfp_dropped_load_first
            + self.rfp_dropped_tlb
            + self.rfp_dropped_l1_miss
            + self.rfp_dropped_squashed
    }

    /// Adds `other`'s counters into `self`, each multiplied by `weight`
    /// — the phase sampler's extrapolation step: a representative
    /// interval's stats, scaled by how many intervals its phase covers.
    /// Integer scaling preserves every linear invariant (funnel balance,
    /// hit-level sums) exactly.
    ///
    /// `throughput.host_nanos` is added *unscaled*: it measures host work
    /// actually done, not simulated work represented.
    pub fn merge_scaled(&mut self, other: &CoreStats, weight: u64) {
        // Exhaustive destructure: adding a `CoreStats` field without
        // deciding its extrapolation behaviour is a compile error here.
        let CoreStats {
            cycles,
            retired_uops,
            retired_loads,
            retired_stores,
            retired_branches,
            branch_mispredicts,
            load_hit_levels,
            load_forwarded,
            loads_ready_at_alloc,
            rfp_injected,
            rfp_executed,
            rfp_useful,
            rfp_wrong_addr,
            rfp_dropped_load_first,
            rfp_dropped_tlb,
            rfp_dropped_queue_full,
            rfp_dropped_l1_miss,
            rfp_dropped_squashed,
            rfp_fully_hidden,
            vp_predicted,
            vp_mispredicted,
            ap_known,
            ap_high_confidence,
            ap_no_fwd,
            ap_probe_launched,
            ap_probe_success,
            ap_mispredicted,
            sched_reissues,
            md_violations,
            vp_flushes,
            epp_reexecutions,
            mem_hit_counts,
            tlb_walks,
            stall_head_kind,
            total_retired_uops,
            total_cycles,
            throughput,
        } = other;
        self.cycles += cycles * weight;
        self.retired_uops += retired_uops * weight;
        self.retired_loads += retired_loads * weight;
        self.retired_stores += retired_stores * weight;
        self.retired_branches += retired_branches * weight;
        self.branch_mispredicts += branch_mispredicts * weight;
        for (a, b) in self.load_hit_levels.iter_mut().zip(load_hit_levels) {
            *a += b * weight;
        }
        self.load_forwarded += load_forwarded * weight;
        self.loads_ready_at_alloc += loads_ready_at_alloc * weight;
        self.rfp_injected += rfp_injected * weight;
        self.rfp_executed += rfp_executed * weight;
        self.rfp_useful += rfp_useful * weight;
        self.rfp_wrong_addr += rfp_wrong_addr * weight;
        self.rfp_dropped_load_first += rfp_dropped_load_first * weight;
        self.rfp_dropped_tlb += rfp_dropped_tlb * weight;
        self.rfp_dropped_queue_full += rfp_dropped_queue_full * weight;
        self.rfp_dropped_l1_miss += rfp_dropped_l1_miss * weight;
        self.rfp_dropped_squashed += rfp_dropped_squashed * weight;
        self.rfp_fully_hidden += rfp_fully_hidden * weight;
        self.vp_predicted += vp_predicted * weight;
        self.vp_mispredicted += vp_mispredicted * weight;
        self.ap_known += ap_known * weight;
        self.ap_high_confidence += ap_high_confidence * weight;
        self.ap_no_fwd += ap_no_fwd * weight;
        self.ap_probe_launched += ap_probe_launched * weight;
        self.ap_probe_success += ap_probe_success * weight;
        self.ap_mispredicted += ap_mispredicted * weight;
        self.sched_reissues += sched_reissues * weight;
        self.md_violations += md_violations * weight;
        self.vp_flushes += vp_flushes * weight;
        self.epp_reexecutions += epp_reexecutions * weight;
        for (a, b) in self.mem_hit_counts.iter_mut().zip(mem_hit_counts) {
            *a += b * weight;
        }
        self.tlb_walks += tlb_walks * weight;
        for (a, b) in self.stall_head_kind.iter_mut().zip(stall_head_kind) {
            *a += b * weight;
        }
        self.total_retired_uops += total_retired_uops * weight;
        self.total_cycles += total_cycles * weight;
        self.throughput.host_nanos += throughput.host_nanos;
    }

    /// Checks the RFP funnel invariant: every injected prefetch has
    /// landed in exactly one terminal bucket.
    ///
    /// Holds with equality at the end of a run whose statistics were
    /// never reset mid-flight (no warmup window): the ROB drains before
    /// the core stops, so no packet can still be queued or in flight.
    /// With a warmup reset the two sides can legitimately diverge
    /// (packets injected before the reset resolve after it), so callers
    /// only assert this on warmup-free runs.
    pub fn funnel_consistent(&self) -> bool {
        self.rfp_terminal_total() == self.rfp_injected
    }
}

fn per_second(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 * 1e9 / nanos as f64
    }
}

/// Number of buckets in a [`Log2Histogram`]: bucket 0 plus one bucket
/// per power of two up to values ≥ 2³¹ (the last bucket is open-ended).
pub const LOG2_BUCKETS: usize = 33;

/// Number of time windows in [`ObsMetrics::rfp_drops_over_time`].
pub const DROP_WINDOWS: usize = 16;

/// Cycles per drop-reason time window (`1 << DROP_WINDOW_SHIFT`), fixed
/// so per-thread sinks bucket identically and merge deterministically.
pub const DROP_WINDOW_SHIFT: u32 = 12;

/// Number of RFP drop reasons tracked over time:
/// `[load-first, tlb-miss, queue-full, l1-miss, squashed]`.
pub const DROP_REASONS: usize = 5;

/// A log2-bucketed histogram of non-negative values (cycle counts).
///
/// Bucket 0 counts exact zeros; bucket `k ≥ 1` counts values in
/// `[2^(k-1), 2^k)`; the last bucket is open above. Merging is plain
/// addition, so aggregation across threads is order-independent.
///
/// # Examples
///
/// ```
/// use rfp_stats::Log2Histogram;
/// let mut h = Log2Histogram::default();
/// h.record(0);
/// h.record(1);
/// h.record(5); // [4, 8) -> bucket 3
/// assert_eq!(h.buckets[0], 1);
/// assert_eq!(h.buckets[1], 1);
/// assert_eq!(h.buckets[3], 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    /// Per-bucket counts (see type docs for the bucket boundaries).
    pub buckets: [u64; LOG2_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
        }
    }
}

impl Log2Histogram {
    /// Bucket index for `v`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
        }
    }

    /// Inclusive-exclusive value range `[lo, hi)` of bucket `k` (the last
    /// bucket's `hi` is `u64::MAX`).
    pub fn bucket_range(k: usize) -> (u64, u64) {
        match k {
            0 => (0, 1),
            k if k >= LOG2_BUCKETS - 1 => (1 << (LOG2_BUCKETS - 2), u64::MAX),
            k => (1 << (k - 1), 1 << k),
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Total recorded count.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Count of recorded values `<= v` assuming the worst (every value in
    /// a partially covered bucket counts only if the whole bucket does).
    pub fn count_le(&self, v: u64) -> u64 {
        let k = Self::bucket_of(v);
        self.buckets.iter().take(k).sum::<u64>().saturating_add(
            if Self::bucket_range(k).1 <= v.saturating_add(1) {
                self.buckets[k]
            } else {
                0
            },
        )
    }

    /// Adds `other`'s counts into `self` (commutative and associative).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Adds `other`'s counts into `self`, multiplied by `weight` (the
    /// phase sampler's extrapolation).
    pub fn merge_scaled(&mut self, other: &Log2Histogram, weight: u64) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b * weight;
        }
    }

    /// JSON array of the bucket counts.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.buckets.iter().map(|b| b.to_string()).collect();
        format!("[{}]", cells.join(","))
    }
}

/// A log2 histogram over signed values: one [`Log2Histogram`] for the
/// magnitudes of negative values, one for non-negative values.
///
/// Used for *prefetch completion relative to load issue*: negative means
/// the data landed before the load even reached the AGU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignedLog2Histogram {
    /// Histogram of `-v` for recorded values `v < 0`.
    pub neg: Log2Histogram,
    /// Histogram of recorded values `v >= 0`.
    pub nonneg: Log2Histogram,
}

impl SignedLog2Histogram {
    /// Records one signed value.
    pub fn record(&mut self, v: i64) {
        if v < 0 {
            self.neg.record(v.unsigned_abs());
        } else {
            self.nonneg.record(v as u64);
        }
    }

    /// Total recorded count.
    pub fn total(&self) -> u64 {
        self.neg.total() + self.nonneg.total()
    }

    /// Count of recorded values `<= v` (for non-negative `v` only; the
    /// use case is "completed no later than issue + v").
    pub fn count_le(&self, v: u64) -> u64 {
        self.neg.total() + self.nonneg.count_le(v)
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &SignedLog2Histogram) {
        self.neg.merge(&other.neg);
        self.nonneg.merge(&other.nonneg);
    }

    /// Adds `other`'s counts into `self`, multiplied by `weight`.
    pub fn merge_scaled(&mut self, other: &SignedLog2Histogram, weight: u64) {
        self.neg.merge_scaled(&other.neg, weight);
        self.nonneg.merge_scaled(&other.nonneg, weight);
    }

    /// JSON object with `neg` and `nonneg` bucket arrays.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"neg\":{},\"nonneg\":{}}}",
            self.neg.to_json(),
            self.nonneg.to_json()
        )
    }
}

/// Latency-distribution metrics collected by an observability sink
/// (`rfp-obs`'s `MetricsSink`) during one simulation.
///
/// Everything here is count-based and merges by addition, so aggregating
/// per-workload metrics across the work-stealing engine's threads is
/// deterministic in any order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsMetrics {
    /// Load issue (AGU) to data availability, all retiring load
    /// executions — the paper's "load-to-use" latency.
    pub load_use_latency: Log2Histogram,
    /// Load-to-use latency split by serving tier
    /// `[L1, MSHR, L2, LLC, DRAM]` (forwarded loads are excluded).
    pub load_latency_by_level: [Log2Histogram; 5],
    /// Prefetch completion minus the load's own issue cycle, for useful
    /// prefetches. Values ≤ 1 are the paper's "fully hidden" class
    /// (§5.2.2); larger values say how late the prefetch was.
    pub rfp_complete_rel_issue: SignedLog2Histogram,
    /// Cycles a prefetch packet waited in the RFP queue before winning an
    /// L1 port.
    pub rfp_queue_wait: Log2Histogram,
    /// RFP drops per `[time window][reason]`; windows are
    /// `1 << DROP_WINDOW_SHIFT` cycles wide (last window open-ended),
    /// reasons are `[load-first, tlb-miss, queue-full, l1-miss, squashed]`.
    pub rfp_drops_over_time: [[u64; DROP_REASONS]; DROP_WINDOWS],
}

impl ObsMetrics {
    /// The time-window index for an event at `cycle`.
    pub fn drop_window(cycle: u64) -> usize {
        ((cycle >> DROP_WINDOW_SHIFT) as usize).min(DROP_WINDOWS - 1)
    }

    /// Fraction of useful prefetches whose data was ready by load issue
    /// + 1 (the fully-hidden class).
    pub fn fully_hidden_frac(&self) -> f64 {
        ratio(
            self.rfp_complete_rel_issue.count_le(1),
            self.rfp_complete_rel_issue.total(),
        )
    }

    /// Total RFP drops per reason, summed over time windows.
    pub fn drops_by_reason(&self) -> [u64; DROP_REASONS] {
        let mut out = [0u64; DROP_REASONS];
        for w in &self.rfp_drops_over_time {
            for (o, c) in out.iter_mut().zip(w) {
                *o += c;
            }
        }
        out
    }

    /// Adds `other`'s counts into `self` (commutative and associative,
    /// hence merge-order-independent).
    pub fn merge(&mut self, other: &ObsMetrics) {
        self.load_use_latency.merge(&other.load_use_latency);
        for (a, b) in self
            .load_latency_by_level
            .iter_mut()
            .zip(&other.load_latency_by_level)
        {
            a.merge(b);
        }
        self.rfp_complete_rel_issue
            .merge(&other.rfp_complete_rel_issue);
        self.rfp_queue_wait.merge(&other.rfp_queue_wait);
        for (a, b) in self
            .rfp_drops_over_time
            .iter_mut()
            .zip(&other.rfp_drops_over_time)
        {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Adds `other`'s counts into `self`, each multiplied by `weight` —
    /// the distribution shape of one representative interval, weighted by
    /// how many intervals its phase covers. Time-window indices stay
    /// where the representative recorded them (windows count cycles since
    /// that window's own stats reset).
    pub fn merge_scaled(&mut self, other: &ObsMetrics, weight: u64) {
        self.load_use_latency
            .merge_scaled(&other.load_use_latency, weight);
        for (a, b) in self
            .load_latency_by_level
            .iter_mut()
            .zip(&other.load_latency_by_level)
        {
            a.merge_scaled(b, weight);
        }
        self.rfp_complete_rel_issue
            .merge_scaled(&other.rfp_complete_rel_issue, weight);
        self.rfp_queue_wait
            .merge_scaled(&other.rfp_queue_wait, weight);
        for (a, b) in self
            .rfp_drops_over_time
            .iter_mut()
            .zip(&other.rfp_drops_over_time)
        {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y * weight;
            }
        }
    }

    /// Hand-written JSON rendering (the workspace builds without serde).
    pub fn to_json(&self) -> String {
        let levels: Vec<String> = self
            .load_latency_by_level
            .iter()
            .map(Log2Histogram::to_json)
            .collect();
        let windows: Vec<String> = self
            .rfp_drops_over_time
            .iter()
            .map(|w| {
                let cells: Vec<String> = w.iter().map(|c| c.to_string()).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            "{{\"load_use_latency\":{},\"load_latency_by_level\":[{}],\
             \"rfp_complete_rel_issue\":{},\"rfp_queue_wait\":{},\
             \"drop_window_cycles\":{},\"rfp_drops_over_time\":[{}]}}",
            self.load_use_latency.to_json(),
            levels.join(","),
            self.rfp_complete_rel_issue.to_json(),
            self.rfp_queue_wait.to_json(),
            1u64 << DROP_WINDOW_SHIFT,
            windows.join(","),
        )
    }
}

/// A finished simulation of one workload under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Workload category label.
    pub category: String,
    /// Raw counters.
    pub stats: CoreStats,
    /// Latency-distribution metrics, when the run was instrumented with a
    /// metrics sink (`None` for ordinary uninstrumented runs).
    pub obs: Option<Box<ObsMetrics>>,
    /// Cycle-accounting CPI stack, when the run was instrumented with a
    /// CPI sink (`None` for ordinary uninstrumented runs).
    pub cpi: Option<Box<CpiReport>>,
    /// Per-load-PC attribution, when the run was instrumented with a
    /// profile sink (`None` for ordinary uninstrumented runs).
    pub profile: Option<Box<ProfileReport>>,
}

impl SimReport {
    /// Creates a report.
    pub fn new(workload: impl Into<String>, category: impl Into<String>, stats: CoreStats) -> Self {
        SimReport {
            workload: workload.into(),
            category: category.into(),
            stats,
            obs: None,
            cpi: None,
            profile: None,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.stats.cycles == 0 {
            return 0.0;
        }
        self.stats.retired_uops as f64 / self.stats.cycles as f64
    }

    /// RFP coverage: useful prefetches over all retired loads (the paper's
    /// definition in §5.1).
    pub fn coverage(&self) -> f64 {
        ratio(self.stats.rfp_useful, self.stats.retired_loads)
    }

    /// Fraction of loads with an injected prefetch packet (Fig. 13).
    pub fn injected_frac(&self) -> f64 {
        ratio(self.stats.rfp_injected, self.stats.retired_loads)
    }

    /// Fraction of loads whose prefetch executed (Fig. 13).
    pub fn executed_frac(&self) -> f64 {
        ratio(self.stats.rfp_executed, self.stats.retired_loads)
    }

    /// Fraction of loads with a wrong-address prefetch (§5.2: ~5%).
    pub fn wrong_frac(&self) -> f64 {
        ratio(self.stats.rfp_wrong_addr, self.stats.retired_loads)
    }

    /// Fraction of loads whose latency RFP fully hid (§5.2.2: 34.2%).
    pub fn fully_hidden_frac(&self) -> f64 {
        ratio(self.stats.rfp_fully_hidden, self.stats.retired_loads)
    }

    /// Value-prediction coverage over loads.
    pub fn vp_coverage(&self) -> f64 {
        ratio(self.stats.vp_predicted, self.stats.retired_loads)
    }

    /// L1 hit fraction among demand loads (Fig. 2: ~92.8%).
    pub fn l1_hit_frac(&self) -> f64 {
        ratio(self.stats.load_hit_levels[0], self.stats.demand_loads())
    }

    /// Demand-load distribution over [L1, MSHR, L2, LLC, DRAM].
    pub fn hit_distribution(&self) -> [f64; 5] {
        let total = self.stats.demand_loads();
        let mut out = [0.0; 5];
        for (o, &c) in out.iter_mut().zip(&self.stats.load_hit_levels) {
            *o = ratio(c, total);
        }
        out
    }

    /// Fraction of loads ready at allocation (paper: 37%).
    pub fn ready_at_alloc_frac(&self) -> f64 {
        ratio(self.stats.loads_ready_at_alloc, self.stats.retired_loads)
    }

    /// Host wall-clock seconds this run took.
    pub fn wall_seconds(&self) -> f64 {
        self.stats.wall_seconds()
    }

    /// Simulated micro-ops per host second.
    pub fn uops_per_sec(&self) -> f64 {
        self.stats.uops_per_sec()
    }

    /// Simulated cycles per host second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.stats.cycles_per_sec()
    }

    /// Stable, byte-comparable serialization of everything deterministic
    /// in the report. Host wall time is explicitly excluded, so two runs
    /// of the same workload/config produce identical bytes regardless of
    /// host speed or thread scheduling — the determinism tests compare
    /// exactly this.
    pub fn canonical_text(&self) -> String {
        let mut stats = self.stats.clone();
        stats.throughput = HostThroughput::default();
        let mut out = format!(
            "workload={} category={} stats={stats:?}",
            self.workload, self.category
        );
        if let Some(obs) = &self.obs {
            out.push_str(" obs=");
            out.push_str(&obs.to_json());
        }
        if let Some(cpi) = &self.cpi {
            out.push_str(" cpi=");
            out.push_str(&cpi.to_json());
        }
        if let Some(profile) = &self.profile {
            out.push_str(" profile=");
            out.push_str(&profile.to_json());
        }
        out
    }
}

/// `num / den` with a zero-denominator guard (empty windows, zero-stall
/// intervals and the like report `0.0` instead of NaN).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Geometric-mean speedup of `new` over `base`, matched by workload name.
///
/// Returns `None` when the run sets don't overlap or IPCs are degenerate.
///
/// # Examples
///
/// ```
/// use rfp_stats::{CoreStats, SimReport, geomean_speedup};
/// let mk = |cycles| {
///     let mut s = CoreStats::default();
///     s.cycles = cycles;
///     s.retired_uops = 1000;
///     SimReport::new("w", "Client", s)
/// };
/// let s = geomean_speedup(&[mk(1000)], &[mk(800)]).unwrap();
/// assert!((s - 1.25).abs() < 1e-9);
/// ```
pub fn geomean_speedup(base: &[SimReport], new: &[SimReport]) -> Option<f64> {
    let mut ratios = Vec::new();
    for b in base {
        if let Some(n) = new.iter().find(|n| n.workload == b.workload) {
            let (bi, ni) = (b.ipc(), n.ipc());
            if bi > 0.0 && ni > 0.0 {
                ratios.push(ni / bi);
            }
        }
    }
    geomean(&ratios)
}

/// Mean of a derived per-report fraction, weighted equally per workload
/// (the way the paper averages coverage).
pub fn mean_frac(reports: &[SimReport], f: impl Fn(&SimReport) -> f64) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

/// Groups reports by their category label, preserving first-seen order.
///
/// # Examples
///
/// ```
/// use rfp_stats::{by_category, CoreStats, SimReport};
/// let reports = vec![
///     SimReport::new("a", "Cloud", CoreStats::default()),
///     SimReport::new("b", "Client", CoreStats::default()),
///     SimReport::new("c", "Cloud", CoreStats::default()),
/// ];
/// let groups = by_category(&reports);
/// assert_eq!(groups[0].0, "Cloud");
/// assert_eq!(groups[0].1.len(), 2);
/// ```
pub fn by_category(reports: &[SimReport]) -> Vec<(String, Vec<&SimReport>)> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: std::collections::HashMap<String, Vec<&SimReport>> = Default::default();
    for r in reports {
        if !groups.contains_key(&r.category) {
            order.push(r.category.clone());
        }
        groups.entry(r.category.clone()).or_default().push(r);
    }
    order
        .into_iter()
        .map(|c| {
            let v = groups.remove(&c).expect("inserted above");
            (c, v)
        })
        .collect()
}

/// Returns the p-th percentile (0..=100, nearest-rank) of `values`.
///
/// Returns `None` for an empty slice or a percentile outside 0..=100.
///
/// # Examples
///
/// ```
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(rfp_stats::percentile(&v, 50), Some(2.0));
/// assert_eq!(rfp_stats::percentile(&v, 100), Some(4.0));
/// assert_eq!(rfp_stats::percentile(&[], 50), None);
/// ```
pub fn percentile(values: &[f64], p: u8) -> Option<f64> {
    if values.is_empty() || p > 100 {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p as f64 / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// A minimal fixed-width text table renderer for experiment output.
///
/// # Examples
///
/// ```
/// use rfp_stats::TextTable;
/// let mut t = TextTable::new(&["workload", "ipc"]);
/// t.row(&["spec17_mcf", "1.43"]);
/// let s = t.render();
/// assert!(s.contains("spec17_mcf"));
/// assert!(s.contains("ipc"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// truncated to the header width.
    pub fn row(&mut self, cells: &[&str]) {
        let mut r: Vec<String> = cells
            .iter()
            .take(self.headers.len())
            .map(|s| s.to_string())
            .collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells
    /// containing commas or quotes), for piping into plotting tools.
    pub fn to_csv(&self) -> String {
        fn quote(c: &str) -> String {
            if c.contains([',', '"', '\n']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            let row: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&row.join(","));
            out.push('\n');
        };
        line(&self.headers, &mut out);
        for r in &self.rows {
            line(r, &mut out);
        }
        out
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for i in 0..cols {
                let _ = write!(out, "{:<width$}", cells[i], width = widths[i] + 2);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal (paper style).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Schema version of the [`EngineMetrics`] JSON document. Bump whenever
/// a field is added, removed or reinterpreted so downstream consumers
/// (the report dashboard, the future experiment service) can dispatch.
///
/// Version 2 dropped the per-tier store arrays: the store caches job
/// results only, so its counters are plain scalars.
pub const ENGINE_METRICS_SCHEMA_VERSION: u32 = 2;

/// Host-side timing section of an [`EngineMetrics`]: everything here is
/// schedule- and machine-dependent (worker counts, steal counts, wall
/// time) and therefore quarantined in its own sub-object, away from the
/// deterministic counters — mirroring the `JobTelemetry` / `SimReport`
/// split the engine already maintains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineTiming {
    /// Largest worker-thread count any merged grid ran with.
    pub workers: u64,
    /// Claim-order worker handoffs: jobs grabbed by a different worker
    /// than the previous claim (the work-stealing churn proxy).
    pub steals: u64,
    /// Host wall nanoseconds summed over jobs (CPU-time when parallel).
    pub wall_nanos: u64,
}

impl EngineTiming {
    /// Merges `other` into `self`: counts add, `workers` takes the max.
    pub fn merge(&mut self, other: &EngineTiming) {
        self.workers = self.workers.max(other.workers);
        self.steals += other.steals;
        self.wall_nanos += other.wall_nanos;
    }

    /// Hand-written JSON rendering (the workspace builds without serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers\":{},\"steals\":{},\"wall_nanos\":{}}}",
            self.workers, self.steals, self.wall_nanos
        )
    }
}

/// Versioned summary of the *experiment engine's* own behaviour over one
/// or more grid runs: job counts per warm-path arm, warm-pool and
/// persistent result-store hit rates, and the queue-occupancy
/// distribution at claim time.
///
/// Everything outside [`EngineMetrics::timing`] is a deterministic
/// function of the grid contents and the store state — byte-identical
/// across thread counts — and merges by addition
/// ([`EngineMetrics::merge`] is commutative), so per-grid summaries can
/// be folded in any order. Host-dependent values live only in the
/// `timing` sub-object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Total grid jobs (one `(config, workload)` cell each).
    pub jobs: u64,
    /// Jobs per warm-path arm (`off`, `straight`, `fork`, `transplant`,
    /// `sample-*`, `store`), in deterministic key order.
    pub jobs_by_warm: std::collections::BTreeMap<String, u64>,
    /// Warm-pool snapshot forks served from an already-built snapshot.
    pub snapshot_hits: u64,
    /// Warm-pool snapshot cells built.
    pub snapshot_misses: u64,
    /// Checkpoint-mode twin transplants performed.
    pub transplants: u64,
    /// Compiled-trace arenas built.
    pub trace_builds: u64,
    /// Result-store lookups served from disk.
    pub store_hits: u64,
    /// Result-store lookups that missed.
    pub store_misses: u64,
    /// Entry bytes read by result-store hits.
    pub store_bytes_read: u64,
    /// Entry bytes published by result-store writes.
    pub store_bytes_written: u64,
    /// Store misses where a file existed but failed verification.
    pub store_corrupt: u64,
    /// Unclaimed-queue depth observed at each job claim.
    pub queue_depth: Log2Histogram,
    /// Host-dependent timing, quarantined (see [`EngineTiming`]).
    pub timing: EngineTiming,
}

impl EngineMetrics {
    /// Adds one job served by warm-path `warm` at claim-time queue depth
    /// `depth`.
    pub fn record_job(&mut self, warm: &str, depth: u64) {
        self.jobs += 1;
        *self.jobs_by_warm.entry(warm.to_string()).or_insert(0) += 1;
        self.queue_depth.record(depth);
    }

    /// Merges `other` into `self` (commutative apart from
    /// `timing.workers`, which takes the max).
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.jobs += other.jobs;
        for (k, v) in &other.jobs_by_warm {
            *self.jobs_by_warm.entry(k.clone()).or_insert(0) += v;
        }
        self.snapshot_hits += other.snapshot_hits;
        self.snapshot_misses += other.snapshot_misses;
        self.transplants += other.transplants;
        self.trace_builds += other.trace_builds;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.store_bytes_read += other.store_bytes_read;
        self.store_bytes_written += other.store_bytes_written;
        self.store_corrupt += other.store_corrupt;
        self.queue_depth.merge(&other.queue_depth);
        self.timing.merge(&other.timing);
    }

    /// Hand-written JSON rendering with derived hit rates; key order is
    /// fixed and floats use six decimals, so the document is
    /// byte-deterministic given equal counters.
    pub fn to_json(&self) -> String {
        let warm: Vec<String> = self
            .jobs_by_warm
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"schema\":{ENGINE_METRICS_SCHEMA_VERSION},\"jobs\":{},\
             \"jobs_by_warm\":{{{}}},\
             \"warm_pool\":{{\"snapshot_hits\":{},\"snapshot_misses\":{},\
             \"snapshot_hit_rate\":{:.6},\"transplants\":{},\"trace_builds\":{}}},\
             \"store\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\
             \"bytes_read\":{},\"bytes_written\":{},\"corrupt\":{}}},\
             \"queue_depth\":{},\"timing\":{}}}",
            self.jobs,
            warm.join(","),
            self.snapshot_hits,
            self.snapshot_misses,
            ratio(
                self.snapshot_hits,
                self.snapshot_hits + self.snapshot_misses
            ),
            self.transplants,
            self.trace_builds,
            self.store_hits,
            self.store_misses,
            ratio(self.store_hits, self.store_hits + self.store_misses),
            self.store_bytes_read,
            self.store_bytes_written,
            self.store_corrupt,
            self.queue_depth.to_json(),
            self.timing.to_json(),
        )
    }
}

mod codec_impls {
    //! Binary codecs for persisted experiment results (the on-disk store's
    //! job-result tier serialises whole [`SimReport`]s).

    use super::{
        CoreStats, HostThroughput, Log2Histogram, ObsMetrics, SignedLog2Histogram, SimReport,
    };
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};

    /// Implements [`Codec`] by encoding the named fields in declaration
    /// order. The destructuring pattern is exhaustive, so adding a field
    /// without updating the wire format is a compile error.
    macro_rules! codec_fields {
        ($ty:ident { $($f:ident),+ $(,)? }) => {
            impl Codec for $ty {
                fn encode(&self, w: &mut ByteWriter) {
                    let $ty { $($f),+ } = self;
                    $( $f.encode(w); )+
                }
                fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                    Ok($ty { $( $f: Codec::decode(r)?, )+ })
                }
            }
        };
    }

    codec_fields!(HostThroughput { host_nanos });
    codec_fields!(Log2Histogram { buckets });
    codec_fields!(SignedLog2Histogram { neg, nonneg });
    codec_fields!(ObsMetrics {
        load_use_latency,
        load_latency_by_level,
        rfp_complete_rel_issue,
        rfp_queue_wait,
        rfp_drops_over_time,
    });
    codec_fields!(CoreStats {
        cycles,
        retired_uops,
        retired_loads,
        retired_stores,
        retired_branches,
        branch_mispredicts,
        load_hit_levels,
        load_forwarded,
        loads_ready_at_alloc,
        rfp_injected,
        rfp_executed,
        rfp_useful,
        rfp_wrong_addr,
        rfp_dropped_load_first,
        rfp_dropped_tlb,
        rfp_dropped_queue_full,
        rfp_dropped_l1_miss,
        rfp_dropped_squashed,
        rfp_fully_hidden,
        vp_predicted,
        vp_mispredicted,
        ap_known,
        ap_high_confidence,
        ap_no_fwd,
        ap_probe_launched,
        ap_probe_success,
        ap_mispredicted,
        sched_reissues,
        md_violations,
        vp_flushes,
        epp_reexecutions,
        mem_hit_counts,
        tlb_walks,
        stall_head_kind,
        total_retired_uops,
        total_cycles,
        throughput,
    });
    codec_fields!(SimReport {
        workload,
        category,
        stats,
        obs,
        cpi,
        profile,
    });

    pub(crate) use codec_fields;
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use rfp_types::codec::{decode_from_slice, encode_to_vec};

    fn sample_report() -> SimReport {
        let mut stats = CoreStats {
            cycles: 123_456,
            retired_uops: 98_765,
            retired_loads: 20_001,
            load_hit_levels: [15_000, 300, 2_500, 1_200, 1_001],
            rfp_injected: 9_000,
            rfp_useful: 7_000,
            throughput: HostThroughput {
                host_nanos: 5_000_000,
            },
            ..CoreStats::default()
        };
        stats.stall_head_kind = [1, 2, 3, 4, 5, 6];
        let mut obs = ObsMetrics::default();
        obs.load_use_latency.record(5);
        obs.load_latency_by_level[2].record(14);
        obs.rfp_complete_rel_issue.record(-3);
        obs.rfp_complete_rel_issue.record(17);
        obs.rfp_queue_wait.record(2);
        obs.rfp_drops_over_time[3][1] = 42;
        let mut r = SimReport::new("wl", "cat", stats);
        r.obs = Some(Box::new(obs));
        r
    }

    #[test]
    fn sim_report_round_trips_bit_exactly() {
        let report = sample_report();
        let bytes = encode_to_vec(&report);
        let back: SimReport = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, report);
        assert_eq!(back.canonical_text(), report.canonical_text());
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn sim_report_none_sections_round_trip() {
        let report = SimReport::new("w", "c", CoreStats::default());
        let bytes = encode_to_vec(&report);
        let back: SimReport = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, report);
        assert!(back.obs.is_none() && back.cpi.is_none() && back.profile.is_none());
    }

    #[test]
    fn truncated_report_is_an_error_not_a_panic() {
        let bytes = encode_to_vec(&sample_report());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_from_slice::<SimReport>(&bytes[..cut]).is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, uops: u64, loads: u64, useful: u64) -> SimReport {
        let s = CoreStats {
            cycles,
            retired_uops: uops,
            retired_loads: loads,
            rfp_useful: useful,
            ..CoreStats::default()
        };
        SimReport::new("w", "Client", s)
    }

    #[test]
    fn ipc_and_coverage_derive_correctly() {
        let r = report(100, 450, 100, 43);
        assert!((r.ipc() - 4.5).abs() < 1e-12);
        assert!((r.coverage() - 0.43).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = report(0, 0, 0, 0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.coverage(), 0.0);
        assert_eq!(r.l1_hit_frac(), 0.0);
    }

    #[test]
    fn empty_trace_fractions_never_poison_aggregates() {
        // A short/empty trace retires zero loads and injects zero
        // prefetches; every derived fraction must be 0.0 (not NaN) so
        // suite-level means and geomeans stay finite.
        let r = report(0, 0, 0, 0);
        for v in [
            r.injected_frac(),
            r.executed_frac(),
            r.wrong_frac(),
            r.fully_hidden_frac(),
            r.vp_coverage(),
            r.ready_at_alloc_frac(),
        ] {
            assert_eq!(v, 0.0);
        }
        assert!(r.hit_distribution().iter().all(|&v| v == 0.0));
        let m = mean_frac(&[r], |r| r.coverage());
        assert!(m.is_finite() && m == 0.0);
        let obs = ObsMetrics::default();
        assert_eq!(obs.fully_hidden_frac(), 0.0);
    }

    #[test]
    fn funnel_consistency_accounts_every_injection() {
        let mut s = CoreStats {
            rfp_injected: 10,
            rfp_useful: 4,
            ..CoreStats::default()
        };
        s.rfp_wrong_addr = 1;
        s.rfp_dropped_load_first = 2;
        s.rfp_dropped_tlb = 1;
        s.rfp_dropped_l1_miss = 1;
        s.rfp_dropped_squashed = 1;
        assert_eq!(s.rfp_terminal_total(), 10);
        assert!(s.funnel_consistent());
        // Queue-full rejections never entered the funnel: they must not
        // count toward the terminal total.
        s.rfp_dropped_queue_full = 7;
        assert!(s.funnel_consistent());
        // A leaked packet (injected but never terminal) is caught.
        s.rfp_injected += 1;
        assert!(!s.funnel_consistent());
    }

    #[test]
    fn log2_histogram_buckets_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), LOG2_BUCKETS - 1);
        let mut h = Log2Histogram::default();
        for v in [0, 1, 1, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.count_le(1), 3);
        assert_eq!(h.count_le(3), 4);
        assert_eq!(h.to_json().matches(',').count(), LOG2_BUCKETS - 1);
    }

    #[test]
    fn signed_histogram_splits_on_sign() {
        let mut h = SignedLog2Histogram::default();
        h.record(-5);
        h.record(0);
        h.record(1);
        h.record(9);
        assert_eq!(h.total(), 4);
        // "completed by issue + 1": the negative, the zero and the one.
        assert_eq!(h.count_le(1), 3);
        assert!(h.to_json().contains("\"neg\""));
    }

    #[test]
    fn obs_metrics_merge_is_order_independent() {
        let mut a = ObsMetrics::default();
        a.load_use_latency.record(5);
        a.rfp_complete_rel_issue.record(-3);
        a.rfp_drops_over_time[0][1] = 2;
        let mut b = ObsMetrics::default();
        b.load_use_latency.record(70);
        b.load_latency_by_level[4].record(300);
        b.rfp_queue_wait.record(2);
        b.rfp_drops_over_time[ObsMetrics::drop_window(1 << 20)][4] = 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.drops_by_reason(), [0, 2, 0, 0, 1]);
    }

    #[test]
    fn obs_metrics_json_is_parseable_shape() {
        let m = ObsMetrics::default();
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "load_use_latency",
            "load_latency_by_level",
            "rfp_complete_rel_issue",
            "rfp_queue_wait",
            "rfp_drops_over_time",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn canonical_text_includes_obs_when_present() {
        let mut r = report(100, 450, 100, 43);
        let without = r.canonical_text();
        let mut obs = ObsMetrics::default();
        obs.load_use_latency.record(5);
        r.obs = Some(Box::new(obs));
        let with = r.canonical_text();
        assert_ne!(without, with);
        assert!(with.contains("obs={"));
    }

    #[test]
    fn canonical_text_includes_cpi_when_present() {
        let mut r = report(100, 450, 100, 43);
        let without = r.canonical_text();
        let mut cpi = CpiReport::default();
        cpi.record(CpiBucket::Retiring, 5, 0);
        r.cpi = Some(Box::new(cpi));
        let with = r.canonical_text();
        assert_ne!(without, with);
        assert!(with.contains(" cpi={"));
        assert!(with.contains("\"retiring\":5"));
    }

    #[test]
    fn canonical_text_includes_profile_when_present() {
        let mut r = report(100, 450, 100, 43);
        let without = r.canonical_text();
        let mut p = ProfileReport::default();
        p.site_mut(0x400100).useful_fully_hidden = 7;
        r.profile = Some(Box::new(p));
        let with = r.canonical_text();
        assert_ne!(without, with);
        assert!(with.contains(" profile={"));
        assert!(with.contains("\"0x400100\""));
    }

    #[test]
    fn hit_distribution_sums_to_one_when_populated() {
        let s = CoreStats {
            load_hit_levels: [90, 4, 3, 2, 1],
            ..CoreStats::default()
        };
        let r = SimReport::new("w", "c", s);
        let sum: f64 = r.hit_distribution().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((r.l1_hit_frac() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn geomean_speedup_matches_by_name() {
        let base = vec![report(1000, 1000, 0, 0)];
        let mut other = report(800, 1000, 0, 0);
        other.workload = "different".into();
        assert!(geomean_speedup(&base, &[other]).is_none());
    }

    #[test]
    fn mean_frac_averages_equally() {
        let a = report(100, 100, 100, 50);
        let b = report(100, 100, 100, 0);
        let m = mean_frac(&[a, b], |r| r.coverage());
        assert!((m - 0.25).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["a", "bbbb"]);
        t.row(&["xxxxx", "y"]);
        t.row(&["z"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    fn by_category_groups_and_orders() {
        let reports = vec![
            report(1, 1, 0, 0),
            SimReport::new("x", "Other", CoreStats::default()),
            report(1, 1, 0, 0),
        ];
        let groups = by_category(&reports);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "Client");
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, "Other");
    }

    #[test]
    fn percentile_nearest_rank_semantics() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&v, 34), Some(3.0));
        assert_eq!(percentile(&v, 100), Some(5.0));
        assert_eq!(percentile(&v, 101), None);
    }

    #[test]
    fn csv_export_quotes_when_needed() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["plain", "has,comma"]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"has,comma\"");
    }

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.434), "43.4%");
        assert_eq!(pct(0.031), "3.1%");
    }

    #[test]
    fn wall_time_is_equality_transparent() {
        let mut a = report(100, 450, 100, 43);
        let mut b = a.clone();
        a.stats.throughput.host_nanos = 1_000;
        b.stats.throughput.host_nanos = 999_999;
        assert_eq!(a.stats, b.stats);
        assert_eq!(a, b);
        assert_eq!(a.canonical_text(), b.canonical_text());
    }

    #[test]
    fn canonical_text_reflects_deterministic_fields() {
        let a = report(100, 450, 100, 43);
        let mut b = a.clone();
        b.stats.retired_loads += 1;
        assert_ne!(a.canonical_text(), b.canonical_text());
        assert!(a.canonical_text().contains("workload=w"));
    }

    #[test]
    fn throughput_rates_derive_from_wall_time() {
        let mut s = CoreStats {
            total_retired_uops: 3_000_000,
            total_cycles: 1_000_000,
            ..CoreStats::default()
        };
        s.throughput.host_nanos = 500_000_000; // 0.5 s
        assert!((s.uops_per_sec() - 6_000_000.0).abs() < 1e-6);
        assert!((s.cycles_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert!((s.wall_seconds() - 0.5).abs() < 1e-12);
        let zero = CoreStats::default();
        assert_eq!(zero.uops_per_sec(), 0.0);
    }
}

#[cfg(test)]
mod engine_metrics_tests {
    use super::*;

    fn sample() -> EngineMetrics {
        let mut m = EngineMetrics::default();
        m.record_job("fork", 12);
        m.record_job("fork", 7);
        m.record_job("transplant", 3);
        m.snapshot_hits = 5;
        m.snapshot_misses = 2;
        m.transplants = 1;
        m.trace_builds = 2;
        m.store_hits = 3;
        m.store_misses = 1;
        m.store_bytes_read = 900;
        m.store_bytes_written = 300;
        m.store_corrupt = 1;
        m.timing = EngineTiming {
            workers: 4,
            steals: 9,
            wall_nanos: 1_000,
        };
        m
    }

    #[test]
    fn merge_is_order_independent() {
        let a = sample();
        let mut b = EngineMetrics::default();
        b.record_job("straight", 1);
        b.timing.workers = 2;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.jobs, 4);
        assert_eq!(ab.jobs_by_warm["fork"], 2);
        assert_eq!(ab.timing.workers, 4, "workers merge by max");
        assert_eq!(ab.queue_depth.total(), 4);
    }

    #[test]
    fn json_is_versioned_with_derived_rates() {
        let j = sample().to_json();
        assert!(j.starts_with(&format!(
            "{{\"schema\":{ENGINE_METRICS_SCHEMA_VERSION},\"jobs\":3,"
        )));
        // BTreeMap keeps the warm arms sorted, so the document is stable.
        assert!(j.contains("\"jobs_by_warm\":{\"fork\":2,\"transplant\":1}"));
        assert!(j.contains("\"snapshot_hit_rate\":0.714286"));
        assert!(j.contains(
            "\"store\":{\"hits\":3,\"misses\":1,\"hit_rate\":0.750000,\
             \"bytes_read\":900,\"bytes_written\":300,\"corrupt\":1}"
        ));
        // Host-dependent values appear only inside the timing sub-object.
        assert!(j.contains("\"timing\":{\"workers\":4,\"steals\":9,\"wall_nanos\":1000}"));
        assert!(j.ends_with("}"));
    }

    #[test]
    fn empty_metrics_render_zero_rates() {
        let j = EngineMetrics::default().to_json();
        assert!(j.contains("\"snapshot_hit_rate\":0.000000"));
        assert!(j.contains("\"jobs_by_warm\":{}"));
    }
}
