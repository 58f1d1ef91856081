//! Per-layer metrics: simulated counters from the jobs' `CoreStats`, and
//! host time per layer from the spans of a traced pass.

use std::collections::BTreeMap;

use rfp_obs::EngineSpan;
use rfp_stats::{geomean_speedup, mean_frac, CoreStats, SimReport};

use crate::Metric;

/// Every per-layer metric a traced run prints, with its unit. A metric a
/// workload cannot see (an engine span on a core-direct workload, say)
/// prints as 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("host.cpu_s", "s"),
    ("host.wall_s", "s"),
    ("host.offcpu_frac", "frac"),
    ("trace.compile_ns_per_uop", "ns"),
    ("trace.arena_mb", "MB"),
    ("core.warmup_ns_per_uop", "ns"),
    ("core.ns_per_uop", "ns"),
    ("core.ns_per_cycle", "ns"),
    ("core.snapshot_mb", "MB"),
    ("core.ipc", "uops/cycle"),
    ("core.zero_retire_frac", "frac"),
    ("core.reissues_per_kuop", "1/kuop"),
    ("mem.l1_hit_frac", "frac"),
    ("mem.dram_frac", "frac"),
    ("mem.accesses_per_kuop", "1/kuop"),
    ("mem.tlb_walks_per_kuop", "1/kuop"),
    ("pred.rfp_coverage", "frac"),
    ("pred.rfp_useful_frac", "frac"),
    ("pred.rfp_injected_per_kuop", "1/kuop"),
    ("pred.vp_mispredict_frac", "frac"),
    ("pred.branch_mpki", "1/kuop"),
    ("engine.warm_capture_s", "s"),
    ("engine.simulate_self_s", "s"),
    ("engine.trace_compile_s", "s"),
    ("engine.unspanned_s", "s"),
    ("engine.snapshot_hit_frac", "frac"),
    ("engine.jobs_by_warm.straight", "count"),
    ("engine.jobs_by_warm.fork", "count"),
    ("engine.jobs_by_warm.transplant", "count"),
    ("engine.jobs_by_warm.sample-fork", "count"),
    ("engine.jobs_by_warm.sample-transplant", "count"),
    ("engine.jobs_by_warm.sample-full", "count"),
    ("engine.sampled_uop_frac", "frac"),
    ("engine.phases_per_workload", "count"),
    ("harness.render_s", "s"),
    ("trace_overhead_frac", "frac"),
];

/// Lays `values` out in [`PER_LAYER`] order, 0 for what is missing.
///
/// # Panics
///
/// Panics on a name [`PER_LAYER`] does not list.
pub fn per_layer(values: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
            (name, v, unit)
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `(zero_retire_frac, dram_frac, ipc)` of one job: the properties the
/// core-direct workloads were selected by.
pub fn selection(s: &CoreStats) -> (f64, f64, f64) {
    (
        ratio(s.stall_head_kind.iter().sum(), s.cycles),
        ratio(s.load_hit_levels[4], s.demand_loads()),
        ratio(s.retired_uops, s.cycles),
    )
}

/// The simulated per-layer metrics over a workload's reports, summed
/// across jobs; the RFP ones over the jobs whose config has RFP on.
pub fn simulated(reports: &[&SimReport], rfp: &[&SimReport]) -> Vec<(&'static str, f64)> {
    let sum = |rs: &[&SimReport], f: fn(&CoreStats) -> u64| -> u64 {
        rs.iter().map(|r| f(&r.stats)).sum()
    };
    let uops = sum(reports, |s| s.retired_uops);
    let total_uops = sum(reports, |s| s.total_retired_uops);
    let cycles = sum(reports, |s| s.cycles);
    let loads = sum(reports, |s| s.demand_loads());
    let per_kuop = |n: u64, d: u64| 1000.0 * ratio(n, d);
    let coverage = rfp.iter().map(|r| r.coverage()).sum::<f64>() / rfp.len().max(1) as f64;
    vec![
        ("core.ipc", ratio(uops, cycles)),
        (
            "core.zero_retire_frac",
            ratio(sum(reports, |s| s.stall_head_kind.iter().sum()), cycles),
        ),
        (
            "core.reissues_per_kuop",
            per_kuop(sum(reports, |s| s.sched_reissues), uops),
        ),
        (
            "mem.l1_hit_frac",
            ratio(sum(reports, |s| s.load_hit_levels[0]), loads),
        ),
        (
            "mem.dram_frac",
            ratio(sum(reports, |s| s.load_hit_levels[4]), loads),
        ),
        (
            "mem.accesses_per_kuop",
            per_kuop(sum(reports, |s| s.mem_hit_counts.iter().sum()), total_uops),
        ),
        (
            "mem.tlb_walks_per_kuop",
            per_kuop(sum(reports, |s| s.tlb_walks), total_uops),
        ),
        ("pred.rfp_coverage", coverage),
        (
            "pred.rfp_useful_frac",
            ratio(sum(rfp, |s| s.rfp_useful), sum(rfp, |s| s.rfp_injected)),
        ),
        (
            "pred.rfp_injected_per_kuop",
            per_kuop(sum(rfp, |s| s.rfp_injected), sum(rfp, |s| s.retired_uops)),
        ),
        (
            "pred.vp_mispredict_frac",
            ratio(
                sum(reports, |s| s.vp_mispredicted),
                sum(reports, |s| s.vp_predicted),
            ),
        ),
        (
            "pred.branch_mpki",
            per_kuop(sum(reports, |s| s.branch_mispredicts), uops),
        ),
    ]
}

/// The paper's RFP row on the baseline core: +3.1% at 43.4% coverage.
pub const PAPER_RFP: (f64, f64) = (3.1, 43.4);

/// RFP's geomean speedup and mean coverage, in percent, over matching
/// baseline and RFP reports.
pub fn rfp_row(base: &[SimReport], rfp: &[SimReport]) -> (f64, f64) {
    (
        100.0 * (geomean_speedup(base, rfp).unwrap_or(1.0) - 1.0),
        100.0 * mean_frac(rfp, |r| r.coverage()),
    )
}

/// Mean absolute gap in percentage points between measured and paper
/// values, `(measured, paper)` pairs.
pub fn mean_gap_pp(rows: &[(f64, f64)]) -> f64 {
    rows.iter().map(|(m, p)| (m - p).abs()).sum::<f64>() / rows.len() as f64
}

/// Host seconds per layer in one traced pass, from its spans.
#[derive(Debug, Default)]
pub struct SpanTimes {
    /// Total span seconds per span kind.
    pub by_kind: BTreeMap<&'static str, f64>,
    /// `simulate` span seconds not covered by the spans nested in them
    /// (trace compiles and warm captures the job triggered).
    pub simulate_self_s: f64,
    /// Seconds covered by at least one span.
    pub covered_s: f64,
}

impl SpanTimes {
    /// Seconds of `kind` spans.
    pub fn kind(&self, kind: &str) -> f64 {
        self.by_kind.get(kind).copied().unwrap_or(0.0)
    }
}

/// Sums `spans` by kind, and works out the `simulate` self time and the
/// time any span covers. Assumes one worker, so spans nest in time.
pub fn span_times(spans: &[EngineSpan]) -> SpanTimes {
    let mut t = SpanTimes::default();
    let end = |s: &EngineSpan| s.start_nanos + s.dur_nanos;
    for s in spans {
        *t.by_kind.entry(s.kind).or_insert(0.0) += s.dur_nanos as f64 * 1e-9;
    }
    let simulate: Vec<&EngineSpan> = spans.iter().filter(|s| s.kind == "simulate").collect();
    let nested: u64 = spans
        .iter()
        .filter(|c| c.kind != "simulate")
        .filter(|c| {
            simulate
                .iter()
                .any(|s| c.start_nanos >= s.start_nanos && end(c) <= end(s))
        })
        .map(|c| c.dur_nanos)
        .sum();
    t.simulate_self_s = t.kind("simulate") - nested as f64 * 1e-9;
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.dur_nanos > 0)
        .map(|s| (s.start_nanos, end(s)))
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (a, b) in intervals {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    t.covered_s = covered as f64 * 1e-9;
    t
}

/// Mean of `f` over the traced passes' span times.
pub fn mean_over(times: &[SpanTimes], f: impl Fn(&SpanTimes) -> f64) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    times.iter().map(f).sum::<f64>() / times.len() as f64
}
