//! Engine self-trace export: folds an armed [`EngineTracer`]'s spans,
//! the grid telemetry, and the warm-pool / store counters into one
//! versioned [`EngineMetrics`] summary, and renders the whole thing as a
//! Chrome-trace JSON document (`chrome://tracing`, Perfetto) with the
//! metrics embedded in `otherData`.
//!
//! The split mirrors the engine's determinism contract: everything in
//! [`EngineMetrics`] outside its `timing` sub-object is a deterministic
//! function of the grid contents and the store state, while span start
//! times, durations, lanes and the timing counters (steals, wall time,
//! worker count) are host-dependent and only appear in the Chrome
//! export's timeline and `timing_*` entries.

use std::path::PathBuf;
use std::sync::Arc;

use rfp_obs::EngineTracer;
use rfp_stats::{EngineMetrics, EngineTiming};

use crate::engine::{JobTelemetry, WarmPoolStats};
use crate::store::StoreStats;

/// Validated `RFP_ENGINE_TRACE` / `--engine-trace-out` value: a
/// non-empty output path. Parsed through [`crate::env_parsed`] so an
/// empty value exits with code 2 like every other malformed engine knob.
#[derive(Debug, Clone)]
pub struct EngineTracePath(pub PathBuf);

impl std::str::FromStr for EngineTracePath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.trim().is_empty() {
            return Err("expected an output file path, got an empty string".into());
        }
        Ok(EngineTracePath(PathBuf::from(s.trim())))
    }
}

/// The engine-trace output path configured by the `RFP_ENGINE_TRACE`
/// environment variable, or `None` when unset. An empty value exits
/// with code 2 ([`crate::env_parsed`] strictness).
pub fn engine_trace_from_env() -> Option<PathBuf> {
    let EngineTracePath(p) = crate::env_parsed::<EngineTracePath>("RFP_ENGINE_TRACE")?;
    Some(p)
}

/// Assembles the versioned [`EngineMetrics`] summary for one grid run.
///
/// Deterministic counters come from deterministic sources — job counts,
/// warm arms and queue depths from `telemetry`, warm-pool counters from
/// `pool_stats`, result-store traffic from the tracer's `store-get` /
/// `store-put` spans (whose outcomes are thread-count-invariant because
/// store keys are content addresses), and the corrupt count from the
/// store's own stats. Host timing (workers, steals, wall nanoseconds)
/// comes from the tracer's quarantined timing counters and lands in
/// [`EngineMetrics::timing`] only.
pub fn engine_metrics(
    tracer: &EngineTracer,
    telemetry: &[JobTelemetry],
    pool_stats: &WarmPoolStats,
    store_stats: Option<&StoreStats>,
) -> EngineMetrics {
    let mut m = EngineMetrics::default();
    for t in telemetry {
        m.record_job(t.warm, t.queue_depth as u64);
    }
    m.snapshot_hits = pool_stats.snapshot_hits;
    m.snapshot_misses = pool_stats.snapshot_misses;
    m.transplants = pool_stats.transplants;
    m.trace_builds = pool_stats.trace_builds;
    for s in tracer.spans() {
        let bytes = s
            .fields
            .iter()
            .find(|(k, _)| *k == "bytes")
            .map_or(0, |(_, v)| *v);
        match (s.kind, s.outcome) {
            ("store-get", "hit") => {
                m.store_hits += 1;
                m.store_bytes_read += bytes;
            }
            ("store-get", "miss") => m.store_misses += 1,
            ("store-put", "published") => m.store_bytes_written += bytes,
            _ => {}
        }
    }
    if let Some(ss) = store_stats {
        m.store_corrupt = ss.corrupt;
    }
    let timing = tracer.timing_counters();
    m.timing = EngineTiming {
        workers: timing.get("workers").copied().unwrap_or(0),
        steals: timing.get("steals").copied().unwrap_or(0),
        wall_nanos: timing.get("wall_nanos").copied().unwrap_or(0),
    };
    m
}

/// Renders the tracer's Chrome-trace document with the metrics summary
/// embedded as an `engineMetrics` entry in `otherData`, so one file
/// carries both the timeline and the deterministic summary.
pub fn engine_trace_json(tracer: &EngineTracer, metrics: &EngineMetrics) -> String {
    tracer.to_chrome_json(&[("engineMetrics", metrics.to_json())])
}

/// One-call export for the bins: assemble metrics, render the trace
/// document, and write it to `path`, exiting with code 2 on I/O failure
/// (the path is configuration, not a bug worth a backtrace).
pub fn write_engine_trace(
    path: &std::path::Path,
    tracer: &Arc<EngineTracer>,
    telemetry: &[JobTelemetry],
    pool_stats: &WarmPoolStats,
    store_stats: Option<&StoreStats>,
) {
    let metrics = engine_metrics(tracer, telemetry, pool_stats, store_stats);
    let doc = engine_trace_json(tracer, &metrics);
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!(
            "error: cannot write engine trace to {:?}: {e}",
            path.display().to_string()
        );
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WarmMode;

    fn telemetry_row(job: usize, warm: &'static str, depth: usize) -> JobTelemetry {
        JobTelemetry {
            job,
            config: 0,
            workload: "w",
            worker: 0,
            queue_depth: depth,
            wall_nanos: 5,
            warm,
            store: "off",
            store_bytes_read: 0,
            store_bytes_written: 0,
        }
    }

    fn pool_stats() -> WarmPoolStats {
        WarmPoolStats {
            mode: WarmMode::Exact,
            snapshot_hits: 3,
            snapshot_misses: 1,
            transplants: 0,
            trace_builds: 1,
            live_snapshots: 0,
            live_snapshot_bytes: 0,
        }
    }

    #[test]
    fn engine_trace_path_rejects_empty() {
        assert!("  ".parse::<EngineTracePath>().is_err());
        let EngineTracePath(p) = " trace.json ".parse::<EngineTracePath>().unwrap();
        assert_eq!(p, PathBuf::from("trace.json"));
    }

    #[test]
    fn metrics_fold_spans_telemetry_and_pool_counters() {
        let tracer = EngineTracer::new();
        tracer.instant(
            "store-get",
            "result|w|cfg0".into(),
            "hit",
            vec![("bytes", 100)],
            1,
        );
        tracer.instant("store-get", "result|w|cfg1".into(), "miss", vec![], 1);
        tracer.instant(
            "store-put",
            "result|w|cfg1".into(),
            "published",
            vec![("bytes", 40)],
            1,
        );
        tracer.instant("claim", "w|cfg0".into(), "ok", vec![("claim", 0)], 1);
        tracer.timing_max("workers", 2);
        tracer.timing_counter("steals", 1);
        tracer.timing_counter("wall_nanos", 10);
        let rows = [telemetry_row(0, "fork", 2), telemetry_row(1, "straight", 1)];
        let m = engine_metrics(&tracer, &rows, &pool_stats(), None);
        assert_eq!(m.jobs, 2);
        assert_eq!(m.jobs_by_warm.get("fork"), Some(&1));
        assert_eq!(m.snapshot_hits, 3);
        // One result hit, one miss that published.
        assert_eq!(m.store_hits, 1);
        assert_eq!(m.store_misses, 1);
        assert_eq!(m.store_bytes_read, 100);
        assert_eq!(m.store_bytes_written, 40);
        assert_eq!(
            m.timing,
            EngineTiming {
                workers: 2,
                steals: 1,
                wall_nanos: 10
            }
        );
    }

    #[test]
    fn trace_json_embeds_engine_metrics() {
        let tracer = EngineTracer::new();
        tracer.instant("claim", "w|cfg0".into(), "ok", vec![], 1);
        let m = engine_metrics(&tracer, &[telemetry_row(0, "off", 1)], &pool_stats(), None);
        let doc = engine_trace_json(&tracer, &m);
        assert!(doc.contains(&format!(
            "\"engineMetrics\":{{\"schema\":{},",
            rfp_stats::ENGINE_METRICS_SCHEMA_VERSION
        )));
        // The document must be valid JSON by the repo's own parser.
        let parsed = crate::parse_json(&doc).expect("engine trace parses");
        let flat = crate::flatten(&parsed);
        assert!(flat.keys().any(|k| k.contains("traceEvents")));
    }
}
