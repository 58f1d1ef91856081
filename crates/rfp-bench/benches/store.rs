//! Economics of the persistent experiment store: what one entry costs to
//! publish and to serve, and what the store buys end-to-end across the
//! full `experiments all` config inventory — a cold (publishing) sweep
//! and a warm (all-hits) re-run against a store-off sweep. Merged into
//! `BENCH_engine.json` under the `store` section. Byte-identity of every
//! arm against the store-off reference is asserted before anything is
//! written.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfp_bench::{
    config_key, default_threads, result_key, run_grid_pooled, update_bench_json, ExpStore,
    GridOutcome, Harness, SimMode, Tier, WarmMode, WarmPool,
};
use rfp_core::{simulate_workload, CoreConfig};

/// Trace length for the end-to-end sweeps (matches the warm_fork bench:
/// long enough for realistic job cost, short enough that five full-grid
/// sweeps stay benchable).
const GRID_LEN: u64 = 32_000;

/// A scratch store rooted in a unique temp directory, removed on drop
/// (the workspace has no tempfile crate — offline build).
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        Scratch(std::env::temp_dir().join(format!("rfp-store-bench-{}", std::process::id())))
    }

    /// A fresh handle onto the directory, with zeroed traffic counters —
    /// exactly like a new process reopening the store.
    fn open(&self) -> Arc<ExpStore> {
        Arc::new(ExpStore::open(&self.0).expect("scratch store opens"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-entry micro-costs: publishing and serving one result-tier report
/// through the codec + checksum + filesystem path.
fn bench_store_entry(c: &mut Criterion) {
    let scratch = Scratch::new();
    let store = scratch.open();
    let w = rfp_trace::by_name("spec17_mcf").expect("in suite");
    let cfg = CoreConfig::tiger_lake().with_rfp();
    let report = simulate_workload(&cfg, &w, 8_000).expect("valid config");
    let key = result_key(
        8_000,
        4_000,
        SimMode::Full,
        WarmMode::Exact,
        false,
        w.name,
        &cfg,
    );
    let mut g = c.benchmark_group("store");
    g.bench_function("put_result", |b| {
        b.iter(|| black_box(store.put(Tier::Result, &key, &report)))
    });
    store.put(Tier::Result, &key, &report);
    g.bench_function("get_result_hit", |b| {
        b.iter(|| {
            black_box(
                store
                    .get::<rfp_stats::SimReport>(Tier::Result, &key)
                    .expect("hit"),
            )
        })
    });
    g.finish();
}

/// Every distinct config the `experiments all` sweep runs, in plan order.
fn all_plan_configs() -> Vec<CoreConfig> {
    let mut seen = HashSet::new();
    Harness::ALL_IDS
        .iter()
        .flat_map(|id| Harness::plan(id))
        .filter(|c| seen.insert(config_key(c)))
        .collect()
}

/// One-shot measurements written into `BENCH_engine.json`: wall time of
/// the full config inventory with the store off, cold (first run,
/// publishing every result) and warm (second run, every job a disk read).
fn bench_store_json(_c: &mut Criterion) {
    let scratch = Scratch::new();
    let configs = all_plan_configs();
    let threads = default_threads();
    let run = |store: Option<Arc<ExpStore>>| {
        let pool = WarmPool::new(WarmMode::Exact, GRID_LEN).with_store(store);
        let t = Instant::now();
        let out = run_grid_pooled(&pool, &configs, threads, false);
        (t.elapsed().as_secs_f64(), out)
    };
    // Interleave the repeated arms (off, warm) so host drift over the
    // minutes these sweeps take doesn't land on one mode; a truly cold
    // store exists only once, so that arm is single-shot.
    let (off_a, off_out) = run(None);
    let (cold_secs, cold_out) = run(Some(scratch.open()));
    let (warm_a, warm_out) = run(Some(scratch.open()));
    let (off_b, _) = run(None);
    let (warm_b, _) = run(Some(scratch.open()));
    let off_secs = off_a.min(off_b);
    let warm_secs = warm_a.min(warm_b);

    // The store is a pure performance feature: every arm byte-identical.
    for (arm, out) in [("cold", &cold_out), ("warm", &warm_out)] {
        for (off_row, row) in off_out.reports.iter().zip(&out.reports) {
            for (a, b) in off_row.iter().zip(row) {
                assert_eq!(a.canonical_text(), b.canonical_text(), "{arm} diverged");
                assert_eq!(a.stats, b.stats, "{arm} diverged");
            }
        }
    }
    let hits = |out: &GridOutcome| out.telemetry.iter().filter(|t| t.store == "hit").count();
    assert_eq!(hits(&cold_out), 0, "first run cannot hit");
    assert_eq!(
        hits(&warm_out),
        warm_out.telemetry.len(),
        "second run must serve every job from disk"
    );

    let [results, _history] = scratch.open().disk_stats();
    let jobs = off_out.telemetry.len();
    let section = format!(
        "{{\n    \"trace_len\": {GRID_LEN},\n    \"configs\": {},\n    \"workloads\": {},\n    \"jobs\": {jobs},\n    \"threads\": {threads},\n    \"timing\": \"min of 2 interleaved rounds (off, warm); 1 round (cold)\",\n    \"off_secs\": {off_secs:.3},\n    \"cold_secs\": {cold_secs:.3},\n    \"warm_secs\": {warm_secs:.3},\n    \"warm_vs_cold_speedup\": {:.3},\n    \"warm_vs_off_speedup\": {:.3},\n    \"cold_publish_overhead_frac\": {:.4},\n    \"disk\": {{ \"results\": {{ \"entries\": {}, \"bytes\": {} }} }}\n  }}",
        configs.len(),
        off_out.reports.first().map_or(0, Vec::len),
        cold_secs / warm_secs,
        off_secs / warm_secs,
        (cold_secs - off_secs) / off_secs,
        results.entries,
        results.bytes,
    );

    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.json"
    ));
    update_bench_json(path, &[("store", section)]).unwrap_or_else(|e| {
        eprintln!("error: write {}: {e}", path.display());
        std::process::exit(2);
    });
    println!(
        "merged store section into {} (off {off_secs:.1}s, cold {cold_secs:.1}s, warm {warm_secs:.1}s, warm speedup {:.1}x)",
        path.display(),
        cold_secs / warm_secs,
    );
}

criterion_group!(benches, bench_store_entry, bench_store_json);
criterion_main!(benches);
