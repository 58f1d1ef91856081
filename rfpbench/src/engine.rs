//! The engine workloads: `paper-sweep` (the `experiments` path through
//! `Harness`) and `sampled-sweep` (`run_grid_pooled` in
//! `SimMode::Sample`). Both run the fixed 65-workload suite: the engine
//! takes no custom workloads.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rfp_bench::{
    build_sample_plan, config_key, run_grid_pooled, GridOutcome, Harness, JobTelemetry, SimMode,
    WarmMode, WarmPool, WarmPoolStats, SAMPLE_INTERVAL_UOPS,
};
use rfp_core::{CoreConfig, VpMode};
use rfp_obs::{EngineSpan, EngineTracer};
use rfp_predictors::{DlvpConfig, ValuePredictorConfig};
use rfp_stats::{geomean_speedup, mean_frac, SimReport};

use crate::layers::{self, SpanTimes};
use crate::{direct, refs, Args, Outcome};

/// Measured uops per paper-sweep job (warm-up `PAPER_LEN / 2`). Shorter
/// than `experiments`' default of 120,000, so that a sweep fits a run:
/// at this length the cost every job pays once (core construction,
/// cache pre-warming, arena compile) is about 15% of a job's CPU time,
/// against 42% at 4,096 and 2.4% at 120,000 (see the README).
pub const PAPER_LEN: u64 = 16_384;

/// Workers of the untimed paper-sweep check sweep. Only the timed passes
/// must run on one worker; the engine's results do not depend on the
/// worker count, and two halve the check's wall time.
const CHECK_THREADS: usize = 2;

/// Measured uops per sampled-sweep job: the length the sampler's 6.58x
/// speed-up is quoted for.
pub const SAMPLED_LEN: u64 = 163_840;

/// The figures paper-sweep renders; together they need the 7 configs of
/// [`paper_configs`].
const PAPER_IDS: [&str; 3] = ["fig10", "fig12", "fig15"];

/// The configs of Figures 10, 12 and 15, in the order `Harness::prefetch`
/// plans them.
fn paper_configs() -> Vec<(&'static str, CoreConfig)> {
    let base = CoreConfig::tiger_lake;
    let rfp = || base().with_rfp();
    let with_vp = |mut c: CoreConfig, vp: VpMode| {
        c.vp = vp;
        c
    };
    let configs = vec![
        ("baseline", base()),
        ("rfp", rfp()),
        ("baseline-2x", CoreConfig::baseline_2x()),
        ("2x+rfp", CoreConfig::baseline_2x().with_rfp()),
        (
            "composite-vp",
            with_vp(
                base(),
                VpMode::Composite(ValuePredictorConfig::default(), DlvpConfig::default()),
            ),
        ),
        ("epp", with_vp(base(), VpMode::Epp(DlvpConfig::default()))),
        (
            "vp+rfp",
            with_vp(rfp(), VpMode::Eves(ValuePredictorConfig::default())),
        ),
    ];
    let mut planned: Vec<u64> = PAPER_IDS
        .iter()
        .flat_map(|id| Harness::plan(id))
        .map(|c| config_key(&c))
        .collect();
    planned.sort_unstable();
    planned.dedup();
    let mut ours: Vec<u64> = configs.iter().map(|(_, c)| config_key(c)).collect();
    ours.sort_unstable();
    assert_eq!(
        ours, planned,
        "paper-sweep configs drifted from Harness::plan"
    );
    configs
}

/// What set-up learns about the suite's arenas.
#[derive(Debug, Default)]
struct ArenaFacts {
    bytes: usize,
    /// `(phases, SamplePlan::simulated_uops)` per workload, when planned.
    plans: Vec<(usize, u64)>,
}

/// Compiles every suite workload's arena at full run length (and, when
/// `plan`, clusters its sample plan), dropping each arena after use: the
/// engine rebuilds its own inside the timed sweep.
fn compile_suite(len: u64, plan: bool, tracer: Option<&EngineTracer>) -> ArenaFacts {
    let mut facts = ArenaFacts::default();
    for w in rfp_trace::suite() {
        let t0 = tracer.map(|t| t.now_nanos());
        let arena = w.compiled(len + len / 2, len / 2, SAMPLE_INTERVAL_UOPS);
        if let (Some(t), Some(t0)) = (tracer, t0) {
            t.record(
                "bench.compile",
                w.name.into(),
                "built",
                vec![("uops", arena.len())],
                0,
                t0,
            );
        }
        facts.bytes += arena.arena_bytes();
        if plan {
            let t0 = tracer.map(|t| t.now_nanos());
            let p = build_sample_plan(&arena);
            if let (Some(t), Some(t0)) = (tracer, t0) {
                t.record("bench.sample-plan", w.name.into(), "built", vec![], 0, t0);
            }
            facts
                .plans
                .push((p.phases.len(), p.simulated_uops(arena.interval_len())));
        }
    }
    facts
}

/// A traced pass's engine-side facts.
struct EngineTrace {
    spans: Vec<EngineSpan>,
    telemetry: Vec<JobTelemetry>,
    pool: WarmPoolStats,
}

/// The engine per-layer metrics averaged over the traced passes.
fn engine_layers(
    traces: &[&EngineTrace],
    cpu_s: f64,
    sim_uops: u64,
    sim_cycles: u64,
) -> Vec<(&'static str, f64)> {
    let Some(last) = traces.last() else {
        return Vec::new();
    };
    let times: Vec<SpanTimes> = traces
        .iter()
        .map(|t| layers::span_times(&t.spans))
        .collect();
    let self_s = layers::mean_over(&times, |t| t.simulate_self_s);
    let mut values = vec![
        (
            "engine.warm_capture_s",
            layers::mean_over(&times, |t| t.kind("warm-capture")),
        ),
        ("engine.simulate_self_s", self_s),
        (
            "engine.trace_compile_s",
            layers::mean_over(&times, |t| t.kind("trace-compile")),
        ),
        (
            "engine.unspanned_s",
            cpu_s - layers::mean_over(&times, |t| t.covered_s),
        ),
        (
            "harness.render_s",
            layers::mean_over(&times, |t| t.kind("bench.render")),
        ),
        ("core.ns_per_uop", self_s * 1e9 / sim_uops as f64),
        ("core.ns_per_cycle", self_s * 1e9 / sim_cycles as f64),
    ];
    let (hits, misses) = (last.pool.snapshot_hits, last.pool.snapshot_misses);
    let hit_frac = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    values.push(("engine.snapshot_hit_frac", hit_frac));
    let mut by_warm: BTreeMap<&str, u64> = BTreeMap::new();
    for t in &last.telemetry {
        *by_warm.entry(t.warm).or_insert(0) += 1;
    }
    for (arm, name) in [
        ("straight", "engine.jobs_by_warm.straight"),
        ("fork", "engine.jobs_by_warm.fork"),
        ("transplant", "engine.jobs_by_warm.transplant"),
        ("sample-fork", "engine.jobs_by_warm.sample-fork"),
        ("sample-transplant", "engine.jobs_by_warm.sample-transplant"),
        ("sample-full", "engine.jobs_by_warm.sample-full"),
    ] {
        values.push((name, by_warm.get(arm).copied().unwrap_or(0) as f64));
    }
    values
}

/// Set-up per-layer metrics from the set-up tracer's compile spans.
fn setup_layers(setup: &EngineTracer, facts: &ArenaFacts) -> Vec<(&'static str, f64)> {
    let times = layers::span_times(&setup.spans());
    let compiled: u64 = setup
        .spans()
        .iter()
        .filter(|s| s.kind == "bench.compile")
        .flat_map(|s| s.fields.iter().map(|f| f.1))
        .sum();
    let n = rfp_trace::suite().len() as f64;
    vec![
        (
            "trace.compile_ns_per_uop",
            times.kind("bench.compile") * 1e9 / compiled as f64,
        ),
        ("trace.arena_mb", facts.bytes as f64 / n / 1e6),
    ]
}

type PaperPass = (Result<String, String>, Option<EngineTrace>);

/// One Harness sweep: the grid for Figures 10, 12 and 15, then their
/// rendering. Returns the digest of the rendered text.
fn paper_pass(tracer: Option<Arc<EngineTracer>>) -> PaperPass {
    let pool = WarmPool::new(WarmMode::default(), PAPER_LEN).with_tracer(tracer.clone());
    let mut h = Harness::with_pool(PAPER_LEN, 1, pool);
    let text = catch_unwind(AssertUnwindSafe(|| {
        h.prefetch(&PAPER_IDS);
        let t0 = tracer.as_ref().map(|t| t.now_nanos());
        let text: Vec<String> = PAPER_IDS.iter().map(|id| h.run(id)).collect();
        if let (Some(t), Some(t0)) = (&tracer, t0) {
            t.record(
                "bench.render",
                "fig10,fig12,fig15".into(),
                "ok",
                vec![],
                0,
                t0,
            );
        }
        refs::fnv1a_hex(text.join("\n").as_bytes())
    }))
    .map_err(|e| format!("sweep panicked: {}", crate::panic_text(e)));
    let trace = tracer.map(|t| EngineTrace {
        spans: t.spans(),
        telemetry: h.job_telemetry().to_vec(),
        pool: h.warm_pool().stats(),
    });
    (text, trace)
}

/// One engine sweep over `configs` on `threads` workers, or why it
/// failed; a panic fails the whole sweep.
fn grid(
    pool: &WarmPool,
    configs: &[(&'static str, CoreConfig)],
    threads: usize,
) -> Result<GridOutcome, String> {
    let cfgs: Vec<CoreConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
    catch_unwind(AssertUnwindSafe(|| {
        run_grid_pooled(pool, &cfgs, threads, false)
    }))
    .map_err(|e| format!("sweep panicked: {}", crate::panic_text(e)))
}

/// Per-job `(job name, verdict)` of a grid against digest reference
/// `table` (the first field of each row).
fn digest_verdicts(
    configs: &[(&'static str, CoreConfig)],
    grid: &Result<Vec<Vec<SimReport>>, String>,
    table: &refs::Table,
) -> Vec<(String, Result<(), String>)> {
    let suite = rfp_trace::suite();
    let mut out = Vec::new();
    for (ci, (label, _)) in configs.iter().enumerate() {
        for (wi, w) in suite.iter().enumerate() {
            let job = format!("{}/{label}", w.name);
            let verdict = match grid {
                Err(e) => Err(e.clone()),
                Ok(g) => {
                    let d = refs::digest(&g[ci][wi].stats);
                    match table
                        .get(&(w.name.to_string(), label.to_string()))
                        .and_then(|v| v.first())
                    {
                        Some(expected) if *expected == d => Ok(()),
                        expected => Err(format!("digest {d} differs from reference {expected:?}")),
                    }
                }
            };
            out.push((job, verdict));
        }
    }
    out
}

/// Measures paper-sweep.
pub fn paper_sweep(args: &Args) -> Outcome {
    let configs = paper_configs();
    let setup_tracer = args.trace.then(EngineTracer::new);
    let (facts, setup_s) =
        crate::setup_median(|| compile_suite(PAPER_LEN, false, setup_tracer.as_ref()));
    let passes = crate::measure(args.seconds, args.trace, |traced| {
        paper_pass(traced.then(|| Arc::new(EngineTracer::new())))
    });
    // Read before the check sweep below, which runs on more workers.
    let peak_rss_mb = crate::host::peak_rss_mb();
    // The Harness keeps its per-job reports to itself, so the per-job
    // digests come from one more, untimed sweep of the same grid through
    // the engine call `Harness::prefetch` makes.
    let pool = WarmPool::new(WarmMode::default(), PAPER_LEN);
    let check = grid(&pool, &configs, CHECK_THREADS).map(|g| g.reports);

    let table = refs::load("paper-sweep.ref").expect("committed paper-sweep reference");
    let rendered = table
        .get(&("render".to_string(), "fig10,fig12,fig15".to_string()))
        .and_then(|v| v.first())
        .cloned();
    let suite = rfp_trace::suite();
    let n_jobs = configs.len() * suite.len();
    let job_name = |j: usize| {
        format!(
            "{}/{}",
            suite[j % suite.len()].name,
            configs[j / suite.len()].0
        )
    };
    let mut out = Outcome {
        check: "passed",
        ..Outcome::default()
    };
    for (i, p) in passes.iter().enumerate() {
        let verdict = match &p.out.0 {
            Err(e) => Err(e.clone()),
            Ok(d) if Some(d) != rendered.as_ref() => Err(format!(
                "rendered figures {d} differ from reference {rendered:?}"
            )),
            Ok(_) => Ok(()),
        };
        out.tally((0..n_jobs).map(|j| (format!("pass {i} {}", job_name(j)), verdict.clone())));
    }
    out.tally(digest_verdicts(&configs, &check, &table));
    out.correct = out.failed == 0;
    if !out.correct {
        out.check = "failed";
    }

    let uops = crate::uops_per_cpu_s(&passes, |(text, _)| {
        if text.is_ok() {
            n_jobs as u64 * PAPER_LEN
        } else {
            0
        }
    });
    let mut e2e = vec![
        ("uops_per_cpu_s", uops, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("ok_job_frac", out.ok_job_frac(), "frac"),
    ];
    let Ok(reports) = &check else {
        out.end_to_end = e2e;
        return out;
    };
    let by = |label: &str| {
        &reports[configs
            .iter()
            .position(|(l, _)| *l == label)
            .expect("config")]
    };
    let speedup = |b: &str, n: &str| 100.0 * (geomean_speedup(by(b), by(n)).unwrap_or(1.0) - 1.0);
    let (rfp_s, rfp_c) = layers::rfp_row(by("baseline"), by("rfp"));
    let fused_cov = 100.0 * mean_frac(by("vp+rfp"), |r| r.vp_coverage() + r.coverage());
    let speedups = [
        (rfp_s, layers::PAPER_RFP.0),
        (speedup("baseline-2x", "2x+rfp"), 5.7),
        (speedup("baseline", "composite-vp"), 2.2),
        (speedup("baseline", "epp"), 2.05),
        (speedup("baseline", "vp+rfp"), 4.15),
    ];
    let coverages = [
        (rfp_c, layers::PAPER_RFP.1),
        (100.0 * mean_frac(by("2x+rfp"), |r| r.coverage()), 53.7),
        (fused_cov, 54.6),
    ];
    let covered = ["baseline", "rfp"]
        .into_iter()
        .flat_map(|l| by(l).iter().map(move |r| (l, r)));
    let full = refs::load("full-163840.ref").expect("committed full-fidelity reference");
    e2e.push((
        "ipc_err_max_pct",
        refs::ipc_err_max_pct(&full, covered),
        "%",
    ));
    e2e.push(("paper_speedup_err_pp", layers::mean_gap_pp(&speedups), "pp"));
    e2e.push((
        "paper_coverage_err_pp",
        layers::mean_gap_pp(&coverages),
        "pp",
    ));
    out.end_to_end = e2e;

    let rfp_reports: Vec<&SimReport> = configs
        .iter()
        .zip(reports)
        .filter(|((label, _), _)| label.contains("rfp"))
        .flat_map(|(_, rs)| rs)
        .collect();
    for r in by("rfp") {
        let (zero, dram, ipc) = layers::selection(&r.stats);
        out.selection.push((r.workload.clone(), zero, dram, ipc));
    }
    if args.trace {
        let all: Vec<&SimReport> = reports.iter().flatten().collect();
        let traces: Vec<&EngineTrace> = passes.iter().filter_map(|p| p.out.1.as_ref()).collect();
        let mut values = crate::host_layers(&passes);
        let cpu_s = values[0].1;
        let uops: u64 = all.iter().map(|r| r.stats.total_retired_uops).sum();
        let cycles: u64 = all.iter().map(|r| r.stats.total_cycles).sum();
        values.extend(engine_layers(&traces, cpu_s, uops, cycles));
        values.extend(setup_layers(setup_tracer.as_ref().expect("armed"), &facts));
        values.extend(layers::simulated(&all, &rfp_reports));
        out.per_layer = layers::per_layer(&values);
    }
    out
}

type SampledPass = (Result<Vec<Vec<SimReport>>, String>, Option<EngineTrace>);

/// One sampled sweep of baseline and RFP over the suite.
fn sampled_pass(
    configs: &[(&'static str, CoreConfig)],
    tracer: Option<Arc<EngineTracer>>,
) -> SampledPass {
    let pool = WarmPool::with_sim(WarmMode::default(), SimMode::Sample, SAMPLED_LEN)
        .with_tracer(tracer.clone());
    match grid(&pool, configs, 1) {
        Err(e) => (Err(e), None),
        Ok(g) => {
            let trace = tracer.map(|t| EngineTrace {
                spans: t.spans(),
                telemetry: g.telemetry,
                pool: pool.stats(),
            });
            (Ok(g.reports), trace)
        }
    }
}

/// Measures sampled-sweep.
pub fn sampled_sweep(args: &Args) -> Outcome {
    let configs = direct::configs().to_vec();
    let setup_tracer = args.trace.then(EngineTracer::new);
    let (facts, setup_s) =
        crate::setup_median(|| compile_suite(SAMPLED_LEN, true, setup_tracer.as_ref()));
    let passes = crate::measure(args.seconds, args.trace, |traced| {
        sampled_pass(&configs, traced.then(|| Arc::new(EngineTracer::new())))
    });

    // Each job must reproduce its committed sampled digest and stay
    // within the committed sampling error bounds of its full-fidelity
    // result. Digest mismatches make the run incorrect; bound violations
    // are the sampler's known accuracy defect and count as failed jobs.
    let sampled = refs::load("sampled-sweep.ref").expect("committed sampled-sweep reference");
    let full = refs::load("full-163840.ref").expect("committed full-fidelity reference");
    let (tol_ipc, tol_cycles, tol_cov) = refs::sampling_tolerances();
    let n_workloads = rfp_trace::suite().len();
    let mut out = Outcome {
        check: "passed",
        correct: true,
        ..Outcome::default()
    };
    for p in &passes {
        let verdicts = digest_verdicts(&configs, &p.out.0, &sampled);
        if verdicts.iter().any(|(_, v)| v.is_err()) {
            out.correct = false;
            out.check = "failed";
        }
        let Ok(g) = &p.out.0 else {
            out.tally(verdicts);
            continue;
        };
        let with_bounds = verdicts.into_iter().enumerate().map(|(j, (job, v))| {
            let (ci, wi) = (j / n_workloads, j % n_workloads);
            let r = &g[ci][wi];
            let row = &full[&(r.workload.clone(), configs[ci].0.to_string())];
            let num = |k: usize| row[k].parse::<f64>().expect("reference value is a number");
            let errs = [
                ("ipc", refs::rel_err(num(0), r.ipc()), tol_ipc),
                (
                    "cycles",
                    refs::rel_err(num(1), r.stats.cycles as f64),
                    tol_cycles,
                ),
                ("coverage", refs::rel_err(num(2), r.coverage()), tol_cov),
            ];
            let over: Vec<String> = errs
                .iter()
                .filter(|(_, e, tol)| e > tol)
                .map(|(m, e, tol)| format!("{m} error {e:.4} > {tol}"))
                .collect();
            let v = v.and_then(|()| {
                if over.is_empty() {
                    Ok(())
                } else {
                    Err(over.join(", "))
                }
            });
            (job, v)
        });
        out.tally(with_bounds);
    }

    let n_jobs = configs.len() * n_workloads;
    let uops = crate::uops_per_cpu_s(&passes, |(grid, _)| {
        if grid.is_ok() {
            n_jobs as u64 * SAMPLED_LEN
        } else {
            0
        }
    });
    let mut e2e = vec![
        ("uops_per_cpu_s", uops, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", crate::host::peak_rss_mb(), "MB"),
        ("ok_job_frac", out.ok_job_frac(), "frac"),
    ];
    let Ok(reports) = &passes[0].out.0 else {
        out.end_to_end = e2e;
        return out;
    };
    let covered = configs
        .iter()
        .zip(reports)
        .flat_map(|((l, _), rs)| rs.iter().map(move |r| (*l, r)));
    let (speedup, coverage) = layers::rfp_row(&reports[0], &reports[1]);
    e2e.push((
        "ipc_err_max_pct",
        refs::ipc_err_max_pct(&full, covered),
        "%",
    ));
    e2e.push((
        "paper_speedup_err_pp",
        (speedup - layers::PAPER_RFP.0).abs(),
        "pp",
    ));
    e2e.push((
        "paper_coverage_err_pp",
        (coverage - layers::PAPER_RFP.1).abs(),
        "pp",
    ));
    out.end_to_end = e2e;
    for r in &reports[1] {
        let (zero, dram, ipc) = layers::selection(&r.stats);
        out.selection.push((r.workload.clone(), zero, dram, ipc));
    }

    if args.trace {
        let all: Vec<&SimReport> = reports.iter().flatten().collect();
        let rfp: Vec<&SimReport> = reports[1].iter().collect();
        let traces: Vec<&EngineTrace> = passes.iter().filter_map(|p| p.out.1.as_ref()).collect();
        let mut values = crate::host_layers(&passes);
        let cpu_s = values[0].1;
        let uops: u64 = all.iter().map(|r| r.stats.total_retired_uops).sum();
        let cycles: u64 = all.iter().map(|r| r.stats.total_cycles).sum();
        values.extend(engine_layers(&traces, cpu_s, uops, cycles));
        values.extend(setup_layers(setup_tracer.as_ref().expect("armed"), &facts));
        let n = facts.plans.len() as f64;
        let simulated: u64 = facts.plans.iter().map(|p| p.1).sum();
        values.push((
            "engine.sampled_uop_frac",
            simulated as f64 / (n * SAMPLED_LEN as f64),
        ));
        values.push((
            "engine.phases_per_workload",
            facts.plans.iter().map(|p| p.0).sum::<usize>() as f64 / n,
        ));
        values.extend(layers::simulated(&all, &rfp));
        out.per_layer = layers::per_layer(&values);
    }
    out
}

/// Rewrites the engine workloads' references and the full-fidelity
/// tables the `ipc_err_max_pct` of every workload compares against.
pub fn regen_refs() {
    let header = |what: &str| {
        format!("{what}\nRegenerate with `--regen-refs` only when the model changes on purpose.")
    };
    let suite = rfp_trace::suite();
    let digests = |configs: &[(&'static str, CoreConfig)], g: &[Vec<SimReport>]| {
        let mut t = refs::Table::new();
        for ((label, _), rs) in configs.iter().zip(g) {
            for r in rs {
                t.insert(
                    (r.workload.clone(), label.to_string()),
                    vec![refs::digest(&r.stats)],
                );
            }
        }
        t
    };

    let configs = paper_configs();
    let g = grid(&WarmPool::new(WarmMode::default(), PAPER_LEN), &configs, 1)
        .expect("paper sweep")
        .reports;
    let mut table = digests(&configs, &g);
    let rendered = paper_pass(None).0.expect("paper sweep renders");
    table.insert(
        ("render".into(), "fig10,fig12,fig15".into()),
        vec![rendered],
    );
    let what = format!(
        "paper-sweep: CoreStats digest per job at {PAPER_LEN} measured uops, and the digest\n\
         of the rendered fig10, fig12 and fig15 text."
    );
    refs::store("paper-sweep.ref", &header(&what), &table).expect("write reference");
    eprintln!("wrote refs/paper-sweep.ref");

    let configs = direct::configs().to_vec();
    let g = sampled_pass(&configs, None).0.expect("sampled sweep");
    let what =
        format!("sampled-sweep: sampled CoreStats digest per job at {SAMPLED_LEN} measured uops.");
    refs::store("sampled-sweep.ref", &header(&what), &digests(&configs, &g))
        .expect("write reference");
    eprintln!("wrote refs/sampled-sweep.ref");

    let members: Vec<&str> = direct::STALL_BOUND
        .iter()
        .chain(&direct::ISSUE_BOUND)
        .copied()
        .collect();
    for (seed, workloads) in [
        (0, suite.clone()),
        (
            direct::HELD_OUT_SEED,
            direct::members(&members, direct::HELD_OUT_SEED),
        ),
    ] {
        let mut t = refs::Table::new();
        for w in &workloads {
            for (label, cfg) in &configs {
                let r = rfp_core::simulate_workload(cfg, w, SAMPLED_LEN).expect("valid config");
                let row = vec![
                    format!("{:.9}", r.ipc()),
                    r.stats.cycles.to_string(),
                    format!("{:.9}", r.coverage()),
                ];
                t.insert((w.name.to_string(), label.to_string()), row);
            }
        }
        let name = if seed == 0 {
            "full-163840.ref".to_string()
        } else {
            format!("full-163840.trace-seed{seed}.ref")
        };
        let what = format!(
            "Full-fidelity IPC, cycles and coverage per job at {SAMPLED_LEN} measured uops,\n\
             trace seed {seed}: the reference of every workload's ipc_err_max_pct."
        );
        refs::store(&name, &header(&what), &t).expect("write reference");
        eprintln!("wrote refs/{name}");
    }
}
