//! The core-direct workloads, `stall-bound` and `issue-bound`: no engine,
//! just the trace compiler, `warm_up_workload` and `WarmState::resume`,
//! under the baseline and RFP configs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rfp_bench::SAMPLE_INTERVAL_UOPS;
use rfp_core::{warm_up_workload, CoreConfig, WarmState};
use rfp_obs::EngineTracer;
use rfp_stats::{CoreStats, SimReport};
use rfp_trace::{CompiledTrace, Workload};

use crate::layers::{self, SpanTimes};
use crate::{refs, Args, Outcome};

/// Measured uops per job; each job warms up on `LEN / 2` uops first, as
/// the engine does. The member lists below were selected at this length.
pub const LEN: u64 = 12_288;

/// The 12 workloads whose `mem-dram` CPI share under RFP is at least 0.6
/// at [`LEN`] with the suite's fixed seeds: most of their cycles retire
/// nothing while a DRAM miss blocks the ROB head.
pub const STALL_BOUND: [&str; 12] = [
    "spec06_GemsFDTD",
    "spec17_perlbench",
    "specjenterprise",
    "spark",
    "hadoop",
    "tpcc",
    "tpce",
    "bigbench",
    "spec17_mcf",
    "spec06_povray",
    "spec06_gromacs",
    "specjbb",
];

/// The 16 workloads with RFP IPC of at least 2.6 at [`LEN`] with the
/// suite's fixed seeds, highest first: issue select and wakeup do the
/// work, and their working sets sit in L1 and L2.
pub const ISSUE_BOUND: [&str; 16] = [
    "spec06_hmmer",
    "geekbench_crypto",
    "spec17_xz",
    "spec06_libquantum",
    "spec06_h264ref",
    "spec17_exchange2",
    "spec06_xalancbmk",
    "sysmark_media",
    "spec17_xalancbmk",
    "spec17_x264",
    "lammps",
    "spec06_gcc",
    "spec17_leela",
    "spec17_gcc",
    "spec06_gobmk",
    "sysmark_office",
];

/// The trace seed with committed references besides the default 0.
pub const HELD_OUT_SEED: u64 = 1;

/// Labels of the two configs every core-direct job runs under; job `j`
/// of a grid is member `j / 2` under config `j % 2`.
const LABELS: [&str; 2] = ["baseline", "rfp"];

/// The two configs every core-direct job runs under, labelled.
pub fn configs() -> [(&'static str, CoreConfig); 2] {
    [
        (LABELS[0], CoreConfig::tiger_lake()),
        (LABELS[1], CoreConfig::tiger_lake().with_rfp()),
    ]
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The named suite workloads, re-seeded unless `trace_seed` is 0.
pub fn members(names: &[&str], trace_seed: u64) -> Vec<Workload> {
    names
        .iter()
        .map(|n| {
            let mut w = rfp_trace::by_name(n).expect("member is in the suite");
            if trace_seed != 0 {
                w.seed = splitmix64(w.seed ^ splitmix64(trace_seed));
            }
            w
        })
        .collect()
}

/// The reference-file stem of a workload's digests for `trace_seed`
/// (`None`: no committed reference for that seed).
fn ref_name(stem: &str, trace_seed: u64) -> Option<String> {
    match trace_seed {
        0 => Some(format!("{stem}.ref")),
        HELD_OUT_SEED => Some(format!("{stem}.trace-seed{HELD_OUT_SEED}.ref")),
        _ => None,
    }
}

/// A member ready to measure: its compiled arena and one warm snapshot
/// per config (or the reason warming failed).
struct Prepared {
    workload: Workload,
    arena: CompiledTrace,
    warm: Vec<Result<WarmState, String>>,
}

/// Compiles every member's arena at full run length and warms each
/// (member, config) core to the measurement boundary.
fn prepare(members: &[Workload], tracer: Option<&EngineTracer>) -> Vec<Prepared> {
    let warmup = LEN / 2;
    members
        .iter()
        .map(|w| {
            let t0 = tracer.map(|t| t.now_nanos());
            let arena = w.compiled(LEN + warmup, warmup, SAMPLE_INTERVAL_UOPS);
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
            let warm = configs()
                .iter()
                .map(|(label, cfg)| {
                    let t0 = tracer.map(|t| t.now_nanos());
                    let ws = catch_unwind(AssertUnwindSafe(|| {
                        warm_up_workload(cfg, w, warmup, arena.ops().iter().copied())
                    }))
                    .map_err(crate::panic_text)
                    .and_then(|r| r.map_err(|e| e.to_string()));
                    if let (Some(t), Some(t0), Ok(ws)) = (tracer, t0, &ws) {
                        let key = format!("{}|{label}", w.name);
                        t.record(
                            "bench.warmup",
                            key,
                            "built",
                            vec![("uops", ws.consumed_uops())],
                            0,
                            t0,
                        );
                    }
                    ws
                })
                .collect();
            Prepared {
                workload: w.clone(),
                arena,
                warm,
            }
        })
        .collect()
}

/// Runs member `p` under config `ci` from its warm snapshot.
fn run_job(p: &Prepared, ci: usize, tracer: Option<&EngineTracer>) -> Result<CoreStats, String> {
    let ws = p.warm[ci]
        .as_ref()
        .map_err(|e| format!("warm-up failed: {e}"))?;
    let t0 = tracer.map(|t| t.now_nanos());
    let rest = &p.arena.ops()[ws.consumed_uops() as usize..];
    let stats = catch_unwind(AssertUnwindSafe(|| ws.resume(rest.iter().copied())))
        .map_err(|e| format!("panicked: {}", crate::panic_text(e)))?;
    if let (Some(t), Some(t0)) = (tracer, t0) {
        let key = format!("{}|{}", p.workload.name, LABELS[ci]);
        t.record(
            "bench.resume",
            key,
            "ok",
            vec![("cycles", stats.cycles)],
            1,
            t0,
        );
    }
    Ok(stats)
}

fn reports(prepared: &[Prepared], stats: &[Result<CoreStats, String>]) -> Vec<Option<SimReport>> {
    stats
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let w = &prepared[j / 2].workload;
            s.as_ref().ok().map(|s| rfp_core::report_for(w, s.clone()))
        })
        .collect()
}

/// Measures one core-direct workload.
pub fn run(args: &Args, names: &[&str]) -> Outcome {
    let stem = args.workload.as_str();
    let members = members(names, args.trace_seed);
    let setup_tracer = args.trace.then(EngineTracer::new);
    let (prepared, setup_s) = crate::setup_median(|| prepare(&members, setup_tracer.as_ref()));
    let n_jobs = prepared.len() * 2;
    let passes = crate::measure(args.seconds, args.trace, |traced| {
        let tracer = traced.then(EngineTracer::new);
        let stats: Vec<Result<CoreStats, String>> = (0..n_jobs)
            .map(|j| run_job(&prepared[j / 2], j % 2, tracer.as_ref()))
            .collect();
        (stats, tracer.map(|t| t.spans()))
    });

    // Output check: every pass against the reference digests when this
    // trace seed has them, and always against the first pass.
    let reference = ref_name(stem, args.trace_seed).and_then(|n| refs::load(&n));
    let job_name = |j: usize| format!("{}/{}", prepared[j / 2].workload.name, LABELS[j % 2]);
    let first: Vec<Option<String>> = passes[0]
        .out
        .0
        .iter()
        .map(|s| s.as_ref().ok().map(refs::digest))
        .collect();
    let mut out = Outcome {
        check: if reference.is_some() {
            "passed"
        } else {
            "unchecked"
        },
        ..Outcome::default()
    };
    for pass in &passes {
        let verdicts = pass.out.0.iter().enumerate().map(|(j, s)| {
            let verdict = match s {
                Err(e) => Err(e.clone()),
                Ok(s) if s.total_retired_uops != LEN + LEN / 2 => Err(format!(
                    "retired {} of {} uops",
                    s.total_retired_uops,
                    LEN + LEN / 2
                )),
                Ok(s) => {
                    let d = refs::digest(s);
                    let key = (
                        prepared[j / 2].workload.name.to_string(),
                        LABELS[j % 2].to_string(),
                    );
                    match reference
                        .as_ref()
                        .map(|r| r.get(&key).and_then(|v| v.first()))
                    {
                        Some(expected) if expected != Some(&d) => {
                            Err(format!("digest {d} differs from reference {expected:?}"))
                        }
                        _ if first[j].as_ref() != Some(&d) => {
                            Err("digest differs between passes".into())
                        }
                        _ => Ok(()),
                    }
                }
            };
            (job_name(j), verdict)
        });
        out.tally(verdicts);
    }
    out.correct = out.failed == 0;
    if reference.is_some() && !out.correct {
        out.check = "failed";
    }

    let reports = reports(&prepared, &passes[0].out.0);
    let (mut base, mut rfp) = (Vec::new(), Vec::new());
    for (j, r) in reports.iter().enumerate() {
        if let Some(r) = r {
            if j % 2 == 0 {
                base.push(r.clone())
            } else {
                rfp.push(r.clone())
            }
        }
    }
    for r in &rfp {
        let (zero, dram, ipc) = layers::selection(&r.stats);
        out.selection.push((r.workload.clone(), zero, dram, ipc));
    }

    let (speedup, coverage) = layers::rfp_row(&base, &rfp);
    let mut e2e = vec![
        (
            "uops_per_cpu_s",
            crate::uops_per_cpu_s(&passes, |(stats, _)| {
                stats.iter().filter(|s| s.is_ok()).count() as u64 * LEN
            }),
            "1/s",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", crate::host::peak_rss_mb(), "MB"),
        ("ok_job_frac", out.ok_job_frac(), "frac"),
    ];
    let full = ref_name("full-163840", args.trace_seed).and_then(|n| refs::load(&n));
    if let Some(full) = full {
        let covered = reports
            .iter()
            .enumerate()
            .filter_map(|(j, r)| Some((LABELS[j % 2], r.as_ref()?)));
        e2e.push((
            "ipc_err_max_pct",
            refs::ipc_err_max_pct(&full, covered),
            "%",
        ));
    }
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

    if args.trace {
        let traced: Vec<SpanTimes> = passes
            .iter()
            .filter_map(|p| p.out.1.as_deref().map(layers::span_times))
            .collect();
        let setup_spans = setup_tracer.expect("armed when tracing").spans();
        let field_sum = |kind: &str| -> u64 {
            setup_spans
                .iter()
                .filter(|s| s.kind == kind)
                .flat_map(|s| s.fields.iter().map(|f| f.1))
                .sum()
        };
        let setup = layers::span_times(&setup_spans);
        let all: Vec<&SimReport> = base.iter().chain(&rfp).collect();
        let rfp_refs: Vec<&SimReport> = rfp.iter().collect();
        let cycles: u64 = all.iter().map(|r| r.stats.cycles).sum();
        let resume_s = layers::mean_over(&traced, |t| t.kind("bench.resume"));
        let snapshots: Vec<usize> = prepared
            .iter()
            .flat_map(|p| {
                p.warm
                    .iter()
                    .filter_map(|w| w.as_ref().ok().map(WarmState::approx_bytes))
            })
            .collect();
        let mut values = crate::host_layers(&passes);
        let cpu_s = values[0].1;
        values.extend([
            (
                "trace.compile_ns_per_uop",
                setup.kind("bench.compile") * 1e9 / field_sum("bench.compile") as f64,
            ),
            (
                "trace.arena_mb",
                prepared
                    .iter()
                    .map(|p| p.arena.arena_bytes())
                    .sum::<usize>() as f64
                    / prepared.len() as f64
                    / 1e6,
            ),
            (
                "core.warmup_ns_per_uop",
                setup.kind("bench.warmup") * 1e9 / field_sum("bench.warmup") as f64,
            ),
            (
                "core.ns_per_uop",
                resume_s * 1e9 / (n_jobs as u64 * LEN) as f64,
            ),
            ("core.ns_per_cycle", resume_s * 1e9 / cycles as f64),
            (
                "core.snapshot_mb",
                snapshots.iter().sum::<usize>() as f64 / snapshots.len().max(1) as f64 / 1e6,
            ),
            (
                "engine.unspanned_s",
                cpu_s - layers::mean_over(&traced, |t| t.covered_s),
            ),
        ]);
        values.extend(layers::simulated(&all, &rfp_refs));
        out.per_layer = layers::per_layer(&values);
    }
    out
}

/// Rewrites the digest references of both core-direct workloads for the
/// default and the held-out trace seed.
pub fn regen_refs() {
    for (stem, names) in [
        ("stall-bound", &STALL_BOUND[..]),
        ("issue-bound", &ISSUE_BOUND[..]),
    ] {
        for seed in [0, HELD_OUT_SEED] {
            let prepared = prepare(&members(names, seed), None);
            let mut table = refs::Table::new();
            for (j, p) in prepared.iter().flat_map(|p| [(p, 0), (p, 1)]).enumerate() {
                let stats = run_job(p.0, p.1, None).unwrap_or_else(|e| panic!("job {j}: {e}"));
                let key = (p.0.workload.name.to_string(), LABELS[p.1].to_string());
                table.insert(key, vec![refs::digest(&stats)]);
            }
            let name = ref_name(stem, seed).expect("committed seed");
            let header = format!(
                "{stem}: CoreStats digest per job at {LEN} measured uops, trace seed {seed}.\n\
                 Regenerate with `--regen-refs` only when the model changes on purpose."
            );
            refs::store(&name, &header, &table).expect("write reference file");
            eprintln!("wrote refs/{name}");
        }
    }
}
