//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin experiments -- [--threads N] <id>... | all
//! ```
//!
//! Ids: fig1 fig2 tab1 tab2 fig10 fig11 fig12 fig13 fig14 s522 fig15 fig16
//! fig17 fig18 s552 s553 s554 s555 ext1 ext2, or `all`, plus the
//! observability extras `timeliness`, `cpi` and `profile` (not part of
//! `all`). Set
//! `RFP_TRACE_LEN` to change the measured micro-ops per workload (default
//! 120000). `--threads N` (or `RFP_THREADS`) sizes the work-stealing pool;
//! the default is the machine's available parallelism. `RFP_WARM_MODE`
//! (`off` | `exact` | `checkpoint`, default `exact`) controls warm-state
//! sharing across the grid; `off` and `exact` are byte-identical. Output
//! is byte-identical at any thread count. `RFP_SIM_MODE` (`full` | `sample`,
//! default `full`) switches on phase-sampled simulation: intervals are
//! clustered by basic-block vector, one representative per phase is
//! simulated, and per-phase integer weights extrapolate the rest. Sampled
//! output is also byte-identical at any thread count, but is an
//! approximation of full-fidelity output; `experiments sampling-error`
//! quantifies the gap.
//!
//! Observability outputs (all side files; stdout stays byte-identical):
//!
//! - `--trace-out <dir>`: write a Perfetto/`chrome://tracing` pipeline +
//!   prefetch-lifetime trace of one workload under the RFP config to
//!   `<dir>/<workload>.trace.json`.
//! - `--trace-workload <name>`: which workload to trace (default
//!   `spec17_mcf`).
//! - `--metrics-out <file>`: write per-workload latency histograms (JSON)
//!   for the RFP config over the whole suite.
//! - `--profile-out <file>`: write the per-load-PC attribution profile
//!   (JSON) for the RFP config over the whole suite.
//! - `--collapsed-out <file>`: write the same profile as collapsed stacks
//!   (`pc;outcome count` lines) for flamegraph tooling.
//! - `--telemetry-out <file>`: write per-job engine telemetry (JSONL):
//!   worker, queue depth at grab time, wall nanos.
//! - `--sampling-report <file>`: write per-workload IPC / coverage /
//!   cycles / CPI-bucket summaries (JSON) for the RFP config. Produce one
//!   under `RFP_SIM_MODE=full` and one under `=sample`, then feed both to
//!   `diff` or `sampling-error`.
//!
//! Regression sentinel: `experiments diff [--tolerances FILE]
//! <baseline.json> <candidate.json>` compares two `--metrics-out` (or
//! `--profile-out`, or `--sampling-report`) documents leaf by leaf under
//! the tolerances embedded in the baseline, optionally extended/overridden
//! by a standalone tolerances file, printing a violations table. Exit code
//! 0 = within tolerance, 1 = regression, 2 = bad input.
//!
//! `experiments sampling-error <full.json> <sampled.json>` condenses two
//! `--sampling-report` documents into per-metric p50/p95/max relative
//! error bounds (JSON on stdout) using the same relative-error formula as
//! `diff`, so the report predicts the gate outcome.
//!
//! Persistent store: with `RFP_STORE=<dir>` (or `--store DIR`;
//! `--no-store` disables), finished job results are cached on disk
//! content-addressed by their full inputs, so an unchanged job is a file
//! read instead of a simulation. Stdout is byte-identical with the store off, cold or
//! warm. `experiments store stats | gc --max-bytes N | clear` maintains
//! the directory.
//!
//! `experiments inspect [--inspect-out FILE] [--konata-out FILE]
//! <workload>` runs the two-pass anomaly → flight-recorder flow on one
//! workload: the CPI interval series picks anomalous windows
//! (`RFP_INSPECT_WINDOWS` budget, default 4), a second fork of the same
//! warm snapshot records full per-uop lifecycles inside them, and the
//! worst window is rendered as a pipeline table. `--konata-out` writes a
//! `Kanata 0004` log loadable in the Konata O3 viewer.
//!
//! Run `experiments --help` for the generated subcommand/flag/env tables.

use std::sync::Arc;

use rfp_bench::{
    default_threads, diff_metrics_with, engine_trace_from_env, history_export_json,
    history_store_from_env, inspect_windows_from_env, inspect_workload, parse_trend_tolerances,
    render_history_list, render_history_show, render_report, render_store_stats,
    sampling_error_report_json, telemetry_jsonl, trace_len_from_env, trace_workload_json,
    trend_rows, write_engine_trace, EngineTracePath, ExpStore, Harness, HistoryLedger,
    ReportInputs, ReportPath, RunRecord, WarmPool, DEFAULT_TRACE_LEN,
};
use rfp_core::{CoreConfig, OracleMode};
use rfp_obs::EngineTracer;
use rfp_stats::{render_trend_table, TrendParams};

/// Extra experiment ids accepted by `run` but excluded from `all` (their
/// stdout carries probe-derived numbers, which `all` keeps out so its
/// bytes stay invariant under instrumentation).
const EXTRA_IDS: &[&str] = &["timeliness", "cpi", "profile"];

/// Subcommand table for the generated usage text. Adding a subcommand
/// here is the whole help-text change — the table renders aligned.
const SUBCOMMANDS: &[(&str, &str)] = &[
    (
        "<id>... | all",
        "regenerate the paper's tables/figures (ids below)",
    ),
    (
        "inspect [--inspect-out FILE] [--konata-out FILE] <workload>",
        "anomaly-window flight-recorder drill-down of one workload",
    ),
    (
        "diff [--tolerances FILE] <baseline.json> <candidate.json>",
        "regression sentinel over two metrics docs (exit 1 on violation)",
    ),
    (
        "sampling-error <full.json> <sampled.json>",
        "condense two --sampling-report docs into p50/p95/max error bounds",
    ),
    (
        "store stats | gc --max-bytes N [--include-history] | clear",
        "inspect / LRU-evict / empty the persistent experiment store",
    ),
    (
        "report --report-out FILE [--metrics F] [--profile F] ...",
        "fold the pipeline's JSON docs into one static HTML dashboard",
    ),
    (
        "history add --run-label L --sampling-report F ... | list | show | export",
        "append to / inspect the run-history ledger (history/ store tier)",
    ),
    (
        "trend [--tolerances FILE] [--window N]",
        "gate the ledger's recent runs against history (exit 1 on regression)",
    ),
];

/// Side-output flag table for the generated usage text (stdout of the
/// experiment ids stays byte-identical when any of these are set).
const SIDE_FLAGS: &[(&str, &str)] = &[
    (
        "--threads N",
        "work-stealing worker count (default: RFP_THREADS or all cores)",
    ),
    (
        "--trace-out DIR",
        "Perfetto pipeline trace of --trace-workload",
    ),
    (
        "--trace-workload W",
        "workload for --trace-out (default spec17_mcf)",
    ),
    (
        "--metrics-out FILE",
        "per-workload latency histograms (JSON)",
    ),
    (
        "--profile-out FILE",
        "per-load-PC attribution profile (JSON)",
    ),
    (
        "--collapsed-out FILE",
        "profile as collapsed stacks for flamegraph tooling",
    ),
    ("--telemetry-out FILE", "per-job engine telemetry (JSONL)"),
    (
        "--store DIR",
        "persistent experiment store root (overrides RFP_STORE)",
    ),
    (
        "--no-store",
        "disable the persistent store even when RFP_STORE is set",
    ),
    (
        "--history DIR",
        "run-history ledger root (overrides RFP_HISTORY / the store root)",
    ),
    (
        "--no-history",
        "disable ledger recording even when RFP_HISTORY/RFP_STORE is set",
    ),
    (
        "--run-label L",
        "record this sweep in the ledger under label L (needs a ledger root)",
    ),
    (
        "--timestamp T",
        "caller-supplied timestamp for --run-label (never generated; default -)",
    ),
    (
        "--sampling-report FILE",
        "per-workload IPC/coverage/CPI sampling summary (JSON)",
    ),
    (
        "--inspect-out FILE",
        "inspect only: windows + uop lifecycles (JSON)",
    ),
    (
        "--konata-out FILE",
        "inspect only: Kanata 0004 pipeline log",
    ),
    (
        "--engine-trace-out FILE",
        "engine self-trace (Chrome JSON + engineMetrics summary)",
    ),
];

/// Renders one aligned two-column table.
fn push_table(out: &mut String, rows: &[(String, String)]) {
    let w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (n, d) in rows {
        out.push_str(&format!("  {n:<w$}  {d}\n"));
    }
}

/// The full usage text, generated from [`SUBCOMMANDS`], [`SIDE_FLAGS`],
/// the harness's id list and the env-knob table — nothing hand-drifted.
fn usage() -> String {
    let own = |rows: &[(&str, &str)]| -> Vec<(String, String)> {
        rows.iter()
            .map(|&(n, d)| (n.to_string(), d.to_string()))
            .collect()
    };
    let env_rows = vec![
        (
            "RFP_TRACE_LEN".to_string(),
            format!("measured uops per workload (default {DEFAULT_TRACE_LEN})"),
        ),
        (
            "RFP_THREADS".to_string(),
            "default worker count".to_string(),
        ),
        (
            "RFP_WARM_MODE".to_string(),
            "off | exact | checkpoint (default exact)".to_string(),
        ),
        (
            "RFP_SIM_MODE".to_string(),
            "full | sample (default full)".to_string(),
        ),
        (
            "RFP_INSPECT_WINDOWS".to_string(),
            "capture-window budget for inspect (default 4)".to_string(),
        ),
        (
            "RFP_STORE".to_string(),
            "persistent experiment store directory (off when unset)".to_string(),
        ),
        (
            "RFP_HISTORY".to_string(),
            "run-history ledger directory (falls back to RFP_STORE)".to_string(),
        ),
        (
            "RFP_ENGINE_TRACE".to_string(),
            "engine self-trace output path (off when unset)".to_string(),
        ),
    ];
    let mut out = String::from("usage: experiments [flags] <subcommand>\n\nsubcommands:\n");
    push_table(&mut out, &own(SUBCOMMANDS));
    out.push_str(&format!(
        "\nids: {}\nextras (not in `all`): {}\n\nside-output flags:\n",
        Harness::ALL_IDS.join(" "),
        EXTRA_IDS.join(" ")
    ));
    push_table(&mut out, &own(SIDE_FLAGS));
    out.push_str("\nenv:\n");
    push_table(&mut out, &env_rows);
    out
}

/// Reads a file or exits with code 2 and a contextual message — I/O
/// problems are usage errors here, not bugs worth a backtrace.
fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: read {path}: {e}");
        std::process::exit(2);
    })
}

/// Writes a file or exits with code 2 and a contextual message.
fn write_or_die(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("error: write {path}: {e}");
        std::process::exit(2);
    });
}

/// Removes `--flag value` from `args`, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Removes a bare `--flag` (no value) from `args`, returning whether it
/// was present.
fn take_bare(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Resolves the persistent store from flags and environment: `--no-store`
/// wins, then `--store DIR`, then `RFP_STORE`. Malformed or unwritable
/// values exit 2 with a contextual message.
fn resolve_store(store_flag: Option<&str>, no_store: bool) -> Option<Arc<ExpStore>> {
    if no_store {
        return None;
    }
    match store_flag {
        Some(dir) => Some(ExpStore::open_or_die(std::path::Path::new(dir), "--store")),
        None => ExpStore::from_env(),
    }
}

/// Resolves the run-history ledger root: `--no-history` wins, then
/// `--history DIR`, then `RFP_HISTORY`, then the persistent store
/// (`--store`/`RFP_STORE`) — the ledger is the `history/` tier of the
/// same on-disk layout, so a store root doubles as a ledger root.
fn resolve_history(
    history_flag: Option<&str>,
    no_history: bool,
    store_flag: Option<&str>,
    no_store: bool,
) -> Option<Arc<ExpStore>> {
    if no_history {
        return None;
    }
    if let Some(dir) = history_flag {
        return Some(ExpStore::open_or_die(
            std::path::Path::new(dir),
            "--history",
        ));
    }
    history_store_from_env().or_else(|| resolve_store(store_flag, no_store))
}

/// Exits 2 with the shared "no ledger" message.
fn no_ledger_configured() -> ! {
    eprintln!(
        "error: no run-history ledger configured (set RFP_HISTORY or pass --history DIR; \
         a persistent store root also works — the ledger is its history/ tier)"
    );
    std::process::exit(2);
}

fn main() {
    // Validate every env knob up front so a malformed value fails the
    // pipeline at its first command instead of mid-sweep (the values are
    // re-read where they're used). `RFP_STORE` is validated (and its
    // directories created) here too: an empty or unwritable store path
    // must fail the sweep's first command, not its last.
    let _ = inspect_windows_from_env();
    let _ = ExpStore::from_env();
    let _ = history_store_from_env();
    let _ = engine_trace_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The report generator is pure file folding — dispatch before any
    // simulation setup.
    if args.first().map(String::as_str) == Some("report") {
        let out = take_flag(&mut args, "--report-out").unwrap_or_else(|| {
            eprintln!(
                "usage: experiments report --report-out FILE [--metrics F] [--profile F] \
                 [--sampling-report F] [--sampling-error F] [--engine-trace F] \
                 [--telemetry F] [--bench F] [--history F]"
            );
            std::process::exit(2);
        });
        let ReportPath(out) = out.parse().unwrap_or_else(|e| {
            eprintln!("error: --report-out {out:?} is not a valid value: {e}");
            std::process::exit(2);
        });
        let inputs = ReportInputs {
            metrics: take_flag(&mut args, "--metrics").map(|p| read_or_die(&p)),
            profile: take_flag(&mut args, "--profile").map(|p| read_or_die(&p)),
            sampling_report: take_flag(&mut args, "--sampling-report").map(|p| read_or_die(&p)),
            sampling_error: take_flag(&mut args, "--sampling-error").map(|p| read_or_die(&p)),
            engine_trace: take_flag(&mut args, "--engine-trace").map(|p| read_or_die(&p)),
            telemetry: take_flag(&mut args, "--telemetry").map(|p| read_or_die(&p)),
            bench: take_flag(&mut args, "--bench").map(|p| read_or_die(&p)),
            history: take_flag(&mut args, "--history").map(|p| read_or_die(&p)),
        };
        if args.len() != 1 {
            eprintln!("error: unexpected report argument(s): {:?}", &args[1..]);
            std::process::exit(2);
        }
        match render_report(&inputs) {
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            Ok(html) => {
                write_or_die(&out.display().to_string(), &html);
                eprintln!("wrote dashboard to {}", out.display());
                std::process::exit(0);
            }
        }
    }
    // Store maintenance is pure filesystem work — dispatch before any
    // simulation setup.
    if args.first().map(String::as_str) == Some("store") {
        let store_flag = take_flag(&mut args, "--store");
        let no_store = take_bare(&mut args, "--no-store");
        let Some(store) = resolve_store(store_flag.as_deref(), no_store) else {
            eprintln!("error: no store configured (set RFP_STORE or pass --store DIR)");
            std::process::exit(2);
        };
        match args.get(1).map(String::as_str) {
            Some("stats") if args.len() == 2 => {
                print!("{}", render_store_stats(&store));
                std::process::exit(0);
            }
            Some("gc") => {
                let include_history = take_bare(&mut args, "--include-history");
                let max = take_flag(&mut args, "--max-bytes").unwrap_or_else(|| {
                    eprintln!("usage: experiments store gc --max-bytes N [--include-history]");
                    std::process::exit(2);
                });
                let max: u64 = max.parse().unwrap_or_else(|e| {
                    eprintln!("error: --max-bytes {max:?} is not a valid value: {e}");
                    std::process::exit(2);
                });
                if args.len() != 2 {
                    eprintln!("usage: experiments store gc --max-bytes N [--include-history]");
                    std::process::exit(2);
                }
                let (entries, bytes) = store.gc(max, include_history);
                println!("evicted {entries} entries ({bytes} bytes)");
                print!("{}", render_store_stats(&store));
                std::process::exit(0);
            }
            Some("clear") if args.len() == 2 => {
                let removed = store.clear();
                println!("removed {removed} entries");
                std::process::exit(0);
            }
            _ => {
                eprintln!(
                    "usage: experiments store stats | gc --max-bytes N [--include-history] | clear"
                );
                std::process::exit(2);
            }
        }
    }
    // The ledger subcommands are pure file work over the history tier —
    // dispatch before any simulation setup.
    if args.first().map(String::as_str) == Some("history") {
        let history_flag = take_flag(&mut args, "--history");
        let no_history = take_bare(&mut args, "--no-history");
        let store_flag = take_flag(&mut args, "--store");
        let no_store = take_bare(&mut args, "--no-store");
        let Some(store) = resolve_history(
            history_flag.as_deref(),
            no_history,
            store_flag.as_deref(),
            no_store,
        ) else {
            no_ledger_configured();
        };
        let ledger = HistoryLedger::new(store);
        match args.get(1).map(String::as_str) {
            Some("add") => {
                let usage = || -> ! {
                    eprintln!(
                        "usage: experiments history add --run-label L --sampling-report F \
                         [--timestamp T] [--sampling-error F] [--engine-trace F] [--bench F]"
                    );
                    std::process::exit(2);
                };
                let Some(label) = take_flag(&mut args, "--run-label") else {
                    usage();
                };
                let timestamp = take_flag(&mut args, "--timestamp").unwrap_or_else(|| "-".into());
                let Some(report) =
                    take_flag(&mut args, "--sampling-report").map(|p| read_or_die(&p))
                else {
                    usage();
                };
                let error = take_flag(&mut args, "--sampling-error").map(|p| read_or_die(&p));
                let trace = take_flag(&mut args, "--engine-trace").map(|p| read_or_die(&p));
                let bench = take_flag(&mut args, "--bench").map(|p| read_or_die(&p));
                if args.len() != 2 {
                    usage();
                }
                let outcome = RunRecord::from_documents(
                    &label,
                    &timestamp,
                    &report,
                    error.as_deref(),
                    trace.as_deref(),
                    bench.as_deref(),
                )
                .and_then(|r| ledger.add(r));
                match outcome {
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                    Ok(seq) => {
                        println!("recorded run {label:?} as ledger seq {seq}");
                        std::process::exit(0);
                    }
                }
            }
            Some("list") if args.len() == 2 => {
                print!("{}", render_history_list(&ledger.load()));
                std::process::exit(0);
            }
            Some("show") if args.len() == 2 => {
                print!("{}", render_history_show(&ledger.load()));
                std::process::exit(0);
            }
            Some("export") if args.len() == 2 => {
                print!("{}", history_export_json(&ledger.load()));
                std::process::exit(0);
            }
            _ => {
                eprintln!(
                    "usage: experiments history add --run-label L --sampling-report F ... \
                     | list | show | export"
                );
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("trend") {
        let history_flag = take_flag(&mut args, "--history");
        let no_history = take_bare(&mut args, "--no-history");
        let store_flag = take_flag(&mut args, "--store");
        let no_store = take_bare(&mut args, "--no-store");
        let tolerances = match take_flag(&mut args, "--tolerances").map(|p| read_or_die(&p)) {
            None => Vec::new(),
            Some(text) => parse_trend_tolerances(&text).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            }),
        };
        let mut params = TrendParams::default();
        if let Some(w) = take_flag(&mut args, "--window") {
            match w.parse::<usize>() {
                Ok(n) if n >= 1 => params.window = n,
                _ => {
                    eprintln!("--window needs a positive integer, got {w}");
                    std::process::exit(2);
                }
            }
        }
        if args.len() != 1 {
            eprintln!("usage: experiments trend [--tolerances FILE] [--window N]");
            std::process::exit(2);
        }
        let Some(store) = resolve_history(
            history_flag.as_deref(),
            no_history,
            store_flag.as_deref(),
            no_store,
        ) else {
            no_ledger_configured();
        };
        let view = HistoryLedger::new(store).load();
        let rows = trend_rows(&view, &tolerances, &params);
        print!("{}", render_trend_table(&rows));
        let regressed = rows.iter().any(|(_, v)| v.regressed);
        std::process::exit(if regressed { 1 } else { 0 });
    }
    // The sentinel subcommands are pure file comparison — dispatch
    // before any simulation setup.
    if args.first().map(String::as_str) == Some("diff") {
        let tolerances = take_flag(&mut args, "--tolerances").map(|p| read_or_die(&p));
        if args.len() != 3 {
            eprintln!(
                "usage: experiments diff [--tolerances FILE] <baseline.json> <candidate.json>"
            );
            std::process::exit(2);
        }
        let baseline = read_or_die(&args[1]);
        let candidate = read_or_die(&args[2]);
        match diff_metrics_with(&baseline, &candidate, tolerances.as_deref()) {
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            Ok(out) => {
                println!("{}", out.render());
                std::process::exit(if out.clean() { 0 } else { 1 });
            }
        }
    }
    if args.first().map(String::as_str) == Some("sampling-error") {
        if args.len() != 3 {
            eprintln!("usage: experiments sampling-error <full.json> <sampled.json>");
            std::process::exit(2);
        }
        let full = read_or_die(&args[1]);
        let sampled = read_or_die(&args[2]);
        match sampling_error_report_json(&full, &sampled) {
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            Ok(report) => {
                print!("{report}");
                std::process::exit(0);
            }
        }
    }
    if args.first().map(String::as_str) == Some("inspect") {
        let inspect_out = take_flag(&mut args, "--inspect-out");
        let konata_out = take_flag(&mut args, "--konata-out");
        if args.len() != 2 {
            eprintln!(
                "usage: experiments inspect [--inspect-out FILE] [--konata-out FILE] <workload>"
            );
            std::process::exit(2);
        }
        let windows = inspect_windows_from_env();
        let len = trace_len_from_env(DEFAULT_TRACE_LEN);
        let cfg = CoreConfig::tiger_lake().with_rfp();
        match inspect_workload(&args[1], &cfg, len, windows) {
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            Ok(o) => {
                print!("{}", o.render());
                if let Some(file) = &inspect_out {
                    write_or_die(file, &o.to_json());
                    eprintln!("wrote inspect windows to {file}");
                }
                if let Some(file) = &konata_out {
                    write_or_die(file, &o.to_konata());
                    eprintln!("wrote Kanata 0004 log to {file} (load in the Konata viewer)");
                }
                std::process::exit(0);
            }
        }
    }
    let mut threads = default_threads();
    if let Some(v) = take_flag(&mut args, "--threads") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => threads = n,
            _ => {
                eprintln!("--threads needs a positive integer, got {v}");
                std::process::exit(2);
            }
        }
    }
    let store_flag = take_flag(&mut args, "--store");
    let no_store = take_bare(&mut args, "--no-store");
    // `--run-label L` records the sweep's sampling summary into the
    // run-history ledger after the experiments finish. The ledger is
    // resolved up front so a misconfigured history dir fails before any
    // simulation work, and the confirmation goes to stderr so stdout
    // stays byte-identical with the ledger armed or disarmed.
    let run_label = take_flag(&mut args, "--run-label");
    let run_timestamp = take_flag(&mut args, "--timestamp");
    let history_flag = take_flag(&mut args, "--history");
    let no_history = take_bare(&mut args, "--no-history");
    if run_timestamp.is_some() && run_label.is_none() {
        eprintln!("--timestamp only makes sense with --run-label");
        std::process::exit(2);
    }
    let ledger = match &run_label {
        None => None,
        Some(_) => match resolve_history(
            history_flag.as_deref(),
            no_history,
            store_flag.as_deref(),
            no_store,
        ) {
            Some(store) => Some(HistoryLedger::new(store)),
            None => no_ledger_configured(),
        },
    };
    let trace_out = take_flag(&mut args, "--trace-out");
    let trace_workload =
        take_flag(&mut args, "--trace-workload").unwrap_or_else(|| "spec17_mcf".to_string());
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let profile_out = take_flag(&mut args, "--profile-out");
    let collapsed_out = take_flag(&mut args, "--collapsed-out");
    let telemetry_out = take_flag(&mut args, "--telemetry-out");
    let sampling_out = take_flag(&mut args, "--sampling-report");
    // `--engine-trace-out FILE` overrides `RFP_ENGINE_TRACE`; both are
    // validated strictly (empty value exits 2).
    let engine_trace_out = match take_flag(&mut args, "--engine-trace-out") {
        Some(v) => {
            let EngineTracePath(p) = v.parse().unwrap_or_else(|e| {
                eprintln!("error: --engine-trace-out {v:?} is not a valid value: {e}");
                std::process::exit(2);
            });
            Some(p)
        }
        None => engine_trace_from_env(),
    };
    let side_outputs = trace_out.is_some()
        || metrics_out.is_some()
        || profile_out.is_some()
        || collapsed_out.is_some()
        || telemetry_out.is_some()
        || sampling_out.is_some()
        || engine_trace_out.is_some()
        || ledger.is_some();
    if (args.is_empty() && !side_outputs) || args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", usage());
        std::process::exit(if args.is_empty() && !side_outputs {
            2
        } else {
            0
        });
    }
    let len = trace_len_from_env(DEFAULT_TRACE_LEN);
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        Harness::ALL_IDS.to_vec()
    } else {
        let mut ids = Vec::new();
        for a in &args {
            if Harness::ALL_IDS.contains(&a.as_str()) || EXTRA_IDS.contains(&a.as_str()) {
                ids.push(a.as_str());
            } else {
                eprintln!("unknown experiment id: {a} (try --help)");
                std::process::exit(2);
            }
        }
        ids
    };

    // Arm the engine self-tracer only when an output was requested: a
    // disarmed pool costs one branch per span site and stdout stays
    // byte-identical either way.
    let tracer = engine_trace_out
        .as_ref()
        .map(|_| Arc::new(EngineTracer::new()));
    let pool = WarmPool::from_env(len)
        .with_store(resolve_store(store_flag.as_deref(), no_store))
        .with_tracer(tracer.clone());
    let mut h = Harness::with_pool(len, threads, pool);
    let t0 = std::time::Instant::now();
    // Observability passes re-simulate the RFP configs with probes
    // attached; pinning their warm snapshots now lets those passes fork
    // the warmup the main sweep already paid.
    let rfp_cfg = CoreConfig::tiger_lake().with_rfp();
    if metrics_out.is_some()
        || profile_out.is_some()
        || collapsed_out.is_some()
        || sampling_out.is_some()
        || ledger.is_some()
        || ids.contains(&"profile")
        || ids.contains(&"timeliness")
    {
        h.pin_config(&rfp_cfg);
    }
    if metrics_out.is_some() || ids.contains(&"timeliness") {
        let mut dedicated = rfp_cfg.clone();
        dedicated.ports.dedicated_rfp = dedicated.ports.load_ports;
        h.pin_config(&dedicated);
    }
    if ids.contains(&"cpi") {
        h.pin_config(&CoreConfig::tiger_lake());
        h.pin_config(&rfp_cfg);
        h.pin_config(&CoreConfig::tiger_lake().with_oracle(OracleMode::L1ToRf));
    }
    // Fill the cache with every config the requested experiments need in
    // one work-stealing grid, so the whole machine stays busy instead of
    // parallelising one experiment at a time.
    h.prefetch(&ids);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            println!("{}", "=".repeat(78));
        }
        println!("[{id}]");
        println!("{}", h.run(id));
    }

    if let Some(file) = &metrics_out {
        write_or_die(file, &h.metrics_json(&rfp_cfg));
        eprintln!("wrote metrics histograms to {file}");
    }
    if let Some(file) = &profile_out {
        write_or_die(file, &h.profile_json(&rfp_cfg));
        eprintln!("wrote per-load-PC profile to {file}");
    }
    if let Some(file) = &collapsed_out {
        write_or_die(file, &h.profile_collapsed(&rfp_cfg));
        eprintln!("wrote collapsed stacks to {file} (feed to flamegraph.pl)");
    }
    if let Some(file) = &sampling_out {
        write_or_die(file, &h.sampling_json(&rfp_cfg));
        eprintln!("wrote per-workload sampling summary to {file}");
    }
    if let (Some(label), Some(ledger)) = (&run_label, &ledger) {
        let timestamp = run_timestamp.as_deref().unwrap_or("-");
        let outcome = RunRecord::from_documents(
            label,
            timestamp,
            &h.sampling_json(&rfp_cfg),
            None,
            None,
            None,
        )
        .and_then(|r| ledger.add(r));
        match outcome {
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            Ok(seq) => eprintln!("recorded run {label:?} as ledger seq {seq}"),
        }
    }
    if let Some(dir) = &trace_out {
        let w = rfp_trace::by_name(&trace_workload).unwrap_or_else(|| {
            eprintln!("unknown --trace-workload '{trace_workload}'");
            std::process::exit(2);
        });
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("error: mkdir {dir}: {e}");
            std::process::exit(2);
        });
        let path = format!("{dir}/{}.trace.json", w.name);
        write_or_die(&path, &trace_workload_json(&rfp_cfg, &w, len));
        eprintln!("wrote pipeline trace to {path} (load in Perfetto or chrome://tracing)");
    }
    if let Some(file) = &telemetry_out {
        // Per-job rows plus one warm-pool summary line (and one store
        // summary when a store is configured), so CI can assert the
        // snapshot cache and the persistent store actually got hit.
        let mut out = telemetry_jsonl(h.job_telemetry());
        out.push_str(&h.warm_pool().stats().jsonl_line());
        if let Some(store) = h.warm_pool().store() {
            out.push_str(&store.stats().jsonl_line());
        }
        write_or_die(file, &out);
        eprintln!("wrote {} telemetry rows to {file}", h.job_telemetry().len());
    }
    if let (Some(path), Some(tracer)) = (&engine_trace_out, &tracer) {
        let pool_stats = h.warm_pool().stats();
        let store_stats = h.warm_pool().store().map(|s| s.stats());
        write_engine_trace(
            path,
            tracer,
            h.job_telemetry(),
            &pool_stats,
            store_stats.as_ref(),
        );
        eprintln!(
            "wrote engine trace ({} spans) to {} (load in Perfetto or chrome://tracing)",
            tracer.spans().len(),
            path.display()
        );
    }

    let (uops, sim_secs) = h.simulated_totals();
    let wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "ran {} experiment(s) at {} uops/workload on {} thread(s) in {:.1}s \
         ({:.1}M retired uops, {:.2}M uops/s wall, {:.1}x core-parallelism)",
        ids.len(),
        len,
        threads,
        wall,
        uops as f64 / 1e6,
        uops as f64 / wall / 1e6,
        if wall > 0.0 { sim_secs / wall } else { 0.0 },
    );
}
