//! Committed references the output check compares against, and the
//! digest that stands for one job's simulated statistics.
//!
//! Reference files live in `refs/` beside this package. Each line is
//! `<workload> <config> <value>...`; lines starting with `#` are comments.
//! `--regen-refs` rewrites every file (see the README).

use std::collections::BTreeMap;
use std::path::PathBuf;

use rfp_stats::{CoreStats, SimReport};

/// The reference directory, resolved from the package root so the
/// benchmark finds it from any working directory.
pub fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("refs")
}

/// FNV-1a over every simulated field of `stats` — all of them except the
/// host-side `throughput`, which differs from run to run.
pub fn digest(stats: &CoreStats) -> String {
    let mut s = stats.clone();
    s.throughput = Default::default();
    fnv1a_hex(format!("{s:?}").as_bytes())
}

/// FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", rfp_types::fnv1a_64(bytes))
}

/// One reference file: `(workload, config)` → the remaining fields.
pub type Table = BTreeMap<(String, String), Vec<String>>;

/// Reads `refs/<name>`; `None` when the file does not exist.
///
/// # Panics
///
/// Panics on a malformed line: the files are committed, so a bad line is
/// a bug in this package.
pub fn load(name: &str) -> Option<Table> {
    let text = std::fs::read_to_string(dir().join(name)).ok()?;
    let mut table = Table::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut fields = line.split_whitespace().map(str::to_string);
        let (Some(w), Some(c)) = (fields.next(), fields.next()) else {
            panic!("malformed reference line in {name}: {line:?}");
        };
        table.insert((w, c), fields.collect());
    }
    Some(table)
}

/// Writes `table` to `refs/<name>` under a `#` header.
///
/// # Errors
///
/// Propagates the I/O error.
pub fn store(name: &str, header: &str, table: &Table) -> std::io::Result<()> {
    let mut out = String::new();
    for line in header.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for ((w, c), fields) in table {
        out.push_str(&format!("{w} {c} {}\n", fields.join(" ")));
    }
    std::fs::create_dir_all(dir())?;
    std::fs::write(dir().join(name), out)
}

/// The sampled-mode error bounds `experiments diff` gates on, read from
/// the repository's `baselines/sampling_tolerances.json`: `(ipc, cycles,
/// coverage)` relative-error limits.
///
/// # Panics
///
/// Panics when the file is missing or lacks one of the three keys.
pub fn sampling_tolerances() -> (f64, f64, f64) {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../baselines/sampling_tolerances.json");
    let text = std::fs::read_to_string(&path).expect("read baselines/sampling_tolerances.json");
    let doc = rfp_bench::parse_json(&text).expect("parse sampling tolerances");
    let flat = rfp_bench::flatten(&doc);
    let get = |k: &str| match flat.get(&format!("tolerances.{k}")) {
        Some(rfp_bench::Json::Num(v)) => *v,
        _ => panic!("sampling tolerance {k:?} missing"),
    };
    (get("ipc"), get("cycles"), get("coverage"))
}

/// Relative error as `experiments diff` computes it: `|b - a| / max(|a|, 1)`.
pub fn rel_err(reference: f64, value: f64) -> f64 {
    (value - reference).abs() / reference.abs().max(1.0)
}

/// The worst relative IPC error, in percent, of `(config, report)` pairs
/// against a full-fidelity reference `table` (IPC in the first field);
/// jobs the table does not cover are skipped.
pub fn ipc_err_max_pct<'a>(
    table: &Table,
    reports: impl IntoIterator<Item = (&'a str, &'a SimReport)>,
) -> f64 {
    let worst = reports
        .into_iter()
        .filter_map(|(cfg, r)| {
            let row = table.get(&(r.workload.clone(), cfg.to_string()))?;
            let ipc: f64 = row[0].parse().expect("reference IPC is a number");
            Some(rel_err(ipc, r.ipc()))
        })
        .fold(0.0, f64::max);
    100.0 * worst
}
