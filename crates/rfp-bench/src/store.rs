//! Content-addressed on-disk experiment store (`RFP_STORE`).
//!
//! Sweeps are pure functions of their inputs: a job result is fully
//! determined by the workload, the trace parameters, the configuration
//! and the engine modes. The store persists two tiers under a root
//! directory so the *next* sweep — same process or next week's CI run —
//! pays only for the jobs that actually changed:
//!
//! - `results/` — one [`SimReport`](rfp_stats::SimReport) per
//!   `(schema, trace params, config, sim mode, warm mode, probe arm,
//!   workload)` job.
//! - `history/` — the append-only run-history ledger
//!   (`crate::history`): one `RunRecord` per labelled sweep. Unlike the
//!   result cache, ledger entries are *records*, not recomputable cache
//!   state, so [`ExpStore::gc`] excludes the tier unless explicitly asked
//!   (`store gc --include-history`).
//!
//! Warm snapshots and compiled trace arenas are not persisted: a
//! snapshot fill cost more than it ever paid back, and reading an arena
//! from disk is slower than recompiling it (DESIGN §9.9). Directories
//! other than the two tiers (such as `warm/` and `traces/` left by older
//! versions) are ignored.
//!
//! Entries are content-addressed: the file name is the FNV-1a digest of
//! a canonical key string, and the full key is stored *inside* the entry
//! and verified on read, so a digest collision degrades to a miss rather
//! than serving the wrong payload. The wire format is the workspace's
//! own versioned codec (magic, schema version, tier byte, key, payload,
//! FNV-1a content checksum) — no serde, the build is offline.
//!
//! The store is strictly an *optimization layer*: any short read, bad
//! magic, version skew, key mismatch, checksum failure or decode error
//! is silently a cache miss (counted in [`StoreStats::corrupt`] when the
//! file existed), never an error — the job simply re-simulates and the
//! fresh result overwrites the bad entry. Writes go through a unique
//! `.tmp` file and an atomic rename, so concurrent writers (including
//! separate processes sharing one store) race idempotently: every writer
//! of a given key produces byte-identical content.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use rfp_types::codec::{ByteReader, ByteWriter, Codec};
use rfp_types::{fnv1a_64, Fnv1a};

use crate::engine::{env_parsed, SimMode, WarmMode};

/// Magic prefix of every store entry.
const MAGIC: &[u8; 8] = b"RFPSTORE";

/// Store schema version. Bump whenever the wire format of any persisted
/// payload changes (a codec layout change in any crate counts): old
/// entries then read as misses and are overwritten by fresh results.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// The two content tiers of an [`ExpStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Finished per-job [`SimReport`](rfp_stats::SimReport)s.
    Result,
    /// Append-only run-history ledger records (`crate::history`).
    History,
}

impl Tier {
    /// All tiers, in directory-listing order.
    pub const ALL: [Tier; 2] = [Tier::Result, Tier::History];

    /// Subdirectory name under the store root.
    pub fn dir(self) -> &'static str {
        match self {
            Tier::Result => "results",
            Tier::History => "history",
        }
    }

    /// Entry-header tier byte. Tags 1 and 2 belonged to the removed
    /// snapshot and arena tiers; they stay unused so existing entries
    /// keep their meaning without a schema bump.
    fn tag(self) -> u8 {
        match self {
            Tier::Result => 0,
            Tier::History => 3,
        }
    }
}

/// Counter snapshot of an [`ExpStore`] (see [`ExpStore::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from disk (entry present, verified and decoded).
    pub hits: u64,
    /// Lookups that found nothing usable (absent, corrupt or mismatched
    /// entries all count — the job re-simulates either way).
    pub misses: u64,
    /// The subset of misses where a file *existed* but failed
    /// verification or decoding (truncation, bit rot, version skew).
    /// A checksum-valid entry stored under a different key — a digest
    /// collision with someone else's entry — is a plain miss, not rot.
    pub corrupt: u64,
    /// Payload-file bytes read by hits.
    pub bytes_read: u64,
    /// Entry bytes written (publishes that completed their rename).
    pub bytes_written: u64,
}

impl StoreStats {
    /// Renders the stats as one JSONL line, appended to `--telemetry-out`
    /// streams after the warm-pool summary so CI can assert the store
    /// actually served (mirrors `WarmPoolStats::jsonl_line`).
    pub fn jsonl_line(&self) -> String {
        format!(
            "{{\"store\":{{\"schema\":{},\"hits\":{},\"misses\":{},\"corrupt\":{},\
             \"bytes_read\":{},\"bytes_written\":{}}}}}\n",
            crate::engine::TELEMETRY_SCHEMA_VERSION,
            self.hits,
            self.misses,
            self.corrupt,
            self.bytes_read,
            self.bytes_written,
        )
    }
}

/// On-disk usage of one tier (see [`ExpStore::disk_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierUsage {
    /// Number of `.bin` entries.
    pub entries: u64,
    /// Total bytes across those entries.
    pub bytes: u64,
}

/// A content-addressed on-disk store rooted at a directory (usually
/// `RFP_STORE`). See the module docs for the tier layout and failure
/// semantics. All methods are lock-free for readers and safe under
/// concurrent writers.
pub struct ExpStore {
    root: PathBuf,
    /// Uniquifies `.tmp` names across this process's threads.
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl std::fmt::Debug for ExpStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpStore")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Validated `RFP_STORE` value: a non-empty path string. Parsed through
/// [`env_parsed`] so an empty value fails the pipeline at its first
/// command like every other malformed engine knob.
#[derive(Debug, Clone)]
pub struct StoreDir(pub PathBuf);

impl std::str::FromStr for StoreDir {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.trim().is_empty() {
            return Err("expected a directory path, got an empty string".into());
        }
        Ok(StoreDir(PathBuf::from(s.trim())))
    }
}

impl ExpStore {
    /// Opens (creating if needed) a store rooted at `root`, probing that
    /// the directory is actually writable so a misconfigured path fails
    /// here and not silently mid-sweep.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the tier directories or writing the probe
    /// file.
    pub fn open(root: &Path) -> std::io::Result<ExpStore> {
        for tier in Tier::ALL {
            std::fs::create_dir_all(root.join(tier.dir()))?;
        }
        let probe = root.join(format!(".probe.{}", std::process::id()));
        std::fs::write(&probe, b"rfp")?;
        std::fs::remove_file(&probe)?;
        Ok(ExpStore {
            root: root.to_path_buf(),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// [`ExpStore::open`] that exits the process with code 2 and a
    /// contextual message on failure — the store path is configuration,
    /// and a bad value is a usage error, not a bug worth a backtrace.
    /// `origin` names where the path came from (`RFP_STORE`, `--store`).
    pub fn open_or_die(root: &Path, origin: &str) -> Arc<ExpStore> {
        match ExpStore::open(root) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!(
                    "error: {origin}={:?} is not a usable store directory: {e}",
                    root.display().to_string()
                );
                std::process::exit(2);
            }
        }
    }

    /// The store configured by the `RFP_STORE` environment variable, or
    /// `None` when unset. An empty value or an unusable directory exits
    /// with code 2 ([`env_parsed`] strictness / [`ExpStore::open_or_die`]).
    pub fn from_env() -> Option<Arc<ExpStore>> {
        let StoreDir(root) = env_parsed::<StoreDir>("RFP_STORE")?;
        Some(Self::open_or_die(&root, "RFP_STORE"))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Counter snapshot (process-lifetime, not persisted).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Entry path for `key` in `tier`.
    fn entry_path(&self, tier: Tier, key: &str) -> PathBuf {
        self.root
            .join(tier.dir())
            .join(format!("{:016x}.bin", fnv1a_64(key.as_bytes())))
    }

    /// Serializes `value` as a store entry for `key` and publishes it
    /// atomically (unique `.tmp` + rename). Best-effort: I/O failures are
    /// swallowed — a store that cannot write degrades to a cache that
    /// never hits, it must not fail the sweep. Returns the entry bytes
    /// written (0 when the publish failed).
    pub fn put<T: Codec>(&self, tier: Tier, key: &str, value: &T) -> u64 {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        STORE_SCHEMA_VERSION.encode(&mut w);
        w.put_u8(tier.tag());
        key.to_string().encode(&mut w);
        let mut payload = ByteWriter::new();
        value.encode(&mut payload);
        let payload = payload.into_bytes();
        w.put_u64(payload.len() as u64);
        w.put_bytes(&payload);
        let mut sum = Fnv1a::new();
        sum.update(w.as_bytes());
        w.put_u64(sum.finish());
        let bytes = w.into_bytes();
        let path = self.entry_path(tier, key);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let published = std::fs::write(&tmp, &bytes).is_ok() && {
            let ok = std::fs::rename(&tmp, &path).is_ok();
            if !ok {
                let _ = std::fs::remove_file(&tmp);
            }
            ok
        };
        if published {
            let n = bytes.len() as u64;
            self.bytes_written.fetch_add(n, Ordering::Relaxed);
            n
        } else {
            0
        }
    }

    /// Looks `key` up in `tier`, verifying and decoding the entry.
    ///
    /// Returns `Some((value, entry_bytes_read))` only when every check
    /// passes: magic, schema version, tier tag, stored-key equality
    /// (digest-collision guard), content checksum, full payload decode
    /// with no trailing bytes. Everything else — absent file, short read,
    /// bit rot, version skew — is a counted miss.
    pub fn get<T: Codec>(&self, tier: Tier, key: &str) -> Option<(T, u64)> {
        let path = self.entry_path(tier, key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry::<T>(&bytes, tier, key) {
            Decoded::Value(v) => {
                let n = bytes.len() as u64;
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(n, Ordering::Relaxed);
                // Best-effort LRU touch so `gc` evicts genuinely cold
                // entries first; failure changes eviction order only.
                if let Ok(f) = std::fs::File::open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some((v, n))
            }
            Decoded::Foreign => {
                // An intact entry under another key's digest: the file is
                // healthy, it just isn't ours. Plain miss.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Decoded::Corrupt => {
                // The file existed but failed verification: corrupt, and
                // (like every unusable entry) a miss for the caller.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Every `.bin` entry currently on disk: `(path, bytes, mtime)`.
    /// Unreadable entries are skipped (they are unreadable for `gc` too).
    /// `include_history` controls whether ledger records are listed —
    /// the gc path defaults to leaving them alone.
    fn entries(&self, include_history: bool) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        for tier in Tier::ALL {
            if tier == Tier::History && !include_history {
                continue;
            }
            let Ok(dir) = std::fs::read_dir(self.root.join(tier.dir())) else {
                continue;
            };
            for e in dir.flatten() {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "bin") {
                    continue;
                }
                let Ok(md) = e.metadata() else { continue };
                let mtime = md.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((path, md.len(), mtime));
            }
        }
        out
    }

    /// Per-tier on-disk usage, in [`Tier::ALL`] order.
    pub fn disk_stats(&self) -> [TierUsage; Tier::ALL.len()] {
        let mut usage = [TierUsage::default(); Tier::ALL.len()];
        for (i, tier) in Tier::ALL.iter().enumerate() {
            let Ok(dir) = std::fs::read_dir(self.root.join(tier.dir())) else {
                continue;
            };
            for e in dir.flatten() {
                if e.path().extension().is_none_or(|x| x != "bin") {
                    continue;
                }
                if let Ok(md) = e.metadata() {
                    usage[i].entries += 1;
                    usage[i].bytes += md.len();
                }
            }
        }
        usage
    }

    /// Evicts least-recently-used entries (by mtime, which hits refresh)
    /// until total usage is at most `max_bytes`. Returns
    /// `(entries_evicted, bytes_evicted)`. The history ledger is records,
    /// not cache: its entries neither count toward the budget nor get
    /// evicted unless `include_history` is set (`store gc
    /// --include-history`), so LRU pressure can never silently eat the
    /// run trajectory.
    pub fn gc(&self, max_bytes: u64, include_history: bool) -> (u64, u64) {
        let mut entries = self.entries(include_history);
        let mut total: u64 = entries.iter().map(|(_, n, _)| n).sum();
        entries.sort_by_key(|(_, _, mtime)| *mtime);
        let (mut evicted, mut evicted_bytes) = (0u64, 0u64);
        for (path, n, _) in entries {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= n;
                evicted += 1;
                evicted_bytes += n;
            }
        }
        (evicted, evicted_bytes)
    }

    /// Removes every entry in `tier`. Returns the number removed.
    pub fn clear_tier(&self, tier: Tier) -> u64 {
        let mut removed = 0;
        let Ok(dir) = std::fs::read_dir(self.root.join(tier.dir())) else {
            return 0;
        };
        for e in dir.flatten() {
            let path = e.path();
            if path.extension().is_none_or(|x| x != "bin") {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Removes every entry in every tier. Returns the number removed.
    pub fn clear(&self) -> u64 {
        Tier::ALL.iter().map(|&t| self.clear_tier(t)).sum()
    }
}

/// Outcome of verifying one on-disk entry against a lookup key.
enum Decoded<T> {
    /// Verified, decoded, and keyed to this lookup.
    Value(T),
    /// Checksum-valid entry whose stored key differs from the lookup
    /// key: a digest collision with someone else's entry, not damage.
    Foreign,
    /// Failed verification or decoding (truncation, bit rot, skew).
    Corrupt,
}

/// Verifies one entry's envelope: the trailing FNV-1a checksum, magic,
/// schema version, tier tag, stored key and payload framing with no
/// trailing bytes. Returns the stored key and the raw payload, or `None`
/// on any damage. The checksum goes first, so any single corrupt byte is
/// caught before the structured parse even starts.
fn verify_envelope(bytes: &[u8], tier: Tier) -> Option<(String, &[u8])> {
    if bytes.len() < MAGIC.len() + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut sum = Fnv1a::new();
    sum.update(body);
    if tail != sum.finish().to_le_bytes() {
        return None;
    }
    let mut r = ByteReader::new(body);
    if r.take(MAGIC.len()).ok() != Some(MAGIC)
        || u32::decode(&mut r).ok() != Some(STORE_SCHEMA_VERSION)
        || r.get_u8().ok() != Some(tier.tag())
    {
        return None;
    }
    let key = String::decode(&mut r).ok()?;
    let len = usize::try_from(r.get_u64().ok()?).ok()?;
    let payload = r.take(len).ok()?;
    r.is_empty().then_some((key, payload))
}

/// Verifies and decodes one entry looked up under `key`.
fn decode_entry<T: Codec>(bytes: &[u8], tier: Tier, key: &str) -> Decoded<T> {
    match verify_envelope(bytes, tier) {
        None => Decoded::Corrupt,
        Some((stored, _)) if stored != key => Decoded::Foreign,
        Some((_, payload)) => match rfp_types::codec::decode_from_slice(payload) {
            Ok(v) => Decoded::Value(v),
            Err(_) => Decoded::Corrupt,
        },
    }
}

/// Verifies and decodes one entry *without* a lookup key — the ledger's
/// listing path, which enumerates a whole tier directory and so learns
/// each entry's key from the entry itself. The stored key is returned
/// alongside the payload. `None` on any verification or decode failure
/// (the caller skips the entry).
pub(crate) fn decode_entry_unkeyed<T: Codec>(bytes: &[u8], tier: Tier) -> Option<(String, T)> {
    let (key, payload) = verify_envelope(bytes, tier)?;
    rfp_types::codec::decode_from_slice(payload)
        .ok()
        .map(|v| (key, v))
}

/// Canonical result-tier key for one grid job. Everything that can
/// change the report is spelled into the string: the store schema (so a
/// codec change re-keys), the trace parameters, the *full* configuration
/// `Debug` rendering, both engine modes, and the probe arm (instrumented
/// reports carry extra payloads and must never alias plain ones).
pub fn result_key(
    measured: u64,
    warmup: u64,
    sim: SimMode,
    warm: WarmMode,
    collect_obs: bool,
    workload: &str,
    cfg: &rfp_core::CoreConfig,
) -> String {
    let sim = match sim {
        SimMode::Full => "full",
        SimMode::Sample => "sample",
    };
    let warm = match warm {
        WarmMode::Off => "off",
        WarmMode::Exact => "exact",
        WarmMode::Checkpoint => "checkpoint",
    };
    format!(
        "result|schema={STORE_SCHEMA_VERSION}|measured={measured}|warmup={warmup}\
         |interval={}|sim={sim}|warm={warm}|obs={}|workload={workload}|cfg={cfg:?}",
        crate::engine::SAMPLE_INTERVAL_UOPS,
        u8::from(collect_obs),
    )
}

/// Renders `experiments store stats` for `store`: per-tier entry counts
/// and bytes, deterministic layout.
pub fn render_store_stats(store: &ExpStore) -> String {
    let usage = store.disk_stats();
    let mut out = format!("store root: {}\n", store.root().display());
    let (mut entries, mut bytes) = (0, 0);
    for (tier, u) in Tier::ALL.iter().zip(usage) {
        out.push_str(&format!(
            "  {:<8} {:>8} entries  {:>12} bytes\n",
            tier.dir(),
            u.entries,
            u.bytes
        ));
        entries += u.entries;
        bytes += u.bytes;
    }
    out.push_str(&format!(
        "  {:<8} {entries:>8} entries  {bytes:>12} bytes\n",
        "total"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch store rooted in a unique temp directory, removed on
    /// drop (the workspace has no tempfile crate — offline build).
    struct Scratch(Arc<ExpStore>, PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let root = std::env::temp_dir().join(format!(
                "rfp-store-test-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            Scratch(Arc::new(ExpStore::open(&root).expect("open store")), root)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.1);
        }
    }

    #[test]
    fn round_trips_a_payload_and_counts_hits() {
        let s = Scratch::new("roundtrip");
        let store = &s.0;
        let key = result_key(
            1000,
            500,
            SimMode::Full,
            WarmMode::Exact,
            false,
            "w0",
            &rfp_core::CoreConfig::tiger_lake(),
        );
        assert!(store.get::<Vec<u64>>(Tier::Result, &key).is_none());
        let value: Vec<u64> = vec![1, 2, 3, u64::MAX];
        let written = store.put(Tier::Result, &key, &value);
        assert!(written > 0);
        let (back, read) = store.get::<Vec<u64>>(Tier::Result, &key).expect("hit");
        assert_eq!(back, value);
        assert_eq!(read, written, "one entry in, one entry out");
        let st = store.stats();
        assert_eq!((st.hits, st.misses, st.corrupt), (1, 1, 0));
        assert_eq!((st.bytes_read, st.bytes_written), (read, written));
    }

    #[test]
    fn tiers_and_keys_do_not_alias() {
        let s = Scratch::new("alias");
        let store = &s.0;
        store.put(Tier::Result, "k1", &7u64);
        assert!(store.get::<u64>(Tier::History, "k1").is_none(), "tier");
        assert!(store.get::<u64>(Tier::Result, "k2").is_none(), "key");
        assert_eq!(store.get::<u64>(Tier::Result, "k1").expect("hit").0, 7);
    }

    #[test]
    fn stored_key_guards_against_digest_collisions() {
        let s = Scratch::new("collision");
        let store = &s.0;
        store.put(Tier::Result, "the-real-key", &1u64);
        // Forge a collision: copy the entry onto another key's digest
        // path. The stored key string no longer matches the lookup key,
        // so the entry must read as a miss, not as 1.
        let src = store.entry_path(Tier::Result, "the-real-key");
        let dst = store.entry_path(Tier::Result, "some-other-key");
        std::fs::copy(&src, &dst).expect("copy entry");
        assert!(store.get::<u64>(Tier::Result, "some-other-key").is_none());
        assert_eq!(store.stats().corrupt, 0, "a foreign key is not bit rot");
    }

    #[test]
    fn every_corruption_is_a_miss_never_a_panic() {
        let s = Scratch::new("corrupt");
        let store = &s.0;
        let value: Vec<u64> = (0..64).collect();
        store.put(Tier::Result, "k", &value);
        let path = store.entry_path(Tier::Result, "k");
        let pristine = std::fs::read(&path).expect("entry");

        // Truncations at every interesting boundary.
        for cut in [0, 1, 7, 8, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).expect("truncate");
            assert!(
                store.get::<Vec<u64>>(Tier::Result, "k").is_none(),
                "truncated to {cut} bytes must miss"
            );
        }
        // Bit flips across the entry (header, key, payload, checksum).
        for i in [0, 9, 12, pristine.len() / 2, pristine.len() - 1] {
            let mut bad = pristine.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).expect("flip");
            assert!(
                store.get::<Vec<u64>>(Tier::Result, "k").is_none(),
                "bit flip at {i} must miss"
            );
        }
        let st = store.stats();
        assert_eq!(st.corrupt, 11, "every bad read counted as corrupt");
        assert_eq!(st.hits, 0);

        // A fresh publish heals the slot.
        store.put(Tier::Result, "k", &value);
        assert_eq!(
            store.get::<Vec<u64>>(Tier::Result, "k").expect("hit").0,
            value
        );
    }

    #[test]
    fn version_skew_reads_as_a_miss() {
        let s = Scratch::new("version");
        let store = &s.0;
        store.put(Tier::Result, "k", &3u64);
        let path = store.entry_path(Tier::Result, "k");
        let mut bytes = std::fs::read(&path).expect("entry");
        // Bump the schema version in place and re-seal the checksum, as
        // a future writer would: a structurally-valid entry from another
        // schema must still miss.
        let v = STORE_SCHEMA_VERSION + 1;
        bytes[8..12].copy_from_slice(&v.to_le_bytes());
        let split = bytes.len() - 8;
        let mut sum = Fnv1a::new();
        sum.update(&bytes[..split]);
        let tail = sum.finish().to_le_bytes();
        bytes[split..].copy_from_slice(&tail);
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(store.get::<u64>(Tier::Result, "k").is_none());
        assert_eq!(store.stats().corrupt, 1);
    }

    #[test]
    fn gc_evicts_oldest_first_and_clear_empties() {
        let s = Scratch::new("gc");
        let store = &s.0;
        for i in 0u64..8 {
            let key = format!("k{i}");
            store.put(Tier::Result, &key, &vec![i; 64]);
            // Strictly order mtimes without sleeping.
            let path = store.entry_path(Tier::Result, &key);
            let f = std::fs::File::open(&path).expect("entry");
            f.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + i))
                .expect("set mtime");
        }
        let total: u64 = store.disk_stats().iter().map(|u| u.bytes).sum();
        let per_entry = total / 8;
        let (evicted, evicted_bytes) = store.gc(total - 3 * per_entry, false);
        assert_eq!(evicted, 3, "evicts just enough entries");
        assert_eq!(evicted_bytes, 3 * per_entry);
        // The survivors are the *newest* five.
        for i in 0..3u64 {
            assert!(store
                .get::<Vec<u64>>(Tier::Result, &format!("k{i}"))
                .is_none());
        }
        for i in 3..8u64 {
            assert_eq!(
                store
                    .get::<Vec<u64>>(Tier::Result, &format!("k{i}"))
                    .expect("survivor")
                    .0,
                vec![i; 64]
            );
        }
        assert_eq!(store.clear(), 5);
        assert_eq!(store.disk_stats().iter().map(|u| u.entries).sum::<u64>(), 0);
    }

    #[test]
    fn gc_spares_the_history_tier_unless_asked() {
        let s = Scratch::new("gc-history");
        let store = &s.0;
        store.put(Tier::Result, "cache-entry", &vec![0u64; 64]);
        store.put(Tier::History, "ledger-entry", &vec![1u64; 64]);
        // A zero-byte budget evicts every *cache* entry, but the ledger
        // survives by default...
        let (evicted, _) = store.gc(0, false);
        assert_eq!(evicted, 1, "only the cache entry goes");
        assert!(store
            .get::<Vec<u64>>(Tier::History, "ledger-entry")
            .is_some());
        // ...and goes only under --include-history.
        let (evicted, _) = store.gc(0, true);
        assert_eq!(evicted, 1);
        assert_eq!(store.disk_stats().iter().map(|u| u.entries).sum::<u64>(), 0);
    }

    #[test]
    fn unkeyed_decode_round_trips_and_rejects_damage() {
        let s = Scratch::new("unkeyed");
        let store = &s.0;
        let value: Vec<u64> = vec![9, 8, 7];
        store.put(Tier::History, "history|seq=1|label=a", &value);
        let path = store.entry_path(Tier::History, "history|seq=1|label=a");
        let bytes = std::fs::read(&path).expect("entry");
        let (key, back) =
            decode_entry_unkeyed::<Vec<u64>>(&bytes, Tier::History).expect("verified");
        assert_eq!(key, "history|seq=1|label=a");
        assert_eq!(back, value);
        // Wrong tier, truncation, and a bit flip all read as None.
        assert!(decode_entry_unkeyed::<Vec<u64>>(&bytes, Tier::Result).is_none());
        assert!(
            decode_entry_unkeyed::<Vec<u64>>(&bytes[..bytes.len() / 2], Tier::History).is_none()
        );
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(decode_entry_unkeyed::<Vec<u64>>(&bad, Tier::History).is_none());
    }

    #[test]
    fn concurrent_writers_race_idempotently() {
        let s = Scratch::new("race");
        let store = Arc::clone(&s.0);
        let value: Vec<u64> = (0..256).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = Arc::clone(&store);
                let value = value.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        store.put(Tier::Result, "contended", &value);
                        if let Some((v, _)) = store.get::<Vec<u64>>(Tier::Result, "contended") {
                            assert_eq!(v, value, "reader saw a torn write");
                        }
                    }
                });
            }
        });
        assert_eq!(store.stats().corrupt, 0, "no torn entries under contention");
        // No stray .tmp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(s.0.root().join(Tier::Result.dir()))
            .expect("dir")
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x != "bin"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files leaked: {leftovers:?}");
    }

    #[test]
    fn store_dir_rejects_empty_values() {
        assert!("".parse::<StoreDir>().is_err());
        assert!("   ".parse::<StoreDir>().is_err());
        let StoreDir(p) = " /tmp/x ".parse::<StoreDir>().expect("path");
        assert_eq!(p, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn stats_render_is_deterministic() {
        let s = Scratch::new("render");
        s.0.put(Tier::Result, "k", &1u64);
        let text = render_store_stats(&s.0);
        assert!(text.contains("results"), "{text}");
        assert!(text.contains("total"), "{text}");
        assert_eq!(text, render_store_stats(&s.0));
    }
}
