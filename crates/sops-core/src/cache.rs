//! Content-addressed, on-disk cell cache: repeat sweep cells in
//! microseconds.
//!
//! Determinism (bit-identical results for any worker count, storage
//! budget and resume point) makes every sweep cell a pure function of
//! its identity — the scenario's physics, schedule, seed and the measure
//! selection. [`CellCache`] memoizes that function on disk:
//!
//! * **Addressing** — entries are keyed by [`crate::checkpoint::cell_key`],
//!   FNV-1a 64 over the canonical per-cell wire form (schema tag
//!   `sops-cell/v1`). The key covers everything that
//!   determines the result and excludes every result-invariant knob
//!   (the reduction's `threads`, [`EnsembleStorage`](crate::scenario::EnsembleStorage),
//!   scenario descriptions), so two different sweep plans that share a
//!   cell share one entry.
//! * **Bit-identity** — entries store the cell's [`PipelineResult`]
//!   series in the `wire::float_exact` format (17 significant
//!   digits, tagged non-finite strings), so a served cell is
//!   bit-for-bit the cell that was measured. A cached run is therefore
//!   byte-identical to an uncached one (`tests/sweep_cache.rs`).
//! * **Crash safety** — [`CellCache::store`] writes a `.tmp` sibling and
//!   atomically renames it over the entry, so a kill at any instant
//!   leaves either no entry or a complete one. Because the cache is
//!   content-addressed, concurrent writers of one key produce identical
//!   bytes, so the last rename winning is harmless.
//! * **Bounded size** — the store is capped at
//!   [`CellCache::with_max_bytes`] (default 256 MiB).
//!   Each handle keeps an in-memory byte ledger of the directory:
//!   [`CellCache::open`] scans once to seed it, a store adds the bytes it
//!   wrote less those of any entry it replaced, and an eviction subtracts
//!   what it removed, so a store costs O(1) filesystem calls whatever the
//!   entry count. Only a store that takes the ledger past the cap scans
//!   the directory: it evicts least-recently-used entries (file mtime
//!   order, then name; hits touch the mtime), never the just-written one,
//!   and resets the ledger to the bytes it left. One handle per
//!   directory therefore keeps it at or under the cap exactly. With
//!   several handles on one directory each enforces the cap against its
//!   own view: the directory can exceed the cap by at most what the other
//!   handles stored since this handle's last scan, until some handle's
//!   ledger crosses the cap and its scan evicts the directory back under.
//! * **Never a poisoned hit** — a torn, hand-edited, foreign-schema or
//!   hostile (nesting-bomb) entry surfaces as a typed error from
//!   [`CellCache::load`] ([`SweepError::Parse`] /
//!   [`SweepError::SchemaMismatch`]); the runner-facing
//!   [`CellCache::lookup`] instead evicts the corrupt file and reports a
//!   miss, so the cell is simply recomputed.
//!
//! The cache is the repo's one persistence path for sweep cells: the
//! storage layer under
//! [`SweepRunner::run_with_cache`](crate::SweepRunner::run_with_cache)
//! (CLI: `sops-repro sweep --cache DIR`, which is also how a killed sweep
//! resumes) and under the request-coalescing
//! [`crate::broker::SweepBroker`] behind `sops-serve` — one directory
//! shared by offline runs and the service. Its entry format is the
//! repo's one exact [`PipelineResult`] codec.

use crate::error::SweepError;
use crate::pipeline::{MiSeries, PipelineResult};
use crate::wire;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::SystemTime;

/// Schema tag of cache entry files.
pub(crate) const SCHEMA: &str = "sops-cell-cache/v1";

/// Default byte-size cap of a cache directory (256 MiB — roughly 10⁵
/// typical cell entries).
pub(crate) const DEFAULT_MAX_BYTES: u64 = 256 * 1024 * 1024;

/// Hit/miss/store/eviction counters of one [`CellCache`] handle
/// (process-lifetime, not persisted), plus its byte ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Served lookups.
    pub hits: u64,
    /// Lookups that found no (healthy) entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Store attempts that failed (I/O) and were skipped — the cache is
    /// best-effort, a failed backfill never fails the sweep.
    pub store_errors: u64,
    /// Entries removed: LRU cap enforcement plus corrupt entries dropped
    /// by [`CellCache::lookup`].
    pub evictions: u64,
    /// The handle's byte ledger: the entry bytes it believes the
    /// directory holds. A gauge, not a counter — it falls on eviction.
    /// It equals [`CellCache::total_bytes`] while this handle is the
    /// directory's only writer (see the module docs for several).
    pub bytes: u64,
}

/// A content-addressed cell store in one directory — see the module docs
/// for the guarantees. Handles are safe to share across threads (`&self`
/// methods, atomic counters, a locked byte ledger); multiple handles or
/// processes may point at one directory, each enforcing the byte cap
/// against its own ledger (module docs, "Bounded size").
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    max_bytes: u64,
    /// Entry bytes this handle believes the directory holds: seeded by the
    /// scan in `open`, kept by `store` and evictions, reset by each
    /// over-cap scan. The lock also serializes a store's replace-and-count
    /// step with that scan, so concurrent stores keep it exact.
    ledger: Mutex<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    store_errors: AtomicU64,
    evictions: AtomicU64,
}

impl CellCache {
    /// Opens (creating if needed) the cache directory at `dir`, with the
    /// default byte cap, and scans it once to seed the byte ledger.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SweepError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| SweepError::Io {
            path: dir.clone(),
            op: "create directory",
            source,
        })?;
        let mut cache = CellCache {
            dir,
            max_bytes: DEFAULT_MAX_BYTES,
            ledger: Mutex::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        };
        cache.ledger = Mutex::new(cache.total_bytes());
        Ok(cache)
    }

    /// The same cache with the byte-size cap replaced. A store that takes
    /// the handle's byte ledger past the cap scans the directory and
    /// evicts least-recently-used entries (never the one it wrote) until
    /// it fits again; stores under the cap touch no other entry.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The byte-size cap.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// This handle's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: *self.ledger(),
        }
    }

    /// The byte ledger, locked. Every update is one assignment of a
    /// plain integer, so a guard poisoned by a panicking holder still
    /// holds a valid count and is recovered rather than failing the
    /// cache.
    fn ledger(&self) -> MutexGuard<'_, u64> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry file a key addresses: `DIR/<key as 16 hex digits>.json`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// The runner-facing lookup: the stored result for `key`, or `None`
    /// on a miss. Corrupt entries (torn writes, foreign schemas,
    /// hand-edits) are **evicted and reported as a miss** — the caller
    /// recomputes; a poisoned value is never served. Hits touch the
    /// entry's mtime (the LRU clock) and are counted in
    /// [`CellCache::stats`].
    pub fn lookup(&self, key: u64) -> Option<PipelineResult> {
        match self.load(key) {
            Ok(Some(result)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Best-effort LRU touch; a read-only store still serves.
                if let Ok(f) = fs::File::options().append(true).open(self.entry_path(key)) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some(result)
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_) => {
                let path = self.entry_path(key);
                let mut ledger = self.ledger();
                let bytes = entry_bytes(&path);
                if fs::remove_file(&path).is_ok() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    *ledger = ledger.saturating_sub(bytes);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The stored result for `key` with typed failure modes: `Ok(None)`
    /// for a clean miss, [`SweepError::SchemaMismatch`] for an entry
    /// written under a different schema, [`SweepError::Parse`] for a
    /// torn or hand-edited entry (including a key field that disagrees
    /// with the file's address). Diagnostic surface; sweeps go through
    /// [`CellCache::lookup`], which maps every `Err` to evict-and-miss.
    pub fn load(&self, key: u64) -> Result<Option<PipelineResult>, SweepError> {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(source) => {
                return Err(SweepError::Io {
                    path,
                    op: "read",
                    source,
                })
            }
        };
        parse_entry(&text, key).map(Some).map_err(|e| match e {
            SweepError::Parse { detail, .. } => SweepError::Parse {
                what: format!("cache entry {}", path.display()),
                detail,
            },
            other => other,
        })
    }

    /// Persists `result` under `key`: the entry is written to a `.tmp`
    /// sibling and atomically renamed into place, and the byte ledger
    /// gains its bytes less those of the entry it replaced (one `stat`).
    /// Only when that takes the ledger past the cap does the store scan
    /// the directory and evict least-recently-used entries, never this
    /// one. Best-effort: an I/O failure is counted
    /// ([`CacheStats::store_errors`]) and swallowed — a cache that cannot
    /// write must not fail the sweep that could. Callers only store
    /// healthy cells; quarantined cells are recomputed every run by
    /// design.
    pub fn store(&self, key: u64, result: &PipelineResult) {
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!("{key:016x}.json.tmp"));
        let text = entry_json(key, result);
        if fs::write(&tmp, &text).is_err() {
            self.store_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ledger = self.ledger();
        let replaced = entry_bytes(&path);
        if fs::rename(&tmp, &path).is_err() {
            self.store_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        *ledger = (*ledger + text.len() as u64).saturating_sub(replaced);
        if *ledger > self.max_bytes {
            *ledger = self.evict_to_cap(&path);
        }
    }

    /// Count of entries currently in the directory.
    pub fn len(&self) -> usize {
        self.scan().len()
    }

    /// `true` when the directory holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of all entries currently in the directory.
    pub fn total_bytes(&self) -> u64 {
        self.scan().iter().map(|e| e.bytes).sum()
    }

    /// Entry files with size and mtime, oldest first (mtime, then name,
    /// so eviction order is deterministic under coarse clocks).
    fn scan(&self) -> Vec<Entry> {
        let mut entries = Vec::new();
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return entries;
        };
        for item in dir.flatten() {
            let path = item.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Ok(meta) = item.metadata() else { continue };
            entries.push(Entry {
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                bytes: meta.len(),
                path,
            });
        }
        entries.sort_by(|a, b| (a.modified, &a.path).cmp(&(b.modified, &b.path)));
        entries
    }

    /// The over-cap pass, run with the ledger locked: scans the
    /// directory and evicts least-recently-used entries until it fits the
    /// byte cap again, never evicting `keep` (the entry just written — a
    /// cap smaller than one hot entry must not thrash it). Returns the
    /// bytes it left, the ledger's new value.
    fn evict_to_cap(&self, keep: &Path) -> u64 {
        let entries = self.scan();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        for entry in &entries {
            if total <= self.max_bytes {
                break;
            }
            if entry.path == keep {
                continue;
            }
            if fs::remove_file(&entry.path).is_ok() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                total -= entry.bytes;
            }
        }
        total
    }
}

/// Size of the entry file at `path`, 0 when there is none.
fn entry_bytes(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

struct Entry {
    modified: SystemTime,
    bytes: u64,
    path: PathBuf,
}

fn entry_json(key: u64, result: &PipelineResult) -> String {
    let times: Vec<String> = result.mi.times.iter().map(|t| t.to_string()).collect();
    let mi: Vec<String> = result
        .mi
        .values
        .iter()
        .map(|&v| wire::float_exact(v))
        .collect();
    let cost: Vec<String> = result
        .mean_icp_cost
        .iter()
        .map(|&v| wire::float_exact(v))
        .collect();
    format!(
        "{{\"schema\": {}, \"key\": \"{key:016x}\", \"times\": [{}], \
         \"mi_bits\": [{}], \"mean_icp_cost\": [{}], \
         \"equilibrated_fraction\": {}}}\n",
        wire::string(SCHEMA),
        times.join(", "),
        mi.join(", "),
        cost.join(", "),
        wire::float_exact(result.equilibrated_fraction)
    )
}

fn parse_entry(text: &str, key: u64) -> Result<PipelineResult, SweepError> {
    let parse_err = |detail: String| SweepError::Parse {
        what: "cache entry".into(),
        detail,
    };
    let root = wire::parse(text).map_err(parse_err)?;
    let obj = root
        .as_object()
        .ok_or_else(|| parse_err("top level is not an object".into()))?;
    let schema = wire::get(obj, "schema")
        .map_err(parse_err)?
        .as_str()
        .ok_or_else(|| parse_err("'schema' is not a string".into()))?;
    if schema != SCHEMA {
        return Err(SweepError::SchemaMismatch {
            expected: SCHEMA.into(),
            found: schema.into(),
        });
    }
    let stored_key = wire::get(obj, "key")
        .map_err(parse_err)?
        .as_str()
        .ok_or_else(|| parse_err("'key' is not a string".into()))?;
    if u64::from_str_radix(stored_key, 16) != Ok(key) {
        return Err(parse_err(format!(
            "entry key '{stored_key}' does not match its address '{key:016x}'"
        )));
    }
    let times: Vec<usize> = wire::get(obj, "times")
        .map_err(parse_err)?
        .as_array()
        .ok_or_else(|| parse_err("'times' is not an array".into()))?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| parse_err("'times' entry is not an integer".into()))
        })
        .collect::<Result<_, _>>()?;
    let f64_array = |name: &str| -> Result<Vec<f64>, SweepError> {
        wire::get(obj, name)
            .map_err(parse_err)?
            .as_array()
            .ok_or_else(|| parse_err(format!("'{name}' is not an array")))?
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| parse_err(format!("'{name}' entry is not a number")))
            })
            .collect()
    };
    let values = f64_array("mi_bits")?;
    let mean_icp_cost = f64_array("mean_icp_cost")?;
    if values.len() != times.len() || mean_icp_cost.len() != times.len() {
        return Err(parse_err(format!(
            "series lengths disagree: {} times, {} mi_bits, {} mean_icp_cost",
            times.len(),
            values.len(),
            mean_icp_cost.len()
        )));
    }
    let equilibrated_fraction = wire::get(obj, "equilibrated_fraction")
        .map_err(parse_err)?
        .as_f64()
        .ok_or_else(|| parse_err("'equilibrated_fraction' is not a number".into()))?;
    Ok(PipelineResult {
        mi: MiSeries { times, values },
        mean_icp_cost,
        equilibrated_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp_cache(name: &str) -> CellCache {
        let dir = std::env::temp_dir().join(format!("sops_cell_cache_{name}"));
        let _ = fs::remove_dir_all(&dir);
        CellCache::open(dir).unwrap()
    }

    fn sample_result(tag: f64) -> PipelineResult {
        PipelineResult {
            mi: MiSeries {
                times: vec![0, 4, 8],
                values: vec![tag, f64::NAN, std::f64::consts::PI],
            },
            mean_icp_cost: vec![1.5e-300, f64::INFINITY, -0.0],
            equilibrated_fraction: 0.75,
        }
    }

    fn assert_bits_eq(a: &PipelineResult, b: &PipelineResult) {
        assert_eq!(a.mi.times, b.mi.times);
        for (x, y) in a.mi.values.iter().zip(&b.mi.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.mean_icp_cost.iter().zip(&b.mean_icp_cost) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            a.equilibrated_fraction.to_bits(),
            b.equilibrated_fraction.to_bits()
        );
    }

    #[test]
    fn store_lookup_round_trip_is_bit_exact() {
        let cache = tmp_cache("round_trip");
        let result = sample_result(0.25);
        assert!(cache.lookup(7).is_none());
        cache.store(7, &result);
        assert!(!cache.entry_path(7).with_extension("json.tmp").exists());
        let back = cache.lookup(7).expect("stored entry is served");
        assert_bits_eq(&result, &back);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corruption_is_typed_and_never_a_poisoned_hit() {
        let cache = tmp_cache("corruption");
        let result = sample_result(0.5);
        cache.store(3, &result);
        let path = cache.entry_path(3);
        let text = fs::read_to_string(&path).unwrap();

        // Torn write: the entry cut mid-token.
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(cache.load(3), Err(SweepError::Parse { .. })));
        // The runner-facing path evicts and recomputes — never serves it.
        assert!(cache.lookup(3).is_none());
        assert!(!path.exists(), "corrupt entry is evicted");
        assert_eq!(cache.stats().evictions, 1);

        // Foreign schema tag.
        cache.store(3, &result);
        fs::write(&path, text.replace(SCHEMA, "sops-cell-cache/v999")).unwrap();
        assert!(matches!(
            cache.load(3),
            Err(SweepError::SchemaMismatch { .. })
        ));
        assert!(cache.lookup(3).is_none());

        // An entry renamed onto the wrong address.
        cache.store(3, &result);
        fs::rename(&path, cache.entry_path(4)).unwrap();
        assert!(matches!(cache.load(4), Err(SweepError::Parse { .. })));
        assert!(cache.lookup(4).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn nesting_bomb_entry_is_evicted_not_a_crash() {
        let cache = tmp_cache("bomb");
        let path = cache.entry_path(5);
        fs::write(&path, "[".repeat(500_000)).unwrap();
        assert!(matches!(cache.load(5), Err(SweepError::Parse { .. })));
        assert!(cache.lookup(5).is_none());
        assert!(!path.exists(), "hostile entry is evicted");
        assert_eq!(cache.stats().evictions, 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn byte_cap_evicts_least_recently_used_first() {
        let cache = tmp_cache("eviction");
        let result = sample_result(1.0);
        cache.store(1, &result);
        let entry_bytes = fs::metadata(cache.entry_path(1)).unwrap().len();
        // Room for two entries, not three.
        let cache = CellCache::open(cache.dir())
            .unwrap()
            .with_max_bytes(entry_bytes * 2);
        cache.store(2, &result);
        // Pin deterministic mtimes (filesystem clocks can be coarse).
        let t0 = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000);
        let t1 = t0 + std::time::Duration::from_secs(10);
        for (key, t) in [(1u64, t0), (2, t1)] {
            fs::File::options()
                .append(true)
                .open(cache.entry_path(key))
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        cache.store(3, &result);
        assert!(!cache.entry_path(1).exists(), "oldest entry evicted");
        assert!(cache.entry_path(2).exists());
        assert!(cache.entry_path(3).exists(), "just-written entry kept");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);

        // A hit refreshes the LRU clock: touch 2, store 4, then 3 (now
        // oldest) goes first.
        fs::File::options()
            .append(true)
            .open(cache.entry_path(3))
            .unwrap()
            .set_modified(t0)
            .unwrap();
        assert!(cache.lookup(2).is_some());
        cache.store(4, &result);
        assert!(!cache.entry_path(3).exists());
        assert!(cache.entry_path(2).exists());
        assert!(cache.entry_path(4).exists());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cap_never_evicts_the_entry_just_written() {
        let cache = tmp_cache("keep_newest").with_max_bytes(1);
        cache.store(9, &sample_result(2.0));
        assert!(cache.entry_path(9).exists());
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn open_seeds_the_ledger_from_the_directory() {
        let cache = tmp_cache("ledger_seed");
        cache.store(1, &sample_result(1.0));
        cache.store(2, &sample_result(0.1));
        let reopened = CellCache::open(cache.dir()).unwrap();
        assert_eq!(reopened.stats().bytes, cache.total_bytes());
        assert_eq!(cache.stats().bytes, cache.total_bytes());
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// Two handles on one directory: handle A does not count the entries
    /// stored through handle B until A's own ledger crosses the cap, so
    /// until then the directory exceeds the cap by what B stored. A's
    /// next over-cap store scans the directory, B's entries included, and
    /// brings it back under the cap.
    #[test]
    fn other_handles_stores_count_from_the_next_over_cap_scan() {
        let result = sample_result(1.0);
        let entry = entry_json(0, &result).len() as u64;
        let cap = 3 * entry;
        let a = tmp_cache("two_handles").with_max_bytes(cap);
        let b = CellCache::open(a.dir()).unwrap().with_max_bytes(cap);
        for key in 10..13 {
            b.store(key, &result);
        }
        for key in 1..4 {
            a.store(key, &result);
        }
        assert_eq!(a.stats().bytes, cap, "A counts only its own entries");
        assert_eq!(b.stats().bytes, cap, "B counts only its own entries");
        assert_eq!(a.stats().evictions + b.stats().evictions, 0);
        assert_eq!(a.total_bytes(), cap + b.stats().bytes, "over by B's stores");

        a.store(4, &result);
        assert!(a.entry_path(4).exists(), "the new entry is never evicted");
        assert_eq!(a.stats().evictions, 4);
        assert_eq!(a.total_bytes(), cap, "the scan counted B's entries too");
        assert_eq!(a.stats().bytes, a.total_bytes());
        let _ = fs::remove_dir_all(a.dir());
    }

    /// A result whose entry grows with `points`; `tag` varies the digits.
    fn result_of_len(points: usize, tag: f64) -> PipelineResult {
        PipelineResult {
            mi: MiSeries {
                times: (0..points).collect(),
                values: vec![tag; points],
            },
            mean_icp_cost: vec![tag * 3.0; points],
            equilibrated_fraction: tag,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One handle's ledger equals the directory's bytes after every
        /// operation — stores of new and existing keys with results of
        /// varying length, corrupt-then-lookup evictions and plain
        /// lookups — for caps from one entry to many, and the directory
        /// stays at or under the cap whenever the newest entry alone fits.
        #[test]
        fn ledger_tracks_the_directory_under_random_operations(
            cap_entries in 1u64..12,
            ops in proptest::collection::vec((0u8..4, 0u64..10, 0usize..8), 1..40),
        ) {
            let cap = cap_entries * entry_json(0, &result_of_len(3, 0.5)).len() as u64;
            let cache = tmp_cache("ledger_props").with_max_bytes(cap);
            let mut newest_fits = true;
            for (op, key, points) in ops {
                let path = cache.entry_path(key);
                match op {
                    0 | 1 => {
                        let result = result_of_len(points, key as f64 / 7.0);
                        cache.store(key, &result);
                        prop_assert!(path.exists(), "stored entry {key} is kept");
                        newest_fits = entry_json(key, &result).len() as u64 <= cap;
                    }
                    2 => {
                        // Same-length garbage: the directory's bytes do
                        // not move until the lookup evicts the entry.
                        if let Ok(meta) = fs::metadata(&path) {
                            fs::write(&path, "x".repeat(meta.len() as usize)).unwrap();
                        }
                        prop_assert!(cache.lookup(key).is_none());
                        prop_assert!(!path.exists(), "corrupt entry {key} is evicted");
                    }
                    _ => {
                        let _ = cache.lookup(key);
                    }
                }
                prop_assert_eq!(cache.stats().bytes, cache.total_bytes());
                if newest_fits {
                    prop_assert!(cache.total_bytes() <= cap, "{} > cap {cap}", cache.total_bytes());
                }
            }
            let _ = fs::remove_dir_all(cache.dir());
        }
    }
}
