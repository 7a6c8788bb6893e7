//! Content-addressed, on-disk cell cache: repeat sweep cells in
//! microseconds.
//!
//! Determinism (bit-identical results for any worker count, storage
//! budget and resume point) makes every sweep cell a pure function of
//! its identity — the scenario's physics, schedule, seed and the measure
//! selection. [`CellCache`] memoizes that function on disk:
//!
//! * **Addressing** — entries are keyed by [`crate::checkpoint::cell_key`],
//!   FNV-1a 64 over the canonical per-cell wire form
//!   ([`crate::checkpoint::cell_wire`], schema
//!   [`crate::checkpoint::CELL_SCHEMA`]). The key covers everything that
//!   determines the result and excludes every result-invariant knob
//!   (`threads` fields, [`EnsembleStorage`](crate::scenario::EnsembleStorage),
//!   scenario descriptions), so two different sweep plans that share a
//!   cell share one entry.
//! * **Bit-identity** — entries store the cell's [`PipelineResult`]
//!   series in the [`crate::wire::float_exact`] format (17 significant
//!   digits, tagged non-finite strings), so a served cell is
//!   bit-for-bit the cell that was measured. A cached run is therefore
//!   byte-identical to an uncached one (`tests/sweep_cache.rs`).
//! * **Crash safety** — [`CellCache::store`] writes a `.tmp` sibling and
//!   atomically renames it over the entry, so a kill at any instant
//!   leaves either no entry or a complete one. Because the cache is
//!   content-addressed, concurrent writers of one key produce identical
//!   bytes, so the last rename winning is harmless.
//! * **Bounded size** — the store is capped at
//!   [`CellCache::with_max_bytes`] (default [`DEFAULT_MAX_BYTES`]);
//!   exceeding it evicts least-recently-used entries (file mtime order;
//!   hits touch the mtime). The just-written entry is never evicted.
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
use std::time::SystemTime;

/// Schema tag of cache entry files.
pub const SCHEMA: &str = "sops-cell-cache/v1";

/// Default byte-size cap of a cache directory (256 MiB — roughly 10⁵
/// typical cell entries).
pub const DEFAULT_MAX_BYTES: u64 = 256 * 1024 * 1024;

/// Hit/miss/store/eviction counters of one [`CellCache`] handle
/// (process-lifetime, not persisted).
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
}

/// A content-addressed cell store in one directory — see the module docs
/// for the guarantees. Handles are cheap and safe to share across
/// threads (`&self` methods, atomic counters); multiple handles or
/// processes may point at one directory.
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    max_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    store_errors: AtomicU64,
    evictions: AtomicU64,
}

impl CellCache {
    /// Opens (creating if needed) the cache directory at `dir`, with the
    /// default byte cap.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SweepError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| SweepError::Io {
            path: dir.clone(),
            op: "create directory",
            source,
        })?;
        Ok(CellCache {
            dir,
            max_bytes: DEFAULT_MAX_BYTES,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The same cache with the byte-size cap replaced. A store that
    /// pushes the directory past the cap evicts least-recently-used
    /// entries until it fits again.
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
        }
    }

    /// The entry file a key addresses: `DIR/<key as 16 hex digits>.json`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// The runner-facing lookup: the stored result for `key`, or `None`
    /// on a miss. Corrupt entries (torn writes, foreign schemas,
    /// hand-edits) are **evicted and reported as a miss** — the caller
    /// recomputes; a poisoned value is never served. Hits touch the
    /// entry's mtime (the LRU clock) and are counted in [`stats`]
    /// (CellCache::stats).
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
                if fs::remove_file(self.entry_path(key)).is_ok() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
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
    /// sibling and atomically renamed into place, then the byte cap is
    /// enforced (LRU eviction, never of this entry). Best-effort: an I/O
    /// failure is counted ([`CacheStats::store_errors`]) and swallowed —
    /// a cache that cannot write must not fail the sweep that could.
    /// Callers only store healthy cells; quarantined cells are
    /// recomputed every run by design.
    pub fn store(&self, key: u64, result: &PipelineResult) {
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!("{key:016x}.json.tmp"));
        let write = fs::write(&tmp, entry_json(key, result)).and_then(|()| fs::rename(&tmp, &path));
        match write {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                self.enforce_cap(&path);
            }
            Err(_) => {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
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

    /// Evicts least-recently-used entries until the directory fits the
    /// byte cap again, never evicting `keep` (the entry just written — a
    /// cap smaller than one hot entry must not thrash it).
    fn enforce_cap(&self, keep: &Path) {
        let entries = self.scan();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        if total <= self.max_bytes {
            return;
        }
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
    }
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
}
