//! Content-addressed, on-disk memoization of campaign cells.
//!
//! A [`CellCache`] stores the [`SimStats`] of every simulated cell —
//! policy cells *and* monolithic baselines — keyed by a stable digest of
//! everything that determines the result:
//!
//! * the **trace identity**: the serialized
//!   [`TraceSelector`](crate::campaign::TraceSelector) plus the
//!   synthesis length (`trace_len`), which together determine the generated
//!   trace bit-for-bit;
//! * the **scenario**: the full serialized
//!   [`ScenarioSpec`](crate::scenario::ScenarioSpec) (machine, predictors,
//!   power);
//! * the **policy** name and the `warmup_runs` count (policy cells only —
//!   baselines never warm);
//! * the **schema preamble**: [`CACHE_SCHEMA_VERSION`] and
//!   [`hc_sim::SIM_BEHAVIOR_VERSION`], so a change to either the key/entry
//!   semantics or the simulator's observable behaviour invalidates every
//!   entry instead of silently replaying stale results.
//!
//! The digest is FNV-1a/128 over the *compact canonical JSON* of that key
//! document; the document itself is stored inside each record and compared on
//! every lookup, so even a digest collision (or a corrupt / foreign record)
//! degrades to a miss, never to wrong data.
//!
//! ## Packed segment store
//!
//! Entries live in append-only **segment files** (`segments/seg_NNNNNN.pack`)
//! of length-prefixed, checksummed `(key-json, payload-json)` records under a
//! versioned segment header, with an in-memory **index**
//! (digest → segment/offset/len + last-use stamp) answering every probe.  A
//! hit is one index lookup plus one positioned read; [`CellCache::stats`]
//! sums the index instead of walking a directory; [`CellCache::gc`] evicts
//! index entries and **compacts** segments whose live-byte ratio drops,
//! instead of unlinking files one stat at a time.  The index is persisted to
//! `index.json` when a handle drops and rebuilt (or delta-scanned) from the
//! segment files themselves whenever it is missing or stale, so killing a
//! process can never poison the cache: a torn tail record fails its checksum
//! and is truncated away at the next open.  Module-level details live in
//! [`segment`](self) framing (see `segment.rs`), the index rebuild rules
//! (`index.rs`), compaction (`gc.rs`) and the legacy per-file fallback
//! (`legacy.rs`).
//!
//! Caches written by the older one-JSON-file-per-cell layout are read
//! transparently and can be migrated in place with [`CellCache::pack`]
//! (`reproduce cache-pack`); reports stay byte-identical cold, warm, or
//! migrated.
//!
//! Because [`SimStats`] round-trips through the workspace JSON codec exactly
//! (integers verbatim, floats via shortest-round-trip formatting), a report
//! assembled from cache hits is **byte-identical** to one assembled from
//! fresh simulation — `tests/cell_cache.rs` pins this.
//!
//! Each record also stores the wall-clock nanoseconds the original
//! simulation took.  Those observations feed the [`CostModel`] behind the
//! cost-balanced shard planner (`hc_core::shard`): rows whose cells are
//! known-slow are spread across shards instead of round-robin'd into one
//! unlucky straggler.
//!
//! ## In-flight dedupe (singleflight)
//!
//! [`CellCache::get_or_compute`] is the miss path every cache-mediated
//! simulation funnels through.  It keeps a keyed singleflight table
//! (`HashMap<digest, Arc<Flight>>` guarded by a mutex, one condvar per
//! flight): the first caller to miss on a key becomes the **leader** and
//! simulates; every concurrent caller of the same key **joins** — it blocks
//! on the flight's condvar and receives a clone of the leader's result
//! instead of re-simulating.  N identical in-flight campaigns therefore cost
//! one simulation per unique cell, which is what lets a long-lived campaign
//! service (`hc_serve`) coalesce repeat traffic *across* users, not just
//! across runs.  The [`CacheStats::dedupe_leads`] counter is exactly the
//! number of simulations executed through the cache; `dedupe_joins` counts
//! the coalesced waits.
//!
//! ## Lifecycle (GC)
//!
//! Every record carries a last-use stamp in the index (bumped on each hit,
//! persisted with the index snapshot).  [`CellCache::gc`] evicts entries
//! older than a given age, then — LRU by stamp — evicts until the cache fits
//! a byte budget, and finally rewrites segments whose live records have
//! shrunk below half their bytes; `reproduce cache-gc` is a thin wrapper
//! over it.

mod gc;
mod index;
mod legacy;
mod segment;
mod store;

pub use gc::{GcOutcome, GcPolicy};
pub use store::{CellCache, PackOutcome};

use crate::campaign::{CampaignError, CampaignSpec};
use crate::policy::PolicyKind;
use hc_sim::SimStats;
use serde::Serialize;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::SystemTime;

/// Version of the cache *key and entry semantics* (the key document layout
/// and the meaning of a stored payload).  It is part of every key document's
/// preamble, so bumping it invalidates every entry.  The physical file
/// layout is versioned separately by [`CACHE_LAYOUT_VERSION`]: the packed
/// rewrite of the store did not change what a cached cell *means*, so
/// legacy per-file entries remain readable.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// Version of the on-disk *file layout*.  `1` is the legacy
/// one-JSON-file-per-cell directory; `2` is the packed segment store.
/// Caches of either layout open transparently; anything else is refused.
pub const CACHE_LAYOUT_VERSION: u32 = 2;

/// Name of the manifest file marking a directory as a cell cache.
pub(crate) const MANIFEST_FILE: &str = "cache.json";

/// Subdirectory holding the legacy (layout v1) content-addressed entry files.
pub(crate) const CELLS_DIR: &str = "cells";

/// Subdirectory holding the packed segment files.
pub(crate) const SEGMENTS_DIR: &str = "segments";

/// Persisted snapshot of the in-memory index (advisory: rebuilt from the
/// segments whenever missing or stale).
pub(crate) const INDEX_FILE: &str = "index.json";

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;

/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// FNV-1a 64-bit offset basis.
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x100000001b3;

/// FNV-1a/128 over a byte string — the cell digest.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    let mut hash = FNV128_OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(FNV128_PRIME);
    }
    hash
}

/// Incremental FNV-1a/64 — the segment record checksum.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Fnv64 {
        Fnv64(FNV64_OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Milliseconds since the Unix epoch — the last-use clock the index runs on.
/// (Wall-clock, so `max_age` GC policies mean what they say across process
/// restarts; monotonicity is not required, only rough LRU ordering.)
pub(crate) fn now_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Poison-proof lock: a panicking holder cannot take the cache down.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Write `contents` to `path` through `tmp` + rename, so readers never see a
/// partial file.
pub(crate) fn write_atomic(path: &Path, contents: &str, tmp: &Path) -> Result<(), CampaignError> {
    std::fs::write(tmp, contents)
        .map_err(|e| CampaignError::Cache(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(tmp);
        CampaignError::Cache(format!("rename to {}: {e}", path.display()))
    })
}

/// The content-addressed key of one cached cell: the canonical key document
/// plus its digest (the record's index key).
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    pub(crate) digest: u128,
    pub(crate) document: serde::Value,
}

impl CellKey {
    fn from_document(document: serde::Value) -> CellKey {
        let canonical = serde::json::to_string(&document);
        CellKey {
            digest: fnv128(canonical.as_bytes()),
            document,
        }
    }

    /// Key of a policy cell: (trace identity, scenario, policy, warmup).
    pub fn cell(
        trace: &serde::Value,
        trace_len: usize,
        warmup_runs: usize,
        scenario: &serde::Value,
        policy: &str,
    ) -> CellKey {
        CellKey::from_document(serde::Value::Map(vec![
            key_preamble(),
            ("kind".to_string(), serde::Value::Str("cell".to_string())),
            ("trace".to_string(), trace.clone()),
            ("trace_len".to_string(), Serialize::to_value(&trace_len)),
            ("warmup_runs".to_string(), Serialize::to_value(&warmup_runs)),
            ("scenario".to_string(), scenario.clone()),
            ("policy".to_string(), serde::Value::Str(policy.to_string())),
        ]))
    }

    /// Key of a (trace, scenario) monolithic baseline.  Baselines never run
    /// warmup passes, so `warmup_runs` is deliberately *not* part of the key:
    /// campaigns differing only in warmup share baseline entries.
    pub fn baseline(trace: &serde::Value, trace_len: usize, scenario: &serde::Value) -> CellKey {
        CellKey::from_document(serde::Value::Map(vec![
            key_preamble(),
            (
                "kind".to_string(),
                serde::Value::Str("baseline".to_string()),
            ),
            ("trace".to_string(), trace.clone()),
            ("trace_len".to_string(), Serialize::to_value(&trace_len)),
            ("scenario".to_string(), scenario.clone()),
        ]))
    }

    /// The canonical compact JSON of the key document — the byte string the
    /// digest is computed over and the key half of a packed record.
    pub(crate) fn canonical_json(&self) -> String {
        serde::json::to_string(&self.document)
    }

    /// The legacy (layout v1) entry file name this key addresses
    /// (32 lowercase hex digits).
    pub fn file_name(&self) -> String {
        format!("{:032x}.json", self.digest)
    }
}

/// The versions-preamble every key document starts with.
fn key_preamble() -> (String, serde::Value) {
    (
        "versions".to_string(),
        serde::Value::Map(vec![
            (
                "cache_schema".to_string(),
                serde::Value::UInt(CACHE_SCHEMA_VERSION as u64),
            ),
            (
                "sim_behavior".to_string(),
                serde::Value::UInt(hc_sim::SIM_BEHAVIOR_VERSION as u64),
            ),
        ]),
    )
}

/// One decoded cache entry: the memoized statistics plus the wall-clock cost
/// of the original simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell {
    /// The memoized simulation result.
    pub stats: SimStats,
    /// Nanoseconds the original (cold) simulation of this cell took —
    /// the observation the [`CostModel`] planner consumes.
    pub elapsed_nanos: u64,
}

/// Counters describing what a cache did over its lifetime (one campaign run,
/// typically).  Cache *activity is not part of any report* — reports stay
/// byte-identical whether cells hit or miss; these counters are how callers
/// (the `reproduce` binary, tests, CI) observe the cache working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheActivity {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found no (usable) entry.
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Corrupt or foreign records dropped — at lookup, during a segment
    /// scan, or by GC.
    pub evictions: u64,
}

/// Cumulative statistics of one [`CellCache`] handle: the
/// [`CacheActivity`] counters plus the in-flight dedupe counters and the
/// cache's current on-disk footprint.  This is the one accessor the
/// `reproduce` CLI counters and the `hc_serve` `/metrics` endpoint both
/// read from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no (usable) entry.
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries deleted — corrupt/foreign records dropped at lookup or scan
    /// time plus entries reclaimed by [`CellCache::gc`].
    pub evictions: u64,
    /// Simulations actually executed through
    /// [`CellCache::get_or_compute`] — under in-flight dedupe, exactly one
    /// per unique missing cell key, however many callers raced.
    pub dedupe_leads: u64,
    /// Callers that coalesced onto another caller's in-flight simulation
    /// instead of re-simulating.
    pub dedupe_joins: u64,
    /// Live entries currently indexed (packed records plus legacy files).
    pub entries: u64,
    /// Bytes of live entries (packed record bytes plus legacy file bytes).
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Per-row simulation-cost estimates for shard planning.
///
/// Without observations every cell of a campaign costs the same a-priori
/// estimate (`trace_len ×` [`CostModel::DEFAULT_NANOS_PER_UOP`]), so the
/// plan the LPT partitioner produces **degenerates to exactly the legacy
/// round-robin partition** — which is what keeps uncached sharded runs
/// byte-and-wire-identical to every previous release.  With a warm
/// [`CellCache`], each cell's recorded wall-clock time replaces the
/// estimate, and rows that are known to simulate slowly (high-latency
/// memory-bound traces take many more simulated cycles per µop) get spread
/// across shards instead of piling onto one straggler.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel<'a> {
    cache: Option<&'a CellCache>,
}

impl<'a> CostModel<'a> {
    /// A-priori cost estimate per trace µop, in nanoseconds.  The absolute
    /// scale is irrelevant to the partition (only *ratios* matter); it is
    /// chosen near the observed simulator rate so mixed estimated/observed
    /// rows compare sanely.
    pub const DEFAULT_NANOS_PER_UOP: u64 = 200;

    /// A model with no observations: every row costs the same.
    pub fn uniform() -> CostModel<'static> {
        CostModel { cache: None }
    }

    /// A model refined by the timings recorded in `cache`.
    pub fn observed(cache: &'a CellCache) -> CostModel<'a> {
        CostModel { cache: Some(cache) }
    }

    /// Estimated cost (abstract nanoseconds) of simulating one spec row:
    /// the row's baselines plus every scenario × policy cell.
    pub fn row_cost(&self, spec: &CampaignSpec, row: usize) -> u64 {
        let default_cell = (spec.trace_len as u64).saturating_mul(Self::DEFAULT_NANOS_PER_UOP);
        let baseline_needed =
            spec.include_baseline || spec.policies.contains(&PolicyKind::Baseline);
        let Some(cache) = self.cache else {
            let baselines = if baseline_needed {
                spec.scenarios.len() as u64
            } else {
                0
            };
            // The baseline-policy column clones the memoized baseline, so it
            // costs nothing beyond the baseline itself.
            let sim_policies = spec
                .policies
                .iter()
                .filter(|&&k| k != PolicyKind::Baseline)
                .count() as u64;
            let warm_factor = (spec.warmup_runs as u64).saturating_add(1);
            return default_cell.saturating_mul(
                baselines.saturating_add(
                    sim_policies
                        .saturating_mul(spec.scenarios.len() as u64)
                        .saturating_mul(warm_factor),
                ),
            );
        };
        // Match the grid's cache identity for this row (content-addressed
        // for `File` rows) so observed timings are found; an unresolvable
        // identity (e.g. an unreadable recording) falls back to the plain
        // selector document — cost estimates are advisory, and the campaign
        // itself will surface the typed error.
        let trace_doc = spec.traces[row]
            .cache_doc()
            .unwrap_or_else(|_| Serialize::to_value(&spec.traces[row]));
        let mut total = 0u64;
        for scenario in &spec.scenarios {
            let scenario_doc = Serialize::to_value(scenario);
            if baseline_needed {
                let key = CellKey::baseline(&trace_doc, spec.trace_len, &scenario_doc);
                total = total.saturating_add(cache.observed_nanos(&key).unwrap_or(default_cell));
            }
            for kind in &spec.policies {
                if *kind == PolicyKind::Baseline {
                    continue; // cloned from the baseline, free
                }
                let key = CellKey::cell(
                    &trace_doc,
                    spec.trace_len,
                    spec.warmup_runs,
                    &scenario_doc,
                    kind.name(),
                );
                total = total.saturating_add(cache.observed_nanos(&key).unwrap_or_else(|| {
                    default_cell.saturating_mul((spec.warmup_runs as u64).saturating_add(1))
                }));
            }
        }
        total
    }

    /// Estimated cost of every spec row, in row order.
    pub fn row_costs(&self, spec: &CampaignSpec) -> Vec<u64> {
        (0..spec.traces.len())
            .map(|row| self.row_cost(spec, row))
            .collect()
    }
}

#[cfg(test)]
mod tests;
