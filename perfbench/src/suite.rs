//! The suite workloads: the Table 2 suite under IR, as one sharded campaign
//! ([`ShardedCampaignRunner`], [`SUITE_SHARDS`] shards) started cold,
//! replayed warm, or resumed from a complete checkpoint.
//!
//! Set-up computes the reference report — one [`CampaignRunner::run`] of the
//! same spec with no cache — and every report the workload produces must
//! match it byte for byte.  Each repetition also checks its exact counters
//! against the workload's prediction and against the first repetition.

use crate::host;
use crate::probe::{self, Fnv};
use crate::spans::Spans;
use crate::{Bench, Fault, Layer, Ledger, Rep, Scale, Workload, DEFAULT_SEED, SUITE_SHARDS};
use hc_core::cache::{CacheActivity, CacheStats, CellCache};
use hc_core::campaign::{
    CampaignBuilder, CampaignError, CampaignReport, CampaignRunner, CampaignSpec,
};
use hc_core::policy::PolicyKind;
use hc_core::shard::{ShardReport, ShardedCampaignRunner, ShardedRunOutcome};
use hc_trace::WorkloadCategory;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The suite spec: `policies` over the Table 2 rows at `trace_len`.  At
/// [`DEFAULT_SEED`] the rows are the paper's `CategoryApp` selectors; any
/// other seed re-seeds every application profile.
fn suite_spec(
    name: &str,
    policies: &[PolicyKind],
    scale: &Scale,
    seed: u64,
    trace_len: usize,
) -> Result<CampaignSpec, CampaignError> {
    let mut b = CampaignBuilder::new(name)
        .policies(policies.iter().copied())
        .trace_len(trace_len);
    for category in WorkloadCategory::ALL {
        let apps = scale
            .suite_apps
            .map_or(category.trace_count(), |n| n.min(category.trace_count()));
        for app in 0..apps {
            b = if seed == DEFAULT_SEED {
                b.category_app(category, app)
            } else {
                let profile = category.app_profile(app, trace_len);
                let reseeded = profile.seed ^ splitmix64(seed);
                b.profile(profile.with_seed(reseeded))
            };
        }
    }
    b.build()
}

/// SplitMix64 finalizer: spreads a small seed over all 64 bits.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard_{index:04}.json"))
}

/// Counters that must repeat exactly from repetition to repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    hits: u64,
    misses: u64,
    inserts: u64,
    entries: u64,
    executed_shards: u64,
    resumed_shards: u64,
    report_bytes: u64,
    shard_files: u64,
    shard_bytes: u64,
}

impl Counters {
    fn to_vec(self) -> Vec<u64> {
        vec![
            self.hits,
            self.misses,
            self.inserts,
            self.entries,
            self.executed_shards,
            self.resumed_shards,
            self.report_bytes,
            self.shard_files,
            self.shard_bytes,
        ]
    }

    fn from_slice(v: &[u64]) -> Option<Counters> {
        let &[hits, misses, inserts, entries, executed_shards, resumed_shards, report_bytes, shard_files, shard_bytes] =
            v
        else {
            return None;
        };
        Some(Counters {
            hits,
            misses,
            inserts,
            entries,
            executed_shards,
            resumed_shards,
            report_bytes,
            shard_files,
            shard_bytes,
        })
    }
}

/// What the last in-process repetition left behind for the probes.
struct LastRep {
    report: CampaignReport,
    counters: Counters,
    executed_shards: Vec<usize>,
    resumed_shards: Vec<usize>,
    /// Cache bytes embed the recorded per-cell timings, so they are
    /// reported but not compared exactly.
    cache_bytes: u64,
    cache_dir: Option<PathBuf>,
    checkpoint: PathBuf,
    run_s: f64,
    run_cpu_s: f64,
    first_row_s: Option<f64>,
}

/// The measured action's results.
struct Action {
    outcome: ShardedRunOutcome,
    json: String,
    cache: Option<(CacheActivity, CacheStats)>,
    run_s: f64,
    run_cpu_s: f64,
    first_row_s: Option<f64>,
}

/// Open the cache, run the sharded campaign, encode the report, read the
/// cache's counters and close it — the user action, one span per layer call.
fn action(
    spec: &CampaignSpec,
    cache_dir: Option<&Path>,
    checkpoint: &Path,
    resume: bool,
    spans: &mut Spans,
) -> Result<Action, CampaignError> {
    let cache = match cache_dir {
        Some(dir) => Some(Arc::new(spans.span("cache.open", || CellCache::open(dir))?)),
        None => None,
    };
    let first = Arc::new(OnceLock::new());
    let seen = Arc::clone(&first);
    let mut runner = ShardedCampaignRunner::new(SUITE_SHARDS)
        .with_checkpoint(checkpoint)
        .resume(resume)
        .with_progress(move |_| {
            seen.get_or_init(Instant::now);
        });
    if let Some(cache) = &cache {
        runner = runner.with_cache(Arc::clone(cache));
    }
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let outcome = spans.span("campaign.run", || runner.run(spec))?;
    let run_s = t0.elapsed().as_secs_f64();
    let run_cpu_s = host::cpu_seconds() - cpu0;
    drop(runner);
    let json = spans.span("json.encode", || outcome.report.to_json());
    let counters = cache
        .as_deref()
        .map(|c| spans.span("cache.stats", || (c.activity(), c.stats())));
    spans.span("cache.close", || drop(cache));
    Ok(Action {
        outcome,
        json,
        cache: counters,
        run_s,
        run_cpu_s,
        first_row_s: first.get().map(|at| (*at - t0).as_secs_f64()),
    })
}

pub(crate) struct SuiteBench {
    workload: Workload,
    scale: Scale,
    seed: u64,
    work: PathBuf,
    spec: Result<CampaignSpec, String>,
    /// Digest of the reference report's bytes.
    reference: Option<u64>,
    first: Option<Counters>,
    last: Option<LastRep>,
}

impl SuiteBench {
    pub(crate) fn new(workload: Workload, scale: Scale, seed: u64, work: &Path) -> SuiteBench {
        let spec = suite_spec(
            "table2-suite",
            &[PolicyKind::Ir],
            &scale,
            seed,
            scale.trace_len,
        )
        .map_err(|e| e.to_string());
        SuiteBench {
            workload,
            scale,
            seed,
            work: work.to_path_buf(),
            spec,
            reference: None,
            first: None,
            last: None,
        }
    }

    fn warm_cache_dir(&self) -> PathBuf {
        self.work.join("warm-cache")
    }

    fn resume_checkpoint(&self) -> PathBuf {
        self.work.join("checkpoint")
    }

    /// Cells (baselines included) of the whole suite: every one misses on
    /// a cold cache and hits on a warm one.
    fn expected_cells(spec: &CampaignSpec) -> u64 {
        let per_row = spec.policies.len() + usize::from(spec.include_baseline);
        (spec.traces.len() * per_row) as u64
    }

    /// Compare a report's bytes, by digest, against the reference.
    fn matches_reference(&self, json: &str) -> Result<(), String> {
        self.matches_digest(digest(json))
    }

    fn matches_digest(&self, digest: u64) -> Result<(), String> {
        match self.reference {
            Some(reference) if reference == digest => Ok(()),
            Some(_) => Err("report bytes differ from the uncached CampaignRunner::run".into()),
            None => Err("no reference report".into()),
        }
    }

    /// Build the warm cache: the suite itself through the sharded runner,
    /// plus the seven paper policies over the suite at a shorter length.
    fn warm(&self, spec: &CampaignSpec) -> Result<(), String> {
        let cache = Arc::new(CellCache::open(self.warm_cache_dir()).map_err(|e| e.to_string())?);
        let outcome = ShardedCampaignRunner::new(SUITE_SHARDS)
            .with_cache(Arc::clone(&cache))
            .run(spec)
            .map_err(|e| e.to_string())?;
        self.matches_reference(&outcome.report.to_json())?;
        let extra = suite_spec(
            "table2-suite-paper-policies",
            &PolicyKind::ALL[1..],
            &self.scale,
            self.seed,
            self.scale.warm_extra_len,
        )
        .map_err(|e| e.to_string())?;
        CampaignRunner::new()
            .with_cache(cache)
            .run(&extra)
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Write the complete checkpoint the resume workload starts from.
    fn write_checkpoint(&self, spec: &CampaignSpec) -> Result<(), String> {
        let outcome = ShardedCampaignRunner::new(SUITE_SHARDS)
            .with_checkpoint(self.resume_checkpoint())
            .run(spec)
            .map_err(|e| e.to_string())?;
        self.matches_reference(&outcome.report.to_json())
    }
}

fn digest(text: &str) -> u64 {
    let mut d = Fnv::default();
    d.str(text);
    d.finish()
}

impl Bench for SuiteBench {
    fn setup(&mut self, ledger: &mut Ledger) {
        let spec = match &self.spec {
            Ok(spec) => spec.clone(),
            Err(e) => return ledger.op("suite spec", Err(e.clone())),
        };
        let reference = CampaignRunner::new()
            .run(&spec)
            .map(|r| digest(&r.to_json()));
        self.reference = reference.as_ref().ok().copied();
        ledger.op(
            "reference report",
            reference.map(drop).map_err(|e| e.to_string()),
        );
        match self.workload {
            Workload::SuiteWarm => ledger.op("warm the cache", self.warm(&spec)),
            Workload::SuiteResume => {
                ledger.op("write the checkpoint", self.write_checkpoint(&spec))
            }
            _ => {}
        }
    }

    fn inject(&mut self, fault: Fault) -> Result<(), String> {
        let (path, at) = match fault {
            Fault::CorruptShard => (shard_path(&self.resume_checkpoint(), 0), None),
            // Past the 20-byte segment header, inside the first records.
            Fault::CorruptSegment => (
                self.warm_cache_dir()
                    .join("segments")
                    .join("seg_000000.pack"),
                Some(100),
            ),
        };
        let mut bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let start = at.unwrap_or(bytes.len() / 2).min(bytes.len());
        let end = (start + 64).min(bytes.len());
        bytes[start..end].fill(b'#');
        std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn act(&mut self, index: usize, spans: &mut Spans) -> Rep {
        self.last = None;
        let spec = match &self.spec {
            Ok(spec) => spec,
            Err(e) => {
                return Rep {
                    error: Some(e.clone()),
                    ..Rep::default()
                }
            }
        };
        // Each repetition gets fresh directories where the workload needs
        // them; the previous repetition's are removed first, untimed.
        if let Some(previous) = index.checked_sub(1) {
            let _ = std::fs::remove_dir_all(self.work.join(format!("rep{previous}")));
        }
        let rep_dir = self.work.join(format!("rep{index}"));
        let (cache_dir, checkpoint, resume) = match self.workload {
            Workload::SuiteCold => (
                Some(rep_dir.join("cache")),
                rep_dir.join("checkpoint"),
                false,
            ),
            Workload::SuiteWarm => (
                Some(self.warm_cache_dir()),
                rep_dir.join("checkpoint"),
                false,
            ),
            _ => (None, self.resume_checkpoint(), true),
        };
        let (result, cost) =
            host::measure(|| action(spec, cache_dir.as_deref(), &checkpoint, resume, spans));
        let action = match result {
            Ok(action) => action,
            Err(e) => {
                return Rep {
                    cost,
                    error: Some(e.to_string()),
                    ..Rep::default()
                }
            }
        };
        let (activity, stats) = action.cache.unwrap_or_default();
        let mut counters = Counters {
            hits: activity.hits,
            misses: activity.misses,
            inserts: activity.inserts,
            entries: stats.entries,
            executed_shards: action.outcome.executed_shards.len() as u64,
            resumed_shards: action.outcome.resumed_shards.len() as u64,
            report_bytes: action.json.len() as u64,
            ..Counters::default()
        };
        for i in 0..SUITE_SHARDS {
            if let Ok(meta) = std::fs::metadata(shard_path(&checkpoint, i)) {
                counters.shard_files += 1;
                counters.shard_bytes += meta.len();
            }
        }
        let rep = Rep {
            cost,
            error: None,
            digest: digest(&action.json),
            counters: counters.to_vec(),
        };
        self.last = Some(LastRep {
            report: action.outcome.report,
            counters,
            executed_shards: action.outcome.executed_shards,
            resumed_shards: action.outcome.resumed_shards,
            cache_bytes: stats.bytes,
            cache_dir,
            checkpoint,
            run_s: action.run_s,
            run_cpu_s: action.run_cpu_s,
            first_row_s: action.first_row_s,
        });
        rep
    }

    /// Output bytes, the workload's predicted counters, and equality with
    /// the first repetition's counters.
    fn check(&mut self, rep: &Rep) -> Result<(), String> {
        self.matches_digest(rep.digest)?;
        let spec = self.spec.as_ref().map_err(Clone::clone)?;
        let c = Counters::from_slice(&rep.counters).ok_or("malformed counters")?;
        let cells = Self::expected_cells(spec);
        let shards = SUITE_SHARDS as u64;
        let predicted = match self.workload {
            Workload::SuiteCold => c.hits == 0 && c.inserts == cells && c.executed_shards == shards,
            Workload::SuiteWarm => {
                c.misses == 0 && c.hits == cells && c.inserts == 0 && c.executed_shards == shards
            }
            _ => c.executed_shards == 0 && c.resumed_shards == shards,
        };
        if !predicted {
            return Err(format!(
                "counters {c:?} miss the prediction ({cells} cells)"
            ));
        }
        match self.first {
            Some(first) if first != c => Err(format!(
                "counters {c:?} differ from the first repetition's {first:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.first = Some(c);
                Ok(())
            }
        }
    }

    /// The sharded runner hides trace synthesis, simulation, shard encoding
    /// and decoding, and merging; the probe re-issues each from outside on
    /// the last repetition's inputs and outputs.
    fn probe(&mut self, spans: &mut Spans, ledger: &mut Ledger, layer: &mut Layer) {
        let (Ok(spec), Some(last)) = (self.spec.clone(), self.last.take()) else {
            return;
        };
        let c = &last.counters;
        if last.cache_dir.is_some() {
            layer.set("cache.hits", c.hits as f64);
            layer.set("cache.misses", c.misses as f64);
            layer.set("cache.inserts", c.inserts as f64);
            layer.set("cache.entries", c.entries as f64);
            layer.set("cache.bytes", last.cache_bytes as f64);
        }
        layer.set("shard.files", c.shard_files as f64);
        layer.set("shard.bytes", c.shard_bytes as f64);
        layer.set("json.encode_bytes", c.report_bytes as f64);
        layer.set("campaign.first_row_s", last.first_row_s.unwrap_or(0.0));
        layer.set(
            "campaign.parallel_efficiency",
            crate::utilization(last.run_cpu_s, last.run_s),
        );

        // A resumed run loads, decodes and merges the checkpoint's shards
        // (a cold or warm run writes them inside `campaign.run`).
        if !last.resumed_shards.is_empty() {
            let mut shards = Vec::new();
            for &i in &last.resumed_shards {
                let path = shard_path(&last.checkpoint, i);
                let loaded = spans.span("shard.load", || -> Result<_, String> {
                    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                    let shard = ShardReport::from_json(&text).map_err(|e| e.to_string())?;
                    Ok((shard, text))
                });
                let (shard, text) = match loaded {
                    Ok(loaded) => loaded,
                    Err(e) => {
                        return ledger.op("probe: load shard", Err(format!("shard {i}: {e}")))
                    }
                };
                let parsed = spans.span("json.decode", || serde::json::parse(&text));
                ledger.op(
                    "probe: decode shard",
                    parsed.map(drop).map_err(|e| e.to_string()),
                );
                layer.add("json.decode_bytes", text.len() as f64);
                shards.push(shard);
            }
            if last.executed_shards.is_empty() {
                let merged = spans.span("shard.merge", || CampaignReport::merge(&shards));
                let verdict = merged
                    .map_err(|e| e.to_string())
                    .and_then(|m| self.matches_reference(&m.to_json()));
                ledger.op("probe: merge the checkpoint's shards", verdict);
            }
        }

        // The cache's index snapshot is decoded when a warm cache opens.
        if let Some(dir) = last.cache_dir.as_deref().filter(|_| c.hits > 0) {
            if let Ok(text) = std::fs::read_to_string(dir.join("index.json")) {
                let parsed = spans.span("json.decode", || serde::json::parse(&text));
                ledger.op(
                    "probe: decode the cache index",
                    parsed.map(drop).map_err(|e| e.to_string()),
                );
                layer.add("json.decode_bytes", text.len() as f64);
            }
        }

        // Rows of executed shards were synthesized; the ones that missed the
        // cache (or ran without one) were simulated as well.  A partly
        // executed resume (a damaged checkpoint, already a failed
        // repetition) is probed as if it had executed every row.
        let rows: Vec<usize> = if last.executed_shards.is_empty() {
            Vec::new()
        } else {
            (0..spec.traces.len()).collect()
        };
        let simulated = !rows.is_empty() && (last.cache_dir.is_none() || c.misses > 0);
        layer.set("campaign.rows", rows.len() as f64);
        layer.set("campaign.cells", (rows.len() * spec.policies.len()) as f64);
        if simulated && spec.include_baseline {
            layer.set("campaign.baseline_sims", rows.len() as f64);
        }
        probe::replay_rows(&spec, &rows, &last.report, simulated, spans, ledger, layer);
        probe::report_totals(&last.report, layer);
    }
}
