//! Multi-process shard fan-out: lease-based work claiming, work-stealing
//! reassignment and a merge coordinator over one checkpoint directory.
//!
//! A checkpoint directory — the `campaign.json` manifest plus one
//! `shard_NNNN.json` per completed shard, read and written only through
//! the `checkpoint` protocol module — is a **coordination substrate for a
//! fleet of worker processes**:
//!
//! * [`FanoutWorker`] is one worker of the fleet.  It adopts (or, first
//!   arrival, publishes) the manifest, then runs the **claim loop**: claim a
//!   shard's lease, adopt a valid report already on disk, otherwise execute
//!   the shard through the streaming grid engine and write its report.
//!   Stealing, it also takes stragglers' and crashed peers' shards, most
//!   expensive first per the [`CostModel`].  The in-process
//!   [`ShardedCampaignRunner`](crate::shard::ShardedCampaignRunner) is the
//!   same loop run solo, followed by an in-memory merge.
//! * [`ShardLease`] is the claim primitive: an exclusively-created
//!   `shard_NNNN.lease` file whose mtime is renewed by a heartbeat thread
//!   while the holder simulates.  A lease whose mtime has not moved for the
//!   staleness timeout marks a dead or stalled holder; any worker may break
//!   it and re-claim the shard.
//! * [`MergeCoordinator`] watches the directory, validates the accumulating
//!   shard set with the same typed conflict errors as
//!   [`CampaignReport::merge`], and emits a merged report **byte-identical**
//!   to the single-process run.
//!
//! Within one run a process never reads back a shard file it wrote, and
//! decodes the manifest and every other shard file at most once.
//!
//! ## Why duplicate execution is safe
//!
//! The claim protocol keeps duplicate work *rare* (exactly one `hard_link`
//! wins a race; stealers only break leases that look dead), but it cannot
//! make it impossible: a holder paused longer than the staleness timeout —
//! by a scheduler, a debugger, or swap death — looks exactly like a crashed
//! one, and in the worst interleaving two workers briefly simulate the same
//! shard.  That is deliberate.  A shard report is a **pure function of
//! (spec, plan, shard index)**: both workers produce byte-identical JSON,
//! each writes it through its own uniquely-named tmp file and a `rename`,
//! and whichever rename lands last installs the same bytes.  Correctness
//! never depends on mutual exclusion — the leases exist only to avoid
//! wasting simulation time.

use crate::cache::{CellCache, CostModel};
use crate::campaign::{CampaignError, CampaignReport, CampaignSpec, Progress, ProgressHook};
use crate::checkpoint::{self, CheckpointDir, CheckpointManifest, ShardFile, MANIFEST_FILE};
use crate::shard::{CampaignShard, ShardPlan, ShardReport};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// File name of the lease guarding one shard's execution.
pub fn lease_file_name(index: usize) -> String {
    format!("shard_{index:04}.lease")
}

/// An exclusive, heartbeat-renewed claim on one shard of a checkpoint
/// directory.
///
/// Claiming is atomic: the claimant writes a uniquely-named temporary file
/// and `hard_link`s it to the lease path — link creation fails if the lease
/// already exists, so however many workers race, **exactly one wins**.  A
/// background heartbeat thread then renews the lease's mtime every quarter
/// of the staleness timeout; a holder that dies (or stalls) stops renewing,
/// and once the mtime is older than the timeout any other worker may break
/// the lease and claim the shard for itself.
///
/// Dropping the lease — normal completion, an error unwind, anything but
/// `SIGKILL` — stops the heartbeat and removes the lease file.  A
/// `SIGKILL`ed holder leaves the file behind; that is exactly the stale
/// lease the timeout exists to reap.
pub struct ShardLease {
    path: PathBuf,
    heartbeat_stop: Arc<(Mutex<bool>, Condvar)>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ShardLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardLease")
            .field("path", &self.path)
            .finish()
    }
}

impl ShardLease {
    /// Try to claim shard `index` of the checkpoint directory `dir`.
    ///
    /// Returns `Ok(Some(lease))` when this caller won the claim,
    /// `Ok(None)` when another holder's lease is present **and fresh**
    /// (renewed within `timeout`).  A stale lease is broken and the claim
    /// retried once — the stale holder is presumed dead.
    ///
    /// Breaking a stale lease races benignly: two breakers both remove the
    /// stale file (one removal wins, the other no-ops) and both retry the
    /// `hard_link`, which again elects exactly one winner.
    pub fn try_claim(
        dir: &Path,
        index: usize,
        worker_id: &str,
        timeout: Duration,
    ) -> Result<Option<ShardLease>, CampaignError> {
        let path = dir.join(lease_file_name(index));
        let doc = serde::json::to_string_pretty(&serde::Value::Map(vec![
            (
                "worker".to_string(),
                serde::Value::Str(worker_id.to_string()),
            ),
            (
                "pid".to_string(),
                serde::Value::UInt(std::process::id() as u64),
            ),
        ]));
        for attempt in 0..2 {
            let won = checkpoint::publish(&path, &doc, true)
                .map_err(|e| CampaignError::Fanout(format!("claim {}: {e}", path.display())))?;
            if won {
                return Ok(Some(ShardLease::won(path, timeout)));
            }
            // Occupied.  Dead holder?  The mtime is the heartbeat clock:
            // unreadable or future mtimes count as fresh (never break a
            // lease on bad evidence).
            let stale = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
                .is_some_and(|age| age > timeout);
            if !stale || attempt > 0 {
                break;
            }
            let _ = std::fs::remove_file(&path);
        }
        Ok(None)
    }

    /// Wrap a freshly-won lease path and start its heartbeat.
    fn won(path: PathBuf, timeout: Duration) -> ShardLease {
        let interval = (timeout / 4).max(Duration::from_millis(10));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let heartbeat = {
            let stop = Arc::clone(&stop);
            let path = path.clone();
            std::thread::spawn(move || {
                let (flag, wake) = &*stop;
                let mut stopped = flag.lock().unwrap_or_else(|e| e.into_inner());
                while !*stopped {
                    let (guard, _) = wake
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(|e| e.into_inner());
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    // Renew.  Best-effort: a vanished lease (stolen after a
                    // long stall) just stops being renewed — the shard may
                    // then run twice, which is benign (see module docs).
                    if let Ok(file) = std::fs::File::options().write(true).open(&path) {
                        let _ = file.set_modified(SystemTime::now());
                    }
                }
            })
        };
        ShardLease {
            path,
            heartbeat_stop: stop,
            heartbeat: Some(heartbeat),
        }
    }

    /// The lease file this claim holds.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Release the claim: stop the heartbeat and remove the lease file.
    /// (Equivalent to dropping the lease; provided for explicitness.)
    pub fn release(self) {}
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        let (flag, wake) = &*self.heartbeat_stop;
        *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        wake.notify_all();
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What one [`FanoutWorker`] did over one [`FanoutWorker::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Shards this worker claimed, simulated and published, ascending.
    pub executed_shards: Vec<usize>,
    /// The subset of `executed_shards` that were not this worker's home
    /// shard — work stolen from stragglers or crashed peers, ascending.
    pub stolen_shards: Vec<usize>,
}

/// What one pass of the claim loop finished: every shard it executed or
/// found already complete on disk.
#[derive(Default)]
pub(crate) struct Execution {
    /// The finished shards' reports, in completion order.
    pub(crate) reports: Vec<ShardReport>,
    /// Shards simulated (and, with a checkpoint directory, written),
    /// ascending.
    pub(crate) executed: Vec<usize>,
    /// Shards whose valid report was found on disk, ascending.
    pub(crate) loaded: Vec<usize>,
}

/// One worker process (or thread) of a shard fan-out fleet.
///
/// Every worker of a fleet is pointed at the same checkpoint directory and
/// the same spec; the first to arrive plans the partition and publishes the
/// `campaign.json` manifest (atomically — losers of the publish race adopt
/// the winner's plan, so the whole fleet executes **one** partition even
/// when their local cost observations differ).  Each worker then claims
/// shards through [`ShardLease`]s and executes them through the ordinary
/// streaming grid engine.
///
/// With a home shard set ([`FanoutWorker::home_shard`]) the worker claims
/// that shard first; with stealing enabled (the default) it then sweeps the
/// remaining unfinished shards — most expensive first, per the
/// [`CostModel`]'s recorded per-row costs — and claims any whose lease is
/// absent or stale.  A worker with stealing disabled executes exactly its
/// home shard: it waits (polling) while a peer's fresh lease covers that
/// shard, reclaims it if the lease goes stale, and returns once the shard's
/// report is on disk, whoever wrote it.
pub struct FanoutWorker {
    shard_count: usize,
    home_shard: Option<usize>,
    /// `None` only for the in-process runner without a checkpoint: no
    /// manifest, no leases, no shard files.
    checkpoint: Option<PathBuf>,
    /// Adopt the directory's manifest and valid shard files; `false` (a
    /// fresh in-process run) overwrites both.
    resume: bool,
    /// The error variant protocol failures are reported in.
    error: fn(String) -> CampaignError,
    worker_id: String,
    lease_timeout: Duration,
    poll_interval: Duration,
    steal: bool,
    cache: Option<Arc<CellCache>>,
    progress: Option<ProgressHook>,
}

impl std::fmt::Debug for FanoutWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutWorker")
            .field("shard_count", &self.shard_count)
            .field("home_shard", &self.home_shard)
            .field("checkpoint", &self.checkpoint)
            .field("worker_id", &self.worker_id)
            .field("lease_timeout", &self.lease_timeout)
            .field("steal", &self.steal)
            .finish()
    }
}

impl FanoutWorker {
    /// A worker of an `shard_count`-way fan-out over `checkpoint`, with
    /// stealing enabled, a 30-second staleness timeout and a process-unique
    /// worker id.
    pub fn new(shard_count: usize, checkpoint: impl Into<PathBuf>) -> FanoutWorker {
        FanoutWorker {
            shard_count,
            home_shard: None,
            checkpoint: Some(checkpoint.into()),
            resume: true,
            error: CampaignError::Fanout,
            worker_id: format!("pid{}-{}", std::process::id(), checkpoint::next_seq()),
            lease_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(200),
            steal: true,
            cache: None,
            progress: None,
        }
    }

    /// The worker behind [`ShardedCampaignRunner`](crate::shard::ShardedCampaignRunner):
    /// every shard, checkpoint optional, failures as
    /// [`CampaignError::Checkpoint`].
    pub(crate) fn solo(
        shard_count: usize,
        checkpoint: Option<PathBuf>,
        resume: bool,
        cache: Option<Arc<CellCache>>,
        progress: Option<ProgressHook>,
    ) -> FanoutWorker {
        FanoutWorker {
            checkpoint,
            resume,
            error: CampaignError::Checkpoint,
            cache,
            progress,
            ..FanoutWorker::new(shard_count, PathBuf::new())
        }
    }

    /// The shard this worker claims first (and, stealing disabled, the only
    /// shard it executes).
    pub fn home_shard(mut self, index: usize) -> FanoutWorker {
        self.home_shard = Some(index);
        self
    }

    /// Name this worker in lease files (diagnostics only; uniqueness is not
    /// required for correctness).
    pub fn worker_id(mut self, id: impl Into<String>) -> FanoutWorker {
        self.worker_id = id.into();
        self
    }

    /// How long a lease's mtime may sit unrenewed before any worker may
    /// break it.  Heartbeats renew at a quarter of this, so the timeout
    /// must comfortably exceed scheduling jitter — not shard runtime.
    pub fn lease_timeout(mut self, timeout: Duration) -> FanoutWorker {
        self.lease_timeout = timeout;
        self
    }

    /// How often an idle worker rescans the directory for newly-stale
    /// leases or newly-complete shards.
    pub fn poll_interval(mut self, interval: Duration) -> FanoutWorker {
        self.poll_interval = interval;
        self
    }

    /// Enable or disable work-stealing (default: enabled).
    pub fn steal(mut self, steal: bool) -> FanoutWorker {
        self.steal = steal;
        self
    }

    /// Memoize simulated cells through a [`CellCache`]; its recorded
    /// timings also steer the partition plan (first arrival only) and the
    /// steal order.
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> FanoutWorker {
        self.cache = Some(cache);
        self
    }

    /// Attach a progress hook; it observes campaign-global cell counts over
    /// the whole run (shards found complete on disk advance them without
    /// calling the hook), and a hook that panics is not called again.
    pub fn with_progress(
        mut self,
        hook: impl Fn(&crate::campaign::CampaignProgress) + Send + Sync + 'static,
    ) -> FanoutWorker {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// Execute this worker's share of the fan-out: adopt or publish the
    /// manifest, then claim-and-run shards until this worker's work is done
    /// (its home shard complete, or — stealing — every shard complete).
    pub fn run(&self, spec: &CampaignSpec) -> Result<WorkerOutcome, CampaignError> {
        let executed_shards = self.execute(spec)?.executed;
        Ok(WorkerOutcome {
            stolen_shards: executed_shards
                .iter()
                .copied()
                .filter(|&k| Some(k) != self.home_shard)
                .collect(),
            executed_shards,
        })
    }

    /// The claim loop.  Each shard is claimed (through its lease, when there
    /// is a directory), then its file is read once: a valid report is
    /// adopted, anything else is re-executed and overwritten — the
    /// crash-tolerant recovery path.  A shard under a peer's fresh lease is
    /// retried after the poll interval.
    pub(crate) fn execute(&self, spec: &CampaignSpec) -> Result<Execution, CampaignError> {
        spec.validate()?;
        let costs = match self.cache.as_deref() {
            Some(cache) => CostModel::observed(cache),
            None => CostModel::uniform(),
        }
        .row_costs(spec);
        let planned =
            CheckpointManifest::new(spec, ShardPlan::cost_balanced(&costs, self.shard_count)?);
        if let Some(home) = self.home_shard.filter(|&home| home >= self.shard_count) {
            return Err(CampaignError::ShardIndexOutOfRange {
                index: home,
                count: self.shard_count,
            });
        }
        let dir = self
            .checkpoint
            .as_deref()
            .map(|root| CheckpointDir::new(root, self.error));
        // A directory's manifest pins its plan: shard files already on disk
        // were cut along it, so re-planning would orphan them.
        let manifest = match &dir {
            Some(dir) => dir.join(planned, !self.resume)?,
            None => planned,
        };
        let shards = CampaignShard::from_plan(spec, manifest.plan.clone());

        // Claim order: home shard first, then the remaining shards by
        // descending estimated load (break the biggest straggler first),
        // ties by index.
        let loads = manifest.plan.shard_loads(&costs);
        let mut pending: Vec<usize> = (0..self.shard_count)
            .filter(|&k| self.steal || Some(k) == self.home_shard)
            .collect();
        pending.sort_by_key(|&k| (Some(k) != self.home_shard, std::cmp::Reverse(loads[k]), k));

        // One progress state for the whole run: counts are campaign-global
        // and a hook that panics stays disabled across shards.
        let progress = Progress::new(self.progress.clone(), spec.cell_count());
        let mut run = Execution::default();
        while !pending.is_empty() {
            let mut waiting = Vec::new();
            for &k in &pending {
                let lease = dir
                    .as_ref()
                    .map(|d| {
                        ShardLease::try_claim(d.root(), k, &self.worker_id, self.lease_timeout)
                    })
                    .transpose()?;
                if let Some(None) = lease {
                    waiting.push(k); // fresh lease held by a live peer
                    continue;
                }
                let found = match &dir {
                    Some(dir) if self.resume => dir.load_shard(&manifest, k),
                    _ => ShardFile::Absent,
                };
                let report = if let ShardFile::Valid(report) = found {
                    progress.skip(shards[k].cell_count());
                    run.loaded.push(k);
                    *report
                } else {
                    let report = shards[k].run_reporting(&progress, self.cache.as_deref())?;
                    if let Some(dir) = &dir {
                        dir.store_shard(&report)?;
                    }
                    run.executed.push(k);
                    report
                };
                drop(lease);
                run.reports.push(report);
            }
            if waiting.len() == pending.len() {
                // Everything unfinished is freshly leased by live peers:
                // wait for reports to land or leases to go stale.
                std::thread::sleep(self.poll_interval);
            }
            pending = waiting;
        }
        run.executed.sort_unstable();
        run.loaded.sort_unstable();
        Ok(run)
    }
}

/// How long [`MergeCoordinator::run`] is willing to watch the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeWait {
    /// Merge what is on disk right now; missing shards are an error.
    NoWait,
    /// Poll until every shard file lands (workers may still be running, or
    /// not even started).
    Forever,
    /// Poll, but give up after this long.
    Timeout(Duration),
}

/// What a merge produced: the byte-identical report plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The merged report — byte-identical (as JSON) to the single-process
    /// [`CampaignRunner::run`](crate::campaign::CampaignRunner::run) on the
    /// manifest's spec.
    pub report: CampaignReport,
    /// Shards merged (the manifest's shard count).
    pub shard_count: usize,
}

/// The merge side of the fan-out: watch a checkpoint directory until its
/// shard set completes, validate it, and reassemble the single-process
/// report.
///
/// The coordinator trusts nothing it reads: the manifest must decode and
/// carry a structurally-valid plan over its shard count; each shard file
/// must decode, match the manifest's spec **and plan** (a decodable shard
/// cut along a different partition — a mixed-plan directory — is refused
/// immediately with [`CampaignError::ShardSetMismatch`], even in waiting
/// mode, because no amount of waiting repairs it), and pass the same
/// payload self-checks as [`CampaignReport::merge`].  Corrupt or missing
/// shard files, by contrast, are *waitable*: a live fleet overwrites them
/// via stale-lease reclaim.  A shard file that loaded is not read again
/// while the coordinator waits for the rest.
#[derive(Debug, Clone)]
pub struct MergeCoordinator {
    checkpoint: PathBuf,
    wait: MergeWait,
    poll_interval: Duration,
}

impl MergeCoordinator {
    /// A non-waiting coordinator over `checkpoint`.
    pub fn new(checkpoint: impl Into<PathBuf>) -> MergeCoordinator {
        MergeCoordinator {
            checkpoint: checkpoint.into(),
            wait: MergeWait::NoWait,
            poll_interval: Duration::from_millis(200),
        }
    }

    /// Set the watch policy.
    pub fn wait(mut self, wait: MergeWait) -> MergeCoordinator {
        self.wait = wait;
        self
    }

    /// How often the watching coordinator rescans the directory.
    pub fn poll_interval(mut self, interval: Duration) -> MergeCoordinator {
        self.poll_interval = interval;
        self
    }

    /// Watch (per the wait policy), validate and merge.
    pub fn run(&self) -> Result<MergeOutcome, CampaignError> {
        let dir = CheckpointDir::new(&self.checkpoint, CampaignError::Fanout);
        let manifest = dir.read_manifest()?.ok_or_else(|| {
            CampaignError::Fanout(format!(
                "no readable manifest at {}; workers write it when they start",
                self.checkpoint.join(MANIFEST_FILE).display()
            ))
        })?;
        let deadline = match self.wait {
            MergeWait::Timeout(limit) => Some(Instant::now() + limit),
            _ => None,
        };
        let mut reports: Vec<Option<ShardReport>> = vec![None; manifest.shard_count];
        loop {
            let mut missing = Vec::new();
            for (index, slot) in reports.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                match dir.load_shard(&manifest, index) {
                    ShardFile::Valid(report) => *slot = Some(*report),
                    ShardFile::Absent => missing.push(index),
                    ShardFile::Foreign => {
                        return Err(CampaignError::ShardSetMismatch(format!(
                            "{} was cut along a different campaign or partition plan than \
                             the manifest; refusing to merge a mixed-plan directory",
                            dir.shard_path(index).display()
                        )))
                    }
                }
            }
            if missing.is_empty() {
                let reports: Vec<ShardReport> = reports.into_iter().flatten().collect();
                return Ok(MergeOutcome {
                    report: CampaignReport::merge(&reports)?,
                    shard_count: manifest.shard_count,
                });
            }
            match self.wait {
                MergeWait::NoWait => {
                    return Err(CampaignError::Fanout(format!(
                        "{} is missing shards {missing:?}; run workers for them or \
                         merge with waiting enabled",
                        self.checkpoint.display()
                    )))
                }
                MergeWait::Forever => {}
                MergeWait::Timeout(limit) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(CampaignError::Fanout(format!(
                            "timed out after {limit:?} waiting for shards {missing:?} in {}",
                            self.checkpoint.display()
                        )));
                    }
                }
            }
            std::thread::sleep(self.poll_interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::policy::PolicyKind;
    use crate::shard::ShardedCampaignRunner;
    use hc_trace::SpecBenchmark;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("hc_fanout_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("mkdir");
        path
    }

    fn spec(n_traces: usize) -> CampaignSpec {
        let mut b = CampaignBuilder::new("fanout-unit").policy(PolicyKind::P888);
        for benchmark in SpecBenchmark::ALL.into_iter().take(n_traces) {
            b = b.spec(benchmark);
        }
        b.trace_len(600).build().unwrap()
    }

    #[test]
    fn claims_are_exclusive_until_released() {
        let dir = tmp_dir("exclusive");
        let timeout = Duration::from_secs(60);
        let first = ShardLease::try_claim(&dir, 0, "a", timeout)
            .expect("claim")
            .expect("empty directory: first claim wins");
        assert!(
            ShardLease::try_claim(&dir, 0, "b", timeout)
                .expect("claim")
                .is_none(),
            "fresh lease must block a second claimant"
        );
        // A different shard's lease is independent.
        assert!(ShardLease::try_claim(&dir, 1, "b", timeout)
            .expect("claim")
            .is_some());
        first.release();
        assert!(
            ShardLease::try_claim(&dir, 0, "b", timeout)
                .expect("claim")
                .is_some(),
            "released lease must be claimable again"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_leases_are_broken_and_reclaimed() {
        let dir = tmp_dir("stale");
        let path = dir.join(lease_file_name(3));
        std::fs::write(&path, "{\"worker\": \"dead\"}").expect("seed lease");
        let old = SystemTime::now() - Duration::from_secs(120);
        std::fs::File::options()
            .write(true)
            .open(&path)
            .expect("open lease")
            .set_modified(old)
            .expect("backdate");
        // Under a generous timeout the lease is fresh enough: blocked.
        assert!(
            ShardLease::try_claim(&dir, 3, "b", Duration::from_secs(600))
                .expect("claim")
                .is_none()
        );
        // Under a 1-second timeout it is long dead: broken and reclaimed.
        let lease = ShardLease::try_claim(&dir, 3, "b", Duration::from_secs(1))
            .expect("claim")
            .expect("stale lease must be reclaimed");
        assert!(lease.path().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeats_keep_a_leases_mtime_fresh() {
        let dir = tmp_dir("heartbeat");
        // 80 ms timeout → 20 ms heartbeat interval.
        let timeout = Duration::from_millis(80);
        let lease = ShardLease::try_claim(&dir, 0, "a", timeout)
            .expect("claim")
            .expect("wins");
        // Sleep well past the staleness timeout; the heartbeat must have
        // renewed the mtime, so a rival still cannot break the lease.
        std::thread::sleep(Duration::from_millis(240));
        assert!(
            ShardLease::try_claim(&dir, 0, "b", timeout)
                .expect("claim")
                .is_none(),
            "heartbeat-renewed lease must stay unbreakable"
        );
        lease.release();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_validates_its_own_configuration() {
        let dir = tmp_dir("validate");
        assert_eq!(
            FanoutWorker::new(0, &dir).run(&spec(2)).unwrap_err(),
            CampaignError::ZeroShardCount
        );
        assert_eq!(
            FanoutWorker::new(2, &dir)
                .home_shard(2)
                .run(&spec(2))
                .unwrap_err(),
            CampaignError::ShardIndexOutOfRange { index: 2, count: 2 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_refuses_a_foreign_manifest() {
        let dir = tmp_dir("foreign");
        // A 2-shard fleet ran here; a 3-shard worker may not join it.
        FanoutWorker::new(2, &dir).run(&spec(2)).expect("seed run");
        let err = FanoutWorker::new(3, &dir).run(&spec(2)).unwrap_err();
        assert!(matches!(err, CampaignError::Fanout(_)), "{err}");
        assert!(err
            .to_string()
            .contains("different campaign or shard count"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_requires_a_manifest() {
        let dir = tmp_dir("no_manifest");
        let err = MergeCoordinator::new(&dir).run().unwrap_err();
        assert!(matches!(err, CampaignError::Fanout(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_worker_fanout_matches_the_sharded_runner() {
        let dir = tmp_dir("solo");
        let spec = spec(3);
        let outcome = FanoutWorker::new(2, &dir).run(&spec).expect("worker run");
        assert_eq!(outcome.executed_shards, vec![0, 1]);
        let merged = MergeCoordinator::new(&dir).run().expect("merge");
        let direct = ShardedCampaignRunner::new(2)
            .run(&spec)
            .expect("in-process sharded run");
        assert_eq!(merged.report.to_json(), direct.report.to_json());
        assert_eq!(merged.shard_count, 2);

        // A worker-written directory resumes in the runner without
        // executing anything...
        let resumed = ShardedCampaignRunner::new(2)
            .with_checkpoint(&dir)
            .resume(true)
            .run(&spec)
            .expect("runner resumes a worker's directory");
        assert!(resumed.executed_shards.is_empty());
        assert_eq!(resumed.resumed_shards, vec![0, 1]);
        assert_eq!(resumed.report.to_json(), direct.report.to_json());

        // ...and a runner-written directory is complete for a worker and
        // merges to the same bytes.
        let runner_dir = tmp_dir("solo_runner");
        ShardedCampaignRunner::new(2)
            .with_checkpoint(&runner_dir)
            .run(&spec)
            .expect("checkpointed runner");
        let joined = FanoutWorker::new(2, &runner_dir)
            .run(&spec)
            .expect("worker joins a runner's directory");
        assert!(joined.executed_shards.is_empty());
        let merged = MergeCoordinator::new(&runner_dir).run().expect("merge");
        assert_eq!(merged.report.to_json(), direct.report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&runner_dir);
    }

    #[test]
    fn a_workers_hook_sees_campaign_global_counts_and_stays_disabled_after_a_panic() {
        let spec = spec(6);
        let counts = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&counts);
        let dir = tmp_dir("progress");
        FanoutWorker::new(4, &dir)
            .with_progress(move |p| {
                seen.lock()
                    .unwrap()
                    .push((p.completed_cells, p.total_cells))
            })
            .run(&spec)
            .expect("worker run");
        let counts = counts.lock().unwrap().clone();
        assert_eq!(counts.len(), 6);
        let mut completed: Vec<usize> = counts.iter().map(|&(done, _)| done).collect();
        completed.sort_unstable();
        assert_eq!(
            completed,
            (1..=6).collect::<Vec<_>>(),
            "counts never restart"
        );
        assert!(counts.iter().all(|&(_, total)| total == 6));
        let _ = std::fs::remove_dir_all(&dir);

        // One progress state per run: a hook that panics is called once,
        // not once per shard.
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let dir = tmp_dir("progress_panic");
        FanoutWorker::new(4, &dir)
            .with_progress(move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
                panic!("user hook exploded");
            })
            .run(&spec)
            .expect("run survives a panicking hook");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
