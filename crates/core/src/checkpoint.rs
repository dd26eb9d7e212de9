//! The checkpoint-directory protocol, written once for every executor: the
//! in-process `ShardedCampaignRunner`, the fan-out `FanoutWorker` and the
//! `MergeCoordinator` read and write a checkpoint directory — a
//! `campaign.json` manifest plus one `shard_NNNN.json` [`ShardReport`] per
//! completed shard — only through [`CheckpointDir`].  Every file lands
//! through [`publish`], so readers never see a partial file and concurrent
//! writers never share a tmp path.

use crate::campaign::{CampaignError, CampaignSpec};
use crate::shard::{
    decode_plan, decode_shard_doc, shard_wire_version, ShardPlan, ShardReport, SHARD_SCHEMA_VERSION,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Name of the manifest file inside a checkpoint directory.
pub(crate) const MANIFEST_FILE: &str = "campaign.json";

/// File name for one shard's checkpoint.
pub(crate) fn shard_file_name(index: usize) -> String {
    format!("shard_{index:04}.json")
}

/// Process-wide sequence making tmp-file names (and default worker ids)
/// unique across the threads of one process.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// The next value of the process-wide sequence.
pub(crate) fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Install `contents` at `path` through a uniquely-named tmp sibling.  With
/// `exclusive` the tmp file is `hard_link`ed into place, which fails when
/// `path` already exists (`Ok(false)`), so of any number of racing
/// publishers exactly one wins; otherwise it is `rename`d over whatever is
/// there.  Either way a reader sees the old file or the whole new one.
pub(crate) fn publish(path: &Path, contents: &str, exclusive: bool) -> std::io::Result<bool> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{}", std::process::id(), next_seq()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    let installed = if exclusive {
        match std::fs::hard_link(&tmp, path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    } else {
        std::fs::rename(&tmp, path).map(|()| true)
    };
    // A link (won or lost) and a failed rename leave the tmp name behind.
    let _ = std::fs::remove_file(&tmp);
    installed
}

/// The checkpoint manifest written next to the shard files, so a resumed run
/// can refuse a directory that belongs to a different campaign before
/// touching any shard.  The manifest also **pins the partition plan**: a
/// resumed run re-executes the manifest's plan even if cost observations
/// have changed since (re-planning mid-campaign would orphan completed
/// shard files).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointManifest {
    pub(crate) schema_version: u32,
    pub(crate) shard_count: usize,
    pub(crate) spec: CampaignSpec,
    pub(crate) plan: ShardPlan,
}

impl CheckpointManifest {
    /// The manifest of `spec` cut along `plan`.
    pub(crate) fn new(spec: &CampaignSpec, plan: ShardPlan) -> CheckpointManifest {
        CheckpointManifest {
            schema_version: shard_wire_version(spec, &plan),
            shard_count: plan.shard_count(),
            spec: spec.clone(),
            plan,
        }
    }
}

impl Serialize for CheckpointManifest {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (
                "schema_version".to_string(),
                serde::Value::UInt(self.schema_version as u64),
            ),
            (
                "shard_count".to_string(),
                Serialize::to_value(&self.shard_count),
            ),
            ("spec".to_string(), Serialize::to_value(&self.spec)),
        ];
        if self.schema_version >= SHARD_SCHEMA_VERSION {
            fields.push(("plan".to_string(), Serialize::to_value(&self.plan)));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for CheckpointManifest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct CheckpointManifest"))?;
        let schema_version: u32 = serde::de_field(m, "schema_version")?;
        let shard_count: usize = serde::de_field(m, "shard_count")?;
        let spec: CampaignSpec = serde::de_field(m, "spec")?;
        Ok(CheckpointManifest {
            plan: decode_plan(m, schema_version, &spec, shard_count)?,
            schema_version,
            shard_count,
            spec,
        })
    }
}

/// What [`CheckpointDir::load_shard`] found at one shard's path.
#[derive(Debug)]
pub(crate) enum ShardFile {
    /// No usable file: absent, unreadable, undecodable or failing the
    /// payload self-check.  A run re-executes the shard over it; a merge
    /// waits for a worker to do so.
    Absent,
    /// A decodable report of a different spec, plan, shard count or index.
    /// A run overwrites it; a merge refuses the directory.
    Foreign,
    /// This shard's report.
    Valid(Box<ShardReport>),
}

/// One executor's view of a checkpoint directory.  `error` wraps every
/// protocol failure in the executor's own [`CampaignError`] variant.
pub(crate) struct CheckpointDir<'a> {
    root: &'a Path,
    error: fn(String) -> CampaignError,
}

impl<'a> CheckpointDir<'a> {
    pub(crate) fn new(root: &'a Path, error: fn(String) -> CampaignError) -> CheckpointDir<'a> {
        CheckpointDir { root, error }
    }

    pub(crate) fn root(&self) -> &'a Path {
        self.root
    }

    pub(crate) fn shard_path(&self, index: usize) -> PathBuf {
        self.root.join(shard_file_name(index))
    }

    /// Read and validate the manifest: `Ok(None)` when there is none to
    /// read; an error when it does not decode or its plan is not a
    /// partition of its spec into its shard count.  A damaged manifest is
    /// never treated as absent — unlike a lost shard file, which only costs
    /// a re-run, it means the directory cannot be trusted.
    pub(crate) fn read_manifest(&self) -> Result<Option<CheckpointManifest>, CampaignError> {
        let path = self.root.join(MANIFEST_FILE);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(None);
        };
        let invalid = |reason: String| {
            (self.error)(format!(
                "manifest {} {reason}; delete the directory to start over",
                path.display()
            ))
        };
        let manifest: CheckpointManifest =
            decode_shard_doc(&text).map_err(|e| invalid(format!("is unreadable: {e}")))?;
        manifest
            .plan
            .validate(manifest.spec.traces.len())
            .map_err(|reason| invalid(format!("carries an invalid partition plan ({reason})")))?;
        if manifest.plan.shard_count() != manifest.shard_count {
            return Err(invalid(format!(
                "carries a plan over {} shards but claims {}",
                manifest.plan.shard_count(),
                manifest.shard_count
            )));
        }
        Ok(Some(manifest))
    }

    /// Create the directory and settle the partition every shard file in it
    /// is cut along.  With `overwrite` the `planned` manifest replaces any
    /// existing one.  Otherwise a manifest of the same spec and shard count
    /// is adopted (a foreign one is refused), and an empty directory gets
    /// `planned` published exclusively — of any number of executors racing
    /// it, one manifest wins and the rest adopt it.
    pub(crate) fn join(
        &self,
        planned: CheckpointManifest,
        overwrite: bool,
    ) -> Result<CheckpointManifest, CampaignError> {
        std::fs::create_dir_all(self.root)
            .map_err(|e| (self.error)(format!("create {}: {e}", self.root.display())))?;
        let path = self.root.join(MANIFEST_FILE);
        let json = serde::json::to_string_pretty(&planned);
        for _ in 0..8 {
            if !overwrite {
                if let Some(found) = self.read_manifest()? {
                    if found.spec != planned.spec || found.shard_count != planned.shard_count {
                        return Err((self.error)(format!(
                            "{} belongs to a different campaign or shard count; \
                             refusing to use it",
                            self.root.display()
                        )));
                    }
                    return Ok(found);
                }
            }
            if publish(&path, &json, !overwrite)
                .map_err(|e| (self.error)(format!("publish {}: {e}", path.display())))?
            {
                return Ok(planned);
            }
            // Lost the publish race: adopt the winner on the next pass.
        }
        Err((self.error)(format!(
            "manifest {} kept appearing and vanishing; giving up",
            path.display()
        )))
    }

    /// Read and decode shard `index`'s file once and classify it against
    /// `manifest`.
    pub(crate) fn load_shard(&self, manifest: &CheckpointManifest, index: usize) -> ShardFile {
        let Ok(text) = std::fs::read_to_string(self.shard_path(index)) else {
            return ShardFile::Absent;
        };
        let Ok(report) = ShardReport::from_json(&text) else {
            return ShardFile::Absent;
        };
        if report.spec != manifest.spec
            || report.plan != manifest.plan
            || report.shard_count != manifest.shard_count
            || report.shard_index != index
        {
            return ShardFile::Foreign;
        }
        match report.check() {
            Ok(()) => ShardFile::Valid(Box::new(report)),
            Err(_) => ShardFile::Absent,
        }
    }

    /// Write one shard's report, replacing any file at its path.
    pub(crate) fn store_shard(&self, report: &ShardReport) -> Result<(), CampaignError> {
        let path = self.shard_path(report.shard_index);
        publish(&path, &report.to_json(), false)
            .map(drop)
            .map_err(|e| (self.error)(format!("write {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::fanout::{FanoutWorker, MergeCoordinator};
    use crate::policy::PolicyKind;
    use crate::shard::{CampaignShard, ShardedCampaignRunner};
    use hc_trace::SpecBenchmark;

    fn tmp_dir(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("hc_checkpoint_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("mkdir");
        path
    }

    fn spec(n_traces: usize) -> CampaignSpec {
        let mut b = CampaignBuilder::new("checkpoint-unit").policy(PolicyKind::P888);
        for benchmark in SpecBenchmark::ALL.into_iter().take(n_traces) {
            b = b.spec(benchmark);
        }
        b.trace_len(600).build().unwrap()
    }

    #[test]
    fn a_manifest_whose_plan_disagrees_with_its_shard_count_is_refused_everywhere() {
        // A hand-written v3 manifest: 4 shards claimed, a 3-shard plan.
        let dir = tmp_dir("plan_count");
        let spec = spec(4);
        let manifest = CheckpointManifest {
            schema_version: SHARD_SCHEMA_VERSION,
            shard_count: 4,
            spec: spec.clone(),
            plan: ShardPlan::round_robin(4, 3).unwrap(),
        };
        std::fs::write(
            dir.join(MANIFEST_FILE),
            serde::json::to_string_pretty(&manifest),
        )
        .unwrap();

        let runner = ShardedCampaignRunner::new(4)
            .with_checkpoint(&dir)
            .resume(true)
            .run(&spec)
            .unwrap_err();
        assert!(matches!(runner, CampaignError::Checkpoint(_)), "{runner}");
        let worker = FanoutWorker::new(4, &dir).run(&spec).unwrap_err();
        assert!(matches!(worker, CampaignError::Fanout(_)), "{worker}");
        let merger = MergeCoordinator::new(&dir).run().unwrap_err();
        assert!(matches!(merger, CampaignError::Fanout(_)), "{merger}");
        for err in [runner, worker, merger] {
            assert!(
                err.to_string().contains("plan over 3 shards but claims 4"),
                "{err}"
            );
        }
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files, vec![MANIFEST_FILE], "no shard file may be written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_shard_writes_never_collide_or_expose_a_partial_file() {
        // Two executions of the same shard store it concurrently while a
        // third thread reads it: every write succeeds and every read sees
        // the whole document.
        let dir = tmp_dir("store_race");
        let spec = spec(2);
        let report = CampaignShard::new(spec.clone(), 1, 0)
            .unwrap()
            .run()
            .unwrap();
        let expected = report.to_json();
        let manifest = CheckpointManifest::new(&spec, report.plan.clone());
        let store = CheckpointDir::new(&dir, CampaignError::Checkpoint);
        store.store_shard(&report).unwrap();
        let writing = std::sync::atomic::AtomicUsize::new(2);
        let (write_errors, partial_reads, reads) = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let errors = (0..300)
                            .filter(|_| store.store_shard(&report).is_err())
                            .count();
                        writing.fetch_sub(1, Ordering::SeqCst);
                        errors
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                let (mut partial, mut reads) = (0, 0);
                while writing.load(Ordering::SeqCst) > 0 {
                    let text = std::fs::read_to_string(store.shard_path(0)).unwrap_or_default();
                    partial += usize::from(text != expected);
                    reads += 1;
                }
                (partial, reads)
            });
            let errors: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
            let (partial, reads) = reader.join().unwrap();
            (errors, partial, reads)
        });
        assert_eq!(write_errors, 0, "no store may fail");
        assert_eq!(
            partial_reads, 0,
            "no read may see a partial file ({reads} reads)"
        );
        assert!(matches!(
            store.load_shard(&manifest, 0),
            ShardFile::Valid(loaded) if *loaded == report
        ));
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 1, "every tmp file is renamed into place");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
