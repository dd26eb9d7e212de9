//! Sharded suite-campaign throughput: the Table 2 category suite through
//! the streaming shard engine.
//!
//! Four cases isolate the costs the sharded design adds and removes:
//!
//! * `unsharded` — the suite as one streaming [`CampaignRunner`] run (the
//!   single-shard fast path every figure uses).
//! * `sharded_4` — the same suite split into 4 [`CampaignShard`]s, run
//!   shard-by-shard and merged; the delta against `unsharded` is the whole
//!   partition + merge overhead, which should be noise.
//! * `merge_only` — re-merging already-computed shard reports held in
//!   memory.
//! * `resume_from_disk` — what a fully-resumed run pays for its shards:
//!   reading the 4 shard files from a checkpoint directory, decoding them
//!   and merging.  Its decode rate (MB/s of shard JSON) is printed too.
//!
//! Throughput counts trace µops (cells + memoized baselines).  Recorded
//! baselines live in `BENCH_suite_shard.json` at the repository root;
//! regenerate with
//!
//! ```text
//! SUITE_SHARD_RECORD=numbers.json cargo bench -p hc-bench --bench suite_shard
//! ```

use hc_core::campaign::{CampaignBuilder, CampaignReport, CampaignRunner, CampaignSpec};
use hc_core::policy::PolicyKind;
use hc_core::shard::{CampaignShard, ShardReport};
use std::time::Instant;

const APPS_PER_CATEGORY: usize = 2;
const TRACE_LEN: usize = 1_000;
const SHARDS: usize = 4;
const SAMPLES: usize = 5;

fn suite_spec() -> CampaignSpec {
    CampaignBuilder::new("bench-suite")
        .policy(PolicyKind::Ir)
        .category_suite(APPS_PER_CATEGORY)
        .trace_len(TRACE_LEN)
        .build()
        .expect("the bench suite is a valid campaign")
}

/// Best-of-`SAMPLES` throughput of `f`, which processes `uops` trace µops
/// per invocation.
fn measure(uops: u64, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    uops as f64 / best
}

/// Cells + memoized baselines, each over TRACE_LEN µops.
fn total_uops(spec: &CampaignSpec) -> u64 {
    (spec.cell_count() as u64 + spec.traces.len() as u64) * TRACE_LEN as u64
}

fn unsharded(spec: &CampaignSpec) -> f64 {
    measure(total_uops(spec), || {
        let report = CampaignRunner::new().run(spec).expect("suite runs");
        assert_eq!(report.baseline_runs, spec.traces.len());
        std::hint::black_box(report);
    })
}

fn sharded(spec: &CampaignSpec) -> f64 {
    let shards = CampaignShard::plan(spec, SHARDS).expect("plan");
    measure(total_uops(spec), || {
        let reports: Vec<ShardReport> = shards
            .iter()
            .map(|s| s.run().expect("shard runs"))
            .collect();
        let merged = CampaignReport::merge(&reports).expect("merge");
        assert_eq!(merged.baseline_runs, spec.traces.len());
        std::hint::black_box(merged);
    })
}

fn merge_only(spec: &CampaignSpec) -> f64 {
    let reports: Vec<ShardReport> = CampaignShard::plan(spec, SHARDS)
        .expect("plan")
        .iter()
        .map(|s| s.run().expect("shard runs"))
        .collect();
    measure(total_uops(spec), || {
        let merged = CampaignReport::merge(&reports).expect("merge");
        std::hint::black_box(merged);
    })
}

/// Write the suite's shard reports as files, then time reading, decoding
/// and merging them.  Returns µop throughput, best seconds and the bytes
/// decoded per pass.
fn resume_from_disk(spec: &CampaignSpec) -> (f64, f64, usize) {
    let dir = std::env::temp_dir().join(format!("hc_bench_suite_shard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create shard dir");
    let paths: Vec<_> = CampaignShard::plan(spec, SHARDS)
        .expect("plan")
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let path = dir.join(format!("shard_{i:04}.json"));
            let report = s.run().expect("shard runs");
            std::fs::write(&path, report.to_json()).expect("write shard file");
            path
        })
        .collect();
    let bytes: usize = paths
        .iter()
        .map(|p| std::fs::metadata(p).expect("shard file").len() as usize)
        .sum();
    let uops_per_sec = measure(total_uops(spec), || {
        let reports: Vec<ShardReport> = paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).expect("read shard file");
                ShardReport::from_json(&text).expect("decode shard file")
            })
            .collect();
        let merged = CampaignReport::merge(&reports).expect("merge");
        assert_eq!(merged.baseline_runs, spec.traces.len());
        std::hint::black_box(merged);
    });
    let _ = std::fs::remove_dir_all(&dir);
    (uops_per_sec, total_uops(spec) as f64 / uops_per_sec, bytes)
}

fn main() {
    let spec = suite_spec();
    let unsharded = unsharded(&spec);
    let sharded = sharded(&spec);
    let merge = merge_only(&spec);
    let (resume, resume_secs, resume_bytes) = resume_from_disk(&spec);
    let decode_mb_per_sec = resume_bytes as f64 / 1e6 / resume_secs;
    println!("suite_shard/unsharded         {unsharded:>12.0} uops/sec");
    println!("suite_shard/sharded_4         {sharded:>12.0} uops/sec");
    println!("suite_shard/merge_only        {merge:>12.0} uops/sec");
    println!("suite_shard/resume_from_disk  {resume:>12.0} uops/sec");
    println!(
        "suite_shard/resume_from_disk  {resume_secs:>12.6} s for {resume_bytes} B of shard JSON ({decode_mb_per_sec:.1} MB/s)"
    );
    if let Some(path) = std::env::var_os("SUITE_SHARD_RECORD") {
        let json = format!(
            "{{\n  \"unsharded_uops_per_sec\": {unsharded:.0},\n  \"sharded_4_uops_per_sec\": {sharded:.0},\n  \"merge_only_uops_per_sec\": {merge:.0},\n  \"resume_from_disk_uops_per_sec\": {resume:.0},\n  \"resume_from_disk_secs\": {resume_secs:.6},\n  \"resume_from_disk_shard_bytes\": {resume_bytes},\n  \"resume_from_disk_mb_per_sec\": {decode_mb_per_sec:.1}\n}}\n"
        );
        std::fs::write(&path, json).expect("write SUITE_SHARD_RECORD file");
    }
}
