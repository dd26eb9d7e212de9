//! Determinism guarantees of the staged engine and the campaign runner:
//!
//! * the same spec produces **byte-identical** `CampaignReport` JSON on a
//!   1-thread and an N-thread run (the parallel fan-out with per-worker
//!   `ExecContext` reuse must not leak state between cells or reorder
//!   results);
//! * a grid mixing synthesized, recorded-file and phased rows produces the
//!   same bytes at every thread count, uncached, cache-cold and cache-warm,
//!   and the warm replay simulates nothing;
//! * repeated runs through one reused `ExecContext` match fresh-context
//!   runs exactly.
//!
//! The thread cap is process-global, so every campaign run of one matrix
//! lives in a single `#[test]` to avoid cross-test interference.

use hc_core::cache::CellCache;
use hc_core::policy::PolicyKind;
use hc_trace::{KernelKind, PhaseSchedule, WorkloadCategory, WorkloadProfile};
use helper_cluster::prelude::*;
use std::sync::Arc;

fn grid_spec() -> CampaignSpec {
    CampaignBuilder::new("determinism")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::P888Br)
        .policy(PolicyKind::Ir)
        .spec(SpecBenchmark::Gzip)
        .spec(SpecBenchmark::Gcc)
        .spec(SpecBenchmark::Mcf)
        .trace_len(1_200)
        .warmup_runs(1)
        .build()
        .expect("valid determinism spec")
}

#[test]
fn campaign_json_is_byte_identical_across_thread_counts_and_reruns() {
    let spec = grid_spec();
    rayon::set_thread_cap(1);
    let single = CampaignRunner::new().run(&spec).expect("1-thread run");
    rayon::set_thread_cap(4);
    let multi = CampaignRunner::new().run(&spec).expect("4-thread run");
    let multi_again = CampaignRunner::new().run(&spec).expect("repeat run");
    rayon::set_thread_cap(0);

    assert_eq!(
        single.to_json(),
        multi.to_json(),
        "1-thread and 4-thread campaign reports must serialize identically"
    );
    assert_eq!(
        multi.to_json(),
        multi_again.to_json(),
        "repeated runs must serialize identically"
    );
    assert_eq!(single.baseline_runs, 3);
    assert_eq!(single.trace_generations, 3);
}

#[test]
fn mixed_row_grids_are_byte_identical_across_threads_and_cache_states() {
    let dir = std::env::temp_dir().join(format!("hc_mixed_rows_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let recording = dir.join("mcf.uoptrace");
    hc_trace::write_trace(&recording, &SpecBenchmark::Mcf.trace(900)).expect("record");
    let phased = PhaseSchedule::new("hist-then-scan")
        .phase(
            WorkloadProfile::new("hist", vec![(KernelKind::ByteHistogram, 1.0)]).with_seed(5),
            600,
        )
        .phase(
            WorkloadProfile::new("scan", vec![(KernelKind::TokenScan, 1.0)]).with_seed(6),
            400,
        );
    // Two synthesized rows, one streamed from a recording, one streamed
    // from a phase schedule; the `baseline` column reuses each row's
    // baseline, and the warmup pass makes streamed rows rewind.
    let spec = CampaignBuilder::new("mixed-rows")
        .policy(PolicyKind::P888)
        .policy(PolicyKind::Ir)
        .policy(PolicyKind::Baseline)
        .spec(SpecBenchmark::Gzip)
        .category_app(WorkloadCategory::Office, 0)
        .trace_file(recording.to_str().expect("utf-8 temp path"))
        .phased(phased)
        .trace_len(800)
        .warmup_runs(1)
        .build()
        .expect("valid mixed-row spec");
    // 4 rows × (1 baseline + 2 simulated policy columns).
    let lookups = 4 * 3;

    let mut reference: Option<String> = None;
    let mut same_bytes = |what: &str, report: CampaignReport| {
        let json = report.to_json();
        match &reference {
            None => reference = Some(json),
            Some(expected) => assert_eq!(&json, expected, "{what} diverged"),
        }
    };
    for threads in [1usize, 2] {
        rayon::set_thread_cap(threads);
        let uncached = CampaignRunner::new().run(&spec).expect("uncached run");
        assert_eq!(uncached.baseline_runs, 4);
        assert_eq!(uncached.trace_generations, 4);
        same_bytes(&format!("uncached × {threads} thread(s)"), uncached);

        let cache_dir = dir.join(format!("cache-{threads}"));
        let cold_cache = Arc::new(CellCache::open(&cache_dir).expect("open cold"));
        let cold = CampaignRunner::new()
            .with_cache(Arc::clone(&cold_cache))
            .run(&spec)
            .expect("cold run");
        assert_eq!(cold_cache.activity().misses, lookups);
        same_bytes(&format!("cache-cold × {threads} thread(s)"), cold);
        drop(cold_cache);

        let warm_cache = Arc::new(CellCache::open(&cache_dir).expect("open warm"));
        let warm = CampaignRunner::new()
            .with_cache(Arc::clone(&warm_cache))
            .run(&spec)
            .expect("warm run");
        let activity = warm_cache.activity();
        assert_eq!(activity.misses, 0, "a warm replay re-simulates no cell");
        assert_eq!(activity.hits, lookups);
        same_bytes(&format!("cache-warm × {threads} thread(s)"), warm);
    }
    rayon::set_thread_cap(0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reused_context_matches_fresh_contexts_across_policies() {
    let sim = Simulator::new(SimConfig::paper_baseline()).expect("valid config");
    let traces = [
        SpecBenchmark::Gzip.trace(1_500),
        SpecBenchmark::Vortex.trace(1_500),
    ];
    let mut ctx = ExecContext::new();
    for kind in [PolicyKind::P888, PolicyKind::Ir, PolicyKind::P888BrLr] {
        for trace in &traces {
            let mut warm = kind.build();
            let reused = sim.run_with(&mut ctx, trace, warm.as_mut());
            let mut cold = kind.build();
            let fresh = sim.run(trace, cold.as_mut());
            assert_eq!(
                reused,
                fresh,
                "context reuse must be bit-identical ({} × {})",
                kind.name(),
                trace.name
            );
        }
    }
}
