//! The benchmark's own tests, at a tiny scale: every workload emits every
//! metric `BENCHMARK.json` names, with its unit, and damaged inputs count as
//! failed operations rather than crashes.

use hc_perfbench::{
    run, Config, Fault, Outcome, Scale, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED,
    PER_LAYER,
};
use std::path::PathBuf;

fn tiny(workload: Workload, seed: u64, trace: bool, fault: Option<Fault>) -> Outcome {
    let tag = format!(
        "{}-{seed}-{}-{}",
        workload.name(),
        u8::from(trace),
        fault.map_or("ok", |f| if f == Fault::CorruptShard {
            "shard"
        } else {
            "segment"
        })
    );
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::TINY,
        work_dir: root.join(&tag),
        trace_out: trace.then(|| root.join(format!("{tag}.trace.json"))),
        fault,
        // Untraced repetitions run in child processes, as from the command.
        rep_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_hc-perfbench"))),
    })
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(|v| v.as_seq())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn the_metric_catalogues_match_benchmark_json() {
    let pairs = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(&END_TO_END), declared("end_to_end"));
    assert_eq!(pairs(&PER_LAYER), declared("per_layer"));
}

#[test]
fn benchmark_json_runs_only_known_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
    let workloads = doc
        .get("workloads")
        .and_then(|v| v.as_seq())
        .expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(|v| v.as_str()).expect("name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn every_workload_emits_every_named_metric_with_its_unit() {
    for workload in Workload::ALL {
        let plain = tiny(workload, DEFAULT_SEED, false, None);
        assert!(plain.correct(), "{}: {:?}", workload.name(), plain.failures);
        assert_eq!(
            emitted(&plain),
            declared("end_to_end"),
            "{}",
            workload.name()
        );
        for m in &plain.metrics {
            // CPU time is read in 10 ms ticks, which a tiny run may not fill.
            let positive = m.value > 0.0 || (m.name == "cpu_s" && m.value == 0.0);
            assert!(positive, "{}: {} = {}", workload.name(), m.name, m.value);
        }
        let json = plain.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );

        let traced = tiny(workload, DEFAULT_SEED, true, None);
        assert!(
            traced.correct(),
            "{}: {:?}",
            workload.name(),
            traced.failures
        );
        assert_eq!(
            emitted(&traced),
            declared("per_layer"),
            "{}",
            workload.name()
        );
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn traced_runs_measure_the_layers_each_workload_exercises() {
    let figures = tiny(Workload::Figures, DEFAULT_SEED, true, None);
    assert!(figures.metric("figures.headline_s").unwrap() > 0.0);
    assert!(figures.metric("sim.run_s").unwrap() > 0.0);
    assert_eq!(
        figures.metric("cache.open_s"),
        Some(0.0),
        "figures uses no cache"
    );

    let cold = tiny(Workload::SuiteCold, DEFAULT_SEED, true, None);
    let cells = cold.metric("cache.inserts").unwrap();
    assert!(cells > 0.0);
    assert_eq!(cold.metric("cache.hits"), Some(0.0));
    assert_eq!(
        cold.metric("campaign.baseline_sims"),
        cold.metric("campaign.rows")
    );

    let warm = tiny(Workload::SuiteWarm, DEFAULT_SEED, true, None);
    assert_eq!(warm.metric("cache.hits"), Some(cells));
    assert_eq!(warm.metric("cache.misses"), Some(0.0));
    assert_eq!(
        warm.metric("sim.run_s"),
        Some(0.0),
        "a warm replay simulates nothing"
    );
    assert!(warm.metric("trace.synth_s").unwrap() > 0.0);

    let resume = tiny(Workload::SuiteResume, DEFAULT_SEED, true, None);
    assert_eq!(resume.metric("campaign.rows"), Some(0.0));
    assert!(resume.metric("shard.load_s").unwrap() > 0.0);
    assert!(resume.metric("json.decode_bytes").unwrap() > 0.0);

    // The simulator totals come from byte-identical reports.
    for name in ["sim.cycles", "sim.committed_uops", "sim.copy_uops"] {
        assert_eq!(cold.metric(name), warm.metric(name), "{name}");
        assert_eq!(cold.metric(name), resume.metric(name), "{name}");
    }
}

#[test]
fn the_held_out_seed_reseeds_the_suite_and_stays_correct() {
    let held_out = tiny(Workload::SuiteCold, HELD_OUT_SEED, true, None);
    assert!(held_out.correct(), "{:?}", held_out.failures);
    let default = tiny(Workload::SuiteCold, DEFAULT_SEED, true, None);
    assert_eq!(held_out.metric("trace.uops"), default.metric("trace.uops"));
    assert_ne!(held_out.metric("sim.cycles"), default.metric("sim.cycles"));
}

#[test]
fn a_corrupted_shard_file_is_a_failed_operation() {
    let outcome = tiny(
        Workload::SuiteResume,
        DEFAULT_SEED,
        false,
        Some(Fault::CorruptShard),
    );
    assert!(!outcome.correct());
    assert!(outcome.failed >= 1, "{outcome:?}");
    assert_eq!(emitted(&outcome), declared("end_to_end"));
}

#[test]
fn a_corrupted_cache_segment_is_a_failed_operation() {
    let outcome = tiny(
        Workload::SuiteWarm,
        DEFAULT_SEED,
        false,
        Some(Fault::CorruptSegment),
    );
    assert!(!outcome.correct());
    assert!(outcome.failed >= 1, "{outcome:?}");
    assert_eq!(emitted(&outcome), declared("end_to_end"));
}
