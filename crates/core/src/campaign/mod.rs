//! Declarative evaluation campaigns: policy × trace grids with shared
//! baselines, typed errors and a stable, versioned results schema.
//!
//! A [`CampaignSpec`] describes *what* to evaluate — a set of
//! [`PolicyKind`]s crossed with a set of [`TraceSelector`]s plus the
//! simulator configuration and warmup / length knobs — and is fully
//! serde-round-trippable, so campaigns can be stored, diffed and replayed.
//! A [`CampaignRunner`] executes the grid:
//!
//! * each trace's **monolithic baseline is simulated exactly once** and
//!   shared across every policy (an N-policy sweep is ~2× cheaper than N
//!   independent [`Experiment::run`] calls);
//! * traces fan out in parallel over the rayon-style thread pool;
//! * a progress hook observes cell completions as they happen;
//! * the result is a versioned [`CampaignReport`] with JSON and CSV
//!   renderings (see [`crate::report`]).
//!
//! [`Experiment`], [`crate::suite::SuiteRunner`] and [`crate::figures`] are
//! thin adapters over this engine.
//!
//! ```
//! use hc_core::campaign::{CampaignBuilder, CampaignRunner};
//! use hc_core::policy::PolicyKind;
//! use hc_trace::SpecBenchmark;
//!
//! let spec = CampaignBuilder::new("quick")
//!     .policy(PolicyKind::P888)
//!     .policy(PolicyKind::Ir)
//!     .spec(SpecBenchmark::Gzip)
//!     .trace_len(2_000)
//!     .build()
//!     .unwrap();
//! let report = CampaignRunner::new().run(&spec).unwrap();
//! assert_eq!(report.baseline_runs, 1); // one trace -> one baseline, shared
//! assert_eq!(report.cells.len(), 2);
//! ```

mod engine;
mod spec;

#[allow(unused_imports)] // Doc-link targets (`PolicyKind` is also used by the tests).
use crate::{experiment::Experiment, policy::PolicyKind};
#[cfg(test)]
use {
    crate::scenario::{ScenarioSpec, DEFAULT_SCENARIO_NAME},
    hc_sim::SimConfig,
    hc_trace::{SpecBenchmark, WorkloadCategory},
    std::sync::atomic::{AtomicUsize, Ordering},
    std::sync::Arc,
};

pub use engine::*;
pub use spec::*;

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignBuilder::new("unit")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::Baseline)
            .spec(SpecBenchmark::Gzip)
            .trace_len(1_200)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_empty_specs() {
        assert_eq!(
            CampaignBuilder::new("x").spec(SpecBenchmark::Gzip).build(),
            Err(CampaignError::NoPolicies)
        );
        assert_eq!(
            CampaignBuilder::new("x").policy(PolicyKind::P888).build(),
            Err(CampaignError::NoTraces)
        );
        assert_eq!(
            CampaignBuilder::new("x")
                .policy(PolicyKind::P888)
                .spec(SpecBenchmark::Gzip)
                .trace_len(0)
                .build(),
            Err(CampaignError::ZeroTraceLength)
        );
    }

    #[test]
    fn baseline_policy_conflicts_with_without_baseline() {
        assert_eq!(
            CampaignBuilder::new("x")
                .policy(PolicyKind::Baseline)
                .policy(PolicyKind::P888)
                .spec(SpecBenchmark::Gzip)
                .without_baseline()
                .build(),
            Err(CampaignError::BaselinePolicyWithoutBaseline)
        );
    }

    #[test]
    fn duplicate_trace_labels_are_rejected() {
        // A custom profile named like a SPEC stand-in would join cells to
        // the wrong baseline; the spec refuses to run.
        let err = CampaignBuilder::new("dup")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .profile(hc_trace::WorkloadProfile::new(
                "gzip",
                vec![(hc_trace::KernelKind::WordSum, 1.0)],
            ))
            .build()
            .unwrap_err();
        assert_eq!(err, CampaignError::DuplicateTraceLabel("gzip".to_string()));
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn duplicate_selectors_are_rejected() {
        // The same selector twice (not just two selectors colliding on a
        // name) is the common copy-paste mistake in hand-written suites.
        let err = CampaignBuilder::new("dup")
            .policy(PolicyKind::P888)
            .category_app(WorkloadCategory::Office, 3)
            .category_app(WorkloadCategory::Office, 3)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CampaignError::DuplicateTraceLabel("office_003".to_string())
        );
    }

    #[test]
    fn duplicate_policies_are_rejected() {
        let err = CampaignBuilder::new("dup")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .build()
            .unwrap_err();
        assert_eq!(err, CampaignError::DuplicatePolicy("8_8_8".to_string()));
    }

    #[test]
    fn adapter_paths_join_duplicate_trace_names_positionally() {
        // run_grid joins each trace's cells to its own baseline by position,
        // so even two different traces sharing a name stay correct on the
        // Experiment/SuiteRunner adapter paths (which skip spec validation).
        use crate::suite::SuiteRunner;
        use hc_trace::{KernelKind, WorkloadProfile};
        let narrow =
            WorkloadProfile::new("same", vec![(KernelKind::VectorAddU8, 1.0)]).with_trace_len(900);
        let wide =
            WorkloadProfile::new("same", vec![(KernelKind::PointerChase, 1.0)]).with_trace_len(900);
        let suite = SuiteRunner::default().run_profiles(&[narrow, wide], PolicyKind::P888);
        assert_eq!(suite.per_trace.len(), 2);
        // Each result's baseline committed the same trace as its stats run —
        // and the two baselines differ because the traces differ.
        for r in &suite.per_trace {
            assert_eq!(r.baseline.committed_uops, r.stats.committed_uops);
        }
        assert_ne!(
            suite.per_trace[0].baseline.cycles, suite.per_trace[1].baseline.cycles,
            "distinct traces must keep distinct baselines despite the shared name"
        );
    }

    #[test]
    fn builder_rejects_invalid_sim_configs() {
        let mut config = SimConfig::paper_baseline();
        config.commit_width = 0;
        let err = CampaignBuilder::new("x")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .config(config)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CampaignError::Config(hc_sim::ConfigError::ZeroFrontendWidth)
        );
        assert!(err.to_string().contains("non-zero"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn traces_are_generated_once_per_row_not_per_cell() {
        // Two policy columns, two warmup runs, one trace row: the trace must
        // still be synthesized exactly once.
        let spec = CampaignBuilder::new("gen")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::Ir)
            .spec(SpecBenchmark::Gzip)
            .trace_len(1_000)
            .warmup_runs(2)
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report.trace_generations, 1);
        assert_eq!(report.cells.len(), 2);
    }

    #[test]
    fn baseline_policy_cell_reuses_the_memoized_baseline() {
        let report = CampaignRunner::new().run(&small_spec()).unwrap();
        assert_eq!(report.baseline_runs, 1);
        assert_eq!(report.trace_generations, 1);
        let baseline_cell = report.cell("baseline", "gzip").unwrap();
        assert_eq!(
            &baseline_cell.stats,
            report.baseline_for("gzip").unwrap(),
            "baseline policy cell must be the shared baseline run"
        );
    }

    #[test]
    fn progress_hook_sees_every_cell() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let runner =
            CampaignRunner::new().with_progress(move |p| sink.lock().unwrap().push(p.clone()));
        runner.run(&small_spec()).unwrap();
        let events = seen.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|p| p.total_cells == 2));
        assert!(events.iter().any(|p| p.completed_cells == 2));
    }

    #[test]
    fn panicking_progress_hooks_do_not_poison_the_campaign() {
        // A user hook that panics (here: while it would be holding a lock in
        // real code) must not abort the run or corrupt the report; it is
        // disabled and the campaign completes.
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let runner = CampaignRunner::new().with_progress(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            panic!("user hook exploded");
        });
        let spec = small_spec();
        let report = runner
            .run(&spec)
            .expect("campaign survives a panicking hook");
        assert_eq!(report.cells.len(), 2);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "the hook is disabled after its first panic"
        );
        // The report is identical to a hook-less run.
        let plain = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report, plain);
    }

    #[test]
    fn hooks_that_panic_while_holding_a_lock_do_not_poison_later_holders() {
        // The classic poisoning shape: the hook panics *while holding* a
        // mutex shared with the caller.  The engine catches the panic, so
        // the caller's later lock() sees a poisoned-but-recoverable mutex at
        // worst — and the campaign itself never notices.
        let shared = Arc::new(std::sync::Mutex::new(0usize));
        let hook_side = Arc::clone(&shared);
        let runner = CampaignRunner::new().with_progress(move |_| {
            let mut guard = hook_side.lock().unwrap_or_else(|e| e.into_inner());
            *guard += 1;
            panic!("panic while holding the lock");
        });
        let report = runner.run(&small_spec()).expect("campaign completes");
        assert_eq!(report.cells.len(), 2);
        let count = *shared.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(count, 1);
    }

    #[test]
    fn speedup_curve_keeps_zero_cycle_cells_at_the_front() {
        // Regression: the old `partial_cmp(..).unwrap_or(Equal)` comparator
        // was not a total order; `total_cmp` is, and the documented policy
        // places zero-cycle cells (speedup 0.0) at the curve's start.
        let mut report = CampaignRunner::new().run(&small_spec()).unwrap();
        let mut dead = report.cells[0].clone();
        dead.trace = "dead".to_string();
        dead.stats.cycles = 0;
        let mut dead_baseline = report.baselines[0].clone();
        dead_baseline.trace = "dead".to_string();
        report.cells.push(dead);
        report.baselines.push(dead_baseline);
        let curve = report.speedup_curve("8_8_8");
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0], 0.0, "zero-cycle cell sorts first");
        assert!(curve[1] > 0.0);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
        assert!(curve.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stat_only_campaigns_skip_baselines() {
        let spec = CampaignBuilder::new("stat")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .trace_len(1_000)
            .without_baseline()
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report.baseline_runs, 0);
        assert!(report.baselines.is_empty());
        assert_eq!(report.cells.len(), 1);
        assert!(report.experiment_results().is_empty());
    }

    #[test]
    fn legacy_specs_keep_the_v1_wire_format() {
        // A campaign that never touches the scenario axis must keep writing
        // the pre-scenario wire formats: spec v1 (with a `config` field) and
        // report v2 — that is what keeps golden snapshots and old tooling
        // byte-stable.
        let spec = small_spec();
        assert!(spec.is_single_default_scenario());
        assert_eq!(spec.schema_version, LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION);
        let json = spec.to_json();
        assert!(json.contains("\"config\""), "v1 shape carries `config`");
        assert!(!json.contains("\"scenarios\""));
        let decoded = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(decoded, spec);
        let report = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report.schema_version, LEGACY_CAMPAIGN_SCHEMA_VERSION);
        assert!(!report.to_json().contains("\"scenario\""));
    }

    fn geometry_spec() -> CampaignSpec {
        CampaignBuilder::new("sens")
            .policy(PolicyKind::P888)
            .policy(PolicyKind::Baseline)
            .spec(SpecBenchmark::Gzip)
            .spec(SpecBenchmark::Mcf)
            .trace_len(900)
            .sensitivity_helper_geometry()
            .build()
            .unwrap()
    }

    #[test]
    fn scenario_specs_use_the_v2_wire_format_and_round_trip() {
        let spec = geometry_spec();
        assert!(!spec.is_single_default_scenario());
        assert_eq!(spec.schema_version, CAMPAIGN_SPEC_SCHEMA_VERSION);
        assert_eq!(spec.scenarios.len(), 9);
        assert_eq!(spec.cell_count(), 2 * 2 * 9);
        let json = spec.to_json();
        assert!(json.contains("\"scenarios\""));
        assert!(!json.contains("\"config\""));
        let decoded = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn scenario_campaigns_key_every_cell_and_memoize_per_scenario() {
        let spec = geometry_spec();
        let report = CampaignRunner::new().run(&spec).unwrap();
        assert_eq!(report.schema_version, CAMPAIGN_SCHEMA_VERSION);
        // 2 traces × 9 scenarios baselines; traces synthesized once per row.
        assert_eq!(report.baseline_runs, 2 * 9);
        assert_eq!(report.trace_generations, 2);
        assert_eq!(report.baselines.len(), 2 * 9);
        assert_eq!(report.cells.len(), 2 * 2 * 9);
        assert!(report.cells.iter().all(|c| c.scenario.is_some()));

        // The paper's design point is present and joins to its own baseline.
        let cell = report
            .cell_for_scenario("8_8_8", "gzip", Some("hw8_cr2x"))
            .expect("design-point cell");
        assert_eq!(cell.scenario.as_deref(), Some("hw8_cr2x"));
        let baseline = report
            .baseline_for_scenario("gzip", Some("hw8_cr2x"))
            .expect("design-point baseline");
        assert_eq!(cell.stats.committed_uops, baseline.committed_uops);

        // Per-scenario aggregates cover every scenario.
        let by_scenario = report.speedup_by_scenario("8_8_8");
        assert_eq!(by_scenario.len(), 9);
        assert!(by_scenario.contains_key("hw4_cr1x"));
        assert!(by_scenario.values().all(|s| *s > 0.0));
        let ed2 = report.ed2_by_scenario("8_8_8");
        assert_eq!(ed2.len(), 9);

        // A faster helper clock at the same width must not slow the machine
        // down relative to its own baseline aggregates being finite.
        let round_trip = CampaignReport::from_json(&report.to_json()).unwrap();
        assert_eq!(round_trip, report);
    }

    #[test]
    fn scenario_baselines_differ_across_machines() {
        // The whole point of per-(trace, scenario) baselines: different
        // machines measure different monolithic performance... unless the
        // scenario only changes helper-side knobs, in which case the
        // baselines legitimately coincide (helper removed).  Sweep a
        // *wide-side* knob to see distinct baselines.
        let slow_memory = ScenarioSpec::named("mem900").with_machine(SimConfig {
            memory_latency: 900,
            ..SimConfig::paper_baseline()
        });
        let spec = CampaignBuilder::new("mem")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Mcf)
            .trace_len(1_500)
            .scenario(ScenarioSpec::paper_default())
            .scenario(slow_memory)
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        let fast = report
            .baseline_for_scenario("mcf", Some(DEFAULT_SCENARIO_NAME))
            .unwrap();
        let slow = report.baseline_for_scenario("mcf", Some("mem900")).unwrap();
        assert!(
            slow.cycles > fast.cycles,
            "doubling memory latency must cost baseline cycles ({} vs {})",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn width_predictor_scenarios_change_policy_behaviour_only() {
        let spec = CampaignBuilder::new("wp")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gcc)
            .trace_len(2_000)
            .sensitivity_width_predictor()
            .build()
            .unwrap();
        assert_eq!(spec.scenarios.len(), 5);
        let report = CampaignRunner::new().run(&spec).unwrap();
        // Same machine in every scenario: all baselines identical.
        let b256 = report.baseline_for_scenario("gcc", Some("wp256")).unwrap();
        let b4096 = report.baseline_for_scenario("gcc", Some("wp4096")).unwrap();
        assert_eq!(b256, b4096);
        // Policy cells exist per scenario and commit the whole trace.
        for key in ["wp256", "wp512", "wp1024", "wp2048", "wp4096"] {
            let cell = report.cell_for_scenario("8_8_8", "gcc", Some(key)).unwrap();
            assert_eq!(cell.stats.committed_uops, 2_000, "{key}");
        }
    }

    #[test]
    fn predictor_sizing_reaches_the_policy() {
        // A 1-entry width table aliases every PC; its steering decisions (and
        // so the measured stats) must diverge from the 256-entry table.
        let tiny = ScenarioSpec::named("wp1")
            .with_predictors(hc_predictors::PredictorConfig::with_all_entries(1));
        let spec = CampaignBuilder::new("alias")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gcc)
            .trace_len(2_000)
            .scenario(ScenarioSpec::paper_default())
            .scenario(tiny)
            .build()
            .unwrap();
        let report = CampaignRunner::new().run(&spec).unwrap();
        let paper = report
            .cell_for_scenario("8_8_8", "gcc", Some(DEFAULT_SCENARIO_NAME))
            .unwrap();
        let tiny = report
            .cell_for_scenario("8_8_8", "gcc", Some("wp1"))
            .unwrap();
        assert_ne!(
            paper.stats, tiny.stats,
            "a fully aliased width table must behave differently"
        );
    }

    #[test]
    fn config_applies_to_presets_regardless_of_call_order() {
        // Presets expand at build() against the final base machine, so
        // `.config(..)` after the preset must still take effect.
        let base = SimConfig {
            memory_latency: 900,
            ..SimConfig::paper_baseline()
        };
        let after = CampaignBuilder::new("order")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .sensitivity_helper_geometry()
            .config(base.clone())
            .build()
            .unwrap();
        let before = CampaignBuilder::new("order")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .config(base)
            .sensitivity_helper_geometry()
            .build()
            .unwrap();
        assert_eq!(after.scenarios, before.scenarios);
        assert!(after
            .scenarios
            .iter()
            .all(|s| s.machine.memory_latency == 900));
    }

    #[test]
    fn explicit_v2_specs_with_a_default_scenario_are_accepted() {
        // v2 is a superset: a v2 document whose scenario list happens to be
        // the single default overlay must decode, validate, run, and
        // re-encode as v2 (decode -> encode is the identity).
        let v2_json = CampaignSpec {
            schema_version: CAMPAIGN_SPEC_SCHEMA_VERSION,
            scenarios: vec![ScenarioSpec::paper_default()],
            ..small_spec()
        }
        .to_json();
        assert!(v2_json.contains("\"schema_version\": 2"));
        assert!(v2_json.contains("\"scenarios\""));
        let decoded = CampaignSpec::from_json(&v2_json).unwrap();
        assert_eq!(decoded.schema_version, CAMPAIGN_SPEC_SCHEMA_VERSION);
        assert!(decoded.validate().is_ok());
        assert_eq!(decoded.to_json(), v2_json, "round-trip identity");
        // Declaring v2 opts into the scenario-aware report format.
        assert!(!decoded.is_single_default_scenario());
        let report = CampaignRunner::new().run(&decoded).unwrap();
        assert_eq!(report.schema_version, CAMPAIGN_SCHEMA_VERSION);
        assert!(report
            .cells
            .iter()
            .all(|c| c.scenario.as_deref() == Some(DEFAULT_SCENARIO_NAME)));

        // Claiming v1 for a list that needs v2 is still rejected.
        let bad = CampaignSpec {
            schema_version: LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
            scenarios: vec![ScenarioSpec::named("x"), ScenarioSpec::named("y")],
            ..small_spec()
        };
        assert_eq!(
            bad.validate().unwrap_err(),
            CampaignError::UnsupportedSchemaVersion {
                found: LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
                supported: CAMPAIGN_SPEC_SCHEMA_VERSION,
            }
        );
    }

    #[test]
    fn scenario_validation_is_typed() {
        // Duplicate scenario names.
        let err = CampaignBuilder::new("dup")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .scenario(ScenarioSpec::named("same"))
            .scenario(ScenarioSpec::named("same"))
            .build()
            .unwrap_err();
        assert_eq!(err, CampaignError::DuplicateScenario("same".to_string()));

        // A bad machine inside a scenario keeps the pre-scenario error shape.
        let mut machine = SimConfig::paper_baseline();
        machine.helper_width_bits = 7;
        let err = CampaignBuilder::new("badmachine")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .scenario(ScenarioSpec::named("odd").with_machine(machine))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CampaignError::Config(hc_sim::ConfigError::UnsupportedHelperWidth { width_bits: 7 })
        );

        // Bad predictors / power surface as scenario errors with the name.
        let mut predictors = hc_predictors::PredictorConfig::paper_default();
        predictors.copy_entries = 0;
        let err = CampaignBuilder::new("badpred")
            .policy(PolicyKind::P888)
            .spec(SpecBenchmark::Gzip)
            .scenario(ScenarioSpec::named("tiny").with_predictors(predictors))
            .build()
            .unwrap_err();
        assert!(matches!(
            &err,
            CampaignError::Scenario { name, .. } if name == "tiny"
        ));
        assert!(err.to_string().contains("tiny"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn v2_reports_decode_into_the_scenario_model() {
        // A report produced by the pre-scenario engine (schema v2, spec v1,
        // cells without scenario keys) must decode: the spec comes back with
        // the single default overlay and every accessor works.
        let report = CampaignRunner::new().run(&small_spec()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"schema_version\": 2"));
        let decoded = CampaignReport::from_json(&json).unwrap();
        assert_eq!(decoded.spec.scenarios.len(), 1);
        assert!(decoded.spec.scenarios[0].is_legacy_overlay());
        assert_eq!(decoded.scenario_keys(), vec!["default".to_string()]);
        assert!(decoded.cells.iter().all(|c| c.scenario.is_none()));
        assert_eq!(
            decoded.speedup_by_scenario("8_8_8").len(),
            1,
            "legacy cells aggregate under the default scenario key"
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = CampaignRunner::new().run(&small_spec()).unwrap();
        let decoded = CampaignReport::from_json(&report.to_json()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let mut report = CampaignRunner::new().run(&small_spec()).unwrap();
        report.schema_version = CAMPAIGN_SCHEMA_VERSION + 1;
        let err = CampaignReport::from_json(&report.to_json()).unwrap_err();
        assert_eq!(
            err,
            CampaignError::UnsupportedSchemaVersion {
                found: CAMPAIGN_SCHEMA_VERSION + 1,
                supported: CAMPAIGN_SCHEMA_VERSION,
            }
        );
    }
}
