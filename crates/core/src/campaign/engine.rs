//! The campaign execution engine: [`CampaignRunner`] and the one row
//! executor every runner, shard and adapter path runs its rows through.

use super::spec::{
    report_wire_version, BaselineRun, CampaignCell, CampaignError, CampaignProgress,
    CampaignReport, CampaignSpec, ProgressHook, TraceSelector,
};
use crate::cache::{CellCache, CellKey};
use crate::experiment::{Experiment, ExperimentResult};
use crate::policy::PolicyKind;
use crate::scenario::DEFAULT_SCENARIO_NAME;
use hc_sim::{ExecContext, SimStats};
use hc_trace::{FileSource, PhasedSource, Trace, TraceError, TraceSource};
use rayon::prelude::*;
use serde::Serialize;
use std::borrow::Cow;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Resolve the serialized cache identity of every spec row up front, so the
/// grid's per-row projection is infallible and each `File` header is read
/// once per campaign instead of once per cell.
fn resolve_row_docs(traces: &[TraceSelector]) -> Result<Vec<serde::Value>, CampaignError> {
    traces.iter().map(TraceSelector::cache_doc).collect()
}

/// One grid row's µop supply: a materialized trace (synthesized selectors
/// and the borrowed-trace adapter paths) or a streaming [`TraceSource`]
/// (`File` and `Phased` rows), which the simulator consumes a bounded
/// window at a time.
enum RowTrace<'a> {
    Materialized(Cow<'a, Trace>),
    Streamed(Box<dyn TraceSource + Send>),
}

impl RowTrace<'_> {
    /// The row's trace name and workload category.
    fn identity(&self) -> (String, Option<String>) {
        match self {
            RowTrace::Materialized(trace) => (trace.name.clone(), trace.category.clone()),
            RowTrace::Streamed(source) => {
                let header = source.header();
                (header.name.clone(), header.category.clone())
            }
        }
    }

    /// Simulate one column of this row: `kind` on `experiment`'s machine
    /// after `warmup_runs` priming passes (none for the baseline).  The two
    /// representations differ only here — a materialized row replays its
    /// trace, a streamed row rewinds its source per pass — and produce
    /// bit-identical stats for the same µops.
    fn simulate(
        &mut self,
        ctx: &mut ExecContext,
        experiment: &Experiment,
        kind: PolicyKind,
        warmup_runs: usize,
    ) -> Result<SimStats, TraceError> {
        match self {
            RowTrace::Materialized(trace) => {
                Ok(experiment.run_policy_warmed_with(ctx, trace, kind, warmup_runs))
            }
            RowTrace::Streamed(source) => {
                experiment.run_policy_warmed_source(ctx, source.as_mut(), kind, warmup_runs)
            }
        }
    }
}

/// Open one selector's µop supply.
fn make_row_trace(
    selector: &TraceSelector,
    trace_len: usize,
) -> Result<RowTrace<'static>, CampaignError> {
    Ok(match selector {
        TraceSelector::File { path } => RowTrace::Streamed(Box::new(
            FileSource::open(Path::new(path))
                .map_err(|e| CampaignError::Trace(format!("{path}: {e}")))?,
        )),
        TraceSelector::Phased { schedule } => {
            RowTrace::Streamed(Box::new(PhasedSource::new(schedule.clone())))
        }
        synthesized => RowTrace::Materialized(Cow::Owned(synthesized.generate(trace_len))),
    })
}

/// Executes [`CampaignSpec`]s.
#[derive(Clone, Default)]
pub struct CampaignRunner {
    progress: Option<ProgressHook>,
    cache: Option<Arc<CellCache>>,
}

impl fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("progress", &self.progress.is_some())
            .field(
                "cache",
                &self.cache.as_ref().map(|c| c.root().to_path_buf()),
            )
            .finish()
    }
}

impl CampaignRunner {
    /// A runner with no progress hook.
    pub fn new() -> CampaignRunner {
        CampaignRunner::default()
    }

    /// Attach a progress hook, called once per finished cell from the
    /// worker thread that finished it.  Calls are serialized: the hook never
    /// runs on two threads at once, and `completed_cells` increases by one
    /// per call.
    ///
    /// Hook delivery is isolated from the campaign: a hook that **panics**
    /// is disabled for the rest of the run (its panic is caught, and it is
    /// never called again) and the campaign completes normally — observation
    /// must never poison the runner.
    pub fn with_progress(
        mut self,
        hook: impl Fn(&CampaignProgress) + Send + Sync + 'static,
    ) -> CampaignRunner {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// Memoize every simulated cell (and baseline) through a
    /// [`CellCache`]: cells whose key is already cached are restored from
    /// disk instead of re-simulated, and fresh simulations are inserted.
    /// The produced report is **byte-identical** with or without the cache.
    pub fn with_cache(mut self, cache: Arc<CellCache>) -> CampaignRunner {
        self.cache = Some(cache);
        self
    }

    /// Validate and execute a campaign.
    ///
    /// The grid **streams**: each worker synthesizes one row's trace from its
    /// selector, runs every scenario × policy column against it, and drops it
    /// before picking up the next row — at no point do more than O(worker
    /// threads) traces exist in memory, so the full 409-trace Table 2 suite
    /// runs in the same footprint as a 12-trace grid.  Each row's trace is
    /// generated exactly once and shared by every scenario and policy
    /// column; the `trace_generations` counter proves the memoization held.
    /// Baselines are memoized per (trace, scenario): an N-policy sweep over
    /// S scenarios simulates `traces × S` baselines, never
    /// `traces × S × N`.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignReport, CampaignError> {
        spec.validate()?;
        let rows: Vec<usize> = (0..spec.traces.len()).collect();
        let progress = Progress::new(self.progress.clone(), spec.cell_count());
        let (grid, trace_generations) =
            run_spec_rows(spec, &rows, &progress, self.cache.as_deref())?;
        let baseline_runs = grid.baseline_runs;
        let (baselines, cells) = grid.into_flat_parts();
        Ok(CampaignReport {
            schema_version: report_wire_version(spec),
            name: spec.name.clone(),
            spec: spec.clone(),
            baselines,
            cells,
            baseline_runs,
            trace_generations,
        })
    }
}

/// One scenario's ready-to-run machinery: its report key and the validated
/// [`Experiment`] (helper + baseline simulators, predictor sizing).
struct ScenarioExperiment {
    /// Report key for this scenario's cells and baselines; `None` on the
    /// legacy single-default-scenario path, which keeps cells byte-identical
    /// to pre-scenario reports.
    key: Option<String>,
    experiment: Experiment,
}

impl ScenarioExperiment {
    /// Wrap one bare experiment as the anonymous legacy scenario — the shape
    /// every pre-scenario adapter path ([`Experiment::run_many`],
    /// `SuiteRunner`) runs through.
    fn legacy(experiment: Experiment) -> ScenarioExperiment {
        ScenarioExperiment {
            key: None,
            experiment,
        }
    }

    /// Progress-hook display key.
    fn progress_key(&self) -> &str {
        self.key.as_deref().unwrap_or(DEFAULT_SCENARIO_NAME)
    }
}

/// Build one [`ScenarioExperiment`] per spec scenario.  On the legacy
/// single-default-scenario path cells stay untagged.
fn scenario_experiments(spec: &CampaignSpec) -> Result<Vec<ScenarioExperiment>, CampaignError> {
    let tag_cells = !spec.is_single_default_scenario();
    spec.scenarios
        .iter()
        .map(|scenario| {
            Ok(ScenarioExperiment {
                key: tag_cells.then(|| scenario.name.clone()),
                experiment: Experiment::try_new_with(
                    scenario.machine.clone(),
                    scenario.predictors,
                )?,
            })
        })
        .collect()
}

/// The raw output of the grid engine: one entry per trace × scenario, keeping
/// each (trace, scenario)'s baseline next to its cells so joins are
/// positional — correct even when two traces share a name (the adapter paths
/// accept arbitrary trace lists; only [`CampaignSpec::validate`] enforces
/// unique labels).
pub(crate) struct Grid {
    /// Outer: one entry per row (trace); inner: one entry per scenario, each
    /// holding the scenario's baseline (if run) and its policy cells.
    per_trace: Vec<GridRow>,
    pub baseline_runs: usize,
}

/// One grid row's output: per scenario, the scenario's baseline (if run)
/// and its policy cells.
type GridRow = Vec<(Option<BaselineRun>, Vec<CampaignCell>)>;

impl Grid {
    /// Flatten into the report's baseline and cell lists (trace-major, then
    /// scenario-major — which degenerates to the exact pre-scenario order on
    /// single-scenario grids).
    pub(crate) fn into_flat_parts(self) -> (Vec<BaselineRun>, Vec<CampaignCell>) {
        let mut baselines = Vec::with_capacity(self.per_trace.len());
        let mut cells = Vec::new();
        for row in self.per_trace {
            for (baseline, scenario_cells) in row {
                if let Some(b) = baseline {
                    baselines.push(b);
                }
                cells.extend(scenario_cells);
            }
        }
        (baselines, cells)
    }

    /// Join each (trace, scenario)'s cells with *its own* baseline into
    /// [`ExperimentResult`]s, preserving cell order.
    pub fn into_experiment_results(self) -> Vec<ExperimentResult> {
        let mut results = Vec::new();
        for row in self.per_trace {
            for (baseline, scenario_cells) in row {
                let Some(baseline) = baseline else { continue };
                for c in scenario_cells {
                    results.push(ExperimentResult {
                        policy: c.policy,
                        trace: c.trace,
                        category: c.category,
                        stats: c.stats,
                        baseline: baseline.stats.clone(),
                    });
                }
            }
        }
        results
    }
}

/// Run `rows` (indices into `spec.traces`) of a validated spec through the
/// grid engine — the shared body of [`CampaignRunner::run`] and
/// [`crate::shard::CampaignShard::run_with`].  Returns the grid and the
/// number of traces generated (one per row).
pub(crate) fn run_spec_rows(
    spec: &CampaignSpec,
    rows: &[usize],
    progress: &Progress,
    cache: Option<&CellCache>,
) -> Result<(Grid, usize), CampaignError> {
    let scenarios = scenario_experiments(spec)?;
    // Rows run as indices into the spec's trace list so their cache
    // identities (content-addressed for `File` rows) resolve once, up front
    // and fallibly, instead of per cell inside the grid.
    let row_docs = resolve_row_docs(&spec.traces)?;
    let grid_cache = cache.map(|cache| GridCache::new(cache, spec, &row_docs));
    let columns = GridColumns {
        scenarios: &scenarios,
        policies: &spec.policies,
        warmup_runs: spec.warmup_runs,
        include_baseline: spec.include_baseline,
    };
    let generations = AtomicUsize::new(0);
    let grid = run_grid_streaming(
        &columns,
        rows,
        |i| {
            generations.fetch_add(1, Ordering::Relaxed);
            make_row_trace(&spec.traces[i], spec.trace_len)
        },
        progress,
        grid_cache.as_ref(),
    )?;
    Ok((grid, generations.load(Ordering::Relaxed)))
}

/// The single-machine adapter grid behind [`Experiment::run_many`] and
/// [`crate::suite::SuiteRunner`]: `row_count` rows whose traces `trace`
/// materializes (borrowed or synthesized), one baseline per row, no warmup,
/// no cache and no progress hook.
pub(crate) fn run_grid<'t>(
    experiment: &Experiment,
    row_count: usize,
    trace: impl Fn(usize) -> Cow<'t, Trace> + Sync,
    policies: &[PolicyKind],
) -> Grid {
    let scenario = ScenarioExperiment::legacy(experiment.clone());
    let columns = GridColumns {
        scenarios: std::slice::from_ref(&scenario),
        policies,
        warmup_runs: 0,
        include_baseline: true,
    };
    let rows: Vec<usize> = (0..row_count).collect();
    run_grid_streaming(
        &columns,
        &rows,
        |i| Ok(RowTrace::Materialized(trace(i))),
        &Progress::new(None, 0),
        // Materialized-trace adapter paths carry no declarative trace
        // identity to key a cache on, so they never cache.
        None,
    )
    .expect("materialized rows cannot fail")
}

/// The column axes of one grid: every scenario × (its baseline, then each
/// policy), with the warmup protocol.
struct GridColumns<'a> {
    scenarios: &'a [ScenarioExperiment],
    policies: &'a [PolicyKind],
    warmup_runs: usize,
    /// Whether to report a baseline per (row, scenario).  The baseline is
    /// also simulated whenever the `baseline` policy column needs it.
    include_baseline: bool,
}

impl GridColumns<'_> {
    fn baseline_needed(&self) -> bool {
        self.include_baseline || self.policies.contains(&PolicyKind::Baseline)
    }
}

/// The cache binding of one grid invocation: the [`CellCache`] plus
/// everything needed to derive each cell's content-addressed key — the
/// serialized scenario axis (aligned with the grid's scenarios) and each
/// spec row's serialized trace identity.
struct GridCache<'a> {
    cache: &'a CellCache,
    trace_len: usize,
    warmup_runs: usize,
    scenario_docs: Vec<serde::Value>,
    row_docs: &'a [serde::Value],
}

impl<'a> GridCache<'a> {
    /// Bind `cache` to one campaign's key space; `row_docs` is indexed by
    /// spec row (see [`resolve_row_docs`]).
    fn new(
        cache: &'a CellCache,
        spec: &CampaignSpec,
        row_docs: &'a [serde::Value],
    ) -> GridCache<'a> {
        GridCache {
            cache,
            trace_len: spec.trace_len,
            warmup_runs: spec.warmup_runs,
            scenario_docs: spec.scenarios.iter().map(Serialize::to_value).collect(),
            row_docs,
        }
    }

    /// The key of column `kind` of spec row `row` under scenario
    /// `scenario`; `PolicyKind::Baseline` names the scenario baseline.
    fn key(&self, row: usize, scenario: usize, kind: PolicyKind) -> CellKey {
        let (row_doc, scenario_doc) = (&self.row_docs[row], &self.scenario_docs[scenario]);
        if kind == PolicyKind::Baseline {
            CellKey::baseline(row_doc, self.trace_len, scenario_doc)
        } else {
            CellKey::cell(
                row_doc,
                self.trace_len,
                self.warmup_runs,
                scenario_doc,
                kind.name(),
            )
        }
    }
}

/// The progress state of one run: the user hook, the cells completed so
/// far, the total, and whether the hook has been disabled.  One value is
/// shared by every worker of a run — and by every shard of a sharded run,
/// so counts are run-global and a hook that panics is disabled for the
/// whole run.
pub(crate) struct Progress {
    hook: Option<ProgressHook>,
    total_cells: usize,
    state: Mutex<ProgressState>,
}

#[derive(Default)]
struct ProgressState {
    completed_cells: usize,
    hook_disabled: bool,
}

impl Progress {
    pub(crate) fn new(hook: Option<ProgressHook>, total_cells: usize) -> Progress {
        Progress {
            hook,
            total_cells,
            state: Mutex::default(),
        }
    }

    /// Count `cells` finished without the engine (resumed shards) without
    /// calling the hook for them.
    pub(crate) fn skip(&self, cells: usize) {
        self.lock().completed_cells += cells;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProgressState> {
        // Every update is a single field write, so the state is valid even
        // if a holder panicked (hook panics are caught inside the lock).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deliver one finished cell to the hook.  The state lock is held
    /// across the call, so hook calls are serialized and a hook that panics
    /// is disabled before any other worker can call it again.  The panic is
    /// caught, so observation can never abort the campaign;
    /// `AssertUnwindSafe` is sound because the engine never touches
    /// hook-owned state afterwards — the hook is simply not called again.
    fn cell_done(&self, cell: &CampaignCell, scenario: &str) {
        let Some(hook) = &self.hook else { return };
        let mut state = self.lock();
        state.completed_cells += 1;
        if state.hook_disabled {
            return;
        }
        let progress = CampaignProgress {
            completed_cells: state.completed_cells,
            total_cells: self.total_cells,
            policy: cell.policy.clone(),
            trace: cell.trace.clone(),
            scenario: scenario.to_string(),
        };
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(&progress))).is_err() {
            state.hook_disabled = true;
        }
    }
}

/// The grid engine: rows fan out in parallel over the thread pool, and each
/// worker opens one row's trace at a time via `make_trace`, runs it through
/// [`run_row`], then drops it.  Peak memory is O(worker threads) traces
/// regardless of row count — this is what lets the full 409-trace Table 2
/// suite run as one campaign.  One [`ExecContext`] per worker is reused for
/// every run that worker performs, including runs under different scenario
/// machines (each run returns it to a cold state first), so a campaign
/// costs O(threads) simulator arenas instead of O(cells), with results
/// bit-identical to fresh contexts.
///
/// `make_trace` is fallible: `File` rows can hit an unreadable or corrupt
/// recording.  The parallel fan-out may surface several failures; the
/// *first in row order* is returned, so failures are reproducible.
fn run_grid_streaming<'t>(
    columns: &GridColumns<'_>,
    rows: &[usize],
    make_trace: impl Fn(usize) -> Result<RowTrace<'t>, CampaignError> + Sync,
    progress: &Progress,
    cache: Option<&GridCache<'_>>,
) -> Result<Grid, CampaignError> {
    let rows_out: Vec<Result<GridRow, CampaignError>> = rows
        .par_iter()
        .map_init(ExecContext::new, |ctx, &row| {
            run_row(ctx, columns, row, make_trace(row)?, progress, cache)
        })
        .collect();
    let per_trace = rows_out.into_iter().collect::<Result<Vec<_>, _>>()?;
    let baseline_runs = if columns.baseline_needed() {
        per_trace.len() * columns.scenarios.len()
    } else {
        0
    };
    Ok(Grid {
        per_trace,
        baseline_runs,
    })
}

/// Run one grid row — the only place the grid simulates.  For every
/// scenario, in report order: the scenario baseline (when needed), then each
/// policy column; the `baseline` policy column reuses the scenario
/// baseline.  With a cache bound, each simulation goes through
/// [`CellCache::get_or_compute`]: hits are restored without simulating, and
/// concurrent misses on one key (another worker, or another campaign in the
/// same process) coalesce onto a single simulation.  A streamed row whose
/// source fails aborts with a typed [`CampaignError::Trace`].
fn run_row(
    ctx: &mut ExecContext,
    columns: &GridColumns<'_>,
    row: usize,
    mut trace: RowTrace<'_>,
    progress: &Progress,
    cache: Option<&GridCache<'_>>,
) -> Result<GridRow, CampaignError> {
    let (name, category) = trace.identity();
    let fail = |e: TraceError| CampaignError::Trace(format!("{name}: {e}"));
    let mut out = Vec::with_capacity(columns.scenarios.len());
    for (scenario_index, scenario) in columns.scenarios.iter().enumerate() {
        let mut run = |kind: PolicyKind| {
            let mut simulate =
                || trace.simulate(ctx, &scenario.experiment, kind, columns.warmup_runs);
            match cache {
                Some(gc) => gc
                    .cache
                    .get_or_compute(&gc.key(row, scenario_index, kind), simulate),
                None => simulate(),
            }
            .map_err(fail)
        };
        let baseline = if columns.baseline_needed() {
            Some(BaselineRun {
                trace: name.clone(),
                category: category.clone(),
                scenario: scenario.key.clone(),
                stats: run(PolicyKind::Baseline)?,
            })
        } else {
            None
        };
        let mut cells = Vec::with_capacity(columns.policies.len());
        for &kind in columns.policies {
            let stats = match (&baseline, kind) {
                (Some(b), PolicyKind::Baseline) => b.stats.clone(),
                _ => run(kind)?,
            };
            let cell = CampaignCell {
                policy: kind.name().to_string(),
                trace: name.clone(),
                category: category.clone(),
                scenario: scenario.key.clone(),
                stats,
            };
            progress.cell_done(&cell, scenario.progress_key());
            cells.push(cell);
        }
        out.push((baseline, cells));
    }
    Ok(out)
}
