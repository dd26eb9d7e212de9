//! # hc-perfbench
//!
//! The repository's benchmark: four workloads at paper scale, each run as
//! the user action a user waits for, timed from outside through the
//! layers' public functions.
//!
//! * `figures` — the default `reproduce` figure set.
//! * `suite_cold` — the 409-trace Table 2 suite under IR through
//!   [`ShardedCampaignRunner`] (4 shards) with an empty cell cache and a
//!   fresh checkpoint directory.
//! * `suite_warm` — the same suite replayed against a warm cell cache.
//! * `suite_resume` — the same suite resumed from a complete checkpoint.
//!
//! An untraced run ([`Config::trace`] off) reports the end-to-end metrics
//! ([`END_TO_END`]); a traced run records spans around every layer call
//! (see [`spans`]) and reports the per-layer metrics ([`PER_LAYER`]).
//! Every repetition's output is checked; a failed check or a returned error
//! counts as a failed operation, never a crash.
//!
//! [`ShardedCampaignRunner`]: hc_core::ShardedCampaignRunner

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figures;
pub mod host;
mod probe;
pub mod spans;
mod suite;

use host::{median, Cost};
use serde::{Deserialize, Serialize};
use spans::{json_string, Spans};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed at which the suite workloads run the paper's own Table 2
/// `CategoryApp` selectors.  Any other seed re-seeds every Table 2 profile.
pub const DEFAULT_SEED: u64 = 0;

/// A seed kept out of benchmark tuning, for checking later claims on inputs
/// they were not developed against.
pub const HELD_OUT_SEED: u64 = 20_061;

/// Share of each measured set-up or repetition an untraced run spends
/// calibrating the host right after it.
const CALIBRATION_SHARE: f64 = 0.2;

/// Shards of the suite workloads' sharded runs.
pub const SUITE_SHARDS: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default `reproduce` figure set (takes no inputs; seed-free).
    Figures,
    /// The Table 2 suite with an empty cache and a fresh checkpoint.
    SuiteCold,
    /// The Table 2 suite replayed against a warm cache.
    SuiteWarm,
    /// The Table 2 suite resumed from a complete checkpoint.
    SuiteResume,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::SuiteCold,
        Workload::SuiteWarm,
        Workload::SuiteResume,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::SuiteCold => "suite_cold",
            Workload::SuiteWarm => "suite_warm",
            Workload::SuiteResume => "suite_resume",
        }
    }

    /// How many times a run sets the workload up; `setup_s` is the median.
    pub fn setups(self) -> usize {
        match self {
            Workload::Figures => 3,
            _ => 2,
        }
    }

    /// The shape of the calibration work that matches the workload's hot
    /// path (see [`host::Mix`]): the JSON decoder's character loop for
    /// `suite_resume`, heap structures for the others.
    pub fn calibration_mix(self) -> host::Mix {
        match self {
            Workload::SuiteResume => host::Mix::DECODE,
            _ => host::Mix::HEAP,
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// The scale's command-line name.
    pub name: &'static str,
    /// Dynamic µops per trace.
    pub trace_len: usize,
    /// Applications per Table 2 category in the suite workloads (`None`:
    /// all 409).
    pub suite_apps: Option<usize>,
    /// Applications per category in the figure set's Figure 14 and summary
    /// (the `reproduce` default is 6).
    pub figure_apps: usize,
    /// Trace length of the extra seven-policy suite `suite_warm`'s cache
    /// also holds.
    pub warm_extra_len: usize,
}

impl Scale {
    /// Paper scale: the sizes the benchmark measures.
    pub const PAPER: Scale = Scale {
        name: "paper",
        trace_len: 20_000,
        suite_apps: None,
        figure_apps: 6,
        warm_extra_len: 2_000,
    };

    /// A scale small enough for unit tests of the benchmark itself.
    pub const TINY: Scale = Scale {
        name: "tiny",
        trace_len: 300,
        suite_apps: Some(1),
        figure_apps: 1,
        warm_extra_len: 200,
    };

    /// The scale called `name`, if any.
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::PAPER, Scale::TINY]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// Damage injected after set-up, to show that the benchmark counts a broken
/// input as a failed operation instead of crashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Overwrite the middle of the first checkpoint shard file
    /// (`suite_resume`).
    CorruptShard,
    /// Overwrite bytes inside the first cache segment file (`suite_warm`).
    CorruptSegment,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed (see [`DEFAULT_SEED`]).
    pub seed: u64,
    /// How long to keep repeating the measured action.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for caches and checkpoints; emptied first and
    /// removed afterwards.
    pub work_dir: PathBuf,
    /// Where a traced run writes its Chrome trace-event JSON, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Damage to inject after set-up.
    pub fault: Option<Fault>,
    /// The benchmark executable: when set, an untraced run measures each
    /// repetition in a fresh process of it (see [`run_rep`]).
    pub rep_exe: Option<PathBuf>,
}

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs): name and unit.  A `<span>_s` metric in
/// unit `s` is the self time of the spans called `<span>`.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("trace.synth_s", "s"),
    ("trace.uops", "count"),
    ("trace.synth_uops_per_s", "uops/s"),
    ("sim.run_s", "s"),
    ("sim.uops_per_s", "uops/s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles", "count"),
    ("sim.committed_uops", "count"),
    ("sim.helper_uops", "count"),
    ("sim.copy_uops", "count"),
    ("sim.fatal_width_mispredicts", "count"),
    ("sim.ipc", "uops/cycle"),
    ("campaign.run_s", "s"),
    ("campaign.rows", "count"),
    ("campaign.cells", "count"),
    ("campaign.baseline_sims", "count"),
    ("campaign.first_row_s", "s"),
    ("campaign.parallel_efficiency", "ratio"),
    ("cache.open_s", "s"),
    ("cache.close_s", "s"),
    ("cache.entries", "count"),
    ("cache.bytes", "B"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.inserts", "count"),
    ("cache.hit_ratio", "ratio"),
    ("json.encode_s", "s"),
    ("json.encode_bytes", "B"),
    ("json.decode_s", "s"),
    ("json.decode_bytes", "B"),
    ("json.decode_mb_per_s", "MB/s"),
    ("shard.load_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.files", "count"),
    ("shard.bytes", "B"),
    ("figures.table1_s", "s"),
    ("figures.table2_s", "s"),
    ("figures.fig1_s", "s"),
    ("figures.fig5_s", "s"),
    ("figures.fig6_s", "s"),
    ("figures.fig7_s", "s"),
    ("figures.fig8_s", "s"),
    ("figures.fig9_s", "s"),
    ("figures.fig11_s", "s"),
    ("figures.fig12_s", "s"),
    ("figures.fig13_s", "s"),
    ("figures.headline_s", "s"),
    ("figures.fig14_s", "s"),
    ("figures.ed2_s", "s"),
    ("figures.summary_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Operations that returned an error or produced a wrong output.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced), in that order.
    pub metrics: Vec<Metric>,
    /// Measured repetitions of the workload's action.
    pub reps: usize,
}

impl Outcome {
    /// Whether every checked operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The failed share of attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result document.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// The check ledger: every checked operation, and what failed.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Count one operation; an `Err` counts it as failed.
    pub(crate) fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Per-layer values a workload sets directly (times come from spans).
#[derive(Debug, Default)]
pub(crate) struct Layer {
    values: BTreeMap<&'static str, f64>,
}

impl Layer {
    /// Set a [`PER_LAYER`] value, or an internal one (named `_…`).
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(Layer::known(name), "{name}");
        self.values.insert(name, value);
    }

    pub(crate) fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(Layer::known(name), "{name}");
        *self.values.entry(name).or_insert(0.0) += value;
    }

    fn known(name: &str) -> bool {
        name.starts_with('_') || PER_LAYER.iter().any(|(n, _)| *n == name)
    }

    pub(crate) fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// One measured repetition of a workload's action, as the process that ran
/// it reports it: its host cost and what the parent checks.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Rep {
    /// Host cost of the action.
    pub cost: Cost,
    /// The error the action returned, if any.
    pub error: Option<String>,
    /// Digest of the action's output (report bytes or figure values).
    pub digest: u64,
    /// Counters that must repeat exactly (suite workloads).
    pub counters: Vec<u64>,
}

/// One workload: set-up, the measured action, its check, and the traced
/// run's probes.
pub(crate) trait Bench {
    /// Build the inputs and the reference output the action is checked
    /// against.
    fn setup(&mut self, ledger: &mut Ledger);

    /// Damage the inputs (see [`Fault`]).
    fn inject(&mut self, fault: Fault) -> Result<(), String>;

    /// Repetition `index` of the user action.  It needs only the inputs
    /// set-up left on disk, so it can run in a fresh process.
    fn act(&mut self, index: usize, spans: &mut Spans) -> Rep;

    /// Check a repetition against the reference output and the predicted
    /// counters.
    fn check(&mut self, rep: &Rep) -> Result<(), String>;

    /// After the last traced repetition (run in this process): re-issue,
    /// from outside and one at a time, the layer calls the action made
    /// inside opaque entry points, and set the per-layer values spans
    /// cannot give.
    fn probe(&mut self, spans: &mut Spans, ledger: &mut Ledger, layer: &mut Layer);
}

fn new_bench(workload: Workload, scale: Scale, seed: u64, work_dir: &Path) -> Box<dyn Bench> {
    match workload {
        Workload::Figures => Box::new(figures::FiguresBench::new(scale)),
        w => Box::new(suite::SuiteBench::new(w, scale, seed, work_dir)),
    }
}

/// Run repetition `index` of a workload whose set-up already ran in
/// `work_dir` — the entry point of a repetition's child process.
pub fn run_rep(workload: Workload, scale: Scale, seed: u64, work_dir: &Path, index: usize) -> Rep {
    rayon::set_thread_cap(worker_threads());
    new_bench(workload, scale, seed, work_dir).act(index, &mut Spans::new(false))
}

/// Run repetition `index` in a fresh process of `exe` (see [`run_rep`]).
fn rep_in_child(exe: &Path, cfg: &Config, index: usize) -> Rep {
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            cfg.workload.name(),
            "--seed",
            &cfg.seed.to_string(),
        ])
        .args(["--scale", cfg.scale.name, "--rep", &index.to_string()])
        .arg("--work-dir")
        .arg(&cfg.work_dir)
        .stderr(std::process::Stdio::inherit())
        .output();
    let failed = |error: String| Rep {
        error: Some(error),
        ..Rep::default()
    };
    match output {
        Err(e) => failed(format!("spawn {}: {e}", exe.display())),
        Ok(out) => {
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().last().map(serde::json::from_str::<Rep>) {
                Some(Ok(rep)) if out.status.success() => rep,
                _ => failed(format!("repetition process exited with {}", out.status)),
            }
        }
    }
}

/// Worker threads the campaign pool fans out over: every available core.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Busy share of the worker pool during a call: the CPU seconds it used
/// over the seconds the pool's threads were available.
pub(crate) fn utilization(cpu_s: f64, wall_s: f64) -> f64 {
    let capacity = worker_threads() as f64 * wall_s;
    if capacity > 0.0 {
        cpu_s / capacity
    } else {
        0.0
    }
}

/// Run one workload: set up, repeat the action for `cfg.seconds`, and (when
/// traced) probe the layers.
pub fn run(cfg: &Config) -> Outcome {
    let threads = worker_threads();
    rayon::set_thread_cap(threads);
    let mut ledger = Ledger::default();

    // An untraced run calibrates the host after each set-up and each
    // repetition, for a fixed share of the time just measured (at least
    // once), and reports its times in reference-host seconds (see
    // [`host::Speed`]), so that the host's drift does not read as a change
    // of the program.  Every set-up simulates, so set-ups are calibrated
    // with the heap mix; repetitions with the workload's own.  A traced
    // run reports times as measured.
    let mut setup_speed = host::Speed::default();
    let mut speed = host::Speed::default();
    let calibrate = |speed: &mut host::Speed, mix: host::Mix, measured_s: f64| {
        if !cfg.trace {
            let t0 = Instant::now();
            loop {
                speed.sample(threads, mix);
                if t0.elapsed().as_secs_f64() >= CALIBRATION_SHARE * measured_s {
                    break;
                }
            }
        }
    };

    // Set-up runs `setups()` times, each from an empty work directory; the
    // last one's inputs are measured.
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..cfg.workload.setups() {
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        ledger.op(
            "create work dir",
            std::fs::create_dir_all(&cfg.work_dir).map_err(|e| e.to_string()),
        );
        let mut fresh = new_bench(cfg.workload, cfg.scale, cfg.seed, &cfg.work_dir);
        let ((), cost) = host::measure(|| fresh.setup(&mut ledger));
        calibrate(&mut setup_speed, host::Mix::HEAP, cost.wall_s);
        setups.push(cost.wall_s);
        bench = Some(fresh);
    }
    let mut bench = bench.expect("a workload sets up at least once");
    if let Some(fault) = cfg.fault {
        ledger.op("inject fault", bench.inject(fault));
    }

    // An untraced run measures each repetition in a fresh process (when
    // given an executable), so memory set-up or earlier repetitions left
    // behind does not count.  A traced run keeps every repetition in this
    // process, alternating untraced and traced ones so the tracing overhead
    // compares like with like.
    let mut spans = Spans::new(false);
    let mut plain: Vec<Cost> = Vec::new();
    let mut traced: Vec<Cost> = Vec::new();
    let mut mark = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds.max(0.0));
    loop {
        let started = Instant::now();
        let index = plain.len() + traced.len();
        let traced_rep = cfg.trace && plain.len() > traced.len();
        spans.set_enabled(traced_rep);
        if traced_rep {
            mark = spans.mark();
            spans.enter("bench.rep");
        }
        let rep = match &cfg.rep_exe {
            Some(exe) if !cfg.trace => rep_in_child(exe, cfg, index),
            _ => bench.act(index, &mut spans),
        };
        let c = rep.cost;
        calibrate(&mut speed, cfg.workload.calibration_mix(), c.wall_s);
        eprintln!(
            "perfbench: rep {index}{}: wall {:.3} s, cpu {:.2} s, peak rss {:.1} MiB",
            if traced_rep { " (traced)" } else { "" },
            c.wall_s,
            c.cpu_s,
            c.peak_rss_mb
        );
        let verdict = match &rep.error {
            Some(e) => Err(e.clone()),
            None => bench.check(&rep),
        };
        ledger.op(
            &format!("{} repetition {index}", cfg.workload.name()),
            verdict,
        );
        if traced_rep {
            spans.exit();
            traced.push(c);
        } else {
            plain.push(c);
        }
        // Stop before a repetition that would overrun the deadline.  A
        // traced run ends on a traced repetition: the probes read its state.
        if Instant::now() + started.elapsed() > deadline && (!cfg.trace || traced_rep) {
            break;
        }
    }
    let reps = plain.len() + traced.len();

    let metrics = if cfg.trace {
        spans.set_enabled(true);
        let mut layer = Layer::default();
        spans.enter("bench.probe");
        bench.probe(&mut spans, &mut ledger, &mut layer);
        spans.exit();
        let walls = |c: &[Cost]| median(&c.iter().map(|c| c.wall_s).collect::<Vec<_>>());
        layer.set("bench.trace_overhead_s", walls(&traced) - walls(&plain));
        let own = spans.self_seconds(mark);
        print_self_times(cfg.workload, &spans, mark);
        if let Some(path) = &cfg.trace_out {
            let meta = [
                ("workload", cfg.workload.name().to_string()),
                ("seed", cfg.seed.to_string()),
                ("threads", threads.to_string()),
                ("trace_len", cfg.scale.trace_len.to_string()),
            ];
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, spans.chrome_json(&meta)));
            ledger.op("write trace", written.map_err(|e| e.to_string()));
        }
        per_layer_metrics(&layer, &own)
    } else {
        let pick = |f: fn(&Cost) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        let (wall, cpu, setup) = (pick(|c| c.wall_s), pick(|c| c.cpu_s), median(&setups));
        let (calibration, setup_calibration) = (speed.calibration(), setup_speed.calibration());
        eprintln!(
            "perfbench: as measured: wall {wall:.3} s, cpu {cpu:.2} s, set-up {setup:.3} s; \
             calibration wall {:.4} s, cpu {:.4} s, at set-up {:.4} s (reference {} s)",
            calibration.wall_s,
            calibration.cpu_s,
            setup_calibration.wall_s,
            host::CALIBRATION_REF_S
        );
        let values = [
            speed.normalize_wall(wall),
            speed.normalize_cpu(cpu),
            pick(|c| c.peak_rss_mb),
            setup_speed.normalize_wall(setup),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };
    drop(bench);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        metrics,
        reps,
    }
}

/// The [`PER_LAYER`] metrics: span self times for `<span>_s` names, the
/// workload's own values otherwise, and the rates derived from both.
fn per_layer_metrics(layer: &Layer, own: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    let secs = |span: &str| own.get(span).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.synth_uops_per_s" => ratio(layer.get("trace.uops"), secs("trace.synth")),
                "sim.uops_per_s" => ratio(layer.get(probe::SIMULATED_UOPS), secs("sim.run")),
                "sim.ns_per_cycle" => {
                    ratio(secs("sim.run") * 1e9, layer.get(probe::SIMULATED_CYCLES))
                }
                "sim.ipc" => ratio(layer.get("sim.committed_uops"), layer.get("sim.cycles")),
                "cache.hit_ratio" => ratio(
                    layer.get("cache.hits"),
                    layer.get("cache.hits") + layer.get("cache.misses"),
                ),
                "json.decode_mb_per_s" => {
                    ratio(layer.get("json.decode_bytes") / 1e6, secs("json.decode"))
                }
                _ => match name.strip_suffix("_s") {
                    Some(span) if unit == "s" && own.contains_key(span) => secs(span),
                    _ => layer.get(name),
                },
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// Print the traced repetition's self time per span and per layer.
fn print_self_times(workload: Workload, spans: &Spans, mark: usize) {
    eprintln!(
        "perfbench: {} self time by span (last traced rep + probes):",
        workload.name()
    );
    for (name, secs) in spans.self_seconds(mark) {
        eprintln!("  {name:<28} {secs:>10.4} s");
    }
    eprintln!("perfbench: self time by layer:");
    for (layer, secs) in spans.layer_self_seconds(mark) {
        eprintln!("  {layer:<28} {secs:>10.4} s");
    }
}
