//! The campaign data model: the [`CampaignSpec`] grid description and its
//! [`CampaignBuilder`], the trace selectors, the typed [`CampaignError`],
//! and the versioned [`CampaignReport`] with its cells and baselines.

#[allow(unused_imports)]
// `CampaignRunner`, `CellCache` and `Experiment` are doc-link targets.
use super::engine::CampaignRunner;
#[allow(unused_imports)]
use crate::cache::CellCache;
#[allow(unused_imports)]
use crate::experiment::Experiment;
use crate::experiment::ExperimentResult;
use crate::policy::PolicyKind;
use crate::scenario::{ScenarioError, ScenarioSpec, DEFAULT_SCENARIO_NAME};
use hc_power::{Ed2Comparison, PowerModel, PowerParams};
use hc_sim::{ConfigError, SimConfig, SimStats};
#[allow(unused_imports)]
use hc_trace::FileSource;
use hc_trace::{
    read_header, PhaseSchedule, SpecBenchmark, Trace, WorkloadCategory, WorkloadProfile,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Version of the [`CampaignSpec`] wire schema.  Bumped whenever a
/// serialized *spec* field changes meaning; decoders reject mismatched
/// versions with a typed error instead of misreading data.
///
/// * v1 — policy × trace grid against a single `config` machine.
/// * v2 — `config` replaced by a `scenarios` list ([`ScenarioSpec`] overlays:
///   machine + predictors + power).
///
/// A spec whose only scenario is the legacy overlay (default name, paper
/// predictors, default power — any machine) still **encodes as v1**, so every
/// pre-scenario spec, shard checkpoint and golden snapshot stays byte-stable;
/// v2 is emitted exactly when the scenario axis is actually used.  Decoders
/// accept both.
pub const CAMPAIGN_SPEC_SCHEMA_VERSION: u32 = 2;

/// The legacy spec wire version still emitted for single-default-scenario
/// campaigns (see [`CAMPAIGN_SPEC_SCHEMA_VERSION`]).
pub const LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION: u32 = 1;

/// Version of the [`CampaignReport`] wire schema.  Bumped whenever a
/// serialized *report* field changes meaning; decoders reject mismatched
/// versions with a typed error instead of misreading data.
///
/// * v1 — initial schema.
/// * v2 — [`CampaignReport`] gained `trace_generations` (trace-synthesis
///   memoization instrumentation, mirroring `baseline_runs`).
/// * v3 — scenario axes: the embedded spec may carry `scenarios` (spec v2)
///   and every cell / baseline carries its `scenario` key.
///
/// Mirroring the spec versioning, a report over a single-default-scenario
/// campaign still **encodes as v2** — cells carry no `scenario` field and
/// the embedded spec encodes as v1 — keeping the golden snapshots and every
/// pre-scenario consumer byte-stable.  Decoders accept v2 and v3.
pub const CAMPAIGN_SCHEMA_VERSION: u32 = 3;

/// The legacy report wire version still emitted for single-default-scenario
/// campaigns (see [`CAMPAIGN_SCHEMA_VERSION`]).
pub const LEGACY_CAMPAIGN_SCHEMA_VERSION: u32 = 2;

/// Everything that can go wrong assembling, decoding or running a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The simulator configuration was rejected.
    Config(ConfigError),
    /// The spec names no policies.
    NoPolicies,
    /// The spec names no traces.
    NoTraces,
    /// The spec asks for zero-length traces.
    ZeroTraceLength,
    /// The spec disables baselines but asks for the `baseline` policy
    /// column, whose cells *are* baseline runs — a contradiction.
    BaselinePolicyWithoutBaseline,
    /// Two trace selectors generate the same trace name; report cells are
    /// keyed by name, so duplicates would silently join to the wrong
    /// baseline.
    DuplicateTraceLabel(String),
    /// The same policy appears twice; report cells are keyed by policy
    /// name, so duplicates would double-count in every aggregate.
    DuplicatePolicy(String),
    /// The spec names no scenarios (a spec always carries at least the
    /// default overlay; an explicitly empty list is a construction bug).
    NoScenarios,
    /// Two scenarios share a name; cells are keyed by it.
    DuplicateScenario(String),
    /// A scenario's predictor or power axis was rejected by its owning
    /// crate's validator (machine rejections keep surfacing as
    /// [`CampaignError::Config`]).
    Scenario {
        /// The offending scenario's name.
        name: String,
        /// What its owning crate objected to.
        error: ScenarioError,
    },
    /// A serialized spec/report was produced by an incompatible schema.
    UnsupportedSchemaVersion {
        /// Version found in the document.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A serialized spec/report could not be decoded.
    Decode(String),
    /// A sharded run was asked for zero shards.
    ZeroShardCount,
    /// A shard names an index outside its own shard count.
    ShardIndexOutOfRange {
        /// Shard index found.
        index: usize,
        /// Shard count the shard claims to belong to.
        count: usize,
    },
    /// [`CampaignReport::merge`] was handed no shards.
    NoShards,
    /// Shards being merged disagree on the spec or shard count — they do not
    /// come from one partition of one campaign.
    ShardSetMismatch(String),
    /// Two shards being merged both carry the same trace row.
    ShardOverlap {
        /// Index (into the spec's trace list) claimed twice.
        trace_index: usize,
    },
    /// The shards being merged do not cover every trace row of the spec.
    IncompleteShardSet {
        /// First uncovered index into the spec's trace list.
        missing_trace_index: usize,
    },
    /// A shard's payload is internally inconsistent (wrong cell/baseline
    /// counts for its claimed rows) — typically a corrupt checkpoint file.
    MalformedShard {
        /// The shard's index.
        index: usize,
        /// What was wrong.
        reason: String,
    },
    /// A checkpoint directory could not be read, written or trusted.
    Checkpoint(String),
    /// The distributed fan-out coordination layer (lease files, manifest
    /// adoption, merge watching — see [`crate::fanout`]) failed in a way
    /// that is not attributable to any single shard payload.
    Fanout(String),
    /// A cell-cache directory could not be opened, trusted or written
    /// (see [`crate::cache::CellCache::open`]).
    Cache(String),
    /// A trace source — a recorded `.uoptrace` file or a phase schedule —
    /// could not be opened, validated or streamed.
    Trace(String),
    /// A figure asked a report for a (policy, trace) cell the report does
    /// not contain — the shape a truncated or partially-merged report takes.
    MissingCell {
        /// Policy of the absent cell.
        policy: String,
        /// Trace of the absent cell.
        trace: String,
    },
    /// A figure needed a trace's baseline but the report carries none —
    /// either baselines were disabled or the report is malformed.
    MissingBaseline {
        /// Trace whose baseline is absent.
        trace: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Config(e) => write!(f, "invalid simulator configuration: {e}"),
            CampaignError::NoPolicies => write!(f, "campaign names no policies"),
            CampaignError::NoTraces => write!(f, "campaign names no traces"),
            CampaignError::ZeroTraceLength => write!(f, "campaign trace length must be non-zero"),
            CampaignError::BaselinePolicyWithoutBaseline => write!(
                f,
                "campaign disables baselines but includes the baseline policy"
            ),
            CampaignError::DuplicateTraceLabel(label) => {
                write!(f, "campaign names the trace `{label}` more than once")
            }
            CampaignError::DuplicatePolicy(name) => {
                write!(f, "campaign names the policy `{name}` more than once")
            }
            CampaignError::NoScenarios => write!(f, "campaign names no scenarios"),
            CampaignError::DuplicateScenario(name) => {
                write!(f, "campaign names the scenario `{name}` more than once")
            }
            CampaignError::Scenario { name, error } => {
                write!(f, "invalid scenario `{name}`: {error}")
            }
            CampaignError::UnsupportedSchemaVersion { found, supported } => write!(
                f,
                "unsupported campaign schema version {found} (this build supports {supported})"
            ),
            CampaignError::Decode(msg) => write!(f, "malformed campaign document: {msg}"),
            CampaignError::ZeroShardCount => write!(f, "campaign shard count must be non-zero"),
            CampaignError::ShardIndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range for {count} shards")
            }
            CampaignError::NoShards => write!(f, "no shard reports to merge"),
            CampaignError::ShardSetMismatch(msg) => {
                write!(f, "shards do not belong to one campaign partition: {msg}")
            }
            CampaignError::ShardOverlap { trace_index } => {
                write!(
                    f,
                    "trace row {trace_index} is claimed by more than one shard"
                )
            }
            CampaignError::IncompleteShardSet {
                missing_trace_index,
            } => write!(
                f,
                "shard set does not cover trace row {missing_trace_index}"
            ),
            CampaignError::MalformedShard { index, reason } => {
                write!(f, "shard {index} is malformed: {reason}")
            }
            CampaignError::Checkpoint(msg) => write!(f, "campaign checkpoint error: {msg}"),
            CampaignError::Fanout(msg) => write!(f, "distributed fan-out error: {msg}"),
            CampaignError::Cache(msg) => write!(f, "cell cache error: {msg}"),
            CampaignError::Trace(msg) => write!(f, "trace source error: {msg}"),
            CampaignError::MissingCell { policy, trace } => {
                write!(
                    f,
                    "report has no cell for policy `{policy}` × trace `{trace}`"
                )
            }
            CampaignError::MissingBaseline { trace } => {
                write!(f, "report has no baseline for trace `{trace}`")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Config(e) => Some(e),
            CampaignError::Scenario { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<ConfigError> for CampaignError {
    fn from(e: ConfigError) -> CampaignError {
        CampaignError::Config(e)
    }
}

impl From<hc_trace::TraceError> for CampaignError {
    fn from(e: hc_trace::TraceError) -> CampaignError {
        CampaignError::Trace(e.to_string())
    }
}

/// How a campaign names one workload trace, declaratively.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceSelector {
    /// One of the 12 SPEC Int 2000 stand-ins.
    Spec(SpecBenchmark),
    /// The `app`-th application profile of a Table 2 workload category.
    CategoryApp {
        /// Workload category.
        category: WorkloadCategory,
        /// Application index within the category (0-based).
        app: usize,
    },
    /// An explicit workload profile.
    Profile(WorkloadProfile),
    /// A recorded `.uoptrace` file (see [`hc_trace::format`]).  The row
    /// streams from disk instead of being synthesized, its name and category
    /// travel inside the file, and its cache identity is the file's content
    /// digest — never its path.  The spec's `trace_len` does not apply; the
    /// file supplies exactly the µops that were recorded.
    File {
        /// Path to the `.uoptrace` file.
        path: String,
    },
    /// A phase-structured workload: an ordered composition of
    /// [`WorkloadProfile`] segments (see [`PhaseSchedule`]), streamed one
    /// phase at a time.  The schedule's per-phase µop budgets replace the
    /// spec's `trace_len`.
    Phased {
        /// The schedule to synthesize.
        schedule: PhaseSchedule,
    },
}

impl TraceSelector {
    /// The trace name this selector will generate.
    ///
    /// For a `File` row the name travels inside the recording, so this reads
    /// the file's tiny fixed header (a few hundred bytes); an unreadable
    /// file falls back to a path-derived placeholder here and then fails
    /// with a typed [`CampaignError::Trace`] when the campaign actually
    /// opens it.
    pub fn label(&self, trace_len: usize) -> String {
        match self {
            TraceSelector::Spec(b) => b.name().to_string(),
            TraceSelector::CategoryApp { category, app } => {
                category.app_profile(*app, trace_len).name
            }
            TraceSelector::Profile(p) => p.name.clone(),
            TraceSelector::File { path } => read_header(Path::new(path))
                .map(|h| h.name)
                .unwrap_or_else(|_| format!("file:{path}")),
            TraceSelector::Phased { schedule } => schedule.name.clone(),
        }
    }

    /// Generate the trace at the given dynamic length.
    ///
    /// # Panics
    ///
    /// Panics if a `File` row's recording cannot be read — campaign
    /// execution never takes this path for `File` rows (it streams them via
    /// the fallible [`FileSource`] route); this method is the eager adapter
    /// for callers that need a materialized [`Trace`].
    pub fn generate(&self, trace_len: usize) -> Trace {
        match self {
            TraceSelector::Spec(b) => b.trace(trace_len),
            TraceSelector::CategoryApp { category, app } => {
                category.app_profile(*app, trace_len).generate()
            }
            TraceSelector::Profile(p) => p.clone().with_trace_len(trace_len).generate(),
            TraceSelector::File { path } => match hc_trace::load_trace(Path::new(path)) {
                Ok(trace) => trace,
                Err(e) => panic!("cannot load trace file `{path}`: {e}"),
            },
            TraceSelector::Phased { schedule } => schedule.materialize(),
        }
    }

    /// The serialized trace identity cell-cache keys embed for this row.
    ///
    /// Synthesized selectors key cells by their own serde document exactly
    /// as before, so existing cache entries stay valid.  A `File` row keys
    /// by the recording's *content* — digest, µop count and encoding version
    /// from its header — never its path: moving or renaming a recording
    /// keeps its cached cells, while changing its µops invalidates them.
    pub fn cache_doc(&self) -> Result<serde::Value, CampaignError> {
        match self {
            TraceSelector::File { path } => {
                let header = read_header(Path::new(path))
                    .map_err(|e| CampaignError::Trace(format!("{path}: {e}")))?;
                Ok(serde::Value::Map(vec![(
                    "File".to_string(),
                    serde::Value::Map(vec![
                        (
                            "digest".to_string(),
                            serde::Value::Str(format!("{:016x}", header.content_digest)),
                        ),
                        ("uops".to_string(), serde::Value::UInt(header.uop_count)),
                        (
                            "isa_encoding".to_string(),
                            serde::Value::UInt(u64::from(header.isa_encoding_version)),
                        ),
                    ]),
                )]))
            }
            other => Ok(Serialize::to_value(other)),
        }
    }
}

/// A declarative policy × trace × scenario evaluation grid.
///
/// Serde-round-trippable: `serde::json::to_string` / `from_str` (or
/// [`CampaignSpec::to_json`] / [`CampaignSpec::from_json`], which also check
/// the schema version) reproduce the spec exactly.  A spec whose only
/// scenario is the legacy overlay serializes in the v1 wire shape (a
/// `config` field instead of `scenarios`), so pre-scenario documents keep
/// round-tripping byte-for-byte; see [`CAMPAIGN_SPEC_SCHEMA_VERSION`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Schema version this spec was written with (1 for single-default-
    /// scenario specs, 2 once the scenario axis is used).
    pub schema_version: u32,
    /// Campaign name, echoed into the report.
    pub name: String,
    /// Policies to evaluate (the grid's first axis).
    pub policies: Vec<PolicyKind>,
    /// Traces to evaluate on (the grid's second axis).
    pub traces: Vec<TraceSelector>,
    /// Dynamic µops per generated trace.
    pub trace_len: usize,
    /// Unmeasured priming runs per cell before the measured run: the policy
    /// instance (and its predictors) stays warm across them.  `0` reproduces
    /// [`Experiment::run`] exactly.
    pub warmup_runs: usize,
    /// Whether to simulate the monolithic baseline for every (trace,
    /// scenario) pair (needed for speedups; disable for stat-only sweeps to
    /// halve the work).
    pub include_baseline: bool,
    /// Machines under test (the grid's third axis).  Every scenario's
    /// baseline uses that scenario's machine with the helper cluster
    /// removed.
    pub scenarios: Vec<ScenarioSpec>,
}

/// The wire version a scenario list canonically encodes as: v1 while the
/// scenario axis is unused (one legacy overlay), v2 otherwise.
pub(crate) fn spec_wire_version(scenarios: &[ScenarioSpec]) -> u32 {
    match scenarios {
        [only] if only.is_legacy_overlay() => LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
        _ => CAMPAIGN_SPEC_SCHEMA_VERSION,
    }
}

/// The report wire version for a spec: legacy v2 for legacy (v1) specs,
/// v3 once the scenario axis is used.
pub(crate) fn report_wire_version(spec: &CampaignSpec) -> u32 {
    if spec.is_single_default_scenario() {
        LEGACY_CAMPAIGN_SCHEMA_VERSION
    } else {
        CAMPAIGN_SCHEMA_VERSION
    }
}

impl CampaignSpec {
    /// The wire version this spec serializes as.  Normally the canonical
    /// version of its scenario list, but a spec that *declares* v2 (e.g. a
    /// decoded v2 document whose scenario list happens to be the single
    /// default overlay — a shape v2 permits) keeps v2, so decode → encode
    /// is the identity for every accepted document.
    pub fn wire_version(&self) -> u32 {
        if self.schema_version == CAMPAIGN_SPEC_SCHEMA_VERSION {
            CAMPAIGN_SPEC_SCHEMA_VERSION
        } else {
            spec_wire_version(&self.scenarios)
        }
    }

    /// Whether this spec runs on the legacy single-default-scenario path —
    /// the case that keeps every wire format (spec, report, shard, cells)
    /// byte-identical to the pre-scenario engine.  A spec that explicitly
    /// declares the v2 schema opts out even with a single default overlay.
    pub fn is_single_default_scenario(&self) -> bool {
        self.wire_version() == LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION
    }

    /// The machine of the spec's first scenario — the single machine of
    /// every pre-scenario campaign, kept as a convenience accessor.
    ///
    /// # Panics
    ///
    /// Panics if the spec names no scenarios (invalid; [`CampaignSpec::validate`]
    /// rejects it).
    pub fn primary_machine(&self) -> &SimConfig {
        &self
            .scenarios
            .first()
            .expect("validated specs have at least one scenario")
            .machine
    }

    /// Validate the spec, returning the first problem found.
    pub fn validate(&self) -> Result<(), CampaignError> {
        // Accepted versions: the canonical encoding of this scenario list,
        // or an explicit v2 declaration (v2 is a superset — any scenario
        // list is expressible in it).  Rejected: v1 claimed for a list that
        // needs v2, or unknown versions.
        let canonical = spec_wire_version(&self.scenarios);
        if self.schema_version != canonical && self.schema_version != CAMPAIGN_SPEC_SCHEMA_VERSION {
            return Err(CampaignError::UnsupportedSchemaVersion {
                found: self.schema_version,
                supported: CAMPAIGN_SPEC_SCHEMA_VERSION,
            });
        }
        if self.policies.is_empty() {
            return Err(CampaignError::NoPolicies);
        }
        if self.traces.is_empty() {
            return Err(CampaignError::NoTraces);
        }
        if self.trace_len == 0 {
            return Err(CampaignError::ZeroTraceLength);
        }
        if !self.include_baseline && self.policies.contains(&PolicyKind::Baseline) {
            return Err(CampaignError::BaselinePolicyWithoutBaseline);
        }
        let mut policies = std::collections::BTreeSet::new();
        for kind in &self.policies {
            if !policies.insert(kind.name()) {
                return Err(CampaignError::DuplicatePolicy(kind.name().to_string()));
            }
        }
        let mut labels = std::collections::BTreeSet::new();
        for selector in &self.traces {
            if let TraceSelector::Phased { schedule } = selector {
                if schedule.phases.is_empty() {
                    return Err(CampaignError::Trace(format!(
                        "phase schedule `{}` has no phases",
                        schedule.name
                    )));
                }
                if schedule.phases.iter().any(|p| p.uops == 0) {
                    return Err(CampaignError::Trace(format!(
                        "phase schedule `{}` has a zero-length phase",
                        schedule.name
                    )));
                }
            }
            let label = selector.label(self.trace_len);
            if !labels.insert(label.clone()) {
                return Err(CampaignError::DuplicateTraceLabel(label));
            }
        }
        if self.scenarios.is_empty() {
            return Err(CampaignError::NoScenarios);
        }
        let mut scenario_names = std::collections::BTreeSet::new();
        for scenario in &self.scenarios {
            if !scenario_names.insert(scenario.name.clone()) {
                return Err(CampaignError::DuplicateScenario(scenario.name.clone()));
            }
            scenario.validate().map_err(|error| match error {
                // Machine rejections keep their pre-scenario shape so
                // existing error handling (and its source chain) still works.
                ScenarioError::Machine(e) => CampaignError::Config(e),
                other => CampaignError::Scenario {
                    name: scenario.name.clone(),
                    error: other,
                },
            })?;
        }
        Ok(())
    }

    /// Number of policy × trace × scenario cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.policies.len() * self.traces.len() * self.scenarios.len()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Decode from JSON (v1 or v2), checking the schema version first.
    pub fn from_json(text: &str) -> Result<CampaignSpec, CampaignError> {
        let value = decode_versioned(
            text,
            &[
                LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
                CAMPAIGN_SPEC_SCHEMA_VERSION,
            ],
        )?;
        Deserialize::from_value(&value).map_err(|e| CampaignError::Decode(e.to_string()))
    }
}

impl Serialize for CampaignSpec {
    fn to_value(&self) -> serde::Value {
        let version = self.wire_version();
        let mut fields = vec![
            (
                "schema_version".to_string(),
                serde::Value::UInt(version as u64),
            ),
            ("name".to_string(), Serialize::to_value(&self.name)),
            ("policies".to_string(), Serialize::to_value(&self.policies)),
            ("traces".to_string(), Serialize::to_value(&self.traces)),
            (
                "trace_len".to_string(),
                Serialize::to_value(&self.trace_len),
            ),
            (
                "warmup_runs".to_string(),
                Serialize::to_value(&self.warmup_runs),
            ),
            (
                "include_baseline".to_string(),
                Serialize::to_value(&self.include_baseline),
            ),
        ];
        if version == LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION {
            // The v1 wire shape: the single legacy scenario's machine as the
            // `config` field, byte-identical to pre-scenario specs.
            fields.push((
                "config".to_string(),
                Serialize::to_value(&self.scenarios[0].machine),
            ));
        } else {
            fields.push((
                "scenarios".to_string(),
                Serialize::to_value(&self.scenarios),
            ));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for CampaignSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct CampaignSpec"))?;
        let schema_version: u32 = serde::de_field(m, "schema_version")?;
        let scenarios = match schema_version {
            LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION => {
                let config: SimConfig = serde::de_field(m, "config")?;
                vec![ScenarioSpec::overlay_of(config)]
            }
            CAMPAIGN_SPEC_SCHEMA_VERSION => serde::de_field(m, "scenarios")?,
            other => {
                return Err(serde::Error::custom(format!(
                    "unsupported campaign spec schema version {other}"
                )))
            }
        };
        Ok(CampaignSpec {
            schema_version,
            name: serde::de_field(m, "name")?,
            policies: serde::de_field(m, "policies")?,
            traces: serde::de_field(m, "traces")?,
            trace_len: serde::de_field(m, "trace_len")?,
            warmup_runs: serde::de_field(m, "warmup_runs")?,
            include_baseline: serde::de_field(m, "include_baseline")?,
            scenarios,
        })
    }
}

/// Parse JSON and verify its `schema_version` field against the `supported`
/// versions before full decoding.  A mismatch reports the newest supported
/// version.
pub(crate) fn decode_versioned(
    text: &str,
    supported: &[u32],
) -> Result<serde::Value, CampaignError> {
    let value = serde::json::parse(text).map_err(|e| CampaignError::Decode(e.to_string()))?;
    let found = match value.get("schema_version") {
        Some(serde::Value::UInt(n)) => *n as u32,
        _ => return Err(CampaignError::Decode("missing schema_version".to_string())),
    };
    if !supported.contains(&found) {
        return Err(CampaignError::UnsupportedSchemaVersion {
            found,
            supported: *supported.iter().max().expect("non-empty version list"),
        });
    }
    Ok(value)
}

/// Fluent constructor for [`CampaignSpec`].
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    spec: CampaignSpec,
    /// Base machine the implicit default scenario — and every sensitivity
    /// preset — derives from.
    machine: SimConfig,
    /// Requested scenario axis, expanded against the final base machine at
    /// [`CampaignBuilder::build`] so `.config(..)` works in any call order;
    /// empty means "the single default overlay of `machine`" (the legacy
    /// campaign shape).
    scenarios: Vec<ScenarioRequest>,
}

/// One deferred scenario-axis request; presets expand at build time so they
/// see the builder's *final* base machine regardless of call order.
#[derive(Debug, Clone)]
enum ScenarioRequest {
    Explicit(Box<ScenarioSpec>),
    HelperGeometry,
    WidthPredictor,
}

impl ScenarioRequest {
    fn expand(self, machine: &SimConfig, out: &mut Vec<ScenarioSpec>) {
        match self {
            ScenarioRequest::Explicit(scenario) => out.push(*scenario),
            ScenarioRequest::HelperGeometry => {
                for width_bits in [4u32, 8, 16] {
                    for ratio in [1u32, 2, 4] {
                        out.push(
                            ScenarioSpec::named(format!("hw{width_bits}_cr{ratio}x")).with_machine(
                                SimConfig {
                                    helper_width_bits: width_bits,
                                    helper_clock_ratio: ratio,
                                    ..machine.clone()
                                },
                            ),
                        );
                    }
                }
            }
            ScenarioRequest::WidthPredictor => {
                for entries in [256usize, 512, 1024, 2048, 4096] {
                    out.push(
                        ScenarioSpec::named(format!("wp{entries}"))
                            .with_machine(machine.clone())
                            .with_predictors(hc_predictors::PredictorConfig::with_all_entries(
                                entries,
                            )),
                    );
                }
            }
        }
    }
}

impl CampaignBuilder {
    /// Start a campaign with the paper-baseline machine as its single
    /// (default) scenario, no policies and no traces.
    pub fn new(name: impl Into<String>) -> CampaignBuilder {
        CampaignBuilder {
            spec: CampaignSpec {
                schema_version: LEGACY_CAMPAIGN_SPEC_SCHEMA_VERSION,
                name: name.into(),
                policies: Vec::new(),
                traces: Vec::new(),
                trace_len: 10_000,
                warmup_runs: 0,
                include_baseline: true,
                scenarios: Vec::new(),
            },
            machine: SimConfig::paper_baseline(),
            scenarios: Vec::new(),
        }
    }

    /// Add one policy column.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.spec.policies.push(kind);
        self
    }

    /// Add several policy columns.
    pub fn policies(mut self, kinds: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.spec.policies.extend(kinds);
        self
    }

    /// Add the paper's seven helper-cluster policies (everything except the
    /// monolithic baseline), in the order the paper introduces them.
    pub fn paper_policies(self) -> Self {
        self.policies(
            PolicyKind::ALL
                .into_iter()
                .filter(|&k| k != PolicyKind::Baseline),
        )
    }

    /// Add one trace row.
    pub fn trace(mut self, selector: TraceSelector) -> Self {
        self.spec.traces.push(selector);
        self
    }

    /// Add one SPEC stand-in trace row.
    pub fn spec(self, benchmark: SpecBenchmark) -> Self {
        self.trace(TraceSelector::Spec(benchmark))
    }

    /// Add a recorded `.uoptrace` file as a trace row (streamed from disk).
    pub fn trace_file(self, path: impl Into<String>) -> Self {
        self.trace(TraceSelector::File { path: path.into() })
    }

    /// Add a phase-structured workload as a trace row (streamed one phase
    /// at a time).
    pub fn phased(self, schedule: PhaseSchedule) -> Self {
        self.trace(TraceSelector::Phased { schedule })
    }

    /// Add all 12 SPEC Int 2000 stand-in rows.
    pub fn spec_suite(mut self) -> Self {
        self.spec
            .traces
            .extend(SpecBenchmark::ALL.iter().map(|&b| TraceSelector::Spec(b)));
        self
    }

    /// Add the `app`-th application of a Table 2 category as a row.
    pub fn category_app(self, category: WorkloadCategory, app: usize) -> Self {
        self.trace(TraceSelector::CategoryApp { category, app })
    }

    /// Add up to `apps_per_category` applications from every Table 2 category,
    /// in category-then-app order.  The rows are *selectors* — each trace is
    /// synthesized on the fly inside a worker when the campaign runs, so even
    /// very large suites never sit in memory all at once.
    pub fn category_suite(mut self, apps_per_category: usize) -> Self {
        for cat in WorkloadCategory::ALL {
            for app in 0..apps_per_category.min(cat.trace_count()) {
                self = self.category_app(cat, app);
            }
        }
        self
    }

    /// Add every application of every Table 2 category — the paper's full
    /// 409-trace §3.8 suite — as selector rows.
    pub fn full_table2_suite(self) -> Self {
        self.category_suite(usize::MAX)
    }

    /// Add an explicit workload profile as a row.
    pub fn profile(self, profile: WorkloadProfile) -> Self {
        self.trace(TraceSelector::Profile(profile))
    }

    /// Set the dynamic µop count per generated trace.
    pub fn trace_len(mut self, len: usize) -> Self {
        self.spec.trace_len = len;
        self
    }

    /// Set the number of unmeasured predictor-priming runs per cell.
    pub fn warmup_runs(mut self, runs: usize) -> Self {
        self.spec.warmup_runs = runs;
        self
    }

    /// Skip the monolithic baseline simulations (stat-only sweeps).
    pub fn without_baseline(mut self) -> Self {
        self.spec.include_baseline = false;
        self
    }

    /// Use a custom helper-cluster simulator configuration as the base
    /// machine: it becomes the default scenario's machine, and every
    /// sensitivity preset derives its machines from it.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.machine = config;
        self
    }

    /// Add one explicit scenario (machine + predictors + power overlay).
    /// The first scenario request replaces the implicit default; add
    /// [`ScenarioSpec::paper_default`] yourself to keep the paper design
    /// point as a comparison column.
    pub fn scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenarios
            .push(ScenarioRequest::Explicit(Box::new(scenario)));
        self
    }

    /// Add several explicit scenarios.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = ScenarioSpec>) -> Self {
        self.scenarios.extend(
            scenarios
                .into_iter()
                .map(|s| ScenarioRequest::Explicit(Box::new(s))),
        );
        self
    }

    /// The §2 helper-geometry sensitivity plane: helper datapath width
    /// {4, 8, 16} bits × helper clock ratio {1×, 2×, 4×}, nine scenarios
    /// derived from the base machine and named `hw{width}_cr{ratio}x`.  The
    /// paper's design point is `hw8_cr2x`.  Expansion happens at
    /// [`CampaignBuilder::build`], so a later `.config(..)` still applies.
    pub fn sensitivity_helper_geometry(mut self) -> Self {
        self.scenarios.push(ScenarioRequest::HelperGeometry);
        self
    }

    /// The §3.2 width-predictor sizing sensitivity: table entries
    /// {256, 512, 1024, 2048, 4096} (carry and copy tables scale along, as
    /// in the paper's complexity study), scenarios named `wp{entries}` over
    /// the base machine.  The paper's design point is `wp256`.  Expansion
    /// happens at [`CampaignBuilder::build`], so a later `.config(..)`
    /// still applies.
    pub fn sensitivity_width_predictor(mut self) -> Self {
        self.scenarios.push(ScenarioRequest::WidthPredictor);
        self
    }

    /// Validate and produce the spec.  Scenario requests expand here,
    /// against the final base machine.
    pub fn build(mut self) -> Result<CampaignSpec, CampaignError> {
        self.spec.scenarios = if self.scenarios.is_empty() {
            vec![ScenarioSpec::overlay_of(self.machine)]
        } else {
            let mut scenarios = Vec::new();
            for request in self.scenarios {
                request.expand(&self.machine, &mut scenarios);
            }
            scenarios
        };
        self.spec.schema_version = spec_wire_version(&self.spec.scenarios);
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// A completed-cell notification delivered to the progress hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignProgress {
    /// Cells finished so far (including this one).
    pub completed_cells: usize,
    /// Total cells in the grid.
    pub total_cells: usize,
    /// Policy of the cell that just finished.
    pub policy: String,
    /// Trace of the cell that just finished.
    pub trace: String,
    /// Scenario of the cell that just finished (`"default"` on the legacy
    /// single-scenario path).
    pub scenario: String,
}

/// Shared progress-hook type: called once per finished cell, possibly from
/// worker threads.
pub type ProgressHook = Arc<dyn Fn(&CampaignProgress) + Send + Sync>;

/// One policy × trace × scenario measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Policy name (stable report key, from [`PolicyKind::name`]).
    pub policy: String,
    /// Trace name.
    pub trace: String,
    /// Workload category of the trace, if any.
    pub category: Option<String>,
    /// Scenario name this cell was measured under; `None` on the legacy
    /// single-default-scenario path (and omitted from the serialized form,
    /// keeping pre-scenario documents byte-identical).
    pub scenario: Option<String>,
    /// Measured statistics of the policy run.
    pub stats: SimStats,
}

/// One (trace, scenario) monolithic-baseline measurement (shared by every
/// cell of that trace under that scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRun {
    /// Trace name.
    pub trace: String,
    /// Workload category of the trace, if any.
    pub category: Option<String>,
    /// Scenario name; `None` on the legacy single-default-scenario path
    /// (omitted from the serialized form).
    pub scenario: Option<String>,
    /// Baseline statistics.
    pub stats: SimStats,
}

/// Serialize trace/category/[scenario]/stats-shaped rows: the `scenario`
/// key appears only when set, so legacy documents stay byte-identical.
fn row_to_value(
    policy: Option<&String>,
    trace: &String,
    category: &Option<String>,
    scenario: &Option<String>,
    stats: &SimStats,
) -> serde::Value {
    let mut fields = Vec::with_capacity(5);
    if let Some(policy) = policy {
        fields.push(("policy".to_string(), Serialize::to_value(policy)));
    }
    fields.push(("trace".to_string(), Serialize::to_value(trace)));
    fields.push(("category".to_string(), Serialize::to_value(category)));
    if scenario.is_some() {
        fields.push(("scenario".to_string(), Serialize::to_value(scenario)));
    }
    fields.push(("stats".to_string(), Serialize::to_value(stats)));
    serde::Value::Map(fields)
}

/// Decode an optional `scenario` key (absent on legacy documents).
fn scenario_from_map(m: &[(String, serde::Value)]) -> Result<Option<String>, serde::Error> {
    match m.iter().find(|(k, _)| k == "scenario") {
        Some((_, v)) => Deserialize::from_value(v),
        None => Ok(None),
    }
}

impl Serialize for CampaignCell {
    fn to_value(&self) -> serde::Value {
        row_to_value(
            Some(&self.policy),
            &self.trace,
            &self.category,
            &self.scenario,
            &self.stats,
        )
    }
}

impl Deserialize for CampaignCell {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct CampaignCell"))?;
        Ok(CampaignCell {
            policy: serde::de_field(m, "policy")?,
            trace: serde::de_field(m, "trace")?,
            category: serde::de_field(m, "category")?,
            scenario: scenario_from_map(m)?,
            stats: serde::de_field(m, "stats")?,
        })
    }
}

impl Serialize for BaselineRun {
    fn to_value(&self) -> serde::Value {
        row_to_value(
            None,
            &self.trace,
            &self.category,
            &self.scenario,
            &self.stats,
        )
    }
}

impl Deserialize for BaselineRun {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct BaselineRun"))?;
        Ok(BaselineRun {
            trace: serde::de_field(m, "trace")?,
            category: serde::de_field(m, "category")?,
            scenario: scenario_from_map(m)?,
            stats: serde::de_field(m, "stats")?,
        })
    }
}

/// The versioned output of a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Schema version of this report (legacy v2 for single-default-scenario
    /// campaigns, v3 once the scenario axis is used).
    pub schema_version: u32,
    /// Campaign name (from the spec).
    pub name: String,
    /// The spec that produced this report, embedded for replayability.
    pub spec: CampaignSpec,
    /// One baseline run per (trace, scenario), trace-major in spec order
    /// (empty when the spec disabled baselines).
    pub baselines: Vec<BaselineRun>,
    /// All policy × trace × scenario cells, trace-major then scenario-major
    /// in spec order.
    pub cells: Vec<CampaignCell>,
    /// Number of monolithic baseline results materialized — the memoization
    /// instrumentation: always ≤ traces × scenarios, never
    /// policies × traces × scenarios.  Counted whether each baseline was
    /// simulated or restored from a [`CellCache`] (restoring still
    /// materializes one baseline per (trace, scenario)), so reports stay
    /// byte-identical between cold and warm cache runs; cache hit/miss
    /// accounting lives in [`CellCache::activity`], not in the report.
    pub baseline_runs: usize,
    /// Number of [`TraceSelector::generate`] calls actually performed — the
    /// trace-memoization instrumentation mirroring `baseline_runs`: each
    /// grid row is synthesized exactly once and shared across every policy
    /// column, every warmup run *and every scenario*, so this is always the
    /// number of traces.
    pub trace_generations: usize,
}

impl CampaignReport {
    /// The baseline statistics for a trace, if baselines were run.  On
    /// multi-scenario reports this returns the *first* scenario's baseline;
    /// use [`CampaignReport::baseline_for_scenario`] to pick one.
    pub fn baseline_for(&self, trace: &str) -> Option<&SimStats> {
        self.baselines
            .iter()
            .find(|b| b.trace == trace)
            .map(|b| &b.stats)
    }

    /// The baseline statistics for a (trace, scenario) pair; `None` as the
    /// scenario selects the legacy default-scenario baselines.
    pub fn baseline_for_scenario(&self, trace: &str, scenario: Option<&str>) -> Option<&SimStats> {
        self.baselines
            .iter()
            .find(|b| b.trace == trace && b.scenario.as_deref() == scenario)
            .map(|b| &b.stats)
    }

    /// The cell for a (policy, trace) pair.  On multi-scenario reports this
    /// returns the first scenario's cell; use
    /// [`CampaignReport::cell_for_scenario`] to pick one.
    pub fn cell(&self, policy: &str, trace: &str) -> Option<&CampaignCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.trace == trace)
    }

    /// The cell for a (policy, trace, scenario) triple.
    pub fn cell_for_scenario(
        &self,
        policy: &str,
        trace: &str,
        scenario: Option<&str>,
    ) -> Option<&CampaignCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.trace == trace && c.scenario.as_deref() == scenario)
    }

    /// Display keys of every scenario in this report, in spec order
    /// (`["default"]` for legacy single-scenario campaigns).
    pub fn scenario_keys(&self) -> Vec<String> {
        if self.spec.is_single_default_scenario() {
            vec![DEFAULT_SCENARIO_NAME.to_string()]
        } else {
            self.spec.scenarios.iter().map(|s| s.name.clone()).collect()
        }
    }

    /// The cell's own-scenario baseline: the join every aggregate uses, so
    /// each measurement is compared against the monolithic machine *of its
    /// scenario*, never against another machine's baseline.
    fn baseline_for_cell(&self, cell: &CampaignCell) -> Option<&SimStats> {
        self.baseline_for_scenario(&cell.trace, cell.scenario.as_deref())
    }

    fn join_cell(&self, cell: &CampaignCell) -> Option<ExperimentResult> {
        let baseline = self.baseline_for_cell(cell)?;
        Some(ExperimentResult {
            policy: cell.policy.clone(),
            trace: cell.trace.clone(),
            category: cell.category.clone(),
            stats: cell.stats.clone(),
            baseline: baseline.clone(),
        })
    }

    /// Join every cell with its trace baseline into classic
    /// [`ExperimentResult`]s (cells without a baseline are skipped).
    pub fn experiment_results(&self) -> Vec<ExperimentResult> {
        self.cells
            .iter()
            .filter_map(|c| self.join_cell(c))
            .collect()
    }

    /// [`ExperimentResult`]s for one policy, in trace order.  Filters before
    /// joining, so only the requested policy's cells are cloned.
    pub fn results_for_policy(&self, policy: &str) -> Vec<ExperimentResult> {
        self.cells
            .iter()
            .filter(|c| c.policy == policy)
            .filter_map(|c| self.join_cell(c))
            .collect()
    }

    /// Mean speedup of one policy per workload category (cells without a
    /// category label group under `"uncategorized"`) — the aggregation behind
    /// the paper's Figure 14 (left).
    pub fn mean_speedup_by_category(&self, policy: &str) -> BTreeMap<String, f64> {
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for cell in self.cells.iter().filter(|c| c.policy == policy) {
            let Some(baseline) = self.baseline_for_cell(cell) else {
                continue;
            };
            let cat = cell
                .category
                .clone()
                .unwrap_or_else(|| "uncategorized".to_string());
            let e = sums.entry(cat).or_insert((0.0, 0));
            e.0 += cell.stats.speedup_over(baseline);
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (s, n))| (k, s / n as f64))
            .collect()
    }

    /// One policy's per-trace speedups sorted ascending — the S-curve of
    /// Figure 14 (right).  Each cell is compared against its own scenario's
    /// baseline; multi-scenario curves pool every scenario's points.
    ///
    /// **Degenerate-cell policy:** the sort uses [`f64::total_cmp`], so the
    /// curve is a deterministic total order for *any* input — the old
    /// `partial_cmp(..).unwrap_or(Equal)` comparator was not a valid
    /// ordering in the presence of NaN and could leave NaNs interleaved
    /// mid-curve (where they silently corrupt the median/percentile
    /// summaries read off the curve).  Zero-cycle cells (empty runs) measure
    /// a speedup of `0.0` (see `SimStats::speedup_over`) and sort to the
    /// front; NaNs cannot be produced by the engine, but a hand-built
    /// report's negative NaNs sort first and positive NaNs last, never in
    /// the middle.
    pub fn speedup_curve(&self, policy: &str) -> Vec<f64> {
        let mut curve: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.policy == policy)
            .filter_map(|c| self.baseline_for_cell(c).map(|b| c.stats.speedup_over(b)))
            .collect();
        curve.sort_by(f64::total_cmp);
        curve
    }

    /// Arithmetic-mean speedup of one policy over the grid's traces (and
    /// scenarios).  Computed in place — no result vectors are materialized.
    pub fn mean_speedup(&self, policy: &str) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for cell in self.cells.iter().filter(|c| c.policy == policy) {
            if let Some(baseline) = self.baseline_for_cell(cell) {
                sum += cell.stats.speedup_over(baseline);
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Mean speedup of one policy per scenario — the sensitivity-study
    /// aggregation: each scenario's cells against that scenario's baselines.
    /// Legacy cells group under `"default"`.
    pub fn speedup_by_scenario(&self, policy: &str) -> BTreeMap<String, f64> {
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for cell in self.cells.iter().filter(|c| c.policy == policy) {
            let Some(baseline) = self.baseline_for_cell(cell) else {
                continue;
            };
            let key = cell
                .scenario
                .clone()
                .unwrap_or_else(|| DEFAULT_SCENARIO_NAME.to_string());
            let e = sums.entry(key).or_insert((0.0, 0));
            e.0 += cell.stats.speedup_over(baseline);
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (s, n))| (k, s / n as f64))
            .collect()
    }

    /// The power parameters a scenario key's energy accounting uses.
    fn scenario_power(&self, key: &str) -> PowerParams {
        self.spec
            .scenarios
            .iter()
            .find(|s| s.name == key)
            .map(|s| s.power)
            .unwrap_or_default()
    }

    /// Mean energy-delay² improvement (fraction; positive = the helper
    /// machine wins) of one policy per scenario, each scenario evaluated
    /// under **its own** [`PowerParams`] — the §3.7 ED² comparison as a
    /// sensitivity axis.
    pub fn ed2_by_scenario(&self, policy: &str) -> BTreeMap<String, f64> {
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for cell in self.cells.iter().filter(|c| c.policy == policy) {
            let Some(baseline) = self.baseline_for_cell(cell) else {
                continue;
            };
            let key = cell
                .scenario
                .clone()
                .unwrap_or_else(|| DEFAULT_SCENARIO_NAME.to_string());
            let model = PowerModel::new(self.scenario_power(&key));
            let cmp = Ed2Comparison::compare(&model, baseline, &cell.stats);
            let e = sums.entry(key).or_insert((0.0, 0));
            e.0 += cmp.improvement;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (s, n))| (k, s / n as f64))
            .collect()
    }

    /// Serialize to pretty JSON (stable, versioned schema).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Decode from JSON (legacy v2 or scenario-aware v3), checking the
    /// schema version first.
    pub fn from_json(text: &str) -> Result<CampaignReport, CampaignError> {
        let value = decode_versioned(
            text,
            &[LEGACY_CAMPAIGN_SCHEMA_VERSION, CAMPAIGN_SCHEMA_VERSION],
        )?;
        Deserialize::from_value(&value).map_err(|e| CampaignError::Decode(e.to_string()))
    }

    /// Render as CSV (see [`crate::report::campaign_to_csv`]).
    pub fn to_csv(&self) -> String {
        crate::report::campaign_to_csv(self)
    }
}
