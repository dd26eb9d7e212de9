//! Probes shared by the workloads: re-synthesize and re-simulate a
//! campaign's rows from outside the campaign engine, and total a report's
//! simulator statistics.

use crate::spans::Spans;
use crate::{Layer, Ledger};
use hc_core::campaign::{CampaignReport, CampaignSpec};
use hc_core::Experiment;
use hc_sim::{ExecContext, SimStats};

/// Committed µops of the runs the simulator probe executed (internal value
/// behind `sim.uops_per_s`).
pub(crate) const SIMULATED_UOPS: &str = "_sim.simulated_uops";

/// Cycles of the runs the simulator probe executed (internal value behind
/// `sim.ns_per_cycle`).
pub(crate) const SIMULATED_CYCLES: &str = "_sim.simulated_cycles";

/// Synthesize `rows` of `spec` through [`hc_core::TraceSelector::generate`]
/// (`trace.synth` spans) and, when `simulate`, run each row's baseline and
/// policy cells through [`Experiment`] (`sim.run` spans), checking every
/// result against the cell the campaign engine put in `report`.
pub(crate) fn replay_rows(
    spec: &CampaignSpec,
    rows: &[usize],
    report: &CampaignReport,
    simulate: bool,
    spans: &mut Spans,
    ledger: &mut Ledger,
    layer: &mut Layer,
) {
    let experiment = match Experiment::try_new(spec.primary_machine().clone()) {
        Ok(e) => e,
        Err(e) => return ledger.op("probe: build experiment", Err(e.to_string())),
    };
    let mut ctx = ExecContext::new();
    let mut mismatches = Vec::new();
    for selector in rows.iter().map(|&row| &spec.traces[row]) {
        let trace = spans.span("trace.synth", || selector.generate(spec.trace_len));
        layer.add("trace.uops", trace.len() as f64);
        if !simulate {
            continue;
        }
        let mut check = |what: &str, ran: SimStats, engine: Option<&SimStats>| {
            layer.add(SIMULATED_UOPS, ran.committed_uops as f64);
            layer.add(SIMULATED_CYCLES, ran.cycles as f64);
            if engine != Some(&ran) {
                mismatches.push(format!("{what} × {}", trace.name));
            }
        };
        if spec.include_baseline {
            let ran = spans.span("sim.run", || experiment.run_baseline_with(&mut ctx, &trace));
            check("baseline", ran, report.baseline_for(&trace.name));
        }
        for &kind in &spec.policies {
            let ran = spans.span("sim.run", || {
                experiment.run_policy_warmed_with(&mut ctx, &trace, kind, spec.warmup_runs)
            });
            let engine = report.cell(kind.name(), &trace.name).map(|c| &c.stats);
            check(kind.name(), ran, engine);
        }
    }
    if simulate {
        let verdict = match mismatches.first() {
            None => Ok(()),
            Some(first) => Err(format!(
                "{} runs differ from the report (first: {first})",
                mismatches.len()
            )),
        };
        ledger.op("probe: simulator reproduces the report's cells", verdict);
    }
}

/// Set the `sim.*` statistic totals over every baseline and cell of
/// `report`.
pub(crate) fn report_totals(report: &CampaignReport, layer: &mut Layer) {
    let runs = report
        .baselines
        .iter()
        .map(|b| &b.stats)
        .chain(report.cells.iter().map(|c| &c.stats));
    for stats in runs {
        layer.add("sim.cycles", stats.cycles as f64);
        layer.add("sim.committed_uops", stats.committed_uops as f64);
        layer.add("sim.helper_uops", stats.helper_uops as f64);
        layer.add("sim.copy_uops", stats.copy_uops as f64);
        layer.add(
            "sim.fatal_width_mispredicts",
            stats.fatal_width_mispredicts as f64,
        );
    }
}

/// 64-bit FNV-1a, for output digests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit, so ("ab", "c") and ("a", "bc") differ.
        for b in (bytes.len() as u64).to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}
