//! The `figures` workload: every figure and table the default `reproduce`
//! invocation regenerates, in its order, through `hc_core::figures`.
//!
//! The figure set takes no inputs, so it does not depend on the seed.  Its
//! output check is a digest over every figure value: set-up computes the
//! reference once and each repetition must reproduce it bit for bit.

use crate::host;
use crate::probe::{self, Fnv};
use crate::spans::Spans;
use crate::{Bench, Fault, Layer, Ledger, Rep, Scale};
use hc_core::campaign::{CampaignBuilder, CampaignError, CampaignRunner};
use hc_core::figures::{self, Figure};
use hc_core::policy::PolicyKind;
use hc_core::suite::SuiteRunner;
use hc_power::{Ed2Comparison, PowerModel};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One figure job: regenerate the figure and fold its values into a digest.
type Job = fn(&Scale, &mut Fnv) -> Result<(), CampaignError>;

/// The default `reproduce` figure set, in `reproduce`'s order; each entry's
/// name is its span.
const FIGURE_SET: [(&str, Job); 15] = [
    ("figures.table1", |_, d| {
        for (k, v) in figures::table1() {
            d.str(&k);
            d.str(&v);
        }
        Ok(())
    }),
    ("figures.table2", |_, d| {
        for (abbrev, count, desc) in figures::table2() {
            d.str(&abbrev);
            d.f64(count as f64);
            d.str(&desc);
        }
        Ok(())
    }),
    ("figures.fig1", |s, d| {
        digest(d, &figures::fig1(s.trace_len))
    }),
    ("figures.fig5", |s, d| {
        digest(d, &figures::fig5(s.trace_len)?)
    }),
    ("figures.fig6", |s, d| {
        digest(d, &figures::fig6(s.trace_len)?)
    }),
    ("figures.fig7", |s, d| {
        digest(d, &figures::fig7(s.trace_len)?)
    }),
    ("figures.fig8", |s, d| {
        digest(d, &figures::fig8(s.trace_len)?)
    }),
    ("figures.fig9", |s, d| {
        digest(d, &figures::fig9(s.trace_len)?)
    }),
    ("figures.fig11", |s, d| {
        digest(d, &figures::fig11(s.trace_len))
    }),
    ("figures.fig12", |s, d| {
        digest(d, &figures::fig12(s.trace_len)?)
    }),
    ("figures.fig13", |s, d| {
        digest(d, &figures::fig13(s.trace_len))
    }),
    ("figures.headline", |s, d| {
        digest(d, &figures::headline(s.trace_len)?)
    }),
    ("figures.fig14", |s, d| {
        // One suite campaign feeds the per-category bars and the S-curve.
        let report = figures::suite_report(s.figure_apps, s.trace_len)?;
        digest(d, &figures::fig14_categories_from(&report))?;
        for v in report.speedup_curve(PolicyKind::Ir.name()) {
            d.f64(v);
        }
        Ok(())
    }),
    ("figures.ed2", |s, d| {
        // §3.7: energy-delay² of IR against the baseline over SPEC.
        let spec = CampaignBuilder::new("ed2")
            .policy(PolicyKind::Ir)
            .spec_suite()
            .trace_len(s.trace_len)
            .build()?;
        let report = CampaignRunner::new().run(&spec)?;
        let model = PowerModel::default();
        for r in report.experiment_results() {
            d.f64(Ed2Comparison::compare(&model, &r.baseline, &r.stats).improvement);
        }
        Ok(())
    }),
    ("figures.summary", |s, d| {
        // The abstract's numbers: SPEC and wide-suite averages under IR.
        let runner = SuiteRunner::default();
        d.f64(
            runner
                .run_spec(s.trace_len, PolicyKind::Ir)
                .mean_performance_increase_pct(),
        );
        let profiles = hc_trace::reduced_suite(s.figure_apps, s.trace_len);
        d.f64(
            runner
                .run_profiles(&profiles, PolicyKind::Ir)
                .mean_performance_increase_pct(),
        );
        Ok(())
    }),
];

fn digest(d: &mut Fnv, figure: &Figure) -> Result<(), CampaignError> {
    d.str(&figure.id);
    for s in &figure.series {
        d.str(s);
    }
    for row in &figure.rows {
        d.str(&row.label);
        for &v in &row.values {
            d.f64(v);
        }
    }
    Ok(())
}

/// Regenerate the whole figure set, one span per figure; returns the digest.
fn figure_set(scale: &Scale, spans: &mut Spans) -> Result<u64, CampaignError> {
    let mut d = Fnv::default();
    for (name, job) in FIGURE_SET {
        spans.span(name, || job(scale, &mut d))?;
    }
    Ok(d.finish())
}

pub(crate) struct FiguresBench {
    scale: Scale,
    reference: Option<u64>,
}

impl FiguresBench {
    pub(crate) fn new(scale: Scale) -> FiguresBench {
        FiguresBench {
            scale,
            reference: None,
        }
    }
}

impl Bench for FiguresBench {
    fn setup(&mut self, ledger: &mut Ledger) {
        let result = figure_set(&self.scale, &mut Spans::new(false));
        self.reference = result.as_ref().ok().copied();
        ledger.op(
            "reference figure set",
            result.map(drop).map_err(|e| e.to_string()),
        );
    }

    fn inject(&mut self, _fault: Fault) -> Result<(), String> {
        Err("the figure set takes no inputs to damage".into())
    }

    fn act(&mut self, _index: usize, spans: &mut Spans) -> Rep {
        let (result, cost) = host::measure(|| figure_set(&self.scale, spans));
        match result {
            Ok(digest) => Rep {
                cost,
                digest,
                ..Rep::default()
            },
            Err(e) => Rep {
                cost,
                error: Some(e.to_string()),
                ..Rep::default()
            },
        }
    }

    fn check(&mut self, rep: &Rep) -> Result<(), String> {
        match self.reference {
            Some(reference) if reference == rep.digest => Ok(()),
            _ => Err(format!(
                "figure digest {:016x} differs from the reference {:016x}",
                rep.digest,
                self.reference.unwrap_or(0)
            )),
        }
    }

    /// The figures' campaigns are opaque from outside, so the probe runs
    /// the 7-policy × 12-trace grid behind `headline` and `fig6` through
    /// [`CampaignRunner::run`], then replays its rows.
    fn probe(&mut self, spans: &mut Spans, ledger: &mut Ledger, layer: &mut Layer) {
        let spec = match CampaignBuilder::new("headline")
            .paper_policies()
            .spec_suite()
            .trace_len(self.scale.trace_len)
            .build()
        {
            Ok(spec) => spec,
            Err(e) => return ledger.op("probe: headline spec", Err(e.to_string())),
        };
        let first = Arc::new(OnceLock::new());
        let seen = Arc::clone(&first);
        let runner = CampaignRunner::new().with_progress(move |_| {
            seen.get_or_init(Instant::now);
        });
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let result = spans.span("campaign.run", || runner.run(&spec));
        let run_s = t0.elapsed().as_secs_f64();
        let run_cpu_s = host::cpu_seconds() - cpu0;
        let report = match result {
            Ok(report) => report,
            Err(e) => return ledger.op("probe: headline campaign", Err(e.to_string())),
        };
        ledger.op("probe: headline campaign", Ok(()));
        if let Some(at) = first.get() {
            layer.set("campaign.first_row_s", (*at - t0).as_secs_f64());
        }
        layer.set(
            "campaign.parallel_efficiency",
            crate::utilization(run_cpu_s, run_s),
        );
        layer.set("campaign.rows", spec.traces.len() as f64);
        layer.set("campaign.cells", report.cells.len() as f64);
        layer.set("campaign.baseline_sims", report.baseline_runs as f64);
        let rows: Vec<usize> = (0..spec.traces.len()).collect();
        probe::replay_rows(&spec, &rows, &report, true, spans, ledger, layer);
        probe::report_totals(&report, layer);
    }
}
