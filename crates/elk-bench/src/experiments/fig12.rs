//! Fig. 12: cost-model accuracy — predicted vs measured per-core times
//! for MatMul / Reduce / Elementwise tiles and inter-core transfers.

use serde::Serialize;

use elk_cost::{AccuracyReport, AnalyticDevice, LearnedCostModel, OpClass};

use crate::ctx::{default_system, Ctx};

/// Cost-model accuracy panel for one prediction subject.
#[derive(Debug, Serialize)]
pub struct Panel {
    /// What is being predicted (execution / preload / e2e).
    pub subject: String,
    /// Mean absolute percentage error.
    pub mape: f64,
    /// R-squared in log space.
    pub r2_log: f64,
    /// A subsample of `(predicted us, measured us)` pairs.
    pub sample_pairs: Vec<(f64, f64)>,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 12: cost model accuracy (predicted vs measured, held-out tiles)");
    let system = default_system();
    let device = AnalyticDevice::measured(&system.chip);
    let model = LearnedCostModel::of_chip(&system.chip);
    let n = if ctx.full { 2000 } else { 500 };

    let mut panels = Vec::new();
    let mut reports: Vec<AccuracyReport> = vec![
        AccuracyReport::for_class(&model, &device, OpClass::MatMul, n, 0xf16),
        AccuracyReport::for_class(&model, &device, OpClass::Reduce, n, 0xf16),
        AccuracyReport::for_class(&model, &device, OpClass::Elementwise, n, 0xf16),
    ];
    reports.push(AccuracyReport::for_transfer(&model, &device, n, 0xf16));

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.subject.clone(),
                format!("{:.1}%", r.mape * 100.0),
                format!("{:.3}", r.r2_log),
            ]
        })
        .collect();
    ctx.table(&["panel", "MAPE", "log-R^2"], &rows);

    for r in &reports {
        let sample: Vec<(f64, f64)> = r
            .pairs
            .iter()
            .step_by(r.pairs.len() / 8 + 1)
            .copied()
            .collect();
        let cells: Vec<String> = sample
            .iter()
            .map(|(p, m)| format!("{p:.1}/{m:.1}"))
            .collect();
        ctx.line(format!(
            "{:>12} pred/meas us: {}",
            r.subject,
            cells.join("  ")
        ));
        panels.push(Panel {
            subject: r.subject.clone(),
            mape: r.mape,
            r2_log: r.r2_log,
            sample_pairs: sample,
        });
    }
    ctx.line("");
    ctx.line("Expected shape (paper): points hug the diagonal over 3-4 decades for every");
    ctx.line("panel (tight log-log scatter).");
    for p in &panels {
        ctx.metric(format!("{}.mape", p.subject), p.mape);
        ctx.metric(format!("{}.r2_log", p.subject), p.r2_log);
    }
    ctx.finish(&panels);
}
