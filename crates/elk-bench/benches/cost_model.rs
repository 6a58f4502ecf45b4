//! Criterion benches of the cost models: fitting the linear tree and the
//! per-prediction latency the planner pays millions of times.

use criterion::{criterion_group, criterion_main, Criterion};

use elk_cost::{AnalyticDevice, CostModel, LearnedCostModel, ProfileConfig, TileShape};
use elk_hw::presets;
use elk_units::Bytes;

fn bench_cost(c: &mut Criterion) {
    let chip = presets::ipu_pod4().chip;
    let device = AnalyticDevice::measured(&chip);
    let quick = ProfileConfig {
        samples_per_class: 600,
        ..ProfileConfig::default()
    };
    let mut g = c.benchmark_group("cost_model");
    g.sample_size(10);
    g.bench_function("fit_600_samples_per_class", |b| {
        b.iter(|| LearnedCostModel::fit(&device, &quick))
    });
    // The default 4,000 samples per class: the fit every design point pays.
    g.bench_function("fit_default", |b| {
        b.iter(|| LearnedCostModel::of_chip(&chip))
    });
    let model = LearnedCostModel::of_chip(&chip);
    let tile = TileShape::matmul(16, 1280, 24);
    g.bench_function("predict_tile", |b| b.iter(|| model.tile_time(&tile)));
    g.bench_function("predict_link", |b| {
        b.iter(|| model.link_time(Bytes::kib(96)))
    });
    g.bench_function("analytic_tile", |b| b.iter(|| device.tile_time(&tile)));
    g.finish();
}

criterion_group!(benches, bench_cost);
criterion_main!(benches);
