//! Whole-model pins for the learned cost model fit.
//!
//! Every design point refits `LearnedCostModel`, and every downstream
//! report (plans, simulated latencies, serving goldens) depends on the
//! exact splits, thresholds, leaf coefficients and clamps it produces.
//! This suite pins the full serialized model as FNV-1a digests over a
//! spread of devices and tree hyper-parameters. A speed-up of the fit
//! must leave every digest unchanged; a deliberate change to the model
//! re-pins them in `tests/pins/fit.pins`.

use elk_cost::{AnalyticDevice, LearnedCostModel, ProfileConfig, TreeParams};
use elk_hw::presets;
use elk_pins::{digest, Pins};

fn fit_digest(device: &AnalyticDevice, cfg: &ProfileConfig) -> u64 {
    digest(&LearnedCostModel::fit(device, cfg))
}

fn with_tree(max_depth: u32, min_leaf: usize, quantiles: usize) -> ProfileConfig {
    ProfileConfig {
        tree: TreeParams {
            max_depth,
            min_leaf,
            quantiles,
        },
        ..ProfileConfig::default()
    }
}

#[test]
fn learned_cost_model_fits_are_pinned() {
    let chip = presets::ipu_pod4().chip;
    let noisy = AnalyticDevice::of_chip(&chip).with_noise(0.05);
    let exact = AnalyticDevice::of_chip(&chip).with_noise(0.0);
    let scaled = AnalyticDevice::of_chip(&chip.with_compute_scale(2.0)).with_noise(0.05);
    // Tile times of ~1e300 µs: Σy² overflows in every node.
    let overflowing = AnalyticDevice::of_chip(&chip.with_compute_scale(1e-300)).with_noise(0.05);
    // Tile times of ~1e150 µs: squares near the top of the f64 range.
    let huge = AnalyticDevice::of_chip(&chip.with_compute_scale(1e-150)).with_noise(0.05);
    let default = ProfileConfig::default();
    // Small nodes split deep, where many candidates score close together.
    let small_nodes = ProfileConfig {
        samples_per_class: 64,
        ..with_tree(8, 1, 10)
    };

    let mut pins = Pins::new("fit", "fits");
    pins.add("ipu_pod4/noise0.05", fit_digest(&noisy, &default));
    pins.add("ipu_pod4/noise0", fit_digest(&exact, &default));
    pins.add("ipu_pod4x2/noise0.05", fit_digest(&scaled, &default));
    pins.add(
        "ipu_pod4/tree5_24_8",
        fit_digest(&noisy, &with_tree(5, 24, 8)),
    );
    pins.add(
        "ipu_pod4/tree3_8_4",
        fit_digest(&noisy, &with_tree(3, 8, 4)),
    );
    pins.add(
        "ipu_pod4x1e-300/noise0.05",
        fit_digest(&overflowing, &default),
    );
    pins.add("ipu_pod4x1e-150/noise0.05", fit_digest(&huge, &default));
    pins.add("ipu_pod4/64_tree8_1_10", fit_digest(&noisy, &small_nodes));
    pins.check();
}
