//! Whole-model pins for the learned cost model fit.
//!
//! Every design point refits `LearnedCostModel`, and every downstream
//! report (plans, simulated latencies, serving goldens) depends on the
//! exact splits, thresholds, leaf coefficients and clamps it produces.
//! This suite pins the full serialized model as FNV-1a digests over a
//! spread of devices and tree hyper-parameters. A speed-up of the fit
//! must leave every digest unchanged; a deliberate change to the model
//! re-pins them here.

use elk_cost::{AnalyticDevice, LearnedCostModel, ProfileConfig, TreeParams};
use elk_hw::presets;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fit_digest(device: &AnalyticDevice, cfg: &ProfileConfig) -> u64 {
    let model = LearnedCostModel::fit(device, cfg);
    fnv1a(
        serde_json::to_string(&model)
            .expect("serializes")
            .as_bytes(),
    )
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

    let got = [
        ("ipu_pod4/noise0.05", fit_digest(&noisy, &default)),
        ("ipu_pod4/noise0", fit_digest(&exact, &default)),
        ("ipu_pod4x2/noise0.05", fit_digest(&scaled, &default)),
        (
            "ipu_pod4/tree5_24_8",
            fit_digest(&noisy, &with_tree(5, 24, 8)),
        ),
        (
            "ipu_pod4/tree3_8_4",
            fit_digest(&noisy, &with_tree(3, 8, 4)),
        ),
        (
            "ipu_pod4x1e-300/noise0.05",
            fit_digest(&overflowing, &default),
        ),
        ("ipu_pod4x1e-150/noise0.05", fit_digest(&huge, &default)),
        ("ipu_pod4/64_tree8_1_10", fit_digest(&noisy, &small_nodes)),
    ];
    let want: [(&str, u64); 8] = [
        ("ipu_pod4/noise0.05", 0xf40a_2d6a_ca28_a654),
        ("ipu_pod4/noise0", 0x9cc7_4e3b_506c_be34),
        ("ipu_pod4x2/noise0.05", 0x01ce_f072_ecbe_b9b4),
        ("ipu_pod4/tree5_24_8", 0xd7b2_d43b_72c6_60e7),
        ("ipu_pod4/tree3_8_4", 0x11d0_8058_a6df_2750),
        ("ipu_pod4x1e-300/noise0.05", 0x9236_d8cd_e468_52b8),
        ("ipu_pod4x1e-150/noise0.05", 0xee17_b18c_7402_c8d9),
        ("ipu_pod4/64_tree8_1_10", 0x39a4_d697_3eff_903c),
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|((name, g), (_, w))| format!("{name}: got {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
