use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use elk_hw::ChipConfig;
use elk_units::{Bytes, Seconds};

use crate::{
    AnalyticDevice, CostModel, LinearModel, LinearTreeModel, OpClass, TileShape, TreeParams,
};

/// Profiling configuration: how many random tiles to "measure" per
/// operator class, over which shape ranges (§4.3: "we randomly generate
/// tiles with varied shapes, and run each tile using one core on the
/// target device").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileConfig {
    /// Samples per operator class.
    pub samples_per_class: usize,
    /// Samples for the link-transfer model.
    pub link_samples: usize,
    /// RNG seed for shape generation.
    pub seed: u64,
    /// Tree hyper-parameters.
    pub tree: TreeParams,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            samples_per_class: 4000,
            link_samples: 200,
            seed: 7,
            tree: TreeParams {
                max_depth: 8,
                min_leaf: 16,
                quantiles: 10,
            },
        }
    }
}

/// Draws a random tile shape covering the ranges the partitioner
/// generates on IPU-class cores (per-core tiles of decode/prefill LLM
/// operators and diffusion transformers).
pub(crate) fn random_shape(class: OpClass, rng: &mut StdRng) -> TileShape {
    fn log_uniform(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
        let (lo_f, hi_f) = ((lo as f64).ln(), (hi as f64).ln());
        (rng.gen_range(lo_f..=hi_f).exp().round() as u64).clamp(lo, hi)
    }
    match class {
        OpClass::MatMul => TileShape {
            class,
            batch: log_uniform(rng, 1, 64),
            d0: log_uniform(rng, 1, 256),
            d1: log_uniform(rng, 4, 8192),
            d2: log_uniform(rng, 1, 1024),
        },
        OpClass::Reduce => TileShape::reduce(log_uniform(rng, 1, 4096), log_uniform(rng, 4, 8192)),
        OpClass::Elementwise => {
            TileShape::elementwise(log_uniform(rng, 8, 262_144), rng.gen_range(1..=3))
        }
        OpClass::Gather => TileShape::gather(log_uniform(rng, 1, 2048), log_uniform(rng, 8, 8192)),
    }
}

/// The compiler-facing cost model: one linear tree per operator class plus
/// a linear per-link transfer model, fitted to measurements of an
/// [`AnalyticDevice`].
///
/// # Examples
///
/// ```
/// use elk_cost::{CostModel, LearnedCostModel, TileShape};
/// use elk_hw::presets;
///
/// let model = LearnedCostModel::of_chip(&presets::ipu_pod4().chip);
/// let t = model.tile_time(&TileShape::matmul(32, 1024, 64));
/// assert!(t.as_secs() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedCostModel {
    matmul: LinearTreeModel,
    reduce: LinearTreeModel,
    elementwise: LinearTreeModel,
    gather: LinearTreeModel,
    link: LinearModel,
    floor: Seconds,
}

impl LearnedCostModel {
    /// The cost model the compiler plans with on `chip`: a fit to
    /// [`AnalyticDevice::measured`] under the default [`ProfileConfig`].
    /// It reads the chip only through [`AnalyticDevice::of_chip`], so
    /// chips with equal devices get identical models.
    #[must_use]
    pub fn of_chip(chip: &ChipConfig) -> Self {
        Self::fit(&AnalyticDevice::measured(chip), &ProfileConfig::default())
    }

    /// Profiles `device` and fits the per-class trees and link model.
    #[must_use]
    pub fn fit(device: &AnalyticDevice, cfg: &ProfileConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // One feature-major buffer for every class: feature `f` of sample
        // `i` at `cols[f·n + i]`, as the tree fit borrows it.
        let n = cfg.samples_per_class;
        let mut cols = vec![0.0; TileShape::FEATURE_COUNT * n];
        let mut ys = vec![0.0; n];
        let mut fit_class = |class: OpClass| {
            for (i, y) in ys.iter_mut().enumerate() {
                let shape = random_shape(class, &mut rng);
                for (f, x) in shape.features().into_iter().enumerate() {
                    cols[f * n + i] = x;
                }
                *y = device.tile_time(&shape).as_micros();
            }
            LinearTreeModel::fit(&cols, &ys, &cfg.tree)
        };
        let matmul = fit_class(OpClass::MatMul);
        let reduce = fit_class(OpClass::Reduce);
        let elementwise = fit_class(OpClass::Elementwise);
        let gather = fit_class(OpClass::Gather);

        // The link model's one feature is the volume in KB.
        let (lx, ly): (Vec<f64>, Vec<f64>) = (0..cfg.link_samples)
            .map(|_| {
                let exp = rng.gen_range(6.0..=24.0f64);
                let volume = Bytes::new(2f64.powf(exp) as u64);
                (volume.as_f64() / 1e3, device.link_time(volume).as_micros())
            })
            .unzip();
        let link = LinearModel::fit(&lx, &ly);

        LearnedCostModel {
            matmul,
            reduce,
            elementwise,
            gather,
            link,
            floor: Seconds::new(50e-9),
        }
    }

    fn tree(&self, class: OpClass) -> &LinearTreeModel {
        match class {
            OpClass::MatMul => &self.matmul,
            OpClass::Reduce => &self.reduce,
            OpClass::Elementwise => &self.elementwise,
            OpClass::Gather => &self.gather,
        }
    }
}

impl CostModel for LearnedCostModel {
    fn tile_time(&self, shape: &TileShape) -> Seconds {
        let us = self.tree(shape.class).predict(&shape.features());
        Seconds::from_micros(us.max(0.0)).max(self.floor)
    }

    fn link_time(&self, volume: Bytes) -> Seconds {
        if volume.is_zero() {
            return Seconds::ZERO;
        }
        let us = self.link.predict(&[volume.as_f64() / 1e3]);
        Seconds::from_micros(us.max(0.0)).max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;

    fn device() -> AnalyticDevice {
        AnalyticDevice::measured(&presets::ipu_pod4().chip)
    }

    fn model() -> LearnedCostModel {
        LearnedCostModel::of_chip(&presets::ipu_pod4().chip)
    }

    #[test]
    fn predictions_track_ground_truth_on_held_out_shapes() {
        let dev = device();
        let m = model();
        let mut rng = StdRng::seed_from_u64(999); // unseen during fit
        for class in OpClass::ALL {
            let mut ratios = Vec::new();
            for _ in 0..200 {
                let s = random_shape(class, &mut rng);
                let pred = m.tile_time(&s).as_secs();
                let meas = dev.tile_time(&s).as_secs();
                ratios.push(pred / meas);
            }
            ratios.sort_by(|a, b| a.total_cmp(b));
            let median = ratios[ratios.len() / 2];
            assert!(
                (0.8..1.25).contains(&median),
                "{class}: median pred/meas ratio {median}"
            );
        }
    }

    #[test]
    fn link_model_is_accurate() {
        let dev = device();
        let m = model();
        for kb in [1u64, 16, 256, 4096] {
            let v = Bytes::kib(kb);
            let pred = m.link_time(v).as_secs();
            let meas = dev.link_time(v).as_secs();
            let ratio = pred / meas;
            assert!((0.7..1.4).contains(&ratio), "{kb} KiB ratio {ratio}");
        }
    }

    #[test]
    fn monotone_in_volume_for_typical_sizes() {
        let m = model();
        let t1 = m.tile_time(&TileShape::matmul(16, 512, 64));
        let t2 = m.tile_time(&TileShape::matmul(32, 2048, 128));
        assert!(t2 > t1);
    }

    #[test]
    fn zero_volume_transfers_are_free() {
        assert_eq!(model().link_time(Bytes::ZERO), Seconds::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, b) = (model(), model());
        let s = TileShape::matmul(17, 444, 31);
        assert_eq!(a.tile_time(&s), b.tile_time(&s));
    }
}
