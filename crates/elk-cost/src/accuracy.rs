use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use elk_units::Bytes;

use crate::profile::random_shape;
use crate::{AnalyticDevice, CostModel, OpClass};

/// Predicted-vs-measured evaluation of a cost model on held-out samples —
/// the data behind the paper's Fig. 12 scatter plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// What was evaluated (operator class name or `"Transfer"`).
    pub subject: String,
    /// `(predicted, measured)` pairs in microseconds.
    pub pairs: Vec<(f64, f64)>,
    /// Mean absolute percentage error.
    pub mape: f64,
    /// Coefficient of determination in log space (scatter plots are
    /// log-log, matching Fig. 12's axes).
    pub r2_log: f64,
}

impl AccuracyReport {
    /// Evaluates `model` against `device` on `n` held-out tiles of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn for_class(
        model: &dyn CostModel,
        device: &AnalyticDevice,
        class: OpClass,
        n: usize,
        seed: u64,
    ) -> Self {
        assert!(n > 0, "need at least one evaluation sample");
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let s = random_shape(class, &mut rng);
                (
                    model.tile_time(&s).as_micros(),
                    device.tile_time(&s).as_micros(),
                )
            })
            .collect();
        Self::from_pairs(class.to_string(), pairs)
    }

    /// Evaluates the link-transfer model on `n` held-out volumes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn for_transfer(
        model: &dyn CostModel,
        device: &AnalyticDevice,
        n: usize,
        seed: u64,
    ) -> Self {
        assert!(n > 0, "need at least one evaluation sample");
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let exp = rng.gen_range(6.0..=24.0f64);
                let v = Bytes::new(2f64.powf(exp) as u64);
                (
                    model.link_time(v).as_micros(),
                    device.link_time(v).as_micros(),
                )
            })
            .collect();
        Self::from_pairs("Transfer".to_string(), pairs)
    }

    /// Builds a report from raw `(predicted, measured)` microsecond pairs.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    #[must_use]
    pub fn from_pairs(subject: String, pairs: Vec<(f64, f64)>) -> Self {
        assert!(!pairs.is_empty(), "empty accuracy sample");
        let mape = pairs
            .iter()
            .map(|&(p, m)| ((p - m) / m.max(1e-12)).abs())
            .sum::<f64>()
            / pairs.len() as f64;

        let logs: Vec<(f64, f64)> = pairs
            .iter()
            .map(|&(p, m)| (p.max(1e-9).ln(), m.max(1e-9).ln()))
            .collect();
        let mean_m = logs.iter().map(|&(_, m)| m).sum::<f64>() / logs.len() as f64;
        let ss_tot: f64 = logs.iter().map(|&(_, m)| (m - mean_m).powi(2)).sum();
        let ss_res: f64 = logs.iter().map(|&(p, m)| (m - p).powi(2)).sum();
        let r2_log = if ss_tot <= 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };

        AccuracyReport {
            subject,
            pairs,
            mape,
            r2_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LearnedCostModel;
    use elk_hw::presets;

    #[test]
    fn learned_model_achieves_fig12_quality() {
        // The paper's Fig. 12 shows points tightly hugging the diagonal;
        // we require log-R² ≥ 0.95 and MAPE ≤ 25% for every panel.
        let chip = presets::ipu_pod4().chip;
        let device = AnalyticDevice::measured(&chip);
        let model = LearnedCostModel::of_chip(&chip);
        for class in OpClass::ALL {
            let rep = AccuracyReport::for_class(&model, &device, class, 300, 4242);
            assert!(rep.r2_log > 0.95, "{class}: R²={:.3}", rep.r2_log);
            assert!(rep.mape < 0.25, "{class}: MAPE={:.3}", rep.mape);
        }
        let rep = AccuracyReport::for_transfer(&model, &device, 200, 4242);
        assert!(rep.r2_log > 0.95, "transfer R²={:.3}", rep.r2_log);
    }

    #[test]
    fn perfect_predictions_have_r2_one() {
        let pairs: Vec<(f64, f64)> = (1..50).map(|i| (i as f64, i as f64)).collect();
        let rep = AccuracyReport::from_pairs("x".into(), pairs);
        assert!((rep.r2_log - 1.0).abs() < 1e-12);
        assert_eq!(rep.mape, 0.0);
    }
}
