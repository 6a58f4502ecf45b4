use serde::{Deserialize, Serialize};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Relative magnitude of the deterministic per-tile timing noise
    /// (models hardware variance the compiler did not see).
    pub noise_sigma: f64,
    /// Seed of the timing noise.
    pub noise_seed: u64,
    /// Give preload and execution dedicated interconnects and skip the
    /// capacity audit — the §6.1 *Ideal* roofline assumption.
    pub dedicated_interconnects: bool,
    /// Number of samples in the bandwidth-demand time series (0 = no
    /// trace).
    pub trace_samples: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            noise_sigma: 0.05,
            noise_seed: 0x5eed,
            dedicated_interconnects: false,
            trace_samples: 0,
        }
    }
}

impl SimOptions {
    /// The most bandwidth-trace samples a run may ask for, `2¹⁶`: the
    /// simulator allocates three series of this length.
    pub const MAX_TRACE_SAMPLES: usize = 1 << 16;

    /// Checks the options: a finite non-negative noise magnitude and at
    /// most [`MAX_TRACE_SAMPLES`](Self::MAX_TRACE_SAMPLES) trace samples.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first ill-formed field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.noise_sigma.is_finite() || self.noise_sigma < 0.0 {
            return Err(format!(
                "noise_sigma must be >= 0, got {}",
                self.noise_sigma
            ));
        }
        if self.trace_samples > Self::MAX_TRACE_SAMPLES {
            return Err(format!(
                "trace_samples: {} passes the limit of {}",
                self.trace_samples,
                Self::MAX_TRACE_SAMPLES
            ));
        }
        Ok(())
    }

    /// Options for the Ideal roofline run.
    #[must_use]
    pub fn ideal() -> Self {
        SimOptions {
            dedicated_interconnects: true,
            ..SimOptions::default()
        }
    }

    /// Enables bandwidth tracing with `samples` buckets.
    #[must_use]
    pub fn with_trace(mut self, samples: usize) -> Self {
        self.trace_samples = samples;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_bounds_noise_and_trace_samples() {
        assert_eq!(SimOptions::default().validate(), Ok(()));
        let at_limit = SimOptions::default().with_trace(SimOptions::MAX_TRACE_SAMPLES);
        assert_eq!(at_limit.validate(), Ok(()));
        let e = SimOptions::default()
            .with_trace(SimOptions::MAX_TRACE_SAMPLES + 1)
            .validate()
            .unwrap_err();
        assert!(
            e.starts_with("trace_samples: 65537 passes the limit"),
            "{e}"
        );
        let noisy = SimOptions {
            noise_sigma: f64::NAN,
            ..SimOptions::default()
        };
        assert!(noisy.validate().unwrap_err().starts_with("noise_sigma"));
    }

    #[test]
    fn ideal_has_dedicated_fabric() {
        assert!(SimOptions::ideal().dedicated_interconnects);
        assert!(!SimOptions::default().dedicated_interconnects);
    }
}
