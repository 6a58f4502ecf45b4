//! Seeded generation straight into the [`TraceFile`] format, so
//! synthetic and recorded demand flow through the same replay path.
//! The arrivals and lengths come from `elk-serve`'s one generator;
//! this recipe adds the tenant draw.

use rand::Rng;

use elk_serve::TraceConfig;

use crate::format::{TraceFile, TraceRecord};

/// Recipe for a synthetic trace file; fully determined by its seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceGenConfig {
    /// Seed, request count, rate shape and length models.
    pub trace: TraceConfig,
    /// Number of tenants to spread requests over uniformly (ids
    /// `"t0"`..`"t{n-1}"`). `0` omits the tenant field entirely.
    pub tenants: u64,
}

impl TraceGenConfig {
    /// Checks the request count, the rate shape and both length models.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.trace.validate()
    }

    /// Generates the trace file. Each record draws its tenant after its
    /// request's own draws.
    ///
    /// # Panics
    ///
    /// Panics where [`validate`](Self::validate) fails.
    #[must_use]
    pub fn generate(&self) -> TraceFile {
        let records = self.trace.generate_with(|r, rng| TraceRecord {
            arrival_s: r.arrival.as_secs(),
            prompt_len: r.prompt_len,
            output_len: r.output_len,
            tenant: (self.tenants > 0).then(|| format!("t{}", rng.gen_range(0..=self.tenants - 1))),
        });
        TraceFile { records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_serve::{LengthModel, RateShape};

    fn burst_cfg(seed: u64) -> TraceGenConfig {
        TraceGenConfig {
            trace: TraceConfig {
                seed,
                requests: 500,
                rate: RateShape::BurstTrain {
                    base_rps: 50.0,
                    burst_rps: 500.0,
                    period_s: 1.0,
                    burst_s: 0.2,
                },
                prompt_len: LengthModel::HeavyTail {
                    lo: 32,
                    alpha: 1.1,
                    cap: 2048,
                },
                output_len: LengthModel::Uniform { lo: 2, hi: 12 },
            },
            tenants: 3,
        }
    }

    fn with_rate(rate: RateShape, requests: usize) -> TraceGenConfig {
        TraceGenConfig {
            trace: TraceConfig {
                rate,
                requests,
                ..TraceConfig::default()
            },
            tenants: 0,
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(
            burst_cfg(7).generate().to_jsonl(),
            burst_cfg(7).generate().to_jsonl()
        );
        assert_ne!(burst_cfg(7).generate(), burst_cfg(8).generate());
    }

    #[test]
    fn generated_traces_parse_back() {
        let t = burst_cfg(3).generate();
        let back = TraceFile::parse(&t.to_jsonl()).expect("generated trace parses");
        assert_eq!(back, t);
        assert_eq!(t.len(), 500);
        assert_eq!(t.tenants().len(), 3);
    }

    #[test]
    fn burst_train_concentrates_arrivals_in_bursts() {
        let t = burst_cfg(11).generate();
        let in_burst = t
            .records
            .iter()
            .filter(|r| r.arrival_s.fract() < 0.2)
            .count();
        // 20% of the time carries 500/(500*0.2+50*0.8) ≈ 71% of load.
        assert!(
            in_burst as f64 / t.len() as f64 > 0.5,
            "only {in_burst}/{} arrivals in bursts",
            t.len()
        );
    }

    #[test]
    fn diurnal_rate_oscillates_around_mean() {
        let shape = RateShape::Diurnal {
            mean_rps: 100.0,
            amplitude: 0.5,
            period_s: 4.0,
        };
        assert!((shape.rate_at(1.0) - 150.0).abs() < 1e-9, "crest at t=P/4");
        assert!((shape.rate_at(3.0) - 50.0).abs() < 1e-9, "trough at t=3P/4");
        assert!((shape.peak_rate() - 150.0).abs() < 1e-9);
        let t = with_rate(shape, 2000).generate();
        let rate = t.len() as f64 / t.duration_s();
        assert!((rate / 100.0 - 1.0).abs() < 0.15, "long-run rate {rate}");
    }

    #[test]
    fn heavy_tail_is_heavy_but_bounded() {
        let samples: Vec<u64> = burst_cfg(5)
            .generate()
            .records
            .iter()
            .map(|r| r.prompt_len)
            .collect();
        assert!(samples.iter().all(|&s| (32..=2048).contains(&s)));
        let short = samples.iter().filter(|&&s| s < 128).count();
        let long = samples.iter().filter(|&&s| s > 1024).count();
        assert!(
            short > samples.len() / 2,
            "mass should sit near lo ({short})"
        );
        assert!(long > 0, "the tail should reach past 1024");
    }

    #[test]
    fn an_overflowing_peak_rate_is_rejected() {
        // 1.5e308 × 1.5 is infinite: every thinning gap would be zero
        // and every acceptance test NaN, so generation never ends.
        let recipe = |mean_rps| {
            with_rate(
                RateShape::Diurnal {
                    mean_rps,
                    amplitude: 0.5,
                    period_s: 1.0,
                },
                64,
            )
        };
        let err = recipe(1.5e308).validate().unwrap_err();
        assert_eq!(
            err,
            "rate.mean_rps (1.5e308) times 1 + amplitude (0.5), the peak rate, must be finite"
        );
        assert_eq!(recipe(1e308).generate().len(), 64);
    }

    #[test]
    fn a_vanishing_rate_is_rejected() {
        // Gaps of ~1e308 s: every arrival after the first would be
        // infinite.
        let recipe = |rate| with_rate(rate, 64);
        let err = recipe(RateShape::Constant { rate_rps: 1e-308 })
            .validate()
            .unwrap_err();
        assert!(
            err.starts_with("rate.rate_rps (1e-308) is too small"),
            "{err}"
        );
        let err = recipe(RateShape::Diurnal {
            mean_rps: 1e-307,
            amplitude: 0.5,
            period_s: 1.0,
        })
        .validate()
        .unwrap_err();
        assert!(
            err.starts_with("rate.mean_rps (1e-307) is too small"),
            "{err}"
        );
        let err = recipe(RateShape::BurstTrain {
            base_rps: 1e-308,
            burst_rps: 1e-306,
            period_s: 1.0,
            burst_s: 0.5,
        })
        .validate()
        .unwrap_err();
        assert!(err.starts_with("rate.base_rps and burst_rps"), "{err}");
        // The smallest rate the check names keeps every arrival finite.
        let at_least: f64 = err.rsplit(' ').next().unwrap().parse().unwrap();
        let trace = recipe(RateShape::Constant { rate_rps: at_least }).generate();
        assert!(trace.records.iter().all(|r| r.arrival_s.is_finite()));
        // A near-silent base between bursts passes: the mean rate counts.
        let bursts = recipe(RateShape::BurstTrain {
            base_rps: 1e-308,
            burst_rps: 100.0,
            period_s: 1.0,
            burst_s: 0.5,
        });
        assert!(bursts
            .generate()
            .records
            .iter()
            .all(|r| r.arrival_s.is_finite()));
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn overdriven_diurnal_rejected() {
        let shape = RateShape::Diurnal {
            mean_rps: 10.0,
            amplitude: 1.0,
            period_s: 1.0,
        };
        let _ = with_rate(shape, 64).generate();
    }

    #[test]
    #[should_panic(expected = "burst duration")]
    fn burst_longer_than_period_rejected() {
        let shape = RateShape::BurstTrain {
            base_rps: 10.0,
            burst_rps: 20.0,
            period_s: 1.0,
            burst_s: 1.5,
        };
        let _ = with_rate(shape, 64).generate();
    }
}
