//! Seeded generators that emit production-shaped traces straight into
//! the [`TraceFile`] format, so synthetic and recorded demand flow
//! through the same replay path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use elk_serve::{check_positive, check_span};

use crate::format::{TraceFile, TraceRecord};

/// Time-varying arrival-rate shape (requests/second).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum RateShape {
    /// Homogeneous Poisson arrivals at a constant rate.
    Constant {
        /// Arrival rate in requests per second.
        rate_rps: f64,
    },
    /// Diurnal sinusoid: `mean * (1 + amplitude * sin(2πt / period))`.
    /// Models the day/night demand cycle production traces show.
    Diurnal {
        /// Long-run mean rate in requests per second.
        mean_rps: f64,
        /// Peak-to-mean swing, in `[0, 1)` so the rate stays positive.
        amplitude: f64,
        /// Cycle length in seconds.
        period_s: f64,
    },
    /// Square-wave burst train: the first `burst_s` seconds of every
    /// `period_s`-second window run at `burst_rps`, the rest at
    /// `base_rps`. Models thundering herds and batch-job kickoffs.
    BurstTrain {
        /// Off-burst rate in requests per second.
        base_rps: f64,
        /// In-burst rate in requests per second (`>= base_rps`).
        burst_rps: f64,
        /// Burst cycle length in seconds.
        period_s: f64,
        /// Burst duration per cycle, in `(0, period_s)`.
        burst_s: f64,
    },
}

impl RateShape {
    /// Instantaneous rate at time `t` seconds.
    #[must_use]
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            RateShape::Constant { rate_rps } => rate_rps,
            RateShape::Diurnal {
                mean_rps,
                amplitude,
                period_s,
            } => mean_rps * (1.0 + amplitude * (std::f64::consts::TAU * t / period_s).sin()),
            RateShape::BurstTrain {
                base_rps,
                burst_rps,
                period_s,
                burst_s,
            } => {
                if (t / period_s).fract() * period_s < burst_s {
                    burst_rps
                } else {
                    base_rps
                }
            }
        }
    }

    /// Upper bound on [`rate_at`](Self::rate_at) — the thinning
    /// proposal rate.
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        match *self {
            RateShape::Constant { rate_rps } => rate_rps,
            RateShape::Diurnal {
                mean_rps,
                amplitude,
                ..
            } => mean_rps * (1.0 + amplitude),
            RateShape::BurstTrain {
                base_rps,
                burst_rps,
                ..
            } => base_rps.max(burst_rps),
        }
    }

    /// Checks the shape for `requests` arrivals: finite positive rates
    /// and periods, an amplitude in `[0, 1)`, `burst_rps >= base_rps`, a
    /// burst shorter than its period, a finite peak rate (an infinite
    /// one stops the thinning loop's clock, so no proposal is ever
    /// accepted), and a mean rate ([`check_span`]) whose arrivals stay
    /// finite.
    fn validate(&self, requests: usize) -> Result<(), String> {
        match *self {
            RateShape::Constant { rate_rps } => {
                check_positive("rate_rps", rate_rps)?;
                check_span("rate_rps", rate_rps, requests)
            }
            RateShape::Diurnal {
                mean_rps,
                amplitude,
                period_s,
            } => {
                check_positive("mean_rps", mean_rps)?;
                check_positive("period_s", period_s)?;
                if !(0.0..1.0).contains(&amplitude) {
                    return Err(format!(
                        "amplitude must be in [0, 1) so the rate stays positive, got {amplitude}"
                    ));
                }
                if !self.peak_rate().is_finite() {
                    return Err(format!(
                        "mean_rps ({mean_rps:?}) times 1 + amplitude ({amplitude:?}), the peak \
                         rate, must be finite"
                    ));
                }
                check_span("mean_rps", mean_rps, requests)
            }
            RateShape::BurstTrain {
                base_rps,
                burst_rps,
                period_s,
                burst_s,
            } => {
                check_positive("base_rps", base_rps)?;
                check_positive("burst_rps", burst_rps)?;
                check_positive("period_s", period_s)?;
                check_positive("burst_s", burst_s)?;
                if burst_rps < base_rps {
                    return Err(format!(
                        "burst_rps ({burst_rps}) must be >= base_rps ({base_rps})"
                    ));
                }
                if burst_s >= period_s {
                    return Err(format!(
                        "burst_s ({burst_s}), the burst duration, must be shorter than \
                         period_s ({period_s})"
                    ));
                }
                let burst = burst_s / period_s;
                let mean = burst_rps * burst + base_rps * (1.0 - burst);
                check_span("base_rps and burst_rps: the mean rate", mean, requests)
            }
        }
    }
}

/// Per-request token-count model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthModel {
    /// Every request draws the same length.
    Fixed {
        /// The length in tokens.
        tokens: u64,
    },
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Smallest length.
        lo: u64,
        /// Largest length.
        hi: u64,
    },
    /// Bounded Pareto: density `∝ x^-(alpha+1)` on `[lo, cap]`. Small
    /// `alpha` (≈1) gives the heavy tail production prompt lengths
    /// show — most requests short, a few near the cap.
    HeavyTail {
        /// Smallest length.
        lo: u64,
        /// Tail exponent, `> 0`; smaller is heavier.
        alpha: f64,
        /// Largest length (truncation point).
        cap: u64,
    },
}

impl LengthModel {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            LengthModel::Fixed { tokens } => tokens,
            LengthModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            LengthModel::HeavyTail { lo, alpha, cap } => {
                // Inverse-CDF of the bounded Pareto on [lo, cap].
                let u: f64 = rng.gen_range(0.0..1.0);
                let l = lo as f64;
                let ratio = (l / cap as f64).powf(alpha);
                let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                (x.round() as u64).clamp(lo, cap)
            }
        }
    }

    /// Checks the model: non-zero lengths, ordered bounds, and a finite
    /// positive tail exponent; errors name `field`.
    fn validate(&self, field: &str) -> Result<(), String> {
        let ok = match *self {
            LengthModel::Fixed { tokens } => tokens > 0,
            LengthModel::Uniform { lo, hi } => lo > 0 && lo <= hi,
            LengthModel::HeavyTail { lo, alpha, cap } => {
                lo > 0 && lo <= cap && alpha.is_finite() && alpha > 0.0
            }
        };
        if ok {
            return Ok(());
        }
        Err(format!("{field}: ill-formed length model {self:?}"))
    }
}

/// Recipe for a synthetic trace file; fully determined by its `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenConfig {
    /// RNG seed — same config and seed, same bytes out.
    pub seed: u64,
    /// Number of records to generate.
    pub requests: usize,
    /// Arrival-rate shape.
    pub rate: RateShape,
    /// Prompt-length model.
    pub prompt_len: LengthModel,
    /// Output-length model.
    pub output_len: LengthModel,
    /// Number of tenants to spread requests over uniformly (ids
    /// `"t0"`..`"t{n-1}"`). `0` omits the tenant field entirely.
    pub tenants: u64,
}

impl Default for TraceGenConfig {
    /// A small smoke-test recipe: 64 requests at a constant 100 rps.
    fn default() -> Self {
        TraceGenConfig {
            seed: 0x5eed,
            requests: 64,
            rate: RateShape::Constant { rate_rps: 100.0 },
            prompt_len: LengthModel::Uniform { lo: 128, hi: 512 },
            output_len: LengthModel::Uniform { lo: 4, hi: 16 },
            tenants: 0,
        }
    }
}

impl TraceGenConfig {
    /// Checks the request count, the rate shape and both length models.
    /// A count whose records would pass `isize::MAX` bytes fails; one
    /// that fits the address space but not memory passes.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with its field name.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests > isize::MAX as usize / std::mem::size_of::<TraceRecord>() {
            return Err(format!(
                "requests: {} records overflow the address space",
                self.requests
            ));
        }
        self.rate
            .validate(self.requests)
            .map_err(|e| format!("rate.{e}"))?;
        self.prompt_len.validate("prompt_len")?;
        self.output_len.validate("output_len")
    }

    /// Generates the trace by Lewis–Shedler thinning: propose from a
    /// homogeneous process at the peak rate, accept each proposal with
    /// probability `rate(t) / peak`. Exact for any bounded-rate shape.
    ///
    /// # Panics
    ///
    /// Panics where [`validate`](Self::validate) fails.
    #[must_use]
    pub fn generate(&self) -> TraceFile {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let peak = self.rate.peak_rate();
        let mut t = 0.0f64;
        let mut records = Vec::with_capacity(self.requests);
        for _ in 0..self.requests {
            loop {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -(1.0 - u).ln() / peak;
                if rng.gen_bool(self.rate.rate_at(t) / peak) {
                    break;
                }
            }
            records.push(TraceRecord {
                arrival_s: t,
                prompt_len: self.prompt_len.sample(&mut rng),
                output_len: self.output_len.sample(&mut rng),
                tenant: (self.tenants > 0)
                    .then(|| format!("t{}", rng.gen_range(0..=self.tenants - 1))),
            });
        }
        TraceFile { records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceFile;

    fn burst_cfg(seed: u64) -> TraceGenConfig {
        TraceGenConfig {
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
            tenants: 3,
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
        let t = TraceGenConfig {
            rate: shape,
            requests: 2000,
            ..TraceGenConfig::default()
        }
        .generate();
        let rate = t.len() as f64 / t.duration_s();
        assert!((rate / 100.0 - 1.0).abs() < 0.15, "long-run rate {rate}");
    }

    #[test]
    fn heavy_tail_is_heavy_but_bounded() {
        let model = LengthModel::HeavyTail {
            lo: 32,
            alpha: 1.1,
            cap: 2048,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<u64> = (0..2000).map(|_| model.sample(&mut rng)).collect();
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
        let recipe = |mean_rps| TraceGenConfig {
            rate: RateShape::Diurnal {
                mean_rps,
                amplitude: 0.5,
                period_s: 1.0,
            },
            ..TraceGenConfig::default()
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
        let recipe = |rate| TraceGenConfig {
            rate,
            ..TraceGenConfig::default()
        };
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
        let _ = TraceGenConfig {
            rate: RateShape::Diurnal {
                mean_rps: 10.0,
                amplitude: 1.0,
                period_s: 1.0,
            },
            ..TraceGenConfig::default()
        }
        .generate();
    }

    #[test]
    #[should_panic(expected = "burst duration")]
    fn burst_longer_than_period_rejected() {
        let _ = TraceGenConfig {
            rate: RateShape::BurstTrain {
                base_rps: 10.0,
                burst_rps: 20.0,
                period_s: 1.0,
                burst_s: 1.5,
            },
            ..TraceGenConfig::default()
        }
        .generate();
    }
}
