//! Request traces: synthetic arrival processes and length distributions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use elk_units::Seconds;

/// One inference request in a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Trace-unique identifier (assigned in arrival order).
    pub id: u64,
    /// Arrival timestamp relative to trace start.
    pub arrival: Seconds,
    /// Prompt (prefill) length in tokens.
    pub prompt_len: u64,
    /// Tokens to generate, counting the one the prefill step produces.
    pub output_len: u64,
}

/// When requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate (requests/second).
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
    },
    /// On/off-modulated Poisson: within each `period_s`-second window the
    /// first `duty` fraction runs at `burst_factor × rate_rps` and the
    /// remainder at a reduced rate so the long-run mean stays `rate_rps`.
    /// Models diurnal spikes and thundering herds.
    Bursty {
        /// Long-run mean arrival rate in requests per second.
        rate_rps: f64,
        /// Rate multiplier inside a burst (`>= 1`; `burst_factor * duty`
        /// must stay `< 1` so the off-phase rate is positive).
        burst_factor: f64,
        /// Burst cycle length in seconds.
        period_s: f64,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        duty: f64,
    },
}

impl ArrivalProcess {
    /// Instantaneous rate at time `t` (requests/second).
    #[must_use]
    pub fn rate_at(&self, t: Seconds) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } => rate_rps,
            ArrivalProcess::Bursty {
                rate_rps,
                burst_factor,
                period_s,
                duty,
            } => {
                let phase = (t.as_secs() / period_s).fract();
                if phase < duty {
                    rate_rps * burst_factor
                } else {
                    // Balances the burst so the long-run mean is rate_rps.
                    rate_rps * (1.0 - burst_factor * duty) / (1.0 - duty)
                }
            }
        }
    }

    /// Upper bound on [`rate_at`](Self::rate_at) over all times — the
    /// proposal rate for thinning.
    fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } => rate_rps,
            ArrivalProcess::Bursty {
                rate_rps,
                burst_factor,
                ..
            } => rate_rps * burst_factor,
        }
    }

    /// Checks the process for `requests` arrivals: finite positive rate
    /// and period, `burst_factor >= 1`, `duty` in `(0, 1)`,
    /// `burst_factor * duty < 1`, a finite peak rate (an infinite one
    /// stops the thinning loop's clock, so no proposal is ever
    /// accepted), and a mean rate ([`check_span`]) whose arrivals stay
    /// finite.
    fn validate(&self, requests: usize) -> Result<(), String> {
        match *self {
            ArrivalProcess::Poisson { rate_rps } => {
                check_positive("rate_rps", rate_rps)?;
                check_span("rate_rps", rate_rps, requests)
            }
            ArrivalProcess::Bursty {
                rate_rps,
                burst_factor,
                period_s,
                duty,
            } => {
                check_positive("rate_rps", rate_rps)?;
                check_positive("period_s", period_s)?;
                if burst_factor < 1.0 {
                    return Err(format!("burst_factor must be >= 1, got {burst_factor}"));
                }
                if !(duty > 0.0 && duty < 1.0) {
                    return Err(format!("duty must be in (0, 1), got {duty}"));
                }
                if burst_factor * duty >= 1.0 {
                    return Err("burst_factor * duty must be < 1 \
                                (the off-phase rate would be <= 0)"
                        .into());
                }
                if !self.peak_rate().is_finite() {
                    return Err(format!(
                        "rate_rps ({rate_rps:?}) times burst_factor ({burst_factor:?}), the peak \
                         rate, must be finite"
                    ));
                }
                // The burst balances the off phase: the mean is rate_rps.
                check_span("rate_rps", rate_rps, requests)
            }
        }
    }
}

/// The rule for a trace's mean arrival rate: `requests` arrivals must
/// keep a finite clock. Each exponential gap is at most `53 ln 2 / rate`
/// seconds (`-ln(1 - u)` for the largest 53-bit uniform `u < 1`), so
/// with a factor of two for rounding a Poisson trace stays finite when
/// `2 × requests × 53 ln 2 / rate` does; a thinned shape does at its
/// mean rate with a wide margin. Checked after [`check_positive`].
///
/// # Errors
///
/// Returns a message naming `field` and the smallest rate that passes.
pub fn check_span(field: &str, rate: f64, requests: usize) -> Result<(), String> {
    let span = 2.0 * requests as f64 * 53.0 * std::f64::consts::LN_2;
    if (span / rate).is_finite() {
        return Ok(());
    }
    Err(format!(
        "{field} ({rate:?}) is too small: {requests} arrivals at this rate overflow the \
         clock; it must be at least {:?}",
        span / f64::MAX
    ))
}

/// The rule for rates, periods and other strictly positive knobs.
///
/// # Errors
///
/// Returns a message naming `field` unless `x` is finite and `> 0`.
pub fn check_positive(field: &str, x: f64) -> Result<(), String> {
    if x.is_finite() && x > 0.0 {
        return Ok(());
    }
    Err(format!("{field} must be > 0 and finite, got {x}"))
}

/// Distribution of a per-request token count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum LengthDist {
    /// Every request draws the same length.
    Fixed(u64),
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Smallest length.
        lo: u64,
        /// Largest length.
        hi: u64,
    },
    /// Two-population mix: chat-style short requests plus a long tail of
    /// document-scale ones.
    Bimodal {
        /// Short-population range, inclusive.
        short: (u64, u64),
        /// Long-population range, inclusive.
        long: (u64, u64),
        /// Probability of drawing from the long population.
        long_weight: f64,
    },
}

impl LengthDist {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            LengthDist::Fixed(n) => n,
            LengthDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            LengthDist::Bimodal {
                short,
                long,
                long_weight,
            } => {
                if rng.gen_bool(long_weight) {
                    rng.gen_range(long.0..=long.1)
                } else {
                    rng.gen_range(short.0..=short.1)
                }
            }
        }
    }

    /// Checks the distribution: non-zero lengths, ordered ranges, and a
    /// long-population weight in `[0, 1]`; errors name `field`.
    fn validate(&self, field: &str) -> Result<(), String> {
        let ok = match *self {
            LengthDist::Fixed(n) => n > 0,
            LengthDist::Uniform { lo, hi } => lo > 0 && lo <= hi,
            LengthDist::Bimodal {
                short,
                long,
                long_weight,
            } => {
                short.0 > 0
                    && short.0 <= short.1
                    && long.0 > 0
                    && long.0 <= long.1
                    && (0.0..=1.0).contains(&long_weight)
            }
        };
        if ok {
            return Ok(());
        }
        Err(format!("{field}: ill-formed length distribution {self:?}"))
    }
}

/// Recipe for a synthetic trace; fully determined by its `seed`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// RNG seed — the same config and seed always produce the identical
    /// trace.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Prompt-length distribution.
    pub prompt_len: LengthDist,
    /// Output-length distribution.
    pub output_len: LengthDist,
}

impl TraceConfig {
    /// Checks the request count, the arrival process and both length
    /// distributions. A count whose records would pass `isize::MAX` bytes
    /// fails; one that fits the address space but not memory passes.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with its field name.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests > isize::MAX as usize / std::mem::size_of::<Request>() {
            return Err(format!(
                "requests: {} records overflow the address space",
                self.requests
            ));
        }
        self.arrivals
            .validate(self.requests)
            .map_err(|e| format!("arrivals.{e}"))?;
        self.prompt_len.validate("prompt_len")?;
        self.output_len.validate("output_len")
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics where [`validate`](Self::validate) fails.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut t = Seconds::ZERO;
        let mut requests = Vec::with_capacity(self.requests);
        for id in 0..self.requests as u64 {
            t = self.next_arrival(t, &mut rng);
            requests.push(Request {
                id,
                arrival: t,
                prompt_len: self.prompt_len.sample(&mut rng),
                output_len: self.output_len.sample(&mut rng),
            });
        }
        RequestTrace { requests }
    }

    /// Draws the first arrival after `t` by Lewis–Shedler thinning:
    /// propose from a homogeneous process at the peak rate, accept with
    /// probability `rate(t) / peak`. Exact for any bounded-rate process
    /// and free of boundary-stepping numerics (a homogeneous process
    /// accepts every proposal).
    fn next_arrival(&self, mut t: Seconds, rng: &mut StdRng) -> Seconds {
        let peak = self.arrivals.peak_rate();
        loop {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += Seconds::new(-(1.0 - u).ln() / peak);
            if rng.gen_bool(self.arrivals.rate_at(t) / peak) {
                return t;
            }
        }
    }
}

/// A time-ordered sequence of requests — the simulator's input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Requests sorted by arrival time.
    pub requests: Vec<Request>,
}

impl RequestTrace {
    /// Wraps externally produced requests (e.g. parsed from a JSON
    /// trace file), sorting them by arrival time.
    ///
    /// # Panics
    ///
    /// Panics if any request has a zero prompt or output length.
    #[must_use]
    pub fn from_requests(mut requests: Vec<Request>) -> Self {
        for r in &requests {
            assert!(
                r.prompt_len > 0 && r.output_len > 0,
                "request {} has a zero-length prompt or output",
                r.id
            );
        }
        requests.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
        RequestTrace { requests }
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace has no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Arrival time of the last request (`ZERO` for an empty trace).
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.requests.last().map_or(Seconds::ZERO, |r| r.arrival)
    }

    /// Total tokens the trace asks the system to generate.
    #[must_use]
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_cfg(seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            requests: 200,
            arrivals: ArrivalProcess::Poisson { rate_rps: 100.0 },
            prompt_len: LengthDist::Uniform { lo: 100, hi: 900 },
            output_len: LengthDist::Fixed(32),
        }
    }

    #[test]
    fn same_seed_same_trace() {
        assert_eq!(poisson_cfg(7).generate(), poisson_cfg(7).generate());
        assert_ne!(
            poisson_cfg(7).generate().requests,
            poisson_cfg(8).generate().requests
        );
    }

    #[test]
    fn arrivals_are_sorted_and_rate_is_plausible() {
        let t = poisson_cfg(42).generate();
        assert_eq!(t.len(), 200);
        for w in t.requests.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // 200 requests at 100 rps: mean span 2 s, generous tolerance.
        let span = t.duration().as_secs();
        assert!((0.8..5.0).contains(&span), "span {span} implausible");
    }

    #[test]
    fn bursty_long_run_rate_matches_mean() {
        let cfg = TraceConfig {
            seed: 3,
            requests: 4000,
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 100.0,
                burst_factor: 4.0,
                period_s: 0.5,
                duty: 0.2,
            },
            prompt_len: LengthDist::Fixed(128),
            output_len: LengthDist::Fixed(8),
        };
        let t = cfg.generate();
        let rate = t.len() as f64 / t.duration().as_secs();
        assert!(
            (rate / 100.0 - 1.0).abs() < 0.15,
            "long-run rate {rate} too far from 100"
        );
    }

    #[test]
    fn bursty_rate_modulation() {
        let p = ArrivalProcess::Bursty {
            rate_rps: 100.0,
            burst_factor: 4.0,
            period_s: 1.0,
            duty: 0.2,
        };
        assert!((p.rate_at(Seconds::new(0.1)) - 400.0).abs() < 1e-9);
        assert!((p.rate_at(Seconds::new(0.5)) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn bimodal_draws_both_modes() {
        let d = LengthDist::Bimodal {
            short: (10, 20),
            long: (1000, 2000),
            long_weight: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<u64> = (0..200).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().any(|&s| s <= 20));
        assert!(samples.iter().any(|&s| s >= 1000));
    }

    #[test]
    fn from_requests_sorts() {
        let t = RequestTrace::from_requests(vec![
            Request {
                id: 1,
                arrival: Seconds::new(2.0),
                prompt_len: 10,
                output_len: 5,
            },
            Request {
                id: 0,
                arrival: Seconds::new(1.0),
                prompt_len: 10,
                output_len: 5,
            },
        ]);
        assert_eq!(t.requests[0].id, 0);
        assert_eq!(t.total_output_tokens(), 10);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_request_rejected() {
        let _ = RequestTrace::from_requests(vec![Request {
            id: 0,
            arrival: Seconds::ZERO,
            prompt_len: 0,
            output_len: 5,
        }]);
    }

    #[test]
    fn a_vanishing_rate_is_rejected() {
        // Gaps of ~1e308 s: every arrival after the first would be
        // infinite.
        let cfg = |arrivals| TraceConfig {
            arrivals,
            ..poisson_cfg(0)
        };
        let err = cfg(ArrivalProcess::Poisson { rate_rps: 1e-308 })
            .validate()
            .unwrap_err();
        assert!(
            err.starts_with("arrivals.rate_rps (1e-308) is too small"),
            "{err}"
        );
        let err = cfg(ArrivalProcess::Bursty {
            rate_rps: 1e-307,
            burst_factor: 2.0,
            period_s: 1.0,
            duty: 0.25,
        })
        .validate()
        .unwrap_err();
        assert!(
            err.starts_with("arrivals.rate_rps (1e-307) is too small"),
            "{err}"
        );
        // The smallest rate the check names keeps every arrival finite.
        let at_least: f64 = err.rsplit(' ').next().unwrap().parse().unwrap();
        let trace = cfg(ArrivalProcess::Poisson { rate_rps: at_least }).generate();
        assert!(trace.requests.iter().all(|r| r.arrival.is_finite()));
    }

    #[test]
    fn an_overflowing_peak_rate_is_rejected() {
        // The peak rate 2e308 is infinite: every thinning gap would be
        // zero and every acceptance test NaN, so generation never ends.
        let cfg = TraceConfig {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 1e308,
                burst_factor: 2.0,
                period_s: 1.0,
                duty: 0.25,
            },
            ..poisson_cfg(0)
        };
        let err = cfg.validate().unwrap_err();
        assert!(
            err.starts_with("arrivals.rate_rps (1e308) times burst_factor (2.0)"),
            "{err}"
        );
        // The largest burst that stays finite still generates.
        let cfg = TraceConfig {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 1e307,
                burst_factor: 2.0,
                period_s: 1.0,
                duty: 0.25,
            },
            ..poisson_cfg(0)
        };
        assert_eq!(cfg.generate().len(), 200);
    }

    #[test]
    #[should_panic(expected = "burst_factor * duty")]
    fn overdriven_burst_rejected() {
        let cfg = TraceConfig {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 10.0,
                burst_factor: 5.0,
                period_s: 1.0,
                duty: 0.5,
            },
            ..poisson_cfg(0)
        };
        let _ = cfg.generate();
    }
}
