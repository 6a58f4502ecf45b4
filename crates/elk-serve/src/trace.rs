//! Request traces and the one seeded generator that makes them:
//! arrival-rate shapes, token-length models, and a Lewis–Shedler
//! thinning loop.

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

/// The longest prompt or output a request may carry, `2³² − 1` tokens.
/// The engines add lengths up: a request's prompt plus the tokens it
/// has generated, a group's admitted prompt tokens, a trace's output
/// tokens. Any sum of up to `2³²` lengths this long stays within `u64`.
pub const MAX_TOKENS: u64 = u32::MAX as u64;

/// The most output tokens one trace may ask for, `2²⁸`: a recipe's
/// request count times its longest output length, or a trace file's
/// sum. A request decodes one token per step, so this bounds the steps
/// a replay simulates; ten million requests of up to 12 tokens (the
/// `scale` bench's lengths) fit.
pub const MAX_OUTPUT_TOKENS: u64 = 1 << 28;

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
        /// Burst duration per cycle, in `(0, period_s]`.
        burst_s: f64,
    },
}

impl RateShape {
    /// Lowers the on/off-modulated recipe `serving.trace` calls
    /// `Bursty`: the first `duty` fraction of every `period_s`-second
    /// window runs at `burst_factor × rate_rps`, the rest at the rate
    /// that keeps the long-run mean at `rate_rps`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the recipe field unless `rate_rps` and
    /// `period_s` are finite and positive, `burst_factor >= 1`, `duty`
    /// is in `(0, 1)`, `burst_factor * duty < 1` (the off-phase rate
    /// stays positive) and the peak rate is finite. The span rule
    /// ([`check_span`]) on `rate_rps` needs the request count, so it is
    /// the caller's.
    pub fn bursty(
        rate_rps: f64,
        burst_factor: f64,
        period_s: f64,
        duty: f64,
    ) -> Result<Self, String> {
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
        let burst_rps = rate_rps * burst_factor;
        if !burst_rps.is_finite() {
            return Err(format!(
                "rate_rps ({rate_rps:?}) times burst_factor ({burst_factor:?}), the peak \
                 rate, must be finite"
            ));
        }
        // At burst_factor 1 the balancing rate can round an ulp above the
        // burst rate; either way the thinning loop accepts every proposal.
        let base_rps = (rate_rps * (1.0 - burst_factor * duty) / (1.0 - duty)).min(burst_rps);
        // A window that rounds to nothing keeps the smallest one, so a
        // phase of exactly 0 (every time past 2^53 periods) still bursts.
        let burst_s = (duty * period_s).max(f64::from_bits(1));
        Ok(RateShape::BurstTrain {
            base_rps,
            burst_rps,
            period_s,
            burst_s,
        })
    }

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
    /// burst within its period, a finite peak rate (an infinite one
    /// stops the thinning loop's clock, so no proposal is ever
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
                if burst_s > period_s {
                    return Err(format!(
                        "burst_s ({burst_s}), the burst duration, must not exceed \
                         period_s ({period_s})"
                    ));
                }
                let burst = burst_s / period_s;
                let mean = burst_rps * burst + base_rps * (1.0 - burst);
                let field = "base_rps and burst_rps: the mean rate";
                check_span(field, mean, requests).or_else(|e| {
                    // Rebuilt from rounded rates and fractions, the mean
                    // of a lowered `Bursty` recipe can land a few ulps
                    // under the rate_rps that passed (1.7 at worst over
                    // 550k recipes at the smallest rate); check_span's
                    // factor of two absorbs the slack.
                    check_span(field, mean * (1.0 + 16.0 * f64::EPSILON), requests).map_err(|_| e)
                })
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

/// Per-request token-count model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum LengthModel {
    /// Every request draws the same length.
    Fixed(u64),
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

impl LengthModel {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            LengthModel::Fixed(n) => n,
            LengthModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            LengthModel::HeavyTail { lo, alpha, cap } => {
                // Inverse-CDF of the bounded Pareto on [lo, cap].
                let u: f64 = rng.gen_range(0.0..1.0);
                let l = lo as f64;
                let ratio = (l / cap as f64).powf(alpha);
                let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                (x.round() as u64).clamp(lo, cap)
            }
            LengthModel::Bimodal {
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

    /// Checks the model: non-zero lengths, ordered bounds, a finite
    /// positive tail exponent, a long-population weight in `[0, 1]`, and
    /// no length past [`MAX_TOKENS`]; errors name `field`. Returns the
    /// longest length the model draws.
    fn validate(&self, field: &str) -> Result<u64, String> {
        let (ok, longest) = match *self {
            LengthModel::Fixed(n) => (n > 0, n),
            LengthModel::Uniform { lo, hi } => (lo > 0 && lo <= hi, hi),
            LengthModel::HeavyTail { lo, alpha, cap } => {
                (lo > 0 && lo <= cap && alpha.is_finite() && alpha > 0.0, cap)
            }
            LengthModel::Bimodal {
                short,
                long,
                long_weight,
            } => (
                short.0 > 0
                    && short.0 <= short.1
                    && long.0 > 0
                    && long.0 <= long.1
                    && (0.0..=1.0).contains(&long_weight),
                short.1.max(long.1),
            ),
        };
        if !ok {
            return Err(format!("{field}: ill-formed length model {self:?}"));
        }
        if longest > MAX_TOKENS {
            return Err(format!(
                "{field}: a length of {longest} tokens passes the limit of {MAX_TOKENS}"
            ));
        }
        Ok(longest)
    }
}

/// Recipe for a synthetic trace; fully determined by its `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// RNG seed — the same config and seed always produce the identical
    /// trace.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Arrival-rate shape.
    pub rate: RateShape,
    /// Prompt-length model.
    pub prompt_len: LengthModel,
    /// Output-length model.
    pub output_len: LengthModel,
}

impl Default for TraceConfig {
    /// A small smoke-test recipe: 64 requests at a constant 100 rps.
    fn default() -> Self {
        TraceConfig {
            seed: 0x5eed,
            requests: 64,
            rate: RateShape::Constant { rate_rps: 100.0 },
            prompt_len: LengthModel::Uniform { lo: 128, hi: 512 },
            output_len: LengthModel::Uniform { lo: 4, hi: 16 },
        }
    }
}

impl TraceConfig {
    /// The most requests one recipe may generate, `2²⁴`: the generator
    /// allocates every record up front.
    pub const MAX_REQUESTS: usize = 1 << 24;

    /// Checks the recipe for [`generate`](Self::generate): at most
    /// [`MAX_REQUESTS`](Self::MAX_REQUESTS) requests, the rate shape,
    /// both length models, and at most [`MAX_OUTPUT_TOKENS`] output
    /// tokens should every request draw the longest output.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with its field name.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests > Self::MAX_REQUESTS {
            return Err(format!(
                "requests: {} passes the limit of {}",
                self.requests,
                Self::MAX_REQUESTS
            ));
        }
        self.rate
            .validate(self.requests)
            .map_err(|e| format!("rate.{e}"))?;
        self.prompt_len.validate("prompt_len")?;
        let longest = self.output_len.validate("output_len")?;
        let worst = self.requests as u64 * longest;
        if worst > MAX_OUTPUT_TOKENS {
            return Err(format!(
                "output_len: {} requests × up to {longest} tokens is {worst} output \
                 tokens at worst, past the limit of {MAX_OUTPUT_TOKENS}",
                self.requests
            ));
        }
        Ok(())
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics where [`validate`](Self::validate) fails.
    #[must_use]
    pub fn generate(&self) -> RequestTrace {
        RequestTrace {
            requests: self.generate_with(|r, _| r),
        }
    }

    /// Generates one record per request by Lewis–Shedler thinning:
    /// propose from a homogeneous process at the peak rate, accept each
    /// proposal with probability `rate(t) / peak`. Exact for any
    /// bounded-rate shape; a constant rate accepts every proposal.
    /// `record` turns each request into an `R` and may draw further from
    /// the generator, after the request's own draws.
    ///
    /// # Panics
    ///
    /// Panics where [`validate`](Self::validate) fails.
    pub fn generate_with<R>(&self, mut record: impl FnMut(Request, &mut StdRng) -> R) -> Vec<R> {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let peak = self.rate.peak_rate();
        let mut t = 0.0f64;
        let mut records = Vec::with_capacity(self.requests);
        for id in 0..self.requests as u64 {
            loop {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -(1.0 - u).ln() / peak;
                if rng.gen_bool(self.rate.rate_at(t) / peak) {
                    break;
                }
            }
            let request = Request {
                id,
                arrival: Seconds::new(t),
                prompt_len: self.prompt_len.sample(&mut rng),
                output_len: self.output_len.sample(&mut rng),
            };
            records.push(record(request, &mut rng));
        }
        records
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
    /// Panics if any request has a zero prompt or output length, or one
    /// past [`MAX_TOKENS`].
    #[must_use]
    pub fn from_requests(mut requests: Vec<Request>) -> Self {
        for r in &requests {
            assert!(
                (1..=MAX_TOKENS).contains(&r.prompt_len)
                    && (1..=MAX_TOKENS).contains(&r.output_len),
                "request {} has a zero-length or over-long prompt or output",
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
            rate: RateShape::Constant { rate_rps: 100.0 },
            prompt_len: LengthModel::Uniform { lo: 100, hi: 900 },
            output_len: LengthModel::Fixed(32),
        }
    }

    fn with_rate(rate: RateShape) -> TraceConfig {
        TraceConfig {
            rate,
            ..poisson_cfg(0)
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
            rate: RateShape::bursty(100.0, 4.0, 0.5, 0.2).unwrap(),
            prompt_len: LengthModel::Fixed(128),
            output_len: LengthModel::Fixed(8),
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
        let p = RateShape::bursty(100.0, 4.0, 1.0, 0.2).unwrap();
        assert!((p.rate_at(0.1) - 400.0).abs() < 1e-9);
        assert!((p.rate_at(0.5) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_boundary_recipes_lower_to_valid_burst_trains() {
        // The smallest rate the span error names, for this request count.
        let err = with_rate(RateShape::Constant { rate_rps: 1e-308 })
            .validate()
            .unwrap_err();
        let at_least: f64 = err.rsplit(' ').next().unwrap().parse().unwrap();
        let generates = |burst_factor: f64, period_s: f64, duty: f64| {
            let rate = RateShape::bursty(at_least, burst_factor, period_s, duty).unwrap();
            let trace = with_rate(rate).generate();
            assert!(
                trace.requests.iter().all(|r| r.arrival.is_finite()),
                "{rate:?}"
            );
        };
        // `burst_factor * duty` just under 1: a near-silent off phase.
        generates((1.0 - f64::EPSILON / 2.0) / 0.25, 0.2, 0.25);
        // `duty` just above 0: the burst window rounds to nothing.
        generates(3.0, 0.2, f64::from_bits(1));
        // A period one ulp long: the window rounds up to all of it.
        generates(1.2, f64::from_bits(1), 0.75);
        // A grid of ordinary recipes, each lowered mean a rounding away
        // from the rate.
        for duty in [0.05, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9, 0.99] {
            for fill in [0.0, 0.1, 0.37, 0.5, 0.9, 0.999] {
                let burst_factor = 1.0 + fill * (1.0 / duty - 1.0);
                for period_s in [0.2, 0.5, 1.0, 3.0, 7.3] {
                    let rate = RateShape::bursty(at_least, burst_factor, period_s, duty).unwrap();
                    assert_eq!(with_rate(rate).validate(), Ok(()), "{rate:?}");
                }
            }
        }
    }

    #[test]
    fn bimodal_draws_both_modes() {
        let d = LengthModel::Bimodal {
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
    fn lengths_past_the_token_limit_are_rejected() {
        let cfg = |prompt_len| TraceConfig {
            prompt_len,
            ..poisson_cfg(0)
        };
        for model in [
            LengthModel::Fixed(u64::MAX),
            LengthModel::Uniform {
                lo: 1,
                hi: MAX_TOKENS + 1,
            },
            LengthModel::HeavyTail {
                lo: 1,
                alpha: 1.1,
                cap: u64::MAX,
            },
            LengthModel::Bimodal {
                short: (1, 2),
                long: (3, MAX_TOKENS + 1),
                long_weight: 0.5,
            },
        ] {
            let err = cfg(model).validate().unwrap_err();
            assert!(err.starts_with("prompt_len: a length of"), "{err}");
        }
        let at_limit = cfg(LengthModel::Fixed(MAX_TOKENS)).generate();
        assert!(at_limit.requests.iter().all(|r| r.prompt_len == MAX_TOKENS));
    }

    #[test]
    fn sizes_past_their_limits_are_rejected() {
        let cfg = |requests, output_len| TraceConfig {
            requests,
            output_len,
            ..poisson_cfg(0)
        };
        let err = cfg(TraceConfig::MAX_REQUESTS + 1, LengthModel::Fixed(1))
            .validate()
            .unwrap_err();
        assert!(
            err.starts_with("requests: 16777217 passes the limit"),
            "{err}"
        );
        // Ten million requests of up to 12 tokens pass; one request of
        // up to 2^32 - 1 does not.
        let ten_million = LengthModel::Uniform { lo: 2, hi: 12 };
        assert_eq!(cfg(10_000_000, ten_million).validate(), Ok(()));
        let long = LengthModel::Uniform {
            lo: 1,
            hi: MAX_TOKENS,
        };
        let err = cfg(1, long).validate().unwrap_err();
        assert!(err.starts_with("output_len: 1 requests × up to"), "{err}");
        let at_limit = LengthModel::Fixed(MAX_OUTPUT_TOKENS / 256);
        assert_eq!(cfg(256, at_limit).validate(), Ok(()));
        assert!(cfg(257, at_limit).validate().is_err());
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
        let err = with_rate(RateShape::Constant { rate_rps: 1e-308 })
            .validate()
            .unwrap_err();
        assert!(
            err.starts_with("rate.rate_rps (1e-308) is too small"),
            "{err}"
        );
        let err = with_rate(RateShape::Diurnal {
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
        let err = with_rate(RateShape::BurstTrain {
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
        let trace = with_rate(RateShape::Constant { rate_rps: at_least }).generate();
        assert!(trace.requests.iter().all(|r| r.arrival.is_finite()));
        // A near-silent base between bursts passes: the mean rate counts.
        let bursts = with_rate(RateShape::BurstTrain {
            base_rps: 1e-308,
            burst_rps: 100.0,
            period_s: 1.0,
            burst_s: 0.5,
        });
        assert!(bursts
            .generate()
            .requests
            .iter()
            .all(|r| r.arrival.is_finite()));
    }

    #[test]
    fn an_overflowing_peak_rate_is_rejected() {
        // A peak rate of 2e308 or 1.5e308 × 1.5 is infinite: every
        // thinning gap would be zero and every acceptance test NaN, so
        // generation would never end.
        let err = RateShape::bursty(1e308, 2.0, 1.0, 0.25).unwrap_err();
        assert!(
            err.starts_with("rate_rps (1e308) times burst_factor (2.0)"),
            "{err}"
        );
        let diurnal = |mean_rps| {
            with_rate(RateShape::Diurnal {
                mean_rps,
                amplitude: 0.5,
                period_s: 1.0,
            })
        };
        assert_eq!(
            diurnal(1.5e308).validate().unwrap_err(),
            "rate.mean_rps (1.5e308) times 1 + amplitude (0.5), the peak rate, must be finite"
        );
        // The largest peaks that stay finite still generate.
        assert_eq!(diurnal(1e308).generate().len(), 200);
        let burst = RateShape::bursty(1e307, 2.0, 1.0, 0.25).unwrap();
        assert_eq!(with_rate(burst).generate().len(), 200);
    }

    #[test]
    #[should_panic(expected = "burst_factor * duty")]
    fn overdriven_burst_rejected() {
        let _ = RateShape::bursty(10.0, 5.0, 1.0, 0.5).unwrap();
    }
}
