//! Multi-tenant serving support: SLO classes, per-tenant token-bucket
//! admission, load-shed policy knobs, and fairness metrics.
//!
//! This module holds the *policy* types; the engines (notably
//! `elk-cluster`'s `TenantServingSim`) consume them. A tenant maps to a
//! [`TenantClass`] carrying its own latency SLO, a scheduling priority
//! that feeds the kernel's event ordering, an optional per-tenant rate
//! limit, an optional model alias (several models can share one pod —
//! the plan cache keys on the model name), and a `sheddable` flag that
//! opts the class into load shedding under queue pressure.
//!
//! Everything here is deterministic: the token bucket refills lazily
//! from simulated timestamps and the fairness index is a pure fold, so
//! engines built on these types keep their byte-identical-report
//! contract.

use serde::{Deserialize, Serialize};

use elk_units::Seconds;

use crate::metrics::{LatencyStats, SloConfig};
use crate::trace::check_positive;

/// Largest admissible [`TenantClass::priority`]. Engines reserve the
/// priority band above this for their own completion events, so class
/// priorities can never reorder an arrival past a step completion.
pub const MAX_CLASS_PRIORITY: u8 = 63;

/// One SLO class: the service contract a set of tenants is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantClass {
    /// Class name, referenced by [`TenancyConfig::tenants`].
    pub name: String,
    /// Kernel scheduling priority for this class's arrivals: lower
    /// fires first at equal timestamps. Must be `<=`
    /// [`MAX_CLASS_PRIORITY`]; within a class FIFO order is preserved.
    pub priority: u8,
    /// Latency SLO this class's goodput is scored against.
    pub slo: SloConfig,
    /// Token-bucket refill rate in requests/second; `None` disables
    /// rate limiting for the class.
    pub rate_rps: Option<f64>,
    /// Token-bucket capacity (burst size) when rate-limited, `>= 1`.
    pub burst: u64,
    /// Optional model-zoo alias this class is served by; `None` means
    /// the pod's base model. Distinct aliases genuinely coexist on one
    /// pod because compiled-plan cache keys carry the model name.
    pub model: Option<String>,
    /// Whether the load shedder may reject/defer this class when the
    /// time-weighted queue depth crosses the threshold. Premium classes
    /// set this `false`.
    pub sheddable: bool,
}

impl TenantClass {
    /// A permissive class: priority 0, default SLO, no rate limit, base
    /// model, not sheddable.
    #[must_use]
    pub fn named(name: &str) -> Self {
        TenantClass {
            name: name.to_string(),
            priority: 0,
            slo: SloConfig::default(),
            rate_rps: None,
            burst: 1,
            model: None,
            sheddable: false,
        }
    }
}

/// What the load shedder does to a sheddable arrival under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Drop the request outright (it never enters any queue).
    Reject,
    /// Re-offer the request once after [`TenancyConfig::defer_s`]; the
    /// retry is served unconditionally (one-shot backpressure).
    Defer,
}

/// Full multi-tenancy policy: classes, the tenant→class map, and the
/// load-shed knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancyConfig {
    /// SLO classes, in declaration order (order is meaningful only for
    /// reporting; scheduling uses [`TenantClass::priority`]).
    pub classes: Vec<TenantClass>,
    /// `(tenant id, class name)` pairs; tenants absent from the map
    /// fall back to [`default_class`](Self::default_class).
    pub tenants: Vec<(String, String)>,
    /// Class for unmapped tenants (and for traces without tenant ids).
    pub default_class: String,
    /// Load-shed threshold on the run's time-weighted mean waiting
    /// depth (all groups pooled); `None` disables shedding.
    pub shed_queue_depth: Option<f64>,
    /// What happens to sheddable arrivals past the threshold.
    pub shed_policy: ShedPolicy,
    /// Defer delay in seconds for [`ShedPolicy::Defer`].
    pub defer_s: f64,
}

impl Default for TenancyConfig {
    /// One permissive `"default"` class, no rate limits, no shedding —
    /// behaviorally identical to running without tenancy.
    fn default() -> Self {
        TenancyConfig {
            classes: vec![TenantClass::named("default")],
            tenants: Vec::new(),
            default_class: "default".to_string(),
            shed_queue_depth: None,
            shed_policy: ShedPolicy::Reject,
            defer_s: 0.05,
        }
    }
}

impl TenancyConfig {
    /// Index into [`classes`](Self::classes) serving `tenant`.
    ///
    /// # Panics
    ///
    /// Panics when the config is invalid (unknown default class); run
    /// [`validate`](Self::validate) first.
    #[must_use]
    pub fn class_index_of(&self, tenant: &str) -> usize {
        let name = self
            .tenants
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(self.default_class.as_str(), |(_, c)| c.as_str());
        self.classes
            .iter()
            .position(|c| c.name == name)
            .expect("validated: class names resolve")
    }

    /// The class serving `tenant` (map hit or the default class).
    #[must_use]
    pub fn class_of(&self, tenant: &str) -> &TenantClass {
        &self.classes[self.class_index_of(tenant)]
    }

    /// Checks structural consistency, returning the first problem as a
    /// message: non-empty unique classes, priorities within
    /// [`MAX_CLASS_PRIORITY`], positive SLO bounds, positive rates with
    /// `burst >= 1`, the default class and every mapped class
    /// resolvable, unique tenant ids, and shed knobs positive.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("tenancy needs at least one class".to_string());
        }
        for (i, c) in self.classes.iter().enumerate() {
            if c.name.is_empty() {
                return Err(format!("class {i} has an empty name"));
            }
            if self.classes[..i].iter().any(|p| p.name == c.name) {
                return Err(format!("duplicate class name {:?}", c.name));
            }
            if c.priority > MAX_CLASS_PRIORITY {
                return Err(format!(
                    "class {:?} priority {} exceeds the max {MAX_CLASS_PRIORITY}",
                    c.name, c.priority
                ));
            }
            for (bound, t) in [("slo.ttft", c.slo.ttft), ("slo.tpot", c.slo.tpot)] {
                check_positive(&format!("class {:?} {bound}", c.name), t.as_secs())?;
            }
            if let Some(r) = c.rate_rps {
                check_positive(&format!("class {:?} rate_rps", c.name), r)?;
                if c.burst == 0 {
                    return Err(format!("class {:?} burst must be >= 1", c.name));
                }
            }
            if let Some(m) = &c.model {
                if m.is_empty() {
                    return Err(format!("class {:?} model alias is empty", c.name));
                }
            }
        }
        if !self.classes.iter().any(|c| c.name == self.default_class) {
            return Err(format!("unknown default class {:?}", self.default_class));
        }
        for (i, (tenant, class)) in self.tenants.iter().enumerate() {
            if tenant.is_empty() {
                return Err(format!("tenant mapping {i} has an empty tenant id"));
            }
            if self.tenants[..i].iter().any(|(t, _)| t == tenant) {
                return Err(format!("tenant {tenant:?} mapped twice"));
            }
            if !self.classes.iter().any(|c| &c.name == class) {
                return Err(format!("tenant {tenant:?} maps to unknown class {class:?}"));
            }
        }
        if let Some(d) = self.shed_queue_depth {
            check_positive("shed_queue_depth", d)?;
        }
        self.check_defer_delay("defer_s", self.defer_s)
    }

    /// [`validate`](Self::validate)'s defer rule: shedding under
    /// [`ShedPolicy::Defer`] needs a finite positive `delay`. It holds in
    /// any time unit, so input can be checked as written, under `field`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `field` when the rule fails.
    pub fn check_defer_delay(&self, field: &str, delay: f64) -> Result<(), String> {
        match (self.shed_queue_depth, self.shed_policy) {
            (Some(_), ShedPolicy::Defer) => check_positive(field, delay),
            _ => Ok(()),
        }
    }
}

/// Deterministic token bucket for per-tenant rate limiting.
///
/// The bucket starts full and refills lazily: each
/// [`try_take`](Self::try_take) first credits `rate_rps × elapsed`
/// tokens (capped at the burst capacity), then spends one token if
/// available. Refill happens only from the simulated clock, so replays
/// are exact.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate_rps: f64,
    capacity: f64,
    tokens: f64,
    last: Seconds,
}

impl TokenBucket {
    /// A full bucket refilling at `rate_rps` with `burst` capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_rps > 0` and `burst >= 1`.
    #[must_use]
    pub fn new(rate_rps: f64, burst: u64) -> Self {
        assert!(rate_rps > 0.0, "token bucket rate must be > 0");
        assert!(burst >= 1, "token bucket burst must be >= 1");
        TokenBucket {
            rate_rps,
            capacity: burst as f64,
            tokens: burst as f64,
            last: Seconds::ZERO,
        }
    }

    /// Credits elapsed refill up to `now`, then takes one token if the
    /// bucket holds at least one. `now` must not run backwards.
    pub fn try_take(&mut self, now: Seconds) -> bool {
        assert!(now >= self.last, "token bucket clock ran backwards");
        let credited = self.tokens + self.rate_rps * (now - self.last).as_secs();
        self.tokens = credited.min(self.capacity);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently held (as of the last [`try_take`](Self::try_take)).
    #[must_use]
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Jain fairness index over non-negative shares:
/// `(Σx)² / (n · Σx²)`, which is `1` for perfectly equal shares and
/// `1/n` when one share takes everything. Degenerate inputs (empty, or
/// all-zero) score `1.0` — nothing is being divided unfairly.
///
/// # Examples
///
/// ```
/// use elk_serve::jain_index;
///
/// assert_eq!(jain_index(&[1.0, 1.0, 1.0]), 1.0);
/// assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
/// assert_eq!(jain_index(&[]), 1.0);
/// ```
#[must_use]
pub fn jain_index(shares: &[f64]) -> f64 {
    let sum: f64 = shares.iter().sum();
    let sq: f64 = shares.iter().map(|x| x * x).sum();
    if shares.is_empty() || sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sq)
}

/// Per-tenant slice of a serving report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantReport {
    /// Tenant id from the trace (`"default"` for untagged traces).
    pub tenant: String,
    /// Name of the class the tenant was served under.
    pub class: String,
    /// Requests this tenant offered.
    pub arrivals: usize,
    /// Requests admitted directly (first offer).
    pub admitted: usize,
    /// Requests dropped by the rate limiter or the load shedder.
    pub rejected: usize,
    /// Requests deferred once by the load shedder (they complete, but
    /// only after the defer delay).
    pub deferred: usize,
    /// Requests that ran to completion (`admitted + deferred`).
    pub completed: usize,
    /// Fraction of completions meeting the *class* SLO.
    pub slo_attainment: f64,
    /// Class-SLO-meeting completions per second of run makespan.
    pub goodput_rps: f64,
    /// Time-to-first-token summary over completions.
    pub ttft: LatencyStats,
    /// Time-per-output-token summary (multi-token completions).
    pub tpot: LatencyStats,
    /// End-to-end latency summary over completions.
    pub e2e: LatencyStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class_config() -> TenancyConfig {
        TenancyConfig {
            classes: vec![
                TenantClass {
                    rate_rps: Some(100.0),
                    burst: 4,
                    ..TenantClass::named("premium")
                },
                TenantClass {
                    priority: 9,
                    sheddable: true,
                    ..TenantClass::named("best_effort")
                },
            ],
            tenants: vec![("acme".to_string(), "premium".to_string())],
            default_class: "best_effort".to_string(),
            shed_queue_depth: Some(4.0),
            shed_policy: ShedPolicy::Defer,
            defer_s: 0.1,
        }
    }

    #[test]
    fn default_config_is_valid_and_permissive() {
        let c = TenancyConfig::default();
        c.validate().unwrap();
        assert_eq!(c.class_of("anyone").name, "default");
        assert_eq!(c.class_of("anyone").priority, 0);
        assert!(c.class_of("anyone").rate_rps.is_none());
    }

    #[test]
    fn mapped_and_default_lookup() {
        let c = two_class_config();
        c.validate().unwrap();
        assert_eq!(c.class_of("acme").name, "premium");
        assert_eq!(c.class_index_of("acme"), 0);
        assert_eq!(c.class_of("strangers").name, "best_effort");
        assert_eq!(c.class_index_of("strangers"), 1);
    }

    #[test]
    fn validation_catches_each_violation() {
        let cases: Vec<(&str, TenancyConfig)> = vec![
            (
                "at least one class",
                TenancyConfig {
                    classes: vec![],
                    ..TenancyConfig::default()
                },
            ),
            (
                "duplicate class name",
                TenancyConfig {
                    classes: vec![TenantClass::named("a"), TenantClass::named("a")],
                    default_class: "a".to_string(),
                    ..TenancyConfig::default()
                },
            ),
            (
                "exceeds the max",
                TenancyConfig {
                    classes: vec![TenantClass {
                        priority: MAX_CLASS_PRIORITY + 1,
                        ..TenantClass::named("default")
                    }],
                    ..TenancyConfig::default()
                },
            ),
            (
                "rate_rps must be > 0",
                TenancyConfig {
                    classes: vec![TenantClass {
                        rate_rps: Some(0.0),
                        ..TenantClass::named("default")
                    }],
                    ..TenancyConfig::default()
                },
            ),
            (
                "burst must be >= 1",
                TenancyConfig {
                    classes: vec![TenantClass {
                        rate_rps: Some(1.0),
                        burst: 0,
                        ..TenantClass::named("default")
                    }],
                    ..TenancyConfig::default()
                },
            ),
            (
                "unknown default class",
                TenancyConfig {
                    default_class: "nope".to_string(),
                    ..TenancyConfig::default()
                },
            ),
            (
                "maps to unknown class",
                TenancyConfig {
                    tenants: vec![("t".to_string(), "nope".to_string())],
                    ..TenancyConfig::default()
                },
            ),
            (
                "mapped twice",
                TenancyConfig {
                    tenants: vec![
                        ("t".to_string(), "default".to_string()),
                        ("t".to_string(), "default".to_string()),
                    ],
                    ..TenancyConfig::default()
                },
            ),
            (
                "shed_queue_depth must be > 0",
                TenancyConfig {
                    shed_queue_depth: Some(0.0),
                    ..TenancyConfig::default()
                },
            ),
            (
                "defer_s must be > 0",
                TenancyConfig {
                    shed_queue_depth: Some(1.0),
                    shed_policy: ShedPolicy::Defer,
                    defer_s: 0.0,
                    ..TenancyConfig::default()
                },
            ),
        ];
        for (needle, cfg) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "{needle:?} not in {err:?}");
        }
    }

    #[test]
    fn token_bucket_spends_burst_then_blocks() {
        let mut b = TokenBucket::new(10.0, 3);
        let t = Seconds::ZERO;
        assert!(b.try_take(t));
        assert!(b.try_take(t));
        assert!(b.try_take(t));
        assert!(!b.try_take(t), "burst exhausted at the same instant");
        // 0.1 s at 10 rps refills exactly one token.
        assert!(b.try_take(Seconds::new(0.1)));
        assert!(!b.try_take(Seconds::new(0.1)));
    }

    #[test]
    fn token_bucket_refill_is_monotone_and_capped() {
        let mut b = TokenBucket::new(2.0, 5);
        for _ in 0..5 {
            assert!(b.try_take(Seconds::ZERO));
        }
        let mut last = b.tokens();
        // Without spends, credited tokens never decrease and never
        // exceed the burst capacity.
        for i in 1..=100u32 {
            let now = Seconds::new(f64::from(i) * 0.07);
            let credited = b.tokens + b.rate_rps * (now - b.last).as_secs();
            b.tokens = credited.min(b.capacity);
            b.last = now;
            assert!(b.tokens() >= last - 1e-12, "refill went backwards");
            assert!(b.tokens() <= 5.0 + 1e-12, "refill overflowed the burst");
            last = b.tokens();
        }
        assert!((b.tokens() - 5.0).abs() < 1e-9, "long idle refills to cap");
    }

    #[test]
    #[should_panic(expected = "clock ran backwards")]
    fn token_bucket_rejects_time_travel() {
        let mut b = TokenBucket::new(1.0, 1);
        let _ = b.try_take(Seconds::new(1.0));
        let _ = b.try_take(Seconds::new(0.5));
    }

    #[test]
    fn jain_index_known_values() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[5.0]), 1.0);
        assert!((jain_index(&[2.0, 2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        // Monotone: evening out shares raises the index.
        assert!(jain_index(&[3.0, 1.0]) < jain_index(&[2.5, 1.5]));
    }
}
