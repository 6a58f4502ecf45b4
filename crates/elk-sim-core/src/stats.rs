//! Time-weighted statistics over piecewise-constant signals.
//!
//! A sampled mean (`sum of samples / number of samples`) weights a 5 ms
//! decode step exactly like a 900 ms long-context prefill stall; the
//! accumulators here weight every value by **how long it was held**
//! instead, which is the quantity a queue-depth or utilization report
//! actually means.

use elk_units::Seconds;

/// Integrates a piecewise-constant `f64` signal over simulation time.
///
/// The signal starts at value `0` at `t = 0`; each
/// [`record`](TimeWeighted::record) call sets a new value from that
/// instant onward. The time-weighted mean over `[0, end]` is
/// `∫ value dt / end`.
///
/// # Examples
///
/// ```
/// use elk_sim_core::TimeWeighted;
/// use elk_units::Seconds;
///
/// // Depth 1 held for 0.9 s, then 0 for 0.1 s: the sample mean of the
/// // two recorded values is 0.5, but the *time* mean is 0.9.
/// let mut tw = TimeWeighted::new();
/// tw.record(Seconds::ZERO, 1.0);
/// tw.record(Seconds::new(0.9), 0.0);
/// assert!((tw.mean_until(Seconds::new(1.0)) - 0.9).abs() < 1e-12);
/// assert_eq!(tw.peak(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: Seconds,
    last_value: f64,
    area: f64,
    peak: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        TimeWeighted::new()
    }
}

impl TimeWeighted {
    /// Value `0` from `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        TimeWeighted {
            last_time: Seconds::ZERO,
            last_value: 0.0,
            area: 0.0,
            peak: 0.0,
        }
    }

    /// Sets the signal to `value` from instant `t` onward.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the previous record — time-weighted
    /// accumulation needs monotone timestamps.
    #[inline]
    pub fn record(&mut self, t: Seconds, value: f64) {
        if t < self.last_time {
            non_monotone(t, self.last_time);
        }
        self.area += self.last_value * (t - self.last_time).as_secs();
        self.last_time = t;
        self.last_value = value;
        self.peak = self.peak.max(value);
    }

    /// The current value of the signal.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.last_value
    }

    /// `∫ value dt` over `[0, end]`, holding the last value to `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end` is before the last record.
    #[must_use]
    pub fn area_until(&self, end: Seconds) -> f64 {
        assert!(
            end >= self.last_time,
            "area_until({end}) precedes the last record at {}",
            self.last_time
        );
        self.area + self.last_value * (end - self.last_time).as_secs()
    }

    /// The time-weighted mean over `[0, end]` (zero for `end = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `end` is before the last record.
    #[must_use]
    pub fn mean_until(&self, end: Seconds) -> f64 {
        if end.is_zero() {
            return 0.0;
        }
        self.area_until(end) / end.as_secs()
    }

    /// The largest value ever recorded (zero if nothing was).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak
    }
}

/// A queue-depth trace: a [`TimeWeighted`] accumulator plus the
/// timestamped transition log both serving engines report.
///
/// [`record`](QueueStat::record) is transition-oriented: recording the
/// depth the signal already holds is a no-op, so decode-heavy runs do
/// not bloat the log with unchanged samples.
///
/// # Examples
///
/// ```
/// use elk_sim_core::QueueStat;
/// use elk_units::Seconds;
///
/// let mut q = QueueStat::new();
/// q.record(Seconds::new(0.1), 2); // two requests queued at t=0.1
/// q.record(Seconds::new(0.1), 2); // unchanged: not logged again
/// q.record(Seconds::new(0.5), 0); // both admitted at t=0.5
/// assert_eq!(q.samples(), &[(Seconds::new(0.1), 2), (Seconds::new(0.5), 0)]);
/// assert_eq!(q.max_depth(), 2);
/// // 0.4 s at depth 2 over a 1 s window.
/// assert!((q.mean_until(Seconds::new(1.0)) - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueueStat {
    weighted: TimeWeighted,
    samples: Vec<(Seconds, usize)>,
}

impl QueueStat {
    /// Depth `0` from `t = 0`, empty log.
    #[must_use]
    pub fn new() -> Self {
        QueueStat::default()
    }

    /// Sets the depth to `depth` from instant `t` onward, logging a
    /// `(t, depth)` sample when the depth actually changed.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an earlier record.
    #[inline]
    pub fn record(&mut self, t: Seconds, depth: usize) {
        #[allow(clippy::float_cmp)] // depths are small exact integers
        if self.weighted.value() == depth as f64 {
            return;
        }
        self.weighted.record(t, depth as f64);
        self.samples.push((t, depth));
    }

    /// The current depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.weighted.value() as usize
    }

    /// The deepest queue ever recorded.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.weighted.peak() as usize
    }

    /// `∫ depth dt` over `[0, end]` — see [`TimeWeighted::area_until`].
    ///
    /// # Panics
    ///
    /// Panics if `end` is before the last record.
    #[must_use]
    pub fn area_until(&self, end: Seconds) -> f64 {
        self.weighted.area_until(end)
    }

    /// The time-weighted mean depth over `[0, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end` is before the last record.
    #[must_use]
    pub fn mean_until(&self, end: Seconds) -> f64 {
        self.weighted.mean_until(end)
    }

    /// The transition log, in time order.
    #[must_use]
    pub fn samples(&self) -> &[(Seconds, usize)] {
        &self.samples
    }

    /// Consumes the trace, returning the transition log.
    #[must_use]
    pub fn into_samples(self) -> Vec<(Seconds, usize)> {
        self.samples
    }
}

#[cold]
#[inline(never)]
fn non_monotone(t: Seconds, last: Seconds) -> ! {
    panic!("non-monotone record at {t} after {last}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The issue's motivating regime: many short decode steps must not
    /// drown out one long prefill stall. Two-step hand trace: depth 3
    /// for 0.9 s (a long prefill holds the queue), then depth 1 for
    /// 0.1 s. Sample mean = 2; time mean = (3·0.9 + 1·0.1) / 1 = 2.8.
    #[test]
    fn time_mean_differs_from_sample_mean_on_a_two_step_trace() {
        let mut tw = TimeWeighted::new();
        tw.record(Seconds::ZERO, 3.0);
        tw.record(Seconds::new(0.9), 1.0);
        let time_mean = tw.mean_until(Seconds::new(1.0));
        let sample_mean = (3.0 + 1.0) / 2.0;
        assert!((time_mean - 2.8).abs() < 1e-12, "got {time_mean}");
        assert!(
            (time_mean - sample_mean).abs() > 0.5,
            "the two means must provably differ: {time_mean} vs {sample_mean}"
        );
    }

    #[test]
    fn area_extends_the_last_value_to_the_horizon() {
        let mut tw = TimeWeighted::new();
        tw.record(Seconds::new(1.0), 2.0);
        // [0,1) at 0, [1,3) at 2 => area 4.
        assert!((tw.area_until(Seconds::new(3.0)) - 4.0).abs() < 1e-12);
        assert!((tw.mean_until(Seconds::new(3.0)) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_is_all_zeros() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.mean_until(Seconds::ZERO), 0.0);
        assert_eq!(tw.mean_until(Seconds::new(5.0)), 0.0);
        assert_eq!(tw.peak(), 0.0);
        assert_eq!(tw.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn rejects_time_going_backwards() {
        let mut tw = TimeWeighted::new();
        tw.record(Seconds::new(2.0), 1.0);
        tw.record(Seconds::new(1.0), 2.0);
    }

    #[test]
    fn queue_stat_dedups_unchanged_depths() {
        let mut q = QueueStat::new();
        q.record(Seconds::ZERO, 0); // no-op: already 0
        q.record(Seconds::new(0.5), 4);
        q.record(Seconds::new(0.6), 4); // no-op
        q.record(Seconds::new(0.8), 1);
        assert_eq!(q.samples().len(), 2);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.max_depth(), 4);
        // 0.3 s at 4 + 0.2 s at 1 over 1 s.
        assert!((q.mean_until(Seconds::new(1.0)) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn queue_stat_into_samples_round_trips() {
        let mut q = QueueStat::new();
        q.record(Seconds::new(0.25), 2);
        let samples = q.into_samples();
        assert_eq!(samples, vec![(Seconds::new(0.25), 2)]);
    }
}
