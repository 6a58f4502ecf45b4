//! Property tests for the kernel's ordering and statistics contracts.

use elk_sim_core::{EventKey, EventQueue, TimeWeighted};
use elk_units::Seconds;
use proptest::collection::vec;
use proptest::prelude::*;

/// Schedules `events` in the given order and returns the pop sequence
/// of payload ids.
fn pop_order(events: &[(Seconds, u8, usize)]) -> Vec<usize> {
    let mut q = EventQueue::new();
    for &(time, priority, id) in events {
        q.schedule(time, priority, id);
    }
    std::iter::from_fn(|| q.pop().map(|s| s.event)).collect()
}

/// A deterministic in-place shuffle driven by `salt` (the shim's
/// strategies have no `Just`/`Shuffle`, so permute by hand).
fn permute<T>(items: &mut [T], salt: u64) {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Everything a driven queue reveals: the `peek_time` answer before
/// each pop, the popped `(key, payload)`s, the keys of the dynamic
/// schedules, and the final event count.
#[derive(Debug, PartialEq)]
struct Observed {
    peeks: Vec<Option<Seconds>>,
    pops: Vec<(EventKey, usize)>,
    scheduled: Vec<EventKey>,
    processed: u64,
}

/// Drives a queue to exhaustion, making the script's dynamic schedules
/// after each pop. Script step `i` (cycled) is `(kind, delay,
/// priority)`: kind 0 does nothing, 1 schedules at `now + delay`, 2
/// schedules twice at the same instant (an equal-time tie), 3 uses
/// `schedule` with an absolute time.
fn drive(mut q: EventQueue<usize>, script: &[(u8, u32, u8)]) -> Observed {
    let mut peeks = vec![q.peek_time()];
    let mut pops = Vec::new();
    let mut scheduled = Vec::new();
    let mut next_id = 10_000;
    let mut step = 0;
    while let Some(fired) = q.pop() {
        pops.push((fired.key, fired.event));
        // Bound the dynamic work so every run terminates.
        if step < 4 * script.len() && !script.is_empty() {
            let (kind, delay, prio) = script[step % script.len()];
            let delay = Seconds::new(f64::from(delay) * 0.125);
            let mut add = |q: &mut EventQueue<usize>, at: Option<Seconds>| {
                next_id += 1;
                scheduled.push(match at {
                    Some(t) => q.schedule(t, prio, next_id),
                    None => q.schedule_after(delay, prio, next_id),
                });
            };
            match kind {
                1 => add(&mut q, None),
                2 => {
                    add(&mut q, None);
                    add(&mut q, None);
                }
                3 => {
                    let at = q.now() + delay;
                    add(&mut q, Some(at));
                }
                _ => {}
            }
        }
        step += 1;
        peeks.push(q.peek_time());
    }
    Observed {
        peeks,
        pops,
        scheduled,
        processed: q.events_processed(),
    }
}

proptest! {
    // Feeding time-sorted events is indistinguishable from scheduling
    // them all up front, even with mixed priorities, equal-time ties and
    // dynamic schedules interleaved with the pops.
    #[test]
    fn feeding_matches_preloading(
        raw in vec((0u32..40, 0u8..4), 0..40),
        script in vec((0u8..4, 0u32..24, 0u8..4), 0..12),
    ) {
        let mut times: Vec<u32> = raw.iter().map(|&(t, _)| t).collect();
        times.sort_unstable();
        let events: Vec<(Seconds, u8, usize)> = times
            .iter()
            .zip(&raw)
            .enumerate()
            .map(|(id, (&t, &(_, p)))| (Seconds::new(f64::from(t) * 0.25), p, id))
            .collect();

        let mut preloaded = EventQueue::new();
        for &(time, priority, id) in &events {
            preloaded.schedule(time, priority, id);
        }
        let mut fed = EventQueue::new();
        fed.feed(events.iter().copied());
        prop_assert_eq!(fed.len(), events.len());

        let fed_run = drive(fed, &script);
        prop_assert_eq!(&fed_run, &drive(preloaded, &script));
        prop_assert!(fed_run.pops.len() >= events.len());
    }

    // Tie-breaking is permutation-invariant: as long as `(time,
    // priority)` keys are unique, insertion order cannot change the
    // pop order.
    #[test]
    fn unique_keys_pop_identically_under_any_insertion_order(
        raw in vec((0u32..50, 0u8..3), 1..40),
        salt in 0u64..u64::MAX,
    ) {
        // Dedup (time, priority) pairs so FIFO seq never has to decide.
        let mut keys = raw;
        keys.sort_unstable();
        keys.dedup();
        let mut events: Vec<(Seconds, u8, usize)> = keys
            .iter()
            .enumerate()
            .map(|(id, &(t, p))| (Seconds::new(f64::from(t) * 0.125), p, id))
            .collect();
        let baseline = pop_order(&events);
        permute(&mut events, salt);
        prop_assert_eq!(pop_order(&events), baseline);
    }

    // Among fully equal `(time, priority)` keys, pops are FIFO in
    // schedule order.
    #[test]
    fn equal_keys_pop_fifo(n in 1usize..60, t in 0.0f64..10.0) {
        let events: Vec<(Seconds, u8, usize)> =
            (0..n).map(|id| (Seconds::new(t), 1, id)).collect();
        let order = pop_order(&events);
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    // The clock observed across pops never goes backwards, whatever
    // the insertion order.
    #[test]
    fn popped_times_are_monotone(
        raw in vec((0u32..1000, 0u8..4), 1..60),
    ) {
        let mut q = EventQueue::new();
        for (id, &(t, p)) in raw.iter().enumerate() {
            q.schedule(Seconds::new(f64::from(t) * 0.01), p, id);
        }
        let mut last = Seconds::ZERO;
        while let Some(fired) = q.pop() {
            prop_assert!(fired.key.time >= last);
            prop_assert_eq!(q.now(), fired.key.time);
            last = fired.key.time;
        }
        prop_assert_eq!(q.events_processed(), raw.len() as u64);
    }

    // The time-weighted area equals the hand-computed sum of
    // `value × hold-duration` over the step function.
    #[test]
    fn time_weighted_area_matches_direct_integration(
        steps in vec((0u32..100, 0u32..20), 1..30),
    ) {
        let mut times: Vec<f64> = steps.iter().map(|&(t, _)| f64::from(t) * 0.05).collect();
        times.sort_by(f64::total_cmp);
        let values: Vec<f64> = steps.iter().map(|&(_, v)| f64::from(v)).collect();

        let mut tw = TimeWeighted::new();
        let mut expected = 0.0;
        let mut prev_t = 0.0;
        let mut prev_v = 0.0;
        for (&t, &v) in times.iter().zip(&values) {
            tw.record(Seconds::new(t), v);
            expected += prev_v * (t - prev_t);
            prev_t = t;
            prev_v = v;
        }
        let end = times.last().copied().unwrap_or(0.0) + 1.0;
        expected += prev_v * (end - prev_t);
        prop_assert!((tw.area_until(Seconds::new(end)) - expected).abs() < 1e-9);
    }
}
