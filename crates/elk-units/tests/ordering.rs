//! Pins the order of [`Seconds`] and [`Bytes`] to the plain `f64` and
//! `u64` orders. The event queue and the memory audit break ties on it:
//! `-0.0 == 0.0`, and `max`/`min` keep `self` on a tie. An order by
//! [`f64::total_cmp`] puts `-0.0` before `0.0` and fails here.

use std::cmp::Ordering;

use elk_units::{Bytes, Seconds};

/// SplitMix64: a seeded stream of bit patterns.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Every value a `Seconds` may hold that the edges care about: both
/// zeros, subnormals, the normal boundary, ordinary times, `f64::MAX`
/// and infinity, then random non-negative, non-NaN bit patterns.
fn seconds_values() -> Vec<f64> {
    let mut v = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from_bits(2),
        f64::MIN_POSITIVE,
        f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
        1e-9,
        1.0,
        1.0 + f64::EPSILON,
        3600.0,
        f64::MAX,
        f64::INFINITY,
    ];
    let mut rng = SplitMix(0x05ec_04d5);
    while v.len() < 400 {
        let x = f64::from_bits(rng.next() >> 1);
        if !x.is_nan() {
            v.push(x);
        }
    }
    // Equal values under different bits, and exact repeats.
    let repeats: Vec<f64> = v.iter().step_by(7).copied().collect();
    v.extend(repeats);
    v
}

#[test]
fn seconds_order_is_the_f64_order() {
    let values = seconds_values();
    for &x in &values {
        for &y in &values {
            let (a, b) = (Seconds::new(x), Seconds::new(y));
            let want = x.partial_cmp(&y).expect("no NaN");
            let pair = format!("{x:?} vs {y:?}");
            assert_eq!(a.cmp(&b), want, "cmp: {pair}");
            assert_eq!(a.partial_cmp(&b), Some(want), "partial_cmp: {pair}");
            assert_eq!(a == b, x == y, "==: {pair}");
            assert_eq!(a < b, x < y, "<: {pair}");
            assert_eq!(a <= b, x <= y, "<=: {pair}");
            assert_eq!(a > b, x > y, ">: {pair}");
            assert_eq!(a >= b, x >= y, ">=: {pair}");
            // A tie keeps `self`, down to the sign of zero.
            let max = if x >= y { x } else { y };
            let min = if x <= y { x } else { y };
            assert_eq!(a.max(b).as_secs().to_bits(), max.to_bits(), "max: {pair}");
            assert_eq!(a.min(b).as_secs().to_bits(), min.to_bits(), "min: {pair}");
        }
    }
}

#[test]
fn signed_zeros_tie() {
    let (neg, pos) = (Seconds::new(-0.0), Seconds::ZERO);
    assert_eq!(neg.cmp(&pos), Ordering::Equal);
    assert_eq!(neg, pos);
    assert!(neg >= pos);
    assert!(neg <= pos);
    assert!(neg.max(pos).as_secs().is_sign_negative());
    assert!(pos.max(neg).as_secs().is_sign_positive());
    assert!(neg.min(pos).as_secs().is_sign_negative());
    // A stable sort keeps tied zeros in input order.
    let mut v = [pos, neg, Seconds::new(1.0), neg, pos];
    v.sort();
    let signs: Vec<bool> = v.iter().map(|s| s.as_secs().is_sign_negative()).collect();
    assert_eq!(signs, [false, true, true, false, false]);
}

#[test]
fn bytes_order_is_the_u64_order() {
    let mut rng = SplitMix(0xb17e5);
    let mut values = vec![0, 1, 1023, 1024, u64::MAX - 1, u64::MAX];
    values.extend((0..200).map(|_| rng.next() >> (rng.next() % 64)));
    values.extend(values.clone().iter().step_by(5));
    for &x in &values {
        for &y in &values {
            let (a, b) = (Bytes::new(x), Bytes::new(y));
            assert_eq!(a.cmp(&b), x.cmp(&y), "{x} vs {y}");
            assert_eq!(
                (a < b, a <= b, a > b, a >= b),
                (x < y, x <= y, x > y, x >= y)
            );
            assert_eq!(a.max(b).get(), x.max(y));
            assert_eq!(a.min(b).get(), x.min(y));
        }
    }
}
