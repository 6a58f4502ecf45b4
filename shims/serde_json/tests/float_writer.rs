//! The float writer against the standard library: every finite `f64`
//! must serialize to exactly `format!("{v:?}")` and parse back, through
//! this crate's own parser, to the same bits.

/// A seeded 64-bit generator (SplitMix64): the corpus is the same on
/// every run and needs no RNG crate.
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

/// Checks values and counts the failures, keeping the first few.
#[derive(Default)]
struct Diff {
    checked: u64,
    mismatches: u64,
    first: Vec<String>,
}

impl Diff {
    fn check(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.checked += 1;
        let text = serde_json::to_string(&v).expect("infallible");
        let want = format!("{v:?}");
        let back = serde_json::from_str::<f64>(&text).map(f64::to_bits);
        if text != want || back.as_ref().ok() != Some(&v.to_bits()) {
            self.mismatches += 1;
            if self.first.len() < 10 {
                self.first.push(format!(
                    "{:#018x}: wrote {text}, std {want}, parsed back {back:?}",
                    v.to_bits()
                ));
            }
        }
    }

    /// `bits` and its neighbours within `ulps`, both signs.
    fn around(&mut self, bits: u64, ulps: u64) {
        for b in bits.saturating_sub(ulps)..=bits.saturating_add(ulps) {
            self.check(f64::from_bits(b));
            self.check(-f64::from_bits(b));
        }
    }

    fn random(&mut self, seed: u64, count: u64) {
        let mut rng = SplitMix(seed);
        for _ in 0..count {
            self.check(f64::from_bits(rng.next()));
        }
    }

    fn assert_clean(&self, min_checked: u64) {
        assert!(self.checked >= min_checked, "checked {}", self.checked);
        assert_eq!(
            self.mismatches, 0,
            "{} of {} values differ from {{:?}}; first: {:#?}",
            self.mismatches, self.checked, self.first
        );
    }
}

#[test]
fn the_extremes_match_std() {
    let mut diff = Diff::default();
    for v in [
        0.0,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::EPSILON,
        1.0,
    ] {
        diff.check(v);
        diff.check(-v);
    }
    diff.assert_clean(12);
    assert_eq!(serde_json::to_string(&-0.0).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&f64::from_bits(1)).unwrap(), "5e-324");
    assert_eq!(
        serde_json::to_string(&vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]).unwrap(),
        r#"["NaN","Infinity","-Infinity"]"#
    );
}

#[test]
fn exact_ties_round_up_as_std_does() {
    // 2^-25 = 2.98023223876953125e-8 sits halfway between the two
    // closest 17-digit candidates; std takes the upper one.
    let v = 2f64.powi(-25);
    assert_eq!(serde_json::to_string(&v).unwrap(), "2.9802322387695313e-8");
    assert_eq!(format!("{v:?}"), "2.9802322387695313e-8");
}

#[test]
fn every_power_of_two_and_its_neighbours_match_std() {
    let mut diff = Diff::default();
    // Normal powers of two, then the subnormal ones.
    for biased in 1..2047u64 {
        diff.around(biased << 52, 1);
    }
    for shift in 0..52 {
        diff.around(1 << shift, 1);
    }
    diff.assert_clean(2 * 3 * (2046 + 52));
}

#[test]
fn the_subnormal_normal_boundary_matches_std() {
    let mut diff = Diff::default();
    diff.around(f64::MIN_POSITIVE.to_bits(), 4096);
    // The first subnormals.
    for bits in 1..4096 {
        diff.check(f64::from_bits(bits));
    }
    diff.assert_clean(2 * 8193 + 4095);
}

#[test]
fn every_power_of_ten_and_its_neighbours_match_std() {
    let mut diff = Diff::default();
    for p in -323..=308 {
        let v: f64 = format!("1e{p}").parse().expect("a power of ten");
        diff.around(v.to_bits(), 2);
    }
    // Both sides of the layout switches, at 1e-4 and 1e16.
    for v in [1e-4f64, 1e16] {
        diff.around(v.to_bits(), 64);
    }
    diff.assert_clean(2 * 5 * 632);
    assert_eq!(serde_json::to_string(&1e-4).unwrap(), "0.0001");
    assert_eq!(serde_json::to_string(&1e16).unwrap(), "1e16");
    assert_eq!(
        serde_json::to_string(&9999999999999998.0).unwrap(),
        "9999999999999998.0"
    );
}

#[test]
fn integers_and_report_like_values_match_std() {
    let mut diff = Diff::default();
    for n in 0..20_000u64 {
        diff.check(n as f64);
        // Milliseconds and microseconds, as reports write seconds.
        diff.check(n as f64 / 1e3);
        diff.check(n as f64 * 1e-6);
    }
    let top = 1u64 << 53;
    for n in top - 2_000..=top {
        diff.check(n as f64);
    }
    let mut rng = SplitMix(53);
    for _ in 0..20_000 {
        diff.check((rng.next() % top) as f64);
    }
    diff.assert_clean(3 * 20_000 + 2_001 + 20_000);
}

#[test]
fn seeded_random_bit_patterns_match_std() {
    let mut diff = Diff::default();
    diff.random(0x5eed, 1_000_000);
    // About 1 in 2048 patterns is NaN or infinite and skipped.
    diff.assert_clean(999_000);
}

/// The larger corpus: run with `cargo test --release -p serde_json --
/// --ignored`.
#[test]
#[ignore = "50M values: minutes in a debug build, run it with --release"]
fn fifty_million_random_bit_patterns_match_std() {
    let mut diff = Diff::default();
    diff.random(0xe1c_f10a7, 50_000_000);
    diff.assert_clean(49_950_000);
}
