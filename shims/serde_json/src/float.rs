//! Shortest round-trip `f64` text, byte-identical to `format!("{v:?}")`.
//!
//! The digits come from Ryu (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal inside the interval of
//! reals that round to `v`, and of those the closest to `v`. One detail
//! follows the standard library rather than the paper, so the text
//! stays what `{:?}` prints: **ties round up.** When `v` lies exactly
//! halfway between the two closest shortest candidates, std picks the
//! larger: 2⁻²⁵ = 2.98023223876953125e-8 prints as
//! `2.9802322387695313e-8`. Ryu's round-half-even step is left out.
//!
//! As in std's `flt2dec::decode`, every normal power of two has the
//! closer lower boundary, the smallest normal included (Ryu treats that
//! one as symmetric; both give it the same digits).
//!
//! The layout is std's `Debug` layout: plain decimal for
//! `1e-4 <= |v| < 1e16` (and zero), with `.0` after an integer value;
//! otherwise `d[.ddd]e[-]x`.

/// Two ASCII digits per value `0..100`: `DIGIT_PAIRS[2n..2n + 2]`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `n` as exactly `dst.len()` decimal digits, right-aligned:
/// the caller sizes `dst` with [`decimal_len`].
pub(crate) fn write_digits(dst: &mut [u8], mut n: u64) {
    let mut i = dst.len();
    while i >= 2 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        dst[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if i == 1 {
        dst[0] = b'0' + n as u8;
    }
}

/// Number of decimal digits in `n` (`1` for zero).
pub(crate) fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// Appends `len` bytes to `out` and returns them for filling in.
fn grow(out: &mut Vec<u8>, len: usize) -> &mut [u8] {
    let start = out.len();
    out.resize(start + len, 0);
    &mut out[start..]
}

/// Appends `v`, which must be finite, as `format!("{v:?}")` would.
pub(crate) fn write_f64(out: &mut Vec<u8>, v: f64) {
    debug_assert!(v.is_finite());
    if v.is_sign_negative() {
        out.push(b'-');
    }
    if v == 0.0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let bits = v.to_bits();
    let fraction = bits & ((1 << MANTISSA_BITS) - 1);
    let (digits, exp) = shortest(fraction, (bits >> MANTISSA_BITS) as u32 & 0x7ff);
    let len = decimal_len(digits);
    // `v` is `0.d₁d₂…d_len × 10^point`.
    let point = exp + len as i32;
    let abs = v.abs();
    if !(1e-4..1e16).contains(&abs) {
        // `d₁[.d₂…]e[-]x`, with x = point - 1.
        if len == 1 {
            out.push(digits as u8 + b'0');
        } else {
            let dst = grow(out, len + 1);
            write_digits(&mut dst[1..], digits);
            dst[0] = dst[1];
            dst[1] = b'.';
        }
        out.push(b'e');
        let x = point - 1;
        if x < 0 {
            out.push(b'-');
        }
        let x = u64::from(x.unsigned_abs());
        write_digits(grow(out, decimal_len(x)), x);
    } else if point <= 0 {
        // `0.00ddd`
        let zeros = point.unsigned_abs() as usize;
        let dst = grow(out, 2 + zeros + len);
        dst[..2 + zeros].fill(b'0');
        dst[1] = b'.';
        write_digits(&mut dst[2 + zeros..], digits);
    } else if (point as usize) < len {
        // `ddd.ddd`: the digits one to the right, then the integer part
        // moved back over the gap.
        let point = point as usize;
        let dst = grow(out, len + 1);
        write_digits(&mut dst[1..], digits);
        dst.copy_within(1..=point, 0);
        dst[point] = b'.';
    } else {
        // `ddd00.0`
        let zeros = point as usize - len;
        let dst = grow(out, len + zeros + 2);
        write_digits(&mut dst[..len], digits);
        dst[len..].fill(b'0');
        dst[len + zeros] = b'.';
    }
}

// ---- Ryu ----

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Significant bits of each [`POW5_SPLIT`] row.
const POW5_BITCOUNT: i32 = 125;
/// Significant bits of each [`POW5_INV_SPLIT`] row.
const POW5_INV_BITCOUNT: i32 = 125;

/// `⌊2^k / 5^q⌋ + 1` with `k = pow5bits(q) - 1 + 125`, for every
/// `q` a double reaches: `log10_pow2(969) - 1 = 290` at `f64::MAX`.
static POW5_INV_SPLIT: [u128; 291] = pow5_inv_table();
/// The top 125 bits of `5^i`, for every `i` a double reaches:
/// `1076 - (log10_pow5(1076) - 1) = 325` at the smallest subnormal.
static POW5_SPLIT: [u128; 326] = pow5_table();

/// Limbs of the compile-time big integers: 15 × 64 = 960 bits, enough
/// for `5^325` (755 bits) and for `2^k` with the largest `k` of
/// [`POW5_INV_SPLIT`] (`pow5bits(290) - 1 + 125 = 798`).
const LIMBS: usize = 15;
/// The numerator `2^BIG_BITS` whose quotients by `5^q` the inverse
/// table truncates.
const BIG_BITS: i32 = (LIMBS * 64 - 1) as i32;

/// Limb `k` of `x`, zero past the top.
const fn limb(x: &[u64; LIMBS], k: usize) -> u128 {
    if k < LIMBS {
        x[k] as u128
    } else {
        0
    }
}

/// 128 bits of `x` starting at bit `s`.
const fn bits_at(x: &[u64; LIMBS], s: usize) -> u128 {
    let (j, off) = (s / 64, (s % 64) as u32);
    let lo = limb(x, j) | limb(x, j + 1) << 64;
    if off == 0 {
        lo
    } else {
        lo >> off | limb(x, j + 2) << (128 - off)
    }
}

const fn pow5_table<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    // 5^i, little-endian.
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < N {
        let shift = pow5bits(i as i32) - POW5_BITCOUNT;
        table[i] = if shift >= 0 {
            bits_at(&pow, shift as usize)
        } else {
            bits_at(&pow, 0) << -shift
        };
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let x = pow[k] as u128 * 5 + carry;
            pow[k] = x as u64;
            carry = x >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    // ⌊2^BIG_BITS / 5^q⌋, little-endian. Dividing the floor by 5 again
    // gives the next floor, and a floor shifted right is the floor of
    // the smaller power of two.
    let mut quot = [0u64; LIMBS];
    quot[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < N {
        let k = pow5bits(q as i32) - 1 + POW5_INV_BITCOUNT;
        table[q] = bits_at(&quot, (BIG_BITS - k) as usize) + 1;
        let mut rem = 0u128;
        let mut j = LIMBS;
        while j > 0 {
            j -= 1;
            let x = rem << 64 | quot[j] as u128;
            quot[j] = (x / 5) as u64;
            rem = x % 5;
        }
        q += 1;
    }
    table
}

/// Bits in `5^e` (`e` in `0..=3528`).
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` (`e` in `0..=1650`).
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` (`e` in `0..=2620`).
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 55-bit `m` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * (mul as u64 as u128);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest round-trip digits of the positive finite double with
/// the given fraction and biased exponent fields, as `(digits, exp)`
/// with value `digits × 10^exp`: Ryu's `d2d`, rounding ties up.
///
/// Ryu tracks whether the digits dropped from the exact value `vr` are
/// all zeros only to round an exact tie to even. Rounding ties up needs
/// just the last dropped digit, so that tracking is gone; whether the
/// lower bound `vm` drops only zeros still decides whether the interval
/// may end on it.
fn shortest(fraction: u64, biased: u32) -> (u64, i32) {
    let (m2, e2) = if biased == 0 {
        (fraction, 1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2)
    } else {
        (
            fraction | 1 << MANTISSA_BITS,
            biased as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
        )
    };
    // An even mantissa owns the interval's ends: they round back to it.
    let accept_bounds = m2 % 2 == 0;
    // The value and its half-way points to the neighbours, times 4.
    let mv = 4 * m2;
    // 0 when the neighbour below is closer (a normal power of two).
    let mm_shift = u64::from(fraction != 0);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // vr, vp and vm are mv, mp and mm times 10^-e10, truncated.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mp, mul, i);
        vm = mul_shift(mm, mul, i);
        // Only one of mp, mv and mm can be a multiple of 5, if any.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                // An exact upper end is not ours: step inside.
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            // mm has q trailing zero bits when it is even (mm_shift 1),
            // and mp always does.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number: two
    // at a time while two fit, which is the same as two single steps.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 100 > vm / 100 {
        vm_trailing_zeros &= vm % 100 == 0;
        last_removed = vr % 100 / 10;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_trailing_zeros {
        // The lower end is exact and ours: keep dropping its zeros.
        while vm % 10 == 0 {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Round to nearest, an exact tie (`…5000`) up as std does; Ryu
    // rounds it to even. vr must move up when it sits on a lower end
    // the interval does not include.
    let round_up = (vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_fill_their_slice() {
        for n in [0, 7, 10, 99, 100, 12_345, u64::MAX] {
            let mut buf = vec![0; decimal_len(n)];
            write_digits(&mut buf, n);
            assert_eq!(std::str::from_utf8(&buf).unwrap(), n.to_string());
        }
    }

    #[test]
    fn the_tables_start_where_ryu_does() {
        // 5^0 = 1: the inverse is 2^125 + 1.
        assert_eq!(POW5_INV_SPLIT[0], (1 << 125) + 1);
        // Rows whose power of five fits 128 bits, recomputed directly
        // (row 0 is 2^124).
        let mut pow = 1u128;
        for i in 0..=55 {
            let bits = 128 - pow.leading_zeros() as i32;
            assert_eq!(bits, pow5bits(i));
            let want = if bits >= POW5_BITCOUNT {
                pow >> (bits - POW5_BITCOUNT)
            } else {
                pow << (POW5_BITCOUNT - bits)
            };
            assert_eq!(POW5_SPLIT[i as usize], want, "row {i}");
            if i < 55 {
                pow *= 5;
            }
        }
    }
}
