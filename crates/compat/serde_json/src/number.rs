//! The number writer behind [`crate::write_number`] and
//! [`crate::write_f64`]: an `f64` exactly as Rust's `Display` prints
//! it, without going through `core::fmt`.
//!
//! The digits come from Ryu (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal that reads back as the
//! same `f64` and, among those, the closest to it. Each bound of the
//! rounding interval costs one 128-bit multiply against a 125-bit
//! power-of-5 table ([`crate::pow5`]). Reference Ryu breaks an exact
//! tie at the shortest length to even; `core::fmt` breaks it upward
//! (`format_shortest` in `core::num::flt2dec::strategy::dragon` rounds
//! up when `2 * mant >= scale`), and so does this port. The value
//! `-1006567402717677.25` (bits `0xc30c9bbde3da0f6a`) is such a tie: it
//! prints as `-1006567402717677.3`.
//!
//! The layout is `Display`'s: never an exponent (`ddd000`, `d.ddd`,
//! `0.000ddd`), a `-` on every negative value including `-0`, and
//! `NaN`, `inf` and `-inf` for the non-finite values. Every byte written
//! is ASCII.

use crate::pow5::{POW5_INV_SPLIT, POW5_SPLIT};

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;

/// `00`, `01`, …, `99`: two digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `n` as a JSON number: an integral value below 9e15 in
/// magnitude as an integer (so `-0.0` prints `0`), anything else as
/// [`write_display`] does.
pub(crate) fn write_json(out: &mut Vec<u8>, n: f64) {
    // Below 9e15 both conversions are exact, so the round trip is the
    // integrality test (`fract` would cost a `trunc` call).
    if n.abs() < 9e15 && n as i64 as f64 == n {
        write_integer(out, n as i64);
    } else {
        write_display(out, n);
    }
}

/// Append `n` exactly as `format!("{n}")` renders it.
pub(crate) fn write_display(out: &mut Vec<u8>, n: f64) {
    let bits = n.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    if ieee_exponent == 0x7ff {
        out.extend_from_slice(match (ieee_mantissa != 0, negative) {
            (true, _) => b"NaN",
            (false, false) => b"inf",
            (false, true) => b"-inf",
        });
        return;
    }
    if negative {
        out.push(b'-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return;
    }
    let (mantissa, exponent) = d2d(ieee_mantissa, ieee_exponent);
    write_decimal(out, mantissa, exponent);
}

fn write_integer(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    let v = n.unsigned_abs();
    let len = v.checked_ilog10().map_or(1, |l| l as usize + 1);
    let mut buf = [0u8; 20];
    write_digits(&mut buf[..len], v);
    out.extend_from_slice(&buf[..len]);
}

/// Append `mantissa × 10^exponent` (`mantissa` nonzero, at most 17
/// digits) without an exponent.
fn write_decimal(out: &mut Vec<u8>, mantissa: u64, exponent: i32) {
    let len = mantissa.ilog10() as usize + 1;
    // Digits before the decimal point (none or negative: leading zeros
    // after it).
    let point = len as i32 + exponent;
    let mut buf = [0u8; 18];
    if 0 < point && (point as usize) < len {
        // `d.ddd`: write the digits one place right, then move the
        // integral ones left over the point's place.
        let point = point as usize;
        write_digits(&mut buf[1..=len], mantissa);
        buf.copy_within(1..=point, 0);
        buf[point] = b'.';
        out.extend_from_slice(&buf[..=len]);
        return;
    }
    let digits = &mut buf[..len];
    write_digits(digits, mantissa);
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point as usize - len), b'0');
    }
}

/// Fill `buf` with the decimal digits of `v`, right-aligned and
/// zero-padded; `v` must have at most `buf.len()` digits.
fn write_digits(buf: &mut [u8], mut v: u64) {
    let mut end = buf.len();
    // Eight digits at a time in 32-bit arithmetic, which is cheaper
    // than 64-bit division.
    while end > 8 {
        let mut chunk = (v % 100_000_000) as u32;
        v /= 100_000_000;
        for at in [end - 2, end - 4, end - 6, end - 8] {
            let pair = (chunk % 100) as usize * 2;
            chunk /= 100;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        end -= 8;
    }
    let mut v = v as u32;
    while end >= 2 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if end == 1 {
        buf[0] = b'0' + v as u8;
    }
}

/// `ceil(log2(5^e))` for `e` in `1..=3528` (and 1 for `e = 0`).
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `e` in `0..=1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `e` in `0..=2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `(m × mul) >> j` for a 125-bit `mul`, `m` below 2^55 and `j` at
/// least 64.
fn mul_shift(m: u64, mul: &[u64; 2], j: i32) -> u64 {
    let low = (m as u128 * mul[0] as u128) >> 64;
    let high = m as u128 * mul[1] as u128;
    ((low + high) >> (j - 64)) as u64
}

/// Ryu's `d2d`: the shortest decimal `mantissa × 10^exponent` in the
/// rounding interval of the finite, nonzero `f64` with these IEEE
/// fields, the closest one to it, and an exact tie rounded up.
fn d2d(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The value is m2 × 2^e2, with two extra bits of room for the
    // interval bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even parsing puts an even mantissa's bounds in its own
    // interval.
    let accept_bounds = m2 & 1 == 0;

    // The interval is [mm, mp] × 2^e2 around mv × 2^e2; at the bottom
    // of a binade (mantissa field 0) the lower half is half as wide.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mp = mv + 2;
    let mm = mv - 1 - mm_shift;

    // Scale all three into decimal: vr, vp, vm = floor(m × 2^e2 /
    // 10^e10). Where the lower bound scales exactly, it may itself be
    // the shortest decimal; where the upper one does and is excluded,
    // step it down.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = &POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mp, mul, i);
        vm = mul_shift(mm, mul, i);
        // The scaling is exact when 5^q divides the bound; at most one
        // of mv, mp and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = &POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // The scaling is exact when 2^q divides the bound: mm has one
        // trailing zero bit exactly when mm_shift is 1, mp has one.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal,
    // then round vr half up on the last digit dropped. Reference Ryu
    // also tracks whether every digit dropped from vr was zero, to round
    // an exact tie to even; rounding every tie up, as `Display` does,
    // needs only that last digit.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    let output = if vm_is_trailing_zeros {
        // The rare case where the (included) lower bound may be the
        // shortest decimal itself.
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // vr == vm is below the interval unless vm is exact.
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5)
    } else {
        // The common case: two digits at a time first.
        if vp / 100 > vm / 100 {
            last_removed_digit = vr % 100 / 10;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        // vr == vm is at or below the excluded lower bound.
        vr + u64::from(vr == vm || last_removed_digit >= 5)
    };
    (output, e10 + removed)
}
