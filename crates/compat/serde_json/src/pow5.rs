//! The power-of-5 tables behind [`crate::number`]'s Ryu core, computed
//! at compile time with exact integer arithmetic.
//!
//! Each entry is a 125-bit fixed-point value split into `[low, high]`
//! 64-bit halves. [`POW5_INV_SPLIT`]`[q]` is `floor(2^j / 5^q) + 1`
//! with `j = bitlen(5^q) - 1 + 125`, a rounded-up reciprocal of `5^q`;
//! [`POW5_SPLIT`]`[i]` is `5^i` cut (or padded) to its top 125 bits.
//! They cover every finite `f64`: `q` reaches 290 in the largest binade
//! and `i` reaches 325 in the subnormals.

/// Rounded-up reciprocals of `5^q`, `q` in `0..=290`.
pub(crate) const POW5_INV_SPLIT: [[u64; 2]; 291] = inverse_table();

/// `5^i` to 125 bits, `i` in `0..=325`.
pub(crate) const POW5_SPLIT: [[u64; 2]; 326] = power_table();

/// An unsigned integer below 2^832 as little-endian 64-bit limbs: room
/// for `5^325` (755 bits) and for [`TOP`].
type Big = [u64; 13];

/// The exponent of the dividend [`inverse_table`] divides down from;
/// at least every `j` (798 at `q = 290`).
const TOP: u32 = 831;

const ONE: Big = {
    let mut one = [0; 13];
    one[0] = 1;
    one
};

const fn power_table() -> [[u64; 2]; 326] {
    let mut table = [[0; 2]; 326];
    let mut pow5 = ONE;
    let mut i = 0;
    while i < table.len() {
        let bits = bit_len(&pow5);
        let top = if bits > 125 {
            bits_from(&pow5, bits - 125)
        } else {
            bits_from(&pow5, 0) << (125 - bits)
        };
        table[i] = split(top);
        pow5 = times_5(pow5);
        i += 1;
    }
    table
}

const fn inverse_table() -> [[u64; 2]; 291] {
    // floor(2^TOP / 5^q), one exact division by 5 per step, since
    // floor(floor(x / a) / b) = floor(x / ab); shifting it right by
    // TOP - j then leaves floor(2^j / 5^q).
    let mut quotient = [0; 13];
    quotient[TOP as usize / 64] = 1 << (TOP % 64);
    let mut table = [[0; 2]; 291];
    let mut pow5 = ONE;
    let mut q = 0;
    while q < table.len() {
        let j = bit_len(&pow5) - 1 + 125;
        table[q] = split(bits_from(&quotient, TOP - j) + 1);
        quotient = div_5(quotient);
        pow5 = times_5(pow5);
        q += 1;
    }
    table
}

const fn times_5(mut v: Big) -> Big {
    let mut carry = 0;
    let mut k = 0;
    while k < v.len() {
        let t = v[k] as u128 * 5 + carry;
        v[k] = t as u64;
        carry = t >> 64;
        k += 1;
    }
    assert!(carry == 0, "Big overflowed");
    v
}

const fn div_5(mut v: Big) -> Big {
    let mut rem = 0;
    let mut k = v.len();
    while k > 0 {
        k -= 1;
        let t = (rem << 64) | v[k] as u128;
        v[k] = (t / 5) as u64;
        rem = t % 5;
    }
    v
}

/// The position of the highest set bit plus one; `v` must be nonzero.
const fn bit_len(v: &Big) -> u32 {
    let mut top = v.len();
    while v[top - 1] == 0 {
        top -= 1;
    }
    64 * top as u32 - v[top - 1].leading_zeros()
}

/// Bits `s..s + 128` of `v`, that is `floor(v / 2^s)` cut to 128 bits.
const fn bits_from(v: &Big, s: u32) -> u128 {
    let (first, offset) = (s as usize / 64, s % 64);
    let mut out = (v[first] >> offset) as u128;
    let mut k = 1;
    // Limb `first + k` lands at bit 64k - offset of the result.
    while k <= 2 && first + k < v.len() && 64 * k as u32 - offset < 128 {
        out |= (v[first + k] as u128) << (64 * k as u32 - offset);
        k += 1;
    }
    out
}

const fn split(v: u128) -> [u64; 2] {
    [v as u64, (v >> 64) as u64]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows that fit in 128 bits, against plain `u128` arithmetic.
    #[test]
    fn small_rows_equal_u128_arithmetic() {
        let mut pow5 = 1u128;
        for (i, entry) in POW5_SPLIT.iter().enumerate().take(56) {
            let bits = 128 - pow5.leading_zeros();
            let top = if bits > 125 {
                pow5 >> (bits - 125)
            } else {
                pow5 << (125 - bits)
            };
            assert_eq!(*entry, split(top), "POW5_SPLIT[{i}]");
            pow5 = pow5.wrapping_mul(5);
        }
        assert_eq!(POW5_INV_SPLIT[0], split((1 << 125) + 1));
        assert_eq!(POW5_INV_SPLIT[1], split((1 << 127) / 5 + 1));
    }
}
