//! The crate's one digit writer: the exact text `format!` gives `{}` on an
//! unsigned integer, `{:.9}` on an `f64` and `{:016x}` on a `u64`, without
//! going through `core::fmt`.
//!
//! The observatory's event and sample lines ([`crate::obs`]) and the
//! numeric fields of every frame the daemon and its clients put on the
//! wire ([`crate::serve`] — submit requests, acknowledgements, status,
//! drain summaries, scorecards and the subscriber's end frame) are printed
//! through here.

use std::fmt::Write as _;

/// The two ASCII digits of every value below 100, in order.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

fn put_pair(dst: &mut [u8], v: u64) {
    let v = v as usize * 2;
    dst.copy_from_slice(&DIGIT_PAIRS[v..v + 2]);
}

/// Write the decimal digits of `n` so they end at `buf[end]` (exclusive);
/// returns where they start.
fn put_uint(buf: &mut [u8], end: usize, mut n: u64) -> usize {
    let mut i = end;
    while n >= 100 {
        i -= 2;
        put_pair(&mut buf[i..i + 2], n % 100);
        n /= 100;
    }
    if n >= 10 {
        i -= 2;
        put_pair(&mut buf[i..i + 2], n);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

/// Append the decimal digits of `n`.
pub(crate) fn push_uint(out: &mut String, n: u64) {
    if n < 10 {
        out.push(char::from(b'0' + n as u8));
        return;
    }
    let mut buf = [0u8; 20];
    let start = put_uint(&mut buf, 20, n);
    push_ascii(out, &buf[start..]);
}

/// Append `x` exactly as `format!("{x:.9}")` renders it.
///
/// A finite `|x| < 1e9` is `m·2^-s` with `m < 2^53` and `s ≥ 23`, so
/// `m·10^9 < 2^83` fits a `u128` and `|x|·10^9` rounds half to even on the
/// exact remainder of the shift, as `core::fmt` does. Anything else goes
/// through `core::fmt`.
pub(crate) fn push_f9(out: &mut String, x: f64) {
    const SCALE: u64 = 1_000_000_000;
    if x.is_nan() || x.abs() >= 1e9 {
        let _ = write!(out, "{x:.9}");
        return;
    }
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as u32;
    let frac = bits & ((1 << 52) - 1);
    let (m, s) = if biased == 0 {
        (frac, 1074)
    } else {
        (frac | 1 << 52, 1075 - biased)
    };
    // Past 2^83 the whole product is under half a unit: it rounds to 0.
    // Otherwise the rounded quotient is at most 10^18 and fits a `u64`.
    let q = if s > 83 {
        0
    } else {
        let scaled = u128::from(m) * u128::from(SCALE);
        let q = (scaled >> s) as u64;
        let rem = scaled & ((1 << s) - 1);
        let half = 1 << (s - 1);
        q + u64::from(rem > half || (rem == half && q & 1 == 1))
    };
    // Sign, up to ten integer digits, the point and nine fraction digits,
    // built right to left.
    let mut buf = [0u8; 22];
    let f = q % SCALE;
    let (hi, lo) = ((f % 100_000_000) / 10_000, f % 10_000);
    buf[12] = b'.';
    buf[13] = b'0' + (f / 100_000_000) as u8;
    put_pair(&mut buf[14..16], hi / 100);
    put_pair(&mut buf[16..18], hi % 100);
    put_pair(&mut buf[18..20], lo / 100);
    put_pair(&mut buf[20..22], lo % 100);
    let mut start = put_uint(&mut buf, 12, q / SCALE);
    if bits >> 63 != 0 {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(out, &buf[start..]);
}

/// Append `key`, then `n`.
pub(crate) fn push_uint_field(out: &mut String, key: &str, n: u64) {
    out.push_str(key);
    push_uint(out, n);
}

/// Append `key`, then `x` as `{:.9}` renders it.
pub(crate) fn push_f9_field(out: &mut String, key: &str, x: f64) {
    out.push_str(key);
    push_f9(out, x);
}

/// Append ASCII bytes. Pushing these few-byte runs char by char measured
/// faster than checking them with `str::from_utf8` and copying the slice.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.extend(bytes.iter().map(|&b| char::from(b)));
}

/// Append `n` as sixteen lowercase hex digits, exactly as
/// `format!("{n:016x}")` renders it.
pub(crate) fn push_hex16(out: &mut String, n: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let buf: [u8; 16] = std::array::from_fn(|i| HEX[(n >> (60 - 4 * i)) as usize & 0xf]);
    push_ascii(out, &buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_writer_matches_fmt() {
        for n in [0, 1, 0xf, 0x10, 0x835c_c3e0_b3cb_735d, u64::MAX] {
            let mut out = String::new();
            push_hex16(&mut out, n);
            assert_eq!(out, format!("{n:016x}"));
        }
    }
}
