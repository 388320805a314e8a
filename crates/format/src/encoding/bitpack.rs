//! Fixed-width bit packing of `u32` values (LSB-first within a little-endian
//! bit stream), the layout used for dictionary indices.

use crate::error::{FormatError, Result};

/// The integer type unpacked values land in: `u8` or `u16` for a
/// dictionary view's literal codes (a dictionary has at most
/// `MAX_DICT_DISTINCT` = 2^16 entries), `u32` for any stream.
pub trait Code: Copy + Default + Ord + std::fmt::Debug {
    /// The widest packed width the type holds.
    const BITS: u32;
    /// The low [`Code::BITS`] bits of `v`.
    fn truncate(v: u64) -> Self;
    /// The value as an index.
    fn index(self) -> usize;
}

macro_rules! code {
    ($($t:ty)*) => {$(
        impl Code for $t {
            const BITS: u32 = <$t>::BITS;
            #[inline(always)]
            fn truncate(v: u64) -> $t {
                v as $t
            }
            #[inline(always)]
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
code!(u8 u16 u32);

/// Smallest bit width that can represent `max`.
///
/// `bit_width(0) == 0`: a stream of all-zero values needs no payload bits.
pub fn bit_width(max: u32) -> u32 {
    32 - max.leading_zeros()
}

/// Packs `values` at `width` bits each, appending to `out`.
///
/// # Panics
///
/// Panics if any value does not fit in `width` bits, or `width > 32`.
pub fn pack(values: &[u32], width: u32, out: &mut Vec<u8>) {
    assert!(width <= 32, "width must be at most 32");
    if width == 0 {
        debug_assert!(values.iter().all(|&v| v == 0));
        return;
    }
    let mask = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for &v in values {
        assert!(v & !mask == 0, "value {v} does not fit in {width} bits");
        acc |= (v as u64) << bits;
        bits += width;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(acc as u8);
    }
}

/// Unpacks the `count` values of `width` bits that start at byte `start`
/// of `page`, appending them to `out` at its own width. Bit-identical to
/// [`unpack_reference`] on `&page[start..]`.
///
/// One const-generic body per width reads each value from the unaligned
/// little-endian 64-bit window at its first byte: a load, a shift and a
/// mask, with every offset a compile-time constant within a group of 8
/// values (`width` bytes). Windows may run past the span's last packed
/// byte into the rest of `page` (the next run headers, or whatever else
/// follows in the decompressed page): those trailing bytes are the slack
/// that keeps the loop free of end checks. Only values whose window
/// would cross the end of `page` itself take a zero-padded tail.
///
/// # Errors
///
/// Returns [`FormatError::Truncated`] if `page[start..]` is shorter than
/// the packed span; `out` does not grow then.
///
/// # Panics
///
/// Panics if `width > C::BITS`.
pub fn unpack_into<C: Code>(
    page: &[u8],
    start: usize,
    width: u32,
    count: usize,
    out: &mut Vec<C>,
) -> Result<()> {
    assert!(width <= C::BITS, "width must be at most {}", C::BITS);
    let bytes = page.get(start..).ok_or(FormatError::Truncated)?;
    let needed = count
        .checked_mul(width as usize)
        .ok_or(FormatError::Truncated)?
        .div_ceil(8);
    if bytes.len() < needed {
        return Err(FormatError::Truncated);
    }
    // Whole groups of 8 are decoded, the last one's extra values from
    // slack and then dropped, so a short literal run costs one or two
    // group steps rather than a value-at-a-time tail.
    let old = out.len();
    out.resize(old + count.next_multiple_of(8), C::default());
    let dst = &mut out[old..];
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                0 => {}
                $($w => unpack_width::<$w, C>(bytes, dst, count),)*
                _ => unreachable!("width checked above"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
    out.truncate(old + count);
    Ok(())
}

/// Decodes the first `count` values packed at `W` bits from the start of
/// `bytes` (which holds at least their packed span) into `dst`, whose
/// length is `count` rounded up to a multiple of 8.
fn unpack_width<const W: usize, C: Code>(bytes: &[u8], dst: &mut [C], count: usize) {
    let mask = u64::MAX >> (64 - W);
    // A group of 8 values spans W bytes; its last window starts at byte
    // 7W/8 and needs 8 bytes, so a group needs `reach` bytes from its
    // start. Groups that have them decode with no bounds check per value.
    let reach = 7 * W / 8 + 8;
    let groups = if bytes.len() >= reach {
        ((bytes.len() - reach) / W + 1).min(dst.len() / 8)
    } else {
        0
    };
    for (g, group) in dst.chunks_exact_mut(8).take(groups).enumerate() {
        let src = &bytes[g * W..g * W + reach];
        for (j, v) in group.iter_mut().enumerate() {
            let bit = j * W;
            let at = bit / 8;
            let w = u64::from_le_bytes(src[at..at + 8].try_into().expect("8-byte window"));
            *v = C::truncate((w >> (bit % 8)) & mask);
        }
    }
    // Values in groups too close to the page end.
    for (i, v) in dst.iter_mut().enumerate().take(count).skip(groups * 8) {
        let bit = i * W;
        *v = C::truncate((window(bytes, bit / 8) >> (bit % 8)) & mask);
    }
}

// Windows zero-padded at the page end, so tests can pin that windows
// read the page's slack rather than stopping at the span.
#[cfg(test)]
thread_local! {
    static PADDED_WINDOWS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The little-endian word of the 8 bytes of `bytes` at `at`, zero-padded
/// past the end of `bytes` (`at` itself is in range).
fn window(bytes: &[u8], at: usize) -> u64 {
    if let Some(w) = bytes.get(at..at + 8) {
        return u64::from_le_bytes(w.try_into().expect("8-byte window"));
    }
    #[cfg(test)]
    PADDED_WINDOWS.with(|p| p.set(p.get() + 1));
    let mut w = [0u8; 8];
    w[..bytes.len() - at].copy_from_slice(&bytes[at..]);
    u64::from_le_bytes(w)
}

/// Unpacks `count` values of `width` bits from `input` one bit-buffer
/// refill at a time: the plain loop [`unpack_into`] is tested against.
///
/// # Errors
///
/// Returns [`FormatError::Truncated`] if `input` is too short.
pub fn unpack_reference(input: &[u8], width: u32, count: usize) -> Result<Vec<u32>> {
    assert!(width <= 32, "width must be at most 32");
    if width == 0 {
        return Ok(vec![0; count]);
    }
    let needed = (count * width as usize).div_ceil(8);
    if input.len() < needed {
        return Err(FormatError::Truncated);
    }
    let mask = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    let mut out = Vec::with_capacity(count);
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    let mut pos = 0;
    for _ in 0..count {
        while bits < width {
            acc |= (input[pos] as u64) << bits;
            pos += 1;
            bits += 8;
        }
        out.push((acc as u32) & mask);
        acc >>= width;
        bits -= width;
    }
    Ok(out)
}

/// Number of bytes `count` values of `width` bits occupy.
pub fn packed_len(width: u32, count: usize) -> usize {
    (count * width as usize).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpack(input: &[u8], width: u32, count: usize) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        unpack_into(input, 0, width, count, &mut out)?;
        Ok(out)
    }

    #[test]
    fn narrow_outputs_match_u32() {
        let values: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        for width in 0..=16u32 {
            let values: Vec<u32> = values.iter().map(|&v| v & ((1 << width) - 1)).collect();
            let mut buf = vec![0xFF];
            pack(&values, width, &mut buf);
            let mut wide = Vec::<u32>::new();
            unpack_into(&buf, 1, width, values.len(), &mut wide).unwrap();
            assert_eq!(wide, values, "width {width}");
            let mut u16s = Vec::<u16>::new();
            unpack_into(&buf, 1, width, values.len(), &mut u16s).unwrap();
            assert!(u16s
                .iter()
                .map(|&v| u32::from(v))
                .eq(values.iter().copied()));
            if width <= 8 {
                let mut u8s = Vec::<u8>::new();
                unpack_into(&buf, 1, width, values.len(), &mut u8s).unwrap();
                assert!(u8s.iter().map(|&v| u32::from(v)).eq(values.iter().copied()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn a_width_past_the_output_type_panics() {
        let mut out = Vec::<u8>::new();
        let _ = unpack_into(&[0; 8], 0, 9, 1, &mut out);
    }

    #[test]
    fn widths() {
        assert_eq!(bit_width(0), 0);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 2);
        assert_eq!(bit_width(3), 2);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u32::MAX), 32);
    }

    #[test]
    fn roundtrip_all_widths() {
        for width in 0..=32u32 {
            let max = if width == 0 {
                0
            } else if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let values: Vec<u32> = (0..100u32)
                .map(|i| i.wrapping_mul(2_654_435_761) & max)
                .collect();
            let mut buf = Vec::new();
            pack(&values, width, &mut buf);
            assert_eq!(buf.len(), packed_len(width, values.len()));
            assert_eq!(
                unpack(&buf, width, values.len()).unwrap(),
                values,
                "width {width}"
            );
            assert_eq!(unpack_reference(&buf, width, values.len()).unwrap(), values);
        }
    }

    #[test]
    fn zero_width_is_empty() {
        let mut buf = Vec::new();
        pack(&[0, 0, 0], 0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(unpack(&buf, 0, 3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn truncated_input_detected() {
        let mut buf = Vec::new();
        pack(&[1, 2, 3], 8, &mut buf);
        assert_eq!(unpack(&buf[..2], 8, 3).unwrap_err(), FormatError::Truncated);
        let mut out = vec![7u32];
        assert_eq!(
            unpack_into(&buf, 1, 8, 3, &mut out).unwrap_err(),
            FormatError::Truncated
        );
        assert_eq!(out, vec![7], "a failed unpack must not grow the buffer");
        assert_eq!(
            unpack_into(&buf, 4, 0, 0, &mut out).unwrap_err(),
            FormatError::Truncated,
            "a span starting past the page end"
        );
    }

    #[test]
    fn windows_read_the_page_slack_not_just_the_span() {
        // With 8 bytes of page after the span, every value, ragged tail
        // included, decodes from a full window; only a span that ends at
        // the page end pads.
        for width in 1..=32u32 {
            for count in [61usize, 64] {
                let values: Vec<u32> = (0..count as u32).map(|i| i % 2).collect();
                let mut page = vec![0xFF; 3];
                pack(&values, width, &mut page);
                let span_end = page.len();
                page.extend_from_slice(&[0xFF; 8]);
                let padded = |page: &[u8]| {
                    PADDED_WINDOWS.with(|p| p.set(0));
                    let mut out = Vec::<u32>::new();
                    unpack_into(page, 3, width, count, &mut out).unwrap();
                    assert_eq!(out, values, "width {width} count {count}");
                    PADDED_WINDOWS.with(|p| p.get())
                };
                assert_eq!(padded(&page), 0, "width {width} count {count}");
                assert!(padded(&page[..span_end]) > 0, "width {width} count {count}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut buf = Vec::new();
        pack(&[4], 2, &mut buf);
    }

    #[test]
    fn dense_packing() {
        // 8 values * 3 bits = 24 bits = 3 bytes.
        let mut buf = Vec::new();
        pack(&[1, 2, 3, 4, 5, 6, 7, 0], 3, &mut buf);
        assert_eq!(buf.len(), 3);
    }
}
