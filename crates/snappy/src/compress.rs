//! Fast Snappy block compressor.
//!
//! Applies the reference snappy / S2 program-optimization playbook to the
//! scalar compressor in [`crate::reference`]:
//!
//! * **persistent hash table** — one 16 K-entry table lives in the
//!   [`Encoder`] and is reused across fragments *and* across calls (the
//!   scalar version allocates and memsets `vec![u32::MAX; 16384]` per
//!   64 KiB fragment). Each call stores positions offset by its own base,
//!   so entries left by earlier calls read as empty without clearing the
//!   table: a stale entry that happened to match 4 bytes would otherwise
//!   change the emitted copies, making the output (and its size) depend
//!   on what the encoder compressed before. Every call emits exactly what
//!   a fresh [`Encoder`] would.
//! * **64-bit match probing and extension** — candidate validation loads
//!   4 bytes at a time and match extension compares 8 bytes at a time,
//!   locating the first mismatch with `trailing_zeros`.
//! * **skip heuristic** — after 32 consecutive probe misses the scan
//!   starts striding (every 2nd byte, then every 3rd, …), so
//!   incompressible pages bail out to a single literal quickly instead of
//!   hashing every position.

use crate::varint::write_uvarint;
use crate::{emit_copy, emit_literal, max_compressed_len, FRAGMENT};

const HASH_BITS: u32 = 14;
const TABLE_SIZE: usize = 1 << HASH_BITS;

/// Positions within this many bytes of a fragment end are not probed for
/// matches; the tail is flushed as a literal. The margin guarantees every
/// probe may load 8 bytes unconditionally.
const INPUT_MARGIN: usize = 15;

#[inline(always)]
fn hash(w: u32) -> usize {
    (w.wrapping_mul(0x1E35_A7BD) >> (32 - HASH_BITS)) as usize
}

#[inline(always)]
fn load32(b: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(b[i..i + 4].try_into().unwrap())
}

#[inline(always)]
fn load64(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[i..i + 8].try_into().unwrap())
}

/// Returns how far the sequences at `i` and `s` match, comparing 8 bytes
/// per step and finishing with `trailing_zeros` on the XOR of the first
/// differing word. Never reads at or past `end`.
#[inline]
fn extend_match(src: &[u8], mut i: usize, mut s: usize, end: usize) -> usize {
    let start = s;
    while s + 8 <= end {
        let x = load64(src, i) ^ load64(src, s);
        if x != 0 {
            return s - start + (x.trailing_zeros() >> 3) as usize;
        }
        i += 8;
        s += 8;
    }
    while s < end && src[i] == src[s] {
        i += 1;
        s += 1;
    }
    s - start
}

/// A reusable Snappy compressor holding the persistent hash table.
///
/// [`crate::compress`] keeps one per thread; construct your own to control
/// table lifetime explicitly (e.g. one per worker in a pool).
pub struct Encoder {
    /// table[h] = `base` + position of the last 4-byte sequence with hash h
    /// in the call that wrote it. Entries below the current `base` were
    /// written by earlier calls (or never: the table starts zeroed) and
    /// read as empty.
    table: Vec<u32>,
    /// The current call's offset: at least 1, and `base + p` fits in a
    /// `u32` for every position `p` of the input.
    base: u32,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Creates an encoder with a fresh hash table.
    pub fn new() -> Encoder {
        Encoder {
            table: vec![0; TABLE_SIZE],
            base: 1,
        }
    }

    /// Compresses `input` into a fresh buffer.
    pub fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(max_compressed_len(input.len()));
        self.compress_into(input, &mut out);
        out
    }

    /// Compresses `input` into `out`, clearing it first. The buffer's
    /// capacity is retained across calls.
    pub fn compress_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(max_compressed_len(input.len()));
        write_uvarint(out, input.len() as u64);
        if u64::from(self.base) + input.len() as u64 > u64::from(u32::MAX) {
            // The base would wrap: clear the table once and start over.
            self.table.fill(0);
            self.base = 1;
        }
        let mut pos = 0;
        while pos < input.len() {
            let end = (pos + FRAGMENT).min(input.len());
            self.fragment(pos, end, input, out);
            pos = end;
        }
        // Everything this call stored now sits below the next base. Only
        // a `u32::MAX`-byte input (the format's largest) saturates it,
        // and then the next non-empty call clears the table.
        self.base = self.base.saturating_add(input.len() as u32);
    }

    /// Compresses one fragment spanning `base..end` of `whole`. Matches may
    /// reach back across fragment boundaries (offsets are relative to the
    /// whole stream, as the format allows).
    fn fragment(&mut self, base: usize, end: usize, whole: &[u8], out: &mut Vec<u8>) {
        if end - base < INPUT_MARGIN {
            emit_literal(&whole[base..end], out);
            return;
        }
        let table = &mut self.table[..];
        // Positions are stored as `off + p` and read back as `entry -
        // off`, with `off` this call's base. An entry below `off` wraps to
        // at least `2^32 - off`, which is past the end of the input, so
        // `candidate < p` rejects it exactly like an empty slot.
        let off = self.base;
        // Last position eligible for a probe; probing at p ≤ limit keeps
        // every 4- and 8-byte load inside `end`.
        let limit = end - INPUT_MARGIN;
        let mut lit_start = base;
        let mut p = base;
        let mut next_hash = hash(load32(whole, p));

        loop {
            // --- Probe phase: find the next 4-byte match. ---
            // `skip` accelerates through incompressible data: the first 32
            // probes advance 1 byte each, the next 32 advance 2, and so on.
            let mut skip = 32usize;
            let mut next_p = p;
            let mut candidate;
            loop {
                p = next_p;
                let bytes_between = skip >> 5;
                skip += bytes_between;
                next_p = p + bytes_between;
                if next_p > limit {
                    // No probe fits before the margin: flush the tail.
                    if lit_start < end {
                        emit_literal(&whole[lit_start..end], out);
                    }
                    return;
                }
                let h = next_hash;
                debug_assert_eq!(h, hash(load32(whole, p)));
                candidate = table[h].wrapping_sub(off) as usize;
                table[h] = off + p as u32;
                next_hash = hash(load32(whole, next_p));
                if candidate < p && load32(whole, candidate) == load32(whole, p) {
                    break;
                }
            }
            if lit_start < p {
                emit_literal(&whole[lit_start..p], out);
            }

            // --- Copy phase: emit copies back-to-back while matches chain. ---
            loop {
                let len = 4 + extend_match(whole, candidate + 4, p + 4, end);
                emit_copy(p - candidate, len, out);
                p += len;
                lit_start = p;
                if p >= limit {
                    if lit_start < end {
                        emit_literal(&whole[lit_start..end], out);
                    }
                    return;
                }
                // Deferred probe: seed the table at p-1 and test p at once,
                // so runs and repeated records chain copies without
                // re-entering the (literal-accumulating) probe phase.
                let x = load64(whole, p - 1);
                table[hash(x as u32)] = off + (p - 1) as u32;
                let h = hash((x >> 8) as u32);
                candidate = table[h].wrapping_sub(off) as usize;
                table[h] = off + p as u32;
                if !(candidate < p && load32(whole, candidate) == (x >> 8) as u32) {
                    next_hash = hash((x >> 16) as u32);
                    p += 1;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompress, reference};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn encoder_reuse_across_calls_is_correct() {
        // Reusing the table across unrelated inputs must not corrupt
        // output.
        let mut enc = Encoder::new();
        let inputs: Vec<Vec<u8>> = vec![
            b"abcdabcdabcdabcdabcdabcdabcd".to_vec(),
            vec![0u8; 10_000],
            (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect(),
            b"totally different content, same table".to_vec(),
        ];
        for input in &inputs {
            let c = enc.compress(input);
            assert_eq!(decompress(&c).unwrap(), *input);
            assert_eq!(reference::decompress(&c).unwrap(), *input);
        }
    }

    /// A serialized sparse filter bitmap: 1,880 bytes, about one set bit
    /// in 90.
    fn sparse_bitmap(rng: &mut SmallRng) -> Vec<u8> {
        (0..1880)
            .map(|_| (0..8).fold(0u8, |b, bit| b | u8::from(rng.gen_range(0..90) == 0) << bit))
            .collect()
    }

    #[test]
    fn output_does_not_depend_on_earlier_calls() {
        // Sparse bitmaps share many 4-byte windows, so a table entry left
        // by an earlier input often still matches; the output must be what
        // a fresh encoder emits all the same.
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let mut enc = Encoder::new();
        for _ in 0..2000 {
            let (y, x) = (sparse_bitmap(&mut rng), sparse_bitmap(&mut rng));
            enc.compress(&y);
            assert_eq!(enc.compress(&x), Encoder::new().compress(&x));
        }
    }

    #[test]
    fn base_wrap_clears_the_table() {
        let input = b"abcdabcdabcdabcdabcdabcdabcd".repeat(4);
        let mut enc = Encoder::new();
        enc.base = u32::MAX - 10;
        assert_eq!(enc.compress(&input), Encoder::new().compress(&input));
        assert_eq!(enc.base, 1 + input.len() as u32);
        assert_eq!(enc.compress(&input), Encoder::new().compress(&input));
    }

    #[test]
    fn compress_into_retains_capacity() {
        let mut enc = Encoder::new();
        let mut out = Vec::new();
        enc.compress_into(&vec![3u8; 50_000], &mut out);
        let cap = out.capacity();
        enc.compress_into(b"tiny", &mut out);
        assert_eq!(out.capacity(), cap);
        assert_eq!(decompress(&out).unwrap(), b"tiny");
    }

    #[test]
    fn extend_match_trailing_zeros() {
        let src = b"abcdefgh_abcdefgX_rest_padding__";
        // "abcdefgh" vs "abcdefgX": 7 bytes match.
        assert_eq!(extend_match(src, 0, 9, src.len()), 7);
        // Identical ranges run to `end`.
        let run = vec![9u8; 100];
        assert_eq!(extend_match(&run, 0, 10, 100), 90);
    }

    #[test]
    fn short_fragments_become_literals() {
        for n in 0..INPUT_MARGIN {
            let data: Vec<u8> = (0..n as u8).collect();
            let c = Encoder::new().compress(&data);
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }
}
