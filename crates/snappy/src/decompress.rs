//! Fast Snappy block decompressor.
//!
//! The scalar decoder in [`crate::reference`] dispatches one tag at a time
//! and materializes copies with a byte-by-byte push loop. This module
//! decodes into a pre-sized `&mut [u8]` with one loop built for pages of
//! short elements, such as plain-encoded numbers, where a literal of a
//! few bytes and a copy of a few bytes alternate tens of thousands of
//! times per page:
//!
//! * **next-tag loop** — while 80 bytes of input and of output remain,
//!   each step loads the next tag from both places it can be (after a
//!   literal's bytes, after a copy-1's or copy-2's offset bytes) before
//!   it decodes the current element, and selects between them. What one
//!   step hands the next is a load, a mask, an add and a select, not the
//!   outcome of a branch on the element's kind. A 256-entry tag table
//!   supplies each element's length and offset bits beside that chain;
//!   a copy-4, which the compressor emits for matches more than 64 KiB
//!   back, re-reads its next tag after its four offset bytes;
//! * **wide moves** — a literal of ≤ 16 bytes and a copy of ≤ 16 bytes at
//!   an offset ≥ 16 are one 16-byte move from a selected source, so no
//!   branch separates them; a longer literal, and a copy from 128 bytes
//!   back or more, is one 64-byte move, and a nearer copy steps 16 bytes
//!   (offsets ≥ 16) or 8 bytes (offsets 8–15) at a time. The bytes a
//!   move writes past its element are overwritten by the elements after
//!   it;
//! * **one exact path** — a literal longer than 60 bytes, an offset below
//!   8, zero or past the output start, and every element in the last 80
//!   bytes of either buffer go through the per-element code
//!   (`element`), the only place a malformed stream is rejected. The loop
//!   takes only elements that cannot be malformed, so both decoders
//!   return the same [`DecompressError`] for every input, including the
//!   header-plausibility bound that defeats tiny inputs declaring
//!   multi-GiB lengths (see [`crate::parse_len`]);
//! * **scratch-buffer reuse** — [`decompress_into`] writes into a
//!   caller-owned `Vec`, so steady-state page decode performs zero
//!   transient allocations (`fusion-format` threads one scratch buffer
//!   per thread through the chunk-decode path).

use crate::{parse_len, DecompressError, TAG_COPY1, TAG_COPY2, TAG_COPY4, TAG_LITERAL};

/// Returns the uncompressed length a stream declares, after validating
/// the header — including the plausibility bound, so a hostile header can
/// be rejected before any allocation is sized from it.
///
/// # Examples
///
/// ```
/// let c = fusion_snappy::compress(&[7u8; 1000]);
/// assert_eq!(fusion_snappy::decompress_len(&c).unwrap(), 1000);
/// ```
pub fn decompress_len(input: &[u8]) -> Result<usize, DecompressError> {
    parse_len(input).map(|(expected, _)| expected)
}

/// Decompresses a Snappy block-format stream into a fresh buffer.
///
/// # Errors
///
/// Returns a [`DecompressError`] if the stream is malformed: truncated,
/// bad or implausible header, invalid copy offsets, or length mismatch.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::new();
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// Decompresses a stream into a caller-owned buffer, returning the number
/// of bytes produced. The buffer is resized to the declared length; its
/// capacity is retained across calls, so reusing one `Vec` across pages
/// makes steady-state decode allocation-free. The resize only zero-fills
/// bytes beyond the buffer's current length — a successful decode
/// overwrites every byte of the output, so stale contents never leak and
/// a reused buffer skips the memset entirely.
///
/// On error the buffer is left empty.
pub fn decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<usize, DecompressError> {
    let (expected, header) = parse_len(input)?;
    out.resize(expected, 0);
    match decode_body(&input[header..], out) {
        Ok(produced) if produced == expected => Ok(expected),
        Ok(_) => {
            out.clear();
            Err(DecompressError::Truncated)
        }
        Err(e) => {
            out.clear();
            Err(e)
        }
    }
}

/// Input and output bytes that must remain for the fast loop to take an
/// element: its widest read is the tag, 64 literal bytes and the next
/// tag, its widest write 64 bytes.
const SLOP: usize = 80;

/// Offset from which a copy longer than 16 bytes is one 64-byte move: its
/// source then ends at least 64 bytes before the output position, clear
/// of the bytes the last few moves wrote, so no load waits on a store it
/// only partly overlaps. Nearer copies step 16 or 8 bytes at a time.
const FAR: usize = 128;

/// Decodes the element stream `src` into `dst` (pre-sized to the declared
/// length), returning how many bytes were produced.
///
/// The next-tag loop (see the module docs) runs while [`SLOP`] bytes of
/// input and of output remain, and takes only elements that cannot be
/// malformed there: a literal of ≤ 60 bytes cannot run past either
/// buffer, and neither can a copy whose offset is in `8..=op`. Every
/// other element, and every element in the last [`SLOP`] bytes of either
/// buffer, goes through [`element`].
fn decode_body(src: &[u8], dst: &mut [u8]) -> Result<usize, DecompressError> {
    let mut input = src;
    let mut op = 0;
    if input.len() >= SLOP && dst.len() >= SLOP {
        let op_end = dst.len() - SLOP;
        let mut tag = input[0];
        while input.len() >= SLOP && op <= op_end {
            let w: &[u8; SLOP] = input.first_chunk().expect("SLOP bytes remain");
            let lit = usize::from(tag) >> 2;
            let kind = usize::from(tag) & 0b11;
            let is_literal = kind == usize::from(TAG_LITERAL);
            let (next_lit, next_copy) = (w[2 + lit], w[1 + kind]);
            let mut step = if is_literal { 2 + lit } else { 1 + kind };
            let mut next_tag = if is_literal { next_lit } else { next_copy };

            let Tag { len, mask, high } = TAGS[usize::from(tag)];
            let len = usize::from(len);
            let mut offset = usize::from(u16::from_le_bytes([w[1], w[2]]) & mask) | high;
            if (16..=op).contains(&offset) {
                let (done, out) = dst.split_at_mut(op);
                let copied: &[u8; 16] = done[op - offset..].first_chunk().expect("offset ≥ 16");
                let literal: &[u8; 16] = w[1..].first_chunk().expect("16 bytes");
                *out.first_chunk_mut().expect("SLOP bytes remain") =
                    *if is_literal { literal } else { copied };
            } else {
                offset &= !LONG;
                if kind == usize::from(TAG_COPY4) {
                    offset = u32::from_le_bytes(w[1..5].try_into().expect("4 bytes")) as usize;
                    (step, next_tag) = (5, w[5]);
                }
                if is_literal && lit >= 60 || !is_literal && (offset < 8 || offset > op) {
                    let taken;
                    (taken, op) = element(input, dst, op)?;
                    input = &input[taken..];
                    match input.first() {
                        Some(&t) => tag = t,
                        None => break,
                    }
                    continue;
                }
                if is_literal {
                    dst[op..op + 64].copy_from_slice(&w[1..65]);
                } else if offset >= FAR {
                    let v: [u8; 64] = dst[op - offset..][..64].try_into().expect("64 bytes");
                    dst[op..op + 64].copy_from_slice(&v);
                } else {
                    copy_steps(dst, op, offset, len);
                }
            }
            op += len;
            input = &input[step..];
            tag = next_tag;
        }
    }
    while !input.is_empty() {
        let taken;
        (taken, op) = element(input, dst, op)?;
        input = &input[taken..];
    }
    Ok(op)
}

/// Copies `len` bytes from `offset` back to `op` in 16-byte steps
/// (offsets ≥ 16) or 8-byte steps (offsets 8–15): each step reads only
/// bytes at least one step behind it, which are final. Kept out of line,
/// so the registers of the loop's common case do not pay for it.
#[inline(never)]
fn copy_steps(dst: &mut [u8], op: usize, offset: usize, len: usize) {
    if offset >= 16 {
        for i in (op..op + len).step_by(16) {
            let v: [u8; 16] = dst[i - offset..][..16].try_into().expect("16 bytes");
            dst[i..i + 16].copy_from_slice(&v);
        }
    } else {
        for i in (op..op + len).step_by(8) {
            let v: [u8; 8] = dst[i - offset..][..8].try_into().expect("8 bytes");
            dst[i..i + 8].copy_from_slice(&v);
        }
    }
}

/// What the fast loop reads off a tag: the element's length and where
/// its offset comes from, the little-endian `u16` after the tag masked by
/// `mask`, plus `high` (a copy-1 keeps one byte and adds the tag's three
/// high offset bits). A literal's offset reads as 16, so a literal of
/// ≤ 16 bytes passes the same `16 <= offset <= op` test as a short copy;
/// an element longer than 16 bytes and a copy-4 carry [`LONG`] in
/// `high`, which no output position reaches.
#[derive(Clone, Copy)]
struct Tag {
    len: u8,
    mask: u16,
    high: usize,
}

/// Marks an element that is not one 16-byte move: above every output
/// position, since no slice is longer than `isize::MAX`.
const LONG: usize = isize::MAX as usize + 1;

static TAGS: [Tag; 256] = tags();

const fn tags() -> [Tag; 256] {
    let mut t = [Tag {
        len: 0,
        mask: 0,
        high: 0,
    }; 256];
    let mut tag = 0;
    while tag < 256 {
        let (len, mask, high) = match tag as u8 & 0b11 {
            TAG_LITERAL => (1 + (tag >> 2), 0, 16),
            TAG_COPY1 => (4 + ((tag >> 2) & 0b111), 0xFF, (tag >> 5) << 8),
            TAG_COPY2 => (1 + (tag >> 2), 0xFFFF, 0),
            _ => (1 + (tag >> 2), 0, LONG),
        };
        t[tag] = Tag {
            len: len as u8,
            mask,
            high: if len > 16 { high | LONG } else { high },
        };
        tag += 1;
    }
    t
}

/// Decodes the one element at the start of `src` into `dst` at `op`,
/// returning how many input bytes it took and the output position after
/// it: the exact per-element path, and the only place a malformed stream
/// is rejected, in the order the reference decoder checks it.
fn element(src: &[u8], dst: &mut [u8], op: usize) -> Result<(usize, usize), DecompressError> {
    let slen = src.len();
    let dlen = dst.len();
    let tag = src[0];
    let mut ip = 1;

    if tag & 0b11 == TAG_LITERAL {
        let n6 = (tag >> 2) as usize;
        let len = if n6 < 60 {
            n6 + 1
        } else {
            let extra = n6 - 59; // 1..=4 length bytes
            if ip + extra > slen {
                return Err(DecompressError::Truncated);
            }
            let mut v = 0usize;
            for i in 0..extra {
                v |= (src[ip + i] as usize) << (8 * i);
            }
            ip += extra;
            v + 1
        };
        if len > slen - ip {
            return Err(DecompressError::Truncated);
        }
        if len > dlen - op {
            return Err(DecompressError::TooLong);
        }
        if len <= 16 && ip + 16 <= slen && op + 16 <= dlen {
            // Wild copy: write a fixed 16 bytes; the tail past `len` is
            // garbage that the next element overwrites.
            dst[op..op + 16].copy_from_slice(&src[ip..ip + 16]);
        } else {
            dst[op..op + len].copy_from_slice(&src[ip..ip + len]);
        }
        return Ok((ip + len, op + len));
    }

    let (len, offset) = match tag & 0b11 {
        TAG_COPY1 => {
            if ip >= slen {
                return Err(DecompressError::Truncated);
            }
            let len = 4 + ((tag >> 2) & 0b111) as usize;
            let offset = (((tag >> 5) as usize) << 8) | src[ip] as usize;
            ip += 1;
            (len, offset)
        }
        TAG_COPY2 => {
            if ip + 2 > slen {
                return Err(DecompressError::Truncated);
            }
            let len = 1 + (tag >> 2) as usize;
            let offset = u16::from_le_bytes([src[ip], src[ip + 1]]) as usize;
            ip += 2;
            (len, offset)
        }
        _ => {
            if ip + 4 > slen {
                return Err(DecompressError::Truncated);
            }
            let len = 1 + (tag >> 2) as usize;
            let offset = u32::from_le_bytes(src[ip..ip + 4].try_into().unwrap()) as usize;
            ip += 4;
            (len, offset)
        }
    };
    if offset == 0 {
        return Err(DecompressError::ZeroOffset);
    }
    if offset > op {
        return Err(DecompressError::OffsetTooFar);
    }
    if len > dlen - op {
        return Err(DecompressError::TooLong);
    }
    let from = op - offset;

    if offset >= len {
        // Disjoint source and destination.
        if offset >= 16 && len <= 16 && op + 16 <= dlen {
            // Wild copy; offset ≥ 16 guarantees the full 16 source
            // bytes are already materialized.
            let (head, tail) = dst.split_at_mut(op);
            tail[..16].copy_from_slice(&head[from..from + 16]);
        } else {
            dst.copy_within(from..from + len, op);
        }
    } else if offset == 1 {
        // RLE of a single byte.
        let b = dst[from];
        dst[op..op + len].fill(b);
    } else {
        // Overlapping copy: expand the pattern by doubling. `copied`
        // stays a multiple of `offset` until the final chunk, so every
        // chunk starts at a pattern boundary and copies from the fully
        // materialized prefix.
        let mut pattern = offset;
        let mut copied = 0;
        while copied < len {
            let n = pattern.min(len - copied);
            dst.copy_within(from..from + n, op + copied);
            copied += n;
            pattern *= 2;
        }
    }
    Ok((ip, op + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, reference, varint::write_uvarint, TAG_COPY2};

    #[test]
    fn overlap_copy_every_offset() {
        // For each offset 1..32, build: literal of `offset` distinct bytes,
        // then a long overlapping copy. Exercises fill, doubling, and the
        // final partial chunk.
        for offset in 1usize..32 {
            let pattern: Vec<u8> = (0..offset as u8).map(|i| i.wrapping_mul(37)).collect();
            let copy_len = 200;
            let mut stream = Vec::new();
            write_uvarint(&mut stream, (offset + copy_len) as u64);
            crate::emit_literal(&pattern, &mut stream);
            stream.push(TAG_COPY2 | ((64 - 1) << 2));
            stream.extend_from_slice(&(offset as u16).to_le_bytes());
            stream.push(TAG_COPY2 | ((64 - 1) << 2));
            stream.extend_from_slice(&(offset as u16).to_le_bytes());
            stream.push(TAG_COPY2 | ((64 - 1) << 2));
            stream.extend_from_slice(&(offset as u16).to_le_bytes());
            stream.push(TAG_COPY2 | ((8 - 1) << 2));
            stream.extend_from_slice(&(offset as u16).to_le_bytes());

            let fast = decompress(&stream).expect("fast");
            let reference = reference::decompress(&stream).expect("reference");
            assert_eq!(fast, reference, "offset {offset}");
            for (i, b) in fast.iter().enumerate() {
                assert_eq!(*b, pattern[i % offset], "offset {offset} index {i}");
            }
        }
    }

    /// A stream built element by element, with the expected output of
    /// every valid copy computed byte by byte.
    #[derive(Default)]
    struct Stream {
        body: Vec<u8>,
        out: Vec<u8>,
        /// `(body, output)` position after each element; the decoder's
        /// input limit counts in the body, after the length header.
        ends: Vec<(usize, usize)>,
    }

    impl Stream {
        fn literal(&mut self, bytes: &[u8]) -> &mut Self {
            crate::emit_literal(bytes, &mut self.body);
            self.out.extend_from_slice(bytes);
            self.end()
        }

        /// A copy element with `extra` offset bytes (1, 2 or 4).
        fn copy(&mut self, extra: usize, offset: usize, len: usize) -> &mut Self {
            match extra {
                1 => {
                    let high = ((offset >> 8) as u8) << 5;
                    self.body.push(TAG_COPY1 | ((len - 4) as u8) << 2 | high);
                    self.body.push(offset as u8);
                }
                2 => {
                    self.body.push(TAG_COPY2 | ((len - 1) as u8) << 2);
                    self.body.extend_from_slice(&(offset as u16).to_le_bytes());
                }
                _ => {
                    self.body.push(TAG_COPY4 | ((len - 1) as u8) << 2);
                    self.body.extend_from_slice(&(offset as u32).to_le_bytes());
                }
            }
            if (1..=self.out.len()).contains(&offset) {
                for _ in 0..len {
                    self.out.push(self.out[self.out.len() - offset]);
                }
            }
            self.end()
        }

        fn end(&mut self) -> &mut Self {
            self.ends.push((self.body.len(), self.out.len()));
            self
        }

        /// 32 distinct bytes, so copies of offsets up to 32 have a source.
        fn prefix() -> Stream {
            let mut s = Stream::default();
            s.literal(
                &(0..32u8)
                    .map(|i| i.wrapping_mul(73) ^ 0x5A)
                    .collect::<Vec<_>>(),
            );
            s
        }

        /// Appends 120 bytes of short literals, so every element before
        /// them starts with more than 80 bytes of input and of output left.
        fn suffix(&mut self) -> &mut Self {
            for i in 0..12u8 {
                self.literal(&[i; 9]);
            }
            self
        }

        fn bytes(&self) -> Vec<u8> {
            let mut stream = Vec::new();
            write_uvarint(&mut stream, self.out.len() as u64);
            stream.extend_from_slice(&self.body);
            stream
        }

        /// Both decoders return the expected output.
        fn assert_decodes(&self) {
            let stream = self.bytes();
            assert_eq!(decompress(&stream).as_ref(), Ok(&self.out));
            assert_eq!(reference::decompress(&stream).as_ref(), Ok(&self.out));
        }

        /// Both decoders reject the stream with `err`.
        fn assert_rejects(&self, err: DecompressError) {
            let stream = self.bytes();
            assert_eq!(decompress(&stream), Err(err));
            assert_eq!(reference::decompress(&stream), Err(err));
        }
    }

    #[test]
    fn fast_loop_leaves_long_literals_to_the_exact_path() {
        for len in [61usize, 64, 65, 100, 255, 256, 257, 300, 70_000] {
            let lit: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            let mut s = Stream::prefix();
            s.literal(&lit).copy(1, 20, 11).suffix();
            s.assert_decodes();
        }
    }

    #[test]
    fn fast_loop_decodes_copy4_and_leaves_bad_ones_to_the_exact_path() {
        for offset in [8usize, 15, 16, 17, 31, 32] {
            for len in [1usize, 4, 8, 15, 16, 17, 33, 64] {
                let mut s = Stream::prefix();
                s.copy(4, offset, len).copy(4, offset, len).suffix();
                s.assert_decodes();
            }
        }
        // Copies either side of the offset that makes a long copy one
        // 64-byte move, after 2,000 bytes of history.
        for offset in [FAR - 1, FAR, FAR + 1, 1000] {
            for len in [16usize, 17, 33, 64] {
                for extra in [2usize, 4] {
                    let mut s = Stream::default();
                    for i in 0..40u8 {
                        s.literal(&[i.wrapping_mul(29); 50]);
                    }
                    s.copy(extra, offset, len)
                        .literal(b"z")
                        .copy(extra, offset, len);
                    s.suffix().assert_decodes();
                }
            }
        }
        // A copy-4 reaching back past 64 KiB, as the compressor emits.
        let mut s = Stream::prefix();
        for i in 0..1200u32 {
            s.literal(&i.wrapping_mul(2_654_435_761).to_le_bytes()[..3]);
            s.literal(&[(i % 251) as u8; 60]);
        }
        let back = s.out.len() - 7;
        s.copy(4, back, 64).copy(4, back, 5).suffix();
        assert!(back > 65_535);
        s.assert_decodes();
        for (offset, err) in [
            (0, DecompressError::ZeroOffset),
            (33, DecompressError::OffsetTooFar),
        ] {
            let mut s = Stream::prefix();
            s.copy(4, offset, 8).suffix();
            s.assert_rejects(err);
        }
    }

    #[test]
    fn fast_loop_matches_the_reference_on_overlapping_copies() {
        // Offsets 1–7 leave the loop, 8–15 step 8 bytes, 16 and up step
        // 16; every copy here is longer than its offset.
        for offset in 1usize..=32 {
            for len in [offset + 1, 11, 16, 17, 24, 40, 64] {
                if len <= offset {
                    continue;
                }
                for extra in [1usize, 2, 4] {
                    if extra == 1 && !(4..=11).contains(&len) {
                        continue;
                    }
                    let mut s = Stream::prefix();
                    s.copy(extra, offset, len)
                        .literal(b"xy")
                        .copy(extra, offset, len);
                    s.suffix().assert_decodes();
                }
            }
        }
    }

    #[test]
    fn fast_loop_leaves_offset_zero_and_offsets_past_the_start_to_the_exact_path() {
        for extra in [1usize, 2, 4] {
            let mut s = Stream::prefix();
            s.copy(extra, 0, 4).suffix();
            s.assert_rejects(DecompressError::ZeroOffset);
            for offset in [33usize, 34, 200] {
                let mut s = Stream::prefix();
                s.copy(extra, offset, 4).suffix();
                s.assert_rejects(DecompressError::OffsetTooFar);
            }
        }
    }

    #[test]
    fn elements_ending_at_the_fast_limit_of_either_buffer() {
        // Short literals and copies, then a tail that shifts where the
        // last 80 bytes of input (a literal of 1–60 bytes) or of output
        // (a copy of 1–64 bytes) begin, so that across the sweep an
        // element ends exactly there, and one byte either side.
        let mut body = Stream::prefix();
        for i in 0..40u8 {
            body.literal(&[i, i ^ 0x33, 7])
                .copy(1, 20, 6)
                .copy(2, 9, 13);
        }
        let (mut at_input, mut at_output) = (false, false);
        for tail in 1usize..=60 {
            for copy in 1usize..=64 {
                let mut s = Stream {
                    body: body.body.clone(),
                    out: body.out.clone(),
                    ends: body.ends.clone(),
                };
                s.literal(&vec![0xEE; tail]).copy(2, 17, copy);
                let (src_len, dst_len) = (s.body.len(), s.out.len());
                at_input |= s.ends.iter().any(|&(i, _)| i == src_len - SLOP);
                at_output |= s.ends.iter().any(|&(_, o)| o == dst_len - SLOP);
                s.assert_decodes();
            }
        }
        assert!(at_input && at_output);
    }

    #[test]
    fn errors_leave_scratch_empty() {
        let mut scratch = vec![1, 2, 3];
        let bad = [5u8, (4 - 1) << 2, b'a']; // truncated literal
        assert_eq!(
            decompress_into(&bad, &mut scratch),
            Err(DecompressError::Truncated)
        );
        assert!(scratch.is_empty());
    }

    #[test]
    fn wild_copy_tail_is_overwritten() {
        // Many short literals back to back: each wild 16-byte write's tail
        // must be overwritten by the next element.
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(&i.to_le_bytes());
            data.push(0xFF); // breaks up matches a bit
        }
        let c = reference::compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn matches_reference_on_fragment_sized_runs() {
        let data = vec![0x42u8; crate::FRAGMENT * 2 + 17];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), reference::decompress(&c).unwrap());
    }
}
