//! Property tests: compression must be lossless for arbitrary inputs,
//! the fast codec must be interchangeable with the preserved reference
//! codec (differential testing) on arbitrary and on element-dense page
//! inputs, and varints must roundtrip.

use fusion_snappy::reference;
use proptest::prelude::*;

/// Inputs shaped to stress specific codec paths: arbitrary bytes,
/// low-entropy cycles (overlap copies at every small offset), and runs
/// long enough to cross the 64 KiB fragment boundary.
fn codec_inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..20_000),
        // Cyclic data: overlapping copies with offsets 1..=64.
        (prop::collection::vec(any::<u8>(), 1..64), 1usize..2000).prop_map(|(seed, reps)| {
            seed.iter()
                .cycle()
                .take(seed.len() * reps)
                .copied()
                .collect()
        }),
        // Fragment-boundary crossers: 64 KiB ± a small delta of mildly
        // compressible data.
        (0usize..256, any::<u8>()).prop_map(|(delta, b)| {
            let n = 65536 - 128 + delta;
            (0..n)
                .map(|i| if i % 7 == 0 { b } else { (i % 251) as u8 })
                .collect()
        }),
    ]
}

/// Element-dense pages, shaped like the plain pages cold scans decode
/// most: f64 prices with two decimals (as `extendedprice`) and sorted i64
/// keys with small deltas (as `orderkey`), as 8-byte little-endian values,
/// 1–40 KB. Their streams hold about one element per 4–12 bytes, so they
/// run the decoder's fast loop, which junk streams rarely reach.
fn page_inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (any::<u64>(), 128usize..=5000).prop_map(|(seed, n)| {
            let mut x = seed | 1;
            (0..n)
                .flat_map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let quantity = (x % 50 + 1) as f64;
                    let cents = 90_000 + (x >> 8) % 20_000;
                    (quantity * cents as f64 / 100.0).to_le_bytes()
                })
                .collect()
        }),
        (any::<u32>(), 0u64..8, 128usize..=5000).prop_map(|(start, max_delta, n)| {
            let mut key = i64::from(start);
            let mut x = u64::from(start) | 1;
            (0..n)
                .flat_map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    key += (x % (max_delta + 1)) as i64;
                    key.to_le_bytes()
                })
                .collect()
        }),
    ]
}

proptest! {
    /// Both compressors' streams of element-dense pages decode to the page
    /// under both decoders.
    #[test]
    fn page_streams_roundtrip_under_both_decoders(data in page_inputs()) {
        for stream in [fusion_snappy::compress(&data), reference::compress(&data)] {
            prop_assert_eq!(&fusion_snappy::decompress(&stream).unwrap()[..], &data[..]);
            prop_assert_eq!(&reference::decompress(&stream).unwrap()[..], &data[..]);
        }
    }

    /// Truncated and single-byte-flipped streams of element-dense pages
    /// give the same output or the same error under both decoders.
    #[test]
    fn decoders_agree_on_truncated_and_flipped_page_streams(
        data in page_inputs(),
        cut in any::<u32>(),
        flip_at in any::<u32>(),
        flip_bits in 1u8..=255,
    ) {
        for stream in [fusion_snappy::compress(&data), reference::compress(&data)] {
            let truncated = &stream[..cut as usize % stream.len()];
            prop_assert_eq!(
                fusion_snappy::decompress(truncated),
                reference::decompress(truncated)
            );
            let mut flipped = stream.clone();
            flipped[flip_at as usize % stream.len()] ^= flip_bits;
            prop_assert_eq!(
                fusion_snappy::decompress(&flipped),
                reference::decompress(&flipped)
            );
        }
    }
}

proptest! {
    #[test]
    fn roundtrip_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..20_000)) {
        let c = fusion_snappy::compress(&data);
        prop_assert!(c.len() <= fusion_snappy::max_compressed_len(data.len()));
        prop_assert_eq!(fusion_snappy::decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_low_entropy(
        seed in prop::collection::vec(0u8..4, 1..64),
        reps in 1usize..500,
    ) {
        // Highly repetitive input exercises long overlapping copies.
        let data: Vec<u8> = seed.iter().cycle().take(seed.len() * reps).copied().collect();
        let c = fusion_snappy::compress(&data);
        prop_assert_eq!(fusion_snappy::decompress(&c).unwrap(), data);
    }

    /// Differential: every stream the fast compressor emits decodes to the
    /// original under BOTH decoders, and the reference compressor's
    /// streams decode identically under the fast decoder — the two codecs
    /// are fully interchangeable on the wire.
    #[test]
    fn differential_cross_codec_roundtrip(data in codec_inputs()) {
        let fast_stream = fusion_snappy::compress(&data);
        let ref_stream = reference::compress(&data);

        prop_assert_eq!(&fusion_snappy::decompress(&fast_stream).unwrap()[..], &data[..]);
        prop_assert_eq!(&reference::decompress(&fast_stream).unwrap()[..], &data[..]);
        prop_assert_eq!(&fusion_snappy::decompress(&ref_stream).unwrap()[..], &data[..]);
        prop_assert_eq!(&reference::decompress(&ref_stream).unwrap()[..], &data[..]);
    }

    /// Differential: on arbitrary (mostly malformed) streams the fast
    /// decoder returns byte-identical output — and the identical error —
    /// to the reference decoder.
    #[test]
    fn differential_decoders_agree_on_junk(junk in prop::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(fusion_snappy::decompress(&junk), reference::decompress(&junk));
    }

    /// Differential on well-formed prefixes: take a valid stream and
    /// truncate or perturb it; both decoders must still agree.
    #[test]
    fn differential_decoders_agree_on_corrupted(
        data in prop::collection::vec(any::<u8>(), 1..4096),
        cut in any::<u16>(),
        flip_at in any::<u16>(),
        flip_bits in any::<u8>(),
    ) {
        let mut stream = fusion_snappy::compress(&data);
        let cut = 1 + (cut as usize) % stream.len();
        stream.truncate(cut);
        let at = (flip_at as usize) % stream.len();
        stream[at] ^= flip_bits;
        prop_assert_eq!(fusion_snappy::decompress(&stream), reference::decompress(&stream));
    }

    #[test]
    fn decompress_never_panics(junk in prop::collection::vec(any::<u8>(), 0..2048)) {
        // Malformed input must produce an error, never a panic.
        let _ = fusion_snappy::decompress(&junk);
    }

    #[test]
    fn decompress_into_never_panics_and_reuses(
        junk in prop::collection::vec(any::<u8>(), 0..2048),
        data in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        // A scratch buffer cycled through junk and valid streams must
        // never panic and must end up holding exactly the valid payload.
        let mut scratch = Vec::new();
        let _ = fusion_snappy::decompress_into(&junk, &mut scratch);
        let c = fusion_snappy::compress(&data);
        prop_assert_eq!(fusion_snappy::decompress_into(&c, &mut scratch), Ok(data.len()));
        prop_assert_eq!(&scratch, &data);
    }

    #[test]
    fn decompress_len_agrees(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let c = fusion_snappy::compress(&data);
        prop_assert_eq!(fusion_snappy::decompress_len(&c), Ok(data.len()));
    }

    #[test]
    fn varint_roundtrip(v: u64) {
        let mut buf = Vec::new();
        fusion_snappy::varint::write_uvarint(&mut buf, v);
        prop_assert_eq!(fusion_snappy::varint::read_uvarint(&buf), Some((v, buf.len())));
    }
}
