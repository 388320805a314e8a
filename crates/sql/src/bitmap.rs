//! Dense row bitmaps: the wire format of the filter stage.
//!
//! Storage nodes evaluate filters over a column chunk and return one bit
//! per row; the coordinator combines bitmaps to learn the exact query
//! selectivity before deciding projection pushdown (paper §4.3). Bitmaps
//! are Snappy-compressed for the network, which makes sparse results cost
//! almost nothing.

/// A fixed-length bitmap over row indices.
///
/// # Examples
///
/// ```
/// use fusion_sql::bitmap::Bitmap;
///
/// let mut b = Bitmap::with_len(10);
/// b.set(3);
/// b.set(7);
/// assert_eq!(b.count_ones(), 2);
/// assert_eq!(b.ones().collect::<Vec<_>>(), vec![3, 7]);
/// assert!((b.selectivity() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-zero bitmap of `len` bits.
    pub fn with_len(len: usize) -> Bitmap {
        Bitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates an all-one bitmap of `len` bits.
    pub fn ones_with_len(len: usize) -> Bitmap {
        let mut b = Bitmap {
            len,
            words: vec![u64::MAX; len.div_ceil(64)],
        };
        b.clear_tail();
        b
    }

    /// Builds a bitmap directly from its word representation. This is the
    /// zero-copy exit of the encoded-domain scan kernels, which assemble
    /// whole `u64` words instead of setting bits one at a time.
    ///
    /// Tail bits past `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    pub fn from_words(len: usize, words: Vec<u64>) -> Bitmap {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word count does not cover {len} bits"
        );
        let mut b = Bitmap { len, words };
        b.clear_tail();
        b
    }

    /// The backing words, least-significant bit first. The final word's
    /// bits past `len` are always zero (tail hygiene invariant).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range ({})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range ({})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets `count` consecutive bits starting at `start`, whole words at a
    /// time — the RLE-run fast path: a run of ten thousand matching rows
    /// costs ~160 word stores instead of ten thousand bit sets.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the bitmap length.
    pub fn set_span(&mut self, start: usize, count: usize) {
        assert!(
            start + count <= self.len,
            "span {start}+{count} out of range ({})",
            self.len
        );
        or_span(&mut self.words, start, count);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits inside `[start, start + len)`, counted a word
    /// at a time with masked popcounts. The grouped-aggregation kernel
    /// uses this to fold an entire RLE run into a single `COUNT`/`SUM`
    /// update without visiting individual rows.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the bitmap.
    pub fn count_range(&self, start: usize, len: usize) -> usize {
        assert!(start + len <= self.len, "range out of range");
        if len == 0 {
            return 0;
        }
        let end = start + len; // exclusive
        let (first_w, first_b) = (start / 64, start % 64);
        let (last_w, last_b) = ((end - 1) / 64, (end - 1) % 64);
        let head = u64::MAX << first_b;
        let tail = u64::MAX >> (63 - last_b);
        if first_w == last_w {
            return (self.words[first_w] & head & tail).count_ones() as usize;
        }
        let mut n = (self.words[first_w] & head).count_ones() as usize;
        for &w in &self.words[first_w + 1..last_w] {
            n += w.count_ones() as usize;
        }
        n + (self.words[last_w] & tail).count_ones() as usize
    }

    /// Calls `f(row)` for every set bit inside `[start, start + len)`, in
    /// ascending order, a word at a time: a word whose 64 bits are all
    /// selected runs as a plain 64-row loop, any other word bit by bit
    /// (one `trailing_zeros` step per set bit). The first and last words
    /// are masked to the span, so run-at-a-time kernels can visit only
    /// the selected rows of one run.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the bitmap.
    #[inline]
    pub fn for_each_one(&self, start: usize, len: usize, mut f: impl FnMut(usize)) {
        assert!(start + len <= self.len, "range out of range");
        if len == 0 {
            return;
        }
        let end = start + len; // exclusive
        let (first_w, last_w) = (start / 64, (end - 1) / 64);
        for wi in first_w..=last_w {
            let mut w = self.words[wi];
            if wi == first_w {
                w &= u64::MAX << (start % 64);
            }
            if wi == last_w {
                w &= u64::MAX >> (63 - (end - 1) % 64);
            }
            let base = wi * 64;
            if w == u64::MAX {
                (base..base + 64).for_each(&mut f);
            } else {
                while w != 0 {
                    f(base + w.trailing_zeros() as usize);
                    w &= w - 1;
                }
            }
        }
    }

    /// Fraction of set bits (0.0 for an empty bitmap) — the paper's
    /// *query selectivity* once all filters are combined.
    pub fn selectivity(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.count_ones() as f64 / self.len as f64
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement.
    pub fn not_assign(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.clear_tail();
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Iterates indices of set bits in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Serializes as `len:u64` + little-endian words. Pair with
    /// [`Bitmap::from_bytes`]; compress with `fusion_snappy` for the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses the [`Bitmap::to_bytes`] representation.
    ///
    /// Returns `None` for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Bitmap> {
        if bytes.len() < 8 {
            return None;
        }
        let len = u64::from_le_bytes(bytes[..8].try_into().ok()?) as usize;
        let expect_words = len.div_ceil(64);
        if bytes.len() != 8 + expect_words * 8 {
            return None;
        }
        let mut words = Vec::with_capacity(expect_words);
        for c in bytes[8..].chunks_exact(8) {
            words.push(u64::from_le_bytes(c.try_into().ok()?));
        }
        let mut b = Bitmap { len, words };
        b.clear_tail();
        Some(b)
    }

    /// Concatenates bitmaps (chunk-level results → object-level bitmap).
    /// Word-wise: each part's words are OR-shifted into place rather than
    /// copied bit by bit.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Bitmap>) -> Bitmap {
        let parts: Vec<&Bitmap> = parts.into_iter().collect();
        let total: usize = parts.iter().map(|b| b.len).sum();
        let mut words = vec![0u64; total.div_ceil(64)];
        let mut base = 0;
        for p in parts {
            let mut bit = base;
            let mut remaining = p.len;
            for &w in &p.words {
                let n = remaining.min(64);
                or_bits(&mut words, bit, w, n);
                bit += n;
                remaining -= n;
            }
            base += p.len;
        }
        Bitmap::from_words(total, words)
    }
}

/// ORs `count` consecutive one-bits into `words` starting at bit `start`,
/// whole words at a time. Shared by [`Bitmap::set_span`] and the scan
/// kernels that assemble raw word vectors before wrapping them in a
/// [`Bitmap`].
pub fn or_span(words: &mut [u64], start: usize, count: usize) {
    if count == 0 {
        return;
    }
    let end = start + count; // exclusive
    let (first_w, first_b) = (start / 64, start % 64);
    let (last_w, last_b) = ((end - 1) / 64, (end - 1) % 64);
    let head = u64::MAX << first_b;
    let tail = u64::MAX >> (63 - last_b);
    if first_w == last_w {
        words[first_w] |= head & tail;
        return;
    }
    words[first_w] |= head;
    for w in &mut words[first_w + 1..last_w] {
        *w = u64::MAX;
    }
    words[last_w] |= tail;
}

/// ORs the low `count` bits (≤ 64) of `bits` into `words` starting at bit
/// `start`, which may be unaligned — the batch exit of the literal-run and
/// plain-page scan loops: 64 predicate results land with at most two word
/// stores.
pub fn or_bits(words: &mut [u64], start: usize, bits: u64, count: usize) {
    debug_assert!(count <= 64);
    if count == 0 {
        return;
    }
    let bits = if count == 64 {
        bits
    } else {
        bits & ((1u64 << count) - 1)
    };
    let (wi, off) = (start / 64, start % 64);
    words[wi] |= bits << off;
    if off != 0 && off + count > 64 {
        words[wi + 1] |= bits >> (64 - off);
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Bitmap {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut b = Bitmap::with_len(bits.len());
        for (i, v) in bits.iter().enumerate() {
            if *v {
                b.set(i);
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::with_len(130);
        for i in [0, 63, 64, 127, 129] {
            b.set(i);
        }
        assert!(b.get(64));
        assert!(!b.get(65));
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn logical_ops() {
        let a: Bitmap = [true, true, false, false].into_iter().collect();
        let b: Bitmap = [true, false, true, false].into_iter().collect();
        let mut x = a.clone();
        x.and_assign(&b);
        assert_eq!(x.ones().collect::<Vec<_>>(), vec![0]);
        let mut y = a.clone();
        y.or_assign(&b);
        assert_eq!(y.ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        let mut z = a;
        z.not_assign();
        assert_eq!(z.ones().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn not_keeps_tail_clear() {
        let mut b = Bitmap::with_len(70);
        b.not_assign();
        assert_eq!(b.count_ones(), 70);
        b.not_assign();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn ones_with_len_tail() {
        let b = Bitmap::ones_with_len(65);
        assert_eq!(b.count_ones(), 65);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut b = Bitmap::with_len(100);
        for i in (0..100).step_by(7) {
            b.set(i);
        }
        let bytes = b.to_bytes();
        assert_eq!(Bitmap::from_bytes(&bytes), Some(b));
    }

    #[test]
    fn bad_bytes_rejected() {
        assert_eq!(Bitmap::from_bytes(&[1, 2, 3]), None);
        let mut bytes = 100u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]); // too few words for 100 bits
        assert_eq!(Bitmap::from_bytes(&bytes), None);
    }

    #[test]
    fn sparse_bitmap_compresses() {
        let mut b = Bitmap::with_len(1_000_000);
        b.set(12345);
        let compressed = fusion_snappy::compress(&b.to_bytes());
        assert!(
            compressed.len() * 15 < b.to_bytes().len(),
            "sparse bitmap should shrink on the wire"
        );
        let back = Bitmap::from_bytes(&fusion_snappy::decompress(&compressed).unwrap()).unwrap();
        assert_eq!(back.count_ones(), 1);
    }

    #[test]
    fn concat_parts() {
        let a: Bitmap = [true, false].into_iter().collect();
        let b: Bitmap = [false, true, true].into_iter().collect();
        let c = Bitmap::concat([&a, &b]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.ones().collect::<Vec<_>>(), vec![0, 3, 4]);
    }

    #[test]
    fn selectivity() {
        let b: Bitmap = (0..100).map(|i| i % 4 == 0).collect();
        assert!((b.selectivity() - 0.25).abs() < 1e-12);
        assert_eq!(Bitmap::with_len(0).selectivity(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_set_panics() {
        Bitmap::with_len(3).set(3);
    }

    #[test]
    fn from_words_clears_tail() {
        let b = Bitmap::from_words(65, vec![u64::MAX, u64::MAX]);
        assert_eq!(b.count_ones(), 65);
        assert_eq!(b.words()[1], 1);
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_wrong_count_panics() {
        Bitmap::from_words(65, vec![0]);
    }

    #[test]
    fn set_span_matches_per_bit() {
        for (start, count) in [
            (0, 0),
            (0, 64),
            (3, 7),
            (60, 10),
            (63, 1),
            (0, 130),
            (64, 66),
        ] {
            let mut a = Bitmap::with_len(130);
            a.set_span(start, count);
            let mut b = Bitmap::with_len(130);
            for i in start..start + count {
                b.set(i);
            }
            assert_eq!(a, b, "span ({start}, {count})");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_span_oob_panics() {
        Bitmap::with_len(100).set_span(90, 20);
    }

    #[test]
    fn or_bits_unaligned() {
        let mut words = vec![0u64; 2];
        or_bits(&mut words, 60, 0b1111, 4);
        assert_eq!(words[0], 0b1111 << 60);
        let mut words = vec![0u64; 2];
        or_bits(&mut words, 62, u64::MAX, 4);
        assert_eq!(words[0], 0b11 << 62);
        assert_eq!(words[1], 0b11);
    }

    #[test]
    fn count_range_matches_per_bit() {
        let b: Bitmap = (0..200).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        for (start, len) in [
            (0, 0),
            (0, 200),
            (0, 64),
            (5, 3),
            (60, 10),
            (63, 1),
            (64, 64),
            (70, 129),
            (199, 1),
            (200, 0),
        ] {
            let want = (start..start + len).filter(|&i| b.get(i)).count();
            assert_eq!(b.count_range(start, len), want, "range ({start}, {len})");
        }
    }

    #[test]
    fn for_each_one_matches_per_bit() {
        // Whole words, partial words and spans that start or end mid-word.
        let b: Bitmap = (0..200)
            .map(|i| (64..128).contains(&i) || i % 5 == 0)
            .collect();
        for (start, len) in [
            (0, 0),
            (0, 200),
            (3, 7),
            (60, 10),
            (63, 2),
            (64, 64),
            (65, 62),
            (70, 129),
            (128, 72),
            (199, 1),
        ] {
            let want: Vec<usize> = (start..start + len).filter(|&i| b.get(i)).collect();
            let mut got = Vec::new();
            b.for_each_one(start, len, |i| got.push(i));
            assert_eq!(got, want, "range ({start}, {len})");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn count_range_oob_panics() {
        Bitmap::with_len(100).count_range(90, 20);
    }

    #[test]
    fn concat_unaligned_parts() {
        // Parts with non-multiple-of-64 lengths exercise the shifted OR.
        let a: Bitmap = (0..70).map(|i| i % 3 == 0).collect();
        let b: Bitmap = (0..13).map(|i| i % 2 == 0).collect();
        let c: Bitmap = (0..129).map(|i| i % 5 == 0).collect();
        let got = Bitmap::concat([&a, &b, &c]);
        let mut want = Bitmap::with_len(70 + 13 + 129);
        for (base, p) in [(0, &a), (70, &b), (83, &c)] {
            for i in p.ones() {
                want.set(base + i);
            }
        }
        assert_eq!(got, want);
    }
}
