//! The erasure code: one systematic `(n, k, l)` code over GF(2^8) that
//! is Reed-Solomon when `l = 0` and a locally-repairable code (LRC) when
//! `l > 0`. An LRC adds one local parity per group of data blocks, so
//! the common failure — a single lost shard — is repaired by reading
//! only its small local group (`k/l + 1` shards at most) instead of the
//! full `k` survivors an MDS code needs.
//!
//! Construction (pyramid style, Huang et al.): start from the systematic
//! MDS matrix of a Reed-Solomon code. With `l = 0` that is the `(n, k)`
//! matrix and its parity rows are the code's. With `l > 0` it is the
//! `(k + g + 1, k)` matrix, `g = n − k − l`: its first parity row `P₀` is
//! *split* into `l` local parities by masking it to each group's
//! columns, and the next `g` rows `P₁ … P_g` are the global parities.
//! The prefix rows of these matrices agree, so RS(9, 6)'s parities are
//! `P₀ P₁ P₂` and LRC(10, 6, 2)'s globals are its `P₁ P₂`. Because every
//! local row is a column-masked MDS parity row, any square submatrix one
//! can face while decoding a ≤ `g + 1` erasure pattern is a minor of the
//! MDS parity block — and therefore invertible. The exhaustive loss-mask
//! tests below verify that guarantee directly for the shipped
//! configurations.
//!
//! An LRC is **not** MDS: `l − 1` parity blocks are "spent" on repair
//! locality, so an `LRC(n, k, l)` stripe guarantees only `n − k − l + 1`
//! simultaneous losses (three for the default LRC(10, 6, 2), the same as
//! RS(9, 6)) while paying one extra block of storage. Beyond-guarantee
//! masks are often still recoverable, so every decode decides by the
//! rank of the surviving generator rows rather than by count.

use std::sync::Arc;

use crate::codec::{Codec, CodecKind};
use crate::gf::Gf256;
use crate::matrix::Matrix;
use crate::rs::{CodeParamsError, ReconstructError};

/// A systematic erasure code: `k` data blocks, `l` local parities (one
/// per group of `k/l` data blocks, each the first MDS parity row masked
/// to its group) and `g = n − k − l` Reed-Solomon global parities. With
/// `l = 0` it is the Reed-Solomon code `RS(n, k)`.
///
/// Shard layout: data blocks first (`0..k`), then the local parities
/// (`k..k+l`, one per group in order), then the global parities.
///
/// Data blocks may have **different lengths**: shorter blocks are
/// treated as if zero-padded to the longest block in the stripe, and
/// every parity block has that maximum length (the stripe model of the
/// paper's §2, Figure 2). The padding is never stored.
///
/// # Examples
///
/// ```
/// use fusion_ec::ErasureCode;
///
/// let lrc = ErasureCode::new(10, 6, 2)?; // two groups of three data blocks
/// let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 256]).collect();
/// let parity = lrc.encode(&data);
/// assert_eq!(parity.len(), 4); // 2 local + 2 global
///
/// // A single lost data shard repairs from its local group alone.
/// let available = vec![true; 10];
/// let sources = lrc.repair_sources(0, &available).unwrap();
/// assert_eq!(sources, vec![1, 2, 6]); // group peers + local parity
///
/// // Reed-Solomon is the same type with no local groups.
/// let rs = ErasureCode::new(9, 6, 0)?;
/// let mut shards: Vec<Option<Vec<u8>>> =
///     data.iter().cloned().chain(rs.encode(&data)).map(Some).collect();
/// shards[0] = None;
/// shards[5] = None;
/// shards[7] = None;
/// rs.reconstruct(&mut shards, 256)?;
/// assert_eq!(shards[0].as_deref(), Some(&[0u8; 256][..]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ErasureCode {
    n: usize,
    k: usize,
    /// Local groups (`l`, zero for Reed-Solomon); group `j` covers data
    /// columns `j*k/l .. (j+1)*k/l` plus local parity `k + j`.
    groups: usize,
    /// Global parities (`g = n − k − l`).
    globals: usize,
    /// Full `n × k` generator: identity, masked local rows, global rows.
    rows: Matrix,
    codec: Arc<dyn Codec>,
}

impl ErasureCode {
    /// Creates an `(n, k, l)` code with the default GF(2^8) kernel
    /// ([`CodecKind::Fast`]); `l = 0` is `RS(n, k)`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeParamsError`] for degenerate parameters.
    pub fn new(n: usize, k: usize, local_groups: usize) -> Result<ErasureCode, CodeParamsError> {
        ErasureCode::with_codec(n, k, local_groups, CodecKind::default())
    }

    /// Creates an `(n, k, l)` code with an explicit GF(2^8) kernel.
    ///
    /// The kernel's coefficient tables are built here, once per instance;
    /// encode and decode never rebuild tables on the hot path.
    ///
    /// # Errors
    ///
    /// [`CodeParamsError::ZeroDataBlocks`], [`CodeParamsError::NoParityBlocks`]
    /// and [`CodeParamsError::TooManyBlocks`] unless `1 ≤ k < n ≤ 256`;
    /// [`CodeParamsError::InvalidLocalGroups`] when `l > 0` does not
    /// divide `k` or leaves no global parity (`n ≤ k + l`).
    pub fn with_codec(
        n: usize,
        k: usize,
        local_groups: usize,
        codec: CodecKind,
    ) -> Result<ErasureCode, CodeParamsError> {
        if k == 0 {
            return Err(CodeParamsError::ZeroDataBlocks);
        }
        if n <= k {
            return Err(CodeParamsError::NoParityBlocks);
        }
        if n > 256 {
            return Err(CodeParamsError::TooManyBlocks);
        }
        if local_groups > 0 && (!k.is_multiple_of(local_groups) || n <= k + local_groups) {
            return Err(CodeParamsError::InvalidLocalGroups);
        }
        let globals = n - k - local_groups;
        // Local groups split one extra MDS parity row between them.
        let split = usize::from(local_groups > 0);
        let base = Matrix::systematic_encode_matrix(k + split + globals, k);
        let mut rows = Matrix::zero(n, k);
        for c in 0..k {
            rows.set(c, c, Gf256::ONE);
            if split == 1 {
                rows.set(k + c / (k / local_groups), c, base.get(k, c));
            }
            for p in 0..globals {
                rows.set(k + local_groups + p, c, base.get(k + split + p, c));
            }
        }
        Ok(ErasureCode {
            n,
            k,
            groups: local_groups,
            globals,
            rows,
            codec: codec.build(),
        })
    }

    /// Which GF(2^8) kernel this instance multiplies with.
    pub fn codec_kind(&self) -> CodecKind {
        self.codec.kind()
    }

    /// Total blocks per stripe (`n`).
    pub fn total_blocks(&self) -> usize {
        self.n
    }

    /// Data blocks per stripe (`k`).
    pub fn data_blocks(&self) -> usize {
        self.k
    }

    /// Optimal storage overhead of this code: `(n − k) / k`.
    pub fn optimal_overhead(&self) -> f64 {
        (self.n - self.k) as f64 / self.k as f64
    }

    /// Local groups (`l`; zero for Reed-Solomon).
    pub fn local_groups(&self) -> usize {
        self.groups
    }

    /// Global parities (`g`).
    pub fn global_parities(&self) -> usize {
        self.globals
    }

    /// Data blocks per local group (`k / l`; zero for Reed-Solomon).
    pub fn group_size(&self) -> usize {
        self.k.checked_div(self.groups).unwrap_or(0)
    }

    /// Guaranteed simultaneous-loss tolerance: `n − k` for Reed-Solomon,
    /// `g + 1` for an LRC (any such mask is recoverable; verified
    /// exhaustively by tests).
    pub fn tolerance(&self) -> usize {
        self.globals + usize::from(self.groups > 0)
    }

    /// The local group of a shard: data and local-parity shards of an
    /// LRC belong to a group; global parities, and every Reed-Solomon
    /// shard, to none. Shards sharing a group must land in distinct
    /// failure domains so a domain outage costs each group at most one
    /// shard.
    pub fn group_of(&self, shard: usize) -> Option<usize> {
        if self.groups == 0 {
            None
        } else if shard < self.k {
            Some(shard / self.group_size())
        } else if shard < self.k + self.groups {
            Some(shard - self.k)
        } else {
            None
        }
    }

    /// Shard indices of a local group: its data blocks plus its local
    /// parity.
    ///
    /// # Panics
    ///
    /// Panics if `group >= l`.
    pub fn group_members(&self, group: usize) -> Vec<usize> {
        assert!(group < self.groups, "group out of range");
        let gs = self.group_size();
        let mut m: Vec<usize> = (group * gs..(group + 1) * gs).collect();
        m.push(self.k + group);
        m
    }

    /// Encodes `k` (possibly variable-length) data blocks into `n − k`
    /// parity blocks, each as long as the longest data block.
    ///
    /// Short data blocks are implicitly zero-padded: the pad bytes never
    /// need to be materialized or stored, but reconstruction returns
    /// padded blocks that the caller truncates to the original lengths.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Vec<Vec<u8>> {
        let mut parity = Vec::new();
        self.encode_into(data, &mut parity);
        parity
    }

    /// Like [`ErasureCode::encode`], but writes the parity into
    /// caller-provided buffers so repeated stripes reuse allocations.
    ///
    /// `parity` is resized to `n − k` vectors and each vector to the
    /// stripe width; existing capacity is reused, so a caller encoding
    /// many stripes of similar width pays no per-stripe allocation. Any
    /// prior contents of `parity` are overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    pub fn encode_into<T: AsRef<[u8]>>(&self, data: &[T], parity: &mut Vec<Vec<u8>>) {
        assert_eq!(data.len(), self.k, "expected exactly k data blocks");
        let width = data.iter().map(|d| d.as_ref().len()).max().unwrap_or(0);
        let m = self.n - self.k;
        parity.truncate(m);
        parity.resize_with(m, Vec::new);
        for out in parity.iter_mut() {
            out.clear();
            out.resize(width, 0);
        }
        for (p, out) in parity.iter_mut().enumerate() {
            let row = self.rows.row(self.k + p);
            for (j, d) in data.iter().enumerate() {
                if !row[j].is_zero() {
                    self.codec.mul_acc(out, d.as_ref(), row[j]);
                }
            }
        }
    }

    /// Verifies that a full stripe (data followed by parity, all
    /// implicitly zero-padded) is consistent with this code.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != n`.
    pub fn verify<T: AsRef<[u8]>>(&self, shards: &[T]) -> bool {
        assert_eq!(shards.len(), self.n, "expected n shards");
        let expected = self.encode(&shards[..self.k]);
        expected
            .iter()
            .zip(&shards[self.k..])
            .all(|(e, s)| pad_eq(e, s.as_ref()))
    }

    /// Recovers **all** missing shards in place.
    ///
    /// `shards` must have exactly `n` slots. Present shards may be
    /// shorter than `width` (their implicit zero padding is reinstated
    /// for the math); rebuilt shards are returned with length exactly
    /// `width`. Recoverability is decided by the rank of the surviving
    /// generator rows: for Reed-Solomon any `k` survivors rebuild
    /// anything; for an LRC which shards survive matters, not just how
    /// many.
    ///
    /// # Errors
    ///
    /// [`ReconstructError::TooFewBlocks`] below `k` survivors,
    /// [`ReconstructError::NotRecoverable`] when the survivors do not
    /// span the erased blocks, plus the shape checks
    /// ([`ReconstructError::WrongShardCount`],
    /// [`ReconstructError::ShardTooLong`]). On error no slot is filled.
    pub fn reconstruct(
        &self,
        shards: &mut [Option<Vec<u8>>],
        width: usize,
    ) -> Result<(), ReconstructError> {
        self.check_shape(shards, width)?;
        let missing: Vec<usize> = (0..self.n).filter(|&i| shards[i].is_none()).collect();
        self.decode(shards, &missing, width)
    }

    /// Repairs exactly one lost shard in place from whatever subset of
    /// shards is present — typically exactly the set returned by
    /// [`ErasureCode::repair_sources`] — and fills only slot `lost`. Hand
    /// it just the shard's local group and it solves within the group,
    /// never touching the rest of the stripe.
    ///
    /// # Errors
    ///
    /// As [`ErasureCode::reconstruct`], for the one shard `lost`.
    ///
    /// # Panics
    ///
    /// Panics if `lost >= n`.
    pub fn repair_one(
        &self,
        shards: &mut [Option<Vec<u8>>],
        lost: usize,
        width: usize,
    ) -> Result<(), ReconstructError> {
        self.check_shape(shards, width)?;
        assert!(lost < self.n, "shard index out of range");
        if shards[lost].is_some() {
            return Ok(());
        }
        self.decode(shards, &[lost], width)
    }

    /// The cheapest shard set that rebuilds `lost` given which shards are
    /// currently `available`: the shard's local group when it is intact
    /// (`k/l` reads instead of `k`), the data blocks for a parity with no
    /// group, or otherwise the first survivors in index order whose rows
    /// span the data (data shards first; any `k` for Reed-Solomon).
    /// The returned indices are what a repair must actually read — their
    /// count times the stripe width is the repair traffic. `None` when
    /// the loss is unrecoverable.
    ///
    /// # Panics
    ///
    /// Panics if `available.len() != n`.
    pub fn repair_sources(&self, lost: usize, available: &[bool]) -> Option<Vec<usize>> {
        assert_eq!(available.len(), self.n, "expected n availability flags");
        let direct: Vec<usize> = match self.group_of(lost) {
            Some(g) => self
                .group_members(g)
                .into_iter()
                .filter(|&i| i != lost)
                .collect(),
            // A global parity re-encodes from the data.
            None if lost >= self.k => (0..self.k).collect(),
            None => Vec::new(),
        };
        if !direct.is_empty() && direct.iter().all(|&i| available[i]) {
            return Some(direct);
        }
        let basis = Basis::new(self, (0..self.n).filter(|&i| available[i] && i != lost));
        (basis.shards.len() == self.k).then_some(basis.shards)
    }

    fn check_shape(
        &self,
        shards: &[Option<Vec<u8>>],
        width: usize,
    ) -> Result<(), ReconstructError> {
        if shards.len() != self.n {
            return Err(ReconstructError::WrongShardCount {
                got: shards.len(),
                expected: self.n,
            });
        }
        if shards
            .iter()
            .any(|s| s.as_ref().is_some_and(|s| s.len() > width))
        {
            return Err(ReconstructError::ShardTooLong);
        }
        Ok(())
    }

    /// The one decode behind [`ErasureCode::reconstruct`] and
    /// [`ErasureCode::repair_one`]: solves each target's generator row
    /// over the present shards' rows (taken in index order, dependent
    /// rows skipped, stopping at rank `k`) once, coefficients only, then
    /// builds each target with one multiply-accumulate per nonzero
    /// coefficient straight from the present shards. No slot is written
    /// unless every target is solvable.
    fn decode(
        &self,
        shards: &mut [Option<Vec<u8>>],
        targets: &[usize],
        width: usize,
    ) -> Result<(), ReconstructError> {
        if targets.is_empty() {
            return Ok(());
        }
        let present = shards.iter().filter(|s| s.is_some()).count();
        let basis = Basis::new(self, (0..self.n).filter(|&i| shards[i].is_some()));
        let plans: Vec<Vec<Gf256>> = targets
            .iter()
            .map(|&t| basis.solve(self.rows.row(t)))
            .collect::<Option<_>>()
            .ok_or(if present < self.k {
                ReconstructError::TooFewBlocks {
                    present,
                    required: self.k,
                }
            } else {
                ReconstructError::NotRecoverable
            })?;
        let rebuilt: Vec<Vec<u8>> = plans
            .iter()
            .map(|coeffs| {
                let mut out = vec![0u8; width];
                for (&s, &c) in basis.shards.iter().zip(coeffs) {
                    if !c.is_zero() {
                        let src = shards[s].as_deref().expect("basis shards are present");
                        self.codec.mul_acc(&mut out, src, c);
                    }
                }
                out
            })
            .collect();
        for (&t, out) in targets.iter().zip(rebuilt) {
            shards[t] = Some(out);
        }
        Ok(())
    }
}

impl std::fmt::Display for ErasureCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.groups == 0 {
            write!(f, "RS({}, {})", self.n, self.k)
        } else {
            write!(f, "LRC({}, {}, {})", self.n, self.k, self.groups)
        }
    }
}

/// The generator rows a decode or a fallback repair reads: candidate
/// shards taken in order, each kept only if its row is independent of
/// the rows kept before it, until rank `k`. The kept rows are held in
/// reduced row-echelon form: `reduced[j]` has a one in column
/// `pivots[j]` and a zero in every other pivot column, and equals
/// `Σᵢ combos[j][i] · row(shards[i])`.
struct Basis {
    shards: Vec<usize>,
    pivots: Vec<usize>,
    reduced: Vec<Vec<Gf256>>,
    combos: Vec<Vec<Gf256>>,
}

impl Basis {
    fn new(code: &ErasureCode, candidates: impl Iterator<Item = usize>) -> Basis {
        let mut basis = Basis {
            shards: Vec::with_capacity(code.k),
            pivots: Vec::with_capacity(code.k),
            reduced: Vec::with_capacity(code.k),
            combos: Vec::with_capacity(code.k),
        };
        for i in candidates {
            if basis.shards.len() == code.k {
                break;
            }
            let mut row = code.rows.row(i).to_vec();
            let mut combo = vec![Gf256::ZERO; code.k];
            combo[basis.shards.len()] = Gf256::ONE;
            basis.eliminate(&mut row, &mut combo);
            let Some(pivot) = row.iter().position(|c| !c.is_zero()) else {
                continue; // dependent on the rows already kept
            };
            let inv = row[pivot].inverse();
            for c in row.iter_mut().chain(combo.iter_mut()) {
                *c *= inv;
            }
            for (r, m) in basis.reduced.iter_mut().zip(&mut basis.combos) {
                let f = r[pivot];
                if !f.is_zero() {
                    add_scaled(r, f, &row);
                    add_scaled(m, f, &combo);
                }
            }
            basis.shards.push(i);
            basis.pivots.push(pivot);
            basis.reduced.push(row);
            basis.combos.push(combo);
        }
        basis
    }

    /// Clears every pivot column of `row`, applying the same steps to
    /// its combination `combo` of the kept rows.
    fn eliminate(&self, row: &mut [Gf256], combo: &mut [Gf256]) {
        for ((&p, r), m) in self.pivots.iter().zip(&self.reduced).zip(&self.combos) {
            let f = row[p];
            if !f.is_zero() {
                add_scaled(row, f, r);
                add_scaled(combo, f, m);
            }
        }
    }

    /// `target` as coefficients over the kept rows (indexed like
    /// `shards`), or `None` when it lies outside their span.
    fn solve(&self, target: &[Gf256]) -> Option<Vec<Gf256>> {
        let mut rest = target.to_vec();
        let mut coeffs = vec![Gf256::ZERO; target.len()];
        self.eliminate(&mut rest, &mut coeffs);
        rest.iter().all(|c| c.is_zero()).then_some(coeffs)
    }
}

/// `dst += f · src`, elementwise (subtraction is addition in GF(2^8)).
fn add_scaled(dst: &mut [Gf256], f: Gf256, src: &[Gf256]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += f * s;
    }
}

/// Compares two byte strings as if both were zero-padded to equal length.
fn pad_eq(a: &[u8], b: &[u8]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long[..short.len()] == *short && long[short.len()..].iter().all(|&x| x == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, width: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..width)
                    .map(|j| ((i * 131 + j * 7 + 13) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    fn full_stripe(lrc: &ErasureCode, width: usize) -> Vec<Vec<u8>> {
        let mut data = sample_data(lrc.data_blocks(), width);
        let parity = lrc.encode(&data);
        data.extend(parity);
        data
    }

    /// Visits every mask of exactly `t` losses out of `n`.
    fn for_each_mask(n: usize, t: usize, f: &mut dyn FnMut(&[usize])) {
        fn rec(
            start: usize,
            n: usize,
            left: usize,
            cur: &mut Vec<usize>,
            f: &mut dyn FnMut(&[usize]),
        ) {
            if left == 0 {
                f(cur);
                return;
            }
            for i in start..=n - left {
                cur.push(i);
                rec(i + 1, n, left - 1, cur, f);
                cur.pop();
            }
        }
        rec(0, n, t, &mut Vec::new(), f);
    }

    #[test]
    fn rejects_bad_group_counts() {
        // groups must divide k
        assert_eq!(
            ErasureCode::new(10, 6, 4).unwrap_err(),
            CodeParamsError::InvalidLocalGroups
        );
        // zero groups is Reed-Solomon
        assert_eq!(ErasureCode::new(10, 6, 0).unwrap().to_string(), "RS(10, 6)");
        // no room for a global parity: n == k + l
        assert_eq!(
            ErasureCode::new(8, 6, 2).unwrap_err(),
            CodeParamsError::InvalidLocalGroups
        );
        assert_eq!(
            ErasureCode::new(6, 0, 1).unwrap_err(),
            CodeParamsError::ZeroDataBlocks
        );
        assert_eq!(
            ErasureCode::new(6, 6, 2).unwrap_err(),
            CodeParamsError::NoParityBlocks
        );
    }

    #[test]
    fn shape_and_groups() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        assert_eq!(lrc.total_blocks(), 10);
        assert_eq!(lrc.data_blocks(), 6);
        assert_eq!(lrc.local_groups(), 2);
        assert_eq!(lrc.global_parities(), 2);
        assert_eq!(lrc.group_size(), 3);
        assert_eq!(lrc.tolerance(), 3);
        assert_eq!(lrc.to_string(), "LRC(10, 6, 2)");
        // Data shards 0..2 and local parity 6 form group 0.
        assert_eq!(lrc.group_of(0), Some(0));
        assert_eq!(lrc.group_of(2), Some(0));
        assert_eq!(lrc.group_of(3), Some(1));
        assert_eq!(lrc.group_of(6), Some(0));
        assert_eq!(lrc.group_of(7), Some(1));
        assert_eq!(lrc.group_of(8), None);
        assert_eq!(lrc.group_of(9), None);
        assert_eq!(lrc.group_members(0), vec![0, 1, 2, 6]);
        assert_eq!(lrc.group_members(1), vec![3, 4, 5, 7]);
        // Reed-Solomon: no groups, tolerance n - k.
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        assert_eq!(rs.tolerance(), 3);
        assert_eq!(rs.local_groups(), 0);
        assert!((0..9).all(|s| rs.group_of(s).is_none()));
    }

    #[test]
    fn encode_verify_roundtrip() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let stripe = full_stripe(&lrc, 257);
        assert!(lrc.verify(&stripe));
        let mut bad = stripe.clone();
        bad[7][3] ^= 0x40;
        assert!(!lrc.verify(&bad));
    }

    #[test]
    fn local_parity_depends_only_on_its_group() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let width = 64;
        let a = sample_data(6, width);
        let mut b = a.clone();
        // Perturb a group-1 data block: group-0's local parity must not move.
        b[4][10] ^= 0xFF;
        let pa = lrc.encode(&a);
        let pb = lrc.encode(&b);
        assert_eq!(pa[0], pb[0], "L0 must ignore group-1 data");
        assert_ne!(pa[1], pb[1], "L1 must cover group-1 data");
    }

    /// The headline guarantee: every mask of up to `g + 1 = 3` losses is
    /// recoverable for LRC(10, 6, 2). Exhaustive over all C(10,1) +
    /// C(10,2) + C(10,3) = 175 masks.
    #[test]
    fn all_masks_within_tolerance_recover() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let width = 96;
        let stripe = full_stripe(&lrc, width);
        for t in 1..=lrc.tolerance() {
            for_each_mask(10, t, &mut |mask| {
                let mut shards: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
                for &i in mask {
                    shards[i] = None;
                }
                lrc.reconstruct(&mut shards, width)
                    .unwrap_or_else(|e| panic!("mask {mask:?} failed: {e}"));
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(
                        s.as_deref(),
                        Some(&stripe[i][..]),
                        "shard {i}, mask {mask:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn larger_code_masks_recover() {
        // LRC(14, 10, 2): tolerance 3, exhaustive over all 3-masks.
        let lrc = ErasureCode::new(14, 10, 2).unwrap();
        let width = 40;
        let stripe = full_stripe(&lrc, width);
        for_each_mask(14, 3, &mut |mask| {
            let mut shards: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
            for &i in mask {
                shards[i] = None;
            }
            lrc.reconstruct(&mut shards, width)
                .unwrap_or_else(|e| panic!("mask {mask:?} failed: {e}"));
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(
                    s.as_deref(),
                    Some(&stripe[i][..]),
                    "shard {i}, mask {mask:?}"
                );
            }
        });
    }

    #[test]
    fn repair_sources_prefers_local_group() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let all = vec![true; 10];
        // Data shard: its group peers + local parity, 3 reads instead of 6.
        assert_eq!(lrc.repair_sources(1, &all), Some(vec![0, 2, 6]));
        assert_eq!(lrc.repair_sources(4, &all), Some(vec![3, 5, 7]));
        // Local parity: its group's data.
        assert_eq!(lrc.repair_sources(6, &all), Some(vec![0, 1, 2]));
        // Global parity: all data.
        assert_eq!(lrc.repair_sources(8, &all), Some(vec![0, 1, 2, 3, 4, 5]));
    }

    #[test]
    fn repair_sources_falls_back_when_group_broken() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let mut avail = vec![true; 10];
        avail[0] = false;
        avail[6] = false; // group 0 lost a peer and its local parity
        let sources = lrc.repair_sources(1, &avail).expect("still recoverable");
        assert!(
            sources.len() >= lrc.data_blocks(),
            "fallback is global: {sources:?}"
        );
        // And the sources actually suffice for repair_one.
        let width = 32;
        let stripe = full_stripe(&lrc, width);
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; 10];
        for &s in &sources {
            shards[s] = Some(stripe[s].clone());
        }
        lrc.repair_one(&mut shards, 1, width).unwrap();
        assert_eq!(shards[1].as_deref(), Some(&stripe[1][..]));
    }

    #[test]
    fn repair_sources_none_when_unrecoverable() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        // Lose all of group 0's data and both globals: rank < k.
        let mut avail = vec![true; 10];
        for i in [0, 1, 2, 8, 9] {
            avail[i] = false;
        }
        assert_eq!(lrc.repair_sources(0, &avail), None);
    }

    #[test]
    fn repair_one_from_exact_local_sources() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let width = 128;
        let stripe = full_stripe(&lrc, width);
        for lost in 0..10 {
            let avail: Vec<bool> = (0..10).map(|i| i != lost).collect();
            let sources = lrc.repair_sources(lost, &avail).unwrap();
            let mut shards: Vec<Option<Vec<u8>>> = vec![None; 10];
            for &s in &sources {
                shards[s] = Some(stripe[s].clone());
            }
            lrc.repair_one(&mut shards, lost, width).unwrap();
            assert_eq!(
                shards[lost].as_deref(),
                Some(&stripe[lost][..]),
                "lost {lost} via {sources:?}"
            );
        }
    }

    #[test]
    fn variable_width_blocks_roundtrip() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 + 1; 10 + i * 17]).collect();
        let width = data.iter().map(Vec::len).max().unwrap();
        let parity = lrc.encode(&data);
        assert!(parity.iter().all(|p| p.len() == width));
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        shards[2] = None;
        shards[9] = None;
        lrc.reconstruct(&mut shards, width).unwrap();
        // Recovered data comes back zero-padded to the stripe width.
        let got = shards[2].as_deref().unwrap();
        assert_eq!(&got[..data[2].len()], &data[2][..]);
        assert!(got[data[2].len()..].iter().all(|&b| b == 0));
        assert_eq!(shards[9].as_deref(), Some(&parity[3][..]));
    }

    #[test]
    fn unrecoverable_mask_reports_not_recoverable() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let width = 16;
        let stripe = full_stripe(&lrc, width);
        // Four losses concentrated on group 0 data + both globals leave
        // six survivors (count == k) that do not span the stripe.
        let mut shards: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
        for i in [0, 1, 8, 9] {
            shards[i] = None;
        }
        assert_eq!(
            lrc.reconstruct(&mut shards, width),
            Err(ReconstructError::NotRecoverable)
        );
    }

    #[test]
    fn too_few_blocks_detected() {
        let lrc = ErasureCode::new(10, 6, 2).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; 10];
        for s in shards.iter_mut().take(5) {
            *s = Some(vec![0u8; 8]);
        }
        assert_eq!(
            lrc.reconstruct(&mut shards, 8),
            Err(ReconstructError::TooFewBlocks {
                present: 5,
                required: 6
            })
        );
    }

    #[test]
    fn scalar_and_fast_codecs_agree() {
        let fast = ErasureCode::with_codec(10, 6, 2, CodecKind::Fast).unwrap();
        let scalar = ErasureCode::with_codec(10, 6, 2, CodecKind::Scalar).unwrap();
        let data = sample_data(6, 333);
        assert_eq!(fast.encode(&data), scalar.encode(&data));
        assert_eq!(fast.codec_kind(), CodecKind::Fast);
        assert_eq!(scalar.codec_kind(), CodecKind::Scalar);
    }
}
