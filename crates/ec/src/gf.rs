//! Arithmetic over the finite field GF(2^8).
//!
//! The field is constructed modulo the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11D), the same polynomial used by most
//! production Reed-Solomon deployments. Multiplication and division are
//! table-driven (log/exp tables) which makes the encoder fast enough for
//! multi-gigabyte stripes without platform-specific SIMD.

/// The primitive polynomial used to generate the field, minus the leading
/// `x^8` term (i.e. the reduction mask applied when the high bit overflows).
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// Order of the multiplicative group of GF(2^8).
pub const GROUP_ORDER: usize = 255;

/// Precomputed exp/log tables for GF(2^8).
struct Tables {
    /// `exp[i] = g^i` for generator `g = 2`; doubled length so that
    /// `exp[log[a] + log[b]]` never needs an explicit modulo.
    exp: [u8; 512],
    /// `log[a]` = discrete log of `a` base `g`; `log[0]` is unused.
    log: [u8; 256],
}

impl Tables {
    const fn build() -> Tables {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        let mut i = 0;
        while i < GROUP_ORDER {
            exp[i] = x as u8;
            exp[i + GROUP_ORDER] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
            i += 1;
        }
        // Fill the tail so any index < 512 is safe.
        while i < 512 - GROUP_ORDER {
            exp[i + GROUP_ORDER] = exp[i % GROUP_ORDER];
            i += 1;
        }
        Tables { exp, log }
    }
}

static TABLES: Tables = Tables::build();

/// An element of GF(2^8).
///
/// Addition is XOR; multiplication is polynomial multiplication modulo
/// [`PRIMITIVE_POLY`]. All operations are constant-time table lookups.
///
/// # Examples
///
/// ```
/// use fusion_ec::gf::Gf256;
///
/// let a = Gf256::new(0x53);
/// let b = Gf256::new(0xCA);
/// assert_eq!((a * b) / b, a);
/// assert_eq!(a + a, Gf256::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Wraps a raw byte as a field element.
    #[inline]
    pub const fn new(v: u8) -> Gf256 {
        Gf256(v)
    }

    /// Returns the raw byte value.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `g^power` for the field generator `g = 2`.
    #[inline]
    pub fn exp(power: usize) -> Gf256 {
        Gf256(TABLES.exp[power % GROUP_ORDER])
    }

    /// Returns the discrete logarithm of `self` base the generator.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero (zero has no logarithm).
    #[inline]
    pub fn log(self) -> usize {
        assert!(self.0 != 0, "log of zero is undefined in GF(256)");
        TABLES.log[self.0 as usize] as usize
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[inline]
    pub fn inverse(self) -> Gf256 {
        assert!(self.0 != 0, "zero has no inverse in GF(256)");
        Gf256(TABLES.exp[GROUP_ORDER - self.log()])
    }

    /// Raises `self` to an arbitrary power.
    #[inline]
    pub fn pow(self, mut e: usize) -> Gf256 {
        if self.0 == 0 {
            return if e == 0 { Gf256::ONE } else { Gf256::ZERO };
        }
        e %= GROUP_ORDER;
        Gf256(TABLES.exp[(self.log() * e) % GROUP_ORDER])
    }

    /// `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl std::ops::Add for Gf256 {
    type Output = Gf256;
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_op_assign_impl)]
impl std::ops::AddAssign for Gf256 {
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl std::ops::Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction is addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl std::ops::Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let li = TABLES.log[self.0 as usize] as usize;
        let lj = TABLES.log[rhs.0 as usize] as usize;
        Gf256(TABLES.exp[li + lj])
    }
}

impl std::ops::MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl std::ops::Div for Gf256 {
    type Output = Gf256;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        assert!(rhs.0 != 0, "division by zero in GF(256)");
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let li = TABLES.log[self.0 as usize] as usize;
        let lj = TABLES.log[rhs.0 as usize] as usize;
        Gf256(TABLES.exp[li + GROUP_ORDER - lj])
    }
}

impl std::fmt::Display for Gf256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl From<u8> for Gf256 {
    fn from(v: u8) -> Gf256 {
        Gf256(v)
    }
}

/// Multiplies every byte of `data` by the constant `c`, XOR-accumulating the
/// products into `acc`. This is the inner loop of Reed-Solomon encoding:
/// `acc[i] ^= c * data[i]`.
///
/// `acc` may be longer than `data`; the tail is left untouched (equivalent to
/// multiplying implicit zero padding).
#[inline]
pub fn mul_acc(acc: &mut [u8], data: &[u8], c: Gf256) {
    if c.0 == 0 {
        return;
    }
    debug_assert!(acc.len() >= data.len());
    if c.0 == 1 {
        for (a, d) in acc.iter_mut().zip(data) {
            *a ^= d;
        }
        return;
    }
    let lc = TABLES.log[c.0 as usize] as usize;
    // A 256-entry product table amortizes the double lookup for long rows.
    let mut table = [0u8; 256];
    for (v, slot) in table.iter_mut().enumerate().skip(1) {
        *slot = TABLES.exp[lc + TABLES.log[v] as usize];
    }
    for (a, d) in acc.iter_mut().zip(data) {
        *a ^= table[*d as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor() {
        assert_eq!(Gf256(0b1010) + Gf256(0b0110), Gf256(0b1100));
    }

    #[test]
    fn mul_identities() {
        for v in 0..=255u8 {
            let a = Gf256(v);
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn known_products() {
        // Hand-checked products under 0x11D.
        assert_eq!(Gf256(2) * Gf256(2), Gf256(4));
        assert_eq!(Gf256(0x80) * Gf256(2), Gf256(0x1D));
        assert_eq!(Gf256(0x53) * Gf256(0xCA), Gf256(0x8F));
    }

    #[test]
    fn inverse_roundtrip() {
        for v in 1..=255u8 {
            let a = Gf256(v);
            assert_eq!(a * a.inverse(), Gf256::ONE, "inverse failed for {v}");
        }
    }

    #[test]
    fn division_is_mul_by_inverse() {
        for a in 1..=255u8 {
            for b in (1..=255u8).step_by(17) {
                let (a, b) = (Gf256(a), Gf256(b));
                assert_eq!(a / b, a * b.inverse());
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let g = Gf256(2);
        let mut acc = Gf256::ONE;
        for e in 0..300 {
            assert_eq!(g.pow(e), acc, "pow mismatch at {e}");
            acc *= g;
        }
    }

    #[test]
    fn exp_log_roundtrip() {
        for v in 1..=255u8 {
            assert_eq!(Gf256::exp(Gf256(v).log()), Gf256(v));
        }
    }

    #[test]
    fn generator_has_full_order() {
        // g = 2 must generate all 255 nonzero elements.
        let mut seen = [false; 256];
        let mut x = Gf256::ONE;
        for _ in 0..GROUP_ORDER {
            assert!(!seen[x.0 as usize], "generator order < 255");
            seen[x.0 as usize] = true;
            x *= Gf256(2);
        }
        assert_eq!(x, Gf256::ONE);
    }

    #[test]
    fn mul_acc_matches_scalar_path() {
        let data: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x1D, 0xFF] {
            let mut acc = vec![0xA5u8; 256];
            let mut expect = acc.clone();
            mul_acc(&mut acc, &data, Gf256(c));
            for (e, d) in expect.iter_mut().zip(&data) {
                *e ^= (Gf256(c) * Gf256(*d)).0;
            }
            assert_eq!(acc, expect, "mul_acc mismatch for c={c}");
        }
    }

    #[test]
    fn mul_acc_shorter_data_leaves_tail() {
        let mut acc = vec![0x11u8; 8];
        mul_acc(&mut acc, &[0xFF, 0xFF], Gf256(3));
        assert_eq!(&acc[2..], &[0x11; 6]);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Gf256(0x1D).to_string(), "0x1d");
    }
}
