//! Numeric semirings: `B`, `ℕ`, `ℤ`, `ℚ`, `ℤ/m`, and approximate `f64`.

use crate::traits::{FiniteSemiring, Ring, Semiring};
use std::fmt;

/// The Boolean semiring `B = ({false, true}, ∨, ∧)`.
///
/// Summation in `B` is existential quantification; the Iverson bracket
/// `[φ]` of the paper takes values here before being transported into other
/// semirings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Bool(pub bool);

impl Semiring for Bool {
    const ORDER_INSENSITIVE_ADD: bool = true;

    fn zero() -> Self {
        Bool(false)
    }
    fn one() -> Self {
        Bool(true)
    }
    fn add(&self, rhs: &Self) -> Self {
        Bool(self.0 || rhs.0)
    }
    fn mul(&self, rhs: &Self) -> Self {
        Bool(self.0 && rhs.0)
    }
    fn is_zero(&self) -> bool {
        !self.0
    }
    fn is_one(&self) -> bool {
        self.0
    }
    #[inline]
    fn sum_slice(xs: &[Self]) -> Self {
        // Disjunction short-circuits; `any` compiles to an early-exit scan,
        // which beats any fold the moment a `true` appears.
        Bool(xs.iter().any(|x| x.0))
    }
    #[inline]
    fn add_assign_slices(dst: &mut [Self], src: &[Self]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            d.0 |= s.0;
        }
    }
}

impl FiniteSemiring for Bool {
    fn enumerate() -> Vec<Self> {
        vec![Bool(false), Bool(true)]
    }
    fn index_of(&self) -> usize {
        self.0 as usize
    }
    fn cardinality() -> usize {
        2
    }
}

impl fmt::Display for Bool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The counting semiring `(ℕ, +, ·)` on `u64`.
///
/// Used for bag semantics and `#`-aggregates. Arithmetic is `wrapping_*`
/// in every build profile: it never panics, and a value past `u64::MAX`
/// is the true value mod 2⁶⁴ (the unit-cost model of the paper assumes
/// machine words). Answer counts held in `Nat` wrap the same way.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Nat(pub u64);

impl Semiring for Nat {
    const ORDER_INSENSITIVE_ADD: bool = true;

    fn zero() -> Self {
        Nat(0)
    }
    fn one() -> Self {
        Nat(1)
    }
    fn add(&self, rhs: &Self) -> Self {
        Nat(self.0.wrapping_add(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        Nat(self.0.wrapping_mul(rhs.0))
    }
    fn is_zero(&self) -> bool {
        self.0 == 0
    }
    fn is_one(&self) -> bool {
        self.0 == 1
    }
    #[inline]
    fn sum_slice(xs: &[Self]) -> Self {
        // Wrapping u64 addition is associative and commutative at the bit
        // level, so a straight reduction is legal and LLVM vectorizes it.
        let mut acc = 0u64;
        for x in xs {
            acc = acc.wrapping_add(x.0);
        }
        Nat(acc)
    }
    #[inline]
    fn add_assign_slices(dst: &mut [Self], src: &[Self]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            d.0 = d.0.wrapping_add(s.0);
        }
    }
}

/// As implemented, `Nat` arithmetic wraps, so it is the ring `ℤ/2⁶⁴`
/// and negation is two's complement. Delta-based maintenance (repairing
/// an addition gate by `new = old + Σ δ_child` instead of re-summing
/// its fan-in) relies on this: every identity holds mod 2⁶⁴, so results
/// are exact whenever the true counts fit in a `u64`.
impl Ring for Nat {
    fn neg(&self) -> Self {
        Nat(self.0.wrapping_neg())
    }
    fn sub(&self, rhs: &Self) -> Self {
        Nat(self.0.wrapping_sub(rhs.0))
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The ring of integers `(ℤ, +, ·)` on `i64`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Int(pub i64);

impl Semiring for Int {
    const ORDER_INSENSITIVE_ADD: bool = true;

    fn zero() -> Self {
        Int(0)
    }
    fn one() -> Self {
        Int(1)
    }
    fn add(&self, rhs: &Self) -> Self {
        Int(self.0.wrapping_add(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        Int(self.0.wrapping_mul(rhs.0))
    }
    fn is_zero(&self) -> bool {
        self.0 == 0
    }
    fn is_one(&self) -> bool {
        self.0 == 1
    }
    #[inline]
    fn sum_slice(xs: &[Self]) -> Self {
        let mut acc = 0i64;
        for x in xs {
            acc = acc.wrapping_add(x.0);
        }
        Int(acc)
    }
    #[inline]
    fn add_assign_slices(dst: &mut [Self], src: &[Self]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            d.0 = d.0.wrapping_add(s.0);
        }
    }
}

impl Ring for Int {
    fn neg(&self) -> Self {
        Int(self.0.wrapping_neg())
    }
    fn sub(&self, rhs: &Self) -> Self {
        Int(self.0.wrapping_sub(rhs.0))
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Exact rationals `(ℚ, +, ·)`: an `i64/i64` fraction kept in lowest terms
/// with a positive denominator. Intermediate products use `i128`; if the
/// reduced result does not fit `i64` the operation panics with a clear
/// message (exactness over silent error, per the design notes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rat {
    num: i64,
    den: i64,
}

impl Rat {
    /// Construct `num/den`, normalizing sign and reducing by the gcd.
    ///
    /// # Panics
    /// Panics if `den == 0` or the reduced fraction overflows `i64`.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "Rat denominator must be nonzero");
        Self::reduce(num as i128, den as i128)
    }

    /// The integer `n` as a rational.
    pub fn int(n: i64) -> Self {
        Rat { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> i64 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i64 {
        self.den
    }

    /// Approximate value as `f64`.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "division by zero rational");
        Self::reduce(self.den as i128, self.num as i128)
    }

    fn reduce(num: i128, den: i128) -> Self {
        debug_assert!(den != 0);
        let g = gcd_i128(num.unsigned_abs(), den.unsigned_abs()) as i128;
        let (mut n, mut d) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if d < 0 {
            n = -n;
            d = -d;
        }
        let num = i64::try_from(n).expect("Rat overflow: numerator exceeds i64");
        let den = i64::try_from(d).expect("Rat overflow: denominator exceeds i64");
        Rat { num, den }
    }
}

fn gcd_i128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Semiring for Rat {
    fn zero() -> Self {
        Rat { num: 0, den: 1 }
    }
    fn one() -> Self {
        Rat { num: 1, den: 1 }
    }
    fn add(&self, rhs: &Self) -> Self {
        let n = self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128;
        let d = self.den as i128 * rhs.den as i128;
        Self::reduce(n, d)
    }
    fn mul(&self, rhs: &Self) -> Self {
        let n = self.num as i128 * rhs.num as i128;
        let d = self.den as i128 * rhs.den as i128;
        Self::reduce(n, d)
    }
    fn is_zero(&self) -> bool {
        self.num == 0
    }
    fn is_one(&self) -> bool {
        self.num == 1 && self.den == 1
    }
}

impl Ring for Rat {
    fn neg(&self) -> Self {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// The finite ring `ℤ/m` for a runtime modulus `m ≥ 1`.
///
/// The modulus is part of the *value* (checked on every operation) rather
/// than the type, so that query plans can carry mixed moduli; operations
/// between mismatched moduli panic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Mod {
    value: u64,
    modulus: u64,
}

/// Default modulus used by `Mod::zero()`/`Mod::one()` before any
/// data-carrying element fixes the modulus. Chosen prime and small.
const DEFAULT_MODULUS: u64 = 5;

impl Mod {
    /// `value mod m`. Panics if `m == 0`.
    pub fn new(value: u64, modulus: u64) -> Self {
        assert!(modulus > 0, "modulus must be positive");
        Mod {
            value: value % modulus,
            modulus,
        }
    }

    /// The residue in `0..m`.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The modulus `m`.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    fn join(&self, rhs: &Self) -> u64 {
        // Identity elements are polymorphic in the modulus: adopt the other
        // operand's modulus when one side is a bare identity constant.
        if self.modulus == rhs.modulus {
            self.modulus
        } else if self.modulus == DEFAULT_MODULUS {
            rhs.modulus
        } else if rhs.modulus == DEFAULT_MODULUS {
            self.modulus
        } else {
            panic!("modulus mismatch: {} vs {}", self.modulus, rhs.modulus);
        }
    }
}

impl Semiring for Mod {
    // Uniform-modulus residue addition is exact word arithmetic; mixed
    // moduli never arise from a single compiled query (all constants and
    // inputs share one `m`), and `sum_slice` falls back to the canonical
    // fold when they do.
    const ORDER_INSENSITIVE_ADD: bool = true;

    fn zero() -> Self {
        Mod::new(0, DEFAULT_MODULUS)
    }
    fn one() -> Self {
        Mod::new(1, DEFAULT_MODULUS)
    }
    fn add(&self, rhs: &Self) -> Self {
        let m = self.join(rhs);
        Mod::new((self.value + rhs.value) % m, m)
    }
    #[inline]
    fn sum_slice(xs: &[Self]) -> Self {
        let Some(first) = xs.first() else {
            return Self::zero();
        };
        let m = first.modulus;
        if xs.iter().any(|x| x.modulus != m) {
            // Mixed moduli: defer to the canonical fold, whose pairwise
            // `join` handles identity-modulus adoption (and panics on a
            // genuine mismatch exactly like the scalar path would).
            return crate::traits::lane_sum_slice(xs);
        }
        let mut acc = 0u64;
        for x in xs {
            acc = (acc + x.value) % m;
        }
        Mod::new(acc, m)
    }
    fn mul(&self, rhs: &Self) -> Self {
        let m = self.join(rhs);
        Mod::new((self.value * rhs.value) % m, m)
    }
    fn is_zero(&self) -> bool {
        self.value == 0
    }
    fn is_one(&self) -> bool {
        self.value == 1
    }
}

impl Ring for Mod {
    fn neg(&self) -> Self {
        Mod::new((self.modulus - self.value) % self.modulus, self.modulus)
    }
}

impl FiniteSemiring for Mod {
    fn enumerate() -> Vec<Self> {
        (0..DEFAULT_MODULUS)
            .map(|v| Mod::new(v, DEFAULT_MODULUS))
            .collect()
    }
    fn index_of(&self) -> usize {
        self.value as usize
    }
    fn cardinality() -> usize {
        DEFAULT_MODULUS as usize
    }
}

impl fmt::Display for Mod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (mod {})", self.value, self.modulus)
    }
}

/// Approximate reals `(ℝ, +, ·)` on `f64`.
///
/// Strictly speaking floating-point addition is not associative, so `F64`
/// violates the semiring laws at the ulp level; it is provided for
/// PageRank-style workloads (Example 9) where the paper's exact `ℚ` would
/// overflow. Equality is exact bit equality; the differential tests that
/// use `F64` compare with a tolerance instead.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct F64(pub f64);

impl Semiring for F64 {
    fn zero() -> Self {
        F64(0.0)
    }
    fn one() -> Self {
        F64(1.0)
    }
    fn add(&self, rhs: &Self) -> Self {
        F64(self.0 + rhs.0)
    }
    fn mul(&self, rhs: &Self) -> Self {
        F64(self.0 * rhs.0)
    }
}

impl Ring for F64 {
    fn neg(&self) -> Self {
        F64(-self.0)
    }
    fn sub(&self, rhs: &Self) -> Self {
        F64(self.0 - rhs.0)
    }
}

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_is_existential() {
        assert_eq!(Bool(false).add(&Bool(true)), Bool(true));
        assert_eq!(Bool(true).mul(&Bool(false)), Bool(false));
        assert!(Bool::zero().is_zero() && Bool::one().is_one());
    }

    #[test]
    fn rat_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::zero());
    }

    #[test]
    fn rat_arithmetic() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half.add(&third), Rat::new(5, 6));
        assert_eq!(half.mul(&third), Rat::new(1, 6));
        assert_eq!(half.sub(&half), Rat::zero());
        assert_eq!(half.recip(), Rat::int(2));
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn rat_zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn mod_ring_wraps() {
        let m = |v| Mod::new(v, 5);
        assert_eq!(m(3).add(&m(4)), m(2));
        assert_eq!(m(3).mul(&m(4)), m(2));
        assert_eq!(m(3).neg(), m(2));
        assert_eq!(m(0).neg(), m(0));
    }

    #[test]
    fn mod_identity_adopts_modulus() {
        let x = Mod::new(6, 7);
        assert_eq!(Mod::zero().add(&x), x);
        assert_eq!(Mod::one().mul(&x), x);
    }

    #[test]
    #[should_panic(expected = "modulus mismatch")]
    fn mod_mismatch_panics() {
        let _ = Mod::new(1, 3).add(&Mod::new(1, 7));
    }

    #[test]
    fn finite_indexing_roundtrips() {
        for (i, x) in Bool::enumerate().into_iter().enumerate() {
            assert_eq!(x.index_of(), i);
        }
        for (i, x) in Mod::enumerate().into_iter().enumerate() {
            assert_eq!(x.index_of(), i);
        }
    }
}
