//! Exact rational arithmetic.
//!
//! Repetition vectors, transfer-rate ratios, rate-conversion factors (such
//! as the PAL decoder's 10/16 resampling factor) and — since the
//! exact-rational refactor — every rate, offset and slack inside the CTA
//! analyses are computed exactly; floating point would accumulate error and
//! make consistency checks flaky. This is a small self-contained
//! implementation over `i128` with automatic normalisation.
//!
//! All arithmetic is *checked*: an overflowing operation panics with a clear
//! message instead of silently wrapping, and the `checked_*` methods expose
//! the fallible versions. `f64` appears only at the API boundary, through
//! [`Rational::from_f64_lossless`] (a rational that round-trips to the same
//! double) and [`Rational::to_f64`] (the closest double). Source literals
//! never pass through either: the front end reads them as exact decimals.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Greatest common divisor of two non-negative integers.
pub fn gcd(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two positive integers.
pub fn lcm(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Construct `num / den`, normalising sign and common factors.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        Rational::checked_new(num, den).expect("rational with zero denominator")
    }

    /// Construct `num / den`, returning `None` when `den == 0`.
    pub fn checked_new(num: i128, den: i128) -> Option<Self> {
        if den == 0 {
            return None;
        }
        let sign = if (num < 0) != (den < 0) && num != 0 {
            -1
        } else {
            1
        };
        let (num, den) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(num, den).max(1);
        Some(Rational {
            num: sign * (num / g) as i128,
            den: (den / g) as i128,
        })
    }

    /// Construct from an integer.
    pub const fn from_int(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }

    /// The numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// The value as `f64` (`num / den` in floating point; it gives back `x`
    /// for a value made by [`Rational::from_f64_lossless`]`(x)`). This is
    /// the only place analysis results are allowed to degrade to floating
    /// point, and it happens after the exact algorithms have finished.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Convert a finite `f64` to a rational that rounds back to it, or `None`
    /// for NaN/infinite inputs (and for values too extreme for `i128`).
    ///
    /// The result is *not* in general the double's exact value. It is the
    /// decimal `n / 10^k` with the fewest fraction digits (`k ≤ 18`,
    /// `|n| ≤ 2^53`, `n` found as `x · 10^k` in `f64`) whose closest double
    /// is `x`: `1e-6` becomes `1/10^6`, `6.4e6` becomes `6400000`,
    /// which is what a caller who wrote those constants meant. Only when no
    /// such decimal exists is the exact dyadic value of the double returned:
    /// `4.1 * 1e6` rounds to `4099999.9999999995`, whose shortest decimal
    /// needs 17 significant digits (more than 2^53 holds), so it becomes
    /// `8804682956799999/2147483648`. In every case `result.to_f64() == x`.
    pub fn from_f64_lossless(x: f64) -> Option<Rational> {
        if !x.is_finite() {
            return None;
        }
        if x == 0.0 {
            return Some(Rational::ZERO);
        }
        // Preferred path: a denominator 10^k with an exactly-representable
        // scaled numerator.
        let mut den: i128 = 1;
        for _ in 0..=18 {
            let scaled = x * den as f64;
            if scaled.fract() == 0.0 && scaled.abs() <= 9_007_199_254_740_992.0 {
                let candidate = Rational::new(scaled as i128, den);
                if candidate.to_f64() == x {
                    return Some(candidate);
                }
            }
            den = den.checked_mul(10)?;
        }
        // Fallback: exact dyadic decomposition of the IEEE-754 value.
        let bits = x.to_bits();
        let sign: i128 = if bits >> 63 == 1 { -1 } else { 1 };
        let biased_exp = ((bits >> 52) & 0x7FF) as i64;
        let fraction = (bits & ((1u64 << 52) - 1)) as i128;
        let (mantissa, exp) = if biased_exp == 0 {
            (fraction, -1074i64) // subnormal
        } else {
            (fraction | (1i128 << 52), biased_exp - 1075)
        };
        let value = if exp >= 0 {
            if exp >= 74 {
                return None; // sign * mantissa * 2^exp would overflow i128
            }
            Rational::from_int(sign * (mantissa << exp))
        } else {
            if exp <= -126 {
                return None; // denominator 2^(-exp) would overflow i128
            }
            Rational::new(sign * mantissa, 1i128 << (-exp))
        };
        debug_assert!(value.to_f64() == x);
        Some(value)
    }

    /// As [`Rational::from_f64_lossless`], panicking on NaN/infinite input.
    pub fn from_f64(x: f64) -> Rational {
        Rational::from_f64_lossless(x)
            .unwrap_or_else(|| panic!("{x} has no exact rational representation"))
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// True if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// The absolute value.
    pub fn abs(&self) -> Self {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> i128 {
        if self.num >= 0 {
            (self.num + self.den - 1) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            (self.num - self.den + 1) / self.den
        }
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition; `None` on `i128` overflow.
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        // Work over the lcm of the denominators to keep intermediates small.
        let g = gcd(self.den as u128, rhs.den as u128) as i128;
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Rational::checked_new(num, den)
    }

    /// Checked subtraction; `None` on `i128` overflow.
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        self.checked_add(-rhs)
    }

    /// Checked multiplication; `None` on `i128` overflow.
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num.unsigned_abs(), rhs.den as u128).max(1) as i128;
        let g2 = gcd(rhs.num.unsigned_abs(), self.den as u128).max(1) as i128;
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Rational::checked_new(num, den)
    }

    /// Checked division; `None` on `i128` overflow or division by zero.
    pub fn checked_div(self, rhs: Rational) -> Option<Rational> {
        if rhs.num == 0 {
            return None;
        }
        self.checked_mul(Rational::new(rhs.den, rhs.num))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs)
            .expect("rational addition overflowed i128")
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(rhs)
            .expect("rational subtraction overflowed i128")
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs)
            .expect("rational multiplication overflowed i128")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "division by zero rational");
        self.checked_div(rhs)
            .expect("rational division overflowed i128")
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Fast path: cross-reduce, then cross-multiply when that fits i128.
        let g_num = gcd(self.num.unsigned_abs(), other.num.unsigned_abs()).max(1) as i128;
        let g_den = gcd(self.den as u128, other.den as u128).max(1) as i128;
        let lhs = (self.num / g_num).checked_mul(other.den / g_den);
        let rhs = (other.num / g_num).checked_mul(self.den / g_den);
        if let (Some(l), Some(r)) = (lhs, rhs) {
            return l.cmp(&r);
        }
        // Overflow path: exact continued-fraction comparison. Compare the
        // integer parts; when they tie, the order of the fractional parts is
        // the *reverse* of the order of their reciprocals, so swap and
        // recurse on (den, remainder) — the Euclidean algorithm, which
        // terminates and never overflows. This keeps `cmp` consistent with
        // `Eq` for every representable value, with no approximation.
        let (mut a, mut b) = (self.num, self.den);
        let (mut c, mut d) = (other.num, other.den);
        let mut flipped = false;
        loop {
            let (q1, r1) = (a.div_euclid(b), a.rem_euclid(b));
            let (q2, r2) = (c.div_euclid(d), c.rem_euclid(d));
            let ord = match q1.cmp(&q2) {
                Ordering::Equal => match (r1 == 0, r2 == 0) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Less,
                    (false, true) => Ordering::Greater,
                    (false, false) => {
                        // cmp(r1/b, r2/d) == reverse(cmp(b/r1, d/r2)):
                        // reciprocals of positive fractions reverse the order.
                        (a, b, c, d) = (b, r1, d, r2);
                        flipped = !flipped;
                        continue;
                    }
                },
                unequal => unequal,
            };
            return if flipped { ord.reverse() } else { ord };
        }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n as i128)
    }
}

impl From<u64> for Rational {
    fn from(n: u64) -> Self {
        Rational::from_int(n as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
    }

    #[test]
    fn construction_normalises() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, 4), Rational::new(1, -2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(0, 7), Rational::ZERO);
        assert_eq!(Rational::new(6, 3).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn checked_new_rejects_zero_denominator() {
        assert_eq!(Rational::checked_new(1, 0), None);
        assert_eq!(Rational::checked_new(3, -6), Some(Rational::new(-1, 2)));
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(3, 2);
        let b = Rational::new(2, 3);
        assert_eq!(a * b, Rational::ONE);
        assert_eq!(a + b, Rational::new(13, 6));
        assert_eq!(a - b, Rational::new(5, 6));
        assert_eq!(a / b, Rational::new(9, 4));
        assert_eq!(-a, Rational::new(-3, 2));
        assert_eq!(a.recip(), b);
        assert_eq!(Rational::ONE.recip(), Rational::ONE);
    }

    #[test]
    fn assign_operators() {
        let mut x = Rational::new(1, 2);
        x += Rational::new(1, 3);
        assert_eq!(x, Rational::new(5, 6));
        x -= Rational::new(1, 6);
        assert_eq!(x, Rational::new(2, 3));
    }

    #[test]
    fn checked_ops_report_overflow() {
        let huge = Rational::from_int(i128::MAX / 2 + 1);
        assert_eq!(huge.checked_add(huge), None);
        assert_eq!(huge.checked_mul(Rational::from_int(3)), None);
        assert_eq!(huge.checked_sub(-huge), None);
        // Near-limit values that *can* be represented still work.
        assert_eq!(
            huge.checked_add(Rational::from_int(-1)),
            Some(Rational::from_int(i128::MAX / 2))
        );
        // Division by zero is None, not a panic, in the checked API.
        assert_eq!(Rational::ONE.checked_div(Rational::ZERO), None);
    }

    #[test]
    fn checked_mul_cross_reduces() {
        // Naive num*num would overflow; cross-reduction keeps it exact.
        let a = Rational::new(i128::MAX / 4, 3);
        let b = Rational::new(3, i128::MAX / 4);
        assert_eq!(a.checked_mul(b), Some(Rational::ONE));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(Rational::new(-1, 2) < Rational::ZERO);
    }

    #[test]
    fn ordering_survives_large_components() {
        let big = Rational::new(i128::MAX / 3, i128::MAX / 5);
        let small = Rational::new(1, 7);
        assert!(small < big);
        assert!(big > small);
        assert!(-big < small);
    }

    #[test]
    fn ordering_is_exact_even_when_cross_multiplication_overflows() {
        // Both cross-products overflow i128; the continued-fraction path must
        // still order the values exactly, never collapsing unequal values to
        // Equal (the Ord/Eq contract).
        // n/(n-1) decreases towards 1 as n grows, so a (larger n) < b.
        let a = Rational::new(i128::MAX / 2, i128::MAX / 2 - 1);
        let b = Rational::new(i128::MAX / 2 - 2, i128::MAX / 2 - 3);
        assert_ne!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(b.cmp(&a), Ordering::Greater);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        // Mirrored around zero the order reverses.
        assert_eq!((-a).cmp(&-b), Ordering::Greater);
        // And against nearby integers the integer-part comparison decides.
        assert!(a > Rational::ONE);
        assert!(a < Rational::from_int(2));
        // A deep Euclidean descent: consecutive Fibonacci-like ratios close
        // to the golden ratio, denominators near the i128 limit.
        let c = Rational::new(i128::MAX / 3, i128::MAX / 5);
        let d = Rational::new(i128::MAX / 3 - 1, i128::MAX / 5);
        assert_eq!(c.cmp(&d), Ordering::Greater);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(4, 2).ceil(), 2);
        assert_eq!(Rational::new(4, 2).floor(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(10, 16).to_string(), "5/8");
        assert_eq!(Rational::from_int(4).to_string(), "4");
        assert_eq!(Rational::new(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn from_f64_prefers_decimal_denominators() {
        assert_eq!(Rational::from_f64(6.4e6), Rational::from_int(6_400_000));
        assert_eq!(Rational::from_f64(2e-4), Rational::new(1, 5000));
        assert_eq!(Rational::from_f64(0.125), Rational::new(1, 8));
        assert_eq!(Rational::from_f64(-2.5), Rational::new(-5, 2));
        assert_eq!(Rational::from_f64(0.0), Rational::ZERO);
        assert_eq!(
            Rational::from_f64(1e-12),
            Rational::new(1, 1_000_000_000_000)
        );
    }

    #[test]
    fn from_f64_round_trips_exactly() {
        for x in [
            1.0,
            -1.0,
            0.1,
            0.2,
            0.3,
            1e-6,
            2.5e-6,
            1.5e-7,
            6.4e6,
            0.04,
            1.0 / 3.0,
            std::f64::consts::PI,
            123456.789,
            5e-3,
        ] {
            let r = Rational::from_f64(x);
            assert_eq!(r.to_f64(), x, "{x} did not round-trip through {r}");
        }
    }

    #[test]
    fn from_f64_rejects_non_finite() {
        assert_eq!(Rational::from_f64_lossless(f64::NAN), None);
        assert_eq!(Rational::from_f64_lossless(f64::INFINITY), None);
        assert_eq!(Rational::from_f64_lossless(f64::NEG_INFINITY), None);
    }

    #[test]
    fn pal_rate_conversion_factors() {
        // The PAL decoder's conversion chain: 6.4 MHz * 1/25 * 1/8 = 32 kHz
        // and 6.4 MHz * 10/16 = 4 MHz.
        let rf = Rational::from_int(6_400_000);
        let audio = rf * Rational::new(1, 25) * Rational::new(1, 8);
        assert_eq!(audio, Rational::from_int(32_000));
        let video = rf * Rational::new(10, 16);
        assert_eq!(video, Rational::from_int(4_000_000));
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in -1000i128..1000, b in 1i128..1000, c in -1000i128..1000, d in 1i128..1000) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn prop_add_associates(a in -100i128..100, b in 1i128..100, c in -100i128..100, d in 1i128..100, e in -100i128..100, f in 1i128..100) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            let z = Rational::new(e, f);
            prop_assert_eq!((x + y) + z, x + (y + z));
        }

        #[test]
        fn prop_mul_inverse(a in 1i128..1000, b in 1i128..1000) {
            let x = Rational::new(a, b);
            prop_assert_eq!(x * x.recip(), Rational::ONE);
        }

        #[test]
        fn prop_construction_is_normalised(a in -10_000i128..10_000, b in 1i128..10_000) {
            let x = Rational::new(a, b);
            prop_assert!(x.denom() > 0);
            prop_assert_eq!(gcd(x.numer().unsigned_abs(), x.denom() as u128).max(1), 1);
            // Re-normalising is a no-op.
            prop_assert_eq!(Rational::new(x.numer(), x.denom()), x);
        }

        #[test]
        fn prop_ordering_is_total_and_consistent(a in -1000i128..1000, b in 1i128..1000, c in -1000i128..1000, d in 1i128..1000) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            // Antisymmetry and totality.
            match x.cmp(&y) {
                std::cmp::Ordering::Less => prop_assert!(y > x),
                std::cmp::Ordering::Greater => prop_assert!(y < x),
                std::cmp::Ordering::Equal => prop_assert_eq!(x, y),
            }
            // Consistency with subtraction.
            prop_assert_eq!(x < y, (x - y).is_negative());
        }

        #[test]
        fn prop_floor_le_ceil(a in -10_000i128..10_000, b in 1i128..100) {
            let x = Rational::new(a, b);
            prop_assert!(x.floor() <= x.ceil());
            prop_assert!(Rational::from_int(x.floor()) <= x);
            prop_assert!(Rational::from_int(x.ceil()) >= x);
            // floor and ceil agree exactly on integers and differ by 1 otherwise.
            if x.denom() == 1 {
                prop_assert_eq!(x.floor(), x.ceil());
            } else {
                prop_assert_eq!(x.floor() + 1, x.ceil());
            }
        }

        #[test]
        fn prop_to_f64_monotone(a in -1000i128..1000, b in 1i128..1000, c in -1000i128..1000, d in 1i128..1000) {
            let x = Rational::new(a, b);
            let y = Rational::new(c, d);
            if x < y {
                prop_assert!(x.to_f64() <= y.to_f64());
            }
        }
    }
}
