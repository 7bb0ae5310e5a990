//! Conversions between seconds and the simulator's picosecond time base.
//!
//! The execution engines (`oil-sim` and `oil-rt`) run on an integer
//! picosecond clock ([`Picos`]), while the analyses upstream work in exact
//! rational seconds. The conversions here are exact until the final
//! quantisation onto the picosecond grid and **checked**: an overflow or a
//! demand for exactness that the value cannot meet is an error, never a
//! silently wrong number. The historical `f64` helpers
//! ([`crate::picos`]/[`crate::seconds`]) survive as convenience wrappers
//! around the rational path.

use crate::network::Picos;
use oil_dataflow::Rational;

/// Picoseconds per second (`10^12`).
pub const PICOS_PER_SECOND: i128 = 1_000_000_000_000;

/// Why a time value could not be converted to the picosecond grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeError {
    /// The value in picoseconds does not fit the 128-bit intermediate or the
    /// 64-bit [`Picos`] result.
    Overflow,
    /// Simulation time is non-negative; a negative duration has no place on
    /// the clock.
    Negative,
    /// The exact conversion was requested but the value is not an integer
    /// number of picoseconds.
    Inexact,
}

impl std::fmt::Display for TimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeError::Overflow => write!(f, "time value overflows the picosecond clock"),
            TimeError::Negative => write!(f, "time value is negative"),
            TimeError::Inexact => write!(f, "time value is not a whole number of picoseconds"),
        }
    }
}

impl std::error::Error for TimeError {}

/// Convert exact rational seconds to picoseconds, requiring the result to be
/// a non-negative integer on the picosecond grid.
pub fn picos_exact(seconds: Rational) -> Result<Picos, TimeError> {
    let ps = seconds
        .checked_mul(Rational::from_int(PICOS_PER_SECOND))
        .ok_or(TimeError::Overflow)?;
    if ps.is_negative() {
        return Err(TimeError::Negative);
    }
    if ps.denom() != 1 {
        return Err(TimeError::Inexact);
    }
    Picos::try_from(ps.numer()).map_err(|_| TimeError::Overflow)
}

/// Convert exact rational seconds to the nearest picosecond (ties round up,
/// matching `f64::round` on the non-negative range), erroring on negative
/// values and overflow.
pub fn picos_nearest(seconds: Rational) -> Result<Picos, TimeError> {
    let ps = seconds
        .checked_mul(Rational::from_int(PICOS_PER_SECOND))
        .ok_or(TimeError::Overflow)?;
    if ps.is_negative() {
        return Err(TimeError::Negative);
    }
    let (num, den) = (ps.numer(), ps.denom());
    let q = num / den;
    let r = num % den;
    // Round half up without computing `2 * r` (which could overflow `i128`
    // for denominators near the type's limit).
    let rounded = if r >= den - r { q + 1 } else { q };
    Picos::try_from(rounded).map_err(|_| TimeError::Overflow)
}

/// Convert picoseconds back to exact rational seconds (always representable:
/// every `u64` fits an `i128` numerator).
pub fn seconds_exact(p: Picos) -> Rational {
    Rational::new(p as i128, PICOS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_conversions() {
        assert_eq!(picos_exact(Rational::new(1, 1000)), Ok(1_000_000_000));
        assert_eq!(picos_exact(Rational::new(1, 6_400_000)), Ok(156_250));
        assert_eq!(picos_exact(Rational::ZERO), Ok(0));
        // 1/3 s is not an integer number of picoseconds.
        assert_eq!(picos_exact(Rational::new(1, 3)), Err(TimeError::Inexact));
        assert_eq!(
            picos_exact(Rational::new(-1, 1000)),
            Err(TimeError::Negative)
        );
        assert_eq!(
            picos_exact(Rational::from_int(i128::MAX / 2)),
            Err(TimeError::Overflow)
        );
    }

    #[test]
    fn nearest_rounds_half_up() {
        // 1/3 s = 333_333_333_333.33.. ps rounds down.
        assert_eq!(picos_nearest(Rational::new(1, 3)), Ok(333_333_333_333));
        // 2/3 s = 666_666_666_666.66.. ps rounds up.
        assert_eq!(picos_nearest(Rational::new(2, 3)), Ok(666_666_666_667));
        // Exactly half a picosecond rounds up.
        assert_eq!(picos_nearest(Rational::new(1, 2 * PICOS_PER_SECOND)), Ok(1));
        assert_eq!(
            picos_nearest(Rational::new(-1, 3)),
            Err(TimeError::Negative)
        );
    }

    /// Every value in `0..=max` among 0, 1, `2^k − 1`, `2^k`, `2^k + 1`,
    /// `max − 1` and `max`, then 4 096 values spread over `0..max` by a
    /// Weyl sequence (multiples of the 64-bit golden-ratio constant).
    fn picos_cases(max: u64) -> Vec<u64> {
        let powers = (1..64).flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        let mut cases: Vec<u64> = [0, 1, max - 1, max]
            .into_iter()
            .chain(powers)
            .filter(|&p| p <= max)
            .collect();
        cases.sort_unstable();
        cases.dedup();
        cases.extend((1..=4_096u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % max));
        cases
    }

    /// Exact round trip over the full `Picos` range: the rational path
    /// loses nothing.
    #[test]
    fn rational_round_trip_is_lossless() {
        let cases = picos_cases(u64::MAX);
        for &p in &cases {
            assert_eq!(picos_exact(seconds_exact(p)), Ok(p), "{p}");
            assert_eq!(picos_nearest(seconds_exact(p)), Ok(p), "{p}");
        }
        assert_eq!(cases.len(), 191 + 4_096);
    }

    /// The f64 convenience wrappers round-trip wherever `f64` can still
    /// resolve single picoseconds: below 2^12 seconds the unit in the
    /// last place of `p / 1e12` is under one picosecond, so
    /// nearest-rounding recovers `p` exactly. (Beyond that the loss is
    /// inherent to `f64` — the rational path above has no such bound.)
    #[test]
    fn f64_wrappers_round_trip_at_picosecond_resolution() {
        let cases = picos_cases(4_096_000_000_000_000 - 1);
        for &p in &cases {
            assert_eq!(crate::picos(crate::seconds(p)), p, "{p}");
        }
        assert_eq!(cases.len(), 155 + 4_096);
    }
}
