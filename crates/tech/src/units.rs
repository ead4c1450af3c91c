//! Unit conventions.
//!
//! | Quantity     | Representation                | Unit            |
//! |--------------|-------------------------------|-----------------|
//! | distance     | `i64` / `u64`                 | λ (0.2 µm)      |
//! | capacitance  | [`Cap`] (`u32`)               | deci-femtofarad (0.1 fF) |
//! | resistance   | `f64`                         | Ω               |
//! | time         | [`PsTime`] = `f64`            | ps              |
//! | area         | `u64`                         | λ²              |
//!
//! Capacitance is **quantized** to 0.1 fF. This is the "individual
//! capacitive values are polynomially bounded integers" premise of the
//! paper's Lemma 1 / Theorems 2, 5, 6: the number of distinct load values
//! `q` that can appear on a solution curve is bounded, which is what makes
//! the dynamic programs pseudo-polynomial rather than exponential.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Time in picoseconds.
pub type PsTime = f64;

/// Total ordering for delay/required-time values.
///
/// All delay comparisons in the workspace go through this helper (the
/// root `clippy.toml` disallows a raw `f64::total_cmp`): it
/// gives the IEEE-754 `totalOrder`, so sorting and `max_by`/`min_by`
/// never see an incomparable pair, and in
/// debug/`invariant-checks` builds it asserts that no NaN reached a
/// comparison — a NaN required time silently corrupts curve pruning.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "this is the one sanctioned delay comparison"
)]
pub fn ps_cmp(a: PsTime, b: PsTime) -> Ordering {
    #[cfg(any(debug_assertions, feature = "invariant-checks"))]
    {
        assert!(
            !a.is_nan() && !b.is_nan(),
            "NaN delay in comparison ({a} vs {b})"
        );
    }
    a.total_cmp(&b)
}

/// The larger of two delay values under [`ps_cmp`].
#[inline]
pub fn ps_max(a: PsTime, b: PsTime) -> PsTime {
    match ps_cmp(a, b) {
        Ordering::Less => b,
        _ => a,
    }
}

/// The smaller of two delay values under [`ps_cmp`].
#[inline]
pub fn ps_min(a: PsTime, b: PsTime) -> PsTime {
    match ps_cmp(a, b) {
        Ordering::Greater => b,
        _ => a,
    }
}

/// Ω · fF expressed in picoseconds (1 Ω·fF = 10⁻³ ps).
#[inline]
pub fn rc_ps(r_ohm: f64, c_ff: f64) -> PsTime {
    r_ohm * c_ff * 1e-3
}

/// Quantized capacitance in deci-femtofarads (1 unit = 0.1 fF).
///
/// `Cap` is a thin newtype over `u32`: additive, ordered and hashable, so it
/// can serve directly as the load axis of solution curves.
///
/// # Examples
///
/// ```
/// use merlin_tech::units::Cap;
///
/// let a = Cap::from_ff(1.5);
/// let b = Cap::from_ff(0.2);
/// assert_eq!((a + b).to_ff(), 1.7);
/// assert!(a > b);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cap(pub u32);

impl Cap {
    /// Zero capacitance.
    pub const ZERO: Cap = Cap(0);

    /// Quantizes a femtofarad value (rounding to nearest unit).
    ///
    /// Negative inputs saturate at zero.
    pub fn from_ff(ff: f64) -> Cap {
        Cap((ff * 10.0).round().max(0.0) as u32)
    }

    /// The capacitance in femtofarads.
    pub fn to_ff(self) -> f64 {
        self.0 as f64 / 10.0
    }

    /// Raw quantized units (deci-femtofarads).
    pub fn units(self) -> u32 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Cap) -> Cap {
        Cap(self.0.saturating_sub(other.0))
    }
}

impl Add for Cap {
    type Output = Cap;
    fn add(self, rhs: Cap) -> Cap {
        Cap(self.0 + rhs.0)
    }
}

impl AddAssign for Cap {
    fn add_assign(&mut self, rhs: Cap) {
        self.0 += rhs.0;
    }
}

impl Sub for Cap {
    type Output = Cap;
    fn sub(self, rhs: Cap) -> Cap {
        Cap(self.0 - rhs.0)
    }
}

impl Sum for Cap {
    fn sum<I: Iterator<Item = Cap>>(iter: I) -> Cap {
        iter.fold(Cap::ZERO, Add::add)
    }
}

impl fmt::Display for Cap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}fF", self.to_ff())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_round_trips_at_unit_resolution() {
        for ff in [0.0, 0.1, 1.0, 3.7, 120.2] {
            assert!((Cap::from_ff(ff).to_ff() - ff).abs() < 0.05);
        }
    }

    #[test]
    fn negative_saturates() {
        assert_eq!(Cap::from_ff(-3.0), Cap::ZERO);
        assert_eq!(Cap(5).saturating_sub(Cap(9)), Cap::ZERO);
    }

    #[test]
    fn arithmetic_and_sum() {
        let caps = [Cap::from_ff(1.0), Cap::from_ff(2.0), Cap::from_ff(3.0)];
        let total: Cap = caps.iter().copied().sum();
        assert_eq!(total, Cap::from_ff(6.0));
    }

    #[test]
    fn rc_unit_sanity() {
        // 1 kΩ driving 100 fF -> 100 ps.
        assert!((rc_ps(1000.0, 100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats_ff() {
        assert_eq!(Cap::from_ff(2.5).to_string(), "2.50fF");
    }

    #[test]
    fn ps_cmp_is_total_on_ordinary_values() {
        assert_eq!(ps_cmp(1.0, 2.0), Ordering::Less);
        assert_eq!(ps_cmp(2.0, 1.0), Ordering::Greater);
        assert_eq!(ps_cmp(3.5, 3.5), Ordering::Equal);
        assert_eq!(ps_cmp(f64::NEG_INFINITY, 0.0), Ordering::Less);
        assert_eq!(ps_max(1.0, 2.0), 2.0);
        assert_eq!(ps_min(1.0, 2.0), 1.0);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "invariant-checks"))]
    #[should_panic(expected = "NaN delay")]
    fn ps_cmp_rejects_nan_in_checked_builds() {
        let _ = ps_cmp(f64::NAN, 0.0);
    }
}
