//! Curve-front analysis helpers.
//!
//! Used by the ablation experiments (E5/E7/E8) to compare the quality of
//! whole non-inferior fronts rather than single best points, and by tests
//! that need a quantitative "how much better" answer.

use merlin_tech::units::ps_max;

use crate::curve::Curve;
use crate::point::CurvePoint;

/// Summary statistics of a curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurveStats {
    /// Number of points.
    pub len: usize,
    /// Best (maximum) required time.
    pub best_req: f64,
    /// Smallest area on the front.
    pub min_area: u64,
    /// Largest area on the front.
    pub max_area: u64,
    /// Smallest load on the front (in quantized units).
    pub min_load: u32,
}

/// Computes summary statistics; `None` for an empty curve.
pub fn stats(curve: &Curve) -> Option<CurveStats> {
    if curve.is_empty() {
        return None;
    }
    Some(CurveStats {
        len: curve.len(),
        best_req: curve.iter().map(|p| p.req).fold(f64::NEG_INFINITY, ps_max),
        min_area: curve.iter().map(|p| p.area).min().expect("non-empty"),
        max_area: curve.iter().map(|p| p.area).max().expect("non-empty"),
        min_load: curve
            .iter()
            .map(|p| p.load.units())
            .min()
            .expect("non-empty"),
    })
}

/// Fraction of `b`'s points that are dominated (Definition 6, non-strict)
/// by some point of `a`. `1.0` means `a`'s front completely covers `b`'s;
/// symmetric values near `1.0` in both directions mean the fronts are
/// equivalent — the property the paper claims for different
/// candidate-location strategies.
pub fn coverage(a: &Curve, b: &Curve) -> f64 {
    if b.is_empty() {
        return 1.0;
    }
    let covered = b
        .iter()
        .filter(|q| a.iter().any(|p| p.dominates(q)))
        .count();
    covered as f64 / b.len() as f64
}

/// The best required time achievable from `curve` under an area budget,
/// sampled at `samples` evenly spaced budgets between the front's min and
/// max area — a 1-D "quality profile" that two fronts can be compared on.
pub fn req_profile(curve: &Curve, samples: usize) -> Vec<(u64, f64)> {
    let Some(st) = stats(curve) else {
        return Vec::new();
    };
    let samples = samples.max(2);
    (0..samples)
        .map(|i| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the quotient is at most max_area - min_area, a u64"
            )]
            let budget = st.min_area
                + ((st.max_area - st.min_area) as u128 * i as u128 / (samples - 1) as u128) as u64;
            let best = curve
                .iter()
                .filter(|p| p.area <= budget)
                .map(|p| p.req)
                .fold(f64::NEG_INFINITY, ps_max);
            (budget, best)
        })
        .collect()
}

/// Points of `a` that are *strictly better* than everything in `b`
/// (dominate some point of `b` without being dominated themselves) —
/// a quick qualitative diff between two fronts.
pub fn strict_improvements<'a>(a: &'a Curve, b: &Curve) -> Vec<&'a CurvePoint> {
    a.iter()
        .filter(|p| b.iter().any(|q| p.dominates(q)) && !b.iter().any(|q| q.dominates(p)))
        .collect()
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test indices are small")]
mod tests {
    use super::*;
    use crate::arena::ProvId;

    fn curve(pts: &[(u32, f64, u64)]) -> Curve {
        let mut c = Curve::new();
        for (i, (l, r, a)) in pts.iter().enumerate() {
            c.push(CurvePoint::new(*l, *r, *a, ProvId::new(i as u32)));
        }
        c.prune();
        c
    }

    #[test]
    fn stats_basics() {
        let c = curve(&[(10, 100.0, 5), (5, 60.0, 0)]);
        let s = stats(&c).expect("curve is non-empty");
        assert_eq!(s.len, 2);
        assert_eq!(s.best_req, 100.0);
        assert_eq!(s.min_area, 0);
        assert_eq!(s.max_area, 5);
        assert_eq!(s.min_load, 5);
        assert!(stats(&Curve::new()).is_none());
    }

    #[test]
    fn coverage_detects_equivalence_and_gaps() {
        let a = curve(&[(10, 100.0, 5), (5, 60.0, 0)]);
        let b = curve(&[(10, 90.0, 5), (5, 50.0, 0)]);
        assert_eq!(coverage(&a, &b), 1.0); // a dominates everything in b
        assert!(coverage(&b, &a) < 1.0);
        assert_eq!(coverage(&a, &a), 1.0); // non-strict: self-coverage
        assert_eq!(coverage(&a, &Curve::new()), 1.0);
    }

    #[test]
    fn req_profile_is_monotone_in_budget() {
        let c = curve(&[(10, 100.0, 50), (10, 80.0, 20), (10, 60.0, 0)]);
        let prof = req_profile(&c, 6);
        assert_eq!(prof.len(), 6);
        for w in prof.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(prof.last().expect("profile is non-empty").1, 100.0);
    }

    #[test]
    fn strict_improvements_found() {
        let a = curve(&[(10, 100.0, 5)]);
        let b = curve(&[(10, 90.0, 5)]);
        assert_eq!(strict_improvements(&a, &b).len(), 1);
        assert!(strict_improvements(&b, &a).is_empty());
    }
}
