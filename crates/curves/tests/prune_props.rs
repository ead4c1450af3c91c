//! Property tests for the non-inferiority invariants of [`Curve`].
//!
//! These are the contracts the debug-mode invariant checkers
//! (`Curve::debug_check_noninferior`) assert after every curve operator;
//! here they are exercised on randomized inputs so the checkers themselves
//! are cross-validated against the O(s²) reference predicate
//! [`Curve::is_pruned`].

use merlin_curves::{Curve, CurvePoint, ProvId, PrunePolicy};
use merlin_tech::units::ps_cmp;
use merlin_tech::{BufferLibrary, Technology};
use proptest::prelude::*;

type RawPoint = (u32, f64, u32);

/// Every observable field of a point, provenance included — two prune
/// implementations agree only if these sequences are identical.
fn keys(pts: &[CurvePoint]) -> Vec<(u32, u64, u64, usize)> {
    pts.iter()
        .map(|p| (p.load.0, p.req.to_bits(), p.area, p.prov.index()))
        .collect()
}

/// Independent reimplementation of the pre-index prune: the total-order
/// sort (load, area, req desc, provenance) followed by the original
/// BTreeMap staircase sweep with keep-first tie semantics. Written from
/// the spec, not shared with the library, so it can serve as the oracle
/// for the indexed sweep; it is the only copy of the pre-index sweep.
fn oracle_prune(c: &Curve) -> Vec<CurvePoint> {
    use std::collections::BTreeMap;
    let mut pts: Vec<CurvePoint> = c.points().to_vec();
    pts.sort_unstable_by(|a, b| {
        a.load
            .cmp(&b.load)
            .then(a.area.cmp(&b.area))
            .then(ps_cmp(b.req, a.req))
            .then(a.prov.index().cmp(&b.prov.index()))
    });
    let mut stair: BTreeMap<u64, f64> = BTreeMap::new();
    let mut out = Vec::new();
    for p in pts {
        let dominated = stair
            .range(..=p.area)
            .next_back()
            .is_some_and(|(_, &r)| r >= p.req);
        if dominated {
            continue;
        }
        let stale: Vec<u64> = stair
            .range(p.area..)
            .take_while(|(_, &r)| r <= p.req)
            .map(|(&a, _)| a)
            .collect();
        for a in stale {
            stair.remove(&a);
        }
        stair.insert(p.area, p.req);
        out.push(p);
    }
    out
}

/// A xorshift64 stream: cheap, seedable, and identical on every platform,
/// so the fixed oracle inputs below never drift.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// An unpruned curve of `point(0)`, …, `point(n - 1)`, in that order.
fn curve_of(n: u32, mut point: impl FnMut(u32) -> CurvePoint) -> Curve {
    let mut c = Curve::new();
    for i in 0..n {
        c.push(point(i));
    }
    c
}

/// Asserts the indexed prune keeps exactly the oracle's points, in the
/// oracle's order, with the oracle's provenance.
fn assert_matches_oracle(c: &Curve, what: &str) {
    let expect = keys(&oracle_prune(c));
    let mut pruned = c.clone();
    pruned.prune();
    assert_eq!(
        keys(pruned.points()),
        expect,
        "{what}: indexed prune diverged from the oracle"
    );
    assert!(pruned.is_pruned(), "{what}");
}

#[test]
fn indexed_prune_matches_the_oracle_on_the_sized_and_tie_heavy_pool() {
    // DP-shaped size mix: wide value domains, 8 to 2048 points.
    for (i, n) in [8u32, 16, 24, 32, 48, 64, 96, 128, 256, 2048]
        .into_iter()
        .enumerate()
    {
        let mut next = xorshift((7 + i as u64) | 1);
        let c = curve_of(n, |p| {
            CurvePoint::new(
                (next() % 4000) as u32,
                (next() % 100_000) as f64 / 10.0,
                next() % 40_000,
                ProvId::new(p),
            )
        });
        assert_matches_oracle(&c, &format!("sized curve {i} ({n} points)"));
    }
    // Tie-heavy: tiny value domains force duplicate triples and
    // equal-key collisions, where keep-first order decides provenance.
    for i in 0..12u64 {
        let mut next = xorshift((101 + i) | 1);
        let c = curve_of(64, |p| {
            CurvePoint::new(
                (next() % 6) as u32 * 10,
                (next() % 8) as f64 * 0.5,
                next() % 5,
                ProvId::new(p),
            )
        });
        assert_matches_oracle(&c, &format!("tie-heavy curve {i}"));
    }
}

#[test]
fn indexed_prune_matches_the_oracle_over_a_twelve_value_domain() {
    // Up to 120 points whose load, req and area each take one of 12
    // values: exact duplicates and load ties on almost every curve.
    let mut next = xorshift(0x9e37_79b9);
    for round in 0..200 {
        let n = (next() % 120) as u32;
        let c = curve_of(n, |p| {
            CurvePoint::new(
                (next() % 12) as u32,
                (next() % 12) as f64,
                next() % 12,
                ProvId::new(p),
            )
        });
        assert_matches_oracle(&c, &format!("round {round}"));
    }
}

fn curve_from(points: &[RawPoint]) -> Curve {
    let mut c = Curve::new();
    for (i, &(load, req, area)) in points.iter().enumerate() {
        c.push(CurvePoint::new(
            load,
            req,
            area as u64,
            ProvId::new(i as u32),
        ));
    }
    c
}

fn triples(c: &Curve) -> Vec<(u64, f64, u64)> {
    c.iter().map(|p| (p.load.0 as u64, p.req, p.area)).collect()
}

fn raw_points() -> impl Strategy<Value = Vec<RawPoint>> {
    prop::collection::vec((1u32..400, 0.0f64..1000.0, 0u32..64), 0..40)
}

proptest! {
    #[test]
    fn prune_is_idempotent(points in raw_points()) {
        let mut c = curve_from(&points);
        c.prune();
        let once = triples(&c);
        c.prune();
        prop_assert_eq!(once, triples(&c));
    }

    #[test]
    fn prune_output_is_load_sorted(points in raw_points()) {
        let mut c = curve_from(&points);
        c.prune();
        for w in c.points().windows(2) {
            // Post-prune contract: strictly increasing (load, area), so
            // load is non-decreasing overall.
            prop_assert!((w[0].load, w[0].area) < (w[1].load, w[1].area));
            prop_assert!(w[0].load <= w[1].load);
        }
    }

    #[test]
    fn prune_output_is_pairwise_non_inferior(points in raw_points()) {
        let mut c = curve_from(&points);
        c.prune();
        // O(s log s) staircase checker agrees with the O(s²) reference.
        prop_assert!(c.is_pruned());
        prop_assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn prune_keeps_the_best_required_time(points in raw_points()) {
        let mut c = curve_from(&points);
        let best_before = c
            .iter()
            .map(|p| p.req)
            .fold(f64::NEG_INFINITY, f64::max);
        c.prune();
        let best_after = c
            .iter()
            .map(|p| p.req)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(best_before, best_after);
    }

    #[test]
    fn merged_with_yields_pruned_curve(
        left in raw_points(),
        right in raw_points(),
    ) {
        let mut a = curve_from(&left);
        let mut b = curve_from(&right);
        a.prune();
        b.prune();
        let merged = a.merged_with(&b, |x, _| x);
        prop_assert!(merged.is_pruned());
        prop_assert!(merged.check_invariants().is_ok());
        prop_assert!(merged.len() <= a.len() * b.len());
    }

    #[test]
    fn extended_yields_pruned_curve(points in raw_points(), len in 1u64..5000) {
        let tech = Technology::synthetic_035();
        let mut c = curve_from(&points);
        c.prune();
        let ext = c.extended(&tech.wire, len, |p| p);
        prop_assert!(ext.is_pruned());
        prop_assert!(ext.check_invariants().is_ok());
        prop_assert_eq!(ext.len() <= c.len(), true);
    }

    #[test]
    fn buffer_options_yield_pruned_curve(points in raw_points()) {
        let mut c = curve_from(&points);
        c.prune();
        let library = BufferLibrary::tiny_test();
        let buffered = c.with_buffer_options(&library, |_, p| p);
        prop_assert!(buffered.is_pruned());
        prop_assert!(buffered.check_invariants().is_ok());
        // The unbuffered originals never disappear entirely: the minimum
        // load in the buffered curve is at most the smallest buffer cin or
        // the original minimum.
        if !c.is_empty() {
            prop_assert!(!buffered.is_empty());
        }
    }

    #[test]
    fn indexed_prune_matches_the_legacy_sweep(points in raw_points()) {
        let mut c = curve_from(&points);
        let expect = keys(&oracle_prune(&c));
        c.prune();
        prop_assert_eq!(keys(c.points()), expect,
            "indexed prune diverged from the BTreeMap oracle");
    }

    #[test]
    fn indexed_prune_matches_the_legacy_sweep_under_heavy_ties(
        raw in prop::collection::vec((1u32..6, 0u32..8, 0u32..5), 0..60),
    ) {
        // Tiny value domains force load/req/area collisions — the regime
        // where tie-break order (and therefore provenance survival)
        // actually distinguishes implementations. Loads are spread to a
        // coarse grid so load-quantization bucket mates collide too.
        let points: Vec<RawPoint> = raw
            .iter()
            .map(|&(l, r, a)| (l * 10, f64::from(r) * 0.5, a))
            .collect();
        let mut c = curve_from(&points);
        let expect = keys(&oracle_prune(&c));
        c.prune();
        prop_assert_eq!(keys(c.points()), expect,
            "indexed prune diverged from the oracle on tie-heavy input");
        // Keep-first means the survivor of any duplicate group is the
        // lowest-provenance copy, which (prov = input index here) is the
        // first occurrence of its exact triple in the input.
        for p in c.iter() {
            let first = points
                .iter()
                .position(|&(l, r, a)| {
                    l == p.load.0 && r.to_bits() == p.req.to_bits() && u64::from(a) == p.area
                })
                .expect("survivor came from the input");
            prop_assert_eq!(p.prov.index(), first,
                "a duplicate survived with a later provenance than its first copy");
        }
    }

    #[test]
    fn reduce_keeps_a_subsequence_of_the_exact_front(
        points in raw_points(),
        q in 1u32..12,
    ) {
        let mut exact = curve_from(&points);
        exact.prune();
        let mut dialed = exact.clone();
        dialed.reduce(PrunePolicy { load_quant: q, rmin_ps_per_cap: 0.25 });
        prop_assert!(dialed.check_invariants().is_ok(),
            "reduce must preserve the exact-curve invariants");
        // Survivors are a subsequence of the exact front, in order.
        let front = keys(exact.points());
        let kept = keys(dialed.points());
        let mut it = front.iter();
        for k in &kept {
            prop_assert!(it.any(|f| f == k),
                "reduce produced a point outside the exact front (or reordered)");
        }
        // The exact policy is the identity.
        let mut same = exact.clone();
        same.reduce(PrunePolicy::EXACT);
        prop_assert_eq!(keys(same.points()), front);
    }

    #[test]
    fn absorb_yields_pruned_curve(left in raw_points(), right in raw_points()) {
        let mut a = curve_from(&left);
        let mut b = curve_from(&right);
        a.prune();
        b.prune();
        a.absorb(b);
        prop_assert!(a.is_pruned());
        prop_assert!(a.check_invariants().is_ok());
    }
}
