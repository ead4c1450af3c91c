//! Property tests for the non-inferiority invariants of [`Curve`].
//!
//! These are the contracts the debug-mode invariant checkers
//! (`Curve::debug_check_noninferior`) assert after every curve operator;
//! here they are exercised on randomized inputs so the checkers themselves
//! are cross-validated against the O(s²) reference predicate
//! [`Curve::is_pruned`].

use std::cmp::Ordering;

use merlin_curves::{Curve, CurvePoint, ProvId, PrunePolicy};
use merlin_tech::units::{ps_cmp, Cap};
use merlin_tech::{Buffer, BufferLibrary, Technology};
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
    pts.sort_unstable_by(prune_order);
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

/// The prune order, written from the spec: `(load, area, −req, prov)`.
fn prune_order(a: &CurvePoint, b: &CurvePoint) -> Ordering {
    a.load
        .cmp(&b.load)
        .then(a.area.cmp(&b.area))
        .then(ps_cmp(b.req, a.req))
        .then(a.prov.index().cmp(&b.prov.index()))
}

/// A curve holding exactly `pts`, in the given order, unpruned.
fn unpruned(pts: impl IntoIterator<Item = CurvePoint>) -> Curve {
    let mut c = Curve::new();
    for p in pts {
        c.push(p);
    }
    c
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

// ---------------------------------------------------------------------
// The staircase buffer operator, the merge-based absorb and the k-run
// merge against the oracle.
// ---------------------------------------------------------------------

/// Provenance ids at or above this mark buffer options below; curve points
/// keep their small input ids.
const OPTION_BASE: usize = 1 << 20;

/// A point's values, plus its provenance as `(None, prov)` for an original
/// or `(Some(buffer), child prov)` for a buffer option.
type Keyed = Vec<(u32, u64, u64, Option<u16>, usize)>;

/// Keys of `pts`, with option ids resolved through `made` (option id
/// `OPTION_BASE + j` is the step `made[j]`).
fn keyed(pts: &[CurvePoint], made: &[(u16, ProvId)]) -> Keyed {
    pts.iter()
        .map(|p| {
            let (buf, child) = match p.prov.index().checked_sub(OPTION_BASE) {
                Some(j) => (Some(made[j].0), made[j].1.index()),
                None => (None, p.prov.index()),
            };
            (p.load.0, p.req.to_bits(), p.area, buf, child)
        })
        .collect()
}

/// The parameters of one buffer-operator call.
struct BufferCase<'a> {
    library: &'a BufferLibrary,
    select: &'a [u16],
    enforce_max_load: bool,
    policy: PrunePolicy,
}

impl BufferCase<'_> {
    /// All `s × b` raw options, buffer-major in `select` order and then in
    /// storage order, with their generation index as provenance, and the
    /// `(buffer, child)` step of each.
    fn raw_options(&self, c: &Curve) -> (Vec<CurvePoint>, Vec<(u16, ProvId)>) {
        let mut raw = Vec::new();
        let mut steps = Vec::new();
        for &bi in self.select {
            let buf = &self.library[usize::from(bi)];
            for p in c.iter() {
                if self.enforce_max_load && p.load > buf.max_load {
                    continue;
                }
                raw.push(CurvePoint::with_load(
                    buf.cin,
                    p.req - buf.delay_linear_ps(p.load),
                    p.area + buf.area,
                    ProvId::new(steps.len() as u32),
                ));
                steps.push((bi, p.prov));
            }
        }
        (raw, steps)
    }

    /// The operator under test; its step ids are handed out in call order,
    /// like arena handles.
    fn run(&self, c: &Curve) -> Keyed {
        let mut made: Vec<(u16, ProvId)> = Vec::new();
        let out = c.with_buffer_options(
            self.library,
            self.select,
            self.enforce_max_load,
            self.policy,
            |bi, child| {
                made.push((bi, child));
                ProvId::new((OPTION_BASE + made.len() - 1) as u32)
            },
        );
        assert!(out.check_invariants().is_ok());
        keyed(out.points(), &made)
    }

    /// The buffer step as the DP built it before the staircase form: the
    /// oracle prune of all raw options, the dial, one arena step per
    /// surviving option in that order (all newer than every original),
    /// the oracle prune of originals ++ options, and the dial again.
    fn oracle(&self, c: &Curve) -> Keyed {
        let (raw, steps) = self.raw_options(c);
        let mut options = unpruned(oracle_prune(&unpruned(raw)));
        options.reduce(self.policy);
        let mut made = Vec::new();
        let mut union = c.clone();
        for p in options.iter() {
            made.push(steps[p.prov.index()]);
            union.push(CurvePoint {
                prov: ProvId::new((OPTION_BASE + made.len() - 1) as u32),
                ..*p
            });
        }
        let mut out = unpruned(oracle_prune(&union));
        out.reduce(self.policy);
        keyed(out.points(), &made)
    }

    /// Asserts the operator equals the oracle on `c` (pruned first), and —
    /// under the exact policy — equals one oracle prune of the originals
    /// plus every raw option.
    fn check(&self, c: &Curve, what: &str) {
        let mut c = c.clone();
        c.prune();
        let got = self.run(&c);
        assert_eq!(got, self.oracle(&c), "{what}: buffer operator diverged");
        if self.policy.is_exact() {
            let (raw, steps) = self.raw_options(&c);
            let mut all = c.clone();
            for p in raw {
                all.push(CurvePoint {
                    prov: ProvId::new((OPTION_BASE + p.prov.index()) as u32),
                    ..p
                });
            }
            assert_eq!(
                got,
                keyed(&oracle_prune(&all), &steps),
                "{what}: buffer operator diverged from one prune of all options"
            );
        }
    }
}

/// A buffer with a fixed delay (no drive resistance), so option required
/// times stay on the half-ps grid of the tie-heavy curves.
fn fixed_buffer(name: &str, cin: u32, delay_ps: f64, area: u64, max_load: u32) -> Buffer {
    Buffer {
        cin: Cap(cin),
        rdrv_ohm: 0.0,
        intrinsic_ps: delay_ps,
        area,
        max_load: Cap(max_load),
        ..Buffer::sized(name, 1.0)
    }
}

/// A library made for ties: buffers 0 and 1 are identical, buffer 2
/// shares their input capacitance with another delay and area, buffer 3
/// has a `max_load` the tie-heavy curves exceed, and buffer 4's delay
/// grows 0.5 ps per 10 load units, so two points of equal area whose req
/// differs by that much give it options of equal area and equal req.
fn tie_library() -> BufferLibrary {
    BufferLibrary::new(vec![
        fixed_buffer("T0", 10, 0.5, 1, 1000),
        fixed_buffer("T0_COPY", 10, 0.5, 1, 1000),
        fixed_buffer("T2_SAME_CIN", 10, 1.0, 0, 1000),
        fixed_buffer("T3_WEAK", 20, 0.0, 2, 30),
        Buffer {
            rdrv_ohm: 500.0,
            ..fixed_buffer("T4_LOADED", 10, 0.5, 1, 1000)
        },
    ])
}

/// The synthetic 0.35 µm library with two extra buffers that share the
/// input capacitance of its buffer 3, so staircases of equal load meet.
fn sized_library() -> BufferLibrary {
    let mut buffers: Vec<Buffer> = Technology::synthetic_035()
        .library
        .iter()
        .cloned()
        .collect();
    let twin = buffers[3].clone();
    buffers.push(Buffer {
        rdrv_ohm: twin.rdrv_ohm * 0.8,
        area: twin.area + 150,
        ..twin.clone()
    });
    buffers.push(Buffer {
        name: "TWIN_COPY".to_owned(),
        ..twin
    });
    BufferLibrary::new(buffers)
}

/// Selections and dials every buffer case runs under: the DP's every-third
/// selection, a reversed one (runs out of load order, so they merge), the
/// last buffer alone (so its own ties decide), `enforce_max_load`, and
/// quantized loads.
fn buffer_cases(library: &BufferLibrary) -> Vec<(Vec<u16>, bool, PrunePolicy)> {
    let n = library.len() as u16;
    let every_third: Vec<u16> = (0..n).filter(|i| i % 3 == 0 || *i == n - 1).collect();
    let reversed: Vec<u16> = (0..n).rev().collect();
    let quantized = PrunePolicy {
        load_quant: 8,
        rmin_ps_per_cap: 0.0,
    };
    let predictive = PrunePolicy {
        load_quant: 3,
        rmin_ps_per_cap: 0.25,
    };
    vec![
        (every_third.clone(), false, PrunePolicy::EXACT),
        (reversed.clone(), false, PrunePolicy::EXACT),
        (reversed.clone(), true, PrunePolicy::EXACT),
        (vec![n - 1], false, PrunePolicy::EXACT),
        (every_third, true, quantized),
        (reversed, false, predictive),
    ]
}

#[test]
fn buffer_operator_matches_the_oracle_on_the_sized_and_tie_heavy_pool() {
    let sized = sized_library();
    for (i, n) in [1u32, 2, 8, 16, 32, 64, 256].into_iter().enumerate() {
        let mut next = xorshift((31 + i as u64) | 1);
        let c = curve_of(n, |p| {
            CurvePoint::new(
                (next() % 4000) as u32,
                (next() % 100_000) as f64 / 10.0,
                next() % 40_000,
                ProvId::new(p),
            )
        });
        for (select, enforce_max_load, policy) in buffer_cases(&sized) {
            let case = BufferCase {
                library: &sized,
                select: &select,
                enforce_max_load,
                policy,
            };
            case.check(
                &c,
                &format!("sized curve {i} ({n} points), {select:?}, enforce {enforce_max_load}, {policy:?}"),
            );
        }
    }
    let ties = tie_library();
    for i in 0..24u64 {
        let mut next = xorshift((211 + i) | 1);
        // Half the curves sit above every buffer's input capacitance, where
        // no original dominates the options and their own ties decide.
        let floor = if i % 2 == 0 { 0 } else { 30 };
        let c = curve_of(64, |p| {
            CurvePoint::new(
                floor + (next() % 6) as u32 * 10,
                (next() % 8) as f64 * 0.5,
                next() % 5,
                ProvId::new(p),
            )
        });
        for (select, enforce_max_load, policy) in buffer_cases(&ties) {
            let case = BufferCase {
                library: &ties,
                select: &select,
                enforce_max_load,
                policy,
            };
            case.check(
                &c,
                &format!("tie-heavy curve {i}, {select:?}, enforce {enforce_max_load}, {policy:?}"),
            );
        }
    }
}

#[test]
fn absorb_matches_the_oracle_of_the_concatenation() {
    let mut next = xorshift(0x51ed_270b);
    for round in 0..300 {
        let (n, m) = ((next() % 40) as u32, (next() % 40) as u32);
        let domain = if round % 2 == 0 { 12 } else { 4000 };
        let mut point = |p: u32| {
            CurvePoint::new(
                (next() % domain) as u32,
                (next() % domain) as f64 * 0.5,
                next() % domain,
                ProvId::new(p),
            )
        };
        // Either side may hold the older provenance.
        let (a_base, b_base) = if round % 3 == 0 { (100, 0) } else { (0, 100) };
        let mut a = curve_of(n, |p| point(a_base + p));
        let mut b = curve_of(m, |p| point(b_base + p));
        a.prune();
        b.prune();
        let expect = keys(&oracle_prune(&unpruned(a.iter().chain(b.iter()).copied())));
        a.absorb(&b);
        assert_eq!(keys(a.points()), expect, "round {round}");
    }
}

#[test]
fn sorted_runs_merge_to_the_oracle_of_the_concatenation() {
    let wire = Technology::synthetic_035().wire;
    let mut next = xorshift(0x2545_f491);
    for round in 0..300 {
        let k = (next() % 9) as usize;
        let domain = if round % 2 == 0 { 12 } else { 4000 };
        let mut pts: Vec<CurvePoint> = Vec::new();
        let mut ends = Vec::new();
        for _ in 0..k {
            // A pruned source curve, wire-shifted as relocation does it:
            // still in prune order, no longer pruned. Some runs stay
            // unshifted, and some are empty.
            let n = (next() % 24) as u32;
            let mut src = curve_of(n, |p| {
                CurvePoint::new(
                    (next() % domain) as u32,
                    (next() % domain) as f64 * 0.5,
                    next() % domain,
                    ProvId::new(p),
                )
            });
            src.prune();
            let len = if next().is_multiple_of(3) {
                0
            } else {
                next() % 3000
            };
            let wc = wire.wire_cap(len);
            for a in src.iter() {
                pts.push(CurvePoint {
                    load: a.load + wc,
                    req: a.req - wire.elmore_ps(len, a.load),
                    area: a.area,
                    prov: ProvId::new(pts.len() as u32),
                });
            }
            ends.push(pts.len());
        }
        let expect = keys(&oracle_prune(&unpruned(pts.iter().copied())));
        let merged = Curve::from_sorted_runs(&pts, &ends);
        assert_eq!(keys(merged.points()), expect, "round {round} ({k} runs)");
    }
    // Runs that are already in order, end to end, are joined as they
    // stand; the result is still the oracle's.
    let mut next = xorshift(0x0bad_5eed);
    let mut pts: Vec<CurvePoint> = (0..40u32)
        .map(|p| {
            CurvePoint::new(
                (next() % 50) as u32,
                (next() % 50) as f64,
                next() % 50,
                ProvId::new(p),
            )
        })
        .collect();
    pts.sort_unstable_by(prune_order);
    let ends = [10, 10, 25, 40];
    assert_eq!(
        keys(Curve::from_sorted_runs(&pts, &ends).points()),
        keys(&oracle_prune(&unpruned(pts.iter().copied())))
    );
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
        let select: Vec<u16> = (0..library.len() as u16).collect();
        let buffered =
            c.with_buffer_options(&library, &select, false, PrunePolicy::EXACT, |_, p| p);
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
    fn buffer_operator_matches_the_oracle(
        points in raw_points(),
        pick in prop::collection::vec(0u16..5, 0..7),
        enforce in 0u8..2,
        q in 1u32..4,
    ) {
        // The tie library, any selection (repeats and reorders included),
        // exact or quantized loads.
        let library = tie_library();
        let mut select: Vec<u16> = Vec::new();
        for &b in &pick {
            if !select.contains(&b) {
                select.push(b);
            }
        }
        let case = BufferCase {
            library: &library,
            select: &select,
            enforce_max_load: enforce == 1,
            policy: PrunePolicy { load_quant: q, rmin_ps_per_cap: 0.0 },
        };
        let raw: Vec<RawPoint> = points
            .iter()
            .map(|&(l, r, a)| (20 + (l / 40) * 10, (r / 100.0).floor() * 0.5, a % 6))
            .collect();
        case.check(&curve_from(&raw), "random curve");
    }

    #[test]
    fn absorb_yields_pruned_curve(left in raw_points(), right in raw_points()) {
        let mut a = curve_from(&left);
        let mut b = curve_from(&right);
        a.prune();
        b.prune();
        a.absorb(&b);
        prop_assert!(a.is_pruned());
        prop_assert!(a.check_invariants().is_ok());
    }
}
