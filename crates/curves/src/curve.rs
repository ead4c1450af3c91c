//! Non-inferior solution curves and the DP operators over them.

use merlin_tech::units::{ps_cmp, Cap, PsTime};
use merlin_tech::{BufferLibrary, WireModel};

use crate::arena::ProvId;
use crate::point::CurvePoint;

/// The total order [`Curve::prune`] sorts by: `(load, area, −req, prov)`.
///
/// The provenance tie-break matters: `sort_unstable` would otherwise order
/// identical `(load, req, area)` triples by their incidental positions in
/// the input vector, making the keep-first duplicate choice depend on
/// which *other* candidates happened to be generated — and the predictive
/// generation filters in `merlin-core` legitimately shrink that set. With
/// a total order the pruned curve is a function of the point set alone.
#[inline]
fn cmp_total(a: &CurvePoint, b: &CurvePoint) -> std::cmp::Ordering {
    a.load
        .cmp(&b.load)
        .then_with(|| a.area.cmp(&b.area))
        .then_with(|| ps_cmp(b.req, a.req))
        .then_with(|| a.prov.index().cmp(&b.prov.index()))
}

/// The indexed (area → best req) staircase behind the Definition-6 sweep.
///
/// Corners sit in a flat vector sorted by strictly increasing area *and*
/// strictly increasing req, so the domination probe is one binary search
/// plus one compare, and the corners a newly accepted point makes stale
/// form one contiguous run spliced out in place. Replacing the previous
/// `BTreeMap` removes the per-point stale-key allocation and all node
/// traffic; the corner count is bounded by the survivor count, so the
/// splice memmoves stay within a few cache lines.
#[derive(Debug)]
struct Stair<V> {
    corners: Vec<(u64, f64, V)>,
}

impl<V: Copy> Stair<V> {
    fn new() -> Self {
        Stair {
            corners: Vec::new(),
        }
    }

    /// The corner with the largest area `<= area`, if any. By the sweep
    /// order its req is the best among accepted points whose area (and
    /// load) are at or below the probe's.
    #[inline]
    fn floor(&self, area: u64) -> Option<(u64, f64, V)> {
        let i = self.corners.partition_point(|c| c.0 <= area);
        i.checked_sub(1).map(|i| self.corners[i])
    }

    /// Records an accepted point, retiring the corners it strictly
    /// improves on (area `>= area` with req `<= req` — one contiguous run,
    /// by the invariant). Returns how many corners were retired.
    #[inline]
    fn accept(&mut self, area: u64, req: f64, v: V) -> usize {
        let lo = self.corners.partition_point(|c| c.0 < area);
        let mut hi = lo;
        while hi < self.corners.len() && self.corners[hi].1 <= req {
            hi += 1;
        }
        let stale = hi - lo;
        if stale == 0 {
            self.corners.insert(lo, (area, req, v));
        } else {
            self.corners[lo] = (area, req, v);
            if stale > 1 {
                self.corners.drain(lo + 1..hi);
            }
        }
        stale
    }

    fn len(&self) -> usize {
        self.corners.len()
    }
}

/// Post-prune speed/quality dial (see [`Curve::reduce`]): load
/// quantization plus Li & Shi-style predictive pruning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrunePolicy {
    /// Load-quantization bucket width in capacitance units: points whose
    /// loads share a `load / load_quant` bucket compete under Definition 6
    /// as if their loads were equal (survivors keep their exact values).
    /// `0` or `1` keeps every exact trade-off.
    pub load_quant: u32,
    /// Predictive resistance floor in ps per capacitance unit. Every
    /// structure is eventually driven through at least the net driver's
    /// resistance, so domination may be tested on the *adjusted* required
    /// time `req − rmin·load` (Li & Shi's predictive pruning): a point
    /// that loses on adjusted req cannot win the final selection when the
    /// true upstream resistance is at least `rmin`. `0.0` disables the
    /// adjustment; larger-than-justified values trade quality for curve
    /// size.
    pub rmin_ps_per_cap: f64,
}

impl PrunePolicy {
    /// The lossless policy: plain Definition 6.
    pub const EXACT: PrunePolicy = PrunePolicy {
        load_quant: 1,
        rmin_ps_per_cap: 0.0,
    };

    /// Whether this policy never discards an exact-front point.
    pub fn is_exact(&self) -> bool {
        self.load_quant <= 1 && self.rmin_ps_per_cap <= 0.0
    }
}

impl Default for PrunePolicy {
    fn default() -> Self {
        PrunePolicy::EXACT
    }
}

/// A set of mutually non-inferior `(load, req, area)` solutions.
///
/// A curve owns its points and keeps them sorted by increasing load after
/// [`Curve::prune`]. All dynamic programs in the workspace are built from
/// the four operators here: [`push`](Curve::push) (base cases),
/// [`merged_with`](Curve::merged_with) (joining two subtrees at a common
/// point), [`extended`](Curve::extended) (prepending a wire), and
/// [`with_buffer_options`](Curve::with_buffer_options) (optionally driving
/// the structure with each library buffer).
///
/// # Examples
///
/// ```
/// use merlin_curves::{Curve, CurvePoint, ProvId};
///
/// let mut c = Curve::new();
/// c.push(CurvePoint::new(10, 100.0, 0, ProvId::new(0)));
/// c.push(CurvePoint::new(5, 80.0, 0, ProvId::new(1)));
/// c.prune();
/// assert_eq!(c.len(), 2); // trade-off: load vs required time
/// assert!(c.best_req_within_area(u64::MAX).unwrap().req == 100.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Curve {
    pts: Vec<CurvePoint>,
}

/// A violation of the post-[`Curve::prune`] invariant (Definition 6 plus
/// the load-sorted storage contract), reported by
/// [`Curve::check_invariants`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CurveInvariantError {
    /// `pts[index].req` is NaN — NaN must never reach a curve comparison.
    NanReq {
        /// Index of the offending point.
        index: usize,
    },
    /// `pts[index]` is not in strictly increasing `(load, area)` order
    /// relative to its predecessor.
    NotSorted {
        /// Index of the out-of-order point.
        index: usize,
    },
    /// `pts[index]` is rendered inferior (Definition 6) by `pts[by]`.
    Dominated {
        /// Index of the inferior point.
        index: usize,
        /// Index of a dominating point.
        by: usize,
    },
}

impl std::fmt::Display for CurveInvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CurveInvariantError::NanReq { index } => {
                write!(f, "point {index} has a NaN required time")
            }
            CurveInvariantError::NotSorted { index } => {
                write!(f, "point {index} breaks the (load, area) sort order")
            }
            CurveInvariantError::Dominated { index, by } => {
                write!(f, "point {index} is inferior to point {by} (Definition 6)")
            }
        }
    }
}

impl std::error::Error for CurveInvariantError {}

impl Curve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        Curve { pts: Vec::new() }
    }

    /// Creates an empty curve with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Curve {
            pts: Vec::with_capacity(cap),
        }
    }

    /// Appends a point **without** pruning (call [`Curve::prune`] when
    /// done inserting).
    pub fn push(&mut self, p: CurvePoint) {
        self.pts.push(p);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// Whether the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// The points as a slice.
    pub fn points(&self) -> &[CurvePoint] {
        &self.pts
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, CurvePoint> {
        self.pts.iter()
    }

    /// Rewrites every point's provenance handle in place, preserving
    /// values and ordering. Used when a parallel DP merges per-worker
    /// arena segments into the global arena: the `(load, req, area)`
    /// content is final, only the arena ids need rebasing.
    pub fn map_prov(&mut self, mut f: impl FnMut(ProvId) -> ProvId) {
        for p in &mut self.pts {
            p.prov = f(p.prov);
        }
    }

    /// Removes every inferior point (Definition 6), keeping one
    /// representative of identical points, and sorts by increasing load.
    ///
    /// Runs in `O(s log s)`: points are sorted by the total order
    /// `(load, area, −req, prov)` and swept through the indexed
    /// [`Stair`], exactly the "pruning operation" of lines 19–20 of the
    /// paper's Figure 9. Lemma 9: no non-inferior solution is lost.
    pub fn prune(&mut self) {
        if crate::fault::trip("curves.prune") {
            self.pts.clear();
            return;
        }
        if self.pts.len() <= 1 {
            return;
        }
        self.pts.sort_unstable_by(cmp_total);
        // The instrumented sweep is a physically separate copy of the loop
        // (not a `traced` flag threaded through the hot one): prune is the
        // hottest function in the workspace, and keeping even a
        // perfectly-predicted per-point branch plus the tally locals out
        // of the untraced path is what keeps disabled tracing free.
        if merlin_trace::is_enabled() {
            self.prune_sweep_traced();
        } else {
            self.prune_sweep();
        }
        self.debug_check_noninferior("prune");
    }

    /// The Definition-6 sweep over the indexed staircase: a point is
    /// inferior iff the floor corner at its area already reaches its req
    /// (that corner's load and area are at or below the point's, by the
    /// sweep order). Survivors are compacted in place — no output vector,
    /// no per-point allocations.
    ///
    /// `inline(always)`: this is `prune`'s untraced hot path — measured
    /// against the uninstrumented code, letting the two-callee dispatch
    /// demote this call to an outlined one costs ~3% end-to-end.
    #[inline(always)]
    fn prune_sweep(&mut self) {
        let mut stair: Stair<()> = Stair::new();
        let mut w = 0usize;
        for i in 0..self.pts.len() {
            let p = self.pts[i];
            if stair.floor(p.area).is_some_and(|(_, r, ())| r >= p.req) {
                continue;
            }
            stair.accept(p.area, p.req, ());
            self.pts[w] = p;
            w += 1;
        }
        self.pts.truncate(w);
    }

    /// [`Curve::prune_sweep`] plus the `curves.prune.*` trace counters and
    /// the Definition-6 kill taxonomy: a killer staircase corner with the
    /// identical (area, bit-identical req) means the point is a duplicate
    /// of one already kept; anything else is genuine domination. The
    /// `curves.prune.index.*` names size the staircase itself.
    #[cold]
    #[inline(never)]
    fn prune_sweep_traced(&mut self) {
        let before = self.pts.len();
        let mut killed_duplicate = 0u64;
        let mut stale_corners = 0u64;
        let mut peak_corners = 0usize;
        let mut stair: Stair<()> = Stair::new();
        let mut w = 0usize;
        for i in 0..self.pts.len() {
            let p = self.pts[i];
            if let Some((area, req, ())) = stair.floor(p.area) {
                if req >= p.req {
                    if area == p.area && req.to_bits() == p.req.to_bits() {
                        killed_duplicate += 1;
                    }
                    continue;
                }
            }
            stale_corners += stair.accept(p.area, p.req, ()) as u64;
            peak_corners = peak_corners.max(stair.len());
            self.pts[w] = p;
            w += 1;
        }
        self.pts.truncate(w);
        let killed = (before - w) as u64;
        merlin_trace::counter("curves.prune.calls", 1);
        merlin_trace::counter("curves.prune.in", before as u64);
        merlin_trace::counter("curves.pruned", killed);
        merlin_trace::counter("curves.prune.kill.duplicate", killed_duplicate);
        merlin_trace::counter(
            "curves.prune.kill.dominated",
            killed.saturating_sub(killed_duplicate),
        );
        merlin_trace::counter("curves.prune.index.stale", stale_corners);
        merlin_trace::observe("curves.prune.index.peak", peak_corners as u64);
        merlin_trace::observe("curves.prune.size", w as u64);
    }

    /// Applies a [`PrunePolicy`] to an already-pruned curve: re-runs the
    /// Definition-6 sweep with loads bucketed by `load_quant` and
    /// required times adjusted by `rmin_ps_per_cap`, then restores the
    /// exact `(load, area)` storage order. Survivors keep their exact
    /// values, so the result is a subset of the exact front — a
    /// speed/quality dial in the same family as [`Curve::thin_to`],
    /// threaded per resilience-ladder tier through `MerlinConfig`. The
    /// [`PrunePolicy::EXACT`] default is a no-op.
    pub fn reduce(&mut self, policy: PrunePolicy) {
        if policy.is_exact() || self.pts.len() <= 1 {
            return;
        }
        let q = policy.load_quant.max(1);
        let rmin = policy.rmin_ps_per_cap.max(0.0);
        let adj = |p: &CurvePoint| p.req - rmin * f64::from(p.load.units());
        let before = self.pts.len();
        self.pts.sort_unstable_by(|a, b| {
            (a.load.units() / q)
                .cmp(&(b.load.units() / q))
                .then_with(|| a.area.cmp(&b.area))
                .then_with(|| ps_cmp(adj(b), adj(a)))
                .then_with(|| a.prov.index().cmp(&b.prov.index()))
        });
        let mut stair: Stair<()> = Stair::new();
        let mut w = 0usize;
        for i in 0..self.pts.len() {
            let p = self.pts[i];
            let r = adj(&p);
            if stair.floor(p.area).is_some_and(|(_, fr, ())| fr >= r) {
                continue;
            }
            stair.accept(p.area, r, ());
            self.pts[w] = p;
            w += 1;
        }
        self.pts.truncate(w);
        self.pts.sort_unstable_by(cmp_total);
        if merlin_trace::is_enabled() {
            merlin_trace::counter(
                "curves.prune.predictive.reduced",
                (before - self.pts.len()) as u64,
            );
        }
        self.debug_check_noninferior("reduce");
    }

    /// Verifies the post-[`Curve::prune`] contract: no NaN required time,
    /// points in strictly increasing `(load, area)` order, and no point
    /// inferior to another (Definition 6).
    ///
    /// Runs in `O(s log s)` with the same staircase sweep as the pruning
    /// operation, so it is cheap enough to assert after every DP operator
    /// in debug builds. The `O(s²)` [`Curve::is_pruned`] stays as the
    /// brute-force cross-check in tests.
    ///
    /// # Errors
    ///
    /// The first violation found, in storage order.
    pub fn check_invariants(&self) -> Result<(), CurveInvariantError> {
        // (area, req, index) staircase of already-seen points: the floor
        // corner at A holds the best req among seen points with area <= A
        // (and load <= current, by sweep order).
        let mut stair: Stair<usize> = Stair::new();
        for (i, p) in self.pts.iter().enumerate() {
            if p.req.is_nan() {
                return Err(CurveInvariantError::NanReq { index: i });
            }
            if i > 0 {
                let q = &self.pts[i - 1];
                if (q.load, q.area) >= (p.load, p.area) {
                    return Err(CurveInvariantError::NotSorted { index: i });
                }
            }
            if let Some((_, r, by)) = stair.floor(p.area) {
                if r >= p.req {
                    return Err(CurveInvariantError::Dominated { index: i, by });
                }
            }
            stair.accept(p.area, p.req, i);
        }
        Ok(())
    }

    /// Debug-mode Definition-6 assertion: panics if
    /// [`Curve::check_invariants`] fails.
    ///
    /// Compiled to a no-op unless `debug_assertions` are on or the
    /// `invariant-checks` feature is enabled, so release-mode DP hot paths
    /// pay nothing. `ctx` names the operator being checked for the panic
    /// message.
    #[inline]
    pub fn debug_check_noninferior(&self, ctx: &str) {
        #[cfg(any(debug_assertions, feature = "invariant-checks"))]
        if let Err(e) = self.check_invariants() {
            // audit:allow(panic): this IS the invariant checker.
            panic!(
                "curve invariant violated after {ctx}: {e} ({} points)",
                self.len()
            );
        }
        #[cfg(not(any(debug_assertions, feature = "invariant-checks")))]
        let _ = ctx;
    }

    /// Whether no point dominates another (used by tests; `O(s²)`).
    pub fn is_pruned(&self) -> bool {
        for (i, a) in self.pts.iter().enumerate() {
            for (j, b) in self.pts.iter().enumerate() {
                if i != j && a.dominates(b) {
                    return false;
                }
            }
        }
        true
    }

    /// Cross-product combination of two curves rooted at the same point:
    /// loads and areas add, required times take the minimum.
    ///
    /// `combine(prov_a, prov_b)` records the provenance of each produced
    /// point. The result is pruned.
    pub fn merged_with<F>(&self, other: &Curve, mut combine: F) -> Curve
    where
        F: FnMut(ProvId, ProvId) -> ProvId,
    {
        let mut out = Curve::with_capacity(self.len() * other.len());
        for a in &self.pts {
            for b in &other.pts {
                out.push(CurvePoint {
                    load: a.load + b.load,
                    req: a.req.min(b.req),
                    area: a.area + b.area,
                    prov: combine(a.prov, b.prov),
                });
            }
        }
        out.prune();
        out.debug_check_noninferior("merged_with");
        out
    }

    /// Prepends a wire of `len` λ to every solution: load grows by the wire
    /// capacitance, required time shrinks by the Elmore delay of the wire
    /// into the old load. The result is pruned (extension is monotone, so
    /// pruning only collapses load-quantization ties).
    pub fn extended<F>(&self, wire: &WireModel, len: u64, mut step: F) -> Curve
    where
        F: FnMut(ProvId) -> ProvId,
    {
        let wc = wire.wire_cap(len);
        let mut out = Curve::with_capacity(self.len());
        for p in &self.pts {
            out.push(CurvePoint {
                load: p.load + wc,
                req: p.req - wire.elmore_ps(len, p.load),
                area: p.area,
                prov: step(p.prov),
            });
        }
        out.prune();
        out.debug_check_noninferior("extended");
        out
    }

    /// Adds, for every library buffer, the option of driving each solution
    /// with that buffer (load collapses to the buffer input capacitance,
    /// required time shrinks by the buffer delay, area grows by the buffer
    /// area). The unbuffered originals are kept; the result is pruned.
    pub fn with_buffer_options<F>(&self, library: &BufferLibrary, mut step: F) -> Curve
    where
        F: FnMut(u16, ProvId) -> ProvId,
    {
        let mut out = Curve::with_capacity(self.len() * (library.len() + 1));
        for p in &self.pts {
            out.push(*p);
        }
        for (bi, buf) in library.iter().enumerate() {
            for p in &self.pts {
                out.push(CurvePoint {
                    load: buf.cin,
                    req: p.req - buf.delay_linear_ps(p.load),
                    area: p.area + buf.area,
                    prov: step(bi as u16, p.prov),
                });
            }
        }
        out.prune();
        out.debug_check_noninferior("with_buffer_options");
        out
    }

    /// Merges another curve's points into this one in place, re-pruning.
    pub fn absorb(&mut self, other: Curve) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        self.pts.extend(other.pts);
        self.prune();
        self.debug_check_noninferior("absorb");
    }

    /// Best (largest) required time among solutions with `area ≤ budget`
    /// and, optionally, further criteria applied by the caller.
    pub fn best_req_within_area(&self, budget: u64) -> Option<&CurvePoint> {
        self.pts
            .iter()
            .filter(|p| p.area <= budget)
            .max_by(|a, b| ps_cmp(a.req, b.req))
    }

    /// Cheapest (smallest-area) solution achieving `req ≥ target`.
    pub fn min_area_with_req(&self, target: PsTime) -> Option<&CurvePoint> {
        self.pts
            .iter()
            .filter(|p| p.req >= target)
            .min_by_key(|p| p.area)
    }

    /// Quality-controlled thinning: if the curve has more than `max_points`
    /// points, keep `max_points` of them spread evenly across the load
    /// range (always keeping both extremes and the best-required-time
    /// point).
    ///
    /// This is a *speed knob*, not part of the paper's algorithm; with it
    /// disabled (the default in the accuracy configurations) all curves are
    /// exact. The scaling benchmarks quantify its effect.
    pub fn thin_to(&mut self, max_points: usize) {
        if max_points == 0 || self.pts.len() <= max_points {
            return;
        }
        self.pts.sort_unstable_by_key(|a| a.load);
        let best_req_idx = self
            .pts
            .iter()
            .enumerate()
            .max_by(|a, b| ps_cmp(a.1.req, b.1.req))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let n = self.pts.len();
        let mut keep = vec![false; n];
        keep[0] = true;
        keep[n - 1] = true;
        keep[best_req_idx] = true;
        let remaining = max_points.saturating_sub(3).max(1);
        for k in 0..remaining {
            let idx = (k * (n - 1)) / remaining;
            keep[idx] = true;
        }
        let mut i = 0;
        self.pts.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Minimum load over the curve, if non-empty.
    pub fn min_load(&self) -> Option<Cap> {
        self.pts.iter().map(|p| p.load).min()
    }
}

impl FromIterator<CurvePoint> for Curve {
    fn from_iter<T: IntoIterator<Item = CurvePoint>>(iter: T) -> Self {
        let mut c = Curve {
            pts: iter.into_iter().collect(),
        };
        c.prune();
        c
    }
}

impl Extend<CurvePoint> for Curve {
    fn extend<T: IntoIterator<Item = CurvePoint>>(&mut self, iter: T) {
        self.pts.extend(iter);
        self.prune();
    }
}

impl<'a> IntoIterator for &'a Curve {
    type Item = &'a CurvePoint;
    type IntoIter = std::slice::Iter<'a, CurvePoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.pts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProvId {
        ProvId::new(i)
    }

    /// Brute-force O(s²) reference pruning.
    fn brute_prune(pts: &[CurvePoint]) -> Vec<CurvePoint> {
        let mut out: Vec<CurvePoint> = Vec::new();
        'outer: for (i, p) in pts.iter().enumerate() {
            for (j, q) in pts.iter().enumerate() {
                let strictly_better =
                    q.dominates(p) && (q.load != p.load || q.req != p.req || q.area != p.area);
                if strictly_better {
                    continue 'outer;
                }
                // exact duplicate: keep only first occurrence
                if j < i && q.load == p.load && q.req == p.req && q.area == p.area {
                    continue 'outer;
                }
            }
            out.push(*p);
        }
        out
    }

    fn assert_same_front(fast: &Curve, slow: &[CurvePoint]) {
        let mut a: Vec<_> = fast
            .iter()
            .map(|p| (p.load.units(), p.area, p.req.to_bits()))
            .collect();
        let mut b: Vec<_> = slow
            .iter()
            .map(|p| (p.load.units(), p.area, p.req.to_bits()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn prune_matches_brute_force_on_fixed_set() {
        let pts = vec![
            CurvePoint::new(10, 100.0, 5, pid(0)),
            CurvePoint::new(10, 100.0, 5, pid(1)), // duplicate
            CurvePoint::new(12, 99.0, 4, pid(2)),
            CurvePoint::new(8, 90.0, 9, pid(3)),
            CurvePoint::new(20, 120.0, 5, pid(4)),
            CurvePoint::new(20, 119.0, 6, pid(5)), // dominated by previous
            CurvePoint::new(5, 50.0, 0, pid(6)),
            CurvePoint::new(6, 50.0, 0, pid(7)), // dominated
        ];
        let mut c = Curve::new();
        for p in &pts {
            c.push(*p);
        }
        c.prune();
        assert!(c.is_pruned());
        assert_same_front(&c, &brute_prune(&pts));
    }

    #[test]
    fn prune_is_idempotent() {
        let mut c = Curve::new();
        for i in 0..50u32 {
            c.push(CurvePoint::new(
                (i * 7) % 23,
                ((i * 13) % 31) as f64,
                ((i * 5) % 11) as u64,
                pid(i),
            ));
        }
        c.prune();
        let once = c.clone();
        c.prune();
        assert_eq!(once, c);
    }

    #[test]
    fn merge_adds_loads_and_areas_and_mins_req() {
        let mut a = Curve::new();
        a.push(CurvePoint::new(10, 100.0, 1, pid(0)));
        let mut b = Curve::new();
        b.push(CurvePoint::new(20, 80.0, 2, pid(1)));
        let m = a.merged_with(&b, |_, _| pid(99));
        assert_eq!(m.len(), 1);
        let p = m.points()[0];
        assert_eq!(p.load, Cap(30));
        assert_eq!(p.req, 80.0);
        assert_eq!(p.area, 3);
        assert_eq!(p.prov, pid(99));
    }

    #[test]
    fn merge_is_commutative_up_to_provenance() {
        let mut a = Curve::new();
        a.push(CurvePoint::new(10, 100.0, 1, pid(0)));
        a.push(CurvePoint::new(5, 60.0, 0, pid(1)));
        let mut b = Curve::new();
        b.push(CurvePoint::new(7, 90.0, 2, pid(2)));
        b.push(CurvePoint::new(3, 70.0, 1, pid(3)));
        let ab = a.merged_with(&b, |_, _| pid(0));
        let ba = b.merged_with(&a, |_, _| pid(0));
        let key = |c: &Curve| {
            let mut v: Vec<_> = c
                .iter()
                .map(|p| (p.load.units(), p.area, p.req.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&ab), key(&ba));
    }

    #[test]
    fn extension_uses_old_load_for_elmore() {
        let wire = WireModel::synthetic_035();
        let mut c = Curve::new();
        c.push(CurvePoint::with_load(Cap::from_ff(40.0), 500.0, 0, pid(0)));
        let e = c.extended(&wire, 100, |p| p);
        assert_eq!(e.len(), 1);
        let p = e.points()[0];
        assert_eq!(p.load, Cap::from_ff(40.0) + wire.wire_cap(100));
        let expect = 500.0 - wire.elmore_ps(100, Cap::from_ff(40.0));
        assert!((p.req - expect).abs() < 1e-9);
    }

    #[test]
    fn buffer_options_keep_originals_when_non_inferior() {
        let lib = BufferLibrary::tiny_test();
        let mut c = Curve::new();
        c.push(CurvePoint::with_load(Cap::from_ff(500.0), 900.0, 0, pid(0)));
        let b = c.with_buffer_options(&lib, |_, p| p);
        // The huge unbuffered load means a buffered variant survives (small
        // load) alongside the original (best req, zero area).
        assert!(b.len() >= 2);
        assert!(b.iter().any(|p| p.area == 0));
        assert!(b.iter().any(|p| p.area > 0));
    }

    #[test]
    fn constraint_queries() {
        let mut c = Curve::new();
        c.push(CurvePoint::new(10, 100.0, 50, pid(0)));
        c.push(CurvePoint::new(10, 80.0, 20, pid(1)));
        c.push(CurvePoint::new(10, 60.0, 0, pid(2)));
        c.prune();
        assert_eq!(
            c.best_req_within_area(30)
                .expect("curve has a point within the area budget")
                .req,
            80.0
        );
        assert_eq!(
            c.best_req_within_area(0)
                .expect("curve has a point within the area budget")
                .req,
            60.0
        );
        assert!(
            c.best_req_within_area(u64::MAX)
                .expect("curve has a point within the area budget")
                .req
                == 100.0
        );
        assert_eq!(
            c.min_area_with_req(70.0)
                .expect("a point meets the required time")
                .area,
            20
        );
        assert!(c.min_area_with_req(1000.0).is_none());
    }

    #[test]
    fn thinning_respects_bounds_and_keeps_best() {
        let mut c = Curve::new();
        for i in 0..100u32 {
            // A genuine 2D front: increasing load, increasing req.
            c.push(CurvePoint::new(i, i as f64, (100 - i) as u64, pid(i)));
        }
        c.prune();
        assert_eq!(c.len(), 100);
        let best = c
            .best_req_within_area(u64::MAX)
            .expect("curve has a point within the area budget")
            .req;
        c.thin_to(10);
        assert!(c.len() <= 10 + 2);
        assert_eq!(
            c.best_req_within_area(u64::MAX)
                .expect("curve has a point within the area budget")
                .req,
            best
        );
    }

    #[test]
    fn absorb_unions_and_prunes() {
        let mut a = Curve::new();
        a.push(CurvePoint::new(10, 100.0, 5, pid(0)));
        let mut b = Curve::new();
        b.push(CurvePoint::new(10, 120.0, 5, pid(1)));
        a.absorb(b);
        assert_eq!(a.len(), 1);
        assert_eq!(a.points()[0].req, 120.0);
    }

    #[test]
    fn duplicate_triples_keep_the_lowest_provenance() {
        // Identical (load, req, area) triples: the total-order sort makes
        // the keep-first choice the lowest prov id, independent of input
        // order or surrounding points.
        for order in [[2u32, 0, 1], [0, 1, 2], [1, 2, 0]] {
            let mut c = Curve::new();
            for i in order {
                c.push(CurvePoint::new(10, 50.0, 5, pid(i)));
            }
            c.push(CurvePoint::new(3, 40.0, 5, pid(7)));
            c.prune();
            let dup = c
                .iter()
                .find(|p| p.load == Cap(10))
                .expect("one duplicate representative survives");
            assert_eq!(dup.prov, pid(0));
        }
    }

    #[test]
    fn exact_policy_reduce_is_identity() {
        let mut c = Curve::new();
        for i in 0..40u32 {
            c.push(CurvePoint::new(
                (i * 7) % 23,
                ((i * 13) % 31) as f64,
                ((i * 5) % 11) as u64,
                pid(i),
            ));
        }
        c.prune();
        let before = c.clone();
        c.reduce(PrunePolicy::EXACT);
        assert_eq!(before, c);
        c.reduce(PrunePolicy {
            load_quant: 0,
            rmin_ps_per_cap: -1.0,
        });
        assert_eq!(before, c, "degenerate dial values mean exact");
    }

    #[test]
    fn load_quantization_collapses_bucket_ties() {
        let mut c = Curve::new();
        // Loads 10 and 11 share a bucket at q=4; the higher-req one wins.
        c.push(CurvePoint::new(10, 90.0, 5, pid(0)));
        c.push(CurvePoint::new(11, 100.0, 5, pid(1)));
        // Load 13 sits in the next bucket and survives regardless.
        c.push(CurvePoint::new(13, 110.0, 5, pid(2)));
        c.prune();
        assert_eq!(c.len(), 3);
        c.reduce(PrunePolicy {
            load_quant: 4,
            rmin_ps_per_cap: 0.0,
        });
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|p| p.prov != pid(0)));
        assert!(c.check_invariants().is_ok(), "storage order restored");
    }

    #[test]
    fn predictive_rmin_charges_load() {
        let mut c = Curve::new();
        // Same area: p1 has 10 more load units and only 5 ps more req, so
        // under rmin = 1 ps/unit it is predictively dominated by p0.
        c.push(CurvePoint::new(10, 100.0, 5, pid(0)));
        c.push(CurvePoint::new(20, 105.0, 5, pid(1)));
        c.prune();
        assert_eq!(c.len(), 2);
        let mut quantized = c.clone();
        quantized.reduce(PrunePolicy {
            load_quant: 100,
            rmin_ps_per_cap: 0.0,
        });
        assert_eq!(quantized.len(), 1, "bucket-mates with equal area collapse");
        assert_eq!(
            quantized.points()[0].prov,
            pid(1),
            "without rmin the raw-req winner is kept"
        );
        c.reduce(PrunePolicy {
            load_quant: 100,
            rmin_ps_per_cap: 1.0,
        });
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.points()[0].prov,
            pid(0),
            "rmin charges the extra load, flipping the winner"
        );
    }

    #[test]
    fn reduce_result_is_subset_of_exact_front() {
        let mut state = 0xfeedbeefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = 1 + (next() % 80) as usize;
            let mut c = Curve::new();
            for i in 0..n {
                c.push(CurvePoint::new(
                    (next() % 64) as u32,
                    (next() % 64) as f64,
                    next() % 16,
                    pid(i as u32),
                ));
            }
            c.prune();
            let exact: Vec<_> = c
                .iter()
                .map(|p| (p.load.units(), p.area, p.req.to_bits(), p.prov.index()))
                .collect();
            c.reduce(PrunePolicy {
                load_quant: 8,
                rmin_ps_per_cap: 0.5,
            });
            assert!(!c.is_empty());
            assert!(c.check_invariants().is_ok());
            for p in c.iter() {
                let key = (p.load.units(), p.area, p.req.to_bits(), p.prov.index());
                assert!(exact.contains(&key), "reduce must not invent points");
            }
        }
    }

    #[test]
    fn randomized_prune_matches_brute_force() {
        // Deterministic pseudo-random stress (proptest covers more in the
        // suite-level tests; this keeps the crate self-contained).
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            let n = 1 + (next() % 60) as usize;
            let pts: Vec<CurvePoint> = (0..n)
                .map(|i| {
                    CurvePoint::new(
                        (next() % 16) as u32,
                        (next() % 16) as f64,
                        next() % 16,
                        pid(i as u32),
                    )
                })
                .collect();
            let mut c = Curve::new();
            for p in &pts {
                c.push(*p);
            }
            c.prune();
            assert!(c.is_pruned(), "round {round}");
            assert_same_front(&c, &brute_prune(&pts));
        }
    }
}
