//! Non-inferior solution curves and the DP operators over them.

use std::borrow::Cow;
use std::cmp::Ordering;

use merlin_tech::units::{ps_cmp, Cap, PsTime};
use merlin_tech::{BufferLibrary, WireModel};

use crate::arena::{ProvArena, ProvId};
use crate::point::CurvePoint;

/// The value part of the prune order: `(load, area, −req)`.
#[inline]
fn cmp_key(a: &CurvePoint, b: &CurvePoint) -> Ordering {
    a.load
        .cmp(&b.load)
        .then_with(|| a.area.cmp(&b.area))
        .then_with(|| ps_cmp(b.req, a.req))
}

/// The total order [`Curve::prune`] sorts by: `(load, area, −req, prov)`.
///
/// The provenance tie-break matters: `sort_unstable` would otherwise order
/// identical `(load, req, area)` triples by their incidental positions in
/// the input vector, making the keep-first duplicate choice depend on
/// which *other* candidates happened to be generated — and the predictive
/// generation filters in `merlin-core` legitimately shrink that set. With
/// a total order the pruned curve is a function of the point set alone.
#[inline]
fn cmp_total(a: &CurvePoint, b: &CurvePoint) -> Ordering {
    cmp_key(a, b).then_with(|| a.prov.index().cmp(&b.prov.index()))
}

/// Whether `pts` is in prune order (sorted under [`cmp_total`]), the
/// order every merge below relies on.
fn in_prune_order(pts: &[CurvePoint]) -> bool {
    pts.is_sorted_by(|a, b| cmp_total(a, b) != Ordering::Greater)
}

/// Feeds the points of `a` and `b`, each already sorted under `cmp`, to
/// `f` as one sorted sequence; `f` also learns whether a point came from
/// `b`. On ties `a` goes first.
#[inline(always)]
fn merge2(
    a: &[CurvePoint],
    b: &[CurvePoint],
    cmp: impl Fn(&CurvePoint, &CurvePoint) -> Ordering,
    mut f: impl FnMut(CurvePoint, bool),
) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(&a[i], &b[j]) == Ordering::Greater {
            f(b[j], true);
            j += 1;
        } else {
            f(a[i], false);
            i += 1;
        }
    }
    a[i..].iter().for_each(|&p| f(p, false));
    b[j..].iter().for_each(|&p| f(p, true));
}

/// One Definition-6 sweep step over points arriving in prune order: `p`
/// is inferior iff the floor corner at its area already reaches its req
/// (that corner's load and area are at or below the point's, by the sweep
/// order); otherwise it is accepted. Acceptance is final: no later point
/// can dominate an earlier one.
#[inline(always)]
fn admit(stair: &mut Stair<()>, p: &CurvePoint) -> bool {
    if stair.floor(p.area).is_some_and(|(_, r, ())| r >= p.req) {
        return false;
    }
    stair.accept(p.area, p.req, ());
    true
}

/// Publishes one Definition-6 sweep to the trace: `input` points entered
/// it and `kept` survived.
#[inline]
fn note_sweep(input: usize, kept: usize) {
    if merlin_trace::is_enabled() {
        merlin_trace::counter("curves.prune.calls", 1);
        merlin_trace::counter("curves.prune.in", input as u64);
        merlin_trace::counter("curves.pruned", input.saturating_sub(kept) as u64);
    }
}

/// Merges `a` and `b` (each sorted under `cmp`; ties take `a` first)
/// through one Definition-6 sweep. `keep(point, from_b)` sees each
/// survivor in order and returns the point to store.
fn merge_sweep(
    a: &[CurvePoint],
    b: &[CurvePoint],
    cmp: impl Fn(&CurvePoint, &CurvePoint) -> Ordering,
    mut keep: impl FnMut(CurvePoint, bool) -> CurvePoint,
) -> Vec<CurvePoint> {
    if crate::fault::trip("curves.prune") {
        return Vec::new();
    }
    let input = a.len() + b.len();
    let mut stair: Stair<()> = Stair::new();
    let mut out = Vec::with_capacity(input);
    merge2(a, b, cmp, |p, from_b| {
        if admit(&mut stair, &p) {
            out.push(keep(p, from_b));
        }
    });
    note_sweep(input, out.len());
    out
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
    /// by the invariant).
    #[inline]
    fn accept(&mut self, area: u64, req: f64, v: V) {
        let lo = self.corners.partition_point(|c| c.0 < area);
        let mut hi = lo;
        while hi < self.corners.len() && self.corners[hi].1 <= req {
            hi += 1;
        }
        if hi == lo {
            self.corners.insert(lo, (area, req, v));
        } else {
            self.corners[lo] = (area, req, v);
            if hi > lo + 1 {
                self.corners.drain(lo + 1..hi);
            }
        }
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
/// A curve owns its points and keeps them in prune order — sorted by
/// `(load, area, −req, provenance)` — after [`Curve::prune`] and every
/// operator. All dynamic programs in the workspace are built from the
/// operators here: [`push`](Curve::push) (base cases),
/// [`merged_with`](Curve::merged_with) (joining two subtrees at a common
/// point), [`extended`](Curve::extended) (prepending a wire),
/// [`with_buffer_options`](Curve::with_buffer_options) (optionally driving
/// the structure with each library buffer), and the union operators
/// [`absorb`](Curve::absorb) and
/// [`from_sorted_runs`](Curve::from_sorted_runs).
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
    /// `(load, area, −req, prov)` and swept once through the indexed
    /// [`Stair`], exactly the "pruning operation" of lines 19–20 of the
    /// paper's Figure 9. Survivors are compacted in place — no output
    /// vector, no per-point allocations. Lemma 9: no non-inferior solution
    /// is lost.
    pub fn prune(&mut self) {
        if crate::fault::trip("curves.prune") {
            self.pts.clear();
            return;
        }
        let input = self.pts.len();
        if input <= 1 {
            return;
        }
        self.pts.sort_unstable_by(cmp_total);
        let mut stair: Stair<()> = Stair::new();
        let mut w = 0usize;
        for i in 0..input {
            let p = self.pts[i];
            if admit(&mut stair, &p) {
                self.pts[w] = p;
                w += 1;
            }
        }
        self.pts.truncate(w);
        note_sweep(input, w);
        self.debug_check_noninferior("prune");
    }

    /// Builds the pruned union of sorted runs without sorting: run `r` is
    /// `pts[ends[r - 1]..ends[r]]` (the first starts at 0), and each must
    /// already be in prune order. Adjacent runs that are already in order
    /// are joined as they stand; the rest are merged pairwise (ties take
    /// the earlier run), and the last merge feeds one Definition-6 sweep.
    /// The result equals pushing all of `pts` and calling
    /// [`Curve::prune`], for `O(n log k)` instead of `O(n log n)`.
    pub fn from_sorted_runs(pts: &[CurvePoint], ends: &[usize]) -> Curve {
        // Coalesced run ends: a boundary stays only where the order breaks.
        let mut runs: Vec<usize> = Vec::with_capacity(ends.len());
        let mut start = 0;
        for &end in ends {
            if end > start {
                debug_assert!(
                    in_prune_order(&pts[start..end]),
                    "from_sorted_runs: run {start}..{end} is not in prune order"
                );
                match runs.last_mut() {
                    Some(last) if cmp_total(&pts[start - 1], &pts[start]) != Ordering::Greater => {
                        *last = end;
                    }
                    _ => runs.push(end),
                }
            }
            start = end;
        }
        let total = runs.last().copied().unwrap_or(0);
        let mut cur = Cow::Borrowed(&pts[..total]);
        while runs.len() > 2 {
            let mut next = Vec::with_capacity(total);
            let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
            let mut start = 0;
            for pair in runs.chunks(2) {
                let mid = pair[0];
                let end = pair.last().copied().unwrap_or(mid);
                merge2(&cur[start..mid], &cur[mid..end], cmp_total, |p, _| {
                    next.push(p);
                });
                merged.push(end);
                start = end;
            }
            cur = Cow::Owned(next);
            runs = merged;
        }
        let mid = runs.first().copied().unwrap_or(0);
        Curve {
            pts: merge_sweep(&cur[..mid], &cur[mid..], cmp_total, |p, _| p),
        }
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
        #[expect(clippy::panic, reason = "this is the invariant checker")]
        if let Err(e) = self.check_invariants() {
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

    /// The `*` of `*PTREE` and the buffer step of every DP: adds, for each
    /// library buffer `library[select[k]]`, the option of driving each
    /// solution with that buffer (load collapses to the buffer input
    /// capacitance, required time shrinks by the buffer delay into the old
    /// load, area grows by the buffer area). The unbuffered originals are
    /// kept, and `policy` is applied to the options and again to the
    /// union. With `enforce_max_load`, a buffer is not offered above its
    /// `max_load`. The curve must be in prune order.
    ///
    /// Li & Shi form: every option of one buffer drives the same load, so
    /// the options of buffer `k` that survive among themselves are exactly
    /// the (area ↑, req ↑) staircase of `(area + A_k, req − d_k(load))`
    /// over the curve sorted by area — one `O(s)` pass per buffer after a
    /// single `O(s log s)` sort, and no option a same-buffer option
    /// dominates is ever materialized. The staircases, each already in
    /// prune order, are merged and swept once; the survivors are merged
    /// with the originals and swept once more.
    ///
    /// `step(buffer index, child provenance)` is called only for options
    /// that survive the union, in prune order, and returns the option's
    /// provenance. Exact ties keep the same winners as pruning the
    /// originals plus all `s × b` raw options generated buffer-major in
    /// `select` order: the original first, then the earlier buffer, then
    /// the earlier point in storage order.
    pub fn with_buffer_options<F>(
        &self,
        library: &BufferLibrary,
        select: &[u16],
        enforce_max_load: bool,
        policy: PrunePolicy,
        mut step: F,
    ) -> Curve
    where
        F: FnMut(u16, ProvId) -> ProvId,
    {
        debug_assert!(
            in_prune_order(&self.pts),
            "with_buffer_options needs a curve in prune order"
        );
        if self.is_empty() {
            return Curve::new();
        }
        let s = self.pts.len();
        let s32 = u32::try_from(s).expect("curve size fits a provenance index");
        // Storage positions by (area, position): per buffer, option area
        // grows with the original's area, and equal areas keep the earlier
        // point first.
        let mut by_area: Vec<u32> = (0..s32).collect();
        by_area.sort_unstable_by_key(|&i| (self.pts[i as usize].area, i));
        // Options carry `k·s + position` as provenance until they survive:
        // unique, and ordered like buffer-major generation.
        let mut options: Vec<CurvePoint> = Vec::with_capacity(s * select.len());
        let mut ends: Vec<usize> = Vec::with_capacity(select.len());
        let mut base = 0u32;
        for &bi in select {
            let buf = &library[usize::from(bi)];
            let start = options.len();
            for &i in &by_area {
                let p = &self.pts[i as usize];
                if enforce_max_load && p.load > buf.max_load {
                    continue;
                }
                let cand = CurvePoint {
                    load: buf.cin,
                    req: p.req - buf.delay_linear_ps(p.load),
                    area: p.area + buf.area,
                    prov: ProvId::new(base + i),
                };
                match options[start..].last_mut() {
                    // Same area as the last step: the higher req wins, and
                    // the earlier point on a tie (the prune sort's order).
                    Some(last) if last.area == cand.area => {
                        if ps_cmp(cand.req, last.req) == Ordering::Greater {
                            *last = cand;
                        }
                    }
                    // Larger area: a new step only if it raises the req.
                    Some(last) if last.req >= cand.req => {}
                    _ => options.push(cand),
                }
            }
            ends.push(options.len());
            base += s32;
        }
        let mut options = Curve::from_sorted_runs(&options, &ends);
        options.reduce(policy);
        // The union: on an exact tie the original (the older solution)
        // wins, so only options that survive here get a provenance step.
        let pts = merge_sweep(&self.pts, &options.pts, cmp_key, |mut p, option| {
            if option {
                let id = p.prov.index();
                p.prov = step(select[id / s], self.pts[id % s].prov);
            }
            p
        });
        let mut out = Curve { pts };
        out.reduce(policy);
        out.debug_check_noninferior("with_buffer_options");
        out
    }

    /// Merges another curve's points into this one in place, re-pruning.
    ///
    /// Both curves must be in prune order (every operator leaves its
    /// output so), which makes this one linear merge plus one
    /// Definition-6 sweep instead of a sort; the result equals pruning the
    /// concatenation.
    pub fn absorb(&mut self, other: &Curve) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.pts.clone_from(&other.pts);
            return;
        }
        debug_assert!(
            in_prune_order(&self.pts) && in_prune_order(&other.pts),
            "absorb needs both curves in prune order"
        );
        self.pts = merge_sweep(&self.pts, &other.pts, cmp_total, |p, _| p);
        self.debug_check_noninferior("absorb");
    }

    /// Re-homes pending provenance: each point's `prov` indexes `pending`,
    /// and becomes the handle of a fresh `arena` step holding that entry.
    /// Steps are pushed in storage order, so only the points that reached
    /// this call allocate steps, and the curve's order and values do not
    /// change.
    pub fn finalize<S: Copy>(&mut self, pending: &[S], arena: &mut ProvArena<S>) {
        for p in &mut self.pts {
            p.prov = arena.push(pending[p.prov.index()]);
        }
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
    ///
    /// The curve must be in prune order, which it keeps: the kept points
    /// stay in storage order.
    pub fn thin_to(&mut self, max_points: usize) {
        if max_points == 0 || self.pts.len() <= max_points {
            return;
        }
        debug_assert!(
            in_prune_order(&self.pts),
            "thin_to needs a curve in prune order"
        );
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
#[expect(clippy::cast_possible_truncation, reason = "test indices are small")]
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
        let select: Vec<u16> = (0..lib.len() as u16).collect();
        let b = c.with_buffer_options(&lib, &select, false, PrunePolicy::EXACT, |_, p| p);
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
        a.absorb(&b);
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
