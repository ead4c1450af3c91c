//! `*PTREE`: the buffered P-Tree DP over a child sequence (§3.2.3).
//!
//! Children are sinks or inner-group terminals; solutions are
//! three-dimensional `(load, required time, buffer area)` curves, one per
//! candidate root location. Per paper recursion:
//!
//! ```text
//! S_b(e,p,i,j) = min S(e',p,i,u) ⊗ S(e'',p,u+1,j)       (merge at p)
//! S(e,p,i,j)   = min( S_b(e,p,i,j), d(p,p') + S(e,p',i,j) )  (relocation)
//! ```
//!
//! with every structure optionally driven by each library buffer at its
//! root (that is the `*` in `*PTREE`: buffers sit on the Steiner points).
//! The relocation recursion is truncated to a configurable number of hops
//! per level ([`crate::MerlinConfig::relocation_rounds`]); deeper buffer
//! chains still arise across hierarchy levels.
//!
//! **Lemma 7 (sub-problem sharing)** is implemented by [`StarCache`]: curve
//! families are memoized by the *content* of the child subsequence, so a
//! sub-problem shared by any number of grouping configurations is solved
//! exactly once within one `BUBBLE_CONSTRUCT` pass — across its levels and
//! its windows, and so across the members of the neighborhood that pass
//! covers. Sharing stops at the pass: each MERLIN iteration builds a fresh
//! cache, and a group child names window positions, so nothing carries
//! over to the next order.
//!
//! The root-buffer options come from [`Curve::with_buffer_options`], which
//! builds one staircase per buffer and merges them instead of sorting all
//! `s × b` raw options; relocation merges its wire-shifted source curves
//! the same way ([`shifted_sources`]).
//!
//! **Provenance steps exist only for points that survive thinning.** Each
//! site — a root's merges, its root buffers, one relocation round at a
//! root — records the steps of its new points as *pending*, numbered on
//! from the arena's next handle so that they sort above every live one,
//! and gives arena steps ([`Curve::finalize`]) only to the points left
//! after its last thin, plus the pending steps those build on. Sites
//! finalize in the order they run, and within a site no tie-break ever
//! compares two of its surviving points by provenance (they leave the
//! site in one pruned and reduced curve, so no two share a `(load, area)`
//! or a reduced key), so curves and extracted trees are those of an
//! engine that stores every step.
//!
//! One [`Scratch`] per run (or per level-shard worker) holds the buffers
//! every operator call reuses, so the inner loop allocates only the
//! curves it keeps.

use std::collections::HashMap;
use std::sync::Arc;

use merlin_curves::{Curve, CurvePoint, CurveScratch, ProvArena, ProvId, PrunePolicy};
use merlin_geom::{manhattan, Point};
use merlin_tech::units::{rc_ps, Cap, PsTime};
use merlin_tech::{Technology, WireModel};

use crate::chi::Window;
use crate::children::Child;
use crate::extract::Step;

/// The two cheapest-to-maintain dominators over already-kept candidates:
/// the best-required-time point and the smallest-area point.
///
/// [`Champions::dominates`] is a sufficient (never necessary) Definition-6
/// test — predictive pruning in the Li & Shi sense: anything it rejects
/// would be killed by the prune sweep anyway, so provably-doomed
/// candidates are skipped before they enter a raw curve or allocate a
/// pending provenance step. Because pending ids stay in generation order
/// and the prune order is a total order with a provenance tie-break, the
/// pruned curve is byte-identical with the filter on or off.
#[derive(Debug, Default)]
struct Champions {
    best_req: Option<CurvePoint>,
    min_area: Option<CurvePoint>,
}

impl Champions {
    /// Champions over the points of an already-kept curve (candidates
    /// later absorbed into `seed` compete against its points too, and the
    /// absorb-side representative always carries the older provenance).
    fn seeded(seed: &Curve) -> Self {
        let mut c = Champions::default();
        for p in seed.iter() {
            c.keep(p);
        }
        c
    }

    /// Whether an already-kept candidate dominates `cand` (Definition 6).
    #[inline]
    fn dominates(&self, cand: &CurvePoint) -> bool {
        self.best_req.is_some_and(|c| c.dominates(cand))
            || self.min_area.is_some_and(|c| c.dominates(cand))
    }

    /// Records a kept candidate.
    #[inline]
    fn keep(&mut self, cand: &CurvePoint) {
        if self.best_req.is_none_or(|c| cand.req > c.req) {
            self.best_req = Some(*cand);
        }
        if self.min_area.is_none_or(|c| cand.area < c.area) {
            self.min_area = Some(*cand);
        }
    }
}

/// Electrical view of one sink (original index space).
#[derive(Clone, Copy, Debug)]
pub struct SinkView {
    /// Location.
    pub pos: Point,
    /// Pin capacitance.
    pub load: Cap,
    /// Required time.
    pub req: PsTime,
}

/// One solution curve per candidate root location.
pub type CurveFam = Arc<Vec<Curve>>;

/// Memo table keyed by child-subsequence content (Lemma 7).
#[derive(Debug, Default)]
pub struct StarCache {
    map: HashMap<Box<[Child]>, CurveFam>,
    hits: u64,
    misses: u64,
}

impl StarCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        StarCache::default()
    }

    /// `(hits, misses)` counters, for the scaling experiments.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of memoized subsequences.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Everything `*PTREE` needs that is constant across one
/// `BUBBLE_CONSTRUCT` run.
#[derive(Debug)]
pub struct StarCtx<'a> {
    /// Technology (wire model + full library).
    pub tech: &'a Technology,
    /// Candidate locations `P`.
    pub cands: &'a [Point],
    /// Sink views by original index.
    pub sinks: &'a [SinkView],
    /// Selected library indices (possibly a thinned subset).
    pub lib_sel: &'a [u16],
    /// Curve thinning bound (0 = exact).
    pub max_pts: usize,
    /// Relocation rounds per range.
    pub reloc_rounds: u8,
    /// For each candidate, the indices of the candidates it may relocate
    /// from (nearest first). Empty inner vectors mean "all candidates".
    pub neighbors: &'a [Vec<u16>],
    /// Reject buffer options whose driven load exceeds the cell's
    /// `max_load` (off in the paper's formulation).
    pub enforce_max_load: bool,
    /// Post-prune load-quantization / predictive-pruning dial applied to
    /// every curve the DP builds ([`PrunePolicy::EXACT`] = lossless).
    pub policy: PrunePolicy,
    /// Relocation wires: `hops[to * k + from]` for the `k` candidates
    /// ([`hop_table`]).
    pub hops: &'a [Hop],
}

/// The wire of one relocation hop between two candidates, evaluated once
/// per run: its capacitance, its resistance, and half its capacitance in
/// fF.
#[derive(Clone, Copy, Debug)]
pub struct Hop {
    cap: Cap,
    res_ohm: f64,
    half_cap_ff: f64,
}

impl Hop {
    fn new(wire: &WireModel, len: u64) -> Self {
        let cap = wire.wire_cap(len);
        Hop {
            cap,
            res_ohm: wire.wire_res(len),
            half_cap_ff: cap.to_ff() / 2.0,
        }
    }

    /// The Elmore delay of this wire into `load`, with
    /// [`WireModel::elmore_ps`]'s own arithmetic, so to the bit.
    #[inline]
    fn delay_ps(&self, load: Cap) -> PsTime {
        rc_ps(self.res_ohm, self.half_cap_ff + load.to_ff())
    }
}

/// The `k × k` relocation wires over `cands` (see [`StarCtx::hops`]).
pub fn hop_table(wire: &WireModel, cands: &[Point]) -> Vec<Hop> {
    cands
        .iter()
        .flat_map(|&to| {
            cands
                .iter()
                .map(move |&from| Hop::new(wire, manhattan(to, from)))
        })
        .collect()
}

/// The pending steps of the site being built. Pending ids number on from
/// the arena's next handle, `first`, so they sort above every live one.
#[derive(Debug, Default)]
struct Pending {
    first: usize,
    steps: Vec<Step>,
}

impl Pending {
    /// Starts a site.
    fn open(&mut self, arena: &ProvArena<Step>) {
        self.first = arena.next_index();
        self.steps.clear();
    }

    /// Records a pending step and returns its pending id.
    fn push(&mut self, step: Step) -> ProvId {
        let id = ProvId::from_index(self.first + self.steps.len());
        self.steps.push(step);
        id
    }
}

/// The buffers one `BUBBLE_CONSTRUCT` run, or one level-shard worker,
/// reuses across its `*PTREE` operator calls: the curve operators'
/// scratch, the raw candidates of the merge loop and of relocation with
/// the latter's run ends, and the pending steps of the site being built.
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) curves: CurveScratch,
    raw: Curve,
    ends: Vec<usize>,
    pending: Pending,
}

impl Scratch {
    /// Gives `c`'s pending points, and the pending steps they build on,
    /// arena steps.
    fn finalize(&mut self, c: &mut Curve, arena: &mut ProvArena<Step>) {
        c.finalize(
            self.pending.first,
            &self.pending.steps,
            arena,
            &mut self.curves,
        );
    }
}

/// The Γ tables: finalized curve families of already-constructed groups,
/// keyed by `(covered, shape index, right)`.
#[derive(Debug, Default)]
pub struct Gamma {
    map: HashMap<(u16, u8, u16), CurveFam>,
}

impl Gamma {
    /// Creates an empty table.
    pub fn new() -> Self {
        Gamma::default()
    }

    /// Stores the curves of the group over `window`.
    pub fn insert(&mut self, window: Window, fam: CurveFam) {
        self.map.insert(window.gamma_key(), fam);
    }

    /// Fetches the curves of group `(l, e, r)`.
    ///
    /// # Panics
    ///
    /// Panics if the group has not been constructed yet (the bottom-up
    /// level order guarantees availability).
    #[expect(
        clippy::panic,
        reason = "Γ entries are filled in dependency order, so a missing one is a \
                  construction-order bug worth dying loudly on"
    )]
    pub fn get(&self, l: u16, e: u8, r: u16) -> CurveFam {
        Arc::clone(
            self.map
                .get(&(l, e, r))
                .unwrap_or_else(|| panic!("Γ({l},{e},{r}) not constructed yet")),
        )
    }

    /// Number of stored groups.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no group has been stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total stored curve points (memory proxy for Theorem 5 experiments).
    pub fn total_points(&self) -> usize {
        self.map
            .values()
            .map(|fam| fam.iter().map(Curve::len).sum::<usize>())
            .sum()
    }
}

/// Computes (or fetches) the curve family for a full child sequence.
pub fn range_curves(
    ctx: &StarCtx<'_>,
    children: &[Child],
    gamma: &Gamma,
    cache: &mut StarCache,
    arena: &mut ProvArena<Step>,
    scratch: &mut Scratch,
) -> CurveFam {
    if let Some(hit) = cache.map.get(children) {
        cache.hits += 1;
        return Arc::clone(hit);
    }
    cache.misses += 1;
    let fam = compute_range(ctx, children, gamma, cache, arena, scratch);
    cache
        .map
        .insert(children.to_vec().into_boxed_slice(), Arc::clone(&fam));
    fam
}

fn compute_range(
    ctx: &StarCtx<'_>,
    children: &[Child],
    gamma: &Gamma,
    cache: &mut StarCache,
    arena: &mut ProvArena<Step>,
    scratch: &mut Scratch,
) -> CurveFam {
    let k = ctx.cands.len();
    // A singleton group range IS the group: its Γ family already received
    // buffer options and relocation when it was constructed, so it must be
    // returned as-is. Re-applying the pipeline here would give groups a
    // deeper relocation/buffer chain than the equivalent plain-sink leaf,
    // breaking the neighborhood-coverage symmetry of Theorem 4 (a
    // fixed-order run could then beat the bubbled run by using singleton
    // groups where the bubbled decomposition needs plain leaves).
    if let [Child::Group { l, e, r }] = children {
        return gamma.get(*l, *e, *r);
    }
    // M(p): merged (or base) structures rooted at p, before root buffers.
    let mut m: Vec<Curve> = match children {
        [] => return Arc::new(vec![Curve::new(); k]),
        [single] => base_curves(ctx, *single, gamma, arena),
        _ => {
            let mut m = Vec::with_capacity(k);
            // All splits; sub-ranges come from the cache (recursively).
            let splits: Vec<(CurveFam, CurveFam)> = (1..children.len())
                .map(|u| {
                    let left = range_curves(ctx, &children[..u], gamma, cache, arena, scratch);
                    let right = range_curves(ctx, &children[u..], gamma, cache, arena, scratch);
                    (left, right)
                })
                .collect();
            let traced = merlin_trace::is_enabled();
            let mut skipped = 0u64;
            for p in 0..k {
                scratch.pending.open(arena);
                let raw = &mut scratch.raw;
                raw.clear();
                let mut champs = Champions::default();
                for (left, right) in &splits {
                    for a in left[p].iter() {
                        // Once `b.req >= a.req` the merged required time
                        // saturates at `a.req`, so among saturated `b`s
                        // only area improvements can matter: `cap_area`
                        // is the smallest saturated area seen for this
                        // `a`, and anything at or above it is dominated
                        // by that earlier merge (predictive pruning).
                        let mut cap_area = u64::MAX;
                        for b in right[p].iter() {
                            if b.req >= a.req {
                                if b.area >= cap_area {
                                    skipped += 1;
                                    continue;
                                }
                                cap_area = b.area;
                            }
                            let mut cand = CurvePoint {
                                load: a.load + b.load,
                                req: a.req.min(b.req),
                                area: a.area + b.area,
                                prov: ProvId::new(0), // pending id below, once kept
                            };
                            if champs.dominates(&cand) {
                                skipped += 1;
                                continue;
                            }
                            champs.keep(&cand);
                            cand.prov = scratch.pending.push(Step::Merge {
                                left: a.prov,
                                right: b.prov,
                            });
                            raw.push(cand);
                        }
                    }
                }
                raw.prune_with(&mut scratch.curves);
                raw.reduce(ctx.policy, &mut scratch.curves);
                raw.thin_to(ctx.max_pts);
                let mut c = raw.clone();
                scratch.finalize(&mut c, arena);
                m.push(c);
            }
            if traced {
                merlin_trace::counter("curves.prune.predictive.merge", skipped);
            }
            m
        }
    };

    // Root buffer options at every candidate.
    for c in &mut m {
        scratch.pending.open(arena);
        *c = buffered(ctx, c, scratch);
        c.thin_to(ctx.max_pts);
        scratch.finalize(c, arena);
    }

    // Relocation rounds: wire p → p' on top of the previous round, with
    // buffer options above the wire.
    let traced = merlin_trace::is_enabled();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "nets have < 2^16 candidate points"
    )]
    let all: Vec<u16> = (0..k as u16).collect();
    for _ in 0..ctx.reloc_rounds {
        let snapshot = m.clone();
        let mut skipped = 0u64;
        for (pi, c) in m.iter_mut().enumerate() {
            let sources: &[u16] = if ctx.neighbors.is_empty() || ctx.neighbors[pi].is_empty() {
                &all
            } else {
                &ctx.neighbors[pi]
            };
            scratch.pending.open(arena);
            // Champions only over the additions themselves: `additions`
            // is buffered *after* its prune, and a wire extension that a
            // point of `c` dominates can still contribute a surviving
            // buffered variant — filtering against `c` here would not be
            // byte-identical. (Within `additions`, domination survives
            // the buffer transform, so the filter is exact.)
            let mut additions = shifted_sources(
                ctx,
                &snapshot,
                sources.iter().map(|&q| usize::from(q)),
                pi,
                Champions::default(),
                scratch,
                &mut skipped,
            );
            additions.reduce(ctx.policy, &mut scratch.curves);
            additions.thin_to(ctx.max_pts);
            let additions = buffered(ctx, &additions, scratch);
            c.absorb(&additions, &mut scratch.curves);
            c.reduce(ctx.policy, &mut scratch.curves);
            c.thin_to(ctx.max_pts);
            scratch.finalize(c, arena);
        }
        if traced {
            merlin_trace::counter("curves.prune.predictive.extend", skipped);
        }
    }
    // The family lives in the cache for the rest of the pass.
    for c in &mut m {
        c.shrink_to_fit();
    }
    Arc::new(m)
}

/// Base curves for a single terminal, per candidate root.
fn base_curves(
    ctx: &StarCtx<'_>,
    child: Child,
    gamma: &Gamma,
    arena: &mut ProvArena<Step>,
) -> Vec<Curve> {
    match child {
        Child::Sink(s) => {
            let sink = &ctx.sinks[s as usize];
            ctx.cands
                .iter()
                .enumerate()
                .map(|(pi, &p)| {
                    let len = manhattan(p, sink.pos);
                    let mut c = Curve::with_capacity(1);
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "nets have < 2^16 candidate points"
                    )]
                    // audit:allow(push-without-prune): one point is trivially non-inferior.
                    c.push(CurvePoint::with_load(
                        sink.load + ctx.tech.wire.wire_cap(len),
                        sink.req - ctx.tech.wire.elmore_ps(len, sink.load),
                        0,
                        arena.push(Step::Route {
                            sink: s,
                            from: pi as u16,
                        }),
                    ));
                    c
                })
                .collect()
        }
        Child::Group { l, e, r } => (*gamma.get(l, e, r)).clone(),
    }
}

/// The last relocation hop of a pass, with no buffers above it: every
/// structure of `fam` rooted elsewhere, wired to candidate `to` and
/// absorbed into `curve` (what became of `fam[to]`). Returns how many
/// extensions the champions skipped.
pub(crate) fn final_hop(
    ctx: &StarCtx<'_>,
    fam: &[Curve],
    to: usize,
    curve: &mut Curve,
    arena: &mut ProvArena<Step>,
    scratch: &mut Scratch,
) -> u64 {
    let mut skipped = 0u64;
    scratch.pending.open(arena);
    // Extensions dominated by `curve` (or by an earlier kept extension)
    // cannot survive the absorb below. Seeding from the absorb target is
    // sound here because nothing transforms the additions between their
    // prune and the absorb, and the target's points carry live ids, below
    // every pending one, so they win exact ties either way.
    let mut additions = shifted_sources(
        ctx,
        fam,
        0..fam.len(),
        to,
        Champions::seeded(curve),
        scratch,
        &mut skipped,
    );
    additions.reduce(ctx.policy, &mut scratch.curves);
    curve.absorb(&additions, &mut scratch.curves);
    curve.reduce(ctx.policy, &mut scratch.curves);
    scratch.finalize(curve, arena);
    skipped
}

/// Adds buffer options (selected library subset) at the curve's root;
/// keeps the unbuffered originals. Each option that survives the union
/// with the originals gets a pending `Step::Buffer` in the open site.
fn buffered(ctx: &StarCtx<'_>, curve: &Curve, scratch: &mut Scratch) -> Curve {
    let pending = &mut scratch.pending;
    curve.with_buffer_options(
        &ctx.tech.library,
        ctx.lib_sel,
        ctx.enforce_max_load,
        ctx.policy,
        &mut scratch.curves,
        |buf, child| pending.push(Step::Buffer { buf, child }),
    )
}

/// Every point of each source curve `curves[q]`, `q` in `sources`, driven
/// over a wire from candidate `to` (sources that are `to` itself or empty
/// are skipped), as one pruned curve. Its points carry pending ids, each
/// for its `Step::Extend` in the open site. `champs` skips candidates that
/// an already-kept one dominates, adding them to `skipped`.
///
/// A wire shift keeps a pruned curve in prune order: every load grows by
/// the same wire cap, areas do not change, and points of equal load lose
/// equal req. So each source is one sorted run, and the runs are merged
/// ([`Curve::from_sorted_runs`]) instead of sorted. (The shift does not
/// keep the run pruned: a heavier point loses more req.)
fn shifted_sources(
    ctx: &StarCtx<'_>,
    curves: &[Curve],
    sources: impl IntoIterator<Item = usize>,
    to: usize,
    mut champs: Champions,
    scratch: &mut Scratch,
    skipped: &mut u64,
) -> Curve {
    let k = ctx.cands.len();
    let to16 = u16::try_from(to).expect("candidate indices fit u16");
    let Scratch {
        curves: curve_scratch,
        raw,
        ends,
        pending,
    } = scratch;
    raw.clear();
    ends.clear();
    for qi in sources {
        let src = &curves[qi];
        if qi == to || src.is_empty() {
            continue;
        }
        let hop = &ctx.hops[to * k + qi];
        for a in src.iter() {
            let mut cand = CurvePoint {
                load: a.load + hop.cap,
                req: a.req - hop.delay_ps(a.load),
                area: a.area,
                prov: ProvId::new(0), // pending id below, once kept
            };
            if champs.dominates(&cand) {
                *skipped += 1;
                continue;
            }
            champs.keep(&cand);
            cand.prov = pending.push(Step::Extend {
                to: to16,
                child: a.prov,
            });
            raw.push(cand);
        }
        ends.push(raw.len());
    }
    Curve::from_sorted_runs(raw.points(), ends, curve_scratch)
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test indices are small")]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::tiny_test()
    }

    fn views() -> Vec<SinkView> {
        vec![
            SinkView {
                pos: Point::new(1000, 0),
                load: Cap::from_ff(10.0),
                req: 1000.0,
            },
            SinkView {
                pos: Point::new(0, 1000),
                load: Cap::from_ff(20.0),
                req: 900.0,
            },
        ]
    }

    fn run(children: &[Child], reloc: u8) -> (CurveFam, StarCache, ProvArena<Step>) {
        let tech = tech();
        let cands = vec![Point::new(0, 0), Point::new(1000, 0), Point::new(0, 1000)];
        let sinks = views();
        let lib_sel: Vec<u16> = (0..tech.library.len() as u16).collect();
        let hops = hop_table(&tech.wire, &cands);
        let ctx = StarCtx {
            tech: &tech,
            cands: &cands,
            sinks: &sinks,
            lib_sel: &lib_sel,
            max_pts: 0,
            reloc_rounds: reloc,
            neighbors: &[],
            enforce_max_load: false,
            policy: PrunePolicy::EXACT,
            hops: &hops,
        };
        let gamma = Gamma::new();
        let mut cache = StarCache::new();
        let mut arena = ProvArena::new();
        let fam = range_curves(
            &ctx,
            children,
            &gamma,
            &mut cache,
            &mut arena,
            &mut Scratch::default(),
        );
        (fam, cache, arena)
    }

    #[test]
    fn base_sink_curve_has_direct_and_buffered_options() {
        let (fam, _, _) = run(&[Child::Sink(0)], 0);
        // Root at candidate 1 == sink position: zero wire.
        let at_sink = &fam[1];
        assert!(!at_sink.is_empty());
        assert!(at_sink.iter().any(|p| p.area == 0));
        assert!(at_sink.iter().any(|p| p.area > 0));
        let direct = at_sink
            .iter()
            .find(|p| p.area == 0)
            .expect("the direct unbuffered solution is always kept");
        assert_eq!(direct.load, Cap::from_ff(10.0));
        assert_eq!(direct.req, 1000.0);
    }

    #[test]
    fn merge_of_two_sinks_sums_loads() {
        let (fam, _, _) = run(&[Child::Sink(0), Child::Sink(1)], 0);
        let at_origin = &fam[0];
        assert!(!at_origin.is_empty());
        // The fully unbuffered merge: both wires from origin.
        let unbuffered: Vec<_> = at_origin.iter().filter(|p| p.area == 0).collect();
        assert!(!unbuffered.is_empty());
        let wire = Technology::tiny_test().wire;
        let expect_load = Cap::from_ff(30.0) + wire.wire_cap(1000) + wire.wire_cap(1000);
        assert!(unbuffered.iter().any(|p| p.load == expect_load));
    }

    #[test]
    fn cache_shares_identical_subsequences() {
        let tech = tech();
        let cands = vec![Point::new(0, 0), Point::new(1000, 0), Point::new(0, 1000)];
        let sinks = views();
        let lib_sel: Vec<u16> = vec![0];
        let hops = hop_table(&tech.wire, &cands);
        let ctx = StarCtx {
            tech: &tech,
            cands: &cands,
            sinks: &sinks,
            lib_sel: &lib_sel,
            max_pts: 0,
            reloc_rounds: 0,
            neighbors: &[],
            enforce_max_load: false,
            policy: PrunePolicy::EXACT,
            hops: &hops,
        };
        let gamma = Gamma::new();
        let mut cache = StarCache::new();
        let mut arena = ProvArena::new();
        let mut scratch = Scratch::default();
        let seq = [Child::Sink(0), Child::Sink(1)];
        let a = range_curves(&ctx, &seq, &gamma, &mut cache, &mut arena, &mut scratch);
        let before = cache.stats();
        let b = range_curves(&ctx, &seq, &gamma, &mut cache, &mut arena, &mut scratch);
        let after = cache.stats();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(after.0, before.0 + 1, "second call must be a hit");
    }

    #[test]
    fn relocation_can_only_help() {
        let (f0, _, _) = run(&[Child::Sink(0), Child::Sink(1)], 0);
        let (f1, _, _) = run(&[Child::Sink(0), Child::Sink(1)], 1);
        for p in 0..3 {
            let best0 = f0[p]
                .iter()
                .map(|x| x.req)
                .fold(f64::NEG_INFINITY, f64::max);
            let best1 = f1[p]
                .iter()
                .map(|x| x.req)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(best1 >= best0 - 1e-9, "p={p}: {best1} < {best0}");
        }
    }

    #[test]
    fn empty_children_yield_empty_curves() {
        let (fam, _, _) = run(&[], 0);
        assert!(fam.iter().all(Curve::is_empty));
    }
}
