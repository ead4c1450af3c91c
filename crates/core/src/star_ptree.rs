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

use std::collections::HashMap;
use std::sync::Arc;

use merlin_curves::{Curve, CurvePoint, ProvArena, ProvId, PrunePolicy};
use merlin_geom::{manhattan, Point};
use merlin_tech::units::{Cap, PsTime};
use merlin_tech::Technology;

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
pub(crate) struct Champions {
    best_req: Option<CurvePoint>,
    min_area: Option<CurvePoint>,
}

impl Champions {
    /// Champions over the points of an already-kept curve (candidates
    /// later absorbed into `seed` compete against its points too, and the
    /// absorb-side representative always carries the older provenance).
    pub(crate) fn seeded(seed: &Curve) -> Self {
        let mut c = Champions::default();
        for p in seed.iter() {
            c.keep(p);
        }
        c
    }

    /// Whether an already-kept candidate dominates `cand` (Definition 6).
    #[inline]
    pub(crate) fn dominates(&self, cand: &CurvePoint) -> bool {
        self.best_req.is_some_and(|c| c.dominates(cand))
            || self.min_area.is_some_and(|c| c.dominates(cand))
    }

    /// Records a kept candidate.
    #[inline]
    pub(crate) fn keep(&mut self, cand: &CurvePoint) {
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

    /// Stores the curves of group `(l, e, r)`.
    pub fn insert(&mut self, l: u16, e: u8, r: u16, fam: CurveFam) {
        self.map.insert((l, e, r), fam);
    }

    /// Fetches the curves of group `(l, e, r)`.
    ///
    /// # Panics
    ///
    /// Panics if the group has not been constructed yet (the bottom-up
    /// level order guarantees availability).
    pub fn get(&self, l: u16, e: u8, r: u16) -> CurveFam {
        Arc::clone(
            self.map
                .get(&(l, e, r))
                // Γ entries are filled in dependency order, so a missing entry is a
                // construction-order bug worth dying loudly on.
                // audit:allow(panic)
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
) -> CurveFam {
    if let Some(hit) = cache.map.get(children) {
        cache.hits += 1;
        return Arc::clone(hit);
    }
    cache.misses += 1;
    let fam = compute_range(ctx, children, gamma, cache, arena);
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
            let mut pending: Vec<Step> = Vec::new();
            let mut m = Vec::with_capacity(k);
            // All splits; sub-ranges come from the cache (recursively).
            let splits: Vec<(CurveFam, CurveFam)> = (1..children.len())
                .map(|u| {
                    let left = range_curves(ctx, &children[..u], gamma, cache, arena);
                    let right = range_curves(ctx, &children[u..], gamma, cache, arena);
                    (left, right)
                })
                .collect();
            let traced = merlin_trace::is_enabled();
            let mut skipped = 0u64;
            for p in 0..k {
                pending.clear();
                let mut raw = Curve::new();
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
                            let cand = CurvePoint {
                                load: a.load + b.load,
                                req: a.req.min(b.req),
                                area: a.area + b.area,
                                prov: ProvId::new(pending.len() as u32),
                            };
                            if champs.dominates(&cand) {
                                skipped += 1;
                                continue;
                            }
                            champs.keep(&cand);
                            pending.push(Step::Merge {
                                left: a.prov,
                                right: b.prov,
                            });
                            raw.push(cand);
                        }
                    }
                }
                raw.prune();
                raw.reduce(ctx.policy);
                raw.thin_to(ctx.max_pts);
                raw.finalize(&pending, arena);
                m.push(raw);
            }
            if traced {
                merlin_trace::counter("curves.prune.predictive.merge", skipped);
            }
            m
        }
    };

    // Root buffer options at every candidate.
    for c in &mut m {
        *c = buffered(ctx, c, arena);
        c.thin_to(ctx.max_pts);
    }

    // Relocation rounds: wire p → p' on top of the previous round, with
    // buffer options above the wire.
    let traced = merlin_trace::is_enabled();
    for _ in 0..ctx.reloc_rounds {
        let snapshot = m.clone();
        let mut pending: Vec<Step> = Vec::new();
        let mut skipped = 0u64;
        for (pi, c) in m.iter_mut().enumerate() {
            pending.clear();
            let all: Vec<u16>;
            let sources: &[u16] = if ctx.neighbors.is_empty() || ctx.neighbors[pi].is_empty() {
                all = (0..snapshot.len() as u16).collect();
                &all
            } else {
                &ctx.neighbors[pi]
            };
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
                &mut pending,
                &mut skipped,
            );
            additions.reduce(ctx.policy);
            additions.thin_to(ctx.max_pts);
            additions.finalize(&pending, arena);
            let additions = buffered(ctx, &additions, arena);
            c.absorb(&additions);
            c.reduce(ctx.policy);
            c.thin_to(ctx.max_pts);
        }
        if traced {
            merlin_trace::counter("curves.prune.predictive.extend", skipped);
        }
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

/// Adds buffer options (selected library subset) at the curve's root;
/// keeps the unbuffered originals. Only options that survive the union
/// with the originals allocate arena steps.
fn buffered(ctx: &StarCtx<'_>, curve: &Curve, arena: &mut ProvArena<Step>) -> Curve {
    curve.with_buffer_options(
        &ctx.tech.library,
        ctx.lib_sel,
        ctx.enforce_max_load,
        ctx.policy,
        |buf, child| arena.push(Step::Buffer { buf, child }),
    )
}

/// Every point of each source curve `curves[q]`, `q` in `sources`, driven
/// over a wire from candidate `to` (sources that are `to` itself or empty
/// are skipped), as one pruned curve. Its points carry indices into
/// `pending`, where each gets its `Step::Extend`. `champs` skips
/// candidates that an already-kept one dominates, adding them to
/// `skipped`.
///
/// A wire shift keeps a pruned curve in prune order: every load grows by
/// the same wire cap, areas do not change, and points of equal load lose
/// equal req. So each source is one sorted run, and the runs are merged
/// ([`Curve::from_sorted_runs`]) instead of sorted. (The shift does not
/// keep the run pruned: a heavier point loses more req.)
pub(crate) fn shifted_sources(
    ctx: &StarCtx<'_>,
    curves: &[Curve],
    sources: impl IntoIterator<Item = usize>,
    to: usize,
    mut champs: Champions,
    pending: &mut Vec<Step>,
    skipped: &mut u64,
) -> Curve {
    let p = ctx.cands[to];
    let to16 = u16::try_from(to).expect("candidate indices fit u16");
    let mut raw: Vec<CurvePoint> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    for qi in sources {
        let src = &curves[qi];
        if qi == to || src.is_empty() {
            continue;
        }
        let len = manhattan(p, ctx.cands[qi]);
        let wc = ctx.tech.wire.wire_cap(len);
        for a in src.iter() {
            let cand = CurvePoint {
                load: a.load + wc,
                req: a.req - ctx.tech.wire.elmore_ps(len, a.load),
                area: a.area,
                prov: ProvId::new(pending.len() as u32),
            };
            if champs.dominates(&cand) {
                *skipped += 1;
                continue;
            }
            champs.keep(&cand);
            pending.push(Step::Extend {
                to: to16,
                child: a.prov,
            });
            raw.push(cand);
        }
        ends.push(raw.len());
    }
    Curve::from_sorted_runs(&raw, &ends)
}

#[cfg(test)]
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
        };
        let gamma = Gamma::new();
        let mut cache = StarCache::new();
        let mut arena = ProvArena::new();
        let fam = range_curves(&ctx, children, &gamma, &mut cache, &mut arena);
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
        };
        let gamma = Gamma::new();
        let mut cache = StarCache::new();
        let mut arena = ProvArena::new();
        let seq = [Child::Sink(0), Child::Sink(1)];
        let a = range_curves(&ctx, &seq, &gamma, &mut cache, &mut arena);
        let before = cache.stats();
        let b = range_curves(&ctx, &seq, &gamma, &mut cache, &mut arena);
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
