//! `BUBBLE_CONSTRUCT` (Figure 9): the inner optimization engine.
//!
//! Bottom-up over group sizes `L = 1..n`, every window placement `R` and
//! grouping structure `E`, the engine composes each group from an inner
//! group `(l, e, r)` plus leaf sinks (Figure 11), routes the composition
//! with [`crate::star_ptree`] and accumulates the non-inferior curves into
//! the Γ tables. Incompatible compositions (Figure 12) are skipped. The
//! final curve — at the source, over the whole sink set, with no bubbles —
//! contains, subject to the Cα/*P-Tree structure restriction, **all
//! non-inferior solutions over the entire neighborhood `N(Π)`**
//! (Theorem 4), which the exhaustive small-`n` tests in the workspace
//! verify against per-member fixed-order runs.

use merlin_curves::{Curve, CurvePoint, ProvArena, ProvId};
use merlin_geom::{manhattan, Point};
use merlin_netlist::{Net, NetValidationError};
use merlin_order::SinkOrder;
use merlin_resilience::{SolveBudget, SolverError};
use merlin_tech::units::{ps_cmp, PsTime};
use merlin_tech::{BufferedTree, Driver, Technology};
use std::collections::HashSet;
use std::sync::Arc;

use crate::chi::{Shape, Window, ALL_SHAPES};
use crate::children::{child_sequence, child_sequence_multi, Child};
use crate::config::{Constraint, MerlinConfig};
use crate::extract::{extract_tree, Step};
use crate::star_ptree::{
    range_curves, shifted_sources, Champions, Gamma, SinkView, StarCache, StarCtx,
};

/// Resolves the [`MerlinConfig::threads`] knob: `0` = one worker per
/// available core, otherwise the explicit count, clamped to 64 so a typo
/// cannot fork-bomb the host.
fn effective_threads(knob: usize) -> usize {
    let t = if knob == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        knob
    };
    t.clamp(1, 64)
}

/// Everything one level-shard worker hands back to the coordinator.
struct ShardOut {
    /// One thinned family per `(E, R)` pair of the shard, in pair order.
    /// Curve points still carry segment-local provenance handles.
    fams: Vec<Vec<Curve>>,
    /// The worker's arena segment (handles start at the level's global
    /// base; see [`ProvArena::with_base`]).
    steps: Vec<Step>,
    /// The worker's `*PTREE` cache tallies.
    cache_hits: u64,
    cache_misses: u64,
    /// The worker's drained trace, when collection was on.
    trace: Option<merlin_trace::Trace>,
}

/// Composes one outer group `(L, E, R)`: absorbs the curves of every
/// compatible inner decomposition (Figure 11, plus the relaxed
/// two-inner-group extension of §3.2.1) into one family per candidate
/// root. This is the body of the construction loop, shared verbatim by the
/// sequential and the level-sharded parallel paths so they cannot drift;
/// the caller owns fault injection, thinning (parallel workers thin
/// in-shard), and the Γ insert.
#[allow(clippy::too_many_arguments)]
fn compose_group(
    ctx: &StarCtx<'_>,
    cfg: &MerlinConfig,
    shapes: &[Shape],
    order: &SinkOrder,
    gamma: &Gamma,
    outer: Window,
    big_l: usize,
    budget: &SolveBudget,
    cache: &mut StarCache,
    arena: &mut ProvArena<Step>,
) -> Result<Vec<Curve>, SolverError> {
    let k = ctx.cands.len();
    let l_min = big_l.saturating_sub(cfg.alpha - 1).max(1);
    let mut fam: Vec<Curve> = vec![Curve::new(); k];
    let mut seen: HashSet<Vec<Child>> = HashSet::new();
    let consume = |seq: Vec<Child>,
                   fam: &mut Vec<Curve>,
                   seen: &mut HashSet<Vec<Child>>,
                   cache: &mut StarCache,
                   arena: &mut ProvArena<Step>|
     -> Result<(), SolverError> {
        if !seen.insert(seq.clone()) {
            return Ok(());
        }
        let curves = range_curves(ctx, &seq, gamma, cache, arena);
        let mut work = 1u64;
        for (p, c) in curves.iter().enumerate() {
            work += c.len() as u64;
            fam[p].absorb(c);
        }
        budget.charge(work)?;
        budget.check_deadline()?;
        Ok(())
    };
    for l in l_min..big_l {
        for e in shapes {
            let lpp = l + e.stretch();
            if lpp > outer.len() {
                continue;
            }
            for r in (outer.start() + lpp - 1)..=outer.right {
                let Some(inner) = Window::place(r, l, *e, order.len()) else {
                    continue;
                };
                let Some(seq) = child_sequence(outer, inner, order) else {
                    continue;
                };
                consume(seq, &mut fam, &mut seen, cache, arena)?;
            }
        }
    }
    // Relaxed Cα (§3.2.1): a second disjoint inner group.
    if cfg.max_inner_groups >= 2 && big_l >= 2 {
        for l1 in 1..big_l {
            for e1 in shapes {
                let lpp1 = l1 + e1.stretch();
                if lpp1 > outer.len() {
                    continue;
                }
                for r1 in (outer.start() + lpp1 - 1)..=outer.right {
                    let Some(in1) = Window::place(r1, l1, *e1, order.len()) else {
                        continue;
                    };
                    for l2 in 1..big_l {
                        // (L - l1 - l2) leaves + 2 groups ≤ α.
                        if l1 + l2 > big_l || big_l - l1 - l2 + 2 > cfg.alpha {
                            continue;
                        }
                        for e2 in shapes {
                            let lpp2 = l2 + e2.stretch();
                            for r2 in (in1.right + lpp2)..=outer.right {
                                let Some(in2) = Window::place(r2, l2, *e2, order.len()) else {
                                    continue;
                                };
                                let Some(seq) = child_sequence_multi(outer, &[in1, in2], order)
                                else {
                                    continue;
                                };
                                consume(seq, &mut fam, &mut seen, cache, arena)?;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(fam)
}

/// The inner engine, borrowing the problem description.
#[derive(Debug)]
pub struct BubbleConstruct<'a> {
    net: &'a Net,
    tech: &'a Technology,
    config: MerlinConfig,
}

/// Diagnostics of one `BUBBLE_CONSTRUCT` run (scaling experiments E4).
///
/// This struct is a thin *view*: the tallies are read once from the DP
/// engine's own state (Γ, the `*PTREE` cache, the provenance arena) and
/// [`ConstructStats::emit`] republishes the same numbers as `merlin-trace`
/// counters, so the struct and the trace can never disagree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConstructStats {
    /// Candidate-location count `k`.
    pub candidates: usize,
    /// Γ entries constructed.
    pub gamma_groups: usize,
    /// Total curve points held in Γ (memory proxy, Theorem 5).
    pub gamma_points: usize,
    /// `*PTREE` cache hits (Lemma 7 sharing at work).
    pub cache_hits: u64,
    /// `*PTREE` cache misses (distinct sub-problems actually solved).
    pub cache_misses: u64,
    /// Provenance steps allocated.
    pub arena_steps: usize,
}

impl ConstructStats {
    /// Publish the tallies as trace counters (`core.candidates`,
    /// `core.gamma.groups`, `core.gamma.points`, `core.cache.hit`,
    /// `core.cache.miss`, `curves.arena.steps`). No-op when tracing is
    /// disabled. Counters saturate, so repeated runs simply accumulate.
    pub fn emit(&self) {
        if !merlin_trace::is_enabled() {
            return;
        }
        merlin_trace::counter("core.candidates", self.candidates as u64);
        merlin_trace::counter("core.gamma.groups", self.gamma_groups as u64);
        merlin_trace::counter("core.gamma.points", self.gamma_points as u64);
        merlin_trace::counter("core.cache.hit", self.cache_hits);
        merlin_trace::counter("core.cache.miss", self.cache_misses);
        merlin_trace::counter("curves.arena.steps", self.arena_steps as u64);
    }
}

/// Result of `BUBBLE_CONSTRUCT`: the final solution curve plus everything
/// needed to pick a point and rebuild its structure.
#[derive(Debug)]
pub struct ConstructResult {
    /// Non-inferior `(load, req, area)` curve at the source (required time
    /// *before* the driver delay; use
    /// [`ConstructResult::driver_required`]).
    pub curve: Curve,
    /// Candidate locations used.
    pub candidates: Vec<Point>,
    /// Run diagnostics.
    pub stats: ConstructStats,
    arena: ProvArena<Step>,
    source: Point,
    sink_positions: Vec<Point>,
    driver: Driver,
}

impl<'a> BubbleConstruct<'a> {
    /// Creates the engine.
    pub fn new(net: &'a Net, tech: &'a Technology, config: MerlinConfig) -> Self {
        BubbleConstruct { net, tech, config }
    }

    /// Runs the construction for the given initial sink order.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not cover exactly the net's sinks or the net
    /// has no sinks.
    pub fn run(&self, order: &SinkOrder) -> ConstructResult {
        self.run_budgeted(order, &SolveBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// Runs the construction under a cooperative [`SolveBudget`].
    ///
    /// DP work (curve points absorbed into the Γ tables) is charged
    /// against the budget's work meter, and the deadline is checked inside
    /// the group-composition loop, so a runaway construction returns
    /// [`SolverError::BudgetExceeded`] promptly instead of running to
    /// completion. The partial Γ state is discarded.
    ///
    /// # Errors
    ///
    /// [`SolverError::BudgetExceeded`] when the budget runs out mid-DP and
    /// [`SolverError::InvalidNet`] for a sink-less net.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not cover exactly the net's sinks.
    pub fn run_budgeted(
        &self,
        order: &SinkOrder,
        budget: &SolveBudget,
    ) -> Result<ConstructResult, SolverError> {
        let n = self.net.num_sinks();
        if n == 0 {
            return Err(SolverError::invalid_net(
                &self.net.name,
                NetValidationError::NoSinks,
            ));
        }
        assert_eq!(order.len(), n, "order must cover all sinks");
        let cfg = &self.config;
        assert!(cfg.alpha >= 2, "alpha must be at least 2");

        let sink_positions = self.net.sink_positions();
        let candidates = cfg.candidates.generate(self.net.source, &sink_positions);
        let k = candidates.len();
        let sinks: Vec<SinkView> = self
            .net
            .sinks
            .iter()
            .map(|s| SinkView {
                pos: s.pos,
                load: s.load,
                req: s.req_ps,
            })
            .collect();
        // An empty buffer library is a broken technology, not a reason to
        // underflow-panic on `len() - 1` below.
        if self.tech.library.is_empty() {
            return Err(SolverError::EmptyCurve {
                context: format!(
                    "technology has an empty buffer library solving net `{}`; \
                     BUBBLE_CONSTRUCT needs at least one buffer cell",
                    self.net.name
                ),
            });
        }
        let lib_sel: Vec<u16> = {
            let stride = cfg.library_stride.max(1);
            let last = self.tech.library.len() - 1;
            // Each index is visited once, so the filtered list is unique
            // (and sorted) by construction.
            (0..self.tech.library.len())
                .filter(|i| i % stride == 0 || *i == last)
                .map(|i| i as u16)
                .collect()
        };
        let neighbors: Vec<Vec<u16>> = if cfg.reloc_neighbors == 0 || cfg.reloc_neighbors >= k {
            Vec::new()
        } else {
            candidates
                .iter()
                .map(|&p| {
                    let mut idx: Vec<u16> = (0..k as u16).collect();
                    idx.sort_by_key(|&q| manhattan(p, candidates[q as usize]));
                    idx.retain(|&q| candidates[q as usize] != p);
                    idx.truncate(cfg.reloc_neighbors);
                    idx
                })
                .collect()
        };
        let ctx = StarCtx {
            tech: self.tech,
            cands: &candidates,
            sinks: &sinks,
            lib_sel: &lib_sel,
            max_pts: cfg.max_curve_points,
            reloc_rounds: cfg.relocation_rounds,
            neighbors: &neighbors,
            enforce_max_load: cfg.enforce_max_load,
            policy: cfg.prune_policy(),
        };
        let shapes: &[Shape] = if cfg.enable_bubbling {
            &ALL_SHAPES
        } else {
            &ALL_SHAPES[..1]
        };

        let mut gamma = Gamma::new();
        let mut cache = StarCache::new();
        let mut arena: ProvArena<Step> = ProvArena::new();
        let _construct_span = merlin_trace::span!("core.construct", n);
        let traced = merlin_trace::is_enabled();
        // Cα-tree level sizes: points added to Γ at each level L, observed
        // as the running total's delta (trace only).
        let mut prev_gamma_points = 0usize;

        // INITIALIZATION (lines 1–4): length-1 groups for every window
        // placement and shape. All shapes share the same curve content
        // (the covered sink differs by window geometry, not by shape).
        {
            let _level_span = merlin_trace::span!("core.construct.level", 1usize);
            for shape in shapes {
                for r in 0..n {
                    if let Some(w) = Window::place(r, 1, *shape, n) {
                        let pos = w.covered_positions()[0];
                        let seq = [Child::Sink(order.sink_at(pos))];
                        let fam = range_curves(&ctx, &seq, &gamma, &mut cache, &mut arena);
                        let work: u64 = fam.iter().map(|c| c.len() as u64).sum();
                        budget.charge(work + 1)?;
                        gamma.insert(1, shape.index(), r as u16, fam);
                    }
                }
                budget.check()?;
            }
        }
        if traced {
            let total = gamma.total_points();
            merlin_trace::observe("core.level.points", (total - prev_gamma_points) as u64);
            prev_gamma_points = total;
        }

        // CONSTRUCTION (lines 5–20). Each level L's `(E, R)` group
        // compositions read only Γ entries with l < L, so a level is an
        // embarrassingly parallel frontier: with `threads > 1` its pairs
        // are sharded across scoped workers and merged deterministically
        // in `(e, r)` order, yielding results identical to the sequential
        // engine at any thread count.
        let threads = effective_threads(cfg.threads);
        let mut shard_cache_hits = 0u64;
        let mut shard_cache_misses = 0u64;
        for big_l in 2usize..=n {
            let _level_span = merlin_trace::span!("core.construct.level", big_l);
            let pairs: Vec<(Shape, usize, Window)> = shapes
                .iter()
                .flat_map(|&big_e| {
                    (0..n).filter_map(move |big_r| {
                        Window::place(big_r, big_l, big_e, n).map(|w| (big_e, big_r, w))
                    })
                })
                .collect();
            if threads > 1 && pairs.len() > 1 {
                let shard_count = threads.min(pairs.len());
                let chunk_size = pairs.len().div_ceil(shard_count);
                let global_base = arena.len();
                merlin_trace::counter("core.parallel.levels", 1);
                merlin_trace::counter("core.parallel.shards", shard_count as u64);
                merlin_trace::counter("core.parallel.pairs", pairs.len() as u64);
                let shard_results: Vec<Result<ShardOut, SolverError>> =
                    std::thread::scope(|scope| {
                        let ctx = &ctx;
                        let gamma = &gamma;
                        let handles: Vec<_> = pairs
                            .chunks(chunk_size)
                            .map(|chunk| {
                                scope.spawn(move || {
                                    let worker_traced = traced;
                                    if worker_traced {
                                        merlin_trace::enable();
                                    }
                                    let mut shard_cache = StarCache::new();
                                    let mut seg: ProvArena<Step> =
                                        ProvArena::with_base(global_base);
                                    let mut fams = Vec::with_capacity(chunk.len());
                                    let mut failure = None;
                                    for &(_, _, outer) in chunk {
                                        match compose_group(
                                            ctx,
                                            cfg,
                                            shapes,
                                            order,
                                            gamma,
                                            outer,
                                            big_l,
                                            budget,
                                            &mut shard_cache,
                                            &mut seg,
                                        ) {
                                            Ok(mut fam) => {
                                                for c in &mut fam {
                                                    c.thin_to(cfg.max_curve_points);
                                                }
                                                fams.push(fam);
                                            }
                                            Err(e) => {
                                                failure = Some(e);
                                                break;
                                            }
                                        }
                                    }
                                    let (cache_hits, cache_misses) = shard_cache.stats();
                                    let trace = if worker_traced {
                                        let t = merlin_trace::drain();
                                        merlin_trace::disable();
                                        Some(t)
                                    } else {
                                        None
                                    };
                                    match failure {
                                        Some(e) => Err(e),
                                        None => Ok(ShardOut {
                                            fams,
                                            steps: seg.into_steps(),
                                            cache_hits,
                                            cache_misses,
                                            trace,
                                        }),
                                    }
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| {
                                // Re-raise worker panics on the coordinating
                                // thread so the resilience isolation boundary
                                // sees them exactly as in the sequential path.
                                h.join()
                                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                            })
                            .collect()
                    });
                // Deterministic merge, shard order = pair order.
                let mut pair_idx = 0usize;
                for shard in shard_results {
                    let shard = shard?;
                    if let Some(t) = shard.trace {
                        merlin_trace::absorb(t);
                    }
                    shard_cache_hits += shard.cache_hits;
                    shard_cache_misses += shard.cache_misses;
                    let seg_off = arena.len();
                    let rebase = |id: ProvId| {
                        if id.index() >= global_base {
                            ProvId::new((seg_off + (id.index() - global_base)) as u32)
                        } else {
                            id
                        }
                    };
                    merlin_trace::counter("core.parallel.steps.rebased", shard.steps.len() as u64);
                    for step in shard.steps {
                        arena.push(match step {
                            Step::Merge { left, right } => Step::Merge {
                                left: rebase(left),
                                right: rebase(right),
                            },
                            Step::Extend { to, child } => Step::Extend {
                                to,
                                child: rebase(child),
                            },
                            Step::Buffer { buf, child } => Step::Buffer {
                                buf,
                                child: rebase(child),
                            },
                            route @ Step::Route { .. } => route,
                        });
                    }
                    for mut fam in shard.fams {
                        let (big_e, big_r, _) = pairs[pair_idx];
                        pair_idx += 1;
                        // The chaos site fires on the coordinating thread,
                        // once per pair in pair order, exactly like the
                        // sequential engine.
                        if merlin_curves::fault::trip("core.construct.group") {
                            fam = vec![Curve::new(); k];
                        } else {
                            for c in &mut fam {
                                c.map_prov(rebase);
                            }
                        }
                        gamma.insert(big_l as u16, big_e.index(), big_r as u16, Arc::new(fam));
                    }
                }
            } else {
                for &(big_e, big_r, outer) in &pairs {
                    let mut fam = compose_group(
                        &ctx, cfg, shapes, order, &gamma, outer, big_l, budget, &mut cache,
                        &mut arena,
                    )?;
                    if merlin_curves::fault::trip("core.construct.group") {
                        fam = vec![Curve::new(); k];
                    }
                    for c in &mut fam {
                        c.thin_to(cfg.max_curve_points);
                    }
                    gamma.insert(big_l as u16, big_e.index(), big_r as u16, Arc::new(fam));
                }
            }
            budget.check()?;
            if traced {
                let total = gamma.total_points();
                merlin_trace::observe("core.level.points", (total - prev_gamma_points) as u64);
                prev_gamma_points = total;
            }
        }

        // EXTRACTION preparation (line 21): the whole-problem curve at the
        // source. Γ(n, χ0, n−1) already includes relocation to the source
        // (the source is a candidate); one more explicit hop to the source
        // collects structures rooted elsewhere.
        let drop_final_curve = merlin_curves::fault::trip("core.construct.final");
        let top = gamma.get(n as u16, 0, (n - 1) as u16);
        let src_idx = candidates
            .iter()
            .position(|&p| p == self.net.source)
            .expect("candidate generation always includes the source");
        let mut curve = top[src_idx].clone();
        {
            let mut pending: Vec<Step> = Vec::new();
            let mut skipped = 0u64;
            // Extensions dominated by the source-rooted curve (or by an
            // earlier kept extension) cannot survive the absorb below.
            // Seeding from the absorb target is sound here because nothing
            // transforms the additions between their prune and the absorb,
            // and the target's points carry older arena provenance so they
            // win exact ties either way.
            let mut additions = shifted_sources(
                &ctx,
                &top,
                0..top.len(),
                src_idx,
                Champions::seeded(&curve),
                &mut pending,
                &mut skipped,
            );
            additions.reduce(ctx.policy);
            additions.finalize(&pending, &mut arena);
            curve.absorb(&additions);
            curve.reduce(ctx.policy);
            if skipped > 0 && traced {
                merlin_trace::counter("curves.prune.predictive.extend", skipped);
            }
        }
        if drop_final_curve {
            curve = Curve::new();
        }
        // A stall injected late (or a slow extraction) must still fail the
        // attempt: the budget is re-checked after assembly.
        budget.check()?;

        let stats = ConstructStats {
            candidates: k,
            gamma_groups: gamma.len(),
            gamma_points: gamma.total_points(),
            cache_hits: cache.stats().0 + shard_cache_hits,
            cache_misses: cache.stats().1 + shard_cache_misses,
            arena_steps: arena.len(),
        };
        stats.emit();
        Ok(ConstructResult {
            curve,
            candidates,
            stats,
            arena,
            source: self.net.source,
            sink_positions,
            driver: self.net.driver.clone(),
        })
    }
}

impl ConstructResult {
    /// Required time at the driver input for a curve point.
    pub fn driver_required(&self, p: &CurvePoint) -> PsTime {
        p.req - self.driver.delay_linear_ps(p.load)
    }

    /// Picks the curve point that best satisfies `constraint` (line 21 of
    /// Figure 9). Falls back to the best required time if variant II's
    /// target is infeasible.
    pub fn select(&self, constraint: Constraint) -> Option<CurvePoint> {
        match constraint {
            Constraint::MaxReqWithinArea(budget) => self
                .curve
                .iter()
                .filter(|p| p.area <= budget)
                .max_by(|a, b| ps_cmp(self.driver_required(a), self.driver_required(b)))
                .or_else(|| {
                    // Budget smaller than every solution: cheapest one.
                    self.curve.iter().min_by_key(|p| p.area)
                })
                .copied(),
            Constraint::MinAreaWithReq(target) => self
                .curve
                .iter()
                .filter(|p| self.driver_required(p) >= target)
                .min_by_key(|p| p.area)
                .or_else(|| {
                    self.curve
                        .iter()
                        .max_by(|a, b| ps_cmp(self.driver_required(a), self.driver_required(b)))
                })
                .copied(),
        }
    }

    /// Rebuilds the buffered routing tree of a curve point (lines 22–23).
    ///
    /// # Panics
    ///
    /// Panics if `point` did not come from this instance's curve.
    pub fn extract(&self, point: &CurvePoint) -> BufferedTree {
        extract_tree(
            &self.arena,
            point.prov,
            self.source,
            &self.candidates,
            &self.sink_positions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_geom::CandidateStrategy;
    use merlin_netlist::bench_nets::random_net;
    use merlin_netlist::Sink;
    use merlin_order::tsp::tsp_order;
    use merlin_tech::units::Cap;

    fn tech() -> Technology {
        Technology::tiny_test()
    }

    fn cfg() -> MerlinConfig {
        MerlinConfig {
            alpha: 4,
            candidates: CandidateStrategy::ReducedHanan { max_points: 10 },
            constraint: Constraint::best_req(),
            max_loops: 4,
            max_curve_points: 0,
            enable_bubbling: true,
            relocation_rounds: 1,
            library_stride: 1,
            reloc_neighbors: 0,
            enforce_max_load: false,
            max_inner_groups: 1,
            threads: 1,
            load_quant: 1,
            prune_rmin: 0.0,
        }
    }

    #[test]
    fn single_sink_net() {
        let t = tech();
        let net = Net::new(
            "one",
            Point::new(0, 0),
            Driver::default(),
            vec![Sink::new(Point::new(500, 300), Cap::from_ff(15.0), 900.0)],
        );
        let bc = BubbleConstruct::new(&net, &t, cfg());
        let res = bc.run(&SinkOrder::identity(1));
        assert!(!res.curve.is_empty());
        let best = res
            .select(Constraint::best_req())
            .expect("BUBBLE_CONSTRUCT always yields a solution");
        let tree = res.extract(&best);
        tree.validate(1, &t).expect("produced tree is well-formed");
        let eval = tree.evaluate(&t, &net.driver, &net.sink_loads(), &net.sink_reqs());
        assert!((res.driver_required(&best) - eval.root_required_ps).abs() < 1e-6);
    }

    #[test]
    fn bookkeeping_matches_independent_evaluation() {
        // THE core invariant: every final curve point, extracted and
        // re-evaluated with the independent Elmore engine, must reproduce
        // the DP's (req, load, area) exactly.
        let t = tech();
        for seed in 1..=4u64 {
            let net = random_net("n", 4, seed, &t);
            let order = tsp_order(net.source, &net.sink_positions());
            let res = BubbleConstruct::new(&net, &t, cfg()).run(&order);
            assert!(!res.curve.is_empty(), "seed {seed}");
            for p in res.curve.iter() {
                let tree = res.extract(p);
                tree.validate(net.num_sinks(), &t)
                    .expect("produced tree is well-formed");
                let eval = tree.evaluate(&t, &net.driver, &net.sink_loads(), &net.sink_reqs());
                assert!(
                    (res.driver_required(p) - eval.root_required_ps).abs() < 1e-6,
                    "seed {seed}: req {} vs {}",
                    res.driver_required(p),
                    eval.root_required_ps
                );
                assert_eq!(eval.root_load, p.load, "seed {seed}");
                assert_eq!(eval.buffer_area, p.area, "seed {seed}");
            }
        }
    }

    #[test]
    fn extracted_order_is_in_the_neighborhood() {
        // Lemma 5: any order generated is in N(Π).
        let t = tech();
        for seed in 1..=3u64 {
            let net = random_net("n", 5, seed, &t);
            let order = tsp_order(net.source, &net.sink_positions());
            let res = BubbleConstruct::new(&net, &t, cfg()).run(&order);
            for p in res.curve.iter() {
                let tree = res.extract(p);
                let out = SinkOrder::new(tree.sink_order()).expect("permutation");
                assert!(
                    merlin_order::neighborhood::is_neighbor(&order, &out),
                    "seed {seed}: {:?} not a neighbor of {:?}",
                    out,
                    order
                );
            }
        }
    }

    #[test]
    fn bubbling_never_hurts() {
        // The χ0-only space is a subset of the bubbled space.
        let t = tech();
        let net = random_net("n", 5, 9, &t);
        let order = tsp_order(net.source, &net.sink_positions());
        let with = BubbleConstruct::new(&net, &t, cfg()).run(&order);
        let mut no_bubble = cfg();
        no_bubble.enable_bubbling = false;
        let without = BubbleConstruct::new(&net, &t, no_bubble).run(&order);
        let best = |r: &ConstructResult| {
            let p = r
                .select(Constraint::best_req())
                .expect("BUBBLE_CONSTRUCT always yields a solution");
            r.driver_required(&p)
        };
        assert!(best(&with) >= best(&without) - 1e-6);
    }

    #[test]
    fn area_budget_is_respected() {
        let t = tech();
        let net = random_net("n", 5, 2, &t);
        let order = tsp_order(net.source, &net.sink_positions());
        let res = BubbleConstruct::new(&net, &t, cfg()).run(&order);
        let unconstrained = res
            .select(Constraint::best_req())
            .expect("BUBBLE_CONSTRUCT always yields a solution");
        if unconstrained.area > 0 {
            let tight = res
                .select(Constraint::MaxReqWithinArea(unconstrained.area - 1))
                .expect("value exists by test construction");
            assert!(tight.area < unconstrained.area);
        }
        // Variant II at an easy target returns a zero-or-small area.
        let easy = res
            .select(Constraint::MinAreaWithReq(f64::NEG_INFINITY))
            .expect("BUBBLE_CONSTRUCT always yields a solution");
        assert_eq!(
            easy.area,
            res.curve
                .iter()
                .map(|p| p.area)
                .min()
                .expect("curve is non-empty")
        );
    }

    #[test]
    fn relaxed_two_inner_groups_never_hurts_and_stays_consistent() {
        // The relaxed space is a superset of the strict Cα space, and its
        // extracted structures must still re-evaluate exactly.
        let t = tech();
        let net = random_net("n", 4, 3, &t);
        let order = tsp_order(net.source, &net.sink_positions());
        let strict = BubbleConstruct::new(&net, &t, cfg()).run(&order);
        let mut relaxed_cfg = cfg();
        relaxed_cfg.max_inner_groups = 2;
        let relaxed = BubbleConstruct::new(&net, &t, relaxed_cfg).run(&order);
        let best = |r: &ConstructResult| {
            let p = r
                .select(Constraint::best_req())
                .expect("BUBBLE_CONSTRUCT always yields a solution");
            r.driver_required(&p)
        };
        assert!(best(&relaxed) >= best(&strict) - 1e-6);
        for p in relaxed.curve.iter() {
            let tree = relaxed.extract(p);
            tree.validate(net.num_sinks(), &t)
                .expect("produced tree is well-formed");
            let eval = tree.evaluate(&t, &net.driver, &net.sink_loads(), &net.sink_reqs());
            assert!((relaxed.driver_required(p) - eval.root_required_ps).abs() < 1e-6);
            assert_eq!(eval.buffer_area, p.area);
        }
    }

    #[test]
    fn max_load_enforcement_produces_legal_trees() {
        let t = tech();
        let mut net = random_net("n", 5, 8, &t);
        // Heavy sinks so unconstrained solutions overload small buffers.
        for s in &mut net.sinks {
            s.load = merlin_tech::units::Cap::from_ff(55.0);
        }
        let order = tsp_order(net.source, &net.sink_positions());
        let mut c = cfg();
        c.enforce_max_load = true;
        let res = BubbleConstruct::new(&net, &t, c).run(&order);
        for p in res.curve.iter() {
            let tree = res.extract(p);
            assert_eq!(
                tree.buffer_load_violations(&t, &net.sink_loads()),
                0,
                "enforced run produced an overloaded buffer"
            );
        }
    }

    #[test]
    fn cache_sharing_is_observable() {
        let t = tech();
        let net = random_net("n", 5, 5, &t);
        let order = tsp_order(net.source, &net.sink_positions());
        let res = BubbleConstruct::new(&net, &t, cfg()).run(&order);
        assert!(
            res.stats.cache_hits > 0,
            "neighborhood construction must share sub-problems (Lemma 7)"
        );
    }
}
