//! The MERLIN outer search engine (Figure 14): local neighborhood search
//! over sink orders.
//!
//! Each iteration calls `BUBBLE_CONSTRUCT`, which finds the best structure
//! over the whole neighborhood `N(Π)`; the sink order of that structure
//! becomes the next Π. Theorem 7: the best cost strictly improves until the
//! final visit of the loop, so the search terminates at a local optimum of
//! the order space — typically in a handful of iterations (the paper's
//! Table 1 reports 1–12 loops).

use std::collections::HashSet;

use merlin_curves::CurvePoint;
use merlin_netlist::Net;
use merlin_order::tsp::tsp_order;
use merlin_order::SinkOrder;
use merlin_resilience::{SolveBudget, SolverError};
use merlin_tech::units::PsTime;
use merlin_tech::{BufferedTree, Technology};

use crate::config::{Constraint, MerlinConfig};
use crate::construct::{BubbleConstruct, ConstructResult, ConstructStats};

/// The outer engine.
#[derive(Debug)]
pub struct Merlin<'a> {
    tech: &'a Technology,
    config: MerlinConfig,
}

/// Result of a MERLIN optimization.
#[derive(Debug)]
pub struct MerlinOutcome {
    /// The selected buffered routing tree.
    pub tree: BufferedTree,
    /// Required time at the driver input (linear RC model).
    pub root_required_ps: PsTime,
    /// Total inserted buffer area (λ²).
    pub buffer_area: u64,
    /// Number of local-search iterations executed (the paper's "Loops").
    pub loops: usize,
    /// Selected-cost trace, one entry per iteration (required time at the
    /// driver for variant I; buffer area for variant II). Used by the E6
    /// convergence experiment and the Theorem 7 test.
    pub cost_trace: Vec<f64>,
    /// The fixpoint sink order.
    pub final_order: SinkOrder,
    /// Diagnostics of the best accepted `BUBBLE_CONSTRUCT` run: the one
    /// whose tree is returned, not necessarily the last one.
    pub stats: ConstructStats,
    /// Whether the search stopped early because its [`SolveBudget`] ran
    /// out (the returned tree is the best one found so far). Always
    /// `false` for the unbudgeted entry points.
    pub budget_hit: bool,
    /// The best accepted run's full result (curve + extraction context),
    /// for callers that want other trade-off points. Despite the name it
    /// is not necessarily the last run: a later pass that did not improve
    /// the cost is dropped.
    pub last_run: ConstructResult,
}

impl<'a> Merlin<'a> {
    /// Creates the engine.
    pub fn new(tech: &'a Technology, config: MerlinConfig) -> Self {
        Merlin { tech, config }
    }

    /// Optimizes `net` starting from the TSP sink order (the paper's
    /// default initial order).
    ///
    /// # Panics
    ///
    /// Panics if the net has no sinks.
    pub fn optimize(&self, net: &Net) -> MerlinOutcome {
        self.optimize_budgeted(net, &SolveBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// Optimizes `net` starting from an explicit initial order.
    ///
    /// # Panics
    ///
    /// Panics if the net has no sinks or the order does not cover them.
    pub fn optimize_from(&self, net: &Net, init: SinkOrder) -> MerlinOutcome {
        self.optimize_from_budgeted(net, init, &SolveBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// Budgeted [`Merlin::optimize`]: TSP initial order, cooperative
    /// cancellation.
    ///
    /// # Errors
    ///
    /// See [`Merlin::optimize_from_budgeted`].
    ///
    /// # Panics
    ///
    /// Panics if the net has no sinks.
    pub fn optimize_budgeted(
        &self,
        net: &Net,
        budget: &SolveBudget,
    ) -> Result<MerlinOutcome, SolverError> {
        let init = tsp_order(net.source, &net.sink_positions());
        self.optimize_from_budgeted(net, init, budget)
    }

    /// Budgeted [`Merlin::optimize_from`]: every `BUBBLE_CONSTRUCT` pass
    /// charges the shared [`SolveBudget`], and the outer loop checks it
    /// between iterations. When the budget runs out *after* at least one
    /// complete iteration, the best tree found so far is returned with
    /// [`MerlinOutcome::budget_hit`] set; when it runs out during the very
    /// first pass there is nothing to serve and the budget error
    /// propagates.
    ///
    /// # Errors
    ///
    /// [`SolverError::BudgetExceeded`] when the budget dies before the
    /// first iteration completes, [`SolverError::InvalidNet`] for a
    /// sink-less net, and [`SolverError::EmptyCurve`] when a pass yields
    /// no selectable solution.
    ///
    /// # Panics
    ///
    /// Panics if the order does not cover the net's sinks.
    pub fn optimize_from_budgeted(
        &self,
        net: &Net,
        init: SinkOrder,
        budget: &SolveBudget,
    ) -> Result<MerlinOutcome, SolverError> {
        let engine = BubbleConstruct::new(net, self.tech, self.config);
        let constraint = self.config.constraint;
        let mut pi = init;
        let mut loops = 0;
        let mut cost_trace = Vec::new();
        let mut best: Option<(f64, CurvePoint, ConstructResult, SinkOrder)> = None;
        let mut budget_hit = false;
        // Orders already expanded by a BUBBLE_CONSTRUCT pass. The DP is
        // deterministic, so revisiting *any* earlier order — not only the
        // immediately previous one — would re-run a byte-identical pass;
        // a 2-cycle Π→Π′→Π used to cost exactly one such redundant pass
        // before the `!improved` break caught it.
        let mut visited: HashSet<SinkOrder> = HashSet::new();
        visited.insert(pi.clone());
        let _merlin_span = merlin_trace::span!("core.merlin");
        loop {
            let _iter_span = merlin_trace::span!("core.merlin.iter", loops + 1);
            loops += 1;
            merlin_trace::counter("core.merlin.iterations", 1);
            if merlin_curves::fault::trip("core.merlin.loop") {
                return Err(SolverError::EmptyCurve {
                    context: format!("injected empty result in MERLIN loop on net `{}`", net.name),
                });
            }
            let run = match engine.run_budgeted(&pi, budget) {
                Ok(run) => run,
                Err(e) if e.is_budget() && best.is_some() => {
                    budget_hit = true;
                    loops -= 1; // the clipped pass produced nothing
                    break;
                }
                Err(e) => return Err(e),
            };
            let Some(point) = run.select(constraint) else {
                return Err(SolverError::EmptyCurve {
                    context: format!(
                        "BUBBLE_CONSTRUCT produced an empty final curve on net `{}`",
                        net.name
                    ),
                });
            };
            let cost = match constraint {
                Constraint::MaxReqWithinArea(_) => run.driver_required(&point),
                Constraint::MinAreaWithReq(_) => -(point.area as f64),
            };
            cost_trace.push(match constraint {
                Constraint::MaxReqWithinArea(_) => cost,
                Constraint::MinAreaWithReq(_) => point.area as f64,
            });
            let tree_order = SinkOrder::new(run.extract(&point).sink_order()).expect("permutation");
            let improved = best.as_ref().is_none_or(|(c, ..)| cost > *c + 1e-9);
            if improved {
                merlin_trace::counter("core.merlin.accepted", 1);
                best = Some((cost, point, run, tree_order.clone()));
            } else {
                merlin_trace::counter("core.merlin.rejected", 1);
            }
            if loops >= self.config.max_loops || tree_order == pi || !improved {
                break;
            }
            if budget.check().is_err() {
                budget_hit = true;
                break;
            }
            if !visited.insert(tree_order.clone()) {
                merlin_trace::counter("core.merlin.cycle_breaks", 1);
                break;
            }
            pi = tree_order;
        }
        let (_, point, run, final_order) = best.expect("at least one iteration ran");
        let tree = run.extract(&point);
        Ok(MerlinOutcome {
            root_required_ps: run.driver_required(&point),
            buffer_area: point.area,
            loops,
            cost_trace,
            final_order,
            stats: run.stats,
            budget_hit,
            tree,
            last_run: run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_netlist::bench_nets::random_net;

    fn small_cfg() -> MerlinConfig {
        MerlinConfig {
            library_stride: 1,
            max_loops: 4,
            ..MerlinConfig::small_exact()
        }
    }

    #[test]
    fn optimization_converges_and_validates() {
        let tech = Technology::tiny_test();
        for seed in 1..=2u64 {
            let net = random_net("n", 4, seed, &tech);
            let out = Merlin::new(&tech, small_cfg()).optimize(&net);
            assert!(out.loops >= 1 && out.loops <= small_cfg().max_loops);
            out.tree
                .validate(4, &tech)
                .expect("produced tree is well-formed");
            let eval = out
                .tree
                .evaluate(&tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
            assert!(
                (eval.root_required_ps - out.root_required_ps).abs() < 1e-6,
                "seed {seed}"
            );
            assert_eq!(eval.buffer_area, out.buffer_area);
        }
    }

    #[test]
    fn cost_is_monotone_until_the_last_visit() {
        // Theorem 7: with exact curves the per-iteration best cost never
        // degrades before convergence. Several seeds so that at least some
        // runs take more than one loop.
        let tech = Technology::tiny_test();
        let mut multi_loop_seen = false;
        for seed in [1u64, 4, 11, 23] {
            let net = random_net("n", 4, seed, &tech);
            let out = Merlin::new(&tech, small_cfg()).optimize(&net);
            multi_loop_seen |= out.cost_trace.len() > 1;
            for w in out.cost_trace.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-6,
                    "seed {seed}: cost degraded: {:?}",
                    out.cost_trace
                );
            }
        }
        let _ = multi_loop_seen; // informational; convergence in one loop is legal
    }

    #[test]
    fn every_iteration_is_a_distinct_order() {
        // The visited-order set must keep the iteration counter equal to
        // the number of *distinct* DP passes: one cost entry per loop, and
        // the `core.merlin.iterations` counter in exact agreement. Before
        // the fix a cycled order re-ran a byte-identical pass, inflating
        // the counter past the useful work done.
        let tech = Technology::tiny_test();
        for seed in [1u64, 4, 7, 11, 23, 42] {
            let net = random_net("n", 5, seed, &tech);
            merlin_trace::enable();
            let _ = merlin_trace::drain();
            let out = Merlin::new(&tech, small_cfg()).optimize(&net);
            let trace = merlin_trace::drain();
            merlin_trace::disable();
            assert_eq!(
                trace.counter("core.merlin.iterations"),
                out.loops as u64,
                "seed {seed}"
            );
            assert_eq!(out.cost_trace.len(), out.loops, "seed {seed}");
        }
    }

    #[test]
    fn revisit_of_any_earlier_order_is_suppressed() {
        // The 2-cycle scenario, at the visited-set level: Π was expanded,
        // Π′ was expanded, and the DP at Π′ hands back Π. The set must
        // refuse the revisit (a deterministic DP would reproduce the Π
        // pass byte-for-byte), while a genuinely new order is admitted.
        let pi = SinkOrder::new(vec![0, 1, 2]).expect("permutation");
        let pi_prime = SinkOrder::new(vec![1, 0, 2]).expect("permutation");
        let fresh = SinkOrder::new(vec![2, 1, 0]).expect("permutation");
        let mut visited = std::collections::HashSet::new();
        assert!(visited.insert(pi.clone()));
        assert!(visited.insert(pi_prime));
        assert!(!visited.insert(pi), "cycling back to Π must be refused");
        assert!(visited.insert(fresh), "new orders keep the search going");
    }

    #[test]
    fn initial_order_has_small_effect() {
        // §IV: "initial orders have very small effect on the final quality
        // of results" — at minimum, a random initial order must reach a
        // result within a modest factor of the TSP-seeded one on a tiny
        // net, and both must beat the unbuffered direct star... we check
        // the weaker, robust property: both converge and are finite.
        let tech = Technology::tiny_test();
        let net = random_net("n", 4, 4, &tech);
        let a = Merlin::new(&tech, small_cfg()).optimize(&net);
        let b = Merlin::new(&tech, small_cfg())
            .optimize_from(&net, merlin_order::tsp::random_order(4, 99));
        assert!(a.root_required_ps.is_finite() && b.root_required_ps.is_finite());
        let gap = (a.root_required_ps - b.root_required_ps).abs();
        let scale = a.root_required_ps.abs().max(1.0);
        assert!(gap / scale < 0.25, "orders diverged too much: {gap}");
    }
}
