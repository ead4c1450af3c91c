//! The resilient solve driver: the concrete graceful-degradation ladder.
//!
//! [`resilient_solve`] always returns an audit-clean buffered routing tree
//! for any input net, no matter what the DP stack does — it is the entry
//! point a batch sweep should use when one degenerate net must not take
//! down the run. The ladder, strongest tier first:
//!
//! 1. **Flow III** — the full MERLIN local-neighborhood search,
//! 2. **single pass** — one budgeted `BUBBLE_CONSTRUCT` pass (no outer
//!    loop),
//! 3. **Flow II** — P-Tree routing + van Ginneken buffer insertion,
//! 4. **Flow I** — LTTREE fanout optimization + per-stage P-Tree routing,
//! 5. **direct route** — an unbuffered star from the source; infallible.
//!
//! Each tier runs inside the `merlin-resilience` panic-isolation boundary
//! with a weighted slice of the caller's [`SolveBudget`]; a tier serves
//! only if its tree passes both [`merlin_tech::BufferedTree::validate`]
//! and the geometric route audit. Invalid nets (see
//! [`merlin_netlist::Net::validate`]) skip the DP tiers entirely and get
//! the direct route, with the validation failure recorded in the
//! [`DegradationReport`].
//!
//! This module is *policy*; the generic ladder engine, budget, and error
//! types are *mechanism* and live in `merlin-resilience`. See
//! `docs/RESILIENCE.md`.

use std::time::Instant;

use merlin::{Merlin, MerlinConfig};
use merlin_netlist::Net;
use merlin_resilience::{
    run_ladder, AttemptParams, DegradationReport, ServingTier, SolveBudget, SolverError, Tier,
};
use merlin_tech::units::Cap;
use merlin_tech::{BufferedTree, Evaluation, NodeKind, Technology};

use crate::{audit, flow1, flow2, flow3, FlowResult, FlowsConfig};

/// A resilient solve's tree plus the story of how it was obtained.
#[derive(Clone, Debug)]
pub struct ResilientOutcome {
    /// The served tree and its evaluation (from whichever tier won).
    pub result: FlowResult,
    /// Which tier served and why the stronger ones did not.
    pub report: DegradationReport,
}

/// The unbuffered direct star route: one L-shaped edge from the source to
/// every sink. Infallible and audit-clean for any net, including empty
/// ones — the ladder's last resort.
pub fn direct_route(net: &Net) -> BufferedTree {
    let mut tree = BufferedTree::new(net.source);
    let root = tree.root();
    for (i, s) in net.sinks.iter().enumerate() {
        tree.add_child(root, NodeKind::Sink(i as u32), s.pos);
    }
    tree
}

/// [`direct_route`] packaged as a [`FlowResult`]. Invalid nets (including
/// zero-sink ones) get a hand-built placeholder evaluation: the timing
/// evaluator assumes a validated net (finite required times, at least one
/// sink), and the direct route must stay infallible without it.
fn direct_result(net: &Net, tech: &Technology) -> FlowResult {
    let start = Instant::now();
    let tree = direct_route(net);
    let eval = if net.validate().is_err() {
        Evaluation {
            root_required_ps: 0.0,
            root_load: Cap::ZERO,
            buffer_area: 0,
            num_buffers: 0,
            wirelength: tree.wirelength(),
            sink_delays_ps: Vec::new(),
            delay_ps: 0.0,
        }
    } else {
        tree.evaluate(tech, &net.driver, &net.sink_loads(), &net.sink_reqs())
    };
    FlowResult {
        tree,
        eval,
        runtime_s: start.elapsed().as_secs_f64(),
        loops: 0,
        budget_hit: false,
    }
}

/// One budgeted `BUBBLE_CONSTRUCT` pass: MERLIN with `max_loops = 1`. The
/// degradation step between the full search and the decoupled baselines.
fn single_pass(
    net: &Net,
    tech: &Technology,
    cfg: &FlowsConfig,
    budget: &SolveBudget,
) -> Result<FlowResult, SolverError> {
    let start = Instant::now();
    let one = MerlinConfig {
        max_loops: 1,
        // The degradation rung also coarsens the post-prune dial: curves
        // shrink at every DP step, matching its answer-fast contract.
        load_quant: cfg.merlin.load_quant.max(1) * 2,
        ..cfg.merlin
    };
    let outcome = Merlin::new(tech, one).optimize_budgeted(net, budget)?;
    let eval = outcome
        .tree
        .evaluate(tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
    Ok(FlowResult {
        tree: outcome.tree,
        eval,
        runtime_s: start.elapsed().as_secs_f64(),
        loops: outcome.loops,
        budget_hit: outcome.budget_hit,
    })
}

/// Resilient solve with the size-scaled default [`FlowsConfig`].
pub fn resilient_solve(net: &Net, tech: &Technology, budget: &SolveBudget) -> ResilientOutcome {
    let cfg = FlowsConfig::for_net_size(net.num_sinks());
    resilient_solve_with(net, tech, &cfg, budget)
}

/// Resilient solve with an explicit configuration. Never panics and never
/// fails: the weakest tier is infallible. See the module docs for the
/// ladder.
pub fn resilient_solve_with(
    net: &Net,
    tech: &Technology,
    cfg: &FlowsConfig,
    budget: &SolveBudget,
) -> ResilientOutcome {
    resilient_solve_from(net, tech, cfg, budget, ServingTier::Merlin)
}

/// [`resilient_solve_with`] entering the ladder at `entry` instead of the
/// top: tiers stronger than `entry` are skipped entirely (they do not even
/// appear in the report). This is the batch supervisor's retry hook — a
/// net that panicked or stalled at flow III is re-attempted from the
/// single-pass or flow II rung rather than replayed into the same failure.
pub fn resilient_solve_from(
    net: &Net,
    tech: &Technology,
    cfg: &FlowsConfig,
    budget: &SolveBudget,
    entry: ServingTier,
) -> ResilientOutcome {
    if let Err(e) = net.validate() {
        let result = direct_result(net, tech);
        let mut report = DegradationReport::clean(ServingTier::DirectRoute, result.runtime_s);
        report.invalid_net = Some(e);
        return ResilientOutcome { result, report };
    }
    let num_sinks = net.num_sinks();
    // Budget weights: the full search gets the lion's share; the cheap
    // decoupled baselines split most of the rest.
    let mut tiers: Vec<Tier<'_, FlowResult>> = vec![
        Tier::new(ServingTier::Merlin, 0.45, |b: &SolveBudget| {
            flow3::try_run_budgeted(net, tech, cfg, b)
        }),
        Tier::new(ServingTier::SinglePass, 0.15, |b: &SolveBudget| {
            single_pass(net, tech, cfg, b)
        }),
        Tier::new(ServingTier::PtreeVanGinneken, 0.2, |_b: &SolveBudget| {
            flow2::try_run(net, tech, cfg)
        }),
        Tier::new(ServingTier::LttreePtree, 0.2, |_b: &SolveBudget| {
            flow1::try_run(net, tech, cfg)
        }),
    ];
    tiers.retain(|t| t.tier >= entry);
    let vet = |r: &FlowResult| {
        r.tree
            .validate(num_sinks, tech)
            .map_err(|e| SolverError::AuditFailed {
                context: "tree structure".to_owned(),
                detail: e.to_string(),
            })?;
        audit::check_tree(&r.tree, "routed embedding")
    };
    let (result, report) = run_ladder(tiers, vet, || direct_result(net, tech), budget);
    ResilientOutcome { result, report }
}

/// The batch supervisor's per-attempt entry point: applies an
/// [`AttemptParams`] perturbation (thinned search, lowered ladder entry)
/// on top of `cfg` and solves. The budget scale of
/// the params is *not* applied here — the supervisor builds each attempt's
/// budget itself so the caller controls what "the per-net budget" means.
pub fn resilient_solve_attempt(
    net: &Net,
    tech: &Technology,
    cfg: &FlowsConfig,
    budget: &SolveBudget,
    params: &AttemptParams,
) -> ResilientOutcome {
    if params.thin_search {
        resilient_solve_from(net, tech, &cfg.thinned(), budget, params.entry)
    } else {
        resilient_solve_from(net, tech, cfg, budget, params.entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_geom::Point;
    use merlin_netlist::bench_nets::random_net;
    use merlin_netlist::Sink;
    use merlin_tech::Driver;

    #[test]
    fn direct_route_is_always_audit_clean() {
        let tech = Technology::synthetic_035();
        let net = random_net("n", 9, 2, &tech);
        let tree = direct_route(&net);
        tree.validate(9, &tech).expect("star tree is well-formed");
        audit::check_tree(&tree, "direct").expect("star route is connected");
    }

    #[test]
    fn healthy_net_serves_from_the_merlin_tier() {
        let tech = Technology::synthetic_035();
        let net = random_net("n", 5, 7, &tech);
        let out = resilient_solve(&net, &tech, &SolveBudget::unlimited());
        assert_eq!(out.report.served, ServingTier::Merlin);
        assert!(out.report.attempts.is_empty());
        assert!(!out.report.budget_hit);
        assert!(out.result.loops >= 1);
    }

    #[test]
    fn invalid_net_degrades_to_direct_without_running_tiers() {
        let tech = Technology::synthetic_035();
        let net = Net::new(
            "dup",
            Point::new(0, 0),
            Driver::default(),
            vec![
                Sink::new(Point::new(100, 100), Cap::from_ff(10.0), 500.0),
                Sink::new(Point::new(100, 100), Cap::from_ff(10.0), 500.0),
            ],
        );
        let out = resilient_solve(&net, &tech, &SolveBudget::unlimited());
        assert_eq!(out.report.served, ServingTier::DirectRoute);
        assert!(out.report.invalid_net.is_some());
        assert!(out.report.attempts.is_empty());
        out.result
            .tree
            .validate(2, &tech)
            .expect("direct route is well-formed");
    }

    #[test]
    fn entry_tier_skips_stronger_rungs() {
        let tech = Technology::synthetic_035();
        let net = random_net("n", 5, 7, &tech);
        let cfg = FlowsConfig::for_net_size(5);
        let budget = SolveBudget::unlimited();
        let out = resilient_solve_from(&net, &tech, &cfg, &budget, ServingTier::PtreeVanGinneken);
        assert_eq!(out.report.served, ServingTier::PtreeVanGinneken);
        assert!(
            out.report.attempts.is_empty(),
            "skipped tiers must not appear as attempts"
        );
        let direct = resilient_solve_from(&net, &tech, &cfg, &budget, ServingTier::DirectRoute);
        assert_eq!(direct.report.served, ServingTier::DirectRoute);
    }

    #[test]
    fn perturbed_attempts_degrade_entry_and_still_serve() {
        let tech = Technology::synthetic_035();
        let net = random_net("n", 6, 11, &tech);
        let cfg = FlowsConfig::for_net_size(6);
        let policy = merlin_resilience::RetryPolicy::default();
        let budget = SolveBudget::unlimited();
        let first = resilient_solve_attempt(&net, &tech, &cfg, &budget, &policy.params(0));
        assert_eq!(first.report.served, ServingTier::Merlin);
        let retry = resilient_solve_attempt(&net, &tech, &cfg, &budget, &policy.params(1));
        assert_eq!(
            retry.report.served,
            ServingTier::SinglePass,
            "first retry enters at the single-pass rung"
        );
        retry
            .result
            .tree
            .validate(6, &tech)
            .expect("perturbed attempt still serves an audit-clean tree");
    }

    #[test]
    fn empty_net_is_served_by_an_empty_direct_route() {
        let tech = Technology::synthetic_035();
        let net = Net::new("empty", Point::new(0, 0), Driver::default(), Vec::new());
        let out = resilient_solve(&net, &tech, &SolveBudget::unlimited());
        assert_eq!(out.report.served, ServingTier::DirectRoute);
        assert_eq!(out.result.eval.wirelength, 0);
        assert_eq!(out.result.eval.buffer_area, 0);
    }
}
