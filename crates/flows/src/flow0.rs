//! Flow 0 (extra baseline, not in the paper's tables): wirelength-driven
//! routing — rectilinear MST, improved by iterated 1-Steiner on small nets
//! — followed by van Ginneken buffer insertion.
//!
//! This is the pre-performance-driven-routing convention the paper's §II
//! context ([CHKM96]) argues against: minimum wirelength is not minimum
//! delay. Comparing Flow 0 against Flows II/III (the `critical_net`
//! example runs all four) makes the gap concrete.

use std::time::Instant;

use merlin_geom::rsmt::{iterated_one_steiner, rectilinear_mst, SpanningTree};
use merlin_netlist::Net;
use merlin_resilience::SolverError;
use merlin_tech::{BufferedTree, NodeKind, Technology};
use merlin_vanginneken::VanGinneken;

use crate::{FlowResult, FlowsConfig};

/// Runs Flow 0 on `net`.
///
/// # Panics
///
/// Panics if the net is invalid (see [`Net::validate`]).
pub fn run(net: &Net, tech: &Technology, cfg: &FlowsConfig) -> FlowResult {
    try_run(net, tech, cfg).expect("flow 0 solves every valid net")
}

/// Fallible [`run`]: validates the net up front and returns a typed
/// [`SolverError`] instead of panicking.
///
/// # Errors
///
/// [`SolverError::InvalidNet`] for a malformed net and
/// [`SolverError::EmptyCurve`] when buffer insertion yields no solution.
pub fn try_run(net: &Net, tech: &Technology, cfg: &FlowsConfig) -> Result<FlowResult, SolverError> {
    if merlin_resilience::fault::trip("flows.flow0.run") {
        return Err(SolverError::EmptyCurve {
            context: format!("injected empty result at flows.flow0.run on `{}`", net.name),
        });
    }
    net.validate()
        .map_err(|e| SolverError::invalid_net(&net.name, e))?;
    let start = Instant::now();
    let tree = route_wirelength(net);
    let solved = VanGinneken::new(tech, cfg.vg).solve(
        &tree,
        &net.driver,
        &net.sink_loads(),
        &net.sink_reqs(),
    );
    let tree = solved.best_tree().ok_or_else(|| SolverError::EmptyCurve {
        context: format!("van Ginneken produced no solution on `{}`", net.name),
    })?;
    let eval = tree.evaluate(tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
    Ok(FlowResult {
        tree,
        eval,
        runtime_s: start.elapsed().as_secs_f64(),
        loops: 0,
        budget_hit: false,
    })
}

/// The wirelength-driven routing tree of a net (no buffers): iterated
/// 1-Steiner for small nets, plain rectilinear MST for larger ones (the
/// 1-Steiner scan over the Hanan grid is quadratic-ish in net size).
pub fn route_wirelength(net: &Net) -> BufferedTree {
    let n = net.num_sinks();
    let mut points = Vec::with_capacity(n + 1);
    points.push(net.source);
    points.extend(net.sink_positions());
    let spanning: SpanningTree = if n <= 16 {
        iterated_one_steiner(&points, n.min(6))
    } else {
        rectilinear_mst(&points)
    };
    let children = spanning.children();
    let mut tree = BufferedTree::new(net.source);
    let mut stack = vec![(0usize, tree.root())];
    while let Some((sp, tn)) = stack.pop() {
        for &ch in &children[sp] {
            let is_sink = (1..=n).contains(&ch);
            if is_sink && !children[ch].is_empty() {
                // The spanning tree routes *through* this sink (collinear
                // chains do that); model it as a Steiner point with the
                // sink pin hanging off at zero distance.
                let via = tree.add_child(tn, NodeKind::Steiner, spanning.nodes[ch]);
                tree.add_child(via, NodeKind::Sink((ch - 1) as u32), spanning.nodes[ch]);
                stack.push((ch, via));
            } else {
                let kind = if is_sink {
                    NodeKind::Sink((ch - 1) as u32)
                } else {
                    NodeKind::Steiner
                };
                let node = tree.add_child(tn, kind, spanning.nodes[ch]);
                stack.push((ch, node));
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_netlist::bench_nets::random_net;

    #[test]
    fn flow0_produces_valid_trees() {
        let tech = Technology::synthetic_035();
        for n in [5usize, 24] {
            let net = random_net("w", n, 3, &tech);
            let cfg = FlowsConfig::for_net_size(n);
            let res = run(&net, &tech, &cfg);
            res.tree.validate(n, &tech).unwrap();
            assert!(res.eval.delay_ps.is_finite());
        }
    }

    #[test]
    fn wirelength_routing_is_shortest_of_the_flows() {
        // Flow 0's whole point: it minimizes wire, not delay.
        let tech = Technology::synthetic_035();
        let net = random_net("w", 10, 9, &tech);
        let cfg = FlowsConfig::for_net_size(10);
        let w0 = route_wirelength(&net).wirelength();
        let f2 = crate::flow2::run(&net, &tech, &cfg);
        assert!(
            w0 <= f2.tree.wirelength(),
            "MST/Steiner ({w0}) longer than PTREE ({})",
            f2.tree.wirelength()
        );
    }

    #[test]
    fn sink_nodes_have_no_children_after_splice() {
        // The spanning tree may route *through* a sink; the buffered-tree
        // contract forbids sink children, so this documents the constraint
        // holds for our generated instances (sinks at distinct positions
        // rarely chain, but MST chains on collinear sinks do happen).
        let tech = Technology::synthetic_035();
        let net = random_net("w", 30, 4, &tech);
        let tree = route_wirelength(&net);
        tree.validate(30, &tech)
            .expect("spliced flow0 tree keeps the sink-leaf contract");
    }
}
