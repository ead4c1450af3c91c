//! Checked flow-III solves, shared by every workload: the benchmark's
//! own solves (`solve-seq`) and the re-solves that verify what the
//! batch supervisor and the daemon served.

use merlin::{Merlin, MerlinOutcome};
use merlin_flows::resilient::resilient_solve;
use merlin_flows::FlowsConfig;
use merlin_netlist::Net;
use merlin_resilience::journal::outcome_hash;
use merlin_resilience::{ServingTier, SolveBudget};
use merlin_tech::{Evaluation, Technology};

use crate::inputs::Input;
use crate::layers::{drain_counters, Layers};

/// The per-net configuration every entry point uses, with `threads` DP
/// workers (`0` keeps the sequential default).
pub fn config(net: &Net, threads: usize) -> FlowsConfig {
    let mut cfg = FlowsConfig::for_net_size(net.num_sinks());
    if threads > 0 {
        cfg.merlin.threads = threads;
    }
    cfg
}

/// The output check: the tree is structurally valid and its evaluation
/// equals what the DP claimed for it.
pub fn check(
    net: &Net,
    tech: &Technology,
    out: &MerlinOutcome,
    eval: &Evaluation,
) -> Result<(), String> {
    out.tree
        .validate(net.num_sinks(), tech)
        .map_err(|e| format!("{}: invalid tree: {e}", net.name))?;
    if (eval.root_required_ps - out.root_required_ps).abs() > 1e-6 {
        return Err(format!(
            "{}: evaluated required time {} != DP claim {}",
            net.name, eval.root_required_ps, out.root_required_ps
        ));
    }
    if eval.buffer_area != out.buffer_area {
        return Err(format!(
            "{}: evaluated buffer area {} != DP claim {}",
            net.name, eval.buffer_area, out.buffer_area
        ));
    }
    Ok(())
}

/// One verified solve.
#[derive(Clone, Debug)]
pub struct Verified {
    pub req_ps: f64,
    pub area: u64,
    pub tier: ServingTier,
    /// The journal's `outcome_hash` of this solution.
    pub hash: u64,
}

fn hash_of(net: &Net, tier: ServingTier, eval: &Evaluation) -> u64 {
    outcome_hash(
        &net.name,
        tier,
        eval.buffer_area,
        eval.num_buffers,
        eval.wirelength,
        eval.delay_ps,
    )
}

/// Solves `net` with flow III (as `merlin_flows::flow3::run` does: the
/// MERLIN search, then an independent evaluation of the extracted tree),
/// checks the result, and returns what a supervisor record of the same
/// solve would hold.
pub fn verify(net: &Net, tech: &Technology) -> Result<Verified, String> {
    let out = Merlin::new(tech, config(net, 0).merlin).optimize(net);
    let eval = out
        .tree
        .evaluate(tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
    check(net, tech, &out, &eval)?;
    Ok(Verified {
        req_ps: eval.root_required_ps,
        area: eval.buffer_area,
        tier: ServingTier::Merlin,
        hash: hash_of(net, ServingTier::Merlin, &eval),
    })
}

/// The traced variant: the supervisor's own solver entry point,
/// `resilient_solve`, inside the `resilience.solve_ms` span, with the
/// net's counters drained into `layers`.
pub fn verify_traced(
    net: &Net,
    tech: &Technology,
    layers: &mut Layers,
) -> Result<Verified, String> {
    let out = layers.time("resilience.solve_ms", || {
        resilient_solve(net, tech, &SolveBudget::unlimited())
    });
    let tree = &out.result.tree;
    tree.validate(net.num_sinks(), tech)
        .map_err(|e| format!("{}: invalid tree: {e}", net.name))?;
    let eval = tree.evaluate(tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
    if eval != out.result.eval {
        return Err(format!(
            "{}: re-evaluation differs from the served evaluation",
            net.name
        ));
    }
    layers.add_counters(drain_counters().iter().map(|(k, v)| (k.as_str(), *v)));
    Ok(Verified {
        req_ps: eval.root_required_ps,
        area: eval.buffer_area,
        tier: out.report.served,
        hash: hash_of(net, out.report.served, &eval),
    })
}

/// Verifies `inputs` on `workers` threads (input `i` goes to thread
/// `i % workers`), traced or not. Results come back in input order.
pub fn verify_all(
    inputs: &[&Input],
    tech: &Technology,
    workers: usize,
    traced: bool,
) -> (Vec<Result<Verified, String>>, Layers) {
    let workers = workers.max(1);
    let mut results: Vec<Option<Result<Verified, String>>> = vec![None; inputs.len()];
    let mut layers = Layers::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut mine = Layers::default();
                    if traced {
                        merlin_trace::enable();
                    }
                    let done: Vec<(usize, Result<Verified, String>)> = (w..inputs.len())
                        .step_by(workers)
                        .map(|i| {
                            let net = &inputs[i].net;
                            let r = if traced {
                                verify_traced(net, tech, &mut mine)
                            } else {
                                verify(net, tech)
                            };
                            (i, r)
                        })
                        .collect();
                    if traced {
                        merlin_trace::disable();
                    }
                    (done, mine)
                })
            })
            .collect();
        for handle in handles {
            let (done, mine) = handle.join().expect("verification worker does not panic");
            for (i, r) in done {
                results[i] = Some(r);
            }
            layers.merge(mine);
        }
    });
    let results = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err("not verified".to_owned())))
        .collect();
    (results, layers)
}

/// Compares verified solves with the hashes a supervisor journaled for
/// the same nets (`None` = no record).
pub fn compare_hashes(
    verified: &[Result<Verified, String>],
    recorded: &[Option<u64>],
    names: &[&str],
) -> Vec<Result<(), String>> {
    verified
        .iter()
        .zip(recorded)
        .zip(names)
        .map(|((v, rec), name)| match (v, rec) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), None) => Err(format!("{name}: no terminal record")),
            (Ok(v), Some(h)) if v.hash != *h => Err(format!(
                "{name}: served outcome hash {h:016x} != verified {:016x}",
                v.hash
            )),
            (Ok(_), Some(_)) => Ok(()),
        })
        .collect()
}
