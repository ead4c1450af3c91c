//! `solve-seq`: one caller solving a seeded set of 4-sink nets back to
//! back with flow III, through `merlin::Merlin` and `BubbleConstruct`, at
//! one DP thread. Its traced run also solves the traced nets at two DP
//! threads, for the per-layer figures of the level-sharded path.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use merlin::{BubbleConstruct, Merlin};
use merlin_netlist::io::parse_net;
use merlin_netlist::Net;
use merlin_order::tsp::tsp_order;
use merlin_tech::{Evaluation, Technology};

use crate::inputs::{repeat_setup, set_up, Setup};
use crate::layers::{counter_diff, counter_metrics, drain_counters, Layers};
use crate::report::Outcome;
use crate::solver::{check, config};
use crate::stats::{mean, median, Digest};
use crate::{sys, Run};

/// Sinks per net (see README for why not more).
const SINKS: usize = 4;
/// Nets per second of `--seconds`: 112 nets at 25 s, which takes about
/// 20 s. Fewer let the mix of 1-, 2- and 3-iteration nets move
/// throughput and the quality means between seeds.
const NETS_PER_SECOND: f64 = 4.5;
/// DP threads of the timed run.
const THREADS: usize = 1;
/// DP threads of the traced run's level-sharded pass (see README for why
/// it is not a timed workload).
const PAR_THREADS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Nets in the digest, so runs of any length compare.
const DIGEST_NETS: usize = 16;
/// Nets in the traced run (a fixed count keeps its counters
/// deterministic).
const TRACE_NETS: usize = 16;

pub fn run(run: &Run, out: &mut Outcome) {
    let count = ((run.seconds.as_secs_f64() * NETS_PER_SECOND).round() as usize).max(TRACE_NETS);
    let sinks = vec![SINKS; count];
    let (setup, setup_s) = repeat_setup(SETUP_REPS, || {
        let s = set_up(run.seed, "solve", &sinks);
        let took = s.total_s;
        Ok((s, took))
    })
    .expect("set-up is infallible");
    out.set("setup_s", setup_s);
    if run.traced {
        traced(run, &setup, out);
    } else {
        timed(&setup, out);
    }
}

fn timed(setup: &Setup, out: &mut Outcome) {
    let tech = &setup.tech;
    let (mut request_ms, mut solve_ms, mut peak_mb) = (vec![], vec![], vec![]);
    let (mut req, mut area) = (vec![], vec![]);
    let mut digest = Digest::default();
    let run_peak_mb = sys::peak_rss_mb(None).unwrap_or(0.0);
    let cpu0 = sys::cpu_seconds(None).unwrap_or(0.0);
    let start = Instant::now();
    // Benchmark-side spans only (a few clock reads per net); the program
    // itself runs untraced.
    let mut spans = Layers::default();
    for (i, input) in setup.inputs.iter().enumerate() {
        sys::reset_peak_rss();
        // One request: the caller hands over the `.net` text and gets the
        // checked tree back.
        let begin = Instant::now();
        let net = parse_net(&input.text).expect("a written net parses back");
        let (took, eval, result) = solve_path(&net, tech, THREADS, &mut spans);
        request_ms.push(begin.elapsed().as_secs_f64() * 1e3);
        solve_ms.push(took.as_secs_f64() * 1e3);
        peak_mb.push(sys::peak_rss_mb(None).unwrap_or(0.0));
        if result.is_ok() {
            req.push(eval.root_required_ps);
            area.push(eval.buffer_area as f64);
        }
        if i < DIGEST_NETS {
            digest.net(eval.root_required_ps, eval.buffer_area, "merlin");
        }
        out.check(result);
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds(None).unwrap_or(0.0) - cpu0;
    let nets = solve_ms.len() as f64;
    out.set_all([
        ("nets_per_s", nets / wall),
        ("solve_ms_p50", median(&solve_ms)),
        ("proc_nets_per_s", nets / cpu.max(1e-3)),
        ("submit_ms_p50", median(&request_ms)),
        ("merlin_share", req.len() as f64 / nets),
        ("req_ps_mean", mean(&req)),
        ("buffer_area_mean", mean(&area)),
        ("peak_rss_mb", median(&peak_mb)),
    ]);
    println!(
        "solve: {} nets of {SINKS} sinks at {THREADS} DP thread in {wall:.2} s, {cpu:.2} CPU s; \
         peak RSS {run_peak_mb:.1} MiB after set-up, {:.1} MiB over the run",
        solve_ms.len(),
        peak_mb.iter().copied().fold(run_peak_mb, f64::max)
    );
    println!(
        "digest: {:016x} over the first {} nets",
        digest.value(),
        solve_ms.len().min(DIGEST_NETS)
    );
}

/// One net through flow III, as `merlin_flows::flow3::run` does it (the
/// MERLIN search, then an independent evaluation of the extracted tree),
/// plus the output check, inside the `core.merlin_ms` and
/// `tech.evaluate_ms` spans. Returns how long it took, the evaluation and
/// the check's verdict.
fn solve_path(
    net: &Net,
    tech: &Technology,
    threads: usize,
    layers: &mut Layers,
) -> (Duration, Evaluation, Result<(), String>) {
    let cfg = config(net, threads);
    let start = Instant::now();
    let outcome = layers.time("core.merlin_ms", || {
        Merlin::new(tech, cfg.merlin).optimize(net)
    });
    let (eval, result) = layers.time("tech.evaluate_ms", || {
        let eval = outcome
            .tree
            .evaluate(tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
        let result = check(net, tech, &outcome, &eval);
        (eval, result)
    });
    (start.elapsed(), eval, result)
}

fn traced(run: &Run, setup: &Setup, out: &mut Outcome) {
    let threads = THREADS;
    let tech = &setup.tech;
    let inputs = &setup.inputs[..TRACE_NETS];
    let sinks = vec![SINKS; TRACE_NETS];
    let io = set_up(run.seed, "solve", &sinks);

    // Untraced reference pass over the same nets.
    let mut untraced = Duration::ZERO;
    let mut scratch = Layers::default();
    for input in inputs {
        untraced += solve_path(&input.net, tech, threads, &mut scratch).0;
    }

    // Traced pass: the diagnostic single construction first (its counters
    // are dropped), then the solve path with its counters kept per net.
    let mut layers = Layers::default();
    let mut traced_wall = Duration::ZERO;
    let mut per_net = Vec::new();
    merlin_trace::enable();
    for input in inputs {
        let net = &input.net;
        let cfg = config(net, threads);
        let order = layers.time("order.tsp_ms", || {
            tsp_order(net.source, &net.sink_positions())
        });
        let pass = layers.time("core.construct_ms", || {
            BubbleConstruct::new(net, tech, cfg.merlin).run(&order)
        });
        layers.time("core.extract_ms", || {
            pass.select(cfg.merlin.constraint).map(|p| pass.extract(&p))
        });
        let _ = merlin_trace::drain();
        let (took, _, result) = solve_path(&input.net, tech, threads, &mut layers);
        traced_wall += took;
        out.check(result);
        per_net.push(drain_counters());
    }
    // Self-check: the first net traced again must count the same work.
    let _ = solve_path(&inputs[0].net, tech, threads, &mut scratch);
    let again = drain_counters();
    merlin_trace::disable();
    for line in counter_diff(&per_net[0], &again) {
        out.problem(format!("counter self-check: {line}"));
    }
    for counters in per_net {
        layers.add_counters(counters.iter().map(|(k, v)| (k.as_str(), *v)));
    }

    // The level-sharded path: the same nets at two DP threads, untraced
    // for its time, then traced for its counters.
    let mut par_wall = Duration::ZERO;
    for input in inputs {
        par_wall += solve_path(&input.net, tech, PAR_THREADS, &mut scratch).0;
    }
    let mut par = Layers::default();
    merlin_trace::enable();
    for input in inputs {
        let (_, _, result) = solve_path(&input.net, tech, PAR_THREADS, &mut scratch);
        out.check(result);
        par.add_counters(drain_counters().iter().map(|(k, v)| (k.as_str(), *v)));
    }
    merlin_trace::disable();
    let par_metrics: BTreeMap<_, _> = counter_metrics(&par.counters, TRACE_NETS)
        .into_iter()
        .collect();

    let n = TRACE_NETS as f64;
    let covered = layers.total_ms("core.merlin_ms") + layers.total_ms("tech.evaluate_ms");
    out.set_all(counter_metrics(&layers.counters, TRACE_NETS));
    out.set_all([
        (
            "core.parallel.steps.rebased",
            par_metrics["core.parallel.steps.rebased"],
        ),
        ("core.par2.solve_ms", par_wall.as_secs_f64() * 1e3 / n),
        (
            "core.par2.speedup",
            untraced.as_secs_f64() / par_wall.as_secs_f64(),
        ),
        (
            "core.par2.cache.hit_ratio",
            par_metrics["core.cache.hit_ratio"],
        ),
        ("core.par2.prune.in", par_metrics["curves.prune.in"]),
        ("netlist.gen_ms", io.gen_s * 1e3 / n),
        ("netlist.io_ms", io.io_s * 1e3 / n),
        ("order.tsp_ms", layers.mean_ms("order.tsp_ms")),
        ("core.construct_ms", layers.mean_ms("core.construct_ms")),
        ("core.merlin_ms", layers.mean_ms("core.merlin_ms")),
        ("core.extract_ms", layers.mean_ms("core.extract_ms")),
        ("tech.evaluate_ms", layers.mean_ms("tech.evaluate_ms")),
        (
            "trace.overhead_share",
            traced_wall.as_secs_f64() / untraced.as_secs_f64() - 1.0,
        ),
        (
            "trace.coverage_share",
            covered / (traced_wall.as_secs_f64() * 1e3),
        ),
    ]);
    crate::write_layer_table(run, &layers, out);
}
