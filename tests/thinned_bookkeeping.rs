//! DP bookkeeping on the production curve policy.
//!
//! `BUBBLE_CONSTRUCT` gives a provenance step only to the points that
//! survive a site's last thinning (`Curve::finalize`), so a pending id
//! crosses `thin_to`, `reduce` and `absorb` before it becomes an arena
//! handle. The crate-level bookkeeping test runs exact curves on the tiny
//! technology, where nothing is thinned; this one runs the benchmark's
//! 4-sink configuration, thinned to 10 points per curve, on both
//! execution paths (sequential and level-sharded) and with quantized
//! loads. Every point of the final curve must extract to a well-formed
//! tree whose independent Elmore evaluation reproduces the point's
//! `(req, load, area)`.

use merlin::BubbleConstruct;
use merlin_flows::FlowsConfig;
use merlin_netlist::bench_nets::random_net;
use merlin_order::tsp::tsp_order;
use merlin_tech::Technology;

#[test]
fn every_thinned_final_point_re_evaluates_to_its_dp_values() {
    let tech = Technology::synthetic_035();
    for seed in 1..=3u64 {
        let net = random_net("thinned", 4, seed, &tech);
        let order = tsp_order(net.source, &net.sink_positions());
        for threads in [1usize, 2] {
            for load_quant in [1u32, 4] {
                let mut cfg = FlowsConfig::for_net_size(4).merlin;
                cfg.threads = threads;
                cfg.load_quant = load_quant;
                let what = format!("seed {seed}, {threads} threads, load_quant {load_quant}");
                let res = BubbleConstruct::new(&net, &tech, cfg).run(&order);
                assert!(!res.curve.is_empty(), "{what}");
                for p in res.curve.iter() {
                    let tree = res.extract(p);
                    tree.validate(net.num_sinks(), &tech)
                        .unwrap_or_else(|e| panic!("{what}: malformed tree: {e:?}"));
                    let eval =
                        tree.evaluate(&tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
                    assert!(
                        (res.driver_required(p) - eval.root_required_ps).abs() < 1e-6,
                        "{what}: req {} vs {}",
                        res.driver_required(p),
                        eval.root_required_ps
                    );
                    assert_eq!(eval.root_load, p.load, "{what}");
                    assert_eq!(eval.buffer_area, p.area, "{what}");
                }
            }
        }
    }
}
