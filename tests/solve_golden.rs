//! Whole-solve byte pin: a seeded 6-sink flow-III solve must reproduce a
//! committed fingerprint — every evaluation field as raw bits, each sink
//! delay, and the rendered SVG — at 1, 2 and 4 DP threads.
//!
//! The golden file was written while the pre-index `BTreeMap` prune
//! sweep was still compiled in, and both sweeps produced it byte for
//! byte at every thread count. So this test keeps pinning the indexed
//! staircase (and the predictive filters in front of it) to the original
//! Definition-6 prune end to end, and the level-sharded construction to
//! the sequential one. A mismatch means solve output changed; there is
//! deliberately no switch that rewrites the file.

use merlin_flows::{flow3, FlowsConfig};
use merlin_netlist::bench_nets::random_net;
use merlin_tech::{svg, Technology};

const GOLDEN: &str = include_str!("golden/flow3_6sink_seed3.txt");

/// Bit-exact fingerprint of one solve: two solves that differ anywhere
/// in the evaluation or the tree differ here.
fn solve_fingerprint(threads: usize) -> String {
    let tech = Technology::synthetic_035();
    let net = random_net("prune-ab", 6, 3, &tech);
    let mut cfg = FlowsConfig::for_net_size(6);
    cfg.merlin.threads = threads;
    let r = flow3::run(&net, &tech, &cfg);
    let e = &r.eval;
    let mut s = format!(
        "req={:016x} load={} area={} bufs={} wl={} delay={:016x}\n",
        e.root_required_ps.to_bits(),
        e.root_load.0,
        e.buffer_area,
        e.num_buffers,
        e.wirelength,
        e.delay_ps.to_bits(),
    );
    for d in &e.sink_delays_ps {
        s.push_str(&format!("sink={:016x}\n", d.to_bits()));
    }
    s.push_str(&svg::render(&r.tree));
    s
}

#[test]
fn six_sink_flow3_solve_matches_the_golden_fingerprint_at_1_2_4_threads() {
    for threads in [1usize, 2, 4] {
        let got = solve_fingerprint(threads);
        let first_diff = got.lines().zip(GOLDEN.lines()).position(|(g, w)| g != w);
        assert!(
            got == GOLDEN,
            "threads {threads}: solve diverged from tests/golden/flow3_6sink_seed3.txt \
             (first differing line: {:?}); got:\n{got}",
            first_diff.map(|i| i + 1),
        );
    }
}
