//! Whole-solve byte pins: seeded flow-III solves must reproduce committed
//! fingerprints — every evaluation field as raw bits, each sink delay,
//! and the rendered SVG — at several DP thread counts.
//!
//! The 6-sink golden file was written while the pre-index `BTreeMap`
//! prune sweep was still compiled in, and both sweeps produced it byte
//! for byte at every thread count. So that test keeps pinning the indexed
//! staircase (and the predictive filters in front of it) to the original
//! Definition-6 prune end to end, and the level-sharded construction to
//! the sequential one. The 4-sink golden file pins the net size the
//! benchmark solves, over six seeds. A mismatch means solve output
//! changed; there is deliberately no switch that rewrites either file.

use merlin_flows::{flow3, FlowsConfig};
use merlin_netlist::bench_nets::random_net;
use merlin_tech::{svg, Technology};

const GOLDEN_6: &str = include_str!("golden/flow3_6sink_seed3.txt");
const GOLDEN_4: &str = include_str!("golden/flow3_4sink.txt");

/// Bit-exact fingerprint of one solve: two solves that differ anywhere
/// in the evaluation or the tree differ here.
fn solve_fingerprint(name: &str, sinks: usize, seed: u64, threads: usize) -> String {
    let tech = Technology::synthetic_035();
    let net = random_net(name, sinks, seed, &tech);
    let mut cfg = FlowsConfig::for_net_size(sinks);
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

/// Fails with the first differing line when `got` is not `golden`.
fn assert_golden(got: &str, golden: &str, what: &str) {
    let first_diff = got.lines().zip(golden.lines()).position(|(g, w)| g != w);
    assert!(
        got == golden,
        "{what}: solve diverged from the golden file \
         (first differing line: {:?}); got:\n{got}",
        first_diff.map(|i| i + 1),
    );
}

#[test]
fn six_sink_flow3_solve_matches_the_golden_fingerprint_at_1_2_4_threads() {
    for threads in [1usize, 2, 4] {
        let got = solve_fingerprint("prune-ab", 6, 3, threads);
        assert_golden(
            &got,
            GOLDEN_6,
            &format!("threads {threads}, tests/golden/flow3_6sink_seed3.txt"),
        );
    }
}

/// The six 4-sink fingerprints, each under a `# seed <n>` header line,
/// solved at `threads` DP threads.
fn four_sink_fingerprints(threads: usize) -> String {
    let mut s = String::new();
    for seed in 1..=6u64 {
        s.push_str(&format!("# seed {seed}\n"));
        s.push_str(&solve_fingerprint("golden4", 4, seed, threads));
    }
    s
}

#[test]
fn four_sink_flow3_solves_match_the_golden_fingerprints_at_1_2_threads() {
    let sequential = four_sink_fingerprints(1);
    assert_golden(
        &sequential,
        GOLDEN_4,
        "threads 1, tests/golden/flow3_4sink.txt",
    );
    let sharded = four_sink_fingerprints(2);
    assert_golden(&sharded, &sequential, "threads 2 against threads 1");
}
