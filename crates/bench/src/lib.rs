//! Benchmark harness regenerating the paper's evaluation.
//!
//! Binaries (run with `cargo run -p merlin-bench --release --bin <name>`):
//!
//! | bin | reproduces |
//! |---|---|
//! | `table1` | Table 1 — 18 individual nets, three flows |
//! | `table2` | Table 2 — 15 circuits through a full flow |
//! | `neighborhood` | Theorem 1 — neighborhood size growth (E3) |
//! | `scaling` | Theorems 2/5/6 — runtime/memory scaling (E4) |
//! | `ablation` | candidate-set / initial-order / bubbling ablations (E5, E7) |
//! | `convergence` | Theorem 7 / loop counts (E6) |
//!
//! These regenerate the paper's tables; they are not the performance
//! benchmark. Performance is measured end to end and per layer by the
//! one command in `BENCHMARK.json` (`perfbench/`, see its README).

use std::time::Instant;

/// Measures the wall-clock seconds of `f`, returning `(result, secs)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Parses a `--scale <divisor>`-style integer flag from `std::env::args`,
/// with a default. Used by the heavy table binaries so CI can run reduced
/// versions.
pub fn arg_flag(name: &str, default: u64) -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, s) = timed(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn arg_flag_falls_back_to_default() {
        assert_eq!(arg_flag("--definitely-not-set", 7), 7);
    }
}
