//! The MERLIN benchmark: seeded workloads driven through the public entry
//! points, end-to-end metrics from untraced runs, per-layer metrics from
//! a separate traced run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-seq --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! the JSON result; everything before it (host block, digest, tables) is
//! for people. The exit code is non-zero when an output check, the
//! digest cross-check or the counter self-check fails. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod batch;
mod daemon;
mod inputs;
mod layers;
mod report;
mod solve;
mod solver;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use layers::Layers;
use report::{Outcome, PER_LAYER};

/// Scratch space inside the checkout: journals, `.net` files, daemon
/// data directories and the per-layer tables.
const WORK_ROOT: &str = ".perfbench";

const WORKLOADS: &[&str] = &["solve-seq", "batch-4sink", "daemon-open"];

const USAGE: &str = "usage: perfbench --workload <solve-seq|batch-4sink|daemon-open> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// This workload's scratch directory, emptied at start.
    pub work: PathBuf,
}

fn parse_args() -> Result<Run, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, sys::DEFAULT_SEED, 20.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let work = Path::new(WORK_ROOT).join(&workload);
    Ok(Run {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        traced,
        work,
    })
}

/// Builds `merlin_cli` from the checkout (a no-op once built) and returns
/// its path. The batch and daemon workloads drive the real binary.
pub fn merlin_cli() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "--bin",
            "merlin_cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building merlin_cli failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("merlin_cli");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("merlin_cli not found at {}", bin.display()))
    }
}

/// Prints the traced run's per-layer table and writes it, with the span
/// table and every counter, to `.perfbench/results/`.
pub fn write_layer_table(run: &Run, layers: &Layers, out: &mut Outcome) {
    out.zero_unexercised();
    let mut text = format!(
        "per-layer table: workload={} seed={}\n",
        run.workload, run.seed
    );
    text.push_str(&out.render(PER_LAYER));
    text.push_str("spans (benchmark-side, around public entry points):\n");
    text.push_str(&layers.render_spans());
    text.push_str("counters (merlin-trace):\n");
    for (name, value) in &layers.counters {
        text.push_str(&format!("  {name:<40} {value}\n"));
    }
    print!("{text}");
    let dir = Path::new(WORK_ROOT).join("results");
    let path = dir.join(format!("{}-seed{}-layers.txt", run.workload, run.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&run.work);
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("perfbench: cannot create {}: {e}", run.work.display());
        return ExitCode::from(2);
    }
    println!("{}", sys::host_block(&run.workload, run.seed));
    let ticks = sys::CpuTicks::now();
    let mut out = Outcome::default();
    let result = match run.workload.as_str() {
        "solve-seq" => {
            solve::run(&run, &mut out);
            Ok(())
        }
        "batch-4sink" => batch::run(&run, &mut out),
        _ => daemon::run(&run, &mut out),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} could not run: {e}", run.workload);
        return ExitCode::FAILURE;
    }
    if let Some(ticks) = ticks {
        println!(
            "host: {:.2} % of CPU time was stolen by the hypervisor during the run",
            ticks.steal_share_since() * 100.0
        );
    }
    let (line, correct) = out.finish(run.traced);
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
