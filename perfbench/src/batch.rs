//! `batch-4sink`: a seeded population of 4-sink nets through the batch
//! supervisor, in thread mode (`merlin_supervisor::run_batch`, one job,
//! fresh journal) and in process mode (`merlin_cli batch --isolation
//! process --shards 1`). Both are closed loops over the same nets, and
//! their reports must be byte-identical. The population is run as a few
//! batches, alternating the modes.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use merlin_resilience::journal::{JournalRecord, RecordStatus};
use merlin_resilience::{RetryPolicy, ServingTier};
use merlin_supervisor::{run_batch, segment_path, BatchConfig, BatchReport, JournalWriter};
use merlin_tech::Technology;

use crate::inputs::{repeat_setup, set_up, Input, Setup};
use crate::layers::{counter_diff, counter_metrics, only, Counters};
use crate::report::Outcome;
use crate::solver::{compare_hashes, verify_all, Verified};
use crate::stats::{gaps, mean, median, Digest};
use crate::{sys, Run};

const SINKS: usize = 4;
/// Population size per second of `--seconds`: 63 nets at 25 s. Both
/// modes and the verification take about 27 s.
const NETS_PER_SECOND: f64 = 2.5;
/// Batches the population is split into. Each is run in thread mode,
/// then in process mode, before the next, so a stretch of host
/// contention (on a shared 2-vCPU host it slowed every net by up to 75 %
/// for ten seconds and more) falls on both modes instead of on all of one.
const CHUNKS: usize = 4;
const SETUP_REPS: usize = 101;
/// Worker threads in thread mode and worker processes in process mode.
/// One worker leaves the host's second vCPU to the supervisor, the
/// journal watcher and the parent process, and makes the gap between two
/// journal records one net's time.
const JOBS: usize = 1;
/// Threads for the (untimed) verification re-solves.
const VERIFY_THREADS: usize = 2;

struct Population {
    setup: Setup,
    files: Vec<PathBuf>,
}

fn population(run: &Run, out: &mut Outcome) -> Result<Population, String> {
    let count = ((run.seconds.as_secs_f64() * NETS_PER_SECOND).round() as usize).max(8);
    let dir = run.work.join("nets");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (population, setup_s) = repeat_setup(SETUP_REPS, || {
        let start = Instant::now();
        let setup = set_up(run.seed, "b", &vec![SINKS; count]);
        let files = setup
            .inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let path = dir.join(format!("{i:04}.net"));
                std::fs::write(&path, &input.text)
                    .map(|()| path.clone())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((Population { setup, files }, start.elapsed().as_secs_f64()))
    })?;
    out.set("setup_s", setup_s);
    Ok(population)
}

/// Thread-mode batch settings matching `merlin_cli batch`'s defaults, so
/// both modes solve identically.
fn batch_config(run: &Run, capture_trace: bool) -> BatchConfig {
    BatchConfig {
        jobs: JOBS,
        artifacts_dir: Some(run.work.join("artifacts-thread")),
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        capture_trace,
        ..BatchConfig::default()
    }
}

/// Completion time of every net, taken by watching the journal grow:
/// the supervisor commits (and fsyncs) one line per finished net.
fn record_times(journal: &Path, start: Instant, seen: &mut [Option<f64>], consumed: &mut usize) {
    let Ok(bytes) = std::fs::read(journal) else {
        return;
    };
    let Some(end) = bytes.iter().rposition(|&b| b == b'\n') else {
        return;
    };
    if end < *consumed {
        return;
    }
    let now = start.elapsed().as_secs_f64() * 1e3;
    for line in String::from_utf8_lossy(&bytes[*consumed..=end]).lines() {
        if let Ok(rec) = JournalRecord::decode(line) {
            if let Some(slot) = seen.get_mut(rec.idx as usize) {
                slot.get_or_insert(now);
            }
        }
    }
    *consumed = end + 1;
}

/// One timed batch: wall time and when each net's record landed.
struct Timed<T> {
    out: T,
    wall_ms: f64,
    /// Milliseconds from batch start until each net's record landed.
    done_ms: Vec<Option<f64>>,
}

/// Runs `batch` while a watcher thread polls `journal` for records.
fn watched<T>(journal: &Path, count: usize, batch: impl FnOnce() -> T) -> Timed<T> {
    let stop = AtomicBool::new(false);
    let mut done_ms = vec![None; count];
    let start = Instant::now();
    let (out, wall_ms) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut consumed = 0;
            while !stop.load(Ordering::Relaxed) {
                record_times(journal, start, &mut done_ms, &mut consumed);
                std::thread::sleep(Duration::from_millis(1));
            }
            record_times(journal, start, &mut done_ms, &mut consumed);
        });
        let out = batch();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        stop.store(true, Ordering::Relaxed);
        let _ = watcher.join();
        (out, wall_ms)
    });
    Timed {
        out,
        wall_ms,
        done_ms,
    }
}

fn thread_batch(
    run: &Run,
    tech: &Technology,
    inputs: &[Input],
    name: &str,
    capture_trace: bool,
) -> Result<Timed<BatchReport>, String> {
    let journal = run.work.join(format!("{name}.journal"));
    let nets = inputs.iter().map(|i| i.net.clone()).collect();
    let cfg = batch_config(run, capture_trace);
    let timed = watched(&journal, inputs.len(), || {
        run_batch(nets, tech, &cfg, &journal)
    });
    let out = timed
        .out
        .map_err(|e| format!("thread-mode batch failed: {e}"))?;
    Ok(Timed {
        out,
        wall_ms: timed.wall_ms,
        done_ms: timed.done_ms,
    })
}

/// Process mode through the real binary; returns the report text, with
/// the wall time from spawn to exit and when each record landed in the
/// worker's journal segment.
fn process_batch(run: &Run, files: &[PathBuf], name: &str) -> Result<Timed<String>, String> {
    let cli = crate::merlin_cli()?;
    let journal = run.work.join(format!("{name}.journal"));
    let report_path = run.work.join(format!("{name}.report"));
    let timed = watched(&segment_path(&journal, 0), files.len(), || {
        Command::new(&cli)
            .arg("batch")
            .args(files)
            .args(["--isolation", "process", "--shards", &JOBS.to_string()])
            .arg("--journal")
            .arg(&journal)
            .arg("--report")
            .arg(&report_path)
            .arg("--artifacts")
            .arg(run.work.join("artifacts-process"))
            .output()
    });
    let output = timed
        .out
        .as_ref()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    if !output.status.success() {
        return Err(format!(
            "process-mode batch exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    Ok(Timed {
        out: text,
        wall_ms: timed.wall_ms,
        done_ms: timed.done_ms,
    })
}

/// Wall time of several batches together.
fn total_wall_ms<T>(runs: &[Timed<T>]) -> f64 {
    runs.iter().map(|t| t.wall_ms).sum()
}

/// Each net's own time in several sequential batches: the gaps between
/// journal records.
fn net_ms<T>(runs: &[Timed<T>]) -> Vec<f64> {
    runs.iter().flat_map(|t| gaps(&t.done_ms)).collect()
}

/// Checks the thread-mode report and every net against its verified
/// re-solve, and feeds both to the digest.
fn check_outputs(
    report: &BatchReport,
    inputs: &[Input],
    verified: &[Result<Verified, String>],
    digest: &mut Digest,
    out: &mut Outcome,
) {
    if report.lost() != 0 {
        out.problem(format!("thread-mode batch lost {} nets", report.lost()));
    }
    let mut recorded = vec![None; inputs.len()];
    for row in &report.rows {
        if let Some(slot) = recorded.get_mut(row.idx as usize) {
            *slot = (row.status == RecordStatus::Served).then_some(row.hash);
        }
    }
    let names: Vec<&str> = inputs.iter().map(|i| i.net.name.as_str()).collect();
    for (result, v) in compare_hashes(verified, &recorded, &names)
        .into_iter()
        .zip(verified)
    {
        if let Ok(v) = v {
            digest.net(v.req_ps, v.area, v.tier.label());
        }
        out.check(result);
    }
    digest.bytes(report.render().as_bytes());
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    crate::merlin_cli()?;
    let Population { setup, files } = population(run, out)?;
    let count = setup.inputs.len();
    // The traced run compares with one untraced batch of everything.
    let size = count.div_ceil(if run.traced { 1 } else { CHUNKS });
    let chunks: Vec<Range<usize>> = (0..count)
        .step_by(size)
        .map(|start| start..(start + size).min(count))
        .collect();
    let (mut threads, mut processes) = (Vec::new(), Vec::new());
    let mut identical = true;
    for (c, range) in chunks.iter().enumerate() {
        let inputs = &setup.inputs[range.clone()];
        let thread = thread_batch(run, &setup.tech, inputs, &format!("thread-{c}"), false)?;
        let process = process_batch(run, &files[range.clone()], &format!("process-{c}"))?;
        if thread.out.render() != process.out {
            identical = false;
            out.problem(format!(
                "batch {c}: thread-mode and process-mode reports differ"
            ));
        }
        threads.push(thread);
        processes.push(process);
    }
    if run.traced {
        return traced(run, &setup, &threads[0], processes[0].wall_ms / 1e3, out);
    }
    let inputs: Vec<&Input> = setup.inputs.iter().collect();
    let (verified, _) = verify_all(&inputs, &setup.tech, VERIFY_THREADS, false);
    let mut digest = Digest::default();
    for (range, thread) in chunks.iter().zip(&threads) {
        let (inputs, verified) = (&setup.inputs[range.clone()], &verified[range.clone()]);
        check_outputs(&thread.out, inputs, verified, &mut digest, out);
    }
    let ok: Vec<&Verified> = verified.iter().filter_map(|v| v.as_ref().ok()).collect();
    let n = count as f64;
    let merlin = threads
        .iter()
        .flat_map(|t| &t.out.rows)
        .filter(|r| r.status == RecordStatus::Served && r.tier == ServingTier::Merlin)
        .count();
    let (thread_ms, process_ms) = (total_wall_ms(&threads), total_wall_ms(&processes));
    out.set_all([
        ("nets_per_s", n * 1e3 / thread_ms),
        ("solve_ms_p50", median(&net_ms(&threads))),
        ("proc_nets_per_s", n * 1e3 / process_ms),
        ("submit_ms_p50", median(&net_ms(&processes))),
        ("merlin_share", merlin as f64 / n),
        (
            "req_ps_mean",
            mean(&ok.iter().map(|v| v.req_ps).collect::<Vec<_>>()),
        ),
        (
            "buffer_area_mean",
            mean(&ok.iter().map(|v| v.area as f64).collect::<Vec<_>>()),
        ),
        ("peak_rss_mb", sys::peak_rss_mb(None).unwrap_or(0.0)),
    ]);
    println!(
        "batch: {count} nets of {SINKS} sinks in {} batches, {JOBS} worker; thread mode {:.2} s, \
         process mode {:.2} s; reports identical: {identical}",
        chunks.len(),
        thread_ms / 1e3,
        process_ms / 1e3,
    );
    println!(
        "digest: {:016x} over all {count} nets and the batch reports",
        digest.value()
    );
    Ok(())
}

fn traced(
    run: &Run,
    setup: &Setup,
    untraced: &Timed<BatchReport>,
    process_wall_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = setup.inputs.len() as f64;
    let untraced_wall_s = untraced.wall_ms / 1e3;
    let traced_run = thread_batch(run, &setup.tech, &setup.inputs, "traced", true)?;
    let traced_wall_s = traced_run.wall_ms / 1e3;
    let set = traced_run.out.trace.clone().unwrap_or_default();
    let batch_counters: Counters = set
        .merged_counters()
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    // The supervisor's own per-attempt span, from inside the same batch.
    let in_batch_solve_ms = set
        .streams
        .iter()
        .flat_map(|s| &s.trace.spans)
        .filter(|span| span.name == "supervisor.net")
        .map(|span| span.dur_ns as f64 / 1e6)
        .sum::<f64>();

    let inputs: Vec<&Input> = setup.inputs.iter().collect();
    let (verified, mut layers) = verify_all(&inputs, &setup.tech, VERIFY_THREADS, true);
    check_outputs(
        &untraced.out,
        &setup.inputs,
        &verified,
        &mut Digest::default(),
        out,
    );
    // Self-check: the supervisor's traced batch and the benchmark's own
    // traced solves of the same nets must count the same solver work.
    let solver = ["core.", "curves."];
    for line in counter_diff(
        &only(&batch_counters, &solver),
        &only(&layers.counters, &solver),
    ) {
        out.problem(format!("counter self-check: {line}"));
    }
    layers.counters = batch_counters;

    // Journal cost: the same records appended (and fsynced) into a
    // scratch journal.
    let mut writer = JournalWriter::create(&run.work.join("replay.journal"))
        .map_err(|e| format!("cannot create the replay journal: {e}"))?;
    for row in &untraced.out.rows {
        let start = Instant::now();
        writer
            .append(row)
            .map_err(|e| format!("journal replay failed: {e}"))?;
        layers.add("supervisor.journal_ms", start.elapsed());
    }

    // The spans were taken with tracing on, so they are compared with the
    // traced batch's wall time.
    let worker_ms = JOBS as f64 * traced_wall_s * 1e3;
    let solve_ms = layers.total_ms("resilience.solve_ms");
    out.set_all(counter_metrics(&layers.counters, setup.inputs.len()));
    out.set_all([
        ("netlist.gen_ms", setup.gen_s * 1e3 / n),
        ("netlist.io_ms", setup.io_s * 1e3 / n),
        ("resilience.solve_ms", layers.mean_ms("resilience.solve_ms")),
        (
            "supervisor.journal_ms",
            layers.mean_ms("supervisor.journal_ms"),
        ),
        (
            "supervisor.overhead_share",
            1.0 - in_batch_solve_ms / worker_ms,
        ),
        (
            "supervisor.proc_overhead_ms",
            (process_wall_s - untraced_wall_s) * 1e3 / n,
        ),
        (
            "trace.overhead_share",
            traced_wall_s / untraced_wall_s - 1.0,
        ),
        (
            "trace.coverage_share",
            (solve_ms + layers.total_ms("supervisor.journal_ms")) / worker_ms,
        ),
    ]);
    crate::write_layer_table(run, &layers, out);
    Ok(())
}
