//! Process-isolated batch supervision: sharded worker subprocesses.
//!
//! [`run_batch`](crate::run_batch) contains faults with worker *threads*:
//! a stalled attempt is abandoned, but its thread leaks, and a hard fault
//! (abort, OOM, stack overflow — none of which unwinding can contain)
//! still kills the whole batch. [`run_batch_proc`] moves that blast
//! radius out of process: the parent shards the net population
//! deterministically (`idx % shards`) across worker **subprocesses** —
//! re-execs of the CLI with a hidden `worker` subcommand — and each
//! worker appends to its own fsync'd journal segment
//! (`<journal>.seg<shard>`, see [`crate::journal::segment_path`]).
//!
//! The supervision loop around them:
//!
//! - **Heartbeats** ([`crate::heartbeat`]) on each worker's stdout tell
//!   the parent what is in flight. A worker that misses its deadline —
//!   a net over [`ProcConfig::net_limit`], or silence beyond
//!   [`ProcConfig::hb_limit`] — is *reclaimed*, not abandoned: SIGTERM,
//!   then SIGKILL after [`ProcConfig::term_grace`] (see [`escalation`]).
//! - **Respawn** with capped exponential backoff
//!   ([`ProcConfig::respawn`]). A worker that keeps dying without
//!   committing anything exhausts the policy and fails the batch with
//!   [`BatchError::WorkerRespawnExhausted`] instead of spinning.
//! - **Poison-net quarantine**: a net whose solve kills its worker
//!   [`ProcConfig::poison_k`] times is recorded `failed-crash` in the
//!   parent's quarantine segment (`<journal>.segq`) with a `.repro`
//!   artifact, and the shard moves on.
//! - **Graceful drain**: on parent SIGINT ([`install_sigint_drain`])
//!   every worker is told [`DRAIN_COMMAND`] over stdin — finish the
//!   in-flight net, seal the segment, exit. Workers treat stdin EOF the
//!   same way, so an orphaned worker winds down instead of racing a
//!   resumed batch for its segment.
//!
//! Crash recovery is **shard-count independent**: workers derive their
//! pending set by merging *all* segments on disk
//! ([`crate::journal::merge_segments`]), so a batch started with
//! `--shards 8` resumes with `--shards 2`, and `resume` renders the
//! merged records byte-identically to an uninterrupted run.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead as _, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use merlin_netlist::Net;
use merlin_resilience::fault;
use merlin_resilience::journal::{JournalRecord, RecordStatus};
use merlin_resilience::{RetryPolicy, ServingTier};
use merlin_tech::Technology;

use crate::artifact::{self, Repro};
use crate::batch::{sanitize_name, validate_records, BatchConfig, BatchError};
use crate::exec::{minimize_deferred, solve_to_record, ExecOptions};
use crate::heartbeat::{Heartbeat, DRAIN_COMMAND};
use crate::journal::{
    load_journal, merge_segments, population_hash, quarantine_segment_path, segment_path,
    segment_paths, JournalWriter,
};
use crate::report::BatchReport;

/// How often the parent's event loop wakes to scan for escalations and
/// due respawns when no heartbeat arrives.
const SUPERVISE_POLL: Duration = Duration::from_millis(50);

/// Slice length for a worker's interruptible sleeps (retry backoff): one
/// `hb alive` per slice, so a healthy worker is never silent for long.
const ALIVE_SLICE: Duration = Duration::from_millis(100);

/// Supervision knobs for the process-isolated batch mode.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Worker subprocess count; the population is sharded `idx % shards`.
    pub shards: u32,
    /// The executable to re-exec as a worker (normally
    /// `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments the worker needs to re-derive the net population and
    /// solve configuration (everything except its shard assignment,
    /// which the parent appends).
    pub worker_args: Vec<String>,
    /// Wall-clock limit for one in-flight net before escalation.
    pub net_limit: Duration,
    /// Silence limit when nothing is in flight before escalation.
    pub hb_limit: Duration,
    /// Grace between SIGTERM and SIGKILL.
    pub term_grace: Duration,
    /// Crashes attributed to one net before it is quarantined.
    pub poison_k: u32,
    /// Respawn backoff policy; `max_attempts` also caps *consecutive
    /// barren deaths* (worker died without committing anything) before
    /// the batch fails.
    pub respawn: RetryPolicy,
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            shards: 2,
            program: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("merlin_cli")),
            worker_args: Vec::new(),
            net_limit: Duration::from_secs(120),
            hb_limit: Duration::from_secs(30),
            term_grace: Duration::from_secs(2),
            poison_k: 3,
            respawn: RetryPolicy {
                max_attempts: 6,
                base_backoff: Duration::from_millis(50),
                backoff_factor: 2.0,
                max_backoff: Duration::from_secs(2),
            },
        }
    }
}

/// A worker subprocess's own view of its assignment.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// This worker's shard index (`0..shards`).
    pub shard: u32,
    /// Total shard count the population is partitioned by.
    pub shards: u32,
    /// The *parent* journal path; the worker writes
    /// `segment_path(journal, shard)`.
    pub journal: PathBuf,
    /// Write the drained trace as wire text next to the segment
    /// (`<segment>.trace`) so the parent can merge it cross-process.
    pub trace_wire: bool,
}

/// What [`run_worker`] accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Nets this worker committed terminal records for.
    pub solved: usize,
    /// True when the worker stopped early on a drain request instead of
    /// exhausting its pending set.
    pub drained: bool,
}

/// Set by the parent's SIGINT/SIGTERM handler; polled by the event loop.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// How many drain signals have been delivered; the second one escalates
/// to a hard abort (see [`note_drain_signal`]).
static DRAIN_SIGNALS: AtomicU32 = AtomicU32::new(0);

/// Whether a drain has been requested (SIGINT/SIGTERM or
/// [`request_drain`]).
pub fn drain_requested() -> bool {
    DRAIN_REQUESTED.load(Ordering::Relaxed)
}

/// Programmatic drain trigger (what the signal handlers call; exposed
/// for tests and embedders).
pub fn request_drain() {
    DRAIN_REQUESTED.store(true, Ordering::Relaxed);
}

/// Records one drain signal and decides the response: the first requests
/// a graceful drain (returns `false`), every later one escalates to an
/// immediate hard abort (returns `true`). Both the batch SIGINT handler
/// and the server SIGTERM handler route through this, so "press it twice
/// to really stop" behaves identically everywhere. Safe from a signal
/// handler: two relaxed atomic ops, no allocation, no locks.
pub fn note_drain_signal() -> bool {
    let prior = DRAIN_SIGNALS.fetch_add(1, Ordering::Relaxed);
    DRAIN_REQUESTED.store(true, Ordering::Relaxed);
    prior >= 1
}

/// Test hook: clears the process-global drain state so signal-escalation
/// tests do not leak a drain request into unrelated tests.
#[doc(hidden)]
pub fn reset_drain_for_tests() {
    DRAIN_SIGNALS.store(0, Ordering::Relaxed);
    DRAIN_REQUESTED.store(false, Ordering::Relaxed);
}

#[cfg(unix)]
mod sig {
    //! Minimal std-only signal plumbing: `signal(2)` handler
    //! installation and `kill(2)`. Handlers only touch a relaxed atomic,
    //! which is async-signal-safe.

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn kill(pid: i32, sig: i32) -> i32;
    }

    extern "C" fn drain_handler(_sig: i32) {
        // First signal: graceful drain. Second: the operator means it —
        // hard abort (journals are crash-safe; resume recovers). `abort`
        // is async-signal-safe, unlike exit.
        if super::note_drain_signal() {
            std::process::abort();
        }
    }

    extern "C" fn noop_handler(_sig: i32) {}

    pub fn install_sigint_drain() {
        unsafe {
            signal(SIGINT, drain_handler);
        }
    }

    pub fn install_sigterm_drain() {
        unsafe {
            signal(SIGTERM, drain_handler);
        }
    }

    pub fn ignore_sigint() {
        unsafe {
            signal(SIGINT, noop_handler);
        }
    }

    pub fn ignore_sigterm() {
        unsafe {
            signal(SIGTERM, noop_handler);
        }
    }

    pub fn send_sigterm(pid: u32) -> bool {
        match i32::try_from(pid) {
            Ok(p) if p > 0 => unsafe { kill(p, SIGTERM) == 0 },
            _ => false,
        }
    }
}

#[cfg(not(unix))]
mod sig {
    //! Non-unix stubs: no signal-driven drain, and SIGTERM escalation
    //! degrades to going straight to `Child::kill`.

    pub fn install_sigint_drain() {}
    pub fn install_sigterm_drain() {}
    pub fn ignore_sigint() {}
    pub fn ignore_sigterm() {}
    pub fn send_sigterm(_pid: u32) -> bool {
        false
    }
}

/// Installs the parent's SIGINT handler: the first Ctrl-C requests a
/// graceful drain ([`drain_requested`] turns true) instead of killing
/// the process tree abruptly; a second Ctrl-C during the drain escalates
/// to an immediate hard abort ([`note_drain_signal`]). No-op off unix.
pub fn install_sigint_drain() {
    sig::install_sigint_drain();
}

/// Installs the same drain-then-abort handler for SIGTERM — the server's
/// shutdown path, sharing [`note_drain_signal`] escalation with the
/// batch SIGINT handler (a SIGTERM followed by a SIGINT, or vice versa,
/// also escalates). No-op off unix.
pub fn install_sigterm_drain() {
    sig::install_sigterm_drain();
}

/// Makes the calling process ignore SIGINT. Workers install this so a
/// terminal Ctrl-C (delivered to the whole process group) reaches only
/// the parent, which orchestrates the drain over stdin.
pub fn ignore_sigint() {
    sig::ignore_sigint();
}

/// Makes the calling process ignore SIGTERM. A **test-only** worker mode
/// (`--ignore-term`) that forces the parent's escalation ladder past
/// SIGTERM to the SIGKILL rung.
pub fn ignore_sigterm() {
    sig::ignore_sigterm();
}

/// Exit code a worker uses when it hard-exits as an orphan (parent gone,
/// drain grace expired).
pub const EXIT_ORPHANED: u8 = 3;

/// Environment variable carrying the parent-supervision handshake. The
/// parent sets it on every worker it spawns; the hidden `worker`
/// subcommand refuses to run without it, so a stray hand invocation
/// cannot scribble on a journal segment it does not own.
pub const WORKER_HANDSHAKE_ENV: &str = "MERLIN_WORKER_HANDSHAKE";

/// The handshake value a supervising parent stamps into
/// [`WORKER_HANDSHAKE_ENV`]: a versioned tag plus the parent's pid.
pub fn worker_handshake_value() -> String {
    format!("v1:{}", std::process::id())
}

/// Whether `value` (the worker-side reading of [`WORKER_HANDSHAKE_ENV`])
/// is an acceptable supervision handshake. Factored pure for tests; only
/// the version tag is checked — the pid is diagnostic, and the parent
/// may legitimately be dead by the time an orphan checks.
pub fn worker_handshake_ok(value: Option<&str>) -> bool {
    value.is_some_and(|v| v.strip_prefix("v1:").is_some_and(|pid| !pid.is_empty()))
}

/// The one sanctioned process-exit path for worker subprocesses. A
/// wedged orphan cannot unwind a stuck solve from another thread, so a
/// hard exit is the only way to stop racing a resumed batch for the
/// segment file.
pub fn worker_exit(code: u8) -> ! {
    // audit:allow(no-raw-exit) — this fn IS the sanctioned wrapper.
    std::process::exit(i32::from(code))
}

/// What the parent's watchdog should do to a worker right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Escalation {
    /// Healthy (or already terminally escalated): do nothing.
    Hold,
    /// First rung: send SIGTERM.
    Term,
    /// SIGTERM grace expired: SIGKILL.
    Kill,
}

/// The escalation decision, factored pure for testability. A worker is
/// *stuck* when its in-flight net is over `net_limit`, or — with nothing
/// in flight — when it has been silent beyond `hb_limit`. Garbage stdout
/// lines never refresh `last_hb`, so a worker spewing noise still
/// escalates.
pub fn escalation(
    now: Instant,
    last_hb: Instant,
    inflight_since: Option<Instant>,
    term_sent: Option<Instant>,
    cfg: &ProcConfig,
) -> Escalation {
    let stuck = match inflight_since {
        Some(started) => now.duration_since(started) > cfg.net_limit,
        None => now.duration_since(last_hb) > cfg.hb_limit,
    };
    if !stuck {
        return Escalation::Hold;
    }
    match term_sent {
        None => Escalation::Term,
        Some(at) if now.duration_since(at) > cfg.term_grace => Escalation::Kill,
        Some(_) => Escalation::Hold,
    }
}

/// `<segment>.trace` — where a worker leaves its wire-encoded trace.
fn trace_wire_path(segment: &Path) -> PathBuf {
    let mut name = segment.as_os_str().to_owned();
    name.push(".trace");
    PathBuf::from(name)
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> BatchError {
    let context = context.into();
    move |error| BatchError::Io { context, error }
}

/// Best-effort heartbeat emission. A failed write means the parent is
/// gone (EPIPE); the worker winds down like a drain — the stdin watcher
/// usually notices first, this is the backstop.
fn emit(out: &mut dyn Write, hb: &Heartbeat, drain: &AtomicBool) {
    if fault::trip("supervisor.proc.heartbeat") {
        // Chaos: garbage on the protocol stream. The parent must count
        // it without treating it as a sign of life.
        let _ = writeln!(out, "<<chaos heartbeat garbage>>");
    }
    if writeln!(out, "{}", hb.encode()).is_err() || out.flush().is_err() {
        drain.store(true, Ordering::Relaxed);
    }
}

/// Interruptible backoff sleep: one `hb alive` per slice so the parent's
/// liveness clock keeps ticking through long retry backoffs.
fn backoff_with_alive(out: &mut dyn Write, total: Duration, drain: &AtomicBool) {
    let deadline = Instant::now() + total;
    loop {
        if drain.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep(deadline.duration_since(now).min(ALIVE_SLICE));
        emit(out, &Heartbeat::Alive, drain);
    }
}

/// Chaos: tear the commit mid-write — append half a record with no
/// newline (a torn tail the resume heal must absorb), then die like a
/// SIGKILL landed between the write and the fsync.
fn torn_commit_abort(segment: &Path, rec: &JournalRecord) -> ! {
    if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(segment) {
        let line = rec.encode();
        let cut = line.len() / 2;
        let _ = f.write_all(&line.as_bytes()[..cut]);
        let _ = f.sync_data();
    }
    std::process::abort()
}

/// The worker-subprocess body: derive the pending set from the on-disk
/// segments, solve this shard's slice through [`solve_to_record`] (the
/// attempt and verdict functions thread mode calls too), journal each
/// terminal record into the shard's own segment, and speak the heartbeat
/// protocol on `hb_out`.
///
/// Factored over `hb_out`/`drain` (instead of stdout and the process
/// drain flag) so tests can drive it in-process.
///
/// # Errors
///
/// Journal and filesystem failures, or
/// [`BatchError::JournalMismatch`] when the on-disk segments belong to a
/// different net population. Per-net solve failures are journal records,
/// not errors.
pub fn run_worker(
    nets: &[Net],
    tech: &Technology,
    cfg: &BatchConfig,
    opts: &WorkerOptions,
    hb_out: &mut dyn Write,
    drain: &AtomicBool,
) -> Result<WorkerSummary, BatchError> {
    fault::seed_thread(&cfg.fault);
    if cfg.capture_trace {
        merlin_trace::enable();
    }
    let shards = opts.shards.max(1);
    if opts.shard >= shards {
        return Err(BatchError::JournalMismatch {
            detail: format!("worker shard {} out of range (shards={shards})", opts.shard),
        });
    }
    let population = population_hash(nets);
    let seg = segment_path(&opts.journal, opts.shard);
    // The done set comes from *all* segments (any prior shard layout plus
    // the parent's quarantine segment), which is what makes resume
    // shard-count independent.
    let all_segments = segment_paths(&opts.journal).map_err(io_err(format!(
        "cannot list segments of {}",
        opts.journal.display()
    )))?;
    let merged = merge_segments(&all_segments)?;
    if let Some(recorded) = merged.population {
        if recorded != population {
            return Err(BatchError::JournalMismatch {
                detail: format!(
                    "segments record population hash {recorded:016x} but the input nets hash \
                     to {population:016x}"
                ),
            });
        }
    }
    validate_records(nets, &merged.records)?;

    let own = load_journal(&seg)?;
    let mut writer = match &own {
        Some(_) => JournalWriter::append_to(&seg)
            .map_err(io_err(format!("cannot reopen segment {}", seg.display())))?,
        None => JournalWriter::create_with_population(&seg, population)
            .map_err(io_err(format!("cannot create segment {}", seg.display())))?,
    };
    if own
        .as_ref()
        .is_some_and(|loaded| loaded.population.is_none())
    {
        writer
            .append_population(population)
            .map_err(io_err(format!("cannot stamp segment {}", seg.display())))?;
    }

    let pending: Vec<usize> = (0..nets.len())
        .filter(|&i| {
            (i as u64) % u64::from(shards) == u64::from(opts.shard)
                && !merged.records.contains_key(&(i as u64))
        })
        .collect();
    emit(
        hb_out,
        &Heartbeat::Ready {
            shard: opts.shard,
            shards,
            pending: pending.len() as u64,
        },
        drain,
    );

    let mut solved = 0usize;
    let mut drained = false;
    let mut deferred_minimize: Vec<(u64, Repro)> = Vec::new();
    for &idx in &pending {
        if drain.load(Ordering::Relaxed) {
            drained = true;
            break;
        }
        let net = &nets[idx];
        emit(hb_out, &Heartbeat::NetStarted { idx: idx as u64 }, drain);
        if fault::trip("supervisor.proc.solve") {
            // Chaos (persistent arm): wedge forever with the net in
            // flight, exactly what a stuck solve looks like from outside.
            // The parent's SIGTERM → SIGKILL ladder reclaims us.
            loop {
                thread::sleep(ALIVE_SLICE);
            }
        }
        let outcome = solve_to_record(
            net,
            tech,
            cfg,
            idx as u64,
            &ExecOptions::default(),
            &mut |backoff| backoff_with_alive(hb_out, backoff, drain),
        );
        let rec = outcome.record;
        if let Some(pending_min) = outcome.minimize {
            deferred_minimize.push(pending_min);
        }
        if fault::trip("supervisor.proc.commit") {
            torn_commit_abort(&seg, &rec);
        }
        let status = rec.status;
        writer.append(&rec).map_err(io_err(format!(
            "cannot append to segment {}",
            seg.display()
        )))?;
        merlin_trace::counter("supervisor.journal.commit", 1);
        solved += 1;
        emit(
            hb_out,
            &Heartbeat::NetCommitted {
                idx: idx as u64,
                status,
            },
            drain,
        );
    }

    // Past the shard loop, so minimization stays out of the
    // heartbeat-observed hot path.
    let mut warnings = Vec::new();
    minimize_deferred(cfg, tech, &deferred_minimize, &mut warnings);
    for warning in &warnings {
        eprintln!("merlin-worker: {warning}");
    }

    writer
        .seal()
        .map_err(io_err(format!("cannot seal segment {}", seg.display())))?;
    emit(hb_out, &Heartbeat::Sealed, drain);
    if cfg.capture_trace && opts.trace_wire {
        let wire = merlin_trace::wire::encode(&merlin_trace::drain());
        if let Err(e) = std::fs::write(trace_wire_path(&seg), wire) {
            eprintln!("merlin-worker: cannot write trace wire: {e}");
        }
    }
    Ok(WorkerSummary { solved, drained })
}

/// Nets in `shard` still lacking a record in `done`.
fn shard_pending(total: usize, shards: u32, shard: u32, done: &HashSet<u64>) -> usize {
    (0..total as u64)
        .filter(|i| i % u64::from(shards) == u64::from(shard) && !done.contains(i))
        .count()
}

enum ProcEvent {
    Line(u64, String),
    Eof(u64),
}

/// Parent-side bookkeeping for one shard's worker (across respawns).
struct ShardState {
    shard: u32,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Identifies the *current* incarnation; lines from a previous
    /// incarnation's reader thread carry a stale slot and are ignored.
    slot: u64,
    last_hb: Instant,
    inflight: Option<(u64, Instant)>,
    sealed: bool,
    term_sent: Option<Instant>,
    kill_sent: bool,
    /// Consecutive deaths (reset on any commit); feeds respawn backoff.
    consecutive_crashes: u32,
    /// Consecutive deaths with *zero* commits since spawn; exceeding the
    /// respawn policy's `max_attempts` fails the batch.
    barren_deaths: u32,
    committed_since_spawn: bool,
    respawn_at: Option<Instant>,
    finished: bool,
}

fn spawn_shard(
    pcfg: &ProcConfig,
    shards: u32,
    journal_path: &Path,
    tx: &mpsc::Sender<ProcEvent>,
    next_slot: &mut u64,
    st: &mut ShardState,
) -> std::io::Result<()> {
    let slot = *next_slot;
    *next_slot += 1;
    let mut cmd = Command::new(&pcfg.program);
    cmd.arg("worker");
    cmd.env(WORKER_HANDSHAKE_ENV, worker_handshake_value());
    cmd.args(&pcfg.worker_args);
    cmd.arg("--shard").arg(st.shard.to_string());
    cmd.arg("--shards").arg(shards.to_string());
    cmd.arg("--journal").arg(journal_path);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take();
    if let Some(stdout) = child.stdout.take() {
        let tx = tx.clone();
        thread::spawn(move || {
            let reader = std::io::BufReader::new(stdout);
            for line in reader.lines() {
                match line {
                    Ok(l) => {
                        if tx.send(ProcEvent::Line(slot, l)).is_err() {
                            return;
                        }
                    }
                    Err(_) => break,
                }
            }
            let _ = tx.send(ProcEvent::Eof(slot));
        });
    }
    st.child = Some(child);
    st.stdin = stdin;
    st.slot = slot;
    st.last_hb = Instant::now();
    st.inflight = None;
    st.sealed = false;
    st.term_sent = None;
    st.kill_sent = false;
    st.committed_since_spawn = false;
    st.respawn_at = None;
    merlin_trace::counter("supervisor.proc.spawn", 1);
    Ok(())
}

/// Appends a quarantine record for a poison net to the parent's own
/// segment (`<journal>.segq`) and captures a `.repro` artifact. Never
/// minimized: the minimizer would replay the crashing solve in-process.
#[allow(clippy::too_many_arguments)]
fn quarantine(
    journal_path: &Path,
    population: u64,
    nets: &[Net],
    idx: u64,
    crashes: u32,
    cfg: &BatchConfig,
    tech: &Technology,
    net_limit: Duration,
    warnings: &mut Vec<String>,
) -> Result<(), BatchError> {
    let Some(net) = nets.get(idx as usize) else {
        return Ok(());
    };
    let qpath = quarantine_segment_path(journal_path);
    let mut w = if qpath.is_file() {
        JournalWriter::append_to(&qpath).map_err(io_err(format!(
            "cannot reopen quarantine {}",
            qpath.display()
        )))?
    } else {
        JournalWriter::create_with_population(&qpath, population).map_err(io_err(format!(
            "cannot create quarantine {}",
            qpath.display()
        )))?
    };
    let rec = JournalRecord {
        idx,
        net: sanitize_name(&net.name),
        tier: ServingTier::DirectRoute,
        attempts: crashes,
        timeouts: 0,
        status: RecordStatus::FailedCrash,
        hash: 0,
    };
    w.append(&rec).map_err(io_err(format!(
        "cannot append quarantine {}",
        qpath.display()
    )))?;
    merlin_trace::counter("supervisor.proc.quarantine", 1);
    warnings.push(format!(
        "net index {idx} (`{}`) quarantined after killing its worker {crashes} times",
        net.name
    ));
    if let Some(dir) = &cfg.artifacts_dir {
        let repro = Repro {
            cause: RecordStatus::FailedCrash,
            accept_tier: cfg.accept_tier,
            max_attempts: cfg.retry.max_attempts,
            budget_ms: cfg.budget_ms,
            work_limit: cfg.work_limit,
            entry_floor: None,
            watchdog_ms: Some(net_limit.as_millis() as u64),
            chaos: cfg.fault.clone(),
            net: net.clone(),
        };
        if let Err(e) = artifact::capture(dir, idx, &repro, tech, false) {
            warnings.push(format!("artifact capture for `{}` failed: {e}", net.name));
        }
    }
    Ok(())
}

/// Runs (or resumes) a batch with process isolation: shard workers are
/// spawned per [`ProcConfig`], supervised by heartbeat, escalated when
/// wedged, respawned when dead, and their segments merged into one
/// [`BatchReport`]. See the module docs for the full protocol.
///
/// # Errors
///
/// Journal/segment problems, filesystem failures, or
/// [`BatchError::WorkerRespawnExhausted`] when a shard's worker keeps
/// dying without progress. Per-net failures (including quarantined
/// poison nets) are journal records, not errors.
pub fn run_batch_proc(
    nets: Vec<Net>,
    tech: &Technology,
    cfg: &BatchConfig,
    pcfg: &ProcConfig,
    journal_path: &Path,
) -> Result<BatchReport, BatchError> {
    let start = Instant::now();
    if cfg.capture_trace {
        merlin_trace::enable();
    }
    let batch_span = merlin_trace::span!("supervisor.proc.batch");
    let total = nets.len();
    let shards = pcfg.shards.max(1);
    let population = population_hash(&nets);
    let initial_paths = segment_paths(journal_path).map_err(io_err(format!(
        "cannot list segments of {}",
        journal_path.display()
    )))?;
    let initial = merge_segments(&initial_paths)?;
    if let Some(recorded) = initial.population {
        if recorded != population {
            return Err(BatchError::JournalMismatch {
                detail: format!(
                    "segments record population hash {recorded:016x} but the input nets hash \
                     to {population:016x}"
                ),
            });
        }
    }
    validate_records(&nets, &initial.records)?;
    if cfg.crash_after == Some(0) {
        // Chaos hook: die before this run commits anything.
        std::process::abort();
    }
    let replayed = initial.records.len();
    let mut done: HashSet<u64> = initial.records.keys().copied().collect();
    let mut warnings: Vec<String> = Vec::new();
    let mut crash_counts: HashMap<u64, u32> = HashMap::new();
    let mut commits_this_run = 0usize;

    if done.len() < total {
        let (tx, rx) = mpsc::channel::<ProcEvent>();
        let mut next_slot = 0u64;
        let mut states: Vec<ShardState> = (0..shards)
            .map(|shard| ShardState {
                shard,
                child: None,
                stdin: None,
                slot: u64::MAX,
                last_hb: Instant::now(),
                inflight: None,
                sealed: false,
                term_sent: None,
                kill_sent: false,
                consecutive_crashes: 0,
                barren_deaths: 0,
                committed_since_spawn: false,
                respawn_at: None,
                finished: false,
            })
            .collect();
        for st in &mut states {
            if shard_pending(total, shards, st.shard, &done) == 0 {
                st.finished = true;
                continue;
            }
            if let Err(e) = spawn_shard(pcfg, shards, journal_path, &tx, &mut next_slot, st) {
                warnings.push(format!("shard {}: spawn failed: {e}", st.shard));
                st.barren_deaths += 1;
                st.consecutive_crashes += 1;
                st.respawn_at = Some(Instant::now() + pcfg.respawn.backoff(1));
            }
        }
        let mut drain_mode = false;

        while states.iter().any(|s| !s.finished) {
            if drain_requested() && !drain_mode {
                drain_mode = true;
                merlin_trace::counter("supervisor.proc.drain", 1);
                eprintln!("merlin-supervisor: drain requested; waiting for in-flight nets");
                for st in &mut states {
                    if let Some(stdin) = &mut st.stdin {
                        let _ = writeln!(stdin, "{DRAIN_COMMAND}");
                        let _ = stdin.flush();
                    }
                    // A shard waiting on a respawn in drain mode is done:
                    // nothing new gets started during a drain.
                    if st.child.is_none() && !st.finished {
                        st.finished = true;
                    }
                }
            }
            match rx.recv_timeout(SUPERVISE_POLL) {
                Ok(ProcEvent::Line(slot, line)) => {
                    if let Some(st) = states
                        .iter_mut()
                        .find(|s| s.slot == slot && s.child.is_some())
                    {
                        match Heartbeat::decode(&line) {
                            Ok(hb) => {
                                st.last_hb = Instant::now();
                                match hb {
                                    Heartbeat::Ready { .. } | Heartbeat::Alive => {}
                                    Heartbeat::NetStarted { idx } => {
                                        st.inflight = Some((idx, Instant::now()));
                                    }
                                    Heartbeat::NetCommitted { idx, .. } => {
                                        st.inflight = None;
                                        st.committed_since_spawn = true;
                                        st.consecutive_crashes = 0;
                                        st.barren_deaths = 0;
                                        if done.insert(idx) {
                                            commits_this_run += 1;
                                            merlin_trace::counter("supervisor.proc.commit", 1);
                                            if cfg.crash_after == Some(commits_this_run) {
                                                // Chaos hook: parent dies right
                                                // after the worker's fsync.
                                                std::process::abort();
                                            }
                                        }
                                    }
                                    Heartbeat::Sealed => st.sealed = true,
                                }
                            }
                            Err(_) => {
                                merlin_trace::counter("supervisor.proc.heartbeat.garbage", 1);
                            }
                        }
                    }
                }
                Ok(ProcEvent::Eof(slot)) => {
                    if let Some(pos) = states
                        .iter()
                        .position(|s| s.slot == slot && s.child.is_some())
                    {
                        let st = &mut states[pos];
                        let wait = st.child.take().map(|mut c| c.wait());
                        st.stdin = None;
                        let clean = matches!(&wait, Some(Ok(status)) if status.success());
                        let was_inflight = st.inflight.take();
                        let was_sealed = st.sealed;
                        st.sealed = false;
                        st.term_sent = None;
                        st.kill_sent = false;
                        if drain_mode {
                            st.finished = true;
                            continue;
                        }
                        if clean && was_sealed {
                            if shard_pending(total, shards, st.shard, &done) == 0 {
                                st.finished = true;
                                continue;
                            }
                            // The parent's view can lag the disk (a commit
                            // fsync'd but its heartbeat lost): trust the
                            // segments before calling the exit barren.
                            match segment_paths(journal_path)
                                .map_err(io_err("cannot re-list segments".to_owned()))
                                .and_then(|paths| merge_segments(&paths).map_err(BatchError::from))
                            {
                                Ok(refreshed) => {
                                    done.extend(refreshed.records.keys().copied());
                                }
                                Err(e) => warnings.push(format!(
                                    "shard {}: segment refresh failed: {e}",
                                    st.shard
                                )),
                            }
                            if shard_pending(total, shards, st.shard, &done) == 0 {
                                st.finished = true;
                                continue;
                            }
                        }
                        // Crash (or a clean exit that left work behind).
                        if let Some((idx, _)) = was_inflight {
                            let crashes = crash_counts.entry(idx).or_insert(0);
                            *crashes = crashes.saturating_add(1);
                            if *crashes >= pcfg.poison_k.max(1) {
                                quarantine(
                                    journal_path,
                                    population,
                                    &nets,
                                    idx,
                                    *crashes,
                                    cfg,
                                    tech,
                                    pcfg.net_limit,
                                    &mut warnings,
                                )?;
                                done.insert(idx);
                                // Quarantining is progress: the shard is
                                // not barren even if it never committed.
                                st.barren_deaths = 0;
                            }
                        } else if !st.committed_since_spawn {
                            st.barren_deaths = st.barren_deaths.saturating_add(1);
                            if st.barren_deaths > pcfg.respawn.max_attempts {
                                // batch_span closes itself on this return.
                                return Err(BatchError::WorkerRespawnExhausted {
                                    shard: st.shard,
                                    respawns: st.barren_deaths,
                                });
                            }
                        }
                        if shard_pending(total, shards, st.shard, &done) == 0 {
                            st.finished = true;
                            continue;
                        }
                        st.consecutive_crashes = st.consecutive_crashes.saturating_add(1);
                        merlin_trace::counter("supervisor.proc.respawn", 1);
                        let backoff = pcfg.respawn.backoff(st.consecutive_crashes);
                        st.respawn_at = Some(Instant::now() + backoff);
                        warnings.push(format!(
                            "shard {}: worker died ({}); respawning in {}ms",
                            st.shard,
                            match &wait {
                                Some(Ok(status)) => status.to_string(),
                                Some(Err(e)) => e.to_string(),
                                None => "unknown".to_owned(),
                            },
                            backoff.as_millis()
                        ));
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Unreachable (we hold a sender), but never spin.
                    thread::sleep(SUPERVISE_POLL);
                }
            }
            // Escalations and due respawns.
            let now = Instant::now();
            for st in &mut states {
                if st.finished {
                    continue;
                }
                if st.child.is_none() {
                    if !drain_mode && st.respawn_at.is_some_and(|at| now >= at) {
                        if let Err(e) =
                            spawn_shard(pcfg, shards, journal_path, &tx, &mut next_slot, st)
                        {
                            warnings.push(format!("shard {}: respawn failed: {e}", st.shard));
                            st.barren_deaths = st.barren_deaths.saturating_add(1);
                            if st.barren_deaths > pcfg.respawn.max_attempts {
                                return Err(BatchError::WorkerRespawnExhausted {
                                    shard: st.shard,
                                    respawns: st.barren_deaths,
                                });
                            }
                            st.consecutive_crashes = st.consecutive_crashes.saturating_add(1);
                            st.respawn_at =
                                Some(now + pcfg.respawn.backoff(st.consecutive_crashes));
                        }
                    }
                    continue;
                }
                let decision = escalation(
                    now,
                    st.last_hb,
                    st.inflight.map(|(_, since)| since),
                    st.term_sent,
                    pcfg,
                );
                match decision {
                    Escalation::Hold => {}
                    Escalation::Term => {
                        if let Some(child) = &st.child {
                            let idx_note = st
                                .inflight
                                .map_or_else(|| "silent".to_owned(), |(i, _)| format!("net {i}"));
                            eprintln!(
                                "merlin-supervisor: shard {} wedged ({idx_note}); SIGTERM",
                                st.shard
                            );
                            merlin_trace::counter("supervisor.proc.sigterm", 1);
                            if !sig::send_sigterm(child.id()) {
                                // No SIGTERM on this platform (or the pid
                                // is gone): jump straight to the kill rung.
                                st.kill_sent = true;
                            }
                            st.term_sent = Some(now);
                        }
                        if st.kill_sent {
                            if let Some(child) = &mut st.child {
                                let _ = child.kill();
                                merlin_trace::counter("supervisor.proc.sigkill", 1);
                            }
                        }
                    }
                    Escalation::Kill => {
                        if !st.kill_sent {
                            if let Some(child) = &mut st.child {
                                eprintln!(
                                    "merlin-supervisor: shard {} ignored SIGTERM; SIGKILL",
                                    st.shard
                                );
                                let _ = child.kill();
                                merlin_trace::counter("supervisor.proc.sigkill", 1);
                                st.kill_sent = true;
                            }
                        }
                    }
                }
            }
        }
    }

    drop(batch_span);
    let final_paths = segment_paths(journal_path).map_err(io_err(format!(
        "cannot list segments of {}",
        journal_path.display()
    )))?;
    let mut merged = merge_segments(&final_paths)?;
    validate_records(&nets, &merged.records)?;
    let solved = merged.records.len().saturating_sub(replayed);
    let mut all_warnings = std::mem::take(&mut merged.warnings);
    all_warnings.append(&mut warnings);
    let trace = cfg.capture_trace.then(|| {
        let mut set = merlin_trace::TraceSet::single("supervisor", merlin_trace::drain());
        for shard in 0..shards {
            let path = trace_wire_path(&segment_path(journal_path, shard));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            match merlin_trace::wire::decode(&text) {
                Ok(tr) => set.push(shard + 1, &format!("shard-{shard}"), tr),
                Err(e) => all_warnings.push(format!("trace wire {}: {e}", path.display())),
            }
        }
        set
    });
    Ok(BatchReport {
        rows: merged.records.into_values().collect(),
        expected: total,
        replayed,
        solved,
        warnings: all_warnings,
        wall_s: start.elapsed().as_secs_f64(),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::run_batch;
    use merlin_netlist::bench_nets::random_net;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("merlin-proc-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn small_batch(n: usize) -> Vec<Net> {
        let tech = Technology::synthetic_035();
        (0..n)
            .map(|i| random_net(&format!("n{i}"), 4, 10 + i as u64, &tech))
            .collect()
    }

    fn decode_lines(buf: &[u8]) -> Vec<Heartbeat> {
        String::from_utf8_lossy(buf)
            .lines()
            .map(|l| Heartbeat::decode(l).expect("protocol line decodes"))
            .collect()
    }

    #[test]
    fn escalation_ladder_decides_term_then_kill() {
        let pcfg = ProcConfig {
            net_limit: Duration::from_millis(100),
            hb_limit: Duration::from_millis(50),
            term_grace: Duration::from_millis(20),
            ..ProcConfig::default()
        };
        let t0 = Instant::now();
        // Healthy: fresh heartbeat, nothing in flight.
        assert_eq!(escalation(t0, t0, None, None, &pcfg), Escalation::Hold);
        // Silent past hb_limit with nothing in flight: SIGTERM.
        let late = t0 + Duration::from_millis(60);
        assert_eq!(escalation(late, t0, None, None, &pcfg), Escalation::Term);
        // In-flight net inside net_limit keeps the worker alive even when
        // the last heartbeat is old (solves are allowed to be silent).
        assert_eq!(
            escalation(late, t0, Some(late), None, &pcfg),
            Escalation::Hold
        );
        // In-flight net over net_limit: SIGTERM.
        let very_late = t0 + Duration::from_millis(200);
        assert_eq!(
            escalation(very_late, t0, Some(t0), None, &pcfg),
            Escalation::Term
        );
        // Inside the SIGTERM grace: hold.
        assert_eq!(
            escalation(very_late, t0, Some(t0), Some(very_late), &pcfg),
            Escalation::Hold
        );
        // Grace expired: SIGKILL.
        let after_grace = very_late + Duration::from_millis(30);
        assert_eq!(
            escalation(after_grace, t0, Some(t0), Some(very_late), &pcfg),
            Escalation::Kill
        );
    }

    #[test]
    fn worker_solves_its_shard_and_speaks_the_protocol() {
        let dir = tmp_dir("worker");
        let journal = dir.join("run.journal");
        let tech = Technology::synthetic_035();
        let nets = small_batch(5);
        let cfg = BatchConfig::default();
        let opts = WorkerOptions {
            shard: 0,
            shards: 2,
            journal: journal.clone(),
            trace_wire: false,
        };
        let mut out = Vec::new();
        let drain = AtomicBool::new(false);
        let summary = run_worker(&nets, &tech, &cfg, &opts, &mut out, &drain).expect("worker runs");
        // Shard 0 of 2 over 5 nets: indexes 0, 2, 4.
        assert_eq!(summary.solved, 3);
        assert!(!summary.drained);
        let events = decode_lines(&out);
        assert_eq!(
            events[0],
            Heartbeat::Ready {
                shard: 0,
                shards: 2,
                pending: 3
            }
        );
        assert_eq!(*events.last().expect("events"), Heartbeat::Sealed);
        let starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Heartbeat::NetStarted { idx } => Some(*idx),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![0, 2, 4]);
        // The segment holds exactly this shard's records and is sealed.
        let seg = segment_path(&journal, 0);
        let loaded = load_journal(&seg).expect("load").expect("segment exists");
        assert_eq!(
            loaded.records.keys().copied().collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        assert!(loaded.sealed);
        assert_eq!(loaded.population, Some(population_hash(&nets)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_workers_merge_byte_identical_to_thread_mode() {
        let dir = tmp_dir("merge-vs-thread");
        let tech = Technology::synthetic_035();
        let mut nets = small_batch(6);
        // An invalid net (duplicate sinks) only the direct route serves:
        // under a flow-II acceptance tier it retries and then fails, so
        // the retry and failure paths are compared too, not just
        // first-try serves.
        let dup = merlin_geom::Point::new(50, 50);
        let sink = merlin_netlist::Sink::new(dup, merlin_tech::units::Cap::from_ff(10.0), 500.0);
        let bad = Net::new(
            "dup-sink",
            merlin_geom::Point::new(0, 0),
            merlin_tech::Driver::default(),
            vec![sink.clone(), sink],
        );
        nets.insert(2, bad);
        let cfg = BatchConfig {
            jobs: 1,
            accept_tier: ServingTier::LttreePtree,
            retry: RetryPolicy {
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..BatchConfig::default()
        };
        let proc_arts = dir.join("proc-artifacts");
        let proc_cfg = BatchConfig {
            artifacts_dir: Some(proc_arts.clone()),
            ..cfg.clone()
        };
        let proc_journal = dir.join("proc.journal");
        let drain = AtomicBool::new(false);
        for shard in 0..3 {
            let opts = WorkerOptions {
                shard,
                shards: 3,
                journal: proc_journal.clone(),
                trace_wire: false,
            };
            let mut out = Vec::new();
            run_worker(&nets, &tech, &proc_cfg, &opts, &mut out, &drain).expect("worker runs");
        }
        let segments = segment_paths(&proc_journal).expect("list segments");
        assert_eq!(segments.len(), 3);
        let merged = merge_segments(&segments).expect("merge");
        let proc_report = BatchReport::from_merged(merged, nets.len());
        let thread_arts = dir.join("thread-artifacts");
        let thread_cfg = BatchConfig {
            artifacts_dir: Some(thread_arts.clone()),
            ..cfg
        };
        let thread_report = run_batch(nets, &tech, &thread_cfg, &dir.join("thread.journal"))
            .expect("thread-mode batch runs");
        let rendered = thread_report.render();
        assert!(rendered.contains("retries: 2\n"), "{rendered}");
        assert!(
            rendered.contains("retry-causes: timeout=0 degraded=2\n"),
            "{rendered}"
        );
        assert_eq!(proc_report.render(), rendered);
        let read = |dir: &Path| std::fs::read(dir.join("2-dup-sink.repro")).expect("artifact");
        assert_eq!(read(&proc_arts), read(&thread_arts));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_refuses_a_foreign_population() {
        let dir = tmp_dir("foreign-pop");
        let journal = dir.join("run.journal");
        let tech = Technology::synthetic_035();
        let cfg = BatchConfig::default();
        let drain = AtomicBool::new(false);
        let opts = WorkerOptions {
            shard: 0,
            shards: 1,
            journal: journal.clone(),
            trace_wire: false,
        };
        let mut out = Vec::new();
        run_worker(&small_batch(2), &tech, &cfg, &opts, &mut out, &drain).expect("first worker");
        let other: Vec<Net> = (0..2)
            .map(|i| random_net(&format!("other{i}"), 4, 99 + i as u64, &tech))
            .collect();
        let mut out = Vec::new();
        let err = run_worker(&other, &tech, &cfg, &opts, &mut out, &drain)
            .expect_err("population mismatch");
        assert!(matches!(err, BatchError::JournalMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drained_worker_seals_without_starting_new_nets() {
        let dir = tmp_dir("drain");
        let journal = dir.join("run.journal");
        let tech = Technology::synthetic_035();
        let nets = small_batch(4);
        let cfg = BatchConfig::default();
        let opts = WorkerOptions {
            shard: 0,
            shards: 1,
            journal: journal.clone(),
            trace_wire: false,
        };
        let mut out = Vec::new();
        let drain = AtomicBool::new(true); // drain before the first net
        let summary =
            run_worker(&nets, &tech, &cfg, &opts, &mut out, &drain).expect("worker drains");
        assert_eq!(summary.solved, 0);
        assert!(summary.drained);
        let seg = segment_path(&journal, 0);
        let loaded = load_journal(&seg).expect("load").expect("segment exists");
        assert!(loaded.records.is_empty());
        assert!(loaded.sealed, "a drained segment is still sealed");
        // A second, undrained worker picks up exactly where it left off.
        let drain = AtomicBool::new(false);
        let mut out = Vec::new();
        let summary =
            run_worker(&nets, &tech, &cfg, &opts, &mut out, &drain).expect("resume worker");
        assert_eq!(summary.solved, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_drain_signal_escalates_to_abort() {
        // The pure escalation decision behind both the batch SIGINT
        // handler and the server SIGTERM handler: first signal drains,
        // second aborts. (The actual abort lives in the handler; here we
        // only check the decision and the drain flag.)
        reset_drain_for_tests();
        assert!(!drain_requested());
        assert!(!note_drain_signal(), "first signal: graceful drain");
        assert!(drain_requested(), "first signal requests the drain");
        assert!(note_drain_signal(), "second signal: hard abort");
        assert!(note_drain_signal(), "later signals keep aborting");
        reset_drain_for_tests();
        assert!(!drain_requested());
    }

    #[test]
    fn worker_handshake_validates_the_parent_stamp() {
        assert!(worker_handshake_ok(Some(&worker_handshake_value())));
        assert!(worker_handshake_ok(Some("v1:12345")));
        assert!(!worker_handshake_ok(None), "no env: refuse");
        assert!(!worker_handshake_ok(Some("")), "empty: refuse");
        assert!(!worker_handshake_ok(Some("v1:")), "pid missing: refuse");
        assert!(
            !worker_handshake_ok(Some("v2:12345")),
            "unknown version: refuse"
        );
        assert!(!worker_handshake_ok(Some("12345")), "no tag: refuse");
    }

    #[test]
    fn worker_resumes_across_a_different_shard_count() {
        let dir = tmp_dir("reshard");
        let journal = dir.join("run.journal");
        let tech = Technology::synthetic_035();
        let nets = small_batch(6);
        let cfg = BatchConfig {
            jobs: 1,
            ..BatchConfig::default()
        };
        let drain = AtomicBool::new(false);
        // First pass: shard 1 of 3 commits nets 1 and 4.
        let opts = WorkerOptions {
            shard: 1,
            shards: 3,
            journal: journal.clone(),
            trace_wire: false,
        };
        let mut out = Vec::new();
        run_worker(&nets, &tech, &cfg, &opts, &mut out, &drain).expect("first layout");
        // Resume with a single shard: only the other four nets are solved.
        let opts = WorkerOptions {
            shard: 0,
            shards: 1,
            journal: journal.clone(),
            trace_wire: false,
        };
        let mut out = Vec::new();
        let summary =
            run_worker(&nets, &tech, &cfg, &opts, &mut out, &drain).expect("resume layout");
        assert_eq!(
            summary.solved, 4,
            "already-committed nets are not re-solved"
        );
        let merged = merge_segments(&segment_paths(&journal).expect("list")).expect("merge");
        assert_eq!(merged.records.len(), 6);
        let proc_report = BatchReport::from_merged(merged, nets.len());
        let thread_report = run_batch(nets, &tech, &cfg, &dir.join("thread.journal"))
            .expect("thread-mode batch runs");
        assert_eq!(proc_report.render(), thread_report.render());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
