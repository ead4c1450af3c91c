//! The batch solve supervisor: worker pool, watchdog, retry, journal.
//!
//! [`run_batch`] drives `merlin_flows::resilient` across a net population
//! with a fixed pool of worker threads. All scheduling decisions happen in
//! one place — the supervising thread's event loop — and workers do
//! exactly one solve attempt per pull:
//!
//! 1. a worker pulls the next due attempt from the shared queue, records
//!    itself in the in-flight table under a fresh *generation*, runs the
//!    attempt every execution mode runs ([`crate::exec`]), and reports
//!    the outcome back over a channel;
//! 2. the watchdog thread (armed via [`BatchConfig::watchdog_limit`])
//!    scans the in-flight table; an attempt over its wall-clock slice is
//!    *abandoned*: its generation is declared dead (the worker's eventual
//!    result will be dropped, the worker exits at its next checkpoint and
//!    is never joined) and the event loop spawns a replacement worker;
//! 3. the event loop is the single decision point. It hands every
//!    outcome and every watchdog timeout to the shared verdict
//!    ([`crate::exec`]): acceptable outcomes are committed to the journal
//!    (append + fsync), unacceptable or timed-out attempts are either
//!    re-queued with backoff under the [`merlin_resilience::RetryPolicy`]
//!    perturbation or — once attempts are exhausted — committed as
//!    failures and captured as `.repro` artifacts.
//!
//! Nothing in here calls `catch_unwind`: DP panics are already contained
//! by `merlin_resilience::isolate` inside the resilient solver, and the
//! watchdog handles the one failure mode budgets cannot (a stall that
//! never reaches a cooperative check).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use merlin_netlist::Net;
use merlin_resilience::fault::{self, FaultConfig};
use merlin_resilience::journal::JournalRecord;
use merlin_resilience::{RetryPolicy, ServingTier};
use merlin_tech::Technology;

use crate::exec::{minimize_deferred, AttemptEnd, ExecOptions, NetRun, Verdict};
use crate::journal::{
    load_journal, population_hash, JournalLoadError, JournalMergeError, JournalWriter,
};
use crate::report::BatchReport;

/// How long a worker dozes between queue polls when nothing is due.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How long the event loop waits for any event before declaring the run
/// wedged. Generous: a single big net on a loaded machine can legitimately
/// go minutes between events.
const EVENT_TIMEOUT: Duration = Duration::from_secs(600);

/// Everything [`run_batch`] needs to know besides the nets themselves.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads (minimum 1; capped at the number of pending nets).
    pub jobs: usize,
    /// Per-net wall-clock budget in milliseconds (cooperative; scaled
    /// down per retry). `None` leaves the deadline dimension unlimited.
    pub budget_ms: Option<u64>,
    /// Per-net DP work limit (cooperative; scaled down per retry).
    pub work_limit: Option<u64>,
    /// Retry policy: attempt bound, backoff, perturbation.
    pub retry: RetryPolicy,
    /// The weakest serving tier the batch accepts. The default,
    /// [`ServingTier::DirectRoute`], accepts everything the resilient
    /// solver can produce; [`ServingTier::PtreeVanGinneken`] would retry
    /// (and ultimately fail) nets that only the last-resort tiers served.
    pub accept_tier: ServingTier,
    /// Non-cooperative wall-clock slice per attempt, enforced by the
    /// watchdog thread. `None` disables the watchdog (cooperative budgets
    /// only).
    pub watchdog_limit: Option<Duration>,
    /// Watchdog scan interval.
    pub watchdog_poll: Duration,
    /// Where to write `.repro` failure artifacts; `None` disables capture.
    pub artifacts_dir: Option<PathBuf>,
    /// Whether captured artifacts are greedily minimized first. Leave off
    /// when the failure involves long injected stalls — the minimizer
    /// replays them.
    pub minimize: bool,
    /// Chaos config every worker thread is seeded with (fault-injection
    /// builds only; empty otherwise).
    pub fault: FaultConfig,
    /// Abort the process (`std::process::abort`) immediately after the
    /// Nth journal commit by this run — the chaos gate's stand-in for a
    /// mid-run SIGKILL, placed *after* the fsync so the journal holds
    /// exactly N records from this run. `Some(0)` aborts right after the
    /// journal is opened, before any commit.
    pub crash_after: Option<usize>,
    /// Capture per-thread trace streams: the supervising thread and every
    /// worker enable the `merlin-trace` collector, each net solves inside
    /// a `supervisor.net` span, and the drained streams are merged by
    /// worker id into [`BatchReport::trace`]. Off by default (the
    /// collector's disabled fast path is a single thread-local load).
    pub capture_trace: bool,
    /// Cap on *concurrently-abandoned* worker threads. Every watchdog
    /// abandonment leaks a thread (stalled mid-solve, never joined);
    /// exceeding the cap fails the batch with
    /// [`BatchError::AbandonedWorkerCap`] instead of silently spawning
    /// replacements forever — the old unbounded-leak failure mode.
    pub abandon_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            budget_ms: None,
            work_limit: None,
            retry: RetryPolicy::default(),
            accept_tier: ServingTier::DirectRoute,
            watchdog_limit: None,
            watchdog_poll: Duration::from_millis(25),
            artifacts_dir: None,
            minimize: true,
            fault: FaultConfig::none(),
            crash_after: None,
            capture_trace: false,
            abandon_cap: 32,
        }
    }
}

/// Why a batch run failed outright (individual net failures do not fail
/// the batch — they become journal records and artifacts).
#[derive(Debug)]
pub enum BatchError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The journal could not be loaded (unknown version, mid-file
    /// corruption, unreadable file).
    Journal(JournalLoadError),
    /// The journal exists but does not describe this batch.
    JournalMismatch {
        /// What disagreed.
        detail: String,
    },
    /// No worker produced an event for [`EVENT_TIMEOUT`]; the run is
    /// wedged (this should be unreachable with the watchdog armed).
    Stalled {
        /// How long the event loop waited.
        waited: Duration,
    },
    /// More worker threads are concurrently abandoned (leaked by the
    /// watchdog) than [`BatchConfig::abandon_cap`] allows; the batch
    /// fails instead of leaking without bound.
    AbandonedWorkerCap {
        /// Abandoned threads still live when the cap tripped.
        abandoned: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A set of journal segments could not be merged (process-isolated
    /// mode; see [`crate::journal::merge_segments`]).
    SegmentMerge(JournalMergeError),
    /// A shard's worker subprocess kept dying without committing
    /// anything, exhausting the respawn policy (process-isolated mode).
    WorkerRespawnExhausted {
        /// The shard whose worker kept dying.
        shard: u32,
        /// Consecutive barren deaths observed.
        respawns: u32,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Io { context, error } => write!(f, "{context}: {error}"),
            BatchError::Journal(e) => write!(f, "{e}"),
            BatchError::JournalMismatch { detail } => {
                write!(f, "journal does not match this batch: {detail}")
            }
            BatchError::Stalled { waited } => write!(
                f,
                "no worker event for {:.0}s; batch is wedged",
                waited.as_secs_f64()
            ),
            BatchError::AbandonedWorkerCap { abandoned, cap } => write!(
                f,
                "{abandoned} abandoned worker threads still live (cap {cap}); failing instead \
                 of leaking without bound"
            ),
            BatchError::SegmentMerge(e) => write!(f, "{e}"),
            BatchError::WorkerRespawnExhausted { shard, respawns } => write!(
                f,
                "shard {shard}: worker died {respawns} times in a row without committing \
                 anything; giving up"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<JournalLoadError> for BatchError {
    fn from(e: JournalLoadError) -> Self {
        BatchError::Journal(e)
    }
}

impl From<JournalMergeError> for BatchError {
    fn from(e: JournalMergeError) -> Self {
        BatchError::SegmentMerge(e)
    }
}

/// One queued solve attempt.
struct QueueItem {
    idx: usize,
    attempt: u32,
    available_at: Instant,
}

/// One attempt currently being solved by a worker.
struct InFlight {
    gen: u64,
    attempt: u32,
    worker: usize,
    started: Instant,
}

/// The mutable scheduler state, guarded by one mutex.
struct Sched {
    queue: VecDeque<QueueItem>,
    inflight: HashMap<usize, InFlight>,
    /// Generations abandoned by the watchdog: the owning worker drops its
    /// result and exits when it sees its generation here.
    dead_gens: HashSet<u64>,
    /// Worker ids abandoned by the watchdog; never joined.
    dead_workers: HashSet<usize>,
    /// Abandoned worker threads that have not yet observed their dead
    /// generation and exited — the live size of the leak the
    /// [`BatchConfig::abandon_cap`] bounds.
    abandoned_live: usize,
    next_gen: u64,
    shutdown: bool,
}

struct Shared {
    nets: Vec<Net>,
    tech: Technology,
    cfg: BatchConfig,
    sched: Mutex<Sched>,
    ready: Condvar,
}

impl Shared {
    /// Net `idx` as the shared attempt and verdict functions see it.
    fn run(&self, idx: usize) -> NetRun<'_> {
        NetRun {
            net: &self.nets[idx],
            idx: idx as u64,
            tech: &self.tech,
            cfg: &self.cfg,
            opts: ExecOptions::default(),
        }
    }
}

enum Event {
    /// A live worker finished an attempt.
    Done {
        idx: usize,
        attempt: u32,
        tier: ServingTier,
        hash: u64,
    },
    /// The watchdog abandoned an attempt (and its worker).
    TimedOut { idx: usize, attempt: u32 },
    /// A worker's drained trace stream, sent once at worker exit when
    /// [`BatchConfig::capture_trace`] is on.
    TraceDump {
        worker: usize,
        trace: merlin_trace::Trace,
    },
}

/// Poison-tolerant lock: a worker panicking mid-solve never holds this
/// mutex (solves run outside it), so inheriting the data is safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Blocks until a due attempt is available (claiming it) or shutdown.
fn next_job(shared: &Shared, worker_id: usize) -> Option<(usize, u32, u64)> {
    let mut s = lock(&shared.sched);
    loop {
        if s.shutdown {
            return None;
        }
        let now = Instant::now();
        if let Some(pos) = s.queue.iter().position(|item| item.available_at <= now) {
            let item = s.queue.remove(pos)?;
            let gen = s.next_gen;
            s.next_gen += 1;
            s.inflight.insert(
                item.idx,
                InFlight {
                    gen,
                    attempt: item.attempt,
                    worker: worker_id,
                    started: Instant::now(),
                },
            );
            return Some((item.idx, item.attempt, gen));
        }
        // Nothing due: sleep until the earliest backoff expires (or the
        // idle poll, whichever is sooner — requeues notify the condvar).
        let wait = s
            .queue
            .iter()
            .map(|item| item.available_at)
            .min()
            .map(|t| t.saturating_duration_since(now))
            .unwrap_or(IDLE_POLL)
            .clamp(Duration::from_millis(1), IDLE_POLL);
        let (guard, _) = shared
            .ready
            .wait_timeout(s, wait)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        s = guard;
    }
}

/// The worker body: seed the chaos config, then pull-solve-report until
/// shutdown (or until the watchdog abandons this worker).
fn worker_loop(shared: Arc<Shared>, tx: mpsc::Sender<Event>, worker_id: usize) {
    fault::seed_thread(&shared.cfg.fault);
    if shared.cfg.capture_trace {
        merlin_trace::enable();
    }
    while let Some((idx, attempt, gen)) = next_job(&shared, worker_id) {
        let (out, hash) = shared.run(idx).attempt(attempt);
        let tier = out.report.served;
        let abandoned = {
            let mut s = lock(&shared.sched);
            if s.dead_gens.remove(&gen) {
                // The watchdog abandoned this attempt and a replacement
                // worker owns our slot: drop the stale result and exit.
                // The stall resolved after all, so the leak shrinks.
                s.abandoned_live = s.abandoned_live.saturating_sub(1);
                true
            } else {
                s.inflight.remove(&idx);
                false
            }
        };
        if abandoned
            || tx
                .send(Event::Done {
                    idx,
                    attempt,
                    tier,
                    hash,
                })
                .is_err()
        {
            break;
        }
    }
    if shared.cfg.capture_trace {
        // The dump rides the same channel as solve events; the supervisor
        // drains it after joining the pool.
        let _ = tx.send(Event::TraceDump {
            worker: worker_id,
            trace: merlin_trace::drain(),
        });
    }
}

/// The watchdog body: abandon in-flight attempts over `limit`.
fn watchdog_loop(shared: Arc<Shared>, limit: Duration, poll: Duration, tx: mpsc::Sender<Event>) {
    loop {
        {
            let mut s = lock(&shared.sched);
            if s.shutdown {
                return;
            }
            let now = Instant::now();
            let expired: Vec<usize> = s
                .inflight
                .iter()
                .filter(|(_, f)| now.duration_since(f.started) > limit)
                .map(|(&idx, _)| idx)
                .collect();
            for idx in expired {
                if let Some(f) = s.inflight.remove(&idx) {
                    s.dead_gens.insert(f.gen);
                    s.dead_workers.insert(f.worker);
                    s.abandoned_live = s.abandoned_live.saturating_add(1);
                    if tx
                        .send(Event::TimedOut {
                            idx,
                            attempt: f.attempt,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            }
        }
        thread::sleep(poll);
    }
}

/// Journal-safe form of a net name: whitespace collapsed to `_` so the
/// name survives the line-oriented record codec. Embedders journaling
/// their own records (the server's deadline fast-fail path) must use the
/// same mapping or resumed reports diverge.
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

/// Validates replayed records against the batch: index range and net
/// names must agree. Shared by the thread-mode journal open and the
/// process-mode segment merge.
pub(crate) fn validate_records(
    nets: &[Net],
    records: &BTreeMap<u64, JournalRecord>,
) -> Result<(), BatchError> {
    for (idx, rec) in records {
        let Some(net) = nets.get(*idx as usize) else {
            return Err(BatchError::JournalMismatch {
                detail: format!(
                    "journal records net index {idx} but the batch has {} nets",
                    nets.len()
                ),
            });
        };
        let expected = sanitize_name(&net.name);
        if rec.net != expected {
            return Err(BatchError::JournalMismatch {
                detail: format!(
                    "net index {idx} is `{expected}` in this batch but `{}` in the journal",
                    rec.net
                ),
            });
        }
    }
    Ok(())
}

/// The reopened journal: its appender plus whatever a prior run left.
type OpenedJournal = (JournalWriter, BTreeMap<u64, JournalRecord>, Vec<String>);

/// Loads/creates the journal and validates replayed records against the
/// batch: the recorded `#population` hash must match the input nets
/// (a mismatched input must not silently merge stale results), and
/// replayed records must agree on index range and net names. Journals
/// from before the population stamp are stamped on reopen.
fn open_journal(nets: &[Net], path: &Path) -> Result<OpenedJournal, BatchError> {
    let population = population_hash(nets);
    match load_journal(path)? {
        Some(loaded) => {
            if let Some(recorded) = loaded.population {
                if recorded != population {
                    return Err(BatchError::JournalMismatch {
                        detail: format!(
                            "journal records population hash {recorded:016x} but the input \
                             nets hash to {population:016x}"
                        ),
                    });
                }
            }
            validate_records(nets, &loaded.records)?;
            let mut writer = JournalWriter::append_to(path).map_err(|error| BatchError::Io {
                context: format!("cannot reopen journal {}", path.display()),
                error,
            })?;
            if loaded.population.is_none() {
                writer
                    .append_population(population)
                    .map_err(|error| BatchError::Io {
                        context: format!("cannot stamp journal {}", path.display()),
                        error,
                    })?;
            }
            Ok((writer, loaded.records, loaded.warnings))
        }
        None => {
            let writer =
                JournalWriter::create_with_population(path, population).map_err(|error| {
                    BatchError::Io {
                        context: format!("cannot create journal {}", path.display()),
                        error,
                    }
                })?;
            Ok((writer, BTreeMap::new(), Vec::new()))
        }
    }
}

/// Replays a journal (and any shard segments) into a report without a
/// net population: nothing is solved or validated against inputs — the
/// records on disk *are* the batch. This is `resume` with no nets: a
/// pure render of what a previous run accomplished. A header-only
/// journal (meta lines, zero records) replays to an empty report
/// (`nets: 0 ... lost: 0`) rather than an error, and a segment set whose
/// members are all header-only does the same.
///
/// # Errors
///
/// Filesystem failures listing or reading the journal/segments, or a
/// corrupt segment ([`BatchError::SegmentMerge`]).
pub fn replay_batch(journal_path: &Path) -> Result<BatchReport, BatchError> {
    let paths = crate::journal::segment_paths(journal_path).map_err(|error| BatchError::Io {
        context: format!("cannot list segments of {}", journal_path.display()),
        error,
    })?;
    let merged = crate::journal::merge_segments(&paths)?;
    let expected = merged.records.len();
    Ok(BatchReport::from_merged(merged, expected))
}

/// Runs (or resumes) a batch: every net in `nets` ends with exactly one
/// terminal record in the journal at `journal_path`, and the returned
/// report rolls the journal up. Nets already journaled are *replayed*,
/// never re-solved.
///
/// # Errors
///
/// Journal problems ([`BatchError::Journal`], [`BatchError::JournalMismatch`]),
/// filesystem failures, or a wedged run ([`BatchError::Stalled`]). Per-net
/// solve failures are not errors — they are
/// [`RecordStatus`](merlin_resilience::journal::RecordStatus) outcomes.
pub fn run_batch(
    nets: Vec<Net>,
    tech: &Technology,
    cfg: &BatchConfig,
    journal_path: &Path,
) -> Result<BatchReport, BatchError> {
    let start = Instant::now();
    if cfg.capture_trace {
        merlin_trace::enable();
    }
    let batch_span = merlin_trace::span!("supervisor.batch");
    let total = nets.len();
    let (mut writer, mut terminal, mut warnings) = open_journal(&nets, journal_path)?;
    if cfg.crash_after == Some(0) {
        // Chaos hook: abort before this run commits anything, leaving
        // only what a prior run journaled (header-only when fresh).
        std::process::abort();
    }
    let replayed = terminal.len();
    let pending_idxs: Vec<usize> = (0..total)
        .filter(|i| !terminal.contains_key(&(*i as u64)))
        .collect();
    let mut pending = pending_idxs.len();
    if pending == 0 {
        drop(batch_span);
        let trace = cfg
            .capture_trace
            .then(|| merlin_trace::TraceSet::single("supervisor", merlin_trace::drain()));
        return Ok(BatchReport {
            rows: terminal.into_values().collect(),
            expected: total,
            replayed,
            solved: 0,
            warnings,
            wall_s: start.elapsed().as_secs_f64(),
            trace,
        });
    }

    let queue: VecDeque<QueueItem> = pending_idxs
        .iter()
        .map(|&idx| QueueItem {
            idx,
            attempt: 0,
            available_at: Instant::now(),
        })
        .collect();
    let shared = Arc::new(Shared {
        nets,
        tech: tech.clone(),
        cfg: cfg.clone(),
        sched: Mutex::new(Sched {
            queue,
            inflight: HashMap::new(),
            dead_gens: HashSet::new(),
            dead_workers: HashSet::new(),
            abandoned_live: 0,
            next_gen: 0,
            shutdown: false,
        }),
        ready: Condvar::new(),
    });
    let (tx, rx) = mpsc::channel::<Event>();

    let jobs = cfg.jobs.max(1).min(pending);
    let mut handles: Vec<(usize, thread::JoinHandle<()>)> = Vec::new();
    let mut next_worker_id = 0usize;
    let mut spawn_worker = |handles: &mut Vec<(usize, thread::JoinHandle<()>)>| {
        let id = next_worker_id;
        next_worker_id += 1;
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        let handle = thread::Builder::new()
            .name(format!("merlin-worker-{id}"))
            .spawn(move || worker_loop(shared, tx, id));
        match handle {
            Ok(h) => handles.push((id, h)),
            Err(e) => {
                // The pool shrinks but the batch still drains: remaining
                // workers keep pulling from the shared queue.
                eprintln!("merlin-supervisor: cannot spawn worker {id}: {e}");
            }
        }
    };
    for _ in 0..jobs {
        spawn_worker(&mut handles);
    }
    let watchdog = cfg.watchdog_limit.map(|limit| {
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        let poll = cfg.watchdog_poll.max(Duration::from_millis(1));
        thread::Builder::new()
            .name("merlin-watchdog".to_owned())
            .spawn(move || watchdog_loop(shared, limit, poll, tx))
    });

    let shutdown = |shared: &Shared| {
        lock(&shared.sched).shutdown = true;
        shared.ready.notify_all();
    };

    let mut solved = 0usize;
    let mut deferred_minimize = Vec::new();

    // Watchdog fires per net index this run, folded into the journal v2
    // `timeouts` field of the net's terminal record.
    let mut timeout_counts: HashMap<usize, u32> = HashMap::new();
    let mut trace_dumps: Vec<(usize, merlin_trace::Trace)> = Vec::new();

    while pending > 0 {
        let event = match rx.recv_timeout(EVENT_TIMEOUT) {
            Ok(event) => event,
            Err(_) => {
                shutdown(&shared);
                return Err(BatchError::Stalled {
                    waited: EVENT_TIMEOUT,
                });
            }
        };
        let (idx, attempt, end) = match event {
            Event::Done {
                idx,
                attempt,
                tier,
                hash,
            } => (idx, attempt, AttemptEnd::Solved { tier, hash }),
            Event::TimedOut { idx, attempt } => {
                merlin_trace::counter("supervisor.watchdog.fire", 1);
                merlin_trace::counter("supervisor.watchdog.abandoned", 1);
                // The abandoned thread leaks until its stalled solve
                // returns; past the cap the batch fails instead of
                // spawning replacements forever.
                let abandoned = lock(&shared.sched).abandoned_live;
                if abandoned > cfg.abandon_cap {
                    shutdown(&shared);
                    return Err(BatchError::AbandonedWorkerCap {
                        abandoned,
                        cap: cfg.abandon_cap,
                    });
                }
                let fired = timeout_counts.entry(idx).or_insert(0);
                *fired = fired.saturating_add(1);
                // The abandoned worker still occupies its thread (stalled
                // mid-solve); restore pool capacity with a fresh worker.
                spawn_worker(&mut handles);
                (idx, attempt, AttemptEnd::TimedOut)
            }
            Event::TraceDump { worker, trace } => {
                // Workers dump at exit; anything arriving mid-loop (a
                // worker that lost its channel) is kept for the merge.
                trace_dumps.push((worker, trace));
                continue;
            }
        };
        let timeouts = timeout_counts.get(&idx).copied().unwrap_or(0);
        let verdict = shared.run(idx).verdict(
            attempt,
            end,
            timeouts,
            &mut deferred_minimize,
            &mut warnings,
        );
        match verdict {
            Verdict::Retry(backoff) => {
                lock(&shared.sched).queue.push_back(QueueItem {
                    idx,
                    attempt: attempt + 1,
                    available_at: Instant::now() + backoff,
                });
                shared.ready.notify_all();
            }
            Verdict::Terminal(rec) => {
                if let Err(e) = writer.append(&rec) {
                    // The record is still tracked in memory so the report
                    // is complete; the journal just lost its resume
                    // guarantee.
                    warnings.push(format!(
                        "journal append for net index {} failed: {e}",
                        rec.idx
                    ));
                }
                merlin_trace::counter("supervisor.journal.commit", 1);
                terminal.insert(rec.idx, rec);
                solved += 1;
                pending -= 1;
                if cfg.crash_after == Some(solved) {
                    // Chaos hook: simulate a SIGKILL right after the fsync.
                    std::process::abort();
                }
            }
        }
    }

    shutdown(&shared);
    if let Some(Ok(handle)) = watchdog {
        let _ = handle.join();
    }
    let dead = {
        let s = lock(&shared.sched);
        s.dead_workers.clone()
    };
    for (id, handle) in handles {
        if !dead.contains(&id) {
            let _ = handle.join();
        }
        // Abandoned workers are left to exit on their own; joining them
        // would block on whatever stalled them.
    }

    // With every net committed and the pool shut down, minimization
    // stays out of the event loop.
    minimize_deferred(cfg, tech, &deferred_minimize, &mut warnings);

    // Merge trace streams by worker id: the supervising thread is stream 0,
    // worker `w` is stream `w + 1`. Joined workers have already queued
    // their dumps on the event channel; abandoned (stalled) workers never
    // dump, so their streams are simply absent.
    drop(batch_span);
    let trace = cfg.capture_trace.then(|| {
        for event in rx.try_iter() {
            if let Event::TraceDump { worker, trace } = event {
                trace_dumps.push((worker, trace));
            }
        }
        trace_dumps.sort_by_key(|&(worker, _)| worker);
        let mut set = merlin_trace::TraceSet::single("supervisor", merlin_trace::drain());
        for (worker, dump) in trace_dumps {
            set.push(worker as u32 + 1, &format!("worker-{worker}"), dump);
        }
        set
    });

    Ok(BatchReport {
        rows: terminal.into_values().collect(),
        expected: total,
        replayed,
        solved,
        warnings,
        wall_s: start.elapsed().as_secs_f64(),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_netlist::bench_nets::random_net;
    use merlin_resilience::journal::RecordStatus;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("merlin-batch-test-{}-{name}", std::process::id()));
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

    #[test]
    fn empty_batch_produces_an_empty_report() {
        let dir = tmp_dir("empty");
        let tech = Technology::synthetic_035();
        let report = run_batch(
            Vec::new(),
            &tech,
            &BatchConfig::default(),
            &dir.join("run.journal"),
        )
        .expect("empty batch runs");
        assert_eq!(report.expected, 0);
        assert_eq!(report.lost(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_of_a_header_only_journal_is_an_empty_report() {
        let dir = tmp_dir("replay-header-only");
        let journal = dir.join("run.journal");
        // A journal with meta lines but zero net records: what a batch
        // killed between open and the first commit leaves behind.
        crate::journal::JournalWriter::create_with_population(&journal, 0xabcd)
            .expect("create header-only journal");
        let report = replay_batch(&journal).expect("header-only journal replays");
        assert_eq!(report.expected, 0);
        assert_eq!(report.rows.len(), 0);
        assert_eq!(report.lost(), 0);
        assert!(
            report.render().contains("nets: 0 served: 0"),
            "{}",
            report.render()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_of_all_empty_segments_is_an_empty_report() {
        let dir = tmp_dir("replay-empty-segs");
        let journal = dir.join("run.journal");
        // No base journal at all — only header-only segments, as left by
        // process-mode workers killed before their first commit.
        for shard in 0..3u32 {
            let seg = crate::journal::segment_path(&journal, shard);
            crate::journal::JournalWriter::create_with_population(&seg, 0x1234)
                .expect("create header-only segment");
        }
        let report = replay_batch(&journal).expect("empty segment set replays");
        assert_eq!(report.expected, 0);
        assert_eq!(report.lost(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_renders_existing_records_without_nets() {
        let dir = tmp_dir("replay-records");
        let journal = dir.join("run.journal");
        let tech = Technology::synthetic_035();
        let cfg = BatchConfig {
            jobs: 1,
            artifacts_dir: None,
            ..BatchConfig::default()
        };
        let full = run_batch(small_batch(3), &tech, &cfg, &journal).expect("batch runs");
        let replay = replay_batch(&journal).expect("journal replays");
        assert_eq!(replay.expected, 3);
        assert_eq!(replay.render(), full.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthy_batch_serves_every_net() {
        let dir = tmp_dir("healthy");
        let journal = dir.join("run.journal");
        let tech = Technology::synthetic_035();
        let cfg = BatchConfig {
            jobs: 2,
            ..BatchConfig::default()
        };
        let report = run_batch(small_batch(5), &tech, &cfg, &journal).expect("batch runs");
        assert_eq!(report.expected, 5);
        assert_eq!(report.solved, 5);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.lost(), 0);
        assert!(report
            .rows
            .iter()
            .all(|r| r.status == RecordStatus::Served && r.tier == ServingTier::Merlin));
        // The journal on disk holds exactly one record per net.
        let loaded = load_journal(&journal).expect("load").expect("exists");
        assert_eq!(loaded.records.len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_journal_replays_without_solving() {
        let dir = tmp_dir("replay");
        let journal = dir.join("run.journal");
        let tech = Technology::synthetic_035();
        let cfg = BatchConfig {
            jobs: 1,
            ..BatchConfig::default()
        };
        let nets = small_batch(3);
        let first = run_batch(nets.clone(), &tech, &cfg, &journal).expect("first run");
        let second = run_batch(nets, &tech, &cfg, &journal).expect("replay run");
        assert_eq!(second.solved, 0, "nothing re-solved");
        assert_eq!(second.replayed, 3);
        assert_eq!(first.render(), second.render(), "replay is byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_for_a_different_batch_is_refused() {
        let dir = tmp_dir("mismatch");
        let journal = dir.join("run.journal");
        let tech = Technology::synthetic_035();
        let cfg = BatchConfig {
            jobs: 1,
            ..BatchConfig::default()
        };
        run_batch(small_batch(2), &tech, &cfg, &journal).expect("first run");
        let other: Vec<Net> = (0..2)
            .map(|i| random_net(&format!("other{i}"), 4, 99 + i as u64, &tech))
            .collect();
        let err = run_batch(other, &tech, &cfg, &journal).expect_err("name mismatch");
        assert!(matches!(err, BatchError::JournalMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unacceptable_tier_exhausts_retries_and_captures_an_artifact() {
        let dir = tmp_dir("exhaust");
        let journal = dir.join("run.journal");
        let artifacts = dir.join("artifacts");
        let tech = Technology::synthetic_035();
        // An invalid net (duplicate sinks) can only be served by the
        // direct route; demanding at least flow I makes it a failure.
        let dup = merlin_geom::Point::new(50, 50);
        let sink = merlin_netlist::Sink::new(dup, merlin_tech::units::Cap::from_ff(10.0), 500.0);
        let bad = Net::new(
            "dup-sink",
            merlin_geom::Point::new(0, 0),
            merlin_tech::Driver::default(),
            vec![sink.clone(), sink],
        );
        let cfg = BatchConfig {
            jobs: 1,
            accept_tier: ServingTier::LttreePtree,
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            artifacts_dir: Some(artifacts.clone()),
            ..BatchConfig::default()
        };
        let report = run_batch(vec![bad], &tech, &cfg, &journal).expect("batch runs");
        let row = &report.rows[0];
        assert_eq!(row.status, RecordStatus::FailedDegraded);
        assert_eq!(row.attempts, 2, "both attempts consumed");
        assert_eq!(row.tier, ServingTier::DirectRoute);
        let artifact_path = artifacts.join("0-dup-sink.repro");
        let text = std::fs::read_to_string(&artifact_path).expect("artifact written");
        let repro = crate::artifact::parse_repro(&text).expect("artifact parses");
        assert_eq!(repro.cause, RecordStatus::FailedDegraded);
        assert_eq!(repro.max_attempts, 2);
        // The duplicate pair is the failure core: removing either sink
        // yields a valid net that solves, so the minimizer keeps both.
        assert_eq!(repro.net.num_sinks(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
