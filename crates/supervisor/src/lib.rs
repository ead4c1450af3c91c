//! Batch solve supervision for the MERLIN reproduction.
//!
//! `merlin_flows::resilient::resilient_solve` makes a *single* net
//! unkillable; this crate makes a *population* of nets survivable. It
//! drives the resilient solver across a batch with:
//!
//! * a fixed **worker pool** ([`batch::run_batch`]) — each worker thread
//!   seeds the fault-injection config of the supervising thread
//!   (`merlin_resilience::fault::seed_thread`) and pulls one attempt at a
//!   time from a shared queue,
//! * a **per-net watchdog** — a monitor thread that detects workers
//!   exceeding their wall-clock slice. Rust cannot kill a thread, so the
//!   watchdog *abandons* the worker instead: the net is marked timed out,
//!   the worker's generation is declared dead (its eventual result is
//!   dropped), and the pool spawns a replacement so throughput is
//!   preserved. This is the non-cooperative backstop to the cooperative
//!   [`merlin_resilience::SolveBudget`] the DP engines poll themselves,
//! * a **retry policy** ([`merlin_resilience::RetryPolicy`]) — bounded
//!   attempts with exponential backoff and deterministic parameter
//!   perturbation: a retried net gets a shrunken budget, a thinned search
//!   configuration, and a *lower* degradation-ladder entry tier, so a net
//!   that failed inside flow III is re-attempted from the single-pass or
//!   flow II rung instead of being replayed into the same failure,
//! * a **checkpoint/resume journal** ([`journal`]) — an append-only,
//!   fsync'd, line-oriented write-ahead journal of terminal outcomes. A
//!   killed process resumes at the first unfinished net; completed runs
//!   replay the journal into a byte-identical [`report::BatchReport`]
//!   without re-solving anything,
//! * **failure-artifact capture** ([`artifact`]) — nets that exhaust
//!   their attempts are serialized to `<artifacts>/<idx>-<net>.repro`
//!   with the full supervision parameters (and chaos config), greedily
//!   minimized by sink removal once the batch has drained (the verbatim
//!   artifact is written immediately, so a crash mid-batch still leaves
//!   a repro), and replayable via `merlin_cli repro <file>`,
//! * **process isolation** ([`proc::run_batch_proc`]) — the batch sharded
//!   across worker *subprocesses*, each with its own journal segment, so
//!   a hard fault (abort, OOM, stack overflow) costs one shard's
//!   in-flight net instead of the whole batch. Workers speak the
//!   [`heartbeat`] protocol; the parent escalates SIGTERM → SIGKILL on a
//!   wedged worker, respawns with capped backoff, quarantines poison
//!   nets, and drains gracefully on SIGINT. Any set of segments — from
//!   any shard count — merges back into one byte-stable report.
//!
//! The crate deliberately contains **no** `catch_unwind`: panic isolation
//! stays at the single sanctioned boundary in `merlin_resilience::isolate`
//! (the root `clippy.toml` disallows `catch_unwind` everywhere else).
//! See `docs/RESILIENCE.md` for the full model.

pub mod artifact;
pub mod batch;
pub mod exec;
pub mod heartbeat;
pub mod journal;
pub mod proc;
pub mod report;

pub use artifact::{
    arm_chaos_spec, capture, minimize, parse_repro, replay, write_repro, ReplayOutcome, Repro,
    ReproParseError, REPRO_HEADER,
};
pub use batch::{replay_batch, run_batch, sanitize_name, BatchConfig, BatchError};
pub use exec::{solve_to_record, ExecOptions, ExecOutcome};
pub use heartbeat::{Heartbeat, HeartbeatDecodeError, DRAIN_COMMAND};
pub use journal::{
    load_journal, merge_segments, population_hash, quarantine_segment_path, segment_path,
    segment_paths, JournalLoadError, JournalMergeError, JournalWriter, LoadedJournal,
    MergedJournal,
};
pub use proc::{
    drain_requested, escalation, ignore_sigint, ignore_sigterm, install_sigint_drain,
    install_sigterm_drain, note_drain_signal, request_drain, run_batch_proc, run_worker,
    worker_exit, worker_handshake_ok, worker_handshake_value, Escalation, ProcConfig,
    WorkerOptions, WorkerSummary, EXIT_ORPHANED, WORKER_HANDSHAKE_ENV,
};
pub use report::BatchReport;
