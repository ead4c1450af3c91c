//! The per-net attempt recipe that every execution mode runs.
//!
//! Thread mode ([`crate::run_batch`]), process mode ([`crate::run_worker`]),
//! the daemon (`merlin-server`) and `.repro` replay ([`crate::replay`])
//! all take a net through the same two functions of `NetRun`:
//!
//! * `NetRun::attempt` runs one solve attempt: the deterministic
//!   [`RetryPolicy::params`](merlin_resilience::RetryPolicy::params)
//!   perturbation for its ordinal (entering the ladder no higher than
//!   [`ExecOptions::entry_floor`]), the correspondingly scaled budget,
//!   the per-size flows config and the resilient solver, inside a
//!   `supervisor.net` span; it returns the outcome and its journal hash;
//! * `NetRun::verdict` decides what follows an attempt that returned or
//!   that the watchdog abandoned: accept it, retry it after a backoff,
//!   or end the net with a terminal [`JournalRecord`], capturing a
//!   `.repro` artifact when the net failed.
//!
//! Because they call the same functions with the same parameters,
//! budgets and hashes, the modes journal identical records for the same
//! nets, and their reports render byte-identically. [`solve_to_record`]
//! is the loop over the two that runs one net to its terminal record on
//! the calling thread (process mode and the daemon); thread mode calls
//! them from its workers and its event loop instead.
//!
//! Two knobs exist only for embedders:
//!
//! * [`ExecOptions::entry_floor`] — load shedding. An overloaded server
//!   enters the degradation ladder at a *weaker* tier (flow II instead of
//!   flow III) without touching the retry policy itself.
//! * [`ExecOptions::budget_ms`] — deadline propagation. A request-scoped
//!   wall-clock budget (e.g. the remainder of a client deadline after
//!   queue wait) overrides [`BatchConfig::budget_ms`] for this net only.

use std::time::Duration;

use merlin_flows::resilient::{resilient_solve_attempt, ResilientOutcome};
use merlin_flows::{FlowResult, FlowsConfig};
use merlin_netlist::Net;
use merlin_resilience::journal::{outcome_hash, JournalRecord, RecordStatus};
use merlin_resilience::{ServingTier, SolveBudget};
use merlin_tech::Technology;

use crate::artifact::{self, Repro};
use crate::batch::{sanitize_name, BatchConfig};

/// Embedder-side knobs for one net. The default is what thread and
/// process mode run with.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Weakest-allowed ladder *entry* tier: every attempt enters at the
    /// weaker of its retry-policy entry and this floor. `None` (default)
    /// leaves the retry policy alone; a load-shedding server passes the
    /// pressure-mapped tier here.
    pub entry_floor: Option<ServingTier>,
    /// Request-scoped wall-clock budget override in milliseconds. `None`
    /// (default) uses [`BatchConfig::budget_ms`].
    pub budget_ms: Option<u64>,
}

/// What [`solve_to_record`] produced for one net.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The terminal record for the journal.
    pub record: JournalRecord,
    /// The last attempt's tree and evaluation (present for served nets
    /// and for degraded failures alike — it is the best tree found).
    pub result: FlowResult,
    /// A repro the caller should minimize once its batch has drained
    /// (present when the net failed, artifacts are on, and
    /// [`BatchConfig::minimize`] is set; the verbatim artifact is already
    /// written by the time this returns).
    pub minimize: Option<(u64, Repro)>,
}

/// How one attempt ended, as [`NetRun::verdict`] sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum AttemptEnd {
    /// The solver returned: the tier that served and the outcome hash.
    Solved { tier: ServingTier, hash: u64 },
    /// The watchdog abandoned the attempt.
    TimedOut,
}

/// What follows one attempt.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// Run the next attempt after this backoff.
    Retry(Duration),
    /// The net is done: commit this record.
    Terminal(JournalRecord),
}

/// One net under supervision: everything its attempts and verdicts read.
pub(crate) struct NetRun<'a> {
    pub(crate) net: &'a Net,
    /// The net's batch index: its journal key and artifact name (0 for a
    /// replay, which has no batch).
    pub(crate) idx: u64,
    pub(crate) tech: &'a Technology,
    pub(crate) cfg: &'a BatchConfig,
    pub(crate) opts: ExecOptions,
}

impl NetRun<'_> {
    /// The wall-clock budget every attempt scales: the request override,
    /// else the batch's.
    fn budget_ms(&self) -> Option<u64> {
        self.opts.budget_ms.or(self.cfg.budget_ms)
    }

    /// Runs attempt `attempt` (0-based) and returns the outcome with its
    /// journal hash.
    pub(crate) fn attempt(&self, attempt: u32) -> (ResilientOutcome, u64) {
        let mut params = self.cfg.retry.params(attempt);
        if let Some(floor) = self.opts.entry_floor {
            // Strongest-first `Ord`: `max` picks the weaker tier, so a
            // floor can only move the attempt *down* the ladder.
            params.entry = params.entry.max(floor);
        }
        let budget = attempt_budget(self.budget_ms(), self.cfg.work_limit, params.budget_scale);
        let flows_cfg = FlowsConfig::for_net_size(self.net.num_sinks());
        let net_span = merlin_trace::span!("supervisor.net", self.idx);
        let out = resilient_solve_attempt(self.net, self.tech, &flows_cfg, &budget, &params);
        drop(net_span);
        merlin_trace::counter("supervisor.attempts", 1);
        let eval = &out.result.eval;
        let hash = outcome_hash(
            &self.net.name,
            out.report.served,
            eval.buffer_area,
            eval.num_buffers,
            eval.wirelength,
            eval.delay_ps,
        );
        (out, hash)
    }

    /// Decides what follows attempt `attempt`, which ended as `end`;
    /// `timeouts` is the net's watchdog fires so far, this one included.
    /// A failed net's `.repro` is written before this returns; when
    /// [`BatchConfig::minimize`] is set it is also queued on `deferred`
    /// for [`minimize_deferred`]. Capture failures go to `warnings`.
    pub(crate) fn verdict(
        &self,
        attempt: u32,
        end: AttemptEnd,
        timeouts: u32,
        deferred: &mut Vec<(u64, Repro)>,
        warnings: &mut Vec<String>,
    ) -> Verdict {
        let cfg = self.cfg;
        let (tier, status, hash) = match end {
            AttemptEnd::Solved { tier, hash } if tier <= cfg.accept_tier => {
                (tier, RecordStatus::Served, hash)
            }
            _ if !cfg.retry.is_final(attempt) => {
                merlin_trace::counter("supervisor.retry", 1);
                match end {
                    AttemptEnd::Solved { .. } => {
                        merlin_trace::counter("supervisor.retry.degraded", 1)
                    }
                    AttemptEnd::TimedOut => merlin_trace::counter("supervisor.retry.timeout", 1),
                }
                let backoff = cfg.retry.backoff(attempt + 1);
                merlin_trace::observe("supervisor.backoff.ms", backoff.as_millis() as u64);
                return Verdict::Retry(backoff);
            }
            AttemptEnd::Solved { tier, .. } => (tier, RecordStatus::FailedDegraded, 0),
            AttemptEnd::TimedOut => (ServingTier::DirectRoute, RecordStatus::FailedTimeout, 0),
        };
        if status != RecordStatus::Served {
            self.capture(status, deferred, warnings);
        }
        Verdict::Terminal(JournalRecord {
            idx: self.idx,
            net: sanitize_name(&self.net.name),
            tier,
            attempts: attempt + 1,
            timeouts,
            status,
            hash,
        })
    }

    /// Writes the verbatim `.repro` for a net that failed with `cause`.
    fn capture(
        &self,
        cause: RecordStatus,
        deferred: &mut Vec<(u64, Repro)>,
        warnings: &mut Vec<String>,
    ) {
        let cfg = self.cfg;
        let Some(dir) = &cfg.artifacts_dir else {
            return;
        };
        let repro = Repro {
            cause,
            accept_tier: cfg.accept_tier,
            max_attempts: cfg.retry.max_attempts,
            // The limits the attempts ran under, request overrides
            // included, so a replay reproduces them.
            budget_ms: self.budget_ms(),
            work_limit: cfg.work_limit,
            entry_floor: self.opts.entry_floor,
            watchdog_ms: cfg.watchdog_limit.map(|d| d.as_millis() as u64),
            chaos: cfg.fault.clone(),
            net: self.net.clone(),
        };
        // The verbatim artifact lands on disk immediately, so a crash
        // later in the run still leaves a usable repro behind.
        match artifact::capture(dir, self.idx, &repro, self.tech, false) {
            Ok(_) if cfg.minimize => deferred.push((self.idx, repro)),
            Ok(_) => {}
            Err(e) => warnings.push(format!(
                "artifact capture for `{}` failed: {e}",
                self.net.name
            )),
        }
    }
}

/// Builds the budget for one attempt from the per-net limits and the
/// attempt's [`merlin_resilience::AttemptParams::budget_scale`].
fn attempt_budget(budget_ms: Option<u64>, work_limit: Option<u64>, scale: f64) -> SolveBudget {
    // Retry ladders hand in small scale factors (~1x–4x), but the value
    // ultimately comes from config; cap it so `mul_f64` can never hit the
    // Duration overflow panic (the hazard `RetryPolicy::backoff` guards).
    let scale = if scale.is_finite() { scale } else { 1.0 };
    let mut budget = SolveBudget::unlimited();
    if let Some(ms) = budget_ms {
        budget = budget.and_deadline(Duration::from_millis(ms).mul_f64(scale.clamp(0.0, 1024.0)));
    }
    if let Some(limit) = work_limit {
        budget = budget.and_work_limit(((limit as f64) * scale).floor().max(1.0) as u64);
    }
    budget
}

/// Minimizes the repros that failed nets queued, each overwriting the
/// verbatim artifact written when its net failed. Minimization replays
/// up to `max_attempts` solves per sink-removal probe, so every mode runs
/// it once its nets are committed, out of the supervision loop.
pub(crate) fn minimize_deferred(
    cfg: &BatchConfig,
    tech: &Technology,
    deferred: &[(u64, Repro)],
    warnings: &mut Vec<String>,
) {
    let Some(dir) = &cfg.artifacts_dir else {
        return;
    };
    for (idx, repro) in deferred {
        if let Err(e) = artifact::capture(dir, *idx, repro, tech, true) {
            warnings.push(format!(
                "artifact minimization for `{}` failed: {e}",
                repro.net.name
            ));
        }
    }
}

/// Runs `net` through the retry ladder to a terminal record.
///
/// `backoff_sleep` is called between attempts with the policy's backoff
/// for the *next* attempt; the caller decides how to wait (the process
/// worker interleaves heartbeats, the server just sleeps). No watchdog
/// runs here, so callers leave [`BatchConfig::watchdog_limit`] unset.
/// Per-net solve failures are records, not errors, so this function is
/// infallible; artifact capture failures are reported on stderr.
pub fn solve_to_record(
    net: &Net,
    tech: &Technology,
    cfg: &BatchConfig,
    idx: u64,
    opts: &ExecOptions,
    backoff_sleep: &mut dyn FnMut(Duration),
) -> ExecOutcome {
    let run = NetRun {
        net,
        idx,
        tech,
        cfg,
        opts: *opts,
    };
    let mut deferred = Vec::new();
    let mut warnings = Vec::new();
    let mut attempt = 0u32;
    loop {
        let (out, hash) = run.attempt(attempt);
        let end = AttemptEnd::Solved {
            tier: out.report.served,
            hash,
        };
        match run.verdict(attempt, end, 0, &mut deferred, &mut warnings) {
            Verdict::Retry(backoff) => {
                attempt += 1;
                backoff_sleep(backoff);
            }
            Verdict::Terminal(record) => {
                for warning in &warnings {
                    eprintln!("merlin-supervisor: {warning}");
                }
                return ExecOutcome {
                    record,
                    result: out.result,
                    minimize: deferred.pop(),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_netlist::bench_nets::random_net;

    #[test]
    fn default_options_serve_and_hash_like_thread_mode() {
        let tech = Technology::synthetic_035();
        let net = random_net("exec0", 4, 11, &tech);
        let cfg = BatchConfig {
            artifacts_dir: None,
            ..BatchConfig::default()
        };
        let mut slept = Vec::new();
        let out = solve_to_record(&net, &tech, &cfg, 7, &ExecOptions::default(), &mut |d| {
            slept.push(d)
        });
        assert_eq!(out.record.idx, 7);
        assert_eq!(out.record.status, RecordStatus::Served);
        assert_eq!(out.record.attempts, 1);
        assert!(slept.is_empty(), "no retries, no backoff");
        assert_ne!(out.record.hash, 0);
        // Determinism: a second run produces the identical record.
        let again = solve_to_record(&net, &tech, &cfg, 7, &ExecOptions::default(), &mut |_| {});
        assert_eq!(out.record, again.record);
    }

    #[test]
    fn entry_floor_sheds_to_a_weaker_tier() {
        let tech = Technology::synthetic_035();
        let net = random_net("exec1", 4, 12, &tech);
        let cfg = BatchConfig {
            artifacts_dir: None,
            ..BatchConfig::default()
        };
        let opts = ExecOptions {
            entry_floor: Some(ServingTier::PtreeVanGinneken),
            budget_ms: None,
        };
        let out = solve_to_record(&net, &tech, &cfg, 0, &opts, &mut |_| {});
        assert_eq!(out.record.status, RecordStatus::Served);
        // The ladder was entered at flow II, so MERLIN cannot have served.
        assert!(
            out.record.tier >= ServingTier::PtreeVanGinneken,
            "shed entry must skip the stronger tiers, served {}",
            out.record.tier
        );
    }

    #[test]
    fn degraded_net_exhausts_attempts_and_reports_failure() {
        let tech = Technology::synthetic_035();
        let net = random_net("exec2", 4, 13, &tech);
        let dir = std::env::temp_dir().join(format!("merlin-exec-test-{}", std::process::id()));
        // Demand more than any tier can deliver: accept only MERLIN but
        // enter the ladder below it, so every attempt is a degraded serve.
        let cfg = BatchConfig {
            artifacts_dir: Some(dir.clone()),
            accept_tier: ServingTier::Merlin,
            ..BatchConfig::default()
        };
        // A request-scoped budget (a client deadline), generous enough
        // that no attempt runs out of it.
        let opts = ExecOptions {
            entry_floor: Some(ServingTier::LttreePtree),
            budget_ms: Some(600_000),
        };
        let mut backoffs = 0u32;
        let out = solve_to_record(&net, &tech, &cfg, 3, &opts, &mut |_| backoffs += 1);
        assert_eq!(out.record.status, RecordStatus::FailedDegraded);
        assert_eq!(out.record.attempts, cfg.retry.max_attempts);
        assert_eq!(backoffs, cfg.retry.max_attempts - 1);
        assert_eq!(out.record.hash, 0);
        // The repro carries the budget the attempts ran under, not the
        // (unlimited) config default, and the shed entry floor.
        let text = std::fs::read_to_string(dir.join("3-exec2.repro")).expect("artifact written");
        let repro = artifact::parse_repro(&text).expect("artifact parses");
        assert_eq!(repro.budget_ms, Some(600_000));
        assert_eq!(cfg.budget_ms, None);
        assert_eq!(repro.entry_floor, Some(ServingTier::LttreePtree));
        // So the failure reproduces: replay enters at the floor too.
        assert!(artifact::replay(&repro, &tech).failed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
