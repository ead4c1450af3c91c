//! The per-net execution engine, factored out of the CLI-shaped entry
//! points so embedders (the process-mode worker, `merlin-server`) share
//! one retry ladder.
//!
//! [`solve_to_record`] runs one net through the full supervision recipe —
//! deterministic [`RetryPolicy`](merlin_resilience::RetryPolicy)
//! perturbation, per-attempt budgets, acceptance against
//! [`BatchConfig::accept_tier`], failure-artifact capture — and produces
//! the terminal [`JournalRecord`] the caller commits. The loop mirrors
//! thread mode byte for byte when called with [`ExecOptions::default`]:
//! same attempt parameters, budgets, and outcome hashes, which is what
//! keeps a server-solved or process-mode-solved population's report
//! byte-identical to a thread-mode batch over the same nets.
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

use merlin_flows::resilient::resilient_solve_attempt;
use merlin_flows::{FlowResult, FlowsConfig};
use merlin_netlist::Net;
use merlin_resilience::journal::{outcome_hash, JournalRecord, RecordStatus};
use merlin_resilience::ServingTier;
use merlin_tech::Technology;

use crate::artifact::{self, Repro};
use crate::batch::{sanitize_name, BatchConfig};

/// Embedder-side knobs for one [`solve_to_record`] call. The default is
/// byte-identical to thread-mode batch behavior.
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

/// Runs `net` through the retry ladder to a terminal record.
///
/// `backoff_sleep` is called between attempts with the policy's backoff
/// for the *next* attempt; the caller decides how to wait (the process
/// worker interleaves heartbeats, the server just sleeps). Per-net solve
/// failures are records, not errors, so this function is infallible.
pub fn solve_to_record(
    net: &Net,
    tech: &Technology,
    cfg: &BatchConfig,
    idx: u64,
    opts: &ExecOptions,
    backoff_sleep: &mut dyn FnMut(Duration),
) -> ExecOutcome {
    let budget_ms = opts.budget_ms.or(cfg.budget_ms);
    let mut attempt = 0u32;
    loop {
        let mut params = cfg.retry.params(attempt);
        params.threads = cfg.threads;
        params.load_quant = cfg.load_quant;
        if let Some(floor) = opts.entry_floor {
            // Strongest-first `Ord`: `max` picks the weaker tier, so a
            // shed entry can only move the attempt *down* the ladder.
            params.entry = params.entry.max(floor);
        }
        let budget = artifact::attempt_budget(budget_ms, cfg.work_limit, params.budget_scale);
        let flows_cfg = FlowsConfig::for_net_size(net.num_sinks());
        let net_span = merlin_trace::span!("supervisor.net", idx);
        let out = resilient_solve_attempt(net, tech, &flows_cfg, &budget, &params);
        drop(net_span);
        merlin_trace::counter("supervisor.attempts", 1);
        let tier = out.report.served;
        let eval = &out.result.eval;
        let hash = outcome_hash(
            &net.name,
            tier,
            eval.buffer_area,
            eval.num_buffers,
            eval.wirelength,
            eval.delay_ps,
        );
        if tier <= cfg.accept_tier {
            return ExecOutcome {
                record: JournalRecord {
                    idx,
                    net: sanitize_name(&net.name),
                    tier,
                    attempts: attempt + 1,
                    timeouts: 0,
                    status: RecordStatus::Served,
                    hash,
                },
                result: out.result,
                minimize: None,
            };
        }
        if cfg.retry.is_final(attempt) {
            let mut minimize = None;
            if let Some(dir) = &cfg.artifacts_dir {
                let repro = Repro {
                    cause: RecordStatus::FailedDegraded,
                    accept_tier: cfg.accept_tier,
                    max_attempts: cfg.retry.max_attempts,
                    // The budget the attempts ran under, request override
                    // included, so a replay reproduces the same limits.
                    budget_ms,
                    work_limit: cfg.work_limit,
                    watchdog_ms: None,
                    chaos: cfg.fault.clone(),
                    net: net.clone(),
                };
                match artifact::capture(dir, idx, &repro, tech, false) {
                    Ok(_) if cfg.minimize => minimize = Some((idx, repro)),
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!(
                            "merlin-supervisor: artifact capture for `{}`: {e}",
                            net.name
                        );
                    }
                }
            }
            return ExecOutcome {
                record: JournalRecord {
                    idx,
                    net: sanitize_name(&net.name),
                    tier,
                    attempts: attempt + 1,
                    timeouts: 0,
                    status: RecordStatus::FailedDegraded,
                    hash: 0,
                },
                result: out.result,
                minimize,
            };
        }
        merlin_trace::counter("supervisor.retry", 1);
        merlin_trace::counter("supervisor.retry.degraded", 1);
        attempt += 1;
        let backoff = cfg.retry.backoff(attempt);
        merlin_trace::observe("supervisor.backoff.ms", backoff.as_millis() as u64);
        backoff_sleep(backoff);
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
        // (unlimited) config default.
        let text = std::fs::read_to_string(dir.join("3-exec2.repro")).expect("artifact written");
        let repro = artifact::parse_repro(&text).expect("artifact parses");
        assert_eq!(repro.budget_ms, Some(600_000));
        assert_eq!(cfg.budget_ms, None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
