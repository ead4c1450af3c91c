//! Supervisor chaos tests (require `--features fault-inject`).
//!
//! These exercise the two supervision mechanisms the unit tests cannot:
//! worker threads inheriting the batch's chaos config via
//! `fault::seed_thread` (the registry is thread-local, so an unseeded pool
//! would silently run fault-free), and the watchdog abandoning stalled
//! workers, retrying on a replacement, and ultimately capturing a
//! `.repro` artifact when attempts run out.

#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::time::Duration;

use merlin_netlist::bench_nets::random_net;
use merlin_netlist::Net;
use merlin_resilience::fault::{FaultConfig, FaultKind};
use merlin_resilience::journal::RecordStatus;
use merlin_resilience::{RetryPolicy, ServingTier};
use merlin_supervisor::{parse_repro, run_batch, BatchConfig};
use merlin_tech::Technology;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("merlin-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn batch(n: usize) -> Vec<Net> {
    let tech = Technology::synthetic_035();
    (0..n)
        .map(|i| random_net(&format!("net{i}"), 4, 7 + i as u64, &tech))
        .collect()
}

#[test]
fn worker_threads_inherit_the_chaos_config() {
    let dir = tmp_dir("seeding");
    let tech = Technology::synthetic_035();
    let mut fault = FaultConfig::none();
    // Each seeded worker's *first* flow III entry panics; the resilient
    // ladder absorbs it and serves from a weaker tier. If seed_thread
    // were skipped, every worker would run fault-free and every net
    // would serve from the merlin tier.
    assert!(fault.arm(
        "flows.flow3.run",
        FaultKind::Panic,
        1,
        Duration::from_millis(1)
    ));
    let cfg = BatchConfig {
        jobs: 2,
        fault,
        ..BatchConfig::default()
    };
    let report = run_batch(batch(4), &tech, &cfg, &dir.join("run.journal")).expect("batch runs");
    assert_eq!(report.lost(), 0);
    assert!(
        report.rows.iter().all(|r| r.status == RecordStatus::Served),
        "the ladder degrades, it does not fail"
    );
    let degraded = report
        .rows
        .iter()
        .filter(|r| r.tier != ServingTier::Merlin)
        .count();
    assert!(
        degraded >= 1,
        "at least one worker hit the seeded panic; an unseeded pool would show zero"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_abandons_a_stalled_worker_and_a_retry_serves() {
    let dir = tmp_dir("watchdog-retry");
    let tech = Technology::synthetic_035();
    let mut fault = FaultConfig::none();
    // The first flow III entry on every seeded worker stalls far past the
    // watchdog limit. The retry enters the ladder at the single-pass rung
    // (RetryPolicy perturbation), which never reaches the armed site, so
    // the replacement worker serves cleanly.
    assert!(fault.arm(
        "flows.flow3.run",
        FaultKind::Stall,
        1,
        Duration::from_millis(4_000)
    ));
    let cfg = BatchConfig {
        jobs: 1,
        fault,
        watchdog_limit: Some(Duration::from_millis(1_000)),
        watchdog_poll: Duration::from_millis(20),
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        ..BatchConfig::default()
    };
    let report = run_batch(batch(1), &tech, &cfg, &dir.join("run.journal")).expect("batch runs");
    let row = &report.rows[0];
    assert_eq!(row.status, RecordStatus::Served);
    assert_eq!(row.attempts, 2, "one timed-out attempt, one serving retry");
    assert!(
        row.tier >= ServingTier::SinglePass,
        "the retry entered below the merlin rung, got {}",
        row.tier
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_restores_the_callers_fault_registry() {
    use merlin_resilience::fault;
    use merlin_supervisor::{replay, Repro};
    let tech = Technology::synthetic_035();
    fault::disarm_all();
    fault::arm("caller.site", FaultKind::EmptyCurve, 1);
    let mut chaos = FaultConfig::none();
    assert!(chaos.arm(
        "flows.flow3.run",
        FaultKind::Panic,
        1,
        Duration::from_millis(1)
    ));
    let repro = Repro {
        cause: RecordStatus::FailedDegraded,
        accept_tier: ServingTier::DirectRoute,
        max_attempts: 2,
        budget_ms: None,
        work_limit: None,
        entry_floor: None,
        watchdog_ms: None,
        chaos,
        net: random_net("hygiene", 4, 11, &tech),
    };
    let _ = replay(&repro, &tech);
    // The artifact's chaos plan must not outlive the replay, and the
    // caller's own plan must be re-armed.
    let specs = fault::snapshot().specs();
    assert_eq!(specs.len(), 1, "only the caller's plan survives");
    assert_eq!(specs[0].0, "caller.site");
    fault::disarm_all();
}

#[test]
fn exhausted_watchdog_timeouts_fail_the_net_and_capture_an_artifact() {
    let dir = tmp_dir("watchdog-exhaust");
    let artifacts = dir.join("artifacts");
    let tech = Technology::synthetic_035();
    let mut fault = FaultConfig::none();
    assert!(fault.arm(
        "flows.flow3.run",
        FaultKind::Stall,
        1,
        Duration::from_millis(4_000)
    ));
    let cfg = BatchConfig {
        jobs: 1,
        fault,
        watchdog_limit: Some(Duration::from_millis(1_000)),
        watchdog_poll: Duration::from_millis(20),
        retry: RetryPolicy::no_retries(),
        artifacts_dir: Some(artifacts.clone()),
        // The minimizer replays the injected stall per probe; keep the
        // artifact verbatim instead.
        minimize: false,
        ..BatchConfig::default()
    };
    let report = run_batch(batch(1), &tech, &cfg, &dir.join("run.journal")).expect("batch runs");
    let row = &report.rows[0];
    assert_eq!(row.status, RecordStatus::FailedTimeout);
    assert_eq!(row.attempts, 1);
    assert_eq!(row.hash, 0, "failures carry no outcome hash");
    let text = std::fs::read_to_string(artifacts.join("0-net0.repro")).expect("artifact written");
    let repro = parse_repro(&text).expect("artifact parses");
    assert_eq!(repro.cause, RecordStatus::FailedTimeout);
    assert_eq!(repro.watchdog_ms, Some(1_000));
    let specs = repro.chaos.specs();
    assert_eq!(specs.len(), 1, "the chaos config rides along");
    assert_eq!(specs[0].0, "flows.flow3.run");
    assert_eq!(specs[0].1, FaultKind::Stall);
    let _ = std::fs::remove_dir_all(&dir);
}
