//! Failure-artifact capture: self-contained `.repro` files.
//!
//! When a net exhausts its retry budget, the supervisor serializes
//! everything needed to reproduce the failure outside the batch — the net
//! itself (in the `merlin_netlist::io` `.net` format), the supervision
//! parameters (acceptance tier, budgets, attempt count, ladder entry
//! floor, watchdog limit) and any armed chaos config — into one
//! plain-text artifact:
//!
//! ```text
//! #merlin-repro v1
//! cause failed-degraded
//! accept-tier single-pass
//! max-attempts 3
//! budget-ms 100
//! work-limit 50000
//! entry-floor ptree+vg
//! watchdog-ms 500
//! chaos flows.flow3.run:panic:1:40
//! net n17
//! source 0 0 4.0000
//! sink 100 200 12.5 900.000
//! ```
//!
//! The `budget-ms` / `work-limit` / `entry-floor` / `watchdog-ms` /
//! `chaos` lines are optional (`entry-floor` is the daemon's
//! load-shedding floor, written only when one was set); everything
//! before the `net` line is supervision metadata and everything from it
//! onward is the standard `.net` body. [`replay`] runs the supervisor's
//! attempt sequence through the same [`crate::exec`] attempt every mode
//! runs (same [`RetryPolicy::params`] perturbations, entry floor and
//! scaled budgets) and
//! [`minimize`] greedily removes sinks while the failure still
//! reproduces, so the artifact that lands on disk is the smallest
//! counterexample the minimizer could find. `merlin_cli repro <file>`
//! wraps [`replay`] for one-command triage.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use merlin_netlist::{io as net_io, Net};
use merlin_resilience::fault::{self, FaultConfig, FaultKind};
use merlin_resilience::journal::RecordStatus;
use merlin_resilience::{RetryPolicy, ServingTier};
use merlin_tech::Technology;

use crate::batch::BatchConfig;
use crate::exec::{ExecOptions, NetRun};

/// First line of every `.repro` artifact.
pub const REPRO_HEADER: &str = "#merlin-repro v1";

/// A self-contained failure reproduction: the net plus the supervision
/// parameters under which it failed.
#[derive(Clone, Debug)]
pub struct Repro {
    /// How the net terminally failed.
    pub cause: RecordStatus,
    /// The weakest serving tier the batch accepted.
    pub accept_tier: ServingTier,
    /// Total attempts the supervisor allowed (first try included).
    pub max_attempts: u32,
    /// Per-net wall-clock budget in milliseconds, if one was set.
    pub budget_ms: Option<u64>,
    /// Per-net DP work limit, if one was set.
    pub work_limit: Option<u64>,
    /// The weakest ladder entry tier the attempts were held to (the
    /// daemon's load-shedding floor), if one was set.
    pub entry_floor: Option<ServingTier>,
    /// Watchdog wall-clock limit in milliseconds, if the watchdog ran.
    pub watchdog_ms: Option<u64>,
    /// The chaos config the workers were seeded with (empty outside
    /// fault-injection runs).
    pub chaos: FaultConfig,
    /// The failing net.
    pub net: Net,
}

/// Why a `.repro` file failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproParseError {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ReproParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad repro artifact: {}", self.reason)
    }
}

impl std::error::Error for ReproParseError {}

fn bad(reason: impl Into<String>) -> ReproParseError {
    ReproParseError {
        reason: reason.into(),
    }
}

/// Serializes a repro as artifact text (inverse of [`parse_repro`]).
pub fn write_repro(repro: &Repro) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{REPRO_HEADER}");
    let _ = writeln!(s, "cause {}", repro.cause.label());
    let _ = writeln!(s, "accept-tier {}", repro.accept_tier.label());
    let _ = writeln!(s, "max-attempts {}", repro.max_attempts.max(1));
    if let Some(ms) = repro.budget_ms {
        let _ = writeln!(s, "budget-ms {ms}");
    }
    if let Some(w) = repro.work_limit {
        let _ = writeln!(s, "work-limit {w}");
    }
    if let Some(floor) = repro.entry_floor {
        let _ = writeln!(s, "entry-floor {}", floor.label());
    }
    if let Some(ms) = repro.watchdog_ms {
        let _ = writeln!(s, "watchdog-ms {ms}");
    }
    for (site, kind, nth, stall) in repro.chaos.specs() {
        let _ = writeln!(
            s,
            "chaos {site}:{}:{nth}:{}",
            kind.label(),
            stall.as_millis()
        );
    }
    s.push_str(&net_io::write_net(&repro.net));
    s
}

/// Parses one `chaos site:kind:nth[:stall_ms]` spec into `cfg`. Returns
/// `false` (without erroring) when the build has no fault-injection
/// support, so callers can warn instead of silently dropping the spec.
///
/// # Errors
///
/// Malformed site/kind/ordinal in the spec.
pub fn arm_chaos_spec(cfg: &mut FaultConfig, spec: &str) -> Result<bool, ReproParseError> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 3 || parts.len() > 4 {
        return Err(bad(format!(
            "chaos spec `{spec}` is not site:kind:nth[:stall_ms]"
        )));
    }
    let kind = FaultKind::parse(parts[1])
        .ok_or_else(|| bad(format!("unknown fault kind `{}`", parts[1])))?;
    let nth: u64 = parts[2]
        .parse()
        .map_err(|_| bad(format!("malformed fault ordinal `{}`", parts[2])))?;
    let stall = match parts.get(3) {
        Some(ms) => Duration::from_millis(
            ms.parse()
                .map_err(|_| bad(format!("malformed stall duration `{ms}`")))?,
        ),
        None => fault_default_stall(),
    };
    Ok(cfg.arm(parts[0], kind, nth, stall))
}

#[cfg(feature = "fault-inject")]
fn fault_default_stall() -> Duration {
    fault::DEFAULT_STALL
}

#[cfg(not(feature = "fault-inject"))]
fn fault_default_stall() -> Duration {
    Duration::from_millis(40)
}

/// Parses a `.repro` artifact (inverse of [`write_repro`]).
///
/// # Errors
///
/// Unknown header version, malformed metadata lines, or a malformed
/// embedded `.net` body.
pub fn parse_repro(text: &str) -> Result<Repro, ReproParseError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == REPRO_HEADER => {}
        other => {
            return Err(bad(format!(
                "expected `{REPRO_HEADER}`, found `{}`",
                other.unwrap_or("<empty file>")
            )))
        }
    }
    let mut cause = None;
    let mut accept_tier = None;
    let mut max_attempts = None;
    let mut budget_ms = None;
    let mut work_limit = None;
    let mut entry_floor = None;
    let mut watchdog_ms = None;
    let mut chaos = FaultConfig::none();
    let mut net_text = String::new();
    let mut in_net = false;
    for line in lines {
        let trimmed = line.trim();
        if in_net {
            net_text.push_str(line);
            net_text.push('\n');
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (key, value) = trimmed.split_once(' ').unwrap_or((trimmed, ""));
        match key {
            "cause" => {
                cause = Some(
                    RecordStatus::parse(value)
                        .ok_or_else(|| bad(format!("unknown cause `{value}`")))?,
                );
            }
            "accept-tier" => {
                accept_tier = Some(
                    ServingTier::parse(value)
                        .ok_or_else(|| bad(format!("unknown accept tier `{value}`")))?,
                );
            }
            "max-attempts" => {
                max_attempts = Some(
                    value
                        .parse::<u32>()
                        .map_err(|_| bad("malformed max-attempts"))?,
                );
            }
            "budget-ms" => {
                budget_ms = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("malformed budget-ms"))?,
                );
            }
            "work-limit" => {
                work_limit = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("malformed work-limit"))?,
                );
            }
            "entry-floor" => {
                entry_floor = Some(
                    ServingTier::parse(value)
                        .ok_or_else(|| bad(format!("unknown entry floor `{value}`")))?,
                );
            }
            "watchdog-ms" => {
                watchdog_ms = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("malformed watchdog-ms"))?,
                );
            }
            "chaos" => {
                // Ignoring the bool: parsing an artifact from a chaos run
                // in an unarmed build keeps the net but sheds the faults;
                // `replay` reports what it actually ran.
                let _ = arm_chaos_spec(&mut chaos, value)?;
            }
            "net" => {
                in_net = true;
                net_text.push_str(line);
                net_text.push('\n');
            }
            other => return Err(bad(format!("unknown directive `{other}`"))),
        }
    }
    let net = net_io::parse_net(&net_text).map_err(|e| bad(format!("embedded net: {e}")))?;
    Ok(Repro {
        cause: cause.ok_or_else(|| bad("missing `cause` line"))?,
        accept_tier: accept_tier.ok_or_else(|| bad("missing `accept-tier` line"))?,
        max_attempts: max_attempts.ok_or_else(|| bad("missing `max-attempts` line"))?,
        budget_ms,
        work_limit,
        entry_floor,
        watchdog_ms,
        chaos,
        net,
    })
}

/// What one [`replay`] observed.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Per attempt: the tier that served and the wall-clock seconds spent.
    pub attempts: Vec<(ServingTier, f64)>,
    /// Whether the failure reproduced (no attempt served acceptably
    /// within the watchdog limit).
    pub failed: bool,
}

/// Replays the supervisor's attempt sequence for `repro` on the current
/// thread: each attempt seeds the artifact's chaos config afresh and runs
/// the supervisor's own attempt (the deterministic
/// [`RetryPolicy::params`] perturbation held to the entry floor, under
/// the correspondingly scaled budget). An attempt "fails" when its
/// served tier is weaker than the acceptance tier or (for watchdog
/// artifacts) its wall-clock exceeds the watchdog limit.
pub fn replay(repro: &Repro, tech: &Technology) -> ReplayOutcome {
    // The attempts seed the artifact's chaos config into the *calling*
    // thread's fault registry; save and restore the caller's plans so a
    // supervisor (or CLI) thread is not left armed after triage.
    let saved = fault::snapshot();
    let outcome = replay_seeded(repro, tech);
    fault::disarm_all();
    fault::seed_thread(&saved);
    outcome
}

fn replay_seeded(repro: &Repro, tech: &Technology) -> ReplayOutcome {
    let cfg = BatchConfig {
        budget_ms: repro.budget_ms,
        work_limit: repro.work_limit,
        retry: RetryPolicy {
            max_attempts: repro.max_attempts.max(1),
            ..RetryPolicy::no_retries()
        },
        ..BatchConfig::default()
    };
    let run = NetRun {
        net: &repro.net,
        idx: 0,
        tech,
        cfg: &cfg,
        opts: ExecOptions {
            entry_floor: repro.entry_floor,
            budget_ms: None,
        },
    };
    let mut attempts = Vec::new();
    for attempt in 0..cfg.retry.max_attempts {
        // Fresh hit counters per attempt: each supervisor retry ran on a
        // freshly seeded replacement worker in the watchdog case, and this
        // keeps replays independent of what earlier attempts consumed.
        fault::seed_thread(&repro.chaos);
        let start = Instant::now();
        let (out, _) = run.attempt(attempt);
        let elapsed = start.elapsed();
        attempts.push((out.report.served, elapsed.as_secs_f64()));
        let timed_out = repro
            .watchdog_ms
            .is_some_and(|ms| elapsed > Duration::from_millis(ms));
        if !timed_out && out.report.served <= repro.accept_tier {
            return ReplayOutcome {
                attempts,
                failed: false,
            };
        }
    }
    ReplayOutcome {
        attempts,
        failed: true,
    }
}

/// Greedy sink-removal minimizer: repeatedly drops sinks whose removal
/// keeps the failure reproducing (per [`replay`]), to a fixpoint. Returns
/// the repro unchanged when the failure does not reproduce at all (a
/// scheduling-dependent failure must be preserved verbatim, not shrunk
/// into noise). Nets are never shrunk below one sink.
pub fn minimize(repro: &Repro, tech: &Technology) -> Repro {
    if !replay(repro, tech).failed {
        return repro.clone();
    }
    let mut current = repro.clone();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.net.sinks.len() && current.net.sinks.len() > 1 {
            let mut candidate = current.clone();
            candidate.net.sinks.remove(i);
            if replay(&candidate, tech).failed {
                current = candidate;
                shrunk = true;
                // The sink now at position i is a new candidate; stay.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

fn artifact_file_name(idx: u64, net: &str) -> String {
    let safe: String = net
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let safe = if safe.is_empty() {
        "unnamed".to_owned()
    } else {
        safe
    };
    // The batch index keeps artifacts unique: sanitization maps distinct
    // names like `a/b` and `a b` to the same string, and nothing stops a
    // netlist from repeating a name outright.
    format!("{idx}-{safe}.repro")
}

/// Captures `repro` under `dir` as `<idx>-<net-name>.repro` (`idx` is the
/// net's batch index, keeping same-named nets from clobbering each
/// other), minimizing first when `do_minimize` is set. Returns the
/// written path.
///
/// # Errors
///
/// Any I/O failure creating the directory or writing the file.
pub fn capture(
    dir: &Path,
    idx: u64,
    repro: &Repro,
    tech: &Technology,
    do_minimize: bool,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let minimized;
    let repro = if do_minimize {
        minimized = minimize(repro, tech);
        &minimized
    } else {
        repro
    };
    let path = dir.join(artifact_file_name(idx, &repro.net.name));
    std::fs::write(&path, write_repro(repro))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_netlist::bench_nets::random_net;

    fn sample_repro() -> Repro {
        let tech = Technology::synthetic_035();
        Repro {
            cause: RecordStatus::FailedDegraded,
            accept_tier: ServingTier::PtreeVanGinneken,
            max_attempts: 2,
            budget_ms: Some(250),
            work_limit: Some(50_000),
            entry_floor: None,
            watchdog_ms: Some(1_000),
            chaos: FaultConfig::none(),
            net: random_net("repro-net", 5, 3, &tech),
        }
    }

    #[test]
    fn repro_round_trips() {
        let mut repro = sample_repro();
        repro.entry_floor = Some(ServingTier::PtreeVanGinneken);
        let text = write_repro(&repro);
        let parsed = parse_repro(&text).expect("artifact parses");
        assert_eq!(parsed.cause, repro.cause);
        assert_eq!(parsed.accept_tier, repro.accept_tier);
        assert_eq!(parsed.max_attempts, repro.max_attempts);
        assert_eq!(parsed.budget_ms, repro.budget_ms);
        assert_eq!(parsed.work_limit, repro.work_limit);
        assert_eq!(parsed.entry_floor, repro.entry_floor);
        assert_eq!(parsed.watchdog_ms, repro.watchdog_ms);
        assert_eq!(parsed.net.name, repro.net.name);
        assert_eq!(parsed.net.num_sinks(), repro.net.num_sinks());
    }

    #[test]
    fn optional_fields_can_be_absent() {
        let mut repro = sample_repro();
        repro.budget_ms = None;
        repro.work_limit = None;
        repro.watchdog_ms = None;
        let text = write_repro(&repro);
        assert!(!text.contains("entry-floor"), "no floor, no line: {text}");
        let parsed = parse_repro(&text).expect("parses");
        assert_eq!(parsed.budget_ms, None);
        assert_eq!(parsed.work_limit, None);
        assert_eq!(parsed.entry_floor, None);
        assert_eq!(parsed.watchdog_ms, None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_repro("").is_err());
        assert!(parse_repro("#merlin-repro v99\n").is_err());
        let missing_net = format!("{REPRO_HEADER}\ncause failed-degraded\n");
        assert!(parse_repro(&missing_net).is_err());
        let bad_cause = format!("{REPRO_HEADER}\ncause nope\n");
        assert!(parse_repro(&bad_cause).is_err());
        let bad_floor = format!("{REPRO_HEADER}\nentry-floor nope\n");
        assert!(parse_repro(&bad_floor).is_err());
        let unknown = format!("{REPRO_HEADER}\nwat 3\n");
        assert!(parse_repro(&unknown).is_err());
    }

    #[test]
    fn chaos_spec_parsing_is_strict() {
        let mut cfg = FaultConfig::none();
        assert!(arm_chaos_spec(&mut cfg, "site.only").is_err());
        assert!(arm_chaos_spec(&mut cfg, "s:badkind:1").is_err());
        assert!(arm_chaos_spec(&mut cfg, "s:panic:x").is_err());
        assert!(arm_chaos_spec(&mut cfg, "s:stall:1:abc").is_err());
        let armed = arm_chaos_spec(&mut cfg, "s:stall:2:15").expect("valid spec");
        assert_eq!(armed, cfg!(feature = "fault-inject"));
    }

    #[test]
    fn replay_of_a_healthy_net_does_not_fail() {
        let tech = Technology::synthetic_035();
        let mut repro = sample_repro();
        repro.accept_tier = ServingTier::DirectRoute;
        repro.budget_ms = None;
        repro.work_limit = None;
        repro.watchdog_ms = None;
        let outcome = replay(&repro, &tech);
        assert!(!outcome.failed);
        assert_eq!(outcome.attempts.len(), 1, "first attempt already serves");
    }

    #[test]
    fn minimizer_shrinks_a_deterministic_failure() {
        // accept_tier stronger than anything a zero-work budget can serve:
        // every attempt degrades to direct, so the failure reproduces for
        // any sink subset and the minimizer must reach a single sink.
        let tech = Technology::synthetic_035();
        let mut repro = sample_repro();
        repro.accept_tier = ServingTier::Merlin;
        repro.budget_ms = None;
        repro.watchdog_ms = None;
        repro.work_limit = Some(1);
        let min = minimize(&repro, &tech);
        assert_eq!(min.net.sinks.len(), 1, "fully minimizable failure");
        assert!(replay(&min, &tech).failed, "minimized repro still fails");
    }

    #[test]
    fn minimizer_keeps_unreproducible_failures_verbatim() {
        let tech = Technology::synthetic_035();
        let mut repro = sample_repro();
        // Everything is acceptable: the "failure" cannot reproduce.
        repro.accept_tier = ServingTier::DirectRoute;
        repro.budget_ms = None;
        repro.watchdog_ms = None;
        let min = minimize(&repro, &tech);
        assert_eq!(min.net.num_sinks(), repro.net.num_sinks());
    }

    #[test]
    fn capture_writes_a_parseable_artifact() {
        let tech = Technology::synthetic_035();
        let dir = std::env::temp_dir().join(format!("merlin-artifact-test-{}", std::process::id()));
        let repro = sample_repro();
        let path = capture(&dir, 7, &repro, &tech, false).expect("capture artifact");
        assert!(path.ends_with("7-repro-net.repro"));
        let text = std::fs::read_to_string(&path).expect("read artifact back");
        let parsed = parse_repro(&text).expect("captured artifact parses");
        assert_eq!(parsed.net.name, "repro-net");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_names_are_sanitized_and_index_disambiguated() {
        assert_eq!(artifact_file_name(0, "a b/c"), "0-a_b_c.repro");
        assert_eq!(artifact_file_name(3, ""), "3-unnamed.repro");
        assert_eq!(artifact_file_name(12, "ok-1.x"), "12-ok-1.x.repro");
        // Distinct nets whose names sanitize identically still get
        // distinct artifact files.
        assert_ne!(artifact_file_name(1, "a/b"), artifact_file_name(2, "a b"));
    }
}
