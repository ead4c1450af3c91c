//! Retry policy for batch solve supervision: bounded attempts,
//! exponential backoff, and deterministic parameter perturbation.
//!
//! Replaying a net that panicked or stalled into the exact same solve is
//! the classic retry anti-pattern — a deterministic failure reproduces
//! deterministically. [`RetryPolicy::params`] therefore *perturbs* each
//! retry along three axes, all derived from the attempt ordinal alone (so
//! a resumed batch re-derives identical attempt parameters):
//!
//! * **budget** — each retry gets a shrunken share of the per-net budget
//!   ([`AttemptParams::budget_scale`]), because a net that blew its first
//!   slice rarely deserves a bigger second one,
//! * **ladder entry tier** — a net that failed at flow III re-enters the
//!   degradation ladder at a *lower* rung ([`AttemptParams::entry`]):
//!   first retry starts at the single-pass tier, later ones at the
//!   decoupled baselines, so the failing code path is skipped rather than
//!   replayed,
//! * **search thinning** — retries request cheaper candidate sets and
//!   thinner solution curves ([`AttemptParams::thin_search`]); the policy
//!   half (what "thinner" means for a concrete `FlowsConfig`) lives in
//!   `merlin-flows`.
//!
//! The backoff between attempts is plain capped exponential growth — it
//! exists to space out transient resource pressure (the batch supervisor's
//! worker pool hammering one hot allocator path), not to wait out external
//! services, so the defaults are short.

use std::time::Duration;

use crate::report::ServingTier;

/// Deterministic perturbed parameters for one solve attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttemptParams {
    /// 0-based attempt ordinal this parameter set belongs to.
    pub attempt: u32,
    /// Fraction of the per-net budget this attempt may spend (1.0 for the
    /// first attempt, halved per retry, floored at 1/8).
    pub budget_scale: f64,
    /// The strongest degradation-ladder tier the attempt may enter at.
    pub entry: ServingTier,
    /// Whether the attempt should run with a thinned search (cheaper
    /// candidate-location strategy, thinner curves).
    pub thin_search: bool,
}

/// Bounded-retry policy with exponential backoff. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per net, first try included (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied per further retry.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            backoff_factor: 2.0,
            max_backoff: Duration::from_millis(400),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            backoff_factor: 1.0,
            max_backoff: Duration::ZERO,
        }
    }

    /// Whether `attempt` (0-based) was the last allowed one.
    pub fn is_final(&self, attempt: u32) -> bool {
        attempt + 1 >= self.max_attempts.max(1)
    }

    /// Backoff to sleep before dispatching `attempt` (0-based; attempt 0
    /// never waits). Grows as `base * factor^(attempt-1)`, capped at
    /// [`RetryPolicy::max_backoff`].
    ///
    /// Never panics for any `attempt`: the growth factor is clamped
    /// *before* the `Duration` multiply. The naive
    /// `base.mul_f64(factor.powi(attempt - 1))` overflows `Duration`
    /// (a panic) around attempt 64 at the 25 ms default, and `powi`'s
    /// `i32` exponent would itself wrap for huge attempts — with the
    /// uncapped CLI `--max-retries` either one took down the whole
    /// supervisor event loop on a persistently failing net.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let cap = self.max_backoff.max(self.base_backoff);
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        // Once factor >= cap/base the multiply can only land on the cap,
        // so return it without touching `Duration` arithmetic. Growing
        // 2^1024 dwarfs any representable cap/base ratio, so clamping the
        // exponent cannot change which side of the ratio we land on.
        let exp = (attempt - 1).min(1024) as i32;
        let factor = self.backoff_factor.max(1.0).powi(exp);
        let ratio = cap.as_secs_f64() / self.base_backoff.as_secs_f64();
        if !factor.is_finite() || factor >= ratio {
            return cap;
        }
        self.base_backoff.mul_f64(factor).min(cap)
    }

    /// The perturbed parameters for `attempt` (0-based). Attempt 0 is the
    /// pristine solve; each retry halves the budget share (floored at
    /// 1/8), drops the ladder entry one tier, and thins the search.
    pub fn params(&self, attempt: u32) -> AttemptParams {
        let entry = match attempt {
            0 => ServingTier::Merlin,
            1 => ServingTier::SinglePass,
            2 => ServingTier::PtreeVanGinneken,
            _ => ServingTier::LttreePtree,
        };
        AttemptParams {
            attempt,
            budget_scale: (0.5f64.powi(attempt.min(3) as i32)).max(0.125),
            entry,
            thin_search: attempt > 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_zero_is_pristine() {
        let p = RetryPolicy::default().params(0);
        assert_eq!(p.entry, ServingTier::Merlin);
        assert_eq!(p.budget_scale, 1.0);
        assert!(!p.thin_search);
        assert_eq!(RetryPolicy::default().backoff(0), Duration::ZERO);
    }

    #[test]
    fn retries_degrade_monotonically() {
        let policy = RetryPolicy::default();
        let mut prev = policy.params(0);
        for attempt in 1..6 {
            let p = policy.params(attempt);
            assert!(p.entry >= prev.entry, "entry tier must never strengthen");
            assert!(p.budget_scale <= prev.budget_scale);
            assert!(p.thin_search);
            prev = p;
        }
        assert_eq!(policy.params(5).entry, ServingTier::LttreePtree);
        assert!(policy.params(9).budget_scale >= 0.125);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            backoff_factor: 2.0,
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(35), "capped");
        assert_eq!(policy.backoff(8), Duration::from_millis(35));
    }

    #[test]
    fn backoff_never_overflows_duration() {
        // Regression: attempt 64 at the 25 ms default used to overflow
        // `Duration::mul_f64` and panic the supervisor event loop.
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(64), policy.max_backoff);
        assert_eq!(policy.backoff(200), policy.max_backoff);
        for attempt in [63, 64, 65, 1000, 100_000, u32::MAX - 1, u32::MAX] {
            assert!(policy.backoff(attempt) <= policy.max_backoff);
        }
        // A pathological factor must clamp, not produce inf * base.
        let wild = RetryPolicy {
            backoff_factor: f64::INFINITY,
            ..RetryPolicy::default()
        };
        assert_eq!(wild.backoff(2), wild.max_backoff);
        // Zero base (no_retries) stays zero for any attempt.
        assert_eq!(RetryPolicy::no_retries().backoff(u32::MAX), Duration::ZERO);
    }

    #[test]
    fn params_are_deterministic() {
        let policy = RetryPolicy::default();
        for attempt in 0..5 {
            assert_eq!(policy.params(attempt), policy.params(attempt));
        }
    }

    #[test]
    fn final_attempt_detection() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(!policy.is_final(0));
        assert!(!policy.is_final(1));
        assert!(policy.is_final(2));
        assert!(RetryPolicy::no_retries().is_final(0));
    }
}
