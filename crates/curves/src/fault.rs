//! Deterministic fault injection for chaos testing (feature
//! `fault-inject`, off by default).
//!
//! The DP stack is sprinkled with *named injection sites* — cheap
//! [`trip`] calls that compile to an inlined `false` unless the feature is
//! on. Chaos tests arm a site with a [`FaultKind`] and a hit ordinal, then
//! drive the resilient solver and assert it degrades instead of dying:
//!
//! * [`FaultKind::Panic`] — the site panics once, on its Nth hit,
//! * [`FaultKind::Stall`] — the site sleeps once, on its Nth hit, burning
//!   wall-clock budget so deadline handling can be exercised
//!   deterministically,
//! * [`FaultKind::EmptyCurve`] — the site reports "produce an empty
//!   result" on every hit from the Nth onward (persistent, so a poisoned
//!   DP cannot heal itself through untouched sub-problems).
//!
//! The registry is thread-local: parallel test threads cannot interfere
//! with each other, and no synchronization taxes the hot path. Sites live
//! wherever the failure is interesting — `curves.prune` here, group /
//! final assembly sites in `merlin` (core), and the flow entry points in
//! `merlin-flows`. The canonical site list is documented in
//! `docs/RESILIENCE.md`.

use std::time::Duration;

/// What an armed injection site does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a recognizable message (tests panic isolation).
    Panic,
    /// Sleep for the armed duration (tests deadline budgets).
    Stall,
    /// Ask the site to produce an empty result (tests empty-curve
    /// handling); [`trip`] returns `true` and the site is expected to act
    /// on it.
    EmptyCurve,
}

impl FaultKind {
    /// Short stable label, used by the CLI `--chaos` syntax and the
    /// supervisor's `.repro` artifact format.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::EmptyCurve => "empty",
        }
    }

    /// Inverse of [`FaultKind::label`].
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "stall" => Some(FaultKind::Stall),
            "empty" => Some(FaultKind::EmptyCurve),
            _ => None,
        }
    }
}

/// A portable, clonable description of a set of armed fault plans.
///
/// The registry itself is thread-local, which means a worker thread
/// spawned by a batch supervisor starts with an *empty* registry no matter
/// what the spawning thread armed. A `FaultConfig` closes that gap: build
/// one (via [`snapshot`] of the current thread, or [`FaultConfig::arm`]),
/// hand it to the spawned thread, and call [`seed_thread`] there. With the
/// `fault-inject` feature off the struct is a zero-sized token and every
/// operation is a no-op.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultConfig {
    #[cfg(feature = "fault-inject")]
    specs: Vec<(String, FaultKind, u64, Duration)>,
}

impl FaultConfig {
    /// An empty config (arms nothing).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// Adds a plan: fire `kind` at `site` on its `nth` hit, sleeping
    /// `stall` for [`FaultKind::Stall`]. Returns `false` (and records
    /// nothing) when the `fault-inject` feature is compiled out, so
    /// callers can warn instead of silently dropping chaos requests.
    pub fn arm(&mut self, site: &str, kind: FaultKind, nth: u64, stall: Duration) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.specs.push((site.to_owned(), kind, nth.max(1), stall));
            true
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            let _ = (site, kind, nth, stall);
            false
        }
    }

    /// The armed plans as `(site, kind, nth, stall)` tuples (empty when
    /// the feature is off). Used to serialize chaos configs into repro
    /// artifacts.
    pub fn specs(&self) -> Vec<(String, FaultKind, u64, Duration)> {
        #[cfg(feature = "fault-inject")]
        {
            self.specs.clone()
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            Vec::new()
        }
    }

    /// Whether the config arms any site.
    pub fn is_empty(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.specs.is_empty()
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            true
        }
    }
}

#[cfg(feature = "fault-inject")]
mod registry {
    use super::FaultKind;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::time::Duration;

    #[derive(Clone, Debug)]
    struct Plan {
        kind: FaultKind,
        nth: u64,
        hits: u64,
        fired: bool,
        stall: Duration,
    }

    thread_local! {
        static REGISTRY: RefCell<HashMap<String, Plan>> = RefCell::new(HashMap::new());
    }

    /// Default sleep for [`FaultKind::Stall`] when armed via
    /// [`arm`](super::arm).
    pub const DEFAULT_STALL: Duration = Duration::from_millis(40);

    /// Arms `site` to fire `kind` on its `nth` hit (1-based; 0 is treated
    /// as 1) with the default stall duration. Re-arming a site replaces
    /// its previous plan and resets its hit counter.
    pub fn arm(site: &str, kind: FaultKind, nth: u64) {
        arm_with_stall(site, kind, nth, DEFAULT_STALL);
    }

    /// Like [`arm`], with an explicit stall duration for
    /// [`FaultKind::Stall`].
    pub fn arm_with_stall(site: &str, kind: FaultKind, nth: u64, stall: Duration) {
        REGISTRY.with(|r| {
            r.borrow_mut().insert(
                site.to_owned(),
                Plan {
                    kind,
                    nth: nth.max(1),
                    hits: 0,
                    fired: false,
                    stall,
                },
            );
        });
    }

    /// Disarms every site on this thread.
    pub fn disarm_all() {
        REGISTRY.with(|r| r.borrow_mut().clear());
    }

    /// Captures this thread's armed plans as a portable
    /// [`FaultConfig`](super::FaultConfig). Hit counters are *not*
    /// captured: seeding another thread gives each plan a fresh counter,
    /// the same state the plans had right after [`arm`].
    pub fn snapshot() -> super::FaultConfig {
        let mut cfg = super::FaultConfig::none();
        REGISTRY.with(|r| {
            for (site, plan) in r.borrow().iter() {
                cfg.arm(site, plan.kind, plan.nth, plan.stall);
            }
        });
        cfg
    }

    /// Arms every plan of `cfg` on the *current* thread (fresh hit
    /// counters). Call this first thing in a spawned worker thread so it
    /// inherits the chaos config of the thread that built `cfg`; without
    /// it the thread-local registry silently starts empty.
    pub fn seed_thread(cfg: &super::FaultConfig) {
        for (site, kind, nth, stall) in cfg.specs() {
            arm_with_stall(&site, kind, nth, stall);
        }
    }

    /// How often `site` has been hit since it was (re-)armed; 0 for sites
    /// that were never armed.
    pub fn hits(site: &str) -> u64 {
        REGISTRY.with(|r| r.borrow().get(site).map_or(0, |p| p.hits))
    }

    /// The armed-build implementation of [`trip`](super::trip).
    pub fn trip(site: &str) -> bool {
        let action = REGISTRY.with(|r| {
            let mut reg = r.borrow_mut();
            let plan = reg.get_mut(site)?;
            plan.hits += 1;
            match plan.kind {
                // Persistent from the Nth hit on: a poisoned DP must not
                // heal through sub-problems the fault never touched.
                FaultKind::EmptyCurve if plan.hits >= plan.nth => Some((plan.kind, plan.stall)),
                // One-shot on exactly the Nth hit.
                FaultKind::Panic | FaultKind::Stall if plan.hits == plan.nth && !plan.fired => {
                    plan.fired = true;
                    Some((plan.kind, plan.stall))
                }
                _ => None,
            }
        });
        match action {
            #[expect(clippy::panic, reason = "the site exists to inject this panic")]
            Some((FaultKind::Panic, _)) => panic!("injected fault at site `{site}`"),
            Some((FaultKind::Stall, stall)) => {
                std::thread::sleep(stall);
                false
            }
            Some((FaultKind::EmptyCurve, _)) => true,
            None => false,
        }
    }
}

#[cfg(feature = "fault-inject")]
pub use registry::{
    arm, arm_with_stall, disarm_all, hits, seed_thread, snapshot, trip, DEFAULT_STALL,
};

/// Fault-injection hook; returns whether the site must produce an empty
/// result. With the `fault-inject` feature off (the default) this is an
/// inlined constant `false` and the whole registry does not exist.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn trip(_site: &str) -> bool {
    false
}

/// No-op [`snapshot`](registry::snapshot) stand-in for unarmed builds.
#[cfg(not(feature = "fault-inject"))]
pub fn snapshot() -> FaultConfig {
    FaultConfig::none()
}

/// No-op [`seed_thread`](registry::seed_thread) stand-in for unarmed
/// builds.
#[cfg(not(feature = "fault-inject"))]
pub fn seed_thread(_cfg: &FaultConfig) {}

/// No-op [`disarm_all`](registry::disarm_all) stand-in for unarmed
/// builds.
#[cfg(not(feature = "fault-inject"))]
pub fn disarm_all() {}

#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in [FaultKind::Panic, FaultKind::Stall, FaultKind::EmptyCurve] {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn unarmed_builds_reject_arming() {
        let mut cfg = FaultConfig::none();
        assert!(!cfg.arm(
            "x",
            FaultKind::Panic,
            1,
            std::time::Duration::from_millis(1)
        ));
        assert!(cfg.is_empty());
        assert!(cfg.specs().is_empty());
        seed_thread(&cfg); // no-op, must not panic
        disarm_all();
        let _ = snapshot();
    }
}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire() {
        disarm_all();
        assert!(!trip("curves.test.unarmed"));
        assert_eq!(hits("curves.test.unarmed"), 0);
    }

    #[test]
    fn empty_curve_fires_from_nth_hit_onward() {
        disarm_all();
        arm("curves.test.empty", FaultKind::EmptyCurve, 3);
        assert!(!trip("curves.test.empty"));
        assert!(!trip("curves.test.empty"));
        assert!(trip("curves.test.empty"));
        assert!(trip("curves.test.empty"), "persistent after the nth hit");
        assert_eq!(hits("curves.test.empty"), 4);
        disarm_all();
    }

    #[test]
    fn panic_fires_once_on_the_nth_hit() {
        disarm_all();
        arm("curves.test.panic", FaultKind::Panic, 2);
        assert!(!trip("curves.test.panic"));
        #[expect(
            clippy::disallowed_methods,
            reason = "the test observes the injected panic"
        )]
        let caught = std::panic::catch_unwind(|| trip("curves.test.panic"));
        assert!(caught.is_err(), "second hit panics");
        disarm_all();
    }

    #[test]
    fn spawned_threads_inherit_via_seed_thread() {
        disarm_all();
        arm("curves.test.seed", FaultKind::EmptyCurve, 1);
        let cfg = snapshot();
        assert!(!cfg.is_empty());
        let handle = std::thread::spawn(move || {
            // A fresh thread starts with an empty registry: the armed site
            // does not fire until the config is seeded.
            let before = trip("curves.test.seed");
            seed_thread(&cfg);
            let after = trip("curves.test.seed");
            (before, after)
        });
        let (before, after) = handle.join().expect("seed thread test worker");
        assert!(!before, "unseeded thread must start with an empty registry");
        assert!(after, "seeded thread must inherit the armed plan");
        disarm_all();
    }

    #[test]
    fn fault_config_round_trips_specs() {
        let mut cfg = FaultConfig::none();
        assert!(cfg.is_empty());
        assert!(cfg.arm(
            "a.site",
            FaultKind::Stall,
            3,
            std::time::Duration::from_millis(7)
        ));
        let specs = cfg.specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].0, "a.site");
        assert_eq!(specs[0].1, FaultKind::Stall);
        assert_eq!(specs[0].2, 3);
        assert_eq!(specs[0].3, std::time::Duration::from_millis(7));
    }

    #[test]
    fn rearming_resets_the_counter() {
        disarm_all();
        arm("curves.test.rearm", FaultKind::EmptyCurve, 1);
        assert!(trip("curves.test.rearm"));
        arm("curves.test.rearm", FaultKind::EmptyCurve, 2);
        assert!(!trip("curves.test.rearm"), "counter was reset");
        assert!(trip("curves.test.rearm"));
        disarm_all();
    }
}
