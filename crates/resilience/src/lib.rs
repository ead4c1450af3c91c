//! Resilient solving infrastructure for the MERLIN reproduction.
//!
//! The paper's MERLIN loop terminates at an order-space fixpoint but gives
//! no bound on per-net wall-clock or DP memory, and a production batch run
//! cannot afford one degenerate net taking down the whole sweep. This
//! crate supplies the *mechanism* half of the answer:
//!
//! * [`budget::SolveBudget`] — a cooperative wall-clock + DP-work budget
//!   the engines check inside their hot loops,
//! * [`error::SolverError`] — the typed failure vocabulary
//!   (`BudgetExceeded`, `InvalidNet`, `Panicked`, `EmptyCurve`,
//!   `AuditFailed`) every fallible solver entry point returns,
//! * [`isolate::isolate`] — the workspace's single sanctioned
//!   `catch_unwind` boundary (the root `clippy.toml` disallows the call
//!   everywhere else),
//! * [`ladder::run_ladder`] — the generic graceful-degradation engine that
//!   tries weighted tiers under budget slices and always returns a value,
//! * [`report::DegradationReport`] — which tier served, why earlier tiers
//!   failed, and the time spent per tier,
//! * [`retry::RetryPolicy`] — bounded attempts, exponential backoff and
//!   deterministic parameter perturbation for batch supervision,
//! * [`journal`] — the versioned line codec for the batch supervisor's
//!   checkpoint/resume write-ahead journal.
//!
//! The *policy* half — the concrete flow-III → single-pass → flow-II →
//! flow-I → direct-route ladder — lives in `merlin_flows::resilient`,
//! which composes these pieces. The deterministic fault-injection registry
//! used by the chaos tests lives at the bottom of the dependency graph in
//! [`merlin_curves::fault`] and is re-exported here as [`fault`]; it only
//! arms when the `fault-inject` feature is on.
//!
//! See `docs/RESILIENCE.md` for the full model and the chaos-test matrix.

pub mod budget;
pub mod error;
pub mod isolate;
pub mod journal;
pub mod ladder;
pub mod report;
pub mod retry;

pub use budget::{BudgetExceeded, BudgetKind, SolveBudget};
pub use error::SolverError;
pub use isolate::isolate;
pub use journal::{JournalRecord, RecordStatus, JOURNAL_HEADER};
pub use ladder::{run_ladder, Tier};
pub use merlin_curves::fault;
pub use report::{DegradationReport, ServingTier, TierAttempt};
pub use retry::{AttemptParams, RetryPolicy};
