//! Three-dimensional solution curves for the MERLIN reproduction.
//!
//! The paper's central data structure is the *three-dimensional solution
//! curve* (§3.2.3, Figure 8): the set of non-inferior
//! `(load, required time, total buffer area)` triples describing all
//! Pareto-optimal buffered routing structures for a sub-problem. The load
//! and required-time dimensions make the principle of dynamic programming
//! valid; the area dimension lets the user solve either problem variant
//! (minimum delay under an area budget, or minimum area under a delay
//! target).
//!
//! * [`CurvePoint`] — one non-inferior solution with a provenance handle,
//! * [`Curve`] — a pruned set of curve points with the merge / wire-extend /
//!   buffer operators every DP in the workspace is built from,
//! * [`ProvArena`] — a generic append-only arena for construction steps so
//!   the winning structure can be rebuilt by following back-pointers
//!   (lines 21–22 of the paper's Figure 9),
//! * [`CurveScratch`] — the buffers the operators reuse from call to call
//!   in a DP's inner loop.
//!
//! # Examples
//!
//! ```
//! use merlin_curves::{Curve, CurvePoint, ProvId};
//!
//! let mut c = Curve::new();
//! c.push(CurvePoint::new(100, 50.0, 10, ProvId::new(0)));
//! c.push(CurvePoint::new(120, 40.0, 10, ProvId::new(1))); // inferior: more load, less req
//! c.push(CurvePoint::new(80, 30.0, 5, ProvId::new(2)));   // non-inferior: cheaper
//! c.prune();
//! assert_eq!(c.len(), 2);
//! ```

pub mod analysis;
pub mod arena;
pub mod curve;
pub mod fault;
pub mod point;

pub use arena::{ProvArena, ProvArenaError, ProvId, ProvStep};
pub use curve::{Curve, CurveInvariantError, CurveScratch, PrunePolicy};
pub use fault::FaultKind;
pub use point::CurvePoint;
