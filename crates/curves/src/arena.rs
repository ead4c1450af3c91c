//! Provenance arena: back-pointers for solution extraction.

use std::fmt;

/// Handle to a construction step stored in a [`ProvArena`].
///
/// `ProvId` is deliberately opaque: each optimization engine defines its own
/// step type `S` and interprets the ids it stored. Ids are only meaningful
/// relative to the arena that issued them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProvId(u32);

impl ProvId {
    /// Creates a handle from a raw index (mostly useful in tests).
    pub const fn new(idx: u32) -> Self {
        ProvId(idx)
    }

    /// Creates a handle from a `usize` position: an engine's pending-step
    /// index or an offset into a [`ProvArena`].
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "pending-step lists stay far below 2^32, and ProvArena::push checks every arena id"
    )]
    pub fn from_index(idx: usize) -> Self {
        ProvId(idx as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A construction step whose referenced provenance handles can be
/// enumerated, enabling structural validation of a [`ProvArena`].
///
/// Engines implement this for their step enums so the arena can check the
/// two invariants every extraction relies on: every referenced handle is
/// in bounds, and handles only point *backwards* (the arena is append-only,
/// so a well-formed DP can never store a forward reference — that ordering
/// is also what makes the step graph acyclic).
pub trait ProvStep {
    /// Appends every [`ProvId`] this step references to `out`.
    fn push_children(&self, out: &mut Vec<ProvId>);
}

/// Structural defect found by [`ProvArena::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProvArenaError {
    /// A step references a handle outside the arena.
    OutOfBounds {
        /// Index of the referencing step.
        step: usize,
        /// The out-of-range handle.
        child: ProvId,
    },
    /// A step references itself or a later step, which would make the
    /// back-pointer graph cyclic (or at least non-topological).
    ForwardReference {
        /// Index of the referencing step.
        step: usize,
        /// The handle at or past `step`.
        child: ProvId,
    },
}

impl fmt::Display for ProvArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvArenaError::OutOfBounds { step, child } => {
                write!(f, "step #{step} references out-of-bounds handle {child}")
            }
            ProvArenaError::ForwardReference { step, child } => {
                write!(f, "step #{step} references non-earlier handle {child}")
            }
        }
    }
}

impl std::error::Error for ProvArenaError {}

/// Append-only arena of construction steps of type `S`.
///
/// Every point on a solution curve carries a [`ProvId`] into such an arena;
/// following the ids recursively rebuilds the buffered routing structure
/// that the point describes (the "pointers stored during the generation of
/// the solution curves" of the paper's Figure 9, lines 21–22).
///
/// # Examples
///
/// ```
/// use merlin_curves::ProvArena;
///
/// #[derive(Debug, PartialEq)]
/// enum Step { Leaf(u32), Join(merlin_curves::ProvId, merlin_curves::ProvId) }
///
/// let mut arena = ProvArena::new();
/// let a = arena.push(Step::Leaf(0));
/// let b = arena.push(Step::Leaf(1));
/// let j = arena.push(Step::Join(a, b));
/// assert_eq!(arena[j], Step::Join(a, b));
/// assert_eq!(arena.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProvArena<S> {
    steps: Vec<S>,
    base: u32,
}

impl<S> ProvArena<S> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ProvArena {
            steps: Vec::new(),
            base: 0,
        }
    }

    /// Creates an empty arena with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ProvArena {
            steps: Vec::with_capacity(cap),
            base: 0,
        }
    }

    /// Creates an empty *segment* arena whose handles start at `base`
    /// instead of 0.
    ///
    /// A parallel DP gives each worker a segment based at the global
    /// arena's current length: handles below `base` unambiguously refer to
    /// pre-existing global steps, handles at or above it to this worker's
    /// own steps — so the merge can rebase a segment into the global arena
    /// with one offset per segment (see [`ProvArena::into_steps`]).
    ///
    /// # Panics
    ///
    /// Panics if `base` exceeds `u32::MAX`.
    pub fn with_base(base: usize) -> Self {
        ProvArena {
            steps: Vec::new(),
            base: u32::try_from(base).expect("provenance arena overflow"),
        }
    }

    /// The handle offset of this arena (0 for ordinary arenas).
    pub fn base(&self) -> usize {
        self.base as usize
    }

    /// Consumes a segment arena, yielding its locally stored steps (the
    /// first returned step corresponds to handle [`ProvArena::base`]).
    pub fn into_steps(self) -> Vec<S> {
        self.steps
    }

    /// Stores a step and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if a handle past `u32::MAX` would be issued.
    pub fn push(&mut self, step: S) -> ProvId {
        let id = u32::try_from(self.base as usize + self.steps.len())
            .expect("provenance arena overflow");
        self.steps.push(step);
        ProvId(id)
    }

    /// Step by handle, if the handle came from this arena.
    pub fn get(&self, id: ProvId) -> Option<&S> {
        self.steps.get(id.index().checked_sub(self.base as usize)?)
    }

    /// Number of stored steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Bytes-ish occupancy proxy used by memory-scaling experiments.
    pub fn approx_size_of(&self) -> usize {
        self.steps.capacity() * std::mem::size_of::<S>()
    }
}

impl<S: ProvStep> ProvArena<S> {
    /// Checks that every step only references earlier, in-bounds steps.
    ///
    /// Because the arena is append-only, a well-formed DP run can only
    /// store handles to steps that already existed; `validate` confirms
    /// that property, which in turn guarantees the back-pointer graph is
    /// acyclic and every extraction walk terminates. Runs in O(total
    /// number of references).
    pub fn validate(&self) -> Result<(), ProvArenaError> {
        let base = self.base as usize;
        let mut children = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            children.clear();
            step.push_children(&mut children);
            for &child in &children {
                // Handles below `base` point at pre-existing global steps
                // (segment arenas only; `base` is 0 for ordinary arenas):
                // they are backward by construction and their bounds belong
                // to the global arena this segment will merge into.
                if child.index() >= base + self.steps.len() {
                    return Err(ProvArenaError::OutOfBounds { step: i, child });
                }
                if child.index() >= base + i {
                    return Err(ProvArenaError::ForwardReference { step: i, child });
                }
            }
        }
        Ok(())
    }

    /// Debug-build / `invariant-checks` assertion wrapper around
    /// [`validate`](Self::validate). Compiles to nothing in plain release
    /// builds.
    #[allow(unused_variables)]
    #[inline]
    pub fn debug_validate(&self, ctx: &str) {
        #[cfg(any(debug_assertions, feature = "invariant-checks"))]
        #[expect(clippy::panic, reason = "this is the invariant checker")]
        if let Err(e) = self.validate() {
            panic!("provenance arena invariant violated at {ctx}: {e}");
        }
    }
}

impl<S> std::ops::Index<ProvId> for ProvArena<S> {
    type Output = S;
    fn index(&self, id: ProvId) -> &S {
        &self.steps[id.index() - self.base as usize]
    }
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test indices are small")]
mod tests {
    use super::*;

    #[test]
    fn push_and_index_round_trip() {
        let mut a = ProvArena::new();
        let ids: Vec<_> = (0..10).map(|i| a.push(i * i)).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(a[*id], (i * i) as i32);
        }
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let a: ProvArena<u8> = ProvArena::new();
        assert!(a.get(ProvId::new(3)).is_none());
        assert!(a.is_empty());
    }

    enum TestStep {
        Leaf,
        Join(ProvId, ProvId),
    }

    impl ProvStep for TestStep {
        fn push_children(&self, out: &mut Vec<ProvId>) {
            if let TestStep::Join(l, r) = self {
                out.push(*l);
                out.push(*r);
            }
        }
    }

    #[test]
    fn validate_accepts_topological_arena() {
        let mut a = ProvArena::new();
        let l = a.push(TestStep::Leaf);
        let r = a.push(TestStep::Leaf);
        let j = a.push(TestStep::Join(l, r));
        a.push(TestStep::Join(j, l));
        assert_eq!(a.validate(), Ok(()));
        a.debug_validate("test");
    }

    #[test]
    fn segment_arena_issues_offset_handles() {
        let mut seg: ProvArena<TestStep> = ProvArena::with_base(10);
        assert_eq!(seg.base(), 10);
        let a = seg.push(TestStep::Leaf);
        assert_eq!(a, ProvId::new(10));
        // A global reference (below base) plus a local one: both legal.
        let j = seg.push(TestStep::Join(ProvId::new(3), a));
        assert_eq!(j, ProvId::new(11));
        assert_eq!(seg.len(), 2);
        assert!(matches!(seg.get(a), Some(TestStep::Leaf)));
        assert!(seg.get(ProvId::new(3)).is_none(), "below base is not ours");
        assert_eq!(seg.validate(), Ok(()));
        // Forward/self references are still caught relative to the base.
        let mut bad: ProvArena<TestStep> = ProvArena::with_base(10);
        bad.push(TestStep::Join(ProvId::new(10), ProvId::new(0)));
        assert_eq!(
            bad.validate(),
            Err(ProvArenaError::ForwardReference {
                step: 0,
                child: ProvId::new(10)
            })
        );
        let steps = seg.into_steps();
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let mut a = ProvArena::new();
        let l = a.push(TestStep::Leaf);
        a.push(TestStep::Join(l, ProvId::new(1))); // step 1 references itself
        assert_eq!(
            a.validate(),
            Err(ProvArenaError::ForwardReference {
                step: 1,
                child: ProvId::new(1)
            })
        );
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let mut a = ProvArena::new();
        let l = a.push(TestStep::Leaf);
        a.push(TestStep::Join(l, ProvId::new(99)));
        assert_eq!(
            a.validate(),
            Err(ProvArenaError::OutOfBounds {
                step: 1,
                child: ProvId::new(99)
            })
        );
    }
}
