//! Composing a group from an inner group and leaf sinks.
//!
//! Given an outer window Ω and an inner window ω ⊆ Ω, this module performs
//! the compatibility check of Figure 9 line 15 (`g − G ≠ ∅ → skip`) and
//! produces the ordered child sequence the `*PTREE` call (line 18) routes:
//! the sinks of `G − g` plus one group terminal for ω, with ω's bubbled-out
//! hole sinks emitted adjacent to the matching border (Figure 5's
//! *Bubble Out* and Figure 7's cross-structure composition).

use merlin_order::SinkOrder;

use crate::chi::Window;

/// A `*PTREE` terminal: either a concrete sink or an already-constructed
/// inner group, identified by its `(covered, shape index, right)` key into
/// the Γ tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Child {
    /// A sink, by original net index.
    Sink(u32),
    /// An inner group: key into the Γ tables.
    Group {
        /// Covered sink count `l`.
        l: u16,
        /// Shape index `e`.
        e: u8,
        /// Rightmost window position `r`.
        r: u16,
    },
}

impl Child {
    /// The Γ key of a group child.
    pub fn group_key(window: Window) -> Child {
        let (l, e, r) = window.gamma_key();
        Child::Group { l, e, r }
    }
}

/// Builds the ordered child sequence for composing `outer` from `inner`
/// plus leaves, or `None` if the windows are incompatible.
///
/// Incompatible means: ω's window is not inside Ω's, or some sink covered
/// by ω is a hole of Ω (`g − G ≠ ∅`, the illegal case of Figure 12).
pub fn child_sequence(outer: Window, inner: Window, order: &SinkOrder) -> Option<Vec<Child>> {
    child_sequence_multi(outer, &[inner], order)
}

/// Generalization of [`child_sequence`] to several inner groups — the
/// §3.2.1 **relaxation** of Cα-trees ("each internal node may have more
/// than one internal node, but bounded, among its immediate children").
///
/// `inners` must be sorted by window start; `None` when any window
/// overlaps another, escapes `outer`, or covers one of `outer`'s holes.
pub fn child_sequence_multi(
    outer: Window,
    inners: &[Window],
    order: &SinkOrder,
) -> Option<Vec<Child>> {
    for w in inners.windows(2) {
        if w[1].start() <= w[0].right {
            return None;
        }
    }
    for inner in inners {
        if !outer.contains_window(*inner) {
            return None;
        }
        // g ⊆ G: every position ω covers must be covered by Ω.
        for pos in inner.start()..=inner.right {
            if inner.covers(pos) && !outer.covers(pos) {
                return None;
            }
        }
    }
    let mut children = Vec::with_capacity(outer.covered + inners.len());
    let mut pos = outer.start();
    let mut next = 0;
    while pos <= outer.right {
        if next < inners.len() && pos == inners[next].start() {
            let inner = inners[next];
            // Bubbled-out left hole goes immediately before the group...
            if let Some(h) = inner.left_hole() {
                if outer.covers(h) {
                    children.push(Child::Sink(order.sink_at(h)));
                }
            }
            children.push(Child::group_key(inner));
            // ...and the right hole immediately after.
            if let Some(h) = inner.right_hole() {
                if outer.covers(h) {
                    children.push(Child::Sink(order.sink_at(h)));
                }
            }
            pos = inner.right + 1;
            next += 1;
            continue;
        }
        if outer.covers(pos) {
            children.push(Child::Sink(order.sink_at(pos)));
        }
        pos += 1;
    }
    Some(children)
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test indices are small")]
mod tests {
    use super::*;
    use crate::chi::Shape;

    fn order(n: usize) -> SinkOrder {
        SinkOrder::identity(n)
    }

    fn sinks(children: &[Child]) -> Vec<i64> {
        children
            .iter()
            .map(|c| match c {
                Child::Sink(s) => *s as i64,
                Child::Group { .. } => -1,
            })
            .collect()
    }

    #[test]
    fn figure_5_bubble_out() {
        // Initial order (s2..s7) = positions 0..=5 of a 6-sink order.
        // ω = χ1 window over positions [0..=4] covering {0,1,2,4} (hole 3);
        // Ω = χ0 over all six.
        let n = 6;
        let outer = Window::place(5, 6, Shape::Chi0, n).expect("window fits inside the sink range");
        let inner = Window::place(4, 4, Shape::Chi1, n).expect("window fits inside the sink range");
        let ch = child_sequence(outer, inner, &order(n))
            .expect("inner window nests inside the outer window");
        // (ω, s3 bubbled after it, s5): resulting order (0,1,2,4,3,5) —
        // exactly the paper's (s2,s3,s4,s6,s5,s7).
        assert_eq!(sinks(&ch), vec![-1, 3, 5]);
    }

    #[test]
    fn figure_7_chi3_inside_chi1() {
        // Ω = χ1 covering 7 sinks in window [0..=7] (hole at 6);
        // ω = χ3 covering 4 sinks in window [0..=5] (holes 1 and 4).
        let n = 8;
        let outer = Window::place(7, 7, Shape::Chi1, n).expect("window fits inside the sink range");
        assert_eq!(outer.right_hole(), Some(6));
        let inner = Window::place(5, 4, Shape::Chi3, n).expect("window fits inside the sink range");
        assert_eq!((inner.left_hole(), inner.right_hole()), (Some(1), Some(4)));
        let ch = child_sequence(outer, inner, &order(n))
            .expect("inner window nests inside the outer window");
        // Sequence: s1 (left hole, before ω), ω {0,2,3,5}, s4 (right hole,
        // after ω), then s7 (position 6 is Ω's hole, bubbled further out).
        assert_eq!(sinks(&ch), vec![1, -1, 4, 7]);
        // Resulting order (1,0,2,3,5,4,7,...): the paper's Example 4
        // pattern (s3,s2,s4,s5,s7,s6,s9) with 0-based indices.
    }

    #[test]
    fn incompatible_when_inner_covers_outer_hole() {
        // Ω = χ1 over window [0..=5] covering {0,1,2,3,5} (hole 4);
        // ω = χ0 over [3..=4] covers position 4 -> illegal (Figure 12).
        let n = 6;
        let outer = Window::place(5, 5, Shape::Chi1, n).expect("window fits inside the sink range");
        let inner = Window::place(4, 2, Shape::Chi0, n).expect("window fits inside the sink range");
        assert!(child_sequence(outer, inner, &order(n)).is_none());
    }

    #[test]
    fn inner_must_fit_inside_outer() {
        let n = 10;
        let outer = Window::place(5, 4, Shape::Chi0, n).expect("window fits inside the sink range");
        let inner = Window::place(7, 2, Shape::Chi0, n).expect("window fits inside the sink range");
        assert!(child_sequence(outer, inner, &order(n)).is_none());
    }

    #[test]
    fn coincident_holes_are_compatible() {
        // Ω = χ1 over [0..=5] (hole 4); ω = χ1 over [1..=5] (hole 4 too):
        // the hole sink bubbles past both borders, adopted by Ω's parent.
        let n = 6;
        let outer = Window::place(5, 5, Shape::Chi1, n).expect("window fits inside the sink range");
        let inner = Window::place(5, 4, Shape::Chi1, n).expect("window fits inside the sink range");
        let ch = child_sequence(outer, inner, &order(n))
            .expect("inner window nests inside the outer window");
        // Leaf 0 then the group; hole sink 4 is NOT emitted here.
        assert_eq!(sinks(&ch), vec![0, -1]);
    }

    #[test]
    fn child_count_matches_alpha_accounting() {
        // |children| = (outer.covered - inner.covered) + 1 when holes line
        // up with coverage.
        let n = 12;
        let outer = Window::place(9, 8, Shape::Chi0, n).expect("window fits inside the sink range");
        for (cov, shape) in [(3, Shape::Chi0), (3, Shape::Chi1), (2, Shape::Chi3)] {
            for right in 2..=9 {
                if let Some(inner) = Window::place(right, cov, shape, n) {
                    if !outer.contains_window(inner) {
                        continue;
                    }
                    if let Some(ch) = child_sequence(outer, inner, &order(n)) {
                        assert_eq!(
                            ch.len(),
                            outer.covered - inner.covered + 1,
                            "cov {cov} shape {shape:?} right {right}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multi_inner_disjoint_groups() {
        // Two χ0 groups inside a χ0 outer: [g(0..=1), s2, g(3..=4), s5].
        let n = 6;
        let outer = Window::place(5, 6, Shape::Chi0, n).expect("window fits inside the sink range");
        let g1 = Window::place(1, 2, Shape::Chi0, n).expect("window fits inside the sink range");
        let g2 = Window::place(4, 2, Shape::Chi0, n).expect("window fits inside the sink range");
        let ch = child_sequence_multi(outer, &[g1, g2], &order(n))
            .expect("gap windows nest inside the outer window");
        assert_eq!(sinks(&ch), vec![-1, 2, -1, 5]);
    }

    #[test]
    fn multi_inner_overlap_rejected() {
        let n = 6;
        let outer = Window::place(5, 6, Shape::Chi0, n).expect("window fits inside the sink range");
        let g1 = Window::place(2, 3, Shape::Chi0, n).expect("window fits inside the sink range");
        let g2 = Window::place(4, 3, Shape::Chi0, n).expect("window fits inside the sink range"); // overlaps g1
        assert!(child_sequence_multi(outer, &[g1, g2], &order(n)).is_none());
    }

    #[test]
    fn multi_inner_with_bubbles() {
        // g1 = χ1 over [0..=2] (hole 1), g2 = χ0 over [4..=5]:
        // sequence g1, s1(bubbled), s3, g2.
        let n = 6;
        let outer = Window::place(5, 6, Shape::Chi0, n).expect("window fits inside the sink range");
        let g1 = Window::place(2, 2, Shape::Chi1, n).expect("window fits inside the sink range");
        let g2 = Window::place(5, 2, Shape::Chi0, n).expect("window fits inside the sink range");
        let ch = child_sequence_multi(outer, &[g1, g2], &order(n))
            .expect("gap windows nest inside the outer window");
        assert_eq!(sinks(&ch), vec![-1, 1, 3, -1]);
    }

    #[test]
    fn all_covered_sinks_appear_exactly_once() {
        let n = 10;
        let outer = Window::place(8, 7, Shape::Chi1, n).expect("window fits inside the sink range");
        let inner = Window::place(6, 3, Shape::Chi2, n).expect("window fits inside the sink range");
        if let Some(ch) = child_sequence(outer, inner, &order(n)) {
            let mut leaf_sinks: Vec<u32> = ch
                .iter()
                .filter_map(|c| match c {
                    Child::Sink(s) => Some(*s),
                    _ => None,
                })
                .collect();
            let inner_covered: Vec<u32> = inner
                .covered_positions()
                .iter()
                .map(|&p| p as u32)
                .collect();
            leaf_sinks.extend(inner_covered);
            leaf_sinks.sort_unstable();
            let expected: Vec<u32> = outer
                .covered_positions()
                .iter()
                .map(|&p| p as u32)
                .collect();
            assert_eq!(leaf_sinks, expected);
        }
    }
}
