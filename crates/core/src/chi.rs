//! Grouping structures χ0..χ3 and sink windows (Figures 6, 10, 13).
//!
//! A *window* is a run of `l'` consecutive positions of the sink order; a
//! grouping structure decides which positions near the bubbled edge(s) are
//! *holes* — sinks the group does **not** cover and which "bubble out" to
//! be adopted by the enclosing group just outside the corresponding border.
//! This is exactly how the construction perturbs the order while keeping
//! every sink within ±1 of its original position (Definition 4):
//!
//! * χ0 — no bubble: covers all `l'` positions (`L = l'`),
//! * χ1 — bubble on the right: hole at the second position from the right;
//!   the hole's sink is emitted immediately **after** the group (it swaps
//!   with the group's last sink),
//! * χ2 — bubble on the left: hole at the second position from the left;
//!   emitted immediately **before** the group,
//! * χ3 — bubbles on both sides.

/// One of the four abstract grouping structures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// No bubble.
    Chi0,
    /// Bubble on the right side.
    Chi1,
    /// Bubble on the left side.
    Chi2,
    /// Bubbles on both sides.
    Chi3,
}

/// All four shapes, χ0 first.
pub const ALL_SHAPES: [Shape; 4] = [Shape::Chi0, Shape::Chi1, Shape::Chi2, Shape::Chi3];

impl Shape {
    /// The paper's `STRETCH` (Figure 10): window length minus covered
    /// count.
    pub fn stretch(self) -> usize {
        match self {
            Shape::Chi0 => 0,
            Shape::Chi1 | Shape::Chi2 => 1,
            Shape::Chi3 => 2,
        }
    }

    /// Encoding 0..=3 (the paper's `e` / `E` variables).
    pub fn index(self) -> u8 {
        match self {
            Shape::Chi0 => 0,
            Shape::Chi1 => 1,
            Shape::Chi2 => 2,
            Shape::Chi3 => 3,
        }
    }

    /// Shape from its 0..=3 encoding.
    ///
    /// # Panics
    ///
    /// Panics for values above 3.
    pub fn from_index(e: u8) -> Shape {
        ALL_SHAPES[e as usize]
    }

    /// Whether the shape has a hole near its left border.
    pub fn left_bubble(self) -> bool {
        matches!(self, Shape::Chi2 | Shape::Chi3)
    }

    /// Whether the shape has a hole near its right border.
    pub fn right_bubble(self) -> bool {
        matches!(self, Shape::Chi1 | Shape::Chi3)
    }

    /// Whether the shape can represent a group of `covered` sinks.
    ///
    /// χ1/χ2 need a window of ≥ 2 (so `covered ≥ 1`); χ3 needs its two
    /// holes distinct, i.e. a window of ≥ 4 (`covered ≥ 2`).
    pub fn valid_for(self, covered: usize) -> bool {
        match self {
            Shape::Chi0 => covered >= 1,
            Shape::Chi1 | Shape::Chi2 => covered >= 1,
            Shape::Chi3 => covered >= 2,
        }
    }
}

/// A concrete placed window: `l'` consecutive positions ending at `right`,
/// interpreted through a [`Shape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Window {
    /// Rightmost covered-window position (0-based, the paper's `R`/`r`).
    pub right: usize,
    /// Number of sinks the group covers (the paper's `L`/`l`).
    pub covered: usize,
    /// Grouping structure.
    pub shape: Shape,
}

impl Window {
    /// Places a window of `covered` sinks with the given shape so that its
    /// window ends at position `right`; `None` if it does not fit in
    /// `0..n` or the shape cannot represent that size.
    pub fn place(right: usize, covered: usize, shape: Shape, n: usize) -> Option<Window> {
        if !shape.valid_for(covered) {
            return None;
        }
        let lp = covered + shape.stretch();
        if right >= n || right + 1 < lp {
            return None;
        }
        Some(Window {
            right,
            covered,
            shape,
        })
    }

    /// The window's key in the Γ tables: `(covered, shape index, right)`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Γ keys are u16; nets have < 2^16 sinks"
    )]
    pub(crate) fn gamma_key(self) -> (u16, u8, u16) {
        (self.covered as u16, self.shape.index(), self.right as u16)
    }

    /// Window length `l'` (covered + stretch).
    pub fn len(self) -> usize {
        self.covered + self.shape.stretch()
    }

    /// True when the window covers no sinks and has no stretch.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Leftmost window position.
    pub fn start(self) -> usize {
        self.right + 1 - self.len()
    }

    /// The left-bubble hole position, if the shape has one.
    pub fn left_hole(self) -> Option<usize> {
        self.shape.left_bubble().then(|| self.start() + 1)
    }

    /// The right-bubble hole position, if the shape has one.
    pub fn right_hole(self) -> Option<usize> {
        self.shape.right_bubble().then(|| self.right - 1)
    }

    /// Whether the window covers position `pos` (inside the window and not
    /// a hole) — the paper's `SINK_SET` membership (Figure 13).
    pub fn covers(self, pos: usize) -> bool {
        if pos < self.start() || pos > self.right {
            return false;
        }
        Some(pos) != self.left_hole() && Some(pos) != self.right_hole()
    }

    /// The covered positions in ascending order.
    pub fn covered_positions(self) -> Vec<usize> {
        (self.start()..=self.right)
            .filter(|&p| self.covers(p))
            .collect()
    }

    /// Whether `inner`'s window lies within this window.
    pub fn contains_window(self, inner: Window) -> bool {
        inner.start() >= self.start() && inner.right <= self.right
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_matches_figure_10() {
        assert_eq!(Shape::Chi0.stretch(), 0);
        assert_eq!(Shape::Chi1.stretch(), 1);
        assert_eq!(Shape::Chi2.stretch(), 1);
        assert_eq!(Shape::Chi3.stretch(), 2);
    }

    #[test]
    fn sink_set_cases_match_figure_13() {
        // Window of length 6 ending at position 9 (0-based).
        let n = 20;
        let w0 = Window::place(9, 6, Shape::Chi0, n).expect("window fits inside the sink range");
        assert_eq!(w0.covered_positions(), vec![4, 5, 6, 7, 8, 9]);

        let w1 = Window::place(9, 5, Shape::Chi1, n).expect("window fits inside the sink range");
        assert_eq!(w1.len(), 6);
        // case 1: skip s_{R-1}.
        assert_eq!(w1.covered_positions(), vec![4, 5, 6, 7, 9]);

        let w2 = Window::place(9, 5, Shape::Chi2, n).expect("window fits inside the sink range");
        // case 2: skip s_{start+1}.
        assert_eq!(w2.covered_positions(), vec![4, 6, 7, 8, 9]);

        let w3 = Window::place(9, 4, Shape::Chi3, n).expect("window fits inside the sink range");
        assert_eq!(w3.len(), 6);
        // case 3: skip both.
        assert_eq!(w3.covered_positions(), vec![4, 6, 7, 9]);
    }

    #[test]
    fn covered_count_is_consistent() {
        let n = 30;
        for shape in ALL_SHAPES {
            for covered in 1..=6 {
                for right in 0..n {
                    if let Some(w) = Window::place(right, covered, shape, n) {
                        assert_eq!(
                            w.covered_positions().len(),
                            covered,
                            "{shape:?} covered {covered} right {right}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chi3_needs_two_covered() {
        assert!(Window::place(10, 1, Shape::Chi3, 20).is_none());
        assert!(Window::place(10, 2, Shape::Chi3, 20).is_some());
    }

    #[test]
    fn tiny_windows() {
        // χ1 with one covered sink: window [R-1, R], hole at R-1.
        let w = Window::place(5, 1, Shape::Chi1, 10).expect("window fits inside the sink range");
        assert_eq!(w.start(), 4);
        assert_eq!(w.covered_positions(), vec![5]);
        assert_eq!(w.right_hole(), Some(4));
        // χ2 with one covered sink: hole at start+1 = R.
        let w = Window::place(5, 1, Shape::Chi2, 10).expect("window fits inside the sink range");
        assert_eq!(w.covered_positions(), vec![4]);
        assert_eq!(w.left_hole(), Some(5));
    }

    #[test]
    fn placement_bounds() {
        assert!(Window::place(0, 1, Shape::Chi0, 5).is_some());
        assert!(Window::place(0, 1, Shape::Chi1, 5).is_none()); // window would start at -1
        assert!(Window::place(4, 5, Shape::Chi0, 5).is_some());
        assert!(Window::place(5, 1, Shape::Chi0, 5).is_none()); // right out of range
    }
}
