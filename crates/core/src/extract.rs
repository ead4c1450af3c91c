//! Solution extraction (Figure 9, lines 21–23): following the pointers
//! stored during curve generation to rebuild the buffered routing tree.

use merlin_curves::{ProvArena, ProvId, ProvStep};
use merlin_geom::Point;
use merlin_tech::{BufferedTree, NodeId, NodeKind};

/// A construction step of a `BUBBLE_CONSTRUCT` / `*PTREE` solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Minimum-length route from candidate `from` to `sink`.
    Route {
        /// Net sink index.
        sink: u32,
        /// Candidate index of the route's root.
        from: u16,
    },
    /// Two structures rooted at the same candidate joined there.
    Merge {
        /// Earlier (left, in the effective sink order) child.
        left: ProvId,
        /// Later child.
        right: ProvId,
    },
    /// Wire from candidate `to` down to the child's root candidate.
    Extend {
        /// New root candidate index.
        to: u16,
        /// Extended structure.
        child: ProvId,
    },
    /// Buffer (full-library index) inserted at the child's root.
    Buffer {
        /// Buffer index into the **full** library.
        buf: u16,
        /// Driven structure.
        child: ProvId,
    },
}

impl ProvStep for Step {
    fn map_children(self, mut f: impl FnMut(ProvId) -> ProvId) -> Self {
        match self {
            route @ Step::Route { .. } => route,
            Step::Merge { left, right } => Step::Merge {
                left: f(left),
                right: f(right),
            },
            Step::Extend { to, child } => Step::Extend {
                to,
                child: f(child),
            },
            Step::Buffer { buf, child } => Step::Buffer {
                buf,
                child: f(child),
            },
        }
    }
}

/// Candidate index at which the structure described by `prov` is rooted.
pub fn root_point(arena: &ProvArena<Step>, prov: ProvId) -> u16 {
    let mut cur = prov;
    loop {
        match arena[cur] {
            Step::Route { from, .. } => return from,
            Step::Extend { to, .. } => return to,
            Step::Merge { left, .. } => cur = left,
            Step::Buffer { child, .. } => cur = child,
        }
    }
}

/// Rebuilds the [`BufferedTree`] of a final solution rooted at `source`.
pub fn extract_tree(
    arena: &ProvArena<Step>,
    prov: ProvId,
    source: Point,
    candidates: &[Point],
    sink_positions: &[Point],
) -> BufferedTree {
    arena.debug_validate("BUBBLE_CONSTRUCT extraction");
    let mut tree = BufferedTree::new(source);
    let rp = candidates[root_point(arena, prov) as usize];
    let root = if rp == source {
        tree.root()
    } else {
        tree.add_child(tree.root(), NodeKind::Steiner, rp)
    };
    fill(arena, prov, &mut tree, root, candidates, sink_positions);
    tree
}

/// Attaches the structure of `prov` under `node` (which sits at the
/// structure's root point).
fn fill(
    arena: &ProvArena<Step>,
    prov: ProvId,
    tree: &mut BufferedTree,
    node: NodeId,
    candidates: &[Point],
    sink_positions: &[Point],
) {
    match arena[prov] {
        Step::Route { sink, .. } => {
            tree.add_child(node, NodeKind::Sink(sink), sink_positions[sink as usize]);
        }
        Step::Merge { left, right } => {
            fill(arena, left, tree, node, candidates, sink_positions);
            fill(arena, right, tree, node, candidates, sink_positions);
        }
        Step::Extend { child, .. } => {
            let cp = candidates[root_point(arena, child) as usize];
            let cnode = tree.add_child(node, NodeKind::Steiner, cp);
            fill(arena, child, tree, cnode, candidates, sink_positions);
        }
        Step::Buffer { buf, child } => {
            let here = tree.node(node).at;
            let bnode = tree.add_child(node, NodeKind::Buffer(buf), here);
            fill(arena, child, tree, bnode, candidates, sink_positions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_step_wraps_subtree_at_same_point() {
        let mut arena = ProvArena::new();
        let route = arena.push(Step::Route { sink: 0, from: 0 });
        let buf = arena.push(Step::Buffer {
            buf: 2,
            child: route,
        });
        let cands = [Point::new(0, 0)];
        let sinks = [Point::new(100, 0)];
        let tree = extract_tree(&arena, buf, Point::new(0, 0), &cands, &sinks);
        // source -> buffer@source -> sink
        assert_eq!(tree.len(), 3);
        let kinds: Vec<_> = tree.iter().map(|(_, n)| n.kind).collect();
        assert!(kinds.contains(&NodeKind::Buffer(2)));
        assert_eq!(tree.wirelength(), 100);
        assert_eq!(tree.sink_order(), vec![0]);
    }

    #[test]
    fn merge_after_buffer_keeps_branches_separate() {
        // Merge( Buffer(route to sink0), route to sink1 ) at candidate 0:
        // sink0 behind a buffer, sink1 direct, both from the same point.
        let mut arena = ProvArena::new();
        let r0 = arena.push(Step::Route { sink: 0, from: 0 });
        let b0 = arena.push(Step::Buffer { buf: 1, child: r0 });
        let r1 = arena.push(Step::Route { sink: 1, from: 0 });
        let m = arena.push(Step::Merge {
            left: b0,
            right: r1,
        });
        let cands = [Point::new(0, 0)];
        let sinks = [Point::new(10, 0), Point::new(0, 10)];
        let tree = extract_tree(&arena, m, Point::new(0, 0), &cands, &sinks);
        assert_eq!(tree.sink_order(), vec![0, 1]);
        let buffers = tree
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Buffer(_)))
            .count();
        assert_eq!(buffers, 1);
    }

    #[test]
    fn extend_inserts_steiner_hop() {
        let mut arena = ProvArena::new();
        let r = arena.push(Step::Route { sink: 0, from: 1 });
        let e = arena.push(Step::Extend { to: 0, child: r });
        let cands = [Point::new(0, 0), Point::new(7, 0)];
        let sinks = [Point::new(7, 5)];
        let tree = extract_tree(&arena, e, Point::new(0, 0), &cands, &sinks);
        assert_eq!(tree.wirelength(), 12);
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn root_point_skips_buffers_and_merges() {
        let mut arena = ProvArena::new();
        let r = arena.push(Step::Route { sink: 0, from: 3 });
        let b = arena.push(Step::Buffer { buf: 0, child: r });
        let m = arena.push(Step::Merge { left: b, right: r });
        assert_eq!(root_point(&arena, m), 3);
    }
}
