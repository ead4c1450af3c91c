//! Rebuilding routing trees from PTREE provenance.

use merlin_curves::{ProvArena, ProvId, ProvStep};
use merlin_geom::Point;
use merlin_tech::{BufferedTree, NodeId, NodeKind};

use crate::dp::RouteStep;

impl ProvStep for RouteStep {
    fn map_children(self, mut f: impl FnMut(ProvId) -> ProvId) -> Self {
        match self {
            sink @ RouteStep::Sink { .. } => sink,
            RouteStep::Merge { left, right } => RouteStep::Merge {
                left: f(left),
                right: f(right),
            },
            RouteStep::Extend { to, child } => RouteStep::Extend {
                to,
                child: f(child),
            },
        }
    }
}

/// The candidate-point index at which a sub-solution is rooted.
fn root_point(arena: &ProvArena<RouteStep>, prov: ProvId) -> u16 {
    let mut cur = prov;
    loop {
        match arena[cur] {
            RouteStep::Sink { from, .. } => return from,
            RouteStep::Extend { to, .. } => return to,
            RouteStep::Merge { left, .. } => cur = left,
        }
    }
}

/// Rebuilds the [`BufferedTree`] described by `prov`.
///
/// The step's root point must equal `source` (PTREE final curves are rooted
/// at the net source); otherwise a connecting Steiner node is inserted.
pub fn extract_tree(
    arena: &ProvArena<RouteStep>,
    prov: ProvId,
    source: Point,
    candidates: &[Point],
    sink_positions: &[Point],
) -> BufferedTree {
    arena.debug_validate("PTREE extraction");
    let mut tree = BufferedTree::new(source);
    let rp = root_point(arena, prov);
    let root = if candidates[rp as usize] == source {
        tree.root()
    } else {
        tree.add_child(tree.root(), NodeKind::Steiner, candidates[rp as usize])
    };
    fill(arena, prov, &mut tree, root, candidates, sink_positions);
    tree
}

/// Attaches the children described by `prov` to `node`, which must sit at
/// the step's root point.
fn fill(
    arena: &ProvArena<RouteStep>,
    prov: ProvId,
    tree: &mut BufferedTree,
    node: NodeId,
    candidates: &[Point],
    sink_positions: &[Point],
) {
    match arena[prov] {
        RouteStep::Sink { sink, .. } => {
            tree.add_child(node, NodeKind::Sink(sink), sink_positions[sink as usize]);
        }
        RouteStep::Merge { left, right } => {
            fill(arena, left, tree, node, candidates, sink_positions);
            fill(arena, right, tree, node, candidates, sink_positions);
        }
        RouteStep::Extend { child, .. } => {
            let cp = root_point(arena, child);
            let cnode = tree.add_child(node, NodeKind::Steiner, candidates[cp as usize]);
            fill(arena, child, tree, cnode, candidates, sink_positions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_single_sink() {
        let mut arena = ProvArena::new();
        let prov = arena.push(RouteStep::Sink { sink: 0, from: 0 });
        let cands = [Point::new(0, 0)];
        let sinks = [Point::new(10, 0)];
        let tree = extract_tree(&arena, prov, Point::new(0, 0), &cands, &sinks);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.sink_order(), vec![0]);
        assert_eq!(tree.wirelength(), 10);
    }

    #[test]
    fn extract_merge_preserves_order() {
        let mut arena = ProvArena::new();
        let a = arena.push(RouteStep::Sink { sink: 0, from: 0 });
        let b = arena.push(RouteStep::Sink { sink: 1, from: 0 });
        let m = arena.push(RouteStep::Merge { left: a, right: b });
        let cands = [Point::new(0, 0)];
        let sinks = [Point::new(10, 0), Point::new(0, 10)];
        let tree = extract_tree(&arena, m, Point::new(0, 0), &cands, &sinks);
        assert_eq!(tree.sink_order(), vec![0, 1]);
        assert_eq!(tree.wirelength(), 20);
    }

    #[test]
    fn extract_relocated_root() {
        // Root at candidate 1 while the source is candidate 0: a Steiner
        // node must bridge them.
        let mut arena = ProvArena::new();
        let a = arena.push(RouteStep::Sink { sink: 0, from: 1 });
        let cands = [Point::new(0, 0), Point::new(5, 0)];
        let sinks = [Point::new(9, 0)];
        let tree = extract_tree(&arena, a, Point::new(0, 0), &cands, &sinks);
        assert_eq!(tree.wirelength(), 9);
        assert_eq!(tree.len(), 3); // source, steiner@5, sink
    }
}
