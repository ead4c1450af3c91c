//! Rectilinear spanning/Steiner tree heuristics.
//!
//! Classical geometric baselines that predate performance-driven routing:
//! the rectilinear minimum spanning tree (Prim, under the L1 metric) and
//! the iterated 1-Steiner heuristic (Kahng–Robins) that repeatedly adds
//! the Hanan point with the largest wirelength gain. MERLIN's evaluation
//! context (§II, [CHKM96]) is exactly the observation that such
//! wirelength-driven trees are *not* delay-optimal; the extra Flow 0
//! baseline built on these makes that visible (see the `critical_net`
//! example).

use crate::hanan::HananGrid;
use crate::point::{manhattan, Point};

/// A tree over a point set, as a parent vector: `parent[i]` is the index
/// of node `i`'s parent (`parent[root] == root`). Nodes `0..terminals`
/// are the input points (node 0 the root/source); any further nodes are
/// Steiner points added by [`iterated_one_steiner`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningTree {
    /// All node positions: the terminals first, then added Steiner points.
    pub nodes: Vec<Point>,
    /// Parent index per node; the root points to itself.
    pub parent: Vec<usize>,
    /// Number of original terminals.
    pub terminals: usize,
}

impl SpanningTree {
    /// Total rectilinear wirelength.
    pub fn wirelength(&self) -> u64 {
        self.parent
            .iter()
            .enumerate()
            .filter(|(i, &p)| *i != p)
            .map(|(i, &p)| manhattan(self.nodes[i], self.nodes[p]))
            .sum()
    }

    /// Children lists (inverse of the parent vector).
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.nodes.len()];
        for (i, &p) in self.parent.iter().enumerate() {
            if i != p {
                ch[p].push(i);
            }
        }
        ch
    }
}

/// Rectilinear minimum spanning tree rooted at `points[0]` (Prim,
/// `O(n²)`).
///
/// # Panics
///
/// Panics if `points` is empty.
///
/// # Examples
///
/// ```
/// use merlin_geom::{rsmt::rectilinear_mst, Point};
///
/// let t = rectilinear_mst(&[Point::new(0, 0), Point::new(5, 0), Point::new(9, 0)]);
/// assert_eq!(t.wirelength(), 9); // chain along the line
/// ```
pub fn rectilinear_mst(points: &[Point]) -> SpanningTree {
    assert!(!points.is_empty(), "MST of an empty point set");
    let n = points.len();
    let mut in_tree = vec![false; n];
    let mut best_dist = vec![u64::MAX; n];
    let mut best_link = vec![0usize; n];
    let mut parent = vec![0usize; n];
    in_tree[0] = true;
    for i in 1..n {
        best_dist[i] = manhattan(points[0], points[i]);
        best_link[i] = 0;
    }
    for _ in 1..n {
        let (next, _) = best_dist
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_tree[*i])
            .min_by_key(|(i, &d)| (d, *i))
            .expect("some node remains");
        in_tree[next] = true;
        parent[next] = best_link[next];
        for i in 0..n {
            if !in_tree[i] {
                let d = manhattan(points[next], points[i]);
                if d < best_dist[i] {
                    best_dist[i] = d;
                    best_link[i] = next;
                }
            }
        }
    }
    SpanningTree {
        nodes: points.to_vec(),
        parent,
        terminals: n,
    }
}

/// Iterated 1-Steiner: repeatedly inserts the Hanan point that reduces the
/// MST wirelength the most, until no insertion helps (or `max_added`
/// points were added). Returns a tree over terminals + added points.
///
/// `O(rounds · |Hanan| · n²)` — fine for the net sizes here.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn iterated_one_steiner(points: &[Point], max_added: usize) -> SpanningTree {
    assert!(!points.is_empty(), "Steiner tree of an empty point set");
    let mut nodes: Vec<Point> = points.to_vec();
    let mut best = rectilinear_mst(&nodes);
    for _ in 0..max_added {
        let grid = HananGrid::from_terminals(nodes.iter().copied());
        let current = best.wirelength();
        let mut improvement: Option<(u64, Point)> = None;
        for cand in grid.points() {
            if nodes.contains(&cand) {
                continue;
            }
            nodes.push(cand);
            let t = rectilinear_mst(&nodes);
            nodes.pop();
            let wl = t.wirelength();
            if wl < current {
                let gain = current - wl;
                if improvement.is_none_or(|(g, _)| gain > g) {
                    improvement = Some((gain, cand));
                }
            }
        }
        match improvement {
            Some((_, p)) => {
                nodes.push(p);
                best = rectilinear_mst(&nodes);
            }
            None => break,
        }
    }
    // Prune degree-≤2 Steiner points that don't help? Keep simple: drop
    // added leaves (a Steiner leaf only adds wire).
    loop {
        let ch = best.children();
        let removable: Vec<usize> = (best.terminals..best.nodes.len())
            .filter(|&i| ch[i].is_empty())
            .collect();
        if removable.is_empty() {
            break;
        }
        let keep: Vec<usize> = (0..best.nodes.len())
            .filter(|i| !removable.contains(i))
            .collect();
        let remap: std::collections::HashMap<usize, usize> = keep
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        best = SpanningTree {
            nodes: keep.iter().map(|&i| best.nodes[i]).collect(),
            parent: keep.iter().map(|&i| remap[&best.parent[i]]).collect(),
            terminals: best.terminals,
        };
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mst_on_line_is_chain_length() {
        let pts = [
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(4, 0),
            Point::new(7, 0),
        ];
        let t = rectilinear_mst(&pts);
        assert_eq!(t.wirelength(), 10);
        assert_eq!(t.parent[0], 0);
    }

    #[test]
    fn mst_is_connected() {
        let pts: Vec<Point> = (0..12)
            .map(|i| Point::new((i * 37) % 11, (i * 53) % 13))
            .collect();
        let t = rectilinear_mst(&pts);
        // Every node reaches the root.
        for mut i in 0..pts.len() {
            let mut steps = 0;
            while t.parent[i] != i {
                i = t.parent[i];
                steps += 1;
                assert!(steps <= pts.len(), "cycle in parent vector");
            }
            assert_eq!(i, 0);
        }
    }

    #[test]
    fn one_steiner_beats_mst_on_the_classic_cross() {
        // Four corners of a plus-sign: MST needs 3 arms' worth of detours;
        // one Steiner point at the center wins.
        let pts = [
            Point::new(0, 10),
            Point::new(20, 10),
            Point::new(10, 0),
            Point::new(10, 20),
        ];
        let mst = rectilinear_mst(&pts).wirelength();
        let steiner = iterated_one_steiner(&pts, 4);
        assert!(steiner.wirelength() < mst);
        assert_eq!(steiner.wirelength(), 40); // star from the center
        assert!(steiner.nodes.contains(&Point::new(10, 10)));
    }

    #[test]
    fn one_steiner_never_worse_than_mst() {
        for seed in 0..6i64 {
            let pts: Vec<Point> = (0..8)
                .map(|i| Point::new((i * 131 + seed * 17) % 40, (i * 173 + seed * 29) % 40))
                .collect();
            let mut uniq = pts.clone();
            uniq.sort_unstable();
            uniq.dedup();
            let mst = rectilinear_mst(&uniq).wirelength();
            let st = iterated_one_steiner(&uniq, 8).wirelength();
            assert!(st <= mst, "seed {seed}: {st} > {mst}");
        }
    }

    #[test]
    fn single_point_degenerates() {
        let t = rectilinear_mst(&[Point::new(3, 3)]);
        assert_eq!(t.wirelength(), 0);
        let s = iterated_one_steiner(&[Point::new(3, 3)], 3);
        assert_eq!(s.wirelength(), 0);
    }
}
