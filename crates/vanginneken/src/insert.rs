//! The bottom-up insertion DP and tree reconstruction.

use merlin_curves::{Curve, CurvePoint, ProvArena, ProvId};
use merlin_geom::{manhattan, Point, Route};
use merlin_tech::units::{ps_cmp, Cap, PsTime};
use merlin_tech::{BufferedTree, Driver, NodeId, NodeKind, Technology};

/// Construction step for van Ginneken provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VgStep {
    /// A sink leaf (tree node id).
    Leaf { node: u32 },
    /// Children of a branch node combined.
    Merge { left: ProvId, right: ProvId },
    /// Plain wire walked, no insertion (kept so the provenance graph
    /// remains a tree; carries no geometric payload).
    Wire { child: ProvId },
    /// Buffer `buf` inserted on the edge above tree node `below`, at
    /// `dist_up` λ from that node.
    Buffer {
        buf: u16,
        below: u32,
        dist_up: u64,
        child: ProvId,
    },
}

/// Tuning knobs for buffer insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VgConfig {
    /// Spacing of candidate stations along edges, in λ.
    pub station_step: u64,
    /// Restrict insertion to a single library buffer (the classical [Gi90]
    /// setting), by library index. `None` uses the whole library.
    pub single_buffer: Option<u16>,
    /// Curve thinning bound (`0` = exact).
    pub max_curve_points: usize,
    /// Reject insertions whose driven load exceeds the buffer's
    /// characterized `max_load`.
    pub enforce_max_load: bool,
}

impl Default for VgConfig {
    fn default() -> Self {
        VgConfig {
            station_step: 500,
            single_buffer: None,
            max_curve_points: 32,
            enforce_max_load: false,
        }
    }
}

/// The insertion engine.
#[derive(Debug)]
pub struct VanGinneken<'a> {
    tech: &'a Technology,
    config: VgConfig,
}

/// A solved insertion instance.
#[derive(Debug)]
pub struct VgSolved {
    /// Non-inferior `(root load, req at root, buffer area)` curve at the
    /// source (before the driver delay).
    pub curve: Curve,
    arena: ProvArena<VgStep>,
    route: BufferedTree,
    driver: Driver,
}

impl<'a> VanGinneken<'a> {
    /// Creates an insertion engine.
    pub fn new(tech: &'a Technology, config: VgConfig) -> Self {
        VanGinneken { tech, config }
    }

    /// Runs the DP over `route` (a buffer-free routing tree).
    ///
    /// # Panics
    ///
    /// Panics if `route` contains buffer nodes (insertion must start from a
    /// plain routing tree) or if a sink index is out of range of the load /
    /// required-time slices.
    pub fn solve(
        &self,
        route: &BufferedTree,
        driver: &Driver,
        sink_loads: &[Cap],
        sink_reqs_ps: &[PsTime],
    ) -> VgSolved {
        let mut arena = ProvArena::new();
        let curve = self.curve_below(route, route.root(), sink_loads, sink_reqs_ps, &mut arena);
        VgSolved {
            curve,
            arena,
            route: route.clone(),
            driver: driver.clone(),
        }
    }

    /// Curve describing the subtree hanging below `node`, evaluated at the
    /// location of `node` (merging children and lifting each child curve up
    /// its edge through the stations).
    fn curve_below(
        &self,
        route: &BufferedTree,
        node: NodeId,
        sink_loads: &[Cap],
        sink_reqs_ps: &[PsTime],
        arena: &mut ProvArena<VgStep>,
    ) -> Curve {
        let n = route.node(node);
        match n.kind {
            NodeKind::Sink(s) => {
                let mut c = Curve::with_capacity(1);
                #[expect(clippy::cast_possible_truncation, reason = "trees have < 2^32 nodes")]
                // audit:allow(push-without-prune): one point is trivially non-inferior.
                c.push(CurvePoint::with_load(
                    sink_loads[s as usize],
                    sink_reqs_ps[s as usize],
                    0,
                    arena.push(VgStep::Leaf {
                        node: node.index() as u32,
                    }),
                ));
                c
            }
            #[expect(
                clippy::panic,
                reason = "documented input contract of `VanGinneken::solve`"
            )]
            NodeKind::Buffer(_) => panic!("van Ginneken input must be a plain routing tree"),
            NodeKind::Source | NodeKind::Steiner => {
                let mut acc: Option<Curve> = None;
                for &ch in &n.children {
                    let child_curve = self.curve_below(route, ch, sink_loads, sink_reqs_ps, arena);
                    let lifted = self.lift_edge(route, node, ch, child_curve, arena);
                    acc = Some(match acc {
                        None => lifted,
                        Some(prev) => prev.merged_with(&lifted, |a, b| {
                            arena.push(VgStep::Merge { left: a, right: b })
                        }),
                    });
                }
                let mut c = acc.unwrap_or_default();
                c.thin_to(self.config.max_curve_points);
                c
            }
        }
    }

    /// Walks the edge `parent → child` from the child upwards, extending
    /// the curve across wire segments and offering buffer insertion at each
    /// station (including at the child node itself, `dist_up = 0`).
    fn lift_edge(
        &self,
        route: &BufferedTree,
        parent: NodeId,
        child: NodeId,
        mut curve: Curve,
        arena: &mut ProvArena<VgStep>,
    ) -> Curve {
        let p = route.node(parent).at;
        let x = route.node(child).at;
        let len = manhattan(p, x);
        #[expect(clippy::cast_possible_truncation, reason = "trees have < 2^32 nodes")]
        let below = child.index() as u32;
        // Station at the child itself.
        curve = self.buffer_station(curve, below, 0, arena);
        if len == 0 {
            return curve;
        }
        let step = self.config.station_step.max(1);
        let mut walked = 0u64;
        while walked < len {
            let seg = step.min(len - walked);
            curve = curve.extended(&self.tech.wire, seg, |c| {
                arena.push(VgStep::Wire { child: c })
            });
            walked += seg;
            if walked < len {
                curve = self.buffer_station(curve, below, walked, arena);
            }
            curve.thin_to(self.config.max_curve_points);
        }
        curve
    }

    /// Adds buffer options at a station; keeps the un-buffered points.
    fn buffer_station(
        &self,
        curve: Curve,
        below: u32,
        dist_up: u64,
        arena: &mut ProvArena<VgStep>,
    ) -> Curve {
        let lib = &self.tech.library;
        let mut out = curve.clone();
        let mut additions = Curve::new();
        for (bi, buf) in lib.iter().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "libraries have < 2^16 cells"
            )]
            if let Some(only) = self.config.single_buffer {
                if bi as u16 != only {
                    continue;
                }
            }
            for p in curve.iter() {
                if self.config.enforce_max_load && p.load > buf.max_load {
                    continue;
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "libraries have < 2^16 cells"
                )]
                additions.push(CurvePoint::with_load(
                    buf.cin,
                    p.req - buf.delay_linear_ps(p.load),
                    p.area + buf.area,
                    arena.push(VgStep::Buffer {
                        buf: bi as u16,
                        below,
                        dist_up,
                        child: p.prov,
                    }),
                ));
            }
        }
        additions.prune();
        out.absorb(&additions);
        out
    }
}

impl VgSolved {
    /// Required time at the driver input for a curve point.
    pub fn driver_required(&self, p: &CurvePoint) -> PsTime {
        p.req - self.driver.delay_linear_ps(p.load)
    }

    /// The curve point with the best driver-input required time.
    pub fn best_point(&self) -> Option<CurvePoint> {
        self.curve
            .iter()
            .max_by(|a, b| ps_cmp(self.driver_required(a), self.driver_required(b)))
            .copied()
    }

    /// Extracts the buffered tree of the best point.
    pub fn best_tree(&self) -> Option<BufferedTree> {
        self.best_point().map(|p| self.extract(&p))
    }

    /// The cheapest point meeting a required-time target at the driver
    /// input, if any (problem variant II).
    pub fn min_area_point(&self, target: PsTime) -> Option<CurvePoint> {
        self.curve
            .iter()
            .filter(|p| self.driver_required(p) >= target)
            .min_by_key(|p| p.area)
            .copied()
    }

    /// Rebuilds the buffered tree of a curve point: the original routing
    /// tree with the point's buffers spliced into its edges.
    ///
    /// # Panics
    ///
    /// Panics if `point` did not come from this instance's curve.
    pub fn extract(&self, point: &CurvePoint) -> BufferedTree {
        // Collect (below-node, dist_up, buffer) placements.
        let mut placements: Vec<(u32, u64, u16)> = Vec::new();
        let mut stack = vec![point.prov];
        while let Some(id) = stack.pop() {
            match self.arena[id] {
                VgStep::Leaf { .. } => {}
                VgStep::Wire { child } => stack.push(child),
                VgStep::Merge { left, right } => {
                    stack.push(left);
                    stack.push(right);
                }
                VgStep::Buffer {
                    buf,
                    below,
                    dist_up,
                    child,
                } => {
                    placements.push((below, dist_up, buf));
                    stack.push(child);
                }
            }
        }

        // Rebuild by DFS over the original route.
        let src = self.route.node(self.route.root()).at;
        let mut out = BufferedTree::new(src);
        // (original node, its copy in the output) pairs; buffers are
        // spliced while descending each edge.
        let mut work: Vec<(NodeId, merlin_tech::NodeId)> = vec![(self.route.root(), out.root())];
        while let Some((orig, new_parent)) = work.pop() {
            for &ch in &self.route.node(orig).children {
                let p = self.route.node(orig).at;
                let x = self.route.node(ch).at;
                let len = manhattan(p, x);
                // Placements on this edge, ordered top (closest to parent)
                // first.
                #[expect(clippy::cast_possible_truncation, reason = "trees have < 2^32 nodes")]
                let mut here: Vec<(u64, u16)> = placements
                    .iter()
                    .filter(|(below, _, _)| *below == ch.index() as u32)
                    .map(|&(_, d, b)| (d, b))
                    .collect();
                here.sort_unstable_by_key(|x| std::cmp::Reverse(x.0));
                let mut attach = new_parent;
                for (dist_up, buf) in here {
                    let at = point_along(p, x, len.saturating_sub(dist_up));
                    attach = out.add_child(attach, NodeKind::Buffer(buf), at);
                }
                let kind = match self.route.node(ch).kind {
                    NodeKind::Sink(s) => NodeKind::Sink(s),
                    _ => NodeKind::Steiner,
                };
                let new_child = out.add_child(attach, kind, x);
                work.push((ch, new_child));
            }
        }
        out
    }
}

/// The point at arclength `dist` from `from` along the canonical L-route to
/// `to`.
fn point_along(from: Point, to: Point, dist: u64) -> Point {
    let len = Route::l_shaped(from, to).len();
    let dist = dist.min(len);
    let dx = from.x.abs_diff(to.x);
    if dist <= dx {
        let step = dist as i64 * (to.x - from.x).signum();
        Point::new(from.x + step, from.y)
    } else {
        let rest = (dist - dx) as i64 * (to.y - from.y).signum();
        Point::new(to.x, from.y + rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::synthetic_035()
    }

    fn line_route(len: i64) -> BufferedTree {
        let mut t = BufferedTree::new(Point::new(0, 0));
        t.add_child(t.root(), NodeKind::Sink(0), Point::new(len, 0));
        t
    }

    #[test]
    fn point_along_l_route() {
        let a = Point::new(0, 0);
        let b = Point::new(3, 4);
        assert_eq!(point_along(a, b, 0), a);
        assert_eq!(point_along(a, b, 3), Point::new(3, 0));
        assert_eq!(point_along(a, b, 5), Point::new(3, 2));
        assert_eq!(point_along(a, b, 7), b);
    }

    #[test]
    fn long_wire_gets_buffered_and_bookkeeping_matches() {
        let t = tech();
        let driver = Driver::with_strength(2.0);
        let loads = [Cap::from_ff(120.0)];
        let reqs = [1500.0];
        let route = line_route(12_000);
        let vg = VanGinneken::new(&t, VgConfig::default());
        let solved = vg.solve(&route, &driver, &loads, &reqs);
        assert!(!solved.curve.is_empty());
        for p in solved.curve.iter() {
            let tree = solved.extract(p);
            tree.validate(1, &t).expect("produced tree is well-formed");
            let eval = tree.evaluate(&t, &driver, &loads, &reqs);
            assert!(
                (solved.driver_required(p) - eval.root_required_ps).abs() < 0.5,
                "req mismatch: {} vs {}",
                solved.driver_required(p),
                eval.root_required_ps
            );
            assert_eq!(eval.buffer_area, p.area);
            assert_eq!(eval.root_load, p.load);
        }
        let best = solved.best_tree().expect("DP always yields a routed tree");
        let eval = best.evaluate(&t, &driver, &loads, &reqs);
        assert!(eval.num_buffers >= 1, "12 kλ + 120 fF wants a buffer");
        // And buffering must beat the bare wire.
        let bare = route.evaluate(&t, &driver, &loads, &reqs);
        assert!(eval.root_required_ps > bare.root_required_ps);
    }

    #[test]
    fn branch_merge_handles_asymmetric_subtrees() {
        let t = tech();
        let driver = Driver::default();
        let mut route = BufferedTree::new(Point::new(0, 0));
        let br = route.add_child(route.root(), NodeKind::Steiner, Point::new(2000, 0));
        route.add_child(br, NodeKind::Sink(0), Point::new(2000, 9000));
        route.add_child(br, NodeKind::Sink(1), Point::new(2500, 0));
        let loads = [Cap::from_ff(90.0), Cap::from_ff(5.0)];
        let reqs = [1400.0, 1000.0];
        let solved =
            VanGinneken::new(&t, VgConfig::default()).solve(&route, &driver, &loads, &reqs);
        let best = solved.best_point().expect("DP curve is non-empty");
        let tree = solved.extract(&best);
        tree.validate(2, &t).expect("produced tree is well-formed");
        let eval = tree.evaluate(&t, &driver, &loads, &reqs);
        assert!((solved.driver_required(&best) - eval.root_required_ps).abs() < 0.5);
        // Wirelength is preserved by splicing.
        assert_eq!(tree.wirelength(), route.wirelength());
    }

    #[test]
    fn single_buffer_mode_restricts_choice() {
        let t = tech();
        let driver = Driver::with_strength(1.0);
        let loads = [Cap::from_ff(200.0)];
        let reqs = [2000.0];
        let route = line_route(20_000);
        let cfg = VgConfig {
            single_buffer: Some(10),
            ..VgConfig::default()
        };
        let solved = VanGinneken::new(&t, cfg).solve(&route, &driver, &loads, &reqs);
        let tree = solved.best_tree().expect("DP always yields a routed tree");
        for (_, node) in tree.iter() {
            if let NodeKind::Buffer(b) = node.kind {
                assert_eq!(b, 10);
            }
        }
    }

    #[test]
    fn insertion_never_hurts() {
        // The unbuffered original is always on the curve, so the best
        // solution is at least as good as no insertion at all.
        let t = tech();
        let driver = Driver::default();
        for (len, ff) in [(500i64, 4.0), (3000, 30.0), (15000, 200.0)] {
            let loads = [Cap::from_ff(ff)];
            let reqs = [1000.0];
            let route = line_route(len);
            let bare = route.evaluate(&t, &driver, &loads, &reqs);
            let solved =
                VanGinneken::new(&t, VgConfig::default()).solve(&route, &driver, &loads, &reqs);
            let best = solved.best_point().expect("DP curve is non-empty");
            assert!(
                solved.driver_required(&best) >= bare.root_required_ps - 0.5,
                "len {len}: insertion made things worse"
            );
        }
    }

    #[test]
    fn enforced_max_load_yields_legal_insertions() {
        let t = tech();
        let driver = Driver::with_strength(1.0);
        let loads = [Cap::from_ff(180.0)];
        let reqs = [2500.0];
        let route = line_route(24_000);
        let cfg = VgConfig {
            enforce_max_load: true,
            ..VgConfig::default()
        };
        let solved = VanGinneken::new(&t, cfg).solve(&route, &driver, &loads, &reqs);
        let tree = solved.best_tree().expect("DP always yields a routed tree");
        assert_eq!(tree.buffer_load_violations(&t, &loads), 0);
    }

    #[test]
    #[should_panic(expected = "plain routing tree")]
    fn rejects_pre_buffered_input() {
        let t = tech();
        let mut route = BufferedTree::new(Point::new(0, 0));
        let b = route.add_child(route.root(), NodeKind::Buffer(0), Point::new(10, 0));
        route.add_child(b, NodeKind::Sink(0), Point::new(20, 0));
        let _ = VanGinneken::new(&t, VgConfig::default()).solve(
            &route,
            &Driver::default(),
            &[Cap::ZERO],
            &[0.0],
        );
    }
}
