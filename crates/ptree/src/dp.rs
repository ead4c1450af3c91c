//! The PTREE dynamic program.

use merlin_curves::{Curve, CurvePoint, CurveScratch, ProvArena, ProvId};
use merlin_geom::{manhattan, Point};
use merlin_netlist::Net;
use merlin_order::SinkOrder;
use merlin_tech::units::{ps_cmp, PsTime};
use merlin_tech::{BufferedTree, Technology};

/// A construction step recorded while building PTREE solution curves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteStep {
    /// Minimum-length route from candidate `from` to `sink`.
    Sink {
        /// Sink index within the net.
        sink: u32,
        /// Candidate-point index of the subtree root.
        from: u16,
    },
    /// Two subtrees joined at their (common) root point.
    Merge {
        /// Left sub-solution (earlier in sink order).
        left: ProvId,
        /// Right sub-solution.
        right: ProvId,
    },
    /// A wire from candidate `to` down to the child's root point.
    Extend {
        /// New root: candidate-point index.
        to: u16,
        /// The sub-solution being extended.
        child: ProvId,
    },
}

/// Tuning knobs for the PTREE baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PtreeConfig {
    /// Curve thinning bound per (window, candidate) — `0` disables thinning
    /// and keeps the exact non-inferior fronts.
    pub max_curve_points: usize,
}

impl Default for PtreeConfig {
    fn default() -> Self {
        PtreeConfig {
            max_curve_points: 24,
        }
    }
}

impl PtreeConfig {
    /// An exact configuration (no thinning), for small instances and
    /// cross-check tests.
    pub fn exact() -> Self {
        PtreeConfig {
            max_curve_points: 0,
        }
    }
}

/// The PTREE solver, borrowing the problem description.
#[derive(Debug)]
pub struct Ptree<'a> {
    net: &'a Net,
    tech: &'a Technology,
    config: PtreeConfig,
}

/// A solved PTREE instance: the non-inferior curve at the net source plus
/// everything needed to extract any point's routing tree.
#[derive(Debug)]
pub struct PtreeSolved {
    /// Net source location.
    pub source: Point,
    /// Sink locations (index-aligned with the net).
    pub sink_positions: Vec<Point>,
    /// Candidate points used by the DP.
    pub candidates: Vec<Point>,
    /// Curve of non-inferior `(load, req, wire-area)` solutions rooted at
    /// the source (before the driver delay is applied).
    pub curve: Curve,
    /// Driver delay applicator: required time at the driver input for a
    /// given curve point (`req − d_drv(load)`).
    driver_req: fn(&merlin_tech::Driver, &CurvePoint) -> PsTime,
    driver: merlin_tech::Driver,
    pub(crate) arena: ProvArena<RouteStep>,
}

impl<'a> Ptree<'a> {
    /// Creates a solver for `net` under `tech`.
    pub fn new(net: &'a Net, tech: &'a Technology, config: PtreeConfig) -> Self {
        Ptree { net, tech, config }
    }

    /// Runs the DP for the given sink `order` and candidate set.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not cover exactly the net's sinks, or if the
    /// candidate set does not contain the net source.
    pub fn solve(&self, order: &SinkOrder, candidates: &[Point]) -> PtreeSolved {
        let n = self.net.num_sinks();
        assert_eq!(order.len(), n, "order must cover all sinks");
        let src_idx = candidates
            .iter()
            .position(|&p| p == self.net.source)
            .expect("candidate set must contain the net source");
        let k = candidates.len();
        assert!(k <= u16::MAX as usize, "too many candidate points");

        let wire = &self.tech.wire;
        let mut arena: ProvArena<RouteStep> = ProvArena::new();

        // s[w][p]: pruned curve for the window with id w rooted at candidate p.
        let win = |i: usize, j: usize| -> usize { i * n + j };
        let mut s: Vec<Vec<Curve>> = vec![Vec::new(); if n == 0 { 0 } else { n * n }];

        // Base cases: single sinks.
        for i in 0..n {
            let sink_id = order.sink_at(i);
            let sink = &self.net.sinks[sink_id as usize];
            let mut per_p: Vec<Curve> = Vec::with_capacity(k);
            for (pi, &p) in candidates.iter().enumerate() {
                let len = manhattan(p, sink.pos);
                let mut c = Curve::with_capacity(1);
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "k <= u16::MAX is asserted on entry"
                )]
                // audit:allow(push-without-prune): one point is trivially non-inferior.
                c.push(CurvePoint::with_load(
                    sink.load + wire.wire_cap(len),
                    sink.req_ps - wire.elmore_ps(len, sink.load),
                    len,
                    arena.push(RouteStep::Sink {
                        sink: sink_id,
                        from: pi as u16,
                    }),
                ));
                per_p.push(c);
            }
            s[win(i, i)] = per_p;
        }

        // Windows by increasing length. Each site (a root's merges, a
        // root's relocations) numbers its steps as pending ids from the
        // arena's next handle and gives arena steps only to the points it
        // keeps after its last thin (`Curve::finalize`).
        let mut scratch = CurveScratch::default();
        let mut pending: Vec<RouteStep> = Vec::new();
        let mut raw = Curve::new();
        let mut ends: Vec<usize> = Vec::new();
        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len - 1;
                // Phase 1: merges at each candidate point.
                let mut sb: Vec<Curve> = Vec::with_capacity(k);
                // `pi` picks the same column out of two different rows of
                // `s`, so a single iterator cannot replace it.
                #[allow(clippy::needless_range_loop)]
                for pi in 0..k {
                    let first = arena.next_index();
                    pending.clear();
                    raw.clear();
                    for u in i..j {
                        let left = &s[win(i, u)][pi];
                        let right = &s[win(u + 1, j)][pi];
                        for a in left.iter() {
                            for b in right.iter() {
                                let prov = ProvId::from_index(first + pending.len());
                                pending.push(RouteStep::Merge {
                                    left: a.prov,
                                    right: b.prov,
                                });
                                // audit:allow(push-without-prune): `prune_with` below.
                                raw.push(CurvePoint {
                                    load: a.load + b.load,
                                    req: a.req.min(b.req),
                                    area: a.area + b.area,
                                    prov,
                                });
                            }
                        }
                    }
                    raw.prune_with(&mut scratch);
                    raw.thin_to(self.config.max_curve_points);
                    let mut merged = raw.clone();
                    merged.finalize(first, &pending, &mut arena, &mut scratch);
                    sb.push(merged);
                }
                // Phase 2: one-hop relocations. A wire shift keeps each
                // source curve in prune order (every load and area grows by
                // the same amount), so the sources merge as sorted runs.
                let mut sw: Vec<Curve> = Vec::with_capacity(k);
                for (pi, &p) in candidates.iter().enumerate() {
                    let first = arena.next_index();
                    pending.clear();
                    raw.clear();
                    ends.clear();
                    for (qi, &q) in candidates.iter().enumerate() {
                        if qi == pi || sb[qi].is_empty() {
                            continue;
                        }
                        let len = manhattan(p, q);
                        let wc = wire.wire_cap(len);
                        for a in sb[qi].iter() {
                            let prov = ProvId::from_index(first + pending.len());
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "k <= u16::MAX is asserted on entry"
                            )]
                            pending.push(RouteStep::Extend {
                                to: pi as u16,
                                child: a.prov,
                            });
                            // audit:allow(push-without-prune): `from_sorted_runs` below prunes the runs.
                            raw.push(CurvePoint {
                                load: a.load + wc,
                                req: a.req - wire.elmore_ps(len, a.load),
                                area: a.area + len,
                                prov,
                            });
                        }
                        ends.push(raw.len());
                    }
                    let mut additions = Curve::from_sorted_runs(raw.points(), &ends, &mut scratch);
                    additions.thin_to(self.config.max_curve_points);
                    let mut combined = sb[pi].clone();
                    combined.absorb(&additions, &mut scratch);
                    combined.thin_to(self.config.max_curve_points);
                    combined.finalize(first, &pending, &mut arena, &mut scratch);
                    sw.push(combined);
                }
                s[win(i, j)] = sw;
            }
        }

        let curve = if n == 0 {
            Curve::new()
        } else {
            s[win(0, n - 1)][src_idx].clone()
        };
        PtreeSolved {
            source: self.net.source,
            sink_positions: self.net.sink_positions(),
            candidates: candidates.to_vec(),
            curve,
            driver_req: |d, p| p.req - d.delay_linear_ps(p.load),
            driver: self.net.driver.clone(),
            arena,
        }
    }
}

impl PtreeSolved {
    /// Required time at the driver input for a curve point.
    pub fn driver_required(&self, p: &CurvePoint) -> PsTime {
        (self.driver_req)(&self.driver, p)
    }

    /// The curve point with the best required time at the driver input.
    pub fn best_point(&self) -> Option<CurvePoint> {
        self.curve
            .iter()
            .max_by(|a, b| ps_cmp(self.driver_required(a), self.driver_required(b)))
            .copied()
    }

    /// Extracts the routing tree of the best point, if the net was routable.
    pub fn best_tree(&self) -> Option<BufferedTree> {
        self.best_point().map(|p| self.extract(&p))
    }

    /// Rebuilds the routing tree of an arbitrary point of
    /// [`PtreeSolved::curve`].
    ///
    /// # Panics
    ///
    /// Panics if `point` did not come from this instance's curve.
    pub fn extract(&self, point: &CurvePoint) -> BufferedTree {
        crate::extract::extract_tree(
            &self.arena,
            point.prov,
            self.source,
            &self.candidates,
            &self.sink_positions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_geom::CandidateStrategy;
    use merlin_netlist::bench_nets::random_net;
    use merlin_netlist::Sink;
    use merlin_order::tsp::tsp_order;
    use merlin_tech::units::Cap;
    use merlin_tech::Driver;

    fn tech() -> Technology {
        Technology::synthetic_035()
    }

    fn solve_net(net: &Net, tech: &Technology) -> PtreeSolved {
        let order = tsp_order(net.source, &net.sink_positions());
        let cands = CandidateStrategy::FullHanan.generate(net.source, &net.sink_positions());
        Ptree::new(net, tech, PtreeConfig::exact()).solve(&order, &cands)
    }

    #[test]
    fn single_sink_route_is_direct() {
        let tech = tech();
        let net = Net::new(
            "one",
            Point::new(0, 0),
            Driver::default(),
            vec![Sink::new(Point::new(300, 400), Cap::from_ff(10.0), 800.0)],
        );
        let solved = solve_net(&net, &tech);
        let tree = solved.best_tree().expect("DP always yields a routed tree");
        assert!(tree.validate(1, &tech).is_ok());
        assert_eq!(tree.wirelength(), 700);
        let eval = tree.evaluate(&tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
        let best = solved.best_point().expect("DP curve is non-empty");
        assert!((solved.driver_required(&best) - eval.root_required_ps).abs() < 1e-6);
    }

    #[test]
    fn dp_bookkeeping_matches_independent_evaluation() {
        // The critical invariant: every curve point's (load, req), after
        // applying the driver, must equal an independent Elmore evaluation
        // of the extracted tree.
        let tech = tech();
        for seed in 1..=5u64 {
            let net = random_net("n", 5, seed, &tech);
            let solved = solve_net(&net, &tech);
            assert!(!solved.curve.is_empty(), "seed {seed}");
            for p in solved.curve.iter() {
                let tree = solved.extract(p);
                tree.validate(net.num_sinks(), &tech)
                    .expect("produced tree is well-formed");
                let eval = tree.evaluate(&tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
                assert!(
                    (solved.driver_required(p) - eval.root_required_ps).abs() < 1e-6,
                    "seed {seed}: req mismatch {} vs {}",
                    solved.driver_required(p),
                    eval.root_required_ps
                );
                assert_eq!(eval.root_load, p.load, "seed {seed}: load mismatch");
                assert_eq!(eval.buffer_area, 0);
                assert_eq!(tree.wirelength(), p.area, "seed {seed}: wire area");
            }
        }
    }

    #[test]
    fn routing_beats_star_topology() {
        // PTREE should never be worse than the naive star (source to every
        // sink directly), which is itself a P-Tree member... verify the
        // weaker property that PTREE's wirelength <= star wirelength.
        let tech = tech();
        let net = random_net("n", 8, 3, &tech);
        let solved = solve_net(&net, &tech);
        let tree = solved.best_tree().expect("DP always yields a routed tree");
        let star: u64 = net
            .sink_positions()
            .iter()
            .map(|&p| manhattan(net.source, p))
            .sum();
        assert!(tree.wirelength() <= star);
    }

    #[test]
    fn better_order_no_worse_curve_front() {
        // The TSP order should give at least as good a best-req as a
        // deliberately bad (reversed) order on a line of sinks.
        let tech = tech();
        let sinks: Vec<Sink> = (1..=6)
            .map(|i| Sink::new(Point::new(i * 2000, 0), Cap::from_ff(8.0), 1000.0))
            .collect();
        let net = Net::new("line", Point::new(0, 0), Driver::default(), sinks);
        let cands = CandidateStrategy::FullHanan.generate(net.source, &net.sink_positions());
        let good = tsp_order(net.source, &net.sink_positions());
        let bad = SinkOrder::new(good.as_slice().iter().rev().copied().collect())
            .expect("a reversed permutation is still a permutation");
        let pt = Ptree::new(&net, &tech, PtreeConfig::exact());
        let g = pt.solve(&good, &cands);
        let b = pt.solve(&bad, &cands);
        let gb = g
            .best_point()
            .map(|p| g.driver_required(&p))
            .expect("DP curve is non-empty");
        let bb = b
            .best_point()
            .map(|p| b.driver_required(&p))
            .expect("DP curve is non-empty");
        assert!(gb >= bb - 1e-9, "good {gb} vs bad {bb}");
    }

    #[test]
    fn thinning_keeps_solutions_valid() {
        let tech = tech();
        let net = random_net("n", 7, 9, &tech);
        let order = tsp_order(net.source, &net.sink_positions());
        let cands = CandidateStrategy::FullHanan.generate(net.source, &net.sink_positions());
        let solved = Ptree::new(
            &net,
            &tech,
            PtreeConfig {
                max_curve_points: 4,
            },
        )
        .solve(&order, &cands);
        for p in solved.curve.iter() {
            let tree = solved.extract(p);
            tree.validate(net.num_sinks(), &tech)
                .expect("produced tree is well-formed");
            let eval = tree.evaluate(&tech, &net.driver, &net.sink_loads(), &net.sink_reqs());
            assert!((solved.driver_required(p) - eval.root_required_ps).abs() < 1e-6);
        }
    }
}
