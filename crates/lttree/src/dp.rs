//! The LTTREE dynamic program.

use merlin_curves::{Curve, CurvePoint, ProvArena, ProvId};
use merlin_tech::units::{ps_cmp, Cap, PsTime};
use merlin_tech::{Driver, Technology};

use crate::tree::{FanoutNode, FanoutTree};

/// Construction step of an LT-tree sub-solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LtStep {
    /// Buffer `buf` drives the criticality-sorted sinks `first..=last`
    /// directly, plus optionally a deeper stage.
    Stage {
        buf: u16,
        first: u32,
        last: u32,
        chain: Option<ProvId>,
    },
}

/// Tuning knobs for LTTREE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LtConfig {
    /// Maximum direct children per stage (sinks + the chained buffer).
    pub max_fanout: usize,
    /// Curve thinning bound per suffix (`0` = exact).
    pub max_curve_points: usize,
}

impl Default for LtConfig {
    fn default() -> Self {
        LtConfig {
            max_fanout: 12,
            max_curve_points: 32,
        }
    }
}

/// The LTTREE solver.
#[derive(Debug)]
pub struct LtTree<'a> {
    tech: &'a Technology,
    config: LtConfig,
}

/// A solved LTTREE instance.
#[derive(Debug)]
pub struct LtSolved {
    /// Non-inferior `(root load, req at driver input, buffer area)` curve.
    ///
    /// Unlike the routing engines, `req` here is already *after* the driver
    /// delay (the driver's stage choice is part of the DP).
    pub curve: Curve,
    arena: ProvArena<LtStep>,
    /// Per-point driver-stage description `(last_direct, chain)`:
    /// the driver directly drives sorted sinks `0..=last` and chains to the
    /// given sub-solution.
    tops: Vec<(u32, Option<ProvId>)>,
    /// Maps criticality-sorted positions back to original sink indices.
    sorted_to_original: Vec<u32>,
}

impl<'a> LtTree<'a> {
    /// Creates a solver.
    pub fn new(tech: &'a Technology, config: LtConfig) -> Self {
        LtTree { tech, config }
    }

    /// Runs the DP over `sinks` = `(load, required time)` pairs, driven by
    /// `driver`.
    ///
    /// # Panics
    ///
    /// Panics if `sinks` is empty.
    pub fn solve(&self, sinks: &[(Cap, PsTime)], driver: &Driver) -> LtSolved {
        let n = sinks.len();
        assert!(n > 0, "LTTREE needs at least one sink");
        let lib = &self.tech.library;
        let maxfan = self.config.max_fanout.max(2);

        // Sort most-critical-first (ascending required time): Touati's
        // canonical order; less critical sinks go deeper into the chain.
        #[expect(clippy::cast_possible_truncation, reason = "nets have < 2^32 sinks")]
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_by(|&a, &b| ps_cmp(sinks[a as usize].1, sinks[b as usize].1).then(a.cmp(&b)));
        let load = |i: usize| sinks[idx[i] as usize].0;
        let req = |i: usize| sinks[idx[i] as usize].1;
        // Prefix sums of loads over the sorted list.
        let mut pre = vec![Cap::ZERO; n + 1];
        for i in 0..n {
            pre[i + 1] = pre[i] + load(i);
        }
        let range_load = |i: usize, j: usize| pre[j + 1].saturating_sub(pre[i]);
        // Sorted ascending => min required time of a range is its first.
        let range_req = |i: usize, _j: usize| req(i);

        let mut arena: ProvArena<LtStep> = ProvArena::new();
        // lt[i]: curve for driving sorted sinks i..n-1 through one buffer
        // stage (the buffer is part of the solution; load = its cin).
        let mut lt: Vec<Curve> = vec![Curve::new(); n + 1];
        for i in (0..n).rev() {
            let mut c = Curve::new();
            // The stage drives sinks i..=j directly plus, if j+1 < n, the
            // chained stage lt[j+1] (one extra child).
            for j in i..n {
                let direct = j - i + 1;
                let has_chain = j + 1 < n;
                if direct + usize::from(has_chain) > maxfan {
                    break;
                }
                let base_load = range_load(i, j);
                let base_req = range_req(i, j);
                if !has_chain {
                    for (bi, buf) in lib.iter().enumerate() {
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "< 2^16 cells and < 2^32 sinks"
                        )]
                        c.push(CurvePoint::with_load(
                            buf.cin,
                            base_req - buf.delay_linear_ps(base_load),
                            buf.area,
                            arena.push(LtStep::Stage {
                                buf: bi as u16,
                                first: i as u32,
                                last: j as u32,
                                chain: None,
                            }),
                        ));
                    }
                } else {
                    // Iterate the chain's curve points.
                    let chain_pts: Vec<CurvePoint> = lt[j + 1].iter().copied().collect();
                    for cp in chain_pts {
                        let below = base_load + cp.load;
                        let r = base_req.min(cp.req);
                        for (bi, buf) in lib.iter().enumerate() {
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "< 2^16 cells and < 2^32 sinks"
                            )]
                            c.push(CurvePoint::with_load(
                                buf.cin,
                                r - buf.delay_linear_ps(below),
                                buf.area + cp.area,
                                arena.push(LtStep::Stage {
                                    buf: bi as u16,
                                    first: i as u32,
                                    last: j as u32,
                                    chain: Some(cp.prov),
                                }),
                            ));
                        }
                    }
                }
            }
            c.prune();
            c.thin_to(self.config.max_curve_points);
            lt[i] = c;
        }

        // Top stage: the driver itself drives sinks 0..=j (or none... at
        // least one child) plus optionally the chain lt[j+1]; also the
        // chain-only option where the driver drives just the first buffer.
        let mut curve = Curve::new();
        let mut tops: Vec<(u32, Option<ProvId>)> = Vec::new();
        let push_top = |curve: &mut Curve,
                        tops: &mut Vec<(u32, Option<ProvId>)>,
                        root_load: Cap,
                        r: PsTime,
                        area: u64,
                        last: u32,
                        chain: Option<ProvId>| {
            let prov = ProvId::from_index(tops.len());
            tops.push((last, chain));
            curve.push(CurvePoint::with_load(
                root_load,
                r - driver.delay_linear_ps(root_load),
                area,
                prov,
            ));
        };
        // Chain-only: driver -> lt[0].
        {
            let pts: Vec<CurvePoint> = lt[0].iter().copied().collect();
            for cp in pts {
                push_top(
                    &mut curve,
                    &mut tops,
                    cp.load,
                    cp.req,
                    cp.area,
                    u32::MAX,
                    Some(cp.prov),
                );
            }
        }
        for j in 0..n {
            let direct = j + 1;
            let has_chain = j + 1 < n;
            if direct + usize::from(has_chain) > maxfan {
                break;
            }
            let base_load = range_load(0, j);
            let base_req = range_req(0, j);
            if !has_chain {
                #[expect(clippy::cast_possible_truncation, reason = "nets have < 2^32 sinks")]
                push_top(
                    &mut curve, &mut tops, base_load, base_req, 0, j as u32, None,
                );
            } else {
                let pts: Vec<CurvePoint> = lt[j + 1].iter().copied().collect();
                for cp in pts {
                    #[expect(clippy::cast_possible_truncation, reason = "nets have < 2^32 sinks")]
                    push_top(
                        &mut curve,
                        &mut tops,
                        base_load + cp.load,
                        base_req.min(cp.req),
                        cp.area,
                        j as u32,
                        Some(cp.prov),
                    );
                }
            }
        }
        curve.prune();
        curve.thin_to(self.config.max_curve_points);

        LtSolved {
            curve,
            arena,
            tops,
            sorted_to_original: idx,
        }
    }
}

impl LtSolved {
    /// The point with the best required time at the driver input.
    pub fn best_point(&self) -> Option<CurvePoint> {
        self.curve
            .iter()
            .max_by(|a, b| ps_cmp(a.req, b.req))
            .copied()
    }

    /// The cheapest point meeting `req ≥ target`, if any.
    pub fn min_area_point(&self, target: PsTime) -> Option<CurvePoint> {
        self.curve.min_area_with_req(target).copied()
    }

    /// Rebuilds the [`FanoutTree`] of a curve point.
    ///
    /// # Panics
    ///
    /// Panics if `point` did not come from this instance's curve.
    pub fn extract(&self, point: &CurvePoint) -> FanoutTree {
        let (last, chain) = self.tops[point.prov.index()];
        let mut nodes = Vec::new();
        let root_sinks = if last == u32::MAX {
            Vec::new()
        } else {
            (0..=last as usize)
                .map(|i| self.sorted_to_original[i])
                .collect()
        };
        nodes.push(FanoutNode {
            buffer: None,
            sinks: root_sinks,
            child: None,
        });
        let mut cur = chain;
        let mut parent = 0usize;
        while let Some(prov) = cur {
            let LtStep::Stage {
                buf,
                first,
                last,
                chain,
            } = self.arena[prov];
            let id = nodes.len();
            nodes[parent].child = Some(id);
            nodes.push(FanoutNode {
                buffer: Some(buf),
                sinks: (first as usize..=last as usize)
                    .map(|i| self.sorted_to_original[i])
                    .collect(),
                child: None,
            });
            parent = id;
            cur = chain;
        }
        FanoutTree { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::synthetic_035()
    }

    fn uniform(n: usize, ff: f64, req: PsTime) -> Vec<(Cap, PsTime)> {
        (0..n).map(|_| (Cap::from_ff(ff), req)).collect()
    }

    #[test]
    fn single_light_sink_needs_no_buffer() {
        let t = tech();
        let solved = LtTree::new(&t, LtConfig::default())
            .solve(&uniform(1, 5.0, 1000.0), &Driver::default());
        let best = solved.best_point().expect("DP curve is non-empty");
        assert_eq!(best.area, 0, "a single light sink is driven directly");
        let tree = solved.extract(&best);
        assert_eq!(tree.num_buffers(), 0);
        assert_eq!(tree.all_sinks(), vec![0]);
    }

    #[test]
    fn heavy_fanout_gets_buffered() {
        let t = tech();
        let driver = Driver::with_strength(1.0);
        let sinks = uniform(24, 60.0, 1000.0);
        let solved = LtTree::new(&t, LtConfig::default()).solve(&sinks, &driver);
        let best = solved.best_point().expect("DP curve is non-empty");
        assert!(best.area > 0, "24×60 fF from a weak driver needs buffers");
        // And it must beat the unbuffered direct drive.
        let lumped: Cap = sinks.iter().map(|s| s.0).sum();
        let direct = 1000.0 - driver.delay_linear_ps(lumped);
        assert!(best.req > direct);
        let tree = solved.extract(&best);
        let mut all = tree.all_sinks();
        all.sort_unstable();
        assert_eq!(all, (0..24).collect::<Vec<u32>>());
    }

    #[test]
    fn extraction_matches_dp_bookkeeping() {
        // Re-evaluate the extracted chain by hand and compare with the
        // curve values.
        let t = tech();
        let driver = Driver::default();
        let sinks: Vec<(Cap, PsTime)> = (0..10)
            .map(|i| (Cap::from_ff(10.0 + 3.0 * i as f64), 900.0 + 40.0 * i as f64))
            .collect();
        let solved = LtTree::new(&t, LtConfig::default()).solve(&sinks, &driver);
        for p in solved.curve.iter() {
            let tree = solved.extract(p);
            // Hand evaluation, deepest stage first.
            let order: Vec<usize> = {
                let mut o = Vec::new();
                let mut cur = Some(0usize);
                while let Some(i) = cur {
                    o.push(i);
                    cur = tree.nodes[i].child;
                }
                o
            };
            let mut req_child = f64::INFINITY;
            let mut load_child = Cap::ZERO;
            let mut area = 0u64;
            for &i in order.iter().rev() {
                let node = &tree.nodes[i];
                let mut load = load_child;
                let mut req = req_child;
                for &s in &node.sinks {
                    load += sinks[s as usize].0;
                    req = req.min(sinks[s as usize].1);
                }
                match node.buffer {
                    Some(b) => {
                        let buf = &t.library[b as usize];
                        req_child = req - buf.delay_linear_ps(load);
                        load_child = buf.cin;
                        area += buf.area;
                    }
                    None => {
                        req_child = req - driver.delay_linear_ps(load);
                        load_child = load;
                    }
                }
            }
            assert!(
                (req_child - p.req).abs() < 1e-6,
                "req mismatch: {} vs {}",
                req_child,
                p.req
            );
            assert_eq!(area, p.area);
            assert_eq!(load_child, p.load);
        }
    }

    #[test]
    fn respects_max_fanout() {
        let t = tech();
        let solved = LtTree::new(
            &t,
            LtConfig {
                max_fanout: 4,
                max_curve_points: 0,
            },
        )
        .solve(&uniform(13, 20.0, 1000.0), &Driver::default());
        let best = solved.best_point().expect("DP curve is non-empty");
        let tree = solved.extract(&best);
        for (i, node) in tree.nodes.iter().enumerate() {
            let children = node.sinks.len() + usize::from(node.child.is_some());
            assert!(children <= 4, "stage {i} has {children} children");
        }
    }

    #[test]
    fn critical_sinks_stay_near_the_root() {
        let t = tech();
        let mut sinks = uniform(12, 30.0, 1500.0);
        sinks[7].1 = 200.0; // one very critical sink
        let solved = LtTree::new(&t, LtConfig::default()).solve(&sinks, &Driver::default());
        let best = solved.best_point().expect("DP curve is non-empty");
        let tree = solved.extract(&best);
        // The critical sink must be in the shallowest stage that has sinks.
        let mut cur = Some(0usize);
        let mut first_stage_with_sinks = None;
        while let Some(i) = cur {
            if !tree.nodes[i].sinks.is_empty() {
                first_stage_with_sinks = Some(i);
                break;
            }
            cur = tree.nodes[i].child;
        }
        let stage = first_stage_with_sinks.expect("LTTREE assigns every sink to some stage");
        assert!(
            tree.nodes[stage].sinks.contains(&7),
            "critical sink not in stage {stage}: {:?}",
            tree.nodes
        );
    }
}
