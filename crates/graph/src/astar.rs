//! The geometric A* potential that goal-directs target searches.
//!
//! Road networks embed in the plane, and a street is rarely much shorter
//! than the straight line between its endpoints, so a scaled geometric
//! distance to the goal is a lower bound on the remaining road distance.
//! [`crate::sssp::SsspWorkspace::run_to_targets`] keys its queue by
//! `d(v) + π(v)` with
//!
//! ```text
//! π(v) = min over targets t of ⌊max(s₁·L1(v, t), s₂·L2(v, t))⌋
//! ```
//!
//! where `s₁` is the largest scale (at most 1) with `s₁·L1(u, v) ≤ w(u, v)`
//! on every edge, and `s₂` is the same for the straight-line (L2) distance.
//! Both norms obey the triangle inequality, so for every edge
//! `π(u) ≤ w(u, v) + π(v)` **and** `π(v) ≤ w(u, v) + π(u)`: the potential
//! is consistent in both search directions, and every reduced edge cost
//! lies in `[0, 2·w]`. Flooring keeps it integral without breaking either
//! inequality (`w` is a whole number of feet).
//!
//! Grids and other block-structured layouts get their bound from L1
//! (`s₁ = 1` on an unjittered grid); free-form city models get it from L2.
//! On a graph whose weights are decoupled from its coordinates both scales
//! collapse toward 0 and the search degrades to plain Dijkstra, never to a
//! wrong answer.
//!
//! The scales are computed once per graph, on the first target search
//! ([`crate::RoadGraph::potential`]); full-tree runs never pay for them.

use crate::geometry::Point;
use crate::graph::RoadGraph;
use crate::node::Distance;

/// Relative slack taken off both measured scales, so that floating-point
/// rounding in the ratio and in the per-node distances can never push
/// `π(u)` above `w(u, v) + π(v)`. It costs at most one foot of bound per ten
/// million.
const SCALE_SLACK: f64 = 1e-7;

/// The largest scale `s ≤ 1` such that `s · euclidean(u, v)` never exceeds
/// any edge length: the L2 half of the potential.
///
/// Returns 1.0 for geometrically consistent graphs and values near 0.0 when
/// some edge is far shorter than its straight line.
pub fn admissible_scale(graph: &RoadGraph) -> f64 {
    min_ratio(graph, Point::euclidean)
}

/// [`admissible_scale`] for the L1 (taxicab) distance: the largest `s ≤ 1`
/// with `s · manhattan(u, v) ≤ w(u, v)` on every edge.
pub(crate) fn admissible_l1_scale(graph: &RoadGraph) -> f64 {
    min_ratio(graph, Point::manhattan)
}

fn min_ratio(graph: &RoadGraph, norm: fn(Point, Point) -> f64) -> f64 {
    let mut scale: f64 = 1.0;
    for e in graph.edges() {
        let straight = norm(graph.point(e.src), graph.point(e.dst));
        if straight <= 0.0 {
            continue;
        }
        scale = scale.min(e.length.as_f64() / straight);
    }
    scale.max(0.0)
}

/// The two scales of the geometric potential for one graph.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GeometricPotential {
    l1: f64,
    l2: f64,
}

impl GeometricPotential {
    /// Measures both admissible scales of `graph` and shrinks each by a
    /// rounding margin of one part in ten million.
    pub fn for_graph(graph: &RoadGraph) -> Self {
        let slack = 1.0 - SCALE_SLACK;
        Self::new(
            admissible_l1_scale(graph) * slack,
            admissible_scale(graph) * slack,
        )
    }

    /// A potential with exactly the given L1 and L2 scales. They must be
    /// admissible for the graph the potential is used on, with room for
    /// floating-point rounding ([`GeometricPotential::for_graph`] leaves it).
    ///
    /// # Panics
    ///
    /// Panics if either scale is negative or not finite.
    pub(crate) fn new(l1: f64, l2: f64) -> Self {
        assert!(
            l1.is_finite() && l1 >= 0.0 && l2.is_finite() && l2 >= 0.0,
            "heuristic scale must be non-negative and finite"
        );
        GeometricPotential { l1, l2 }
    }

    /// The L1 scale in use.
    pub fn l1_scale(&self) -> f64 {
        self.l1
    }

    /// The L2 scale in use.
    pub fn l2_scale(&self) -> f64 {
        self.l2
    }

    /// `⌊max(s₁·L1(p, t), s₂·L2(p, t))⌋`: a lower bound on the road distance
    /// between `p` and `t`, in either direction.
    #[inline]
    fn bound(&self, p: Point, t: Point) -> Distance {
        let (dx, dy) = ((p.x - t.x).abs(), (p.y - t.y).abs());
        let l1 = dx + dy;
        let mut h = self.l1 * l1;
        // L2 ≤ L1, so the square root can only win when s₂·L1 beats s₁·L1.
        if self.l2 * l1 > h {
            h = h.max(self.l2 * (dx * dx + dy * dy).sqrt());
        }
        // `as` truncates toward zero, which is the floor for h ≥ 0.
        Distance::from_feet(h as u64)
    }

    /// `π(p)` for a target set: the smallest bound from `p` to any of
    /// `targets` (zero when empty), a lower bound on the road distance
    /// between `p` and its nearest target in either direction.
    #[inline]
    pub fn to_nearest(&self, p: Point, targets: &[Point]) -> Distance {
        targets
            .iter()
            .map(|&t| self.bound(p, t))
            .min()
            .unwrap_or(Distance::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{self, Direction};
    use crate::error::GraphError;
    use crate::generators::{random_geometric, RadialRingParams};
    use crate::geometry::BoundingBox;
    use crate::graph::GraphBuilder;
    use crate::grid::GridGraph;
    use crate::node::NodeId;
    use crate::sssp::SsspWorkspace;

    /// Goal-directed run from `from` to `to` against the reference tree:
    /// the same path node for node, or the same unreachability.
    fn assert_matches_reference(g: &RoadGraph, ws: &mut SsspWorkspace, from: u32, to: u32) {
        let (from, to) = (NodeId::new(from), NodeId::new(to));
        ws.run_to_targets(g, from, Direction::Forward, &[to]);
        match dijkstra::shortest_path_tree(g, from).path_to(to) {
            Ok(reference) => {
                let p = ws.path_to(to).expect("goal-directed run reaches target");
                assert_eq!(p.nodes(), reference.nodes(), "{from}->{to}");
                assert_eq!(p.length(), reference.length(), "{from}->{to}");
            }
            Err(_) => assert!(ws.path_to(to).is_err(), "{from}->{to}"),
        }
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let grid = GridGraph::new(8, 8, Distance::from_feet(250));
        let g = grid.graph();
        assert_eq!(admissible_l1_scale(g), 1.0);
        let mut ws = SsspWorkspace::for_graph(g);
        for (a, b) in [(0u32, 63u32), (7, 56), (12, 51), (0, 1), (63, 0)] {
            assert_matches_reference(g, &mut ws, a, b);
        }
    }

    #[test]
    fn matches_dijkstra_on_random_geometric() {
        let bb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(5_000.0, 5_000.0));
        let g = random_geometric(60, bb, 1_200.0, 3);
        let scale = g.potential().l2_scale();
        assert!(
            scale > 0.99,
            "euclidean edges should be near-exact, got {scale}"
        );
        let mut ws = SsspWorkspace::for_graph(&g);
        for target in [1u32, 17, 42, 59] {
            assert_matches_reference(&g, &mut ws, 0, target);
        }
    }

    #[test]
    fn matches_dijkstra_on_radial_city() {
        let g = crate::generators::radial_ring_city(Point::ORIGIN, RadialRingParams::default(), 5);
        let mut ws = SsspWorkspace::for_graph(&g);
        for target in 1..g.node_count() as u32 {
            assert_matches_reference(&g, &mut ws, 0, target);
        }
    }

    #[test]
    fn inconsistent_geometry_degrades_gracefully() {
        // An edge much shorter than its straight-line distance: the scales
        // collapse and the search still returns the true shortest path.
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(10_000.0, 0.0));
        let v2 = b.add_node(Point::new(5_000.0, 5_000.0));
        b.add_two_way(v0, v1, Distance::from_feet(10)).unwrap(); // teleport street
        b.add_two_way(v0, v2, Distance::from_feet(8_000)).unwrap();
        b.add_two_way(v2, v1, Distance::from_feet(8_000)).unwrap();
        let g = b.build();
        assert!(admissible_scale(&g) < 0.01);
        assert!(admissible_l1_scale(&g) < 0.01);
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run_to_targets(&g, v0, Direction::Forward, &[v1]);
        assert_eq!(ws.path_to(v1).unwrap().length(), Distance::from_feet(10));
        assert_matches_reference(&g, &mut ws, 2, 1);
    }

    #[test]
    fn unreachable_and_bad_nodes() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let island = b.add_node(Point::new(1.0, 0.0));
        let g = b.build();
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run_to_targets(&g, a, Direction::Forward, &[island]);
        assert!(matches!(
            ws.path_to(island),
            Err(GraphError::Unreachable { .. })
        ));
        ws.run_to_targets(&g, a, Direction::Forward, &[NodeId::new(9)]);
        assert!(matches!(
            ws.path_to(NodeId::new(9)),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn trivial_query() {
        let grid = GridGraph::new(2, 2, Distance::from_feet(10));
        let mut ws = SsspWorkspace::for_graph(grid.graph());
        ws.run_to_targets(
            grid.graph(),
            NodeId::new(0),
            Direction::Forward,
            &[NodeId::new(0)],
        );
        assert!(ws.path_to(NodeId::new(0)).unwrap().is_trivial());
    }

    #[test]
    #[should_panic(expected = "heuristic scale")]
    fn negative_scale_panics() {
        let _ = GeometricPotential::new(1.0, -1.0);
    }

    #[test]
    fn bound_is_consistent_on_every_grid_edge() {
        let grid = GridGraph::new(6, 5, Distance::from_feet(37));
        let g = grid.graph();
        let pot = g.potential();
        let targets = [g.point(NodeId::new(4)), g.point(NodeId::new(23))];
        for e in g.edges() {
            let (pu, pv) = (
                pot.to_nearest(g.point(e.src), &targets),
                pot.to_nearest(g.point(e.dst), &targets),
            );
            assert!(pu <= e.length.saturating_add(pv), "{e:?}");
            assert!(pv <= e.length.saturating_add(pu), "{e:?}");
        }
        assert_eq!(pot.to_nearest(targets[0], &targets), Distance::ZERO);
    }
}
