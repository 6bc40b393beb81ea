//! The road-network graph and its builder.
//!
//! [`RoadGraph`] is an immutable directed graph over street intersections with
//! CSR (compressed sparse row) adjacency in both directions, so that forward
//! Dijkstra (distances *from* a source) and reverse Dijkstra (distances *to* a
//! target, following edges backwards) are both cache-friendly. Graphs are
//! assembled through [`GraphBuilder`] and frozen by [`GraphBuilder::build`].

use crate::astar::GeometricPotential;
use crate::error::GraphError;
use crate::geometry::{BoundingBox, Point};
use crate::node::{Distance, EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A directed street segment between two intersections.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Edge {
    /// Intersection the segment leaves.
    pub src: NodeId,
    /// Intersection the segment enters.
    pub dst: NodeId,
    /// Exact segment length.
    pub length: Distance,
}

/// A directed neighbor entry in the adjacency structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Neighbor {
    /// The adjacent intersection.
    pub node: NodeId,
    /// Length of the connecting segment.
    pub length: Distance,
    /// Identifier of the connecting segment.
    pub edge: EdgeId,
}

/// An immutable directed road network.
///
/// Nodes are street intersections with planar coordinates; edges are directed
/// street segments with exact lengths. Build one with [`GraphBuilder`]:
///
/// ```
/// use rap_graph::{GraphBuilder, Point, Distance};
/// # fn main() -> Result<(), rap_graph::GraphError> {
/// let mut b = GraphBuilder::new();
/// let v0 = b.add_node(Point::new(0.0, 0.0));
/// let v1 = b.add_node(Point::new(1.0, 0.0));
/// b.add_edge(v0, v1, Distance::from_feet(1))?; // one-way street
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.out_degree(v0), 1);
/// assert_eq!(g.in_degree(v1), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RoadGraph {
    points: Vec<Point>,
    edges: Vec<Edge>,
    // Forward CSR: out_adj[out_offsets[v] .. out_offsets[v+1]] are v's
    // outgoing neighbors.
    out_offsets: Vec<u32>,
    out_adj: Vec<Neighbor>,
    // Reverse CSR: in_adj[in_offsets[v] .. in_offsets[v+1]] are v's incoming
    // neighbors (entry.node is the *source* of the incoming edge).
    in_offsets: Vec<u32>,
    in_adj: Vec<Neighbor>,
    /// The A* potential's scales, measured on the first target search.
    potential: OnceLock<GeometricPotential>,
}

impl RoadGraph {
    /// Number of intersections.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of directed street segments.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns true if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.points.len() as u32).map(NodeId::new)
    }

    /// Iterates over all edges in id order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Returns the coordinates of an intersection.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds; node ids obtained from this graph's
    /// builder are always in bounds.
    pub fn point(&self, node: NodeId) -> Point {
        self.points[node.index()]
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of bounds.
    pub fn edge(&self, edge: EdgeId) -> Edge {
        self.edges[edge.index()]
    }

    /// Returns true if `node` is a valid id for this graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.points.len()
    }

    /// Validates that `node` belongs to this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] otherwise.
    pub fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.contains_node(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.points.len(),
            })
        }
    }

    /// The geometric A* potential for this graph
    /// ([`GeometricPotential::for_graph`]), measured once on first use and
    /// shared by every clone made afterwards.
    pub fn potential(&self) -> GeometricPotential {
        *self
            .potential
            .get_or_init(|| GeometricPotential::for_graph(self))
    }

    /// Pins the potential before first use: lets tests run searches under an
    /// exact potential, whose bound is tight on straight runs — something
    /// the rounding slack of [`GeometricPotential::for_graph`] never gives.
    #[cfg(test)]
    pub(crate) fn with_potential(self, potential: GeometricPotential) -> Self {
        self.potential
            .set(potential)
            .expect("potential pinned before first use");
        self
    }

    /// Outgoing neighbors of `node`.
    pub fn out_neighbors(&self, node: NodeId) -> &[Neighbor] {
        let lo = self.out_offsets[node.index()] as usize;
        let hi = self.out_offsets[node.index() + 1] as usize;
        &self.out_adj[lo..hi]
    }

    /// Incoming neighbors of `node` (each entry's `node` field is the edge's
    /// source).
    pub fn in_neighbors(&self, node: NodeId) -> &[Neighbor] {
        let lo = self.in_offsets[node.index()] as usize;
        let hi = self.in_offsets[node.index() + 1] as usize;
        &self.in_adj[lo..hi]
    }

    /// Number of outgoing segments at `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_neighbors(node).len()
    }

    /// Number of incoming segments at `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_neighbors(node).len()
    }

    /// Returns the length of the directed edge from `src` to `dst`, if one
    /// exists. When parallel edges exist, the shortest is returned.
    pub fn edge_length(&self, src: NodeId, dst: NodeId) -> Option<Distance> {
        self.out_neighbors(src)
            .iter()
            .filter(|n| n.node == dst)
            .map(|n| n.length)
            .min()
    }

    /// The bounding box of all intersection coordinates, or `None` for an
    /// empty graph.
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        let first = *self.points.first()?;
        let mut bb = BoundingBox::new(first, first);
        for p in &self.points[1..] {
            bb = BoundingBox::new(
                Point::new(bb.min.x.min(p.x), bb.min.y.min(p.y)),
                Point::new(bb.max.x.max(p.x), bb.max.y.max(p.y)),
            );
        }
        Some(bb)
    }

    /// Returns the node nearest to `p` by Euclidean distance, or `None` for an
    /// empty graph. Ties break toward the lower node id.
    pub fn nearest_node(&self, p: Point) -> Option<NodeId> {
        self.points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.euclidean(p)
                    .partial_cmp(&b.euclidean(p))
                    .expect("coordinates are finite")
            })
            .map(|(i, _)| NodeId::new(i as u32))
    }

    /// Returns all nodes whose coordinates fall inside `bb`.
    pub fn nodes_in(&self, bb: &BoundingBox) -> Vec<NodeId> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| bb.contains(**p))
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }

    /// Decomposes the graph back into a builder with identical nodes and
    /// edges, for incremental modification.
    pub fn to_builder(&self) -> GraphBuilder {
        GraphBuilder {
            points: self.points.clone(),
            edges: self.edges.clone(),
        }
    }
}

/// Incremental builder for [`RoadGraph`].
///
/// Collect nodes and edges in any order, then call [`GraphBuilder::build`] to
/// freeze them into CSR form. See [`RoadGraph`] for a usage example.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GraphBuilder {
    points: Vec<Point>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for roughly `nodes` intersections and
    /// `edges` segments.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            points: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an intersection at `point` and returns its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId::new(self.points.len() as u32);
        self.points.push(point);
        id
    }

    /// Adds a one-way street segment from `src` to `dst` with the given exact
    /// length.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint has not been added.
    /// * [`GraphError::SelfLoop`] if `src == dst`.
    /// * [`GraphError::ZeroLengthEdge`] if `length` is zero.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        length: Distance,
    ) -> Result<EdgeId, GraphError> {
        let n = self.points.len();
        for node in [src, dst] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfBounds {
                    node,
                    node_count: n,
                });
            }
        }
        if src == dst {
            return Err(GraphError::SelfLoop { node: src });
        }
        if length.is_zero() {
            return Err(GraphError::ZeroLengthEdge { src, dst });
        }
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, length });
        Ok(id)
    }

    /// Adds an edge skipping only the zero-length check, so property tests
    /// can probe the shortest-path kernels with the zero-length edges the
    /// public API refuses to construct. Bounds and self-loop checks still
    /// apply. Test-only; not part of the supported API.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint has not been added.
    /// * [`GraphError::SelfLoop`] if `src == dst`.
    #[doc(hidden)]
    pub fn add_edge_allow_zero(
        &mut self,
        src: NodeId,
        dst: NodeId,
        length: Distance,
    ) -> Result<EdgeId, GraphError> {
        let n = self.points.len();
        for node in [src, dst] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfBounds {
                    node,
                    node_count: n,
                });
            }
        }
        if src == dst {
            return Err(GraphError::SelfLoop { node: src });
        }
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, length });
        Ok(id)
    }

    /// Adds a two-way street as a pair of opposite directed edges and returns
    /// both ids (`src→dst` first).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_edge`].
    pub fn add_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        length: Distance,
    ) -> Result<(EdgeId, EdgeId), GraphError> {
        let forward = self.add_edge(a, b, length)?;
        let backward = self.add_edge(b, a, length)?;
        Ok((forward, backward))
    }

    /// Adds a two-way street whose length is the Euclidean distance between
    /// the endpoints' coordinates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_edge`]; coincident points yield
    /// [`GraphError::ZeroLengthEdge`].
    pub fn add_two_way_euclidean(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> Result<(EdgeId, EdgeId), GraphError> {
        let n = self.points.len();
        for node in [a, b] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfBounds {
                    node,
                    node_count: n,
                });
            }
        }
        let length = self.points[a.index()].euclidean_distance(self.points[b.index()]);
        self.add_two_way(a, b, length)
    }

    /// Returns the coordinates of an already-added node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn point(&self, node: NodeId) -> Point {
        self.points[node.index()]
    }

    /// Returns true if a directed edge `src → dst` has already been added.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.edges.iter().any(|e| e.src == src && e.dst == dst)
    }

    /// Freezes the builder into an immutable [`RoadGraph`].
    pub fn build(self) -> RoadGraph {
        let n = self.points.len();
        let mut out_counts = vec![0u32; n + 1];
        let mut in_counts = vec![0u32; n + 1];
        for e in &self.edges {
            out_counts[e.src.index() + 1] += 1;
            in_counts[e.dst.index() + 1] += 1;
        }
        for i in 0..n {
            out_counts[i + 1] += out_counts[i];
            in_counts[i + 1] += in_counts[i];
        }
        let out_offsets = out_counts;
        let in_offsets = in_counts;

        let placeholder = Neighbor {
            node: NodeId::new(0),
            length: Distance::ZERO,
            edge: EdgeId::new(0),
        };
        let mut out_adj = vec![placeholder; self.edges.len()];
        let mut in_adj = vec![placeholder; self.edges.len()];
        let mut out_cursor: Vec<u32> = out_offsets[..n].to_vec();
        let mut in_cursor: Vec<u32> = in_offsets[..n].to_vec();
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId::new(i as u32);
            let oc = &mut out_cursor[e.src.index()];
            out_adj[*oc as usize] = Neighbor {
                node: e.dst,
                length: e.length,
                edge: id,
            };
            *oc += 1;
            let ic = &mut in_cursor[e.dst.index()];
            in_adj[*ic as usize] = Neighbor {
                node: e.src,
                length: e.length,
                edge: id,
            };
            *ic += 1;
        }

        RoadGraph {
            points: self.points,
            edges: self.edges,
            out_offsets,
            out_adj,
            in_offsets,
            in_adj,
            potential: OnceLock::new(),
        }
    }
}

impl From<RoadGraph> for GraphBuilder {
    fn from(g: RoadGraph) -> Self {
        GraphBuilder {
            points: g.points,
            edges: g.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (RoadGraph, [NodeId; 3]) {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(Point::new(0.0, 0.0));
        let v1 = b.add_node(Point::new(3.0, 0.0));
        let v2 = b.add_node(Point::new(0.0, 4.0));
        b.add_two_way(v0, v1, Distance::from_feet(3)).unwrap();
        b.add_two_way(v1, v2, Distance::from_feet(5)).unwrap();
        b.add_edge(v2, v0, Distance::from_feet(4)).unwrap(); // one-way
        (b.build(), [v0, v1, v2])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, [v0, v1, v2]) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 5);
        assert!(!g.is_empty());
        assert_eq!(g.out_degree(v0), 1);
        assert_eq!(g.out_degree(v1), 2);
        assert_eq!(g.out_degree(v2), 2);
        assert_eq!(g.in_degree(v0), 2);
        assert_eq!(g.in_degree(v2), 1);
    }

    #[test]
    fn adjacency_contents() {
        let (g, [v0, v1, v2]) = triangle();
        let out: Vec<NodeId> = g.out_neighbors(v1).iter().map(|n| n.node).collect();
        assert!(out.contains(&v0));
        assert!(out.contains(&v2));
        let incoming: Vec<NodeId> = g.in_neighbors(v0).iter().map(|n| n.node).collect();
        assert!(incoming.contains(&v1));
        assert!(incoming.contains(&v2));
        assert_eq!(g.edge_length(v0, v1), Some(Distance::from_feet(3)));
        assert_eq!(g.edge_length(v2, v0), Some(Distance::from_feet(4)));
        assert_eq!(g.edge_length(v0, v2), None); // one-way, reverse missing
    }

    #[test]
    fn parallel_edges_shortest_wins() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, Distance::from_feet(10)).unwrap();
        b.add_edge(a, c, Distance::from_feet(7)).unwrap();
        let g = b.build();
        assert_eq!(g.edge_length(a, c), Some(Distance::from_feet(7)));
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(Point::ORIGIN);
        let v1 = b.add_node(Point::new(1.0, 0.0));
        assert!(matches!(
            b.add_edge(v0, NodeId::new(9), Distance::from_feet(1)),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            b.add_edge(v0, v0, Distance::from_feet(1)),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            b.add_edge(v0, v1, Distance::ZERO),
            Err(GraphError::ZeroLengthEdge { .. })
        ));
    }

    #[test]
    fn euclidean_two_way() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(30.0, 40.0));
        b.add_two_way_euclidean(a, c).unwrap();
        let g = b.build();
        assert_eq!(g.edge_length(a, c), Some(Distance::from_feet(50)));
        assert_eq!(g.edge_length(c, a), Some(Distance::from_feet(50)));
    }

    #[test]
    fn euclidean_two_way_rejects_coincident_points() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(1.0, 1.0));
        let c = b.add_node(Point::new(1.0, 1.0));
        assert!(matches!(
            b.add_two_way_euclidean(a, c),
            Err(GraphError::ZeroLengthEdge { .. })
        ));
    }

    #[test]
    fn nearest_node_and_bbox() {
        let (g, [v0, _, v2]) = triangle();
        assert_eq!(g.nearest_node(Point::new(0.1, 0.1)), Some(v0));
        assert_eq!(g.nearest_node(Point::new(0.0, 10.0)), Some(v2));
        let bb = g.bounding_box().unwrap();
        assert_eq!(bb.min, Point::new(0.0, 0.0));
        assert_eq!(bb.max, Point::new(3.0, 4.0));
    }

    #[test]
    fn nodes_in_box() {
        let (g, [v0, v1, _]) = triangle();
        let bb = BoundingBox::new(Point::new(-1.0, -1.0), Point::new(3.5, 1.0));
        let inside = g.nodes_in(&bb);
        assert!(inside.contains(&v0));
        assert!(inside.contains(&v1));
        assert_eq!(inside.len(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.bounding_box(), None);
        assert_eq!(g.nearest_node(Point::ORIGIN), None);
        assert!(!g.contains_node(NodeId::new(0)));
        assert!(g.check_node(NodeId::new(0)).is_err());
    }

    #[test]
    fn roundtrip_through_builder() {
        let (g, _) = triangle();
        let g2 = g.to_builder().build();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for (a, b) in g.edges().zip(g2.edges()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn nodes_iterator_is_exact() {
        let (g, _) = triangle();
        let ids: Vec<NodeId> = g.nodes().collect();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], NodeId::new(0));
        assert_eq!(ids[2], NodeId::new(2));
    }
}
