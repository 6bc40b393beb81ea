//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rap_graph::apsp::DistanceMatrix;
use rap_graph::dijkstra::Direction;
use rap_graph::sssp::{SsspKernel, SsspWorkspace, MAX_BUCKET_COUNT};
use rap_graph::{dijkstra, BoundingBox, Distance, GraphBuilder, GridGraph, NodeId, Point};

/// Strategy: a random connected-ish directed graph as (node count, edge
/// list); edges may be dense or sparse, lengths in 1..=1000.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2usize..12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u64..1_000), 1..40);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32, u64)]) -> rap_graph::RoadGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node(Point::new(i as f64, 0.0));
    }
    for &(s, d, l) in edges {
        if s != d {
            let _ = b.add_edge(NodeId::new(s), NodeId::new(d), Distance::from_feet(l));
        }
    }
    b.build()
}

/// Asserts that both SSSP kernels match the reference binary-heap tree
/// bit-for-bit: same settled distances and, for every reachable node, the
/// same extracted path (i.e. identical predecessor arrays).
fn assert_kernels_match_reference(
    g: &rap_graph::RoadGraph,
    root: NodeId,
) -> Result<(), TestCaseError> {
    for direction in [Direction::Forward, Direction::Reverse] {
        let reference = match direction {
            Direction::Forward => dijkstra::shortest_path_tree(g, root),
            Direction::Reverse => dijkstra::reverse_shortest_path_tree(g, root),
        };
        let mut bucket = SsspWorkspace::with_kernel_for_graph(g, SsspKernel::BucketQueue);
        let mut heap = SsspWorkspace::with_kernel_for_graph(g, SsspKernel::BinaryHeap);
        bucket.run(g, root, direction);
        heap.run(g, root, direction);
        for v in g.nodes() {
            prop_assert_eq!(bucket.distance(v), reference.distance(v));
            prop_assert_eq!(heap.distance(v), reference.distance(v));
            let (b, h, r) = (bucket.path_to(v), heap.path_to(v), reference.path_to(v));
            match r {
                Ok(path) => {
                    let bp = b.expect("bucket routes reachable node");
                    let hp = h.expect("heap routes reachable node");
                    prop_assert_eq!(bp.nodes(), path.nodes());
                    prop_assert_eq!(hp.nodes(), path.nodes());
                }
                Err(_) => {
                    prop_assert!(b.is_err());
                    prop_assert!(h.is_err());
                }
            }
        }
    }
    Ok(())
}

/// Asserts that a goal-directed target run gives every target exactly the
/// reference tree's path — the same node sequence, hence the same
/// predecessor chain — and agrees on unreachability, in both directions.
/// Each case runs twice: with `targets` as given, and with the root and a
/// duplicate of the first target appended.
fn assert_targets_match_reference(
    g: &rap_graph::RoadGraph,
    root: NodeId,
    targets: &[NodeId],
) -> Result<(), TestCaseError> {
    let mut extended = targets.to_vec();
    extended.push(root);
    extended.extend(targets.first().copied());
    let mut ws = SsspWorkspace::for_graph(g);
    for direction in [Direction::Forward, Direction::Reverse] {
        let reference = match direction {
            Direction::Forward => dijkstra::shortest_path_tree(g, root),
            Direction::Reverse => dijkstra::reverse_shortest_path_tree(g, root),
        };
        for set in [targets, &extended[..]] {
            ws.run_to_targets(g, root, direction, set);
            for &t in set {
                prop_assert_eq!(ws.distance(t), reference.distance(t));
                match reference.path_to(t) {
                    Ok(path) => {
                        let got = ws.path_to(t).expect("goal-directed run reaches target");
                        prop_assert_eq!(got.nodes(), path.nodes());
                    }
                    Err(_) => prop_assert!(ws.path_to(t).is_err()),
                }
            }
        }
    }
    Ok(())
}

/// Strategy: a random directed graph whose node coordinates are scattered
/// over a million-foot square independently of its edge lengths (1..1000
/// ft), so both potential scales collapse to (nearly) zero.
fn arb_decoupled_graph() -> impl Strategy<Value = rap_graph::RoadGraph> {
    (2usize..12).prop_flat_map(|n| {
        let points = proptest::collection::vec((0.0f64..1e6, 0.0f64..1e6), n);
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u64..1_000), 1..40);
        (points, edges).prop_map(|(points, edges)| {
            let mut b = GraphBuilder::new();
            for (x, y) in points {
                b.add_node(Point::new(x, y));
            }
            for (s, d, l) in edges {
                if s != d {
                    let _ = b.add_edge(NodeId::new(s), NodeId::new(d), Distance::from_feet(l));
                }
            }
            b.build()
        })
    })
}

proptest! {
    /// Dijkstra and Floyd–Warshall must agree on every pair.
    #[test]
    fn dijkstra_matches_floyd_warshall((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let a = DistanceMatrix::dijkstra_all(&g);
        let b = DistanceMatrix::floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(a.get(u, v), b.get(u, v));
            }
        }
    }

    /// Both SSSP kernels, explicitly forced, fill the whole distance matrix
    /// exactly as Floyd–Warshall does.
    #[test]
    fn kernel_apsp_matches_floyd_warshall((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let fw = DistanceMatrix::floyd_warshall(&g);
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let m = DistanceMatrix::dijkstra_all_with_kernel(&g, kernel);
            for u in g.nodes() {
                for v in g.nodes() {
                    prop_assert_eq!(m.get(u, v), fw.get(u, v));
                }
            }
        }
    }

    /// Bucket and heap kernels are bit-identical to the reference tree —
    /// distances AND predecessors — in both directions, from any root.
    ///
    /// Zero-length edges are unconstructible (`GraphBuilder::add_edge`
    /// rejects them with `GraphError::ZeroLengthEdge`), so lengths start at
    /// 1 — exactly the invariant the kernels' settle-order argument relies
    /// on.
    #[test]
    fn sssp_kernels_are_bit_identical((n, edges) in arb_graph(), root_raw in 0usize..64) {
        let g = build(n, &edges);
        let root = NodeId::new((root_raw % n) as u32);
        assert_kernels_match_reference(&g, root)?;
    }

    /// Maximum edge-length spread: lengths right up to the bucket-array
    /// limit (`MAX_BUCKET_COUNT - 1` feet) stay exact under the forced
    /// bucket kernel.
    #[test]
    fn sssp_kernels_survive_max_spread_edges(
        n in 2usize..8,
        edges in proptest::collection::vec(
            (0u32..8, 0u32..8, 1u64..(MAX_BUCKET_COUNT as u64)),
            1..16,
        ),
    ) {
        let edges: Vec<(u32, u32, u64)> = edges
            .into_iter()
            .map(|(s, d, l)| (s % n as u32, d % n as u32, l))
            .collect();
        let g = build(n, &edges);
        assert_kernels_match_reference(&g, NodeId::new(0))?;
    }

    /// The distance matrix satisfies the triangle inequality.
    #[test]
    fn triangle_inequality((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let m = DistanceMatrix::dijkstra_all(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                for w in g.nodes() {
                    if let (Some(uv), Some(vw)) = (m.get(u, v), m.get(v, w)) {
                        let uw = m.get(u, w).expect("reachable via v");
                        prop_assert!(uw <= uv.saturating_add(vw));
                    }
                }
            }
        }
    }

    /// Extracted shortest paths are valid walks with the reported length.
    #[test]
    fn extracted_paths_are_consistent((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let source = NodeId::new(0);
        let tree = dijkstra::shortest_path_tree(&g, source);
        for v in g.nodes() {
            if let Ok(path) = tree.path_to(v) {
                prop_assert_eq!(path.origin(), source);
                prop_assert_eq!(path.destination(), v);
                // Re-validating through Path::new must agree on the length.
                let revalidated =
                    rap_graph::Path::new(&g, path.nodes().to_vec()).expect("tree path is valid");
                prop_assert!(revalidated.length() <= path.length());
                prop_assert_eq!(tree.distance(v), Some(path.length()));
            }
        }
    }

    /// Reverse trees agree with forward trees run from every source.
    #[test]
    fn reverse_tree_agrees_with_forward((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let target = NodeId::new((n - 1) as u32);
        let rev = dijkstra::reverse_shortest_path_tree(&g, target);
        for v in g.nodes() {
            let fwd = dijkstra::shortest_path_tree(&g, v);
            prop_assert_eq!(rev.distance(v), fwd.distance(target));
        }
    }

    /// Text serialization round-trips arbitrary graphs.
    #[test]
    fn text_io_roundtrip((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        rap_graph::io::write_text(&g, &mut buf).expect("write succeeds");
        let g2 = rap_graph::io::read_text(buf.as_slice()).expect("read succeeds");
        prop_assert_eq!(g.node_count(), g2.node_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        for (a, b) in g.edges().zip(g2.edges()) {
            prop_assert_eq!(a, b);
        }
    }

    /// In a uniform grid, L1 block distance equals the shortest-path
    /// distance.
    #[test]
    fn grid_l1_equals_dijkstra(rows in 2u32..6, cols in 2u32..6, spacing in 1u64..500) {
        let grid = GridGraph::new(rows, cols, Distance::from_feet(spacing));
        let tree = dijkstra::shortest_path_tree(grid.graph(), NodeId::new(0));
        for v in grid.graph().nodes() {
            prop_assert_eq!(
                tree.distance(v),
                Some(grid.street_distance(NodeId::new(0), v))
            );
        }
    }

    /// Random geometric graphs are strongly connected for any seed.
    #[test]
    fn random_geometric_always_connected(seed in 0u64..50, n in 2usize..25) {
        let bb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
        let g = rap_graph::generators::random_geometric(n, bb, 200.0, seed);
        prop_assert!(DistanceMatrix::dijkstra_all(&g).strongly_connected());
    }

    /// Goal-directed target runs on adversarial random graphs — sparse,
    /// dense, unreachable targets, duplicate targets, the root as a target
    /// — give every target the reference tree's path.
    #[test]
    fn goal_directed_target_runs_match_reference_tree(
        (n, edges) in arb_graph(),
        root_raw in 0usize..64,
        target_raw in proptest::collection::vec(0usize..64, 1..6),
    ) {
        let g = build(n, &edges);
        let root = NodeId::new((root_raw % n) as u32);
        let targets: Vec<NodeId> = target_raw
            .iter()
            .map(|&t| NodeId::new((t % n) as u32))
            .collect();
        assert_targets_match_reference(&g, root, &targets)?;
    }

    /// The same identity over unjittered grids, where every monotone
    /// staircase ties and the L1 potential is exact (scale 1): the worst
    /// case for the canonical tie rule.
    #[test]
    fn goal_directed_grid_runs_match_reference_tree(
        rows in 2u32..9,
        cols in 2u32..9,
        spacing in 1u64..400,
        root_raw in 0u32..128,
        target_raw in proptest::collection::vec(0u32..128, 1..5),
    ) {
        let grid = GridGraph::new(rows, cols, Distance::from_feet(spacing));
        let n = grid.graph().node_count() as u32;
        let root = NodeId::new(root_raw % n);
        let targets: Vec<NodeId> =
            target_raw.iter().map(|&t| NodeId::new(t % n)).collect();
        assert_targets_match_reference(grid.graph(), root, &targets)?;
    }

    /// Random geometric graphs (straight-line street lengths, L2 scale near
    /// 1): the potential is tight and the search narrow.
    #[test]
    fn goal_directed_geometric_runs_match_reference_tree(
        seed in 0u64..1_000,
        n in 2usize..40,
        root_raw in 0usize..64,
        target_raw in proptest::collection::vec(0usize..64, 1..5),
    ) {
        let bb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(4_000.0, 4_000.0));
        let g = rap_graph::generators::random_geometric(n, bb, 900.0, seed);
        let root = NodeId::new((root_raw % n) as u32);
        let targets: Vec<NodeId> = target_raw
            .iter()
            .map(|&t| NodeId::new((t % n) as u32))
            .collect();
        assert_targets_match_reference(&g, root, &targets)?;
    }

    /// Coordinates decoupled from weights: the scales fall to (nearly) zero
    /// and the search degrades to Dijkstra order, still on reference paths.
    #[test]
    fn goal_directed_runs_with_decoupled_coordinates_match_reference_tree(
        g in arb_decoupled_graph(),
        root_raw in 0usize..64,
        target_raw in proptest::collection::vec(0usize..64, 1..5),
    ) {
        let n = g.node_count();
        prop_assert!(g.potential().l1_scale() < 0.01);
        let root = NodeId::new((root_raw % n) as u32);
        let targets: Vec<NodeId> = target_raw
            .iter()
            .map(|&t| NodeId::new((t % n) as u32))
            .collect();
        assert_targets_match_reference(&g, root, &targets)?;
    }

    /// The potential is consistent in both directions on every edge,
    /// `π(u) ≤ w(u, v) + π(v)` and `π(v) ≤ w(u, v) + π(u)`, and zero on the
    /// targets — on geometric graphs with coordinates up to a million feet,
    /// where float rounding is largest, and on decoupled ones.
    #[test]
    fn potential_is_consistent_on_every_edge(
        seed in 0u64..1_000,
        n in 2usize..40,
        extent in 1_000.0f64..1e6,
        decoupled in arb_decoupled_graph(),
        target_raw in proptest::collection::vec(0usize..64, 1..5),
    ) {
        let bb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(extent, extent));
        let geometric = rap_graph::generators::random_geometric(n, bb, extent / 4.0, seed);
        for g in [&geometric, &decoupled] {
            let pot = g.potential();
            let goals: Vec<Point> = target_raw
                .iter()
                .map(|&t| g.point(NodeId::new((t % g.node_count()) as u32)))
                .collect();
            let pi = |v: NodeId| pot.to_nearest(g.point(v), &goals);
            for e in g.edges() {
                prop_assert!(pi(e.src) <= e.length.saturating_add(pi(e.dst)), "{:?}", e);
                prop_assert!(pi(e.dst) <= e.length.saturating_add(pi(e.src)), "{:?}", e);
            }
            for &p in &goals {
                prop_assert_eq!(pot.to_nearest(p, &goals), Distance::ZERO);
            }
        }
    }

    /// Zero-length edges (unconstructible through the public API, injected
    /// via the test-only builder hook) zero both scales. Goal-directed runs
    /// keep exact distances and return real walks of that length; the
    /// node sequence may differ from the reference, whose own settle order
    /// stops being `(distance, id)` once zero-length edges exist.
    #[test]
    fn goal_directed_runs_survive_zero_length_edges(
        n in 2usize..10,
        edges in proptest::collection::vec((0u32..10, 0u32..10, 0u64..60), 1..30),
        root_raw in 0usize..64,
        target_raw in proptest::collection::vec(0usize..64, 1..5),
    ) {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for &(s, d, l) in &edges {
            let (s, d) = (s % n as u32, d % n as u32);
            if s != d {
                let _ = b.add_edge_allow_zero(
                    NodeId::new(s),
                    NodeId::new(d),
                    Distance::from_feet(l),
                );
            }
        }
        let g = b.build();
        let root = NodeId::new((root_raw % n) as u32);
        let targets: Vec<NodeId> = target_raw
            .iter()
            .map(|&t| NodeId::new((t % n) as u32))
            .collect();
        let mut ws = SsspWorkspace::for_graph(&g);
        for direction in [Direction::Forward, Direction::Reverse] {
            let reference = match direction {
                Direction::Forward => dijkstra::shortest_path_tree(&g, root),
                Direction::Reverse => dijkstra::reverse_shortest_path_tree(&g, root),
            };
            ws.run_to_targets(&g, root, direction, &targets);
            for &t in &targets {
                prop_assert_eq!(ws.distance(t), reference.distance(t));
                // Both orientations extract a forward walk.
                if let Ok(path) = ws.path_to(t) {
                    let revalidated = rap_graph::Path::new(&g, path.nodes().to_vec())
                        .expect("goal-directed path is a walk");
                    prop_assert_eq!(Some(revalidated.length()), reference.distance(t));
                } else {
                    prop_assert!(reference.distance(t).is_none());
                }
            }
        }
    }
}
