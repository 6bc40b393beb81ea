//! Batched single-source shortest-path engine: Dial bucket queue + reusable
//! workspace.
//!
//! [`crate::dijkstra`] is the *reference* kernel: a textbook binary-heap
//! Dijkstra that allocates fresh `dist`/`pred`/heap buffers on every call.
//! Scenario preprocessing runs thousands of trees per build — one per
//! distinct flow origin, two per shop, one per node for all-pairs matrices,
//! three per landmark — so this module provides the engine those hot paths
//! share:
//!
//! * [`SsspWorkspace`] — per-graph scratch (distances, predecessors, epoch
//!   stamps, bucket array, heap) with O(1) reset between runs, so repeated
//!   tree growths stop allocating;
//! * a **Dial bucket-queue kernel**: [`Distance`] is an integral number of
//!   feet, so a monotone circular bucket array with two buckets per foot
//!   of the longest edge replaces the binary heap — `O(|E| + D)` for maximum
//!   settled distance `D`, with no `log |V|` factor and no sift traffic;
//! * automatic kernel selection by edge-length spread (see
//!   [`SsspWorkspace::kernel`]): graphs whose longest edge is large relative
//!   to their size fall back to the binary heap, where the bucket scan and
//!   footprint would degenerate;
//! * **goal-directed target searches** for routing workloads:
//!   [`SsspWorkspace::run_to_targets`] is an A* search keyed by
//!   `d(v) + π(v)`, where `π` is the geometric lower bound of
//!   [`crate::astar`], and stops once every requested destination is
//!   decided. It settles the corridor toward the targets instead of the
//!   whole disc out to the farthest one. Target sets larger than
//!   [`GOAL_MAX_TARGETS`] run a plain Dijkstra early exit instead.
//!
//! Both kernels settle a full run's nodes in exactly the same order —
//! ascending `(distance, node id)` — so distances, predecessor links, and
//! extracted paths are **bit-identical** to the reference kernel's
//! (property-tested in `tests/prop.rs`). Goal-directed runs settle in a
//! different order but give their targets the same paths (next section).
//! Downstream consumers (flow routing, detour tables, greedy placements)
//! therefore cannot observe which kernel ran, only how fast it was.
//!
//! ## Why goal direction preserves bit-identity
//!
//! In the reference tree, `pred[v]` is the *canonical* predecessor: among
//! the tight in-neighbours `u` of `v` (those with `d(u) + w(u, v) = d(v)`),
//! the one with the smallest `(d(u), id(u))`, because that is the first one
//! ascending `(distance, id)` order settles. A goal-directed run settles in
//! key order instead, so it reproduces the same choice with two rules that
//! hold under any settle order:
//!
//! 1. **Ties pick the canonical predecessor.** A relaxation over a
//!    positive-length edge that *ties* `v`'s tentative distance replaces
//!    `pred[v]` when `(d(u), id(u))` is smaller than the current
//!    predecessor's. The potential is consistent, so `d(u)` is final when
//!    `u` relaxes, and `pred[v]` ends as the smallest tight in-neighbour
//!    that was expanded.
//! 2. **Every canonical predecessor is expanded.** After the last target
//!    settles, the search keeps settling while the smallest key is at most
//!    `D`, the largest target distance (the last target's key, since `π` is
//!    zero on targets). A node `u` on any shortest root→`t` path has key
//!    `d(u) + π(u) ≤ d(u) + d(u → t) = d(t) ≤ D`, because `π` never
//!    overestimates; so every tight in-neighbour of every node on every
//!    target chain is settled and relaxes its successor before the search
//!    stops.
//!
//! Together these make every target's predecessor chain, and so
//! [`SsspWorkspace::path_to`], identical to the reference tree's. Rule 1
//! skips zero-length edges, which the graph builder forbids: with them the
//! smallest tight in-neighbour can form a cycle, and the reference order
//! itself stops being `(distance, id)`; distances stay exact either way.
//!
//! ```
//! use rap_graph::{GridGraph, Distance, NodeId};
//! use rap_graph::sssp::SsspWorkspace;
//! use rap_graph::dijkstra::Direction;
//!
//! let grid = GridGraph::new(3, 3, Distance::from_feet(10));
//! let mut ws = SsspWorkspace::for_graph(grid.graph());
//! ws.run(grid.graph(), NodeId::new(0), Direction::Forward);
//! assert_eq!(ws.distance(NodeId::new(8)), Some(Distance::from_feet(40)));
//! // The workspace is reusable: the next run resets in O(1).
//! ws.run(grid.graph(), NodeId::new(4), Direction::Reverse);
//! assert_eq!(ws.distance(NodeId::new(0)), Some(Distance::from_feet(20)));
//! ```

use crate::astar::GeometricPotential;
use crate::dijkstra::{Direction, ShortestPathTree};
use crate::error::GraphError;
use crate::geometry::Point;
use crate::graph::RoadGraph;
use crate::node::{Distance, NodeId};
use crate::path::Path;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The single-source shortest-path kernel a workspace runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SsspKernel {
    /// Dial's algorithm: a circular array of `max_edge + 1` buckets indexed
    /// by tentative distance modulo the array length. Dijkstra's monotone
    /// settling order keeps every queued tentative distance within one
    /// window of the array, so the index is unambiguous.
    BucketQueue,
    /// The classical binary-heap Dijkstra (same algorithm as the reference
    /// implementation in [`crate::dijkstra`], minus its per-call
    /// allocations).
    BinaryHeap,
}

impl SsspKernel {
    /// Stable lowercase name, for logs and benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            SsspKernel::BucketQueue => "bucket-queue",
            SsspKernel::BinaryHeap => "binary-heap",
        }
    }
}

/// Upper bound on `max_edge + 1` for the bucket kernel, whose circular
/// array holds `2·max_edge + 1` buckets; graphs with longer edges use the
/// binary heap. The cap bounds the array's footprint while covering any
/// realistic street segment (the city models top out near 6,500 ft between
/// intersections).
pub const MAX_BUCKET_COUNT: usize = 1 << 16;

/// Edge-length spread rule: the bucket kernel is selected only when the
/// longest edge is at most `SPREAD_FACTOR × (|V| + |E|)` feet. The bucket
/// scan advances one foot per step, so a graph whose edges are long relative
/// to its size would spend more time skipping empty buckets than settling
/// nodes; the binary heap is the better kernel there.
///
/// The same factor also gates the *diameter* estimate: the bucket scan walks
/// every foot of the maximum settled distance, so a small graph spread over
/// a large area (the 121-node Seattle model spans ~20,000 ft) pays thousands
/// of empty-bucket steps per tree even though each edge individually fits.
/// [`SsspWorkspace::for_graph`] estimates the diameter from the bounding
/// box's Manhattan extent and falls back to the heap when it exceeds
/// `SPREAD_FACTOR × (|V| + |E|)`.
const SPREAD_FACTOR: u64 = 8;

/// Largest target set a search goal-directs. The potential costs one bound
/// per target at every node the search touches, while its pull weakens as
/// the targets spread around the root: a Seattle origin group (7.5 targets
/// on average, 121 nodes) routes faster undirected, a metro group (1.4 on
/// average) several times faster directed. Larger sets run the plain early
/// exit.
pub const GOAL_MAX_TARGETS: usize = 4;

/// `pred` sentinel: no predecessor (the root, or an untouched node).
const NO_PRED: u32 = u32::MAX;

/// Reusable scratch state for repeated shortest-path-tree runs over one
/// graph.
///
/// Construction ([`SsspWorkspace::for_graph`]) sizes every buffer for the
/// graph, scans the edge lengths once, and fixes the kernel; each
/// [`run`](SsspWorkspace::run) then resets in O(1) by bumping an epoch
/// stamp instead of clearing the `dist`/`pred` arrays.
///
/// A workspace is bound to the graph it was created for. Using it with a
/// graph of different node or edge counts panics; rebinding to a different
/// graph of identical shape is undetectable and yields garbage — create one
/// workspace per graph (they are cheap: about 32 bytes per node plus the
/// bucket array).
#[derive(Clone, Debug)]
pub struct SsspWorkspace {
    node_count: usize,
    edge_count: usize,
    kernel: SsspKernel,
    /// Tentative/final distances; valid only where `stamp == epoch`.
    dist: Vec<Distance>,
    /// Predecessor raw ids (`NO_PRED` = none); valid only where stamped.
    pred: Vec<u32>,
    /// Goal-directed runs only: the node's potential `π(v)`, valid only
    /// where stamped. Empty until the first target search.
    pot: Vec<Distance>,
    /// `stamp[v] == epoch` ⇔ `v` was touched (relaxed) this run.
    stamp: Vec<u32>,
    /// `settled[v] == epoch` ⇔ `v`'s distance is final this run.
    settled: Vec<u32>,
    /// `target_stamp[v] == epoch` ⇔ `v` is an early-exit target this run.
    target_stamp: Vec<u32>,
    epoch: u32,
    /// Coordinates of this run's distinct targets (goal-directed runs).
    goals: Vec<Point>,
    /// Circular bucket array of `2·max_edge + 1` buckets (empty when the
    /// kernel is the binary heap).
    buckets: Vec<Vec<u32>>,
    /// Drain scratch for one bucket, kept to reuse its allocation.
    drain: Vec<u32>,
    /// Binary-heap queue of `(key, node)`.
    heap: BinaryHeap<Reverse<(Distance, u32)>>,
    /// Entries currently in the bucket array (stale ones included).
    queued: usize,
    /// The potential of the current goal-directed run.
    potential: GeometricPotential,
    root: NodeId,
    direction: Direction,
    /// True when the last run settled every reachable node (no early exit).
    complete: bool,
    /// Nodes settled by the last run (instrumentation for benches/tests).
    last_settled: u64,
}

impl SsspWorkspace {
    /// Builds a workspace sized for `graph`, selecting the kernel from the
    /// graph's edge-length spread: the bucket queue when the longest edge
    /// fits both the bucket cap ([`MAX_BUCKET_COUNT`]) and the spread rule
    /// (`max_edge ≤ 8 · (|V| + |E|)`), **and** the estimated graph diameter
    /// (the bounding box's Manhattan extent) also fits
    /// `8 · (|V| + |E|)` feet; the binary heap otherwise. The diameter gate
    /// keeps small, geographically spread instances (few nodes, long trips)
    /// off the foot-by-foot bucket scan — see [`SPREAD_FACTOR`].
    pub fn for_graph(graph: &RoadGraph) -> Self {
        let max_edge = graph.edges().map(|e| e.length.feet()).max().unwrap_or(0);
        let size = (graph.node_count() + graph.edge_count()) as u64;
        // Manhattan extent of the bounding box, as a cheap diameter proxy
        // (coordinates and edge lengths are both in feet; a degenerate or
        // weight-decoupled geometry only mis-tunes performance, never
        // correctness).
        let extent = graph
            .bounding_box()
            .map(|bb| ((bb.max.x - bb.min.x).abs() + (bb.max.y - bb.min.y).abs()) as u64)
            .unwrap_or(0);
        let budget = SPREAD_FACTOR.saturating_mul(size);
        let kernel = if max_edge > 0
            && max_edge < MAX_BUCKET_COUNT as u64
            && max_edge <= budget
            && extent <= budget
        {
            SsspKernel::BucketQueue
        } else {
            SsspKernel::BinaryHeap
        };
        Self::with_kernel_for_graph(graph, kernel)
    }

    /// Builds a workspace with an explicitly chosen kernel, overriding the
    /// automatic selection. Used by the equivalence property tests and the
    /// construction benchmark; prefer [`SsspWorkspace::for_graph`].
    ///
    /// # Panics
    ///
    /// Panics if the bucket kernel is forced on a graph whose longest edge
    /// does not fit [`MAX_BUCKET_COUNT`] buckets (the circular index would
    /// be ambiguous).
    pub fn with_kernel_for_graph(graph: &RoadGraph, kernel: SsspKernel) -> Self {
        let n = graph.node_count();
        let max_edge = graph.edges().map(|e| e.length.feet()).max().unwrap_or(0);
        let buckets = match kernel {
            SsspKernel::BucketQueue => {
                assert!(
                    (max_edge as usize) < MAX_BUCKET_COUNT,
                    "bucket kernel needs max edge length {max_edge} < {MAX_BUCKET_COUNT}"
                );
                vec![Vec::new(); 2 * max_edge as usize + 1]
            }
            SsspKernel::BinaryHeap => Vec::new(),
        };
        SsspWorkspace {
            node_count: n,
            edge_count: graph.edge_count(),
            kernel,
            dist: vec![Distance::MAX; n],
            pred: vec![NO_PRED; n],
            pot: Vec::new(),
            stamp: vec![0; n],
            settled: vec![0; n],
            target_stamp: vec![0; n],
            epoch: 0,
            goals: Vec::new(),
            buckets,
            drain: Vec::new(),
            heap: BinaryHeap::new(),
            queued: 0,
            potential: GeometricPotential::new(0.0, 0.0),
            root: NodeId::new(0),
            direction: Direction::Forward,
            complete: false,
            last_settled: 0,
        }
    }

    /// The kernel this workspace runs.
    pub fn kernel(&self) -> SsspKernel {
        self.kernel
    }

    /// Grows a full shortest-path tree from `root` (every reachable node is
    /// settled), replacing the previous run's results.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of bounds or the graph does not match the one
    /// the workspace was built for.
    pub fn run(&mut self, graph: &RoadGraph, root: NodeId, direction: Direction) {
        self.begin(graph, root, direction, true);
        self.search::<false>(graph, root, direction, 0);
    }

    /// A goal-directed (A*) search from `root` that stops once every node
    /// in `targets` is settled and every shortest path to them is decided;
    /// queries for other nodes afterwards may report unreachable. More than
    /// [`GOAL_MAX_TARGETS`] distinct targets run undirected, in `(distance,
    /// id)` order, up to the last target.
    /// Out-of-bounds targets are ignored (a later
    /// [`path_to`](SsspWorkspace::path_to) for them errors with
    /// [`GraphError::NodeOutOfBounds`]).
    ///
    /// Settled targets carry exactly the distance, predecessor chain, and
    /// extracted path a full [`run`](SsspWorkspace::run) — and the reference
    /// tree in [`crate::dijkstra`] — would give them (see the module docs).
    pub fn run_to_targets(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        targets: &[NodeId],
    ) {
        self.begin(graph, root, direction, false);
        self.goals.clear();
        let mut remaining = 0usize;
        for &t in targets {
            if t.index() < self.node_count && self.target_stamp[t.index()] != self.epoch {
                self.target_stamp[t.index()] = self.epoch;
                self.goals.push(graph.point(t));
                remaining += 1;
            }
        }
        if remaining == 0 {
            return; // nothing requested (or all targets out of bounds)
        }
        if remaining > GOAL_MAX_TARGETS {
            // Plain early exit: settle in `(distance, id)` order and stop at
            // the last target, like the reference tree up to that point.
            self.search::<false>(graph, root, direction, remaining);
            return;
        }
        if self.pot.len() != self.node_count {
            self.pot = vec![Distance::ZERO; self.node_count];
        }
        self.potential = graph.potential();
        self.pot[root.index()] = self.potential.to_nearest(graph.point(root), &self.goals);
        self.search::<true>(graph, root, direction, remaining);
    }

    /// Runs the workspace's kernel; `remaining` counts the distinct targets
    /// of an early-exit run (0 for a full tree).
    fn search<const GOAL: bool>(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        remaining: usize,
    ) {
        match self.kernel {
            SsspKernel::BucketQueue => self.run_bucket::<GOAL>(graph, root, direction, remaining),
            SsspKernel::BinaryHeap => self.run_heap::<GOAL>(graph, root, direction, remaining),
        }
    }

    /// Resets the workspace for a new run and seeds the root.
    fn begin(&mut self, graph: &RoadGraph, root: NodeId, direction: Direction, complete: bool) {
        assert!(
            graph.node_count() == self.node_count && graph.edge_count() == self.edge_count,
            "workspace built for a {}-node/{}-edge graph used with a {}-node/{}-edge graph",
            self.node_count,
            self.edge_count,
            graph.node_count(),
            graph.edge_count()
        );
        assert!(
            graph.contains_node(root),
            "sssp root {root} out of bounds for graph with {} nodes",
            graph.node_count()
        );
        self.bump_epoch();
        self.root = root;
        self.direction = direction;
        self.complete = complete;
        self.last_settled = 0;
        self.stamp[root.index()] = self.epoch;
        self.dist[root.index()] = Distance::ZERO;
        self.pred[root.index()] = NO_PRED;
    }

    /// The queue key of stamped node `v`: `d(v) + π(v)` when goal-directed,
    /// `d(v)` otherwise.
    #[inline]
    fn key<const GOAL: bool>(&self, v: usize) -> Distance {
        if GOAL {
            self.dist[v].saturating_add(self.pot[v])
        } else {
            self.dist[v]
        }
    }

    /// Queues node `v` under `key` in whichever structure the kernel uses.
    #[inline]
    fn enqueue(&mut self, v: u32, key: Distance) {
        match self.kernel {
            SsspKernel::BucketQueue => {
                let b = self.buckets.len() as u64;
                self.buckets[(key.feet() % b) as usize].push(v);
                self.queued += 1;
            }
            SsspKernel::BinaryHeap => self.heap.push(Reverse((key, v))),
        }
    }

    /// Relaxes every edge out of settled node `u` in the search direction,
    /// queueing each node whose tentative distance drops.
    ///
    /// Goal-directed runs also apply the canonical tie rule: a relaxation
    /// that *ties* `v`'s tentative distance over a positive-length edge
    /// takes over `pred[v]` when `(d(u), u)` is smaller than the current
    /// predecessor's — see the module docs.
    #[inline]
    fn relax<const GOAL: bool>(&mut self, graph: &RoadGraph, u: u32, direction: Direction) {
        let node = NodeId::new(u);
        let du = self.dist[u as usize];
        let neighbors = match direction {
            Direction::Forward => graph.out_neighbors(node),
            Direction::Reverse => graph.in_neighbors(node),
        };
        for nb in neighbors {
            let v = nb.node.index();
            let nd = du.saturating_add(nb.length);
            // `nd < MAX` mirrors the reference kernel's `nd < dist[v]`
            // against MAX-initialized slots: a saturated distance never
            // relaxes (and keeps the circular bucket index well-defined).
            if nd == Distance::MAX {
                continue;
            }
            if self.stamp[v] != self.epoch {
                self.stamp[v] = self.epoch;
                if GOAL {
                    self.pot[v] = self.potential.to_nearest(graph.point(nb.node), &self.goals);
                }
            } else if nd >= self.dist[v] {
                if GOAL && nd == self.dist[v] && nb.length > Distance::ZERO {
                    let p = self.pred[v];
                    if (du, u) < (self.dist[p as usize], p) {
                        self.pred[v] = u;
                    }
                }
                continue;
            }
            self.dist[v] = nd;
            self.pred[v] = u;
            let key = self.key::<GOAL>(v);
            debug_assert!(
                key >= self.key::<GOAL>(u as usize),
                "inconsistent potential"
            );
            self.enqueue(nb.node.raw(), key);
        }
    }

    /// Dial's algorithm over keys. Each bucket is drained in ascending
    /// node-id order, which makes a full run's settle order identical to the
    /// binary heap's pops of `(distance, id)` pairs — and therefore makes
    /// the predecessor tree bit-identical, not merely equal in distance.
    ///
    /// Keys are monotone (the potential is consistent) and a relaxation
    /// raises the key by at most `2·max_edge` (`max_edge` without a
    /// potential), so every queued key lies within one window of the
    /// `2·max_edge + 1` buckets and the circular index is unambiguous.
    fn run_bucket<const GOAL: bool>(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        mut remaining: usize,
    ) {
        let b = self.buckets.len() as u64;
        let mut key = self.key::<GOAL>(root.index()).feet();
        let mut idx = (key % b) as usize;
        self.queued = 0;
        self.enqueue(root.raw(), Distance::from_feet(key));
        let mut drain = std::mem::take(&mut self.drain);
        let early = remaining > 0;
        'scan: while self.queued > 0 {
            // Re-drain the same bucket until it stays empty: a relaxation
            // with zero reduced cost lands back in it.
            while !self.buckets[idx].is_empty() {
                drain.clear();
                std::mem::swap(&mut drain, &mut self.buckets[idx]);
                self.queued -= drain.len();
                // Ascending id order among equal keys (see above).
                drain.sort_unstable();
                for &raw in &drain {
                    let u = raw as usize;
                    if self.key::<GOAL>(u).feet() != key {
                        continue; // stale entry: improved to a smaller key
                    }
                    debug_assert_ne!(self.settled[u], self.epoch, "node settled twice");
                    self.settled[u] = self.epoch;
                    self.last_settled += 1;
                    if early && self.target_stamp[u] == self.epoch {
                        remaining -= 1;
                        if remaining == 0 && !GOAL {
                            break 'scan; // Dijkstra order: every chain is final
                        }
                    }
                    self.relax::<GOAL>(graph, raw, direction);
                }
            }
            // The last target settled at this key, which is its distance
            // (`π` is zero on targets) and the largest target distance:
            // every node on a shortest path to a target has a key at most
            // that, so nothing queued from here on can change a target's
            // chain.
            if GOAL && remaining == 0 {
                break;
            }
            key += 1;
            idx += 1;
            if idx as u64 == b {
                idx = 0;
            }
        }
        if self.queued > 0 {
            // Abandoned entries: clear every bucket so the next run starts
            // clean.
            for bucket in &mut self.buckets {
                bucket.clear();
            }
            self.queued = 0;
        }
        self.drain = drain;
    }

    /// Binary-heap Dijkstra (A* when goal-directed) over `(key, id)` — the
    /// reference kernel's loop minus its per-call allocations.
    fn run_heap<const GOAL: bool>(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        mut remaining: usize,
    ) {
        self.heap.clear();
        self.enqueue(root.raw(), self.key::<GOAL>(root.index()));
        // Once the last target settles: its key, past which nothing can
        // change a target's chain (see `run_bucket`).
        let mut limit = Distance::MAX;
        let early = remaining > 0;
        while let Some(Reverse((key, raw))) = self.heap.pop() {
            let u = raw as usize;
            if key > limit {
                break;
            }
            if key > self.key::<GOAL>(u) {
                continue; // stale heap entry
            }
            self.settled[u] = self.epoch;
            self.last_settled += 1;
            if early && self.target_stamp[u] == self.epoch {
                remaining -= 1;
                if remaining == 0 {
                    if !GOAL {
                        break; // Dijkstra order: every chain is final
                    }
                    limit = key;
                }
            }
            self.relax::<GOAL>(graph, raw, direction);
        }
        self.heap.clear();
    }

    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // Stamp wrap-around (one in 2^32 runs): hard-reset the stamps so
            // stale epochs can never alias the new one.
            self.stamp.fill(0);
            self.settled.fill(0);
            self.target_stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// The root of the last run.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The direction of the last run.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of nodes the last run settled (instrumentation: benches sum
    /// it as the routing layer's deterministic work counter).
    pub fn last_run_settled(&self) -> u64 {
        self.last_settled
    }

    /// Exact shortest distance between the last run's root and `node`, or
    /// `None` if `node` was not settled (unreachable, out of bounds, or
    /// beyond an early exit).
    pub fn distance(&self, node: NodeId) -> Option<Distance> {
        let i = node.index();
        if i < self.node_count && self.settled[i] == self.epoch {
            Some(self.dist[i])
        } else {
            None
        }
    }

    /// Writes the last run's dense distance row into `out`: `out[v]` is the
    /// settled distance of node `v`, or [`Distance::MAX`] where unsettled.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the graph's node count.
    pub fn copy_distances_into(&self, out: &mut [Distance]) {
        assert_eq!(out.len(), self.node_count, "distance row length mismatch");
        for (v, slot) in out.iter_mut().enumerate() {
            *slot = if self.settled[v] == self.epoch {
                self.dist[v]
            } else {
                Distance::MAX
            };
        }
    }

    /// Extracts the shortest path between the last run's root and `node`,
    /// with the same orientation and error semantics as
    /// [`ShortestPathTree::path_to`].
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if `node` does not exist.
    /// * [`GraphError::Unreachable`] if `node` was not settled.
    pub fn path_to(&self, node: NodeId) -> Result<Path, GraphError> {
        if node.index() >= self.node_count {
            return Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count,
            });
        }
        let total = self.distance(node).ok_or(match self.direction {
            Direction::Forward => GraphError::Unreachable {
                from: self.root,
                to: node,
            },
            Direction::Reverse => GraphError::Unreachable {
                from: node,
                to: self.root,
            },
        })?;
        let mut chain = vec![node];
        let mut cur = node.index();
        while self.pred[cur] != NO_PRED && self.stamp[cur] == self.epoch {
            let p = NodeId::new(self.pred[cur]);
            chain.push(p);
            cur = p.index();
        }
        debug_assert_eq!(cur, self.root.index(), "predecessor chain ends at root");
        match self.direction {
            Direction::Forward => chain.reverse(), // root .. node
            Direction::Reverse => {}               // node .. root already
        }
        Ok(Path::from_parts_unchecked(chain, total))
    }

    /// Materializes the last run as an owned [`ShortestPathTree`],
    /// bit-identical to what the reference kernel would have produced.
    ///
    /// # Panics
    ///
    /// Panics if the last run exited early ([`SsspWorkspace::run_to_targets`]):
    /// a truncated tree would silently misreport reachable nodes.
    pub fn to_tree(&self) -> ShortestPathTree {
        assert!(
            self.complete,
            "to_tree requires a full run; the last run exited early"
        );
        let dist: Vec<Distance> = (0..self.node_count)
            .map(|v| {
                if self.settled[v] == self.epoch {
                    self.dist[v]
                } else {
                    Distance::MAX
                }
            })
            .collect();
        let pred: Vec<Option<NodeId>> = (0..self.node_count)
            .map(|v| {
                if self.settled[v] == self.epoch && self.pred[v] != NO_PRED {
                    Some(NodeId::new(self.pred[v]))
                } else {
                    None
                }
            })
            .collect();
        ShortestPathTree::from_raw(self.root, self.direction, dist, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::geometry::Point;
    use crate::graph::GraphBuilder;
    use crate::grid::GridGraph;

    /// Diamond with a shortcut (same fixture as the reference kernel tests).
    fn diamond() -> (RoadGraph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        b.add_two_way(v[0], v[1], Distance::from_feet(2)).unwrap();
        b.add_two_way(v[0], v[2], Distance::from_feet(1)).unwrap();
        b.add_two_way(v[1], v[3], Distance::from_feet(2)).unwrap();
        b.add_two_way(v[2], v[3], Distance::from_feet(4)).unwrap();
        b.add_two_way(v[3], v[4], Distance::from_feet(1)).unwrap();
        (b.build(), v)
    }

    #[test]
    fn bucket_kernel_selected_for_short_edges() {
        // Compact geometry: extent 100 ft ≤ 8 · (36 + 120).
        let grid = GridGraph::new(6, 6, Distance::from_feet(10));
        let ws = SsspWorkspace::for_graph(grid.graph());
        assert_eq!(ws.kernel(), SsspKernel::BucketQueue);
    }

    #[test]
    fn heap_kernel_selected_for_small_wide_instance() {
        // Seattle-shaped: 121 nodes spread over ~20,000 ft. Every edge fits
        // the bucket cap, but the diameter gate must reject the bucket scan
        // (it would walk ~20k empty buckets per tree).
        let grid = GridGraph::new(11, 11, Distance::from_feet(1_000));
        let ws = SsspWorkspace::for_graph(grid.graph());
        assert_eq!(ws.kernel(), SsspKernel::BinaryHeap);
    }

    #[test]
    fn heap_kernel_selected_for_degenerate_spread() {
        // Two nodes, one enormous edge: the spread rule rejects buckets.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, Distance::from_feet(1_000_000)).unwrap();
        let ws = SsspWorkspace::for_graph(&b.build());
        assert_eq!(ws.kernel(), SsspKernel::BinaryHeap);
    }

    #[test]
    fn heap_kernel_selected_for_edgeless_graph() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        let ws = SsspWorkspace::for_graph(&b.build());
        assert_eq!(ws.kernel(), SsspKernel::BinaryHeap);
    }

    #[test]
    fn both_kernels_match_reference_tree() {
        let (g, v) = diamond();
        let reference = dijkstra::shortest_path_tree(&g, v[0]);
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
            ws.run(&g, v[0], Direction::Forward);
            let tree = ws.to_tree();
            for &u in &v {
                assert_eq!(tree.distance(u), reference.distance(u), "{kernel:?} {u}");
                assert_eq!(
                    tree.predecessor(u),
                    reference.predecessor(u),
                    "{kernel:?} {u}"
                );
            }
            assert_eq!(
                ws.path_to(v[4]).unwrap().nodes(),
                reference.path_to(v[4]).unwrap().nodes()
            );
        }
    }

    #[test]
    fn reverse_runs_match_reference() {
        let (g, v) = diamond();
        let reference = dijkstra::reverse_shortest_path_tree(&g, v[4]);
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run(&g, v[4], Direction::Reverse);
        for &u in &v {
            assert_eq!(ws.distance(u), reference.distance(u), "{u}");
        }
        let p = ws.path_to(v[0]).unwrap();
        assert_eq!(p.nodes(), reference.path_to(v[0]).unwrap().nodes());
    }

    #[test]
    fn workspace_reuse_resets_state() {
        let (g, v) = diamond();
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run(&g, v[0], Direction::Forward);
        assert_eq!(ws.distance(v[4]), Some(Distance::from_feet(5)));
        // A second run from a different root fully replaces the first.
        ws.run(&g, v[4], Direction::Forward);
        assert_eq!(ws.distance(v[0]), Some(Distance::from_feet(5)));
        assert_eq!(ws.root(), v[4]);
        let reference = dijkstra::shortest_path_tree(&g, v[4]);
        for &u in &v {
            assert_eq!(ws.distance(u), reference.distance(u));
        }
    }

    #[test]
    fn early_exit_settles_requested_targets_exactly() {
        let grid = GridGraph::new(5, 5, Distance::from_feet(10));
        let g = grid.graph();
        let full = dijkstra::shortest_path_tree(g, NodeId::new(0));
        let mut ws = SsspWorkspace::for_graph(g);
        let targets = [NodeId::new(6), NodeId::new(2)];
        ws.run_to_targets(g, NodeId::new(0), Direction::Forward, &targets);
        for t in targets {
            assert_eq!(ws.distance(t), full.distance(t));
            assert_eq!(
                ws.path_to(t).unwrap().nodes(),
                full.path_to(t).unwrap().nodes()
            );
        }
        // The far corner was never needed; early exit leaves it unsettled.
        assert_eq!(ws.distance(NodeId::new(24)), None);
        // A subsequent full run is unaffected by the abandoned queue.
        ws.run(g, NodeId::new(0), Direction::Forward);
        assert_eq!(ws.distance(NodeId::new(24)), full.distance(NodeId::new(24)));
    }

    #[test]
    fn early_exit_to_unreachable_target_reports_unreachable() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let island = b.add_node(Point::new(9.0, 9.0));
        b.add_two_way(a, c, Distance::from_feet(3)).unwrap();
        let g = b.build();
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run_to_targets(&g, a, Direction::Forward, &[island]);
        assert!(matches!(
            ws.path_to(island),
            Err(GraphError::Unreachable { .. })
        ));
        // Out-of-bounds targets are ignored, then error on query.
        ws.run_to_targets(&g, a, Direction::Forward, &[NodeId::new(99)]);
        assert!(matches!(
            ws.path_to(NodeId::new(99)),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn copy_distances_into_matches_probing() {
        let grid = GridGraph::new(4, 3, Distance::from_feet(25));
        let g = grid.graph();
        let mut ws = SsspWorkspace::for_graph(g);
        ws.run(g, NodeId::new(5), Direction::Forward);
        let mut row = vec![Distance::ZERO; g.node_count()];
        ws.copy_distances_into(&mut row);
        for v in g.nodes() {
            assert_eq!(row[v.index()], ws.distance(v).unwrap_or(Distance::MAX));
        }
    }

    #[test]
    #[should_panic(expected = "full run")]
    fn to_tree_rejects_early_exit_runs() {
        let grid = GridGraph::new(3, 3, Distance::from_feet(10));
        let mut ws = SsspWorkspace::for_graph(grid.graph());
        ws.run_to_targets(
            grid.graph(),
            NodeId::new(0),
            Direction::Forward,
            &[NodeId::new(1)],
        );
        let _ = ws.to_tree();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_root_panics() {
        let (g, _) = diamond();
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run(&g, NodeId::new(99), Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "workspace built for")]
    fn graph_mismatch_panics() {
        let (g, _) = diamond();
        let other = GridGraph::new(3, 3, Distance::from_feet(10));
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run(other.graph(), NodeId::new(0), Direction::Forward);
    }

    /// 100-node two-way line, 10 ft per hop, laid out along the x axis.
    fn line100() -> RoadGraph {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..100)
            .map(|i| b.add_node(Point::new(i as f64 * 10.0, 0.0)))
            .collect();
        for w in v.windows(2) {
            b.add_two_way(w[0], w[1], Distance::from_feet(10)).unwrap();
        }
        b.build()
    }

    #[test]
    fn pruned_targets_match_reference_and_actually_prune() {
        let g = line100();
        let root = NodeId::new(50);
        let targets = [NodeId::new(52), NodeId::new(95)];
        let reference = dijkstra::shortest_path_tree(&g, root);
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
            ws.run_to_targets(&g, root, Direction::Forward, &targets);
            for t in targets {
                assert_eq!(ws.distance(t), reference.distance(t), "{kernel:?} {t}");
                assert_eq!(
                    ws.path_to(t).unwrap().nodes(),
                    reference.path_to(t).unwrap().nodes(),
                    "{kernel:?} {t}"
                );
            }
            // An undirected search settles 5..=95. The potential bounds
            // node 50 - k at 10k + π, with π ≈ 10(k + 2) toward node 52, so
            // only k ≤ 21 fits under the 450 ft target distance.
            assert_eq!(ws.distance(NodeId::new(20)), None, "{kernel:?}");
            assert_eq!(ws.last_run_settled(), 21 + 46, "{kernel:?}");
        }
    }

    #[test]
    fn pruned_reverse_run_matches_reference() {
        let g = line100();
        let root = NodeId::new(60);
        let targets = [NodeId::new(58), NodeId::new(3)];
        let reference = dijkstra::reverse_shortest_path_tree(&g, root);
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run_to_targets(&g, root, Direction::Reverse, &targets);
        for t in targets {
            assert_eq!(ws.distance(t), reference.distance(t), "{t}");
            assert_eq!(
                ws.path_to(t).unwrap().nodes(),
                reference.path_to(t).unwrap().nodes(),
                "{t}"
            );
        }
        assert_eq!(ws.distance(NodeId::new(90)), None);
    }

    #[test]
    fn pruned_run_with_unreachable_target_degrades_gracefully() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let island = b.add_node(Point::new(90.0, 90.0));
        b.add_two_way(a, c, Distance::from_feet(3)).unwrap();
        let g = b.build();
        let mut ws = SsspWorkspace::for_graph(&g);
        // The island never settles, so the run exhausts the reachable
        // component and still routes the reachable target.
        ws.run_to_targets(&g, a, Direction::Forward, &[island, c]);
        assert_eq!(ws.distance(c), Some(Distance::from_feet(3)));
        assert_eq!(ws.path_to(c).unwrap().nodes(), &[a, c]);
        assert!(matches!(
            ws.path_to(island),
            Err(GraphError::Unreachable { .. })
        ));
        assert_eq!(ws.last_run_settled(), 2);
    }

    #[test]
    fn tight_potential_keeps_canonical_paths() {
        // Two shortest routes 0 → 1 along the x axis, every edge as long as
        // its L1 span, so scale 1 is exact and every node's key is 10: the
        // one-hop route (0 → 3 → 1) reaches the target first, but the
        // canonical predecessor is node 2 (d = 4 < 7), which relaxes the
        // target only after it settles — the keep-settling rule's case.
        let mut b = GraphBuilder::new();
        for x in [0.0, 10.0, 4.0, 7.0, 2.0] {
            b.add_node(Point::new(x, 0.0));
        }
        let v = |i: u32| NodeId::new(i);
        for (s, d, w) in [(0, 3, 7), (3, 1, 3), (0, 4, 2), (4, 2, 2), (2, 1, 6)] {
            b.add_edge(v(s), v(d), Distance::from_feet(w)).unwrap();
        }
        let g = b.build().with_potential(GeometricPotential::new(1.0, 1.0));
        let reference = dijkstra::shortest_path_tree(&g, v(0));
        assert_eq!(
            reference.path_to(v(1)).unwrap().nodes(),
            &[v(0), v(4), v(2), v(1)]
        );
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
            ws.run_to_targets(&g, v(0), Direction::Forward, &[v(1)]);
            assert_eq!(
                ws.path_to(v(1)).unwrap().nodes(),
                reference.path_to(v(1)).unwrap().nodes(),
                "{kernel:?}"
            );
        }

        // The same on a grid, where every staircase ties, in both
        // directions.
        let grid = GridGraph::new(6, 7, Distance::from_feet(10));
        let g = grid
            .graph()
            .clone()
            .with_potential(GeometricPotential::new(1.0, 1.0));
        let n = g.node_count() as u32;
        for direction in [Direction::Forward, Direction::Reverse] {
            for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
                let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
                for root in (0..n).step_by(5).map(NodeId::new) {
                    let reference = match direction {
                        Direction::Forward => dijkstra::shortest_path_tree(&g, root),
                        Direction::Reverse => dijkstra::reverse_shortest_path_tree(&g, root),
                    };
                    for t in (0..n).step_by(3).map(NodeId::new) {
                        ws.run_to_targets(&g, root, direction, &[t]);
                        assert_eq!(
                            ws.path_to(t).unwrap().nodes(),
                            reference.path_to(t).unwrap().nodes(),
                            "{kernel:?} {direction:?} {root}->{t}"
                        );
                    }
                }
            }
        }
    }

    /// A 60×60 grid on a 100 ft pitch whose intersections are jittered by
    /// up to ±25 ft (deterministic xorshift), with straight-line street
    /// lengths.
    fn jittered_grid() -> RoadGraph {
        const SIDE: u32 = 60;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut jitter = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 51) as f64 - 25.0
        };
        let mut b = GraphBuilder::new();
        for r in 0..SIDE {
            for c in 0..SIDE {
                b.add_node(Point::new(
                    c as f64 * 100.0 + jitter(),
                    r as f64 * 100.0 + jitter(),
                ));
            }
        }
        let id = |r: u32, c: u32| NodeId::new(r * SIDE + c);
        for r in 0..SIDE {
            for c in 0..SIDE {
                if c + 1 < SIDE {
                    b.add_two_way_euclidean(id(r, c), id(r, c + 1)).unwrap();
                }
                if r + 1 < SIDE {
                    b.add_two_way_euclidean(id(r, c), id(r + 1, c)).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn goal_direction_engages_on_a_jittered_grid() {
        let g = jittered_grid();
        assert!(g.potential().l2_scale() > 0.99, "{:?}", g.potential());
        // Corner to corner along the grid's edge: an undirected search
        // settles the quarter disc out to the target's distance.
        let (root, target) = (NodeId::new(0), NodeId::new(59));
        let reference = dijkstra::shortest_path_tree(&g, root);
        let reach = reference.distance(target).unwrap();
        let within = g
            .nodes()
            .filter(|&v| reference.distance(v).is_some_and(|d| d <= reach))
            .count() as u64;
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
            ws.run_to_targets(&g, root, Direction::Forward, &[target]);
            assert_eq!(
                ws.path_to(target).unwrap().nodes(),
                reference.path_to(target).unwrap().nodes(),
                "{kernel:?}"
            );
            assert!(
                2 * ws.last_run_settled() < within,
                "{kernel:?} settled {} of the {within} nodes within {reach}",
                ws.last_run_settled()
            );
        }
    }

    #[test]
    fn max_spread_edges_still_exact_under_bucket_kernel() {
        // Longest representable bucket edge next to a 1 ft edge: the widest
        // spread the bucket kernel accepts.
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        let long = Distance::from_feet(MAX_BUCKET_COUNT as u64 - 1);
        b.add_edge(v[0], v[1], long).unwrap();
        b.add_edge(v[0], v[2], Distance::from_feet(1)).unwrap();
        b.add_edge(v[2], v[1], long).unwrap();
        b.add_edge(v[1], v[3], Distance::from_feet(1)).unwrap();
        let g = b.build();
        let reference = dijkstra::shortest_path_tree(&g, v[0]);
        let mut ws = SsspWorkspace::with_kernel_for_graph(&g, SsspKernel::BucketQueue);
        ws.run(&g, v[0], Direction::Forward);
        for &u in &v {
            assert_eq!(ws.distance(u), reference.distance(u), "{u}");
        }
        assert_eq!(ws.distance(v[1]), Some(long)); // direct edge wins
    }
}
