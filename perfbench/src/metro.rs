//! `metro-plan`: plan a metro from demand in memory to a durable snapshot.
//!
//! The pipeline is the one `rap place` and `rap snapshot save` run:
//! `FlowSet::route_parallel` → `MutableScenario::new_with_threads` →
//! `snapshot()` → `CompositeGreedy` (Algorithm 2, the `rap place` default) →
//! `encode_snapshot` with the placement → `write_snapshot_atomic`. Routing
//! dominates; serving and streaming code does not run.

use crate::trace::Tracer;
use crate::{deadline, Opts, Pass, Size, THREADS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_core::{
    decode_snapshot_with_threads, encode_snapshot, read_snapshot_file, write_snapshot_atomic,
    CompositeGreedy, FaultPlan, MutableScenario, PlacementAlgorithm, UtilityKind,
};
use rap_graph::dijkstra::shortest_path_tree;
use rap_graph::Distance;
use rap_trace::metro::{metro, MetroParams};
use rap_traffic::{FlowId, FlowSet};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// RAPs to place.
const K: usize = 20;
/// Linear utility threshold `D`, feet.
const D_FEET: u64 = 2_500;
/// Routed paths compared against the reference Dijkstra per plan.
const PATH_SAMPLE: usize = 8;

/// The metro shape: the generator's smoke metro scaled to 240×240
/// intersections (trip radii doubled with the grid) and 40k flows. At 80k
/// flows one plan takes about 11 s on a 2-core host, too long to take a
/// median over within one run.
pub fn params(size: Size) -> MetroParams {
    let smoke = MetroParams::smoke();
    match size {
        Size::Full => MetroParams {
            rows: 240,
            cols: 240,
            flows: 40_000,
            local_radius: 2 * smoke.local_radius,
            district_radius: 2 * smoke.district_radius,
            cross_radius: 2 * smoke.cross_radius,
            ..smoke
        },
        Size::Toy => MetroParams {
            rows: 30,
            cols: 30,
            block: 10,
            flows: 600,
            local_radius: 3,
            district_radius: 8,
            cross_radius: 15,
            ..smoke
        },
    }
}

/// Runs plans back to back until `seconds` have passed (at least one).
///
/// # Errors
///
/// Routing, scenario, encoding or snapshot I/O failures.
pub fn run(opts: &Opts, seconds: f64, dir: &Path, tr: &mut Tracer) -> Result<Pass, String> {
    let model = metro(params(opts.size), opts.seed);
    let (graph, specs, shops) = model.into_parts();
    let origins: HashSet<_> = specs.iter().map(|s| s.origin()).collect();
    let path = dir.join("metro.snap");
    let mut pass = Pass::default();
    let mut sample_rng = StdRng::seed_from_u64(opts.seed ^ 0x5eed_9a7e);

    let end = deadline(seconds);
    let mut plan_s = Vec::new();
    let mut id = 0u64;
    while plan_s.is_empty() || Instant::now() < end {
        id += 1;
        let (specs, graph_in, shops_in) = (specs.clone(), graph.clone(), shops.clone());
        let t0 = Instant::now();
        let plan = tr.enter("plan", id);
        let flows = tr
            .time("traffic.route", id, || {
                FlowSet::route_parallel(&graph_in, specs, THREADS)
            })
            .map_err(|e| format!("routing failed: {e}"))?;
        let mut scenario = tr
            .time("core.detour", id, || {
                MutableScenario::new_with_threads(
                    graph_in,
                    flows,
                    shops_in,
                    UtilityKind::Linear.instantiate(Distance::from_feet(D_FEET)),
                    THREADS,
                )
            })
            .map_err(|e| format!("scenario construction failed: {e}"))?;
        let snap = tr.time("core.materialize", id, || scenario.snapshot());
        let setup = t0.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let placement = tr.time("core.solve", id, || {
            CompositeGreedy.place(&snap, K, &mut rng)
        });
        let bytes = tr
            .time("core.snapshot_encode", id, || {
                encode_snapshot(&scenario, Some(&placement), 0, &[])
            })
            .map_err(|e| format!("snapshot encode failed: {e}"))?;
        tr.time("core.snapshot_write", id, || {
            write_snapshot_atomic(&path, &bytes, &FaultPlan::none())
        })
        .map_err(|e| format!("snapshot write failed: {e}"))?;
        tr.exit(plan);
        let total = t0.elapsed().as_secs_f64();
        pass.setup_s.push(setup);
        plan_s.push(total);

        // Output checks, outside the timed plan.
        let flows = snap.flows();
        let path_nodes: usize = flows.iter().map(|f| f.path().len()).sum();
        let flow_count = flows.len();
        let objective = snap.evaluate(&placement);
        pass.checks.check(
            "metro.objective_bits",
            objective.to_bits() == scenario.evaluate_current(&placement).to_bits()
                && objective > 0.0
                && placement.len() == K,
        );
        let decoded = read_snapshot_file(&path, &FaultPlan::none())
            .and_then(|b| decode_snapshot_with_threads(&b, THREADS));
        pass.checks.check(
            "metro.snapshot_roundtrip",
            match decoded {
                Ok(mut contents) => {
                    contents.placement.as_ref() == Some(&placement)
                        && contents.scenario.snapshot().evaluate(&placement).to_bits()
                            == objective.to_bits()
                }
                Err(_) => false,
            },
        );
        for _ in 0..PATH_SAMPLE.min(flow_count) {
            let flow = flows.flow(FlowId::new(sample_rng.random_range(0..flow_count) as u32));
            let tree = shortest_path_tree(&graph, flow.origin());
            let ok = tree
                .path_to(flow.destination())
                .is_ok_and(|p| p.nodes() == flow.path().nodes());
            pass.checks.check("metro.path_vs_dijkstra", ok);
        }

        pass.count("traffic.flows_routed", flow_count as f64);
        pass.count("traffic.origin_groups", origins.len() as f64);
        pass.count("traffic.path_nodes", path_nodes as f64);
        pass.count("core.detour_entries", scenario.total_entries() as f64);
        pass.count("core.snapshot_bytes", bytes.len() as f64);
    }
    let plans = plan_s.len() as f64;
    pass.ops = plan_s.len() as u64;
    pass.wall_ms = plan_s.iter().sum::<f64>() * 1e3;
    pass.cost_ms = pass.wall_ms / plans;
    // At the median plan time: a run holds few plans, and one slowed by
    // the host would move a mean.
    pass.ops_per_s = 1.0 / crate::report::median(&plan_s);
    pass.op_ms = plan_s.iter().map(|s| s * 1e3).collect();
    pass.named.push(crate::report::Metric::new(
        "plan_s",
        "s",
        crate::report::median(&plan_s),
    ));
    Ok(pass)
}
