//! `rap place` — run a placement algorithm on a graph + flows from disk.

use crate::args::Args;
use crate::CliError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    CompositeGreedy, EngineReport, ExhaustiveOptimal, GreedyCoverage, GreedyWithSwaps,
    InvertedGainEngine, InvertedIndex, LazyGreedy, MarginalGreedy, MaxCardinality, MaxCustomers,
    MaxVehicles, Placement, PlacementAlgorithm, PlacementReport, Random, Scenario, UtilityKind,
};
use rap_graph::{Distance, NodeId};
use rap_traffic::{FlowSet, FlowSpec};
use serde::Serialize;

/// Options accepted by `rap place`.
pub const USAGE: &str = "\
rap place --graph FILE --flows FILE --shop NODE --k N
          [--utility threshold|linear|sqrt] [--d FEET] [--seed N]
          [--algorithm alg1|alg2|marginal|lazy|inverted|swaps|maxcard|maxveh|maxcust|random|optimal|all]
          [--lenient true] [--json true] [--threads N] [--route-threads N]

--graph  street network in the rap-graph text format (see `rap generate`)
--flows  CSV with header origin,destination,volume,alpha
--threads        worker threads for the inverted-index build; also the
                 --route-threads default, so one flag pins the whole run's
                 parallelism; 0 (the default) builds the index
                 sequentially. Placements are bit-identical at any value.
--route-threads  worker threads for flow routing and detour-table
                 preprocessing; 0 (the default) falls back to --threads,
                 then auto-detects
--lenient        quarantine malformed flow rows (with a count in the
                 report) instead of aborting on the first one
--json           emit one machine-readable JSON report (placement,
                 objective, the inverted engine's work counters) instead
                 of the text report — the same format family the
                 `rap stream` events use
Prints the chosen placement(s) and quality reports.";

/// Resolves `--route-threads` (shared with `rap snapshot` and `rap stream`):
/// 0 — the default — falls back to `--threads` (so a single flag pins the
/// whole run's parallelism) and then auto-detects via
/// [`rap_traffic::parallel::default_threads`]; any explicit value is clamped
/// to the available work downstream by the routing layer.
pub(crate) fn route_threads(args: &Args) -> Result<usize, CliError> {
    let requested: usize = args.get_or("route-threads", "integer", 0)?;
    if requested != 0 {
        return Ok(requested);
    }
    let engine: usize = args.get_or("threads", "integer", 0)?;
    Ok(if engine != 0 {
        engine
    } else {
        rap_traffic::parallel::default_threads()
    })
}

/// Parses the flow summary CSV written by `rap generate` (shared with
/// `rap stream`). In lenient mode malformed rows are counted instead of
/// aborting the read.
pub(crate) fn read_flows(path: &str, lenient: bool) -> Result<(Vec<FlowSpec>, usize), CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut specs = Vec::new();
    let mut quarantined = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if idx == 0 || line.trim().is_empty() {
            continue; // header
        }
        match parse_flow_row(line, idx + 1) {
            Ok(spec) => specs.push(spec),
            Err(_) if lenient => quarantined += 1,
            Err(e) => return Err(e),
        }
    }
    Ok((specs, quarantined))
}

/// Parses one `origin,destination,volume,alpha` row.
fn parse_flow_row(line: &str, line_no: usize) -> Result<FlowSpec, CliError> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 4 {
        return Err(CliError::Usage(format!(
            "flows file line {line_no}: expected 4 columns"
        )));
    }
    let parse_err =
        |what: &str| CliError::Usage(format!("flows file line {line_no}: invalid {what}"));
    let origin: u32 = fields[0].trim().parse().map_err(|_| parse_err("origin"))?;
    let dest: u32 = fields[1]
        .trim()
        .parse()
        .map_err(|_| parse_err("destination"))?;
    let volume: f64 = fields[2].trim().parse().map_err(|_| parse_err("volume"))?;
    let alpha: f64 = fields[3].trim().parse().map_err(|_| parse_err("alpha"))?;
    FlowSpec::new(NodeId::new(origin), NodeId::new(dest), volume)
        .map_err(|e| CliError::Usage(format!("flows file line {line_no}: {e}")))?
        .with_attractiveness(alpha)
        .map_err(|e| CliError::Usage(format!("flows file line {line_no}: {e}")))
}

/// Runs `alg`; the inverted engine also returns its work counters.
/// `threads` (0 = sequential) sizes the inverted-index build — placements
/// are thread-count invariant.
fn place_with_counters(
    name: &str,
    alg: &dyn PlacementAlgorithm,
    scenario: &Scenario,
    k: usize,
    threads: usize,
    rng: &mut StdRng,
) -> (Placement, Option<EngineReport>) {
    if name == "inverted" {
        let index = InvertedIndex::build_with_threads(scenario, threads);
        let (p, rep) = InvertedGainEngine.place_with_index(scenario, &index, k);
        (p, Some(rep))
    } else {
        (alg.place(scenario, k, rng), None)
    }
}

/// One algorithm's entry in the `--json` report.
#[derive(Debug, Serialize)]
struct JsonAlgorithm {
    /// The `--algorithm` token.
    algorithm: String,
    /// The engine's display name.
    name: String,
    /// Chosen RAP intersection ids, in selection order.
    raps: Vec<u32>,
    /// Expected customers/day of the placement.
    objective: f64,
    /// Work counters (inverted engine only).
    counters: Option<JsonCounters>,
}

/// `EngineReport` counters in JSON form.
#[derive(Debug, Serialize)]
struct JsonCounters {
    gain_evals: u64,
    delta_pushes: u64,
}

/// The whole `--json` report.
#[derive(Debug, Serialize)]
struct JsonReport {
    shop: u32,
    utility: String,
    d_feet: u64,
    k: usize,
    quarantined_rows: usize,
    algorithms: Vec<JsonAlgorithm>,
}

fn algorithm_by_name(name: &str) -> Option<Box<dyn PlacementAlgorithm>> {
    Some(match name {
        "alg1" => Box::new(GreedyCoverage),
        "alg2" => Box::new(CompositeGreedy),
        "marginal" => Box::new(MarginalGreedy),
        "lazy" => Box::new(LazyGreedy),
        "inverted" => Box::new(InvertedGainEngine),
        "swaps" => Box::new(GreedyWithSwaps),
        "maxcard" => Box::new(MaxCardinality),
        "maxveh" => Box::new(MaxVehicles),
        "maxcust" => Box::new(MaxCustomers),
        "random" => Box::new(Random),
        "optimal" => Box::new(ExhaustiveOptimal::new()),
        _ => return None,
    })
}

const ALL_ALGORITHMS: [&str; 10] = [
    "alg1", "alg2", "marginal", "lazy", "inverted", "swaps", "maxcard", "maxveh", "maxcust",
    "random",
];

/// Runs the command; returns the human-readable report.
///
/// # Errors
///
/// Propagates argument, parsing, scenario, and I/O failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    let graph_path = args.required("graph")?;
    let flows_path = args.required("flows")?;
    let shop: u32 = args.required_parsed("shop", "node id")?;
    let k: usize = args.required_parsed("k", "integer")?;
    let d: u64 = args.get_or("d", "feet", 2_500)?;
    let seed: u64 = args.get_or("seed", "integer", 2015)?;
    let utility = match args.get("utility").unwrap_or("linear") {
        "threshold" => UtilityKind::Threshold,
        "linear" => UtilityKind::Linear,
        "sqrt" => UtilityKind::Sqrt,
        other => {
            return Err(CliError::Usage(format!(
                "unknown utility `{other}` (expected threshold, linear, or sqrt)"
            )))
        }
    };
    let algorithm = args.get("algorithm").unwrap_or("alg2");
    let lenient: bool = args.get_or("lenient", "true/false", false)?;
    let json: bool = args.get_or("json", "true/false", false)?;
    let engine_threads: usize = args.get_or("threads", "integer", 0)?;

    let threads = route_threads(args)?;
    let graph = rap_graph::io::read_text(std::fs::File::open(graph_path)?)?;
    let (specs, quarantined) = read_flows(flows_path, lenient)?;
    let flows = FlowSet::route_parallel(&graph, specs, threads)?;
    let scenario = Scenario::new_with_threads(
        graph,
        flows,
        vec![NodeId::new(shop)],
        utility.instantiate(Distance::from_feet(d)),
        threads,
    )?;

    let names: Vec<&str> = if algorithm == "all" {
        ALL_ALGORITHMS.to_vec()
    } else {
        vec![algorithm]
    };
    let mut report = format!(
        "shop at V{shop}, {} utility, D = {d} ft, k = {k}\n",
        utility
    );
    if quarantined > 0 {
        report.push_str(&format!(
            "flows: {quarantined} malformed row(s) quarantined (lenient mode)\n"
        ));
    }
    let mut json_algorithms = Vec::new();
    for name in names {
        let alg = algorithm_by_name(name).ok_or_else(|| {
            CliError::Usage(format!("unknown algorithm `{name}` (try --algorithm all)"))
        })?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (placement, engine_report) =
            place_with_counters(name, alg.as_ref(), &scenario, k, engine_threads, &mut rng);
        if json {
            json_algorithms.push(JsonAlgorithm {
                algorithm: name.to_string(),
                name: alg.name().to_string(),
                raps: placement.iter().map(|v| v.raw()).collect(),
                objective: scenario.evaluate(&placement),
                counters: engine_report.map(|r| JsonCounters {
                    gain_evals: r.gain_evals,
                    delta_pushes: r.delta_pushes,
                }),
            });
            continue;
        }
        let quality = PlacementReport::compute(&scenario, &placement);
        report.push_str(&format!("{:<28} {placement}\n    {quality}\n", alg.name()));
    }
    if json {
        let payload = JsonReport {
            shop,
            utility: utility.to_string(),
            d_feet: d,
            k,
            quarantined_rows: quarantined,
            algorithms: json_algorithms,
        };
        return serde_json::to_string_pretty(&payload)
            .map_err(|e| CliError::Usage(format!("json serialization failed: {e}")));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a tiny graph + flows pair to temp files private to `test`
    /// and returns the paths.
    fn fixture(test: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let gp = crate::temp_path(&format!("place_{test}_graph.txt"));
        let fp = crate::temp_path(&format!("place_{test}_flows.csv"));
        let grid = rap_graph::GridGraph::new(3, 3, Distance::from_feet(100));
        let mut f = std::fs::File::create(&gp).unwrap();
        rap_graph::io::write_text(grid.graph(), &mut f).unwrap();
        std::fs::write(
            &fp,
            "origin,destination,volume,alpha\n0,2,100,0.01\n6,8,50,0.01\n",
        )
        .unwrap();
        (gp, fp)
    }

    #[test]
    fn places_with_default_algorithm() {
        let (gp, fp) = fixture("places_with_default_algorithm");
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "400",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("Algorithm 2"));
        assert!(report.contains("customers/day"));
    }

    #[test]
    fn all_algorithms_run() {
        let (gp, fp) = fixture("all_algorithms_run");
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--algorithm",
            "all",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        for needle in [
            "Algorithm 1",
            "Algorithm 2",
            "MaxVehicles",
            "Random",
            "CELF",
            "inverted delta-propagation greedy",
        ] {
            assert!(report.contains(needle), "missing {needle}: {report}");
        }
    }

    #[test]
    fn threads_flag_keeps_placements_identical() {
        let (gp, fp) = fixture("threads_flag_keeps_placements_identical");
        let base = [
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "400",
            "--algorithm",
            "all",
        ];
        let default = run(&Args::parse(base).unwrap()).unwrap();
        for threads in ["1", "3"] {
            let mut widened: Vec<&str> = base.to_vec();
            widened.extend(["--threads", threads]);
            let report = run(&Args::parse(widened).unwrap()).unwrap();
            assert_eq!(report, default, "--threads {threads} changed a placement");
        }
    }

    #[test]
    fn json_report_carries_placement_objective_and_engine_counters() {
        let (gp, fp) = fixture("json_report");
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "400",
            "--algorithm",
            "inverted",
            "--json",
            "true",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        let v: serde::Value = serde_json::from_str(&report).expect("valid JSON");
        assert_eq!(v["shop"], 4u64);
        assert_eq!(v["k"], 2u64);
        let alg = &v["algorithms"][0];
        assert_eq!(alg["algorithm"], "inverted");
        assert_eq!(alg["name"], "inverted delta-propagation greedy");
        assert!(alg["objective"].as_f64().unwrap() > 0.0);
        let raps: Vec<_> = match &alg["raps"] {
            serde::Value::Seq(items) => items.clone(),
            other => panic!("raps not an array: {other:?}"),
        };
        assert_eq!(raps.len(), 2);
        assert!(alg["counters"]["gain_evals"].as_f64().unwrap() > 0.0);
        assert!(alg["counters"]["delta_pushes"].as_f64().is_some());

        // Other engines carry no counters object.
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "400",
            "--json",
            "true",
        ])
        .unwrap();
        let v: serde::Value = serde_json::from_str(&run(&args).unwrap()).unwrap();
        assert_eq!(v["algorithms"][0]["counters"], serde::Value::Null);
    }

    #[test]
    fn bad_inputs_are_usage_errors() {
        let (gp, fp) = fixture("bad_inputs_are_usage_errors");
        let base = [
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
        ];
        let mut bad_utility: Vec<&str> = base.to_vec();
        bad_utility.extend(["--utility", "cubic"]);
        assert!(matches!(
            run(&Args::parse(bad_utility).unwrap()),
            Err(CliError::Usage(_))
        ));
        let mut bad_alg: Vec<&str> = base.to_vec();
        bad_alg.extend(["--algorithm", "magic"]);
        assert!(matches!(
            run(&Args::parse(bad_alg).unwrap()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lenient_mode_quarantines_bad_flow_rows() {
        let (gp, _) = fixture("lenient");
        let fp = crate::temp_path("place_lenient_bad_flows.csv");
        std::fs::write(
            &fp,
            "origin,destination,volume,alpha\n0,2,100,0.01\nbogus,row\n6,8,50,0.01\n",
        )
        .unwrap();
        let base = [
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "400",
        ];
        // Strict (default) aborts on the malformed row.
        assert!(matches!(
            run(&Args::parse(base).unwrap()),
            Err(CliError::Usage(_))
        ));
        // Lenient salvages the two good rows and reports the quarantine.
        let mut lenient: Vec<&str> = base.to_vec();
        lenient.extend(["--lenient", "true"]);
        let report = run(&Args::parse(lenient).unwrap()).unwrap();
        assert!(
            report.contains("1 malformed row(s) quarantined"),
            "{report}"
        );
        assert!(report.contains("customers/day"));
        std::fs::remove_file(fp).ok();
    }

    #[test]
    fn malformed_flows_rejected() {
        let (gp, _) = fixture("malformed");
        let bad = crate::temp_path("place_malformed_bad_flows.csv");
        std::fs::write(&bad, "origin,destination,volume,alpha\n1,2,3\n").unwrap();
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            bad.to_str().unwrap(),
            "--shop",
            "0",
            "--k",
            "1",
        ])
        .unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        std::fs::remove_file(bad).ok();
    }
}
