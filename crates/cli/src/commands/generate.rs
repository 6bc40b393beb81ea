//! `rap generate` — build a synthetic city model and write its artifacts.

use crate::args::Args;
use crate::CliError;
use rap_trace::{
    city, extract_flows, read_csv_report, write_csv, ExtractParams, ParseMode, TraceSchema,
};

/// Options accepted by `rap generate`.
pub const USAGE: &str = "\
rap generate --city <dublin|seattle|metro> [--seed N] [--journeys N]
             [--out-graph FILE] [--out-flows FILE]
             [--in-trace FILE] [--lenient true] [--scale smoke|full]

Generates a synthetic city (street network + simulated bus trace +
recovered flows) and writes:
  --out-graph   street network in the rap-graph text format
  --out-flows   flow summary CSV (origin,destination,volume,alpha)
  --in-trace    additionally ingest an external GPS trace CSV (in the
                city's schema), map-match it against the generated street
                network, and report the recovered flows
  --lenient     quarantine malformed trace rows (reported with line
                numbers) instead of aborting on the first one
The metro city is the 1M-intersection routing-scale instance; it skips
the trace pipeline and emits demand specs directly. --scale smoke
(default) generates the CI-sized variant, --scale full the 1M-node /
500k-flow instance. --flows N overrides the spec count.
Prints a model summary either way.";

/// Runs the command; returns the human-readable report.
///
/// # Errors
///
/// Propagates argument, generation, and I/O failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    let city_name = args.required("city")?;
    let seed: u64 = args.get_or("seed", "integer", 2015)?;
    let journeys: usize = args.get_or("journeys", "integer", 0)?;

    if city_name == "metro" {
        return run_metro(args, seed);
    }
    let mut params = match city_name {
        "dublin" => city::CityParams::dublin(),
        "seattle" => city::CityParams::seattle(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown city `{other}` (expected dublin or seattle)"
            )))
        }
    };
    if journeys > 0 {
        params.journeys = journeys;
    }
    let model = match city_name {
        "dublin" => city::dublin(params, seed)?,
        _ => city::seattle(params, seed)?,
    };

    let mut report = format!(
        "{}: {} intersections, {} streets, {} flows from {} trace records\n",
        model.name(),
        model.graph().node_count(),
        model.graph().edge_count(),
        model.flows().len(),
        model.trace_records(),
    );
    let stats = rap_traffic::stats::FlowStats::compute(model.flows());
    report.push_str(&format!("traffic: {stats}\n"));

    if let Some(path) = args.get("out-graph") {
        let mut file = std::fs::File::create(path)?;
        rap_graph::io::write_text(model.graph(), &mut file)?;
        report.push_str(&format!("graph written to {path}\n"));
    }
    if let Some(path) = args.get("out-flows") {
        let mut out = String::from("origin,destination,volume,alpha\n");
        for f in model.flows() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                f.origin().raw(),
                f.destination().raw(),
                f.volume(),
                f.attractiveness()
            ));
        }
        std::fs::write(path, out)?;
        report.push_str(&format!("flows written to {path}\n"));
    }
    if let Some(path) = args.get("out-trace") {
        // Re-simulate a small demonstration trace in the matching schema.
        let schema = if model.name() == "dublin" {
            TraceSchema::Dublin
        } else {
            TraceSchema::Seattle
        };
        let mut file = std::fs::File::create(path)?;
        write_csv(&[], schema, &mut file)?;
        report.push_str(&format!("empty {schema} trace header written to {path}\n"));
    }
    if let Some(path) = args.get("in-trace") {
        let lenient: bool = args.get_or("lenient", "true/false", false)?;
        let mode = if lenient {
            ParseMode::Lenient
        } else {
            ParseMode::Strict
        };
        let schema = if model.name() == "dublin" {
            TraceSchema::Dublin
        } else {
            TraceSchema::Seattle
        };
        let parsed = read_csv_report(std::fs::File::open(path)?, schema, mode)?;
        report.push_str(&format!(
            "ingested {path}: {} record(s) parsed, {} quarantined\n",
            parsed.ok_count(),
            parsed.quarantined_count()
        ));
        for q in parsed.quarantined.iter().take(5) {
            report.push_str(&format!("  line {}: {}\n", q.line, q.reason));
        }
        if parsed.quarantined_count() > 5 {
            report.push_str(&format!(
                "  ... and {} more\n",
                parsed.quarantined_count() - 5
            ));
        }
        let specs = extract_flows(model.graph(), &parsed.records, ExtractParams::default())?;
        report.push_str(&format!(
            "  {} flow(s) recovered from the ingested trace\n",
            specs.len()
        ));
    }
    Ok(report)
}

/// The `--city metro` arm: direct demand generation, no trace pipeline.
fn run_metro(args: &Args, seed: u64) -> Result<String, CliError> {
    let scale = args.get("scale").unwrap_or("smoke");
    let mut params = match scale {
        "smoke" => rap_trace::MetroParams::smoke(),
        "full" => rap_trace::MetroParams::metro(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown metro scale `{other}` (expected smoke or full)"
            )))
        }
    };
    let flows: usize = args.get_or("flows", "integer", 0)?;
    if flows > 0 {
        params.flows = flows;
    }
    let model = rap_trace::metro(params, seed);
    let mut report = format!(
        "metro ({scale}): {} intersections, {} streets, {} demand specs, \
         {} shops, {} ft tile cell\n",
        model.graph().node_count(),
        model.graph().edge_count(),
        model.specs().len(),
        model.shops().len(),
        model.tile_cell(),
    );
    if let Some(path) = args.get("out-graph") {
        let mut file = std::fs::File::create(path)?;
        rap_graph::io::write_text(model.graph(), &mut file)?;
        report.push_str(&format!("graph written to {path}\n"));
    }
    if let Some(path) = args.get("out-flows") {
        let mut out = String::from("origin,destination,volume,alpha\n");
        for s in model.specs() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                s.origin().raw(),
                s.destination().raw(),
                s.volume(),
                s.attractiveness()
            ));
        }
        std::fs::write(path, out)?;
        report.push_str(&format!("flows written to {path}\n"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_dublin_summary() {
        let args = Args::parse(["--city", "dublin", "--journeys", "15", "--seed", "3"]).unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("dublin"));
        assert!(report.contains("flows"));
    }

    #[test]
    fn writes_graph_and_flows() {
        let g = crate::temp_path("generate_graph.txt");
        let f = crate::temp_path("generate_flows.csv");
        let args = Args::parse([
            "--city",
            "seattle",
            "--journeys",
            "10",
            "--out-graph",
            g.to_str().unwrap(),
            "--out-flows",
            f.to_str().unwrap(),
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("written"));
        let graph = rap_graph::io::read_text(std::fs::File::open(&g).unwrap()).unwrap();
        assert_eq!(graph.node_count(), 121);
        let flows = std::fs::read_to_string(&f).unwrap();
        assert!(flows.starts_with("origin,destination,volume,alpha"));
        std::fs::remove_file(g).ok();
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn in_trace_strict_rejects_and_lenient_quarantines() {
        let tp = crate::temp_path("in_trace.csv");
        // Seattle schema with one good row, one truncated row, one NaN row.
        std::fs::write(
            &tp,
            "bus_id,x,y,route_id,time_s\n1,100.0,200.0,7,0.0\nbogus,1,2\n2,nan,5.0,7,1.0\n1,400.0,200.0,7,30.0\n",
        )
        .unwrap();
        let base = [
            "--city",
            "seattle",
            "--journeys",
            "5",
            "--in-trace",
            tp.to_str().unwrap(),
        ];
        // Strict (default) aborts on the malformed row.
        assert!(run(&Args::parse(base).unwrap()).is_err());
        // Lenient salvages the good rows and reports the quarantine.
        let mut lenient: Vec<&str> = base.to_vec();
        lenient.extend(["--lenient", "true"]);
        let report = run(&Args::parse(lenient).unwrap()).unwrap();
        assert!(
            report.contains("2 record(s) parsed, 2 quarantined"),
            "{report}"
        );
        assert!(report.contains("line 3:"), "{report}");
        assert!(
            report.contains("recovered from the ingested trace"),
            "{report}"
        );
        std::fs::remove_file(tp).ok();
    }

    #[test]
    fn generates_metro_summary_and_flows() {
        let f = crate::temp_path("metro_flows.csv");
        let args = Args::parse([
            "--city",
            "metro",
            "--flows",
            "50",
            "--out-flows",
            f.to_str().unwrap(),
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("metro (smoke)"), "{report}");
        assert!(report.contains("50 demand specs"), "{report}");
        let flows = std::fs::read_to_string(&f).unwrap();
        assert!(flows.starts_with("origin,destination,volume,alpha"));
        assert_eq!(flows.lines().count(), 51);
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn metro_rejects_unknown_scale() {
        let args = Args::parse(["--city", "metro", "--scale", "galactic"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_city_is_usage_error() {
        let args = Args::parse(["--city", "paris"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_city_is_args_error() {
        let args = Args::parse([] as [&str; 0]).unwrap();
        assert!(run(&args).is_err());
    }
}
