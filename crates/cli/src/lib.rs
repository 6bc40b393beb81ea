//! # rap-cli
//!
//! The `rap` command-line interface: generate synthetic city models, run
//! placement algorithms on on-disk graphs/flows, and regenerate the paper's
//! figures.
//!
//! ```text
//! rap generate --city dublin --out-graph city.txt --out-flows flows.csv
//! rap place --graph city.txt --flows flows.csv --shop 12 --k 10 --algorithm all
//! rap figures --which fig10 --trials 1000
//! ```
//!
//! The command logic lives in [`commands`] as plain functions returning
//! strings, so it is unit-testable without spawning processes; `main`
//! only does dispatch and exit codes.

pub mod args;
pub mod commands;

use std::fmt;

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or malformed user input files.
    Usage(String),
    /// Argument-parser failures.
    Args(args::ArgsError),
    /// Generation/model failures.
    Trace(rap_trace::TraceError),
    /// Graph I/O or validation failures.
    Graph(rap_graph::GraphError),
    /// Traffic routing failures.
    Traffic(rap_traffic::TrafficError),
    /// Placement failures.
    Placement(rap_core::PlacementError),
    /// Streaming pipeline failures (delta parsing, rejected deltas in
    /// strict mode, event-sink I/O).
    Stream(rap_stream::StreamError),
    /// Snapshot encode/decode/verify failures (corruption, truncation,
    /// version mismatch).
    Snapshot(rap_core::SnapshotError),
    /// Serving-layer failures (snapshot load/reload, bind).
    Serve(rap_serve::ServeError),
    /// Filesystem failures.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Trace(e) => write!(f, "{e}"),
            CliError::Graph(e) => write!(f, "{e}"),
            CliError::Traffic(e) => write!(f, "{e}"),
            CliError::Placement(e) => write!(f, "{e}"),
            CliError::Stream(e) => write!(f, "{e}"),
            CliError::Snapshot(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<args::ArgsError> for CliError {
    fn from(e: args::ArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<rap_trace::TraceError> for CliError {
    fn from(e: rap_trace::TraceError) -> Self {
        CliError::Trace(e)
    }
}

impl From<rap_graph::GraphError> for CliError {
    fn from(e: rap_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<rap_traffic::TrafficError> for CliError {
    fn from(e: rap_traffic::TrafficError) -> Self {
        CliError::Traffic(e)
    }
}

impl From<rap_core::PlacementError> for CliError {
    fn from(e: rap_core::PlacementError) -> Self {
        CliError::Placement(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<rap_stream::StreamError> for CliError {
    fn from(e: rap_stream::StreamError) -> Self {
        CliError::Stream(e)
    }
}

impl From<rap_core::SnapshotError> for CliError {
    fn from(e: rap_core::SnapshotError) -> Self {
        CliError::Snapshot(e)
    }
}

impl From<rap_serve::ServeError> for CliError {
    fn from(e: rap_serve::ServeError) -> Self {
        CliError::Serve(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
rap — roadside advertisement dissemination toolkit (ICDCS 2015 reproduction)

commands:
  generate   build a synthetic city model and write its artifacts
  place      run placement algorithms on a graph + flows from disk
  figures    regenerate the paper's evaluation figures
  simulate   Manhattan-grid scenario with driver microsimulation
  stream     serve a placement over a stream of traffic deltas
  snapshot   save, load, verify, and inspect checksummed scenario snapshots
  serve      serve a scenario snapshot over HTTP (healthz/evaluate/topk/reload)

run `rap <command> --help` for command options.";

/// Dispatches a full command line (without the program name).
///
/// # Errors
///
/// Returns the failure to be printed to stderr; usage requests ("--help",
/// no command) return `Ok` with the usage text.
pub fn dispatch<I, S>(raw: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let raw: Vec<String> = raw.into_iter().map(Into::into).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        return Ok(USAGE.to_string());
    }
    let command = raw[0].clone();
    let rest = &raw[1..];
    if rest.first().map(String::as_str) == Some("--help") {
        return Ok(match command.as_str() {
            "generate" => commands::generate::USAGE.to_string(),
            "place" => commands::place::USAGE.to_string(),
            "figures" => commands::figures::USAGE.to_string(),
            "simulate" => commands::simulate::USAGE.to_string(),
            "stream" => commands::stream::USAGE.to_string(),
            "snapshot" => commands::snapshot::USAGE.to_string(),
            "serve" => commands::serve::USAGE.to_string(),
            _ => USAGE.to_string(),
        });
    }
    let parsed = args::Args::parse(rest.iter().cloned())?;
    match command.as_str() {
        "generate" => commands::generate::run(&parsed),
        "place" => commands::place::run(&parsed),
        "figures" => commands::figures::run(&parsed),
        "simulate" => commands::simulate::run(&parsed),
        "stream" => commands::stream::run(&parsed),
        "snapshot" => commands::snapshot::run(&parsed),
        "serve" => commands::serve::run(&parsed),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

/// A temp-file path private to this test process and `name`, so tests
/// running on parallel threads (or in concurrent test runs) never share a
/// file.
#[cfg(test)]
pub(crate) fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rap_cli_{}_{name}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_args_prints_usage() {
        let out = dispatch([] as [&str; 0]).unwrap();
        assert!(out.contains("commands:"));
    }

    #[test]
    fn help_flags() {
        assert!(dispatch(["--help"]).unwrap().contains("commands:"));
        assert!(dispatch(["generate", "--help"]).unwrap().contains("--city"));
        assert!(dispatch(["place", "--help"]).unwrap().contains("--graph"));
        assert!(dispatch(["figures", "--help"]).unwrap().contains("--which"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(dispatch(["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn end_to_end_generate_then_place() {
        let gp = crate::temp_path("e2e_graph.txt");
        let fp = crate::temp_path("e2e_flows.csv");
        dispatch([
            "generate",
            "--city",
            "seattle",
            "--journeys",
            "12",
            "--out-graph",
            gp.to_str().unwrap(),
            "--out-flows",
            fp.to_str().unwrap(),
        ])
        .unwrap();
        let report = dispatch([
            "place",
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "60",
            "--k",
            "5",
            "--utility",
            "threshold",
            "--d",
            "2500",
        ])
        .unwrap();
        assert!(report.contains("customers/day"), "{report}");
        std::fs::remove_file(gp).ok();
        std::fs::remove_file(fp).ok();
    }
}
