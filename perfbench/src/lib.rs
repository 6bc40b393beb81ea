//! The rap-vcps pipeline benchmark.
//!
//! Four workloads drive the public calls the `rap` commands and
//! `rap-experiments` make, in the same order: `metro-plan` (route → detour →
//! Algorithm 2 → durable snapshot), `grid-serve` (snapshot → HTTP
//! `/evaluate` + `/topk` with reloads), `grid-stream` (resume → apply →
//! maintain → journal) and `paper-figures` (Figs. 10–13). Every run checks
//! its outputs. The untraced run prints the end-to-end metrics; the traced
//! run (`--trace 1`) wraps each call in a span and prints per-layer
//! metrics. See `README.md` in this directory for the workload → layer →
//! metric table.

pub mod figures;
pub mod metro;
pub mod report;
pub mod serve;
pub mod stream;
pub mod trace;

use report::Metric;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Threads and connections the benchmark uses (a 2-core host's budget).
pub const THREADS: usize = 2;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["metro-plan", "grid-serve", "grid-stream", "paper-figures"];

/// Input scale: the benchmark's own (`Full`) or the self-check's (`Toy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Tiny inputs that exercise every call and check in well under a second.
    Toy,
}

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Scratch directory for snapshots and logs (inside the checkout).
    pub work_dir: PathBuf,
}

/// Output checks, counted per name.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    runs: BTreeMap<&'static str, (u64, u64)>,
}

impl Checks {
    /// Records one run of check `name`.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        let entry = self.runs.entry(name).or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            eprintln!("check failed: {name}");
        }
    }

    /// `(runs, failures)` over all checks.
    pub fn totals(&self) -> (u64, u64) {
        self.runs
            .values()
            .fold((0, 0), |(r, f), &(rr, ff)| (r + rr, f + ff))
    }

    /// Names of the checks that ran at least once.
    pub fn names(&self) -> Vec<&'static str> {
        self.runs.keys().copied().collect()
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .runs
            .iter()
            .map(|(name, (runs, fails))| {
                format!(
                    "{}: {{\"runs\": {runs}, \"failed\": {fails}}}",
                    report::json_str(name)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up time samples, seconds.
    pub setup_s: Vec<f64>,
    /// Operation latency samples, milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations per second.
    pub ops_per_s: f64,
    /// Mean cost of one operation in ms, compared between the untraced and
    /// traced passes for the tracing overhead.
    pub cost_ms: f64,
    /// Operations attempted and failed (a refused or wrong-status request
    /// counts as failed).
    pub ops: u64,
    /// Failed operations.
    pub op_failures: u64,
    /// Wall time the pass measured, ms (the base of the layer shares).
    pub wall_ms: f64,
    /// The workload's named metrics (beyond set-up, memory and failures).
    pub named: Vec<Metric>,
    /// Deterministic counters.
    pub counters: Vec<(&'static str, f64)>,
    /// Per-layer values the workload measures directly rather than from
    /// spans (server-reported handler times, ratios, counts).
    pub layer: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
    /// Operations per window of the windowed p99 (0: one plain p99).
    pub p99_window: usize,
}

impl Pass {
    /// Sets a deterministic counter (the last value set wins).
    pub fn count(&mut self, name: &'static str, value: f64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.counters.push((name, value)),
        }
    }

    /// The value of counter `name` (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Sleeps until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// A deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds.max(0.0))
}

fn run_pass(opts: &Opts, seconds: f64, tracer: &mut Tracer) -> Result<Pass, String> {
    let dir = &opts.work_dir;
    match opts.workload.as_str() {
        "metro-plan" => metro::run(opts, seconds, dir, tracer),
        "grid-serve" => serve::run(opts, seconds, dir, tracer),
        "grid-stream" => stream::run(opts, seconds, dir, tracer),
        "paper-figures" => figures::run(opts, seconds, tracer),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Everything one invocation prints.
#[derive(Debug)]
pub struct Outcome {
    /// `correct` field: no failed operation or check.
    pub correct: bool,
    /// Operations plus check runs.
    pub attempted: u64,
    /// Failed operations plus failed check runs.
    pub failed: u64,
    /// The result line's metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// The workload's named metrics.
    pub named: Vec<Metric>,
    /// Names of the checks that ran.
    pub checks_run: Vec<&'static str>,
    /// The detail line (named metrics, counters, checks, host facts).
    pub detail: String,
}

/// Runs one workload as `opts` says and assembles its result.
///
/// # Errors
///
/// A description of the first failure that stopped the workload (bad
/// arguments, an I/O error on the scratch directory, a server that never
/// came up). Wrong outputs are not errors: they count as failed checks.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let result = run_in_dir(opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = opts.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn run_in_dir(opts: &Opts) -> Result<Outcome, String> {
    // The traced run measures the workload twice, untraced then traced,
    // each for half the budget: the per-op cost difference is the tracing
    // overhead, and the traced pass's spans give the layer times.
    let (pass, traced) = if opts.trace {
        let plain = run_pass(opts, opts.seconds / 2.0, &mut Tracer::new(false))?;
        let mut tracer = Tracer::new(true);
        let traced = run_pass(opts, opts.seconds / 2.0, &mut tracer)?;
        (traced, Some((plain, tracer)))
    } else {
        (run_pass(opts, opts.seconds, &mut Tracer::new(false))?, None)
    };

    let (check_runs, check_fails) = pass.checks.totals();
    let mut attempted = pass.ops + check_runs;
    let mut failed = pass.op_failures + check_fails;
    if let Some((plain, _)) = &traced {
        let (r, f) = plain.checks.totals();
        attempted += plain.ops + r;
        failed += plain.op_failures + f;
    }
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    let rss = report::peak_rss_mb().unwrap_or(0.0);
    // Every workload takes at least one set-up sample and one operation.
    let setup = report::median(&pass.setup_s);
    let ops = &pass.op_ms;

    let mut named = vec![
        Metric::new("setup_s", "s", setup),
        Metric::new("peak_rss_mb", "MB", rss),
        Metric::new("fail_frac", "ratio", fail_frac),
    ];
    named.extend(pass.named.iter().cloned());

    let metrics = match &traced {
        None => vec![
            Metric::new("setup_s", "s", setup),
            Metric::new("peak_rss_mb", "MB", rss),
            Metric::new("op_p50_ms", "ms", report::percentile(ops, 0.5)),
            Metric::new(
                "op_p99_ms",
                "ms",
                report::windowed_p99(ops, pass.p99_window),
            ),
            Metric::new("ops_per_s", "1/s", pass.ops_per_s),
        ],
        Some((plain, tracer)) => layer_metrics(&pass, plain, tracer),
    };

    let counters: Vec<String> = pass
        .counters
        .iter()
        .map(|(n, v)| format!("{}: {}", report::json_str(n), report::json_num(*v)))
        .collect();
    let detail = format!(
        "{{\"workload\": {}, \"trace\": {}, \"host\": {}, \"named\": {}, \"counters\": {{{}}}, \"checks\": {}}}",
        report::json_str(&opts.workload),
        opts.trace,
        report::host_json(opts.seed),
        report::metrics_json(&named),
        counters.join(", "),
        pass.checks.json(),
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        named,
        checks_run: pass.checks.names(),
        detail,
    })
}

/// Per-layer metrics from the traced pass's spans, its directly measured
/// layer values, and the overhead against the untraced pass.
fn layer_metrics(pass: &Pass, plain: &Pass, tracer: &Tracer) -> Vec<Metric> {
    let by_name = tracer.by_name();
    let wall_ns = pass.wall_ms * 1e6;
    let span_total = |stem: &str| {
        by_name
            .get(stem)
            .map_or((0.0, 0.0), |&(ns, n)| (ns as f64, n as f64))
    };
    let mut out = Vec::new();
    let mut shares = Vec::new();
    for &(name, unit) in report::LAYER_TIMES {
        let (total_ns, value) = if name == "unattributed_ms" {
            // Wall time that no layer span accounts for.
            let stems: Vec<&str> = report::LAYER_TIMES
                .iter()
                .map(|(n, _)| &n[..n.len() - 3])
                .collect();
            let covered = tracer.covered_ns(&stems) as f64;
            let un = (wall_ns - covered).max(0.0);
            (un, un / 1e6)
        } else {
            let stem = &name[..name.len() - 3];
            let (ns, count) = span_total(stem);
            let value = match unit {
                "us" if count > 0.0 => ns / count / 1e3,
                "us" => 0.0,
                _ => ns / 1e6,
            };
            (ns, value)
        };
        out.push(Metric::new(name, unit, value));
        let share = if wall_ns > 0.0 {
            total_ns / wall_ns * 100.0
        } else {
            0.0
        };
        shares.push(Metric::new(&report::share_name(name), "%", share));
    }
    out.extend(shares);
    for &(name, unit) in report::LAYER_OTHER {
        let value = if name == "trace_overhead_pct" {
            if plain.cost_ms > 0.0 {
                (pass.cost_ms / plain.cost_ms - 1.0) * 100.0
            } else {
                0.0
            }
        } else if let Some(m) = pass.layer.iter().find(|m| m.name == name) {
            m.value
        } else {
            pass.counter(name)
        };
        out.push(Metric::new(name, unit, value));
    }
    out
}

/// Where runs keep their scratch files: `work/` in this package, inside the
/// checkout the benchmark was built in.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// A scratch directory for one invocation under `root`.
pub fn work_dir(root: &Path, workload: &str) -> PathBuf {
    root.join(format!("{workload}-{}", std::process::id()))
}

/// Demand seed of the repository's grid rungs (`bench_greedy`,
/// `bench_recovery` and `bench_stream` all use it). The grid workloads keep
/// the city fixed and draw their requests and deltas from `--seed`.
pub const GRID_DEMAND_SEED: u64 = 42;

/// A `side`×`side` grid over 500 ft blocks with `flows` uniform flows
/// ([`GRID_DEMAND_SEED`]), a shop at the center and a linear utility with
/// threshold `D`, built the way `rap snapshot save` and `rap stream` build
/// it.
///
/// # Errors
///
/// Demand generation, routing or scenario construction failures.
pub fn grid_scenario(
    (side, flows, d_feet): (u32, usize, u64),
) -> Result<rap_core::MutableScenario, String> {
    use rap_graph::{Distance, GridGraph};
    use rap_traffic::demand::{uniform_demand, DemandParams};
    let grid = GridGraph::new(side, side, Distance::from_feet(500));
    let specs = uniform_demand(
        grid.graph(),
        DemandParams {
            flows,
            min_volume: 100.0,
            max_volume: 1_000.0,
            attractiveness: 0.001,
        },
        GRID_DEMAND_SEED,
    )
    .map_err(|e| format!("demand generation failed: {e}"))?;
    let routed = rap_traffic::FlowSet::route_parallel(grid.graph(), specs, THREADS)
        .map_err(|e| format!("routing failed: {e}"))?;
    rap_core::MutableScenario::new_with_threads(
        grid.graph().clone(),
        routed,
        vec![grid.center()],
        rap_core::UtilityKind::Linear.instantiate(Distance::from_feet(d_feet)),
        THREADS,
    )
    .map_err(|e| format!("scenario construction failed: {e}"))
}

/// Checks that run on every pass of each workload.
pub fn expected_checks(workload: &str) -> &'static [&'static str] {
    match workload {
        "metro-plan" => &[
            "metro.objective_bits",
            "metro.path_vs_dijkstra",
            "metro.snapshot_roundtrip",
        ],
        "grid-serve" => &[
            "serve.epoch_known",
            "serve.evaluate_bits",
            "serve.reload_epoch",
            "serve.topk_bits",
        ],
        "grid-stream" => &[
            "stream.objective_bits",
            "stream.resolve_vs_oracle",
            "stream.resume_matches",
            "stream.staleness_within_threshold",
        ],
        "paper-figures" => &["figures.digest_recorded", "figures.digest_repeats"],
        _ => &[],
    }
}

/// Seed of the self-check's toy runs (its figure digest is recorded).
pub const SELF_CHECK_SEED: u64 = 7;

/// Runs every workload at toy size, untraced and traced, and checks that
/// each prints every metric of its mode by name with its unit, that every
/// output check ran and passed, and that the metric lists match
/// `BENCHMARK.json` when it sits beside this package.
///
/// # Errors
///
/// The first mismatch found.
pub fn self_check() -> Result<String, String> {
    let mut summary = Vec::new();
    let layer = report::per_layer();
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                workload: workload.to_string(),
                seed: SELF_CHECK_SEED,
                seconds: 1.5,
                trace,
                size: Size::Toy,
                work_dir: work_dir(&work_root(), workload),
            };
            let out = run(&opts)?;
            let printed: Vec<(&str, &str)> = out
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            let wanted: Vec<(&str, &str)> = if trace {
                layer.iter().map(|(n, u)| (n.as_str(), *u)).collect()
            } else {
                report::END_TO_END.to_vec()
            };
            if printed != wanted {
                return Err(format!(
                    "{workload} (trace {trace}) printed {printed:?}, want {wanted:?}"
                ));
            }
            if let Some(bad) = out.metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!("{workload}: {} is not finite", bad.name));
            }
            for &(name, unit) in report::named_metrics(workload) {
                if !out.named.iter().any(|m| m.name == name && m.unit == unit) {
                    return Err(format!("{workload}: named metric {name} [{unit}] missing"));
                }
            }
            if out.checks_run != expected_checks(workload) {
                return Err(format!(
                    "{workload}: checks run {:?}, want {:?}",
                    out.checks_run,
                    expected_checks(workload)
                ));
            }
            if !out.correct || out.failed > 0 || out.attempted == 0 {
                return Err(format!(
                    "{workload} (trace {trace}): {} of {} failed",
                    out.failed, out.attempted
                ));
            }
            summary.push(format!(
                "{workload} trace={}: {} metrics, {} checks, {} attempted",
                u8::from(trace),
                out.metrics.len(),
                out.checks_run.len(),
                out.attempted
            ));
        }
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    if let Ok(text) = std::fs::read_to_string(&manifest) {
        check_manifest(&text, &layer)?;
        summary.push("BENCHMARK.json metric lists match".into());
    }
    Ok(summary.join("\n"))
}

/// Compares `BENCHMARK.json`'s metric and workload lists with this
/// program's.
///
/// # Errors
///
/// The first difference.
pub fn check_manifest(text: &str, layer: &[(String, &str)]) -> Result<(), String> {
    let doc: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str, field: &str| -> Vec<String> {
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(item) = doc[key].get_index(i) {
            out.push(item[field].as_str().unwrap_or_default().to_string());
            i += 1;
        }
        out
    };
    let pairs = |names: Vec<String>, units: Vec<String>| -> Vec<(String, String)> {
        names.into_iter().zip(units).collect()
    };
    let e2e = pairs(list("end_to_end", "name"), list("end_to_end", "unit"));
    let want_e2e: Vec<(String, String)> = report::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    if e2e != want_e2e {
        return Err(format!("BENCHMARK.json end_to_end {e2e:?} != {want_e2e:?}"));
    }
    let per = pairs(list("per_layer", "name"), list("per_layer", "unit"));
    let want_per: Vec<(String, String)> = layer
        .iter()
        .map(|(n, u)| (n.clone(), u.to_string()))
        .collect();
    if per != want_per {
        return Err("BENCHMARK.json per_layer differs from the program's list".into());
    }
    if list("workloads", "name") != WORKLOADS {
        return Err("BENCHMARK.json workloads differ from the program's list".into());
    }
    Ok(())
}
