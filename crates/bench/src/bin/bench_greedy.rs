//! `bench_greedy` — the greedy-engine ablation harness behind
//! `BENCH_greedy.json`.
//!
//! Runs the three sequential marginal-greedy engines (plain scan, CELF-lazy
//! and inverted delta-propagation) on one large grid instance, checks their
//! placements are identical, and writes wall-clock times, speedups versus
//! the plain scan, and gain-evaluation / delta-push counts as JSON. The
//! inverted engine is timed warm (prebuilt index) and cold (index built at
//! every thread count in `INDEX_THREADS`), the index build gets its own
//! rows, and the SoA gain kernel gets a throughput row (scalar reference
//! versus the laned kernel).
//!
//! Cold-index rows time the index build and the solve separately: the row's
//! `wall_clock_ms` (and so `speedup_vs_marginal`) is solve-only, with the
//! one-off build cost in `index_build_ms` next to it.
//!
//! Cold-start gate (full scale only): the four-thread index build plus solve
//! must stay within 2x of the warm solve plus a one-thread build. A failing
//! gate is re-measured up to three times and judged on medians; it
//! hard-fails only on hosts with at least four cores (CI), and warns
//! elsewhere.
//!
//! Usage: `cargo run --release -p rap-bench --bin bench_greedy [--smoke] [OUT.json]`
//! (default output path `BENCH_greedy.json` in the current directory; with
//! `--smoke`, a small instance and a single timed run suitable for CI).

use rap_bench::grid_scenario;
use rap_core::{
    kernel, InvertedGainEngine, InvertedIndex, LazyGreedy, MarginalGreedy, Placement, Scenario,
    UtilityKind,
};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Thread configurations timed for the inverted-index build.
const INDEX_THREADS: [usize; 2] = [1, 4];

/// A failing timing gate is re-measured this many times before the verdict;
/// the comparison always runs on medians.
const GATE_RETRIES: usize = 3;

/// Flops charged per kernel entry in the throughput row: subtract, max,
/// accumulate.
const FLOPS_PER_ENTRY: f64 = 3.0;

/// Instance scale and repetition count for one harness invocation.
struct Config {
    grid_side: u32,
    flows: usize,
    k: usize,
    runs: usize,
}

impl Config {
    /// Benchmark scale: comfortably above the 50×50-grid / 2,000-flow /
    /// k = 20 floor, and above the parallel index build's size cutoff.
    fn full() -> Config {
        Config {
            grid_side: 60,
            flows: 3_000,
            k: 20,
            runs: 5,
        }
    }

    /// CI smoke scale: finishes in seconds while still exercising every
    /// engine and the placement-identity assertions.
    fn smoke() -> Config {
        Config {
            grid_side: 40,
            flows: 1_200,
            k: 10,
            runs: 2,
        }
    }
}

#[derive(Serialize)]
struct IndexBuildTiming {
    threads: usize,
    ms: f64,
}

#[derive(Serialize)]
struct KernelThroughput {
    entries: usize,
    reps: usize,
    scalar_ms: f64,
    laned_ms: f64,
    scalar_gflops: f64,
    laned_gflops: f64,
}

#[derive(Serialize)]
struct ScenarioMeta {
    grid_side: u32,
    nodes: usize,
    flows: usize,
    k: usize,
    utility: String,
    index_threads: Vec<usize>,
    timed_runs: usize,
    host_threads: usize,
    index_build: Vec<IndexBuildTiming>,
    kernel: KernelThroughput,
}

#[derive(Serialize)]
struct EngineResult {
    name: String,
    /// Solve-only wall clock; index construction, where an engine performs
    /// one, is split out into `index_build_ms`.
    wall_clock_ms: f64,
    /// One-off flow→candidate index construction cost paid by this row
    /// (0 for engines that take a prebuilt index or none at all).
    index_build_ms: f64,
    /// Threads used for the index build in this row (0 when no build).
    index_build_threads: usize,
    speedup_vs_marginal: f64,
    gain_evals: u64,
    delta_pushes: u64,
    objective: f64,
}

#[derive(Serialize)]
struct Report {
    scenario: ScenarioMeta,
    engines: Vec<EngineResult>,
}

/// One engine's timed outcome: median wall-clock plus the counters from the
/// last repetition (the counters are deterministic across repetitions).
struct Timed {
    seconds: f64,
    placement: Placement,
    gain_evals: u64,
    delta_pushes: u64,
}

/// Median of a non-empty sample.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Median wall-clock seconds of `runs` timed repetitions (after one warmup).
fn time_median<F: FnMut() -> (Placement, u64, u64)>(runs: usize, mut run: F) -> Timed {
    let mut out = run(); // warmup
    let mut times: Vec<f64> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        out = run();
        times.push(t.elapsed().as_secs_f64());
    }
    Timed {
        seconds: median(&times),
        placement: out.0,
        gain_evals: out.1,
        delta_pushes: out.2,
    }
}

/// Cold-path timing: each repetition builds a fresh index and solves
/// against it, with the two phases on separate clocks so the engine row's
/// wall clock stays solve-only. Returns `(median build seconds, solve
/// timing)`.
fn time_cold<B, F>(runs: usize, mut build: B, mut solve: F) -> (f64, Timed)
where
    B: FnMut() -> InvertedIndex,
    F: FnMut(&InvertedIndex) -> (Placement, u64, u64),
{
    let mut out = {
        let idx = build();
        solve(&idx) // warmup
    };
    let mut builds: Vec<f64> = Vec::with_capacity(runs);
    let mut solves: Vec<f64> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        let idx = build();
        builds.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        out = solve(&idx);
        solves.push(t.elapsed().as_secs_f64());
    }
    (
        median(&builds),
        Timed {
            seconds: median(&solves),
            placement: out.0,
            gain_evals: out.1,
            delta_pushes: out.2,
        },
    )
}

/// Median wall-clock seconds of `runs` repetitions of an untyped closure
/// (after one warmup).
fn median_secs<F: FnMut()>(runs: usize, mut run: F) -> f64 {
    run(); // warmup
    let mut times: Vec<f64> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        run();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Asserts the engine reproduced the sequential placement bit for bit, then
/// records its row.
#[allow(clippy::too_many_arguments)]
fn record(
    engines: &mut Vec<EngineResult>,
    scenario: &Scenario,
    name: &str,
    timed: &Timed,
    baseline: &Timed,
    index_build_ms: f64,
    index_build_threads: usize,
) {
    assert_eq!(
        timed.placement, baseline.placement,
        "{name} diverged from marginal greedy"
    );
    eprintln!(
        "{name}: {:.2} ms solve{}, {} gain evals, {} delta pushes",
        timed.seconds * 1e3,
        if index_build_threads > 0 {
            format!(" + {index_build_ms:.2} ms index build @ {index_build_threads}t")
        } else {
            String::new()
        },
        timed.gain_evals,
        timed.delta_pushes
    );
    engines.push(EngineResult {
        name: name.to_string(),
        wall_clock_ms: timed.seconds * 1e3,
        index_build_ms,
        index_build_threads,
        speedup_vs_marginal: baseline.seconds / timed.seconds,
        gain_evals: timed.gain_evals,
        delta_pushes: timed.delta_pushes,
        objective: scenario.evaluate(&timed.placement),
    });
}

/// Times the scalar reference against the laned SoA gain kernel over every
/// candidate's entry lanes with an all-zero best-value state (every entry
/// contributes, so the row reflects peak per-entry work).
fn kernel_throughput(scenario: &Scenario, runs: usize) -> KernelThroughput {
    let best = vec![0.0f64; scenario.flows().len()];
    let entries: usize = scenario
        .candidates()
        .iter()
        .map(|&n| scenario.value_entries_at(n).0.len())
        .sum();
    // Enough repetitions to push each side into the tens of milliseconds.
    let reps = (4_000_000 / entries.max(1)).clamp(1, 2_000);
    let sweep = |laned: bool| {
        let mut sum = 0.0f64;
        for _ in 0..reps {
            for &n in scenario.candidates() {
                let (flows, values) = scenario.value_entries_at(n);
                sum += if laned {
                    kernel::gain(flows, values, &best)
                } else {
                    kernel::gain_reference(flows, values, &best)
                };
            }
        }
        black_box(sum);
    };
    let scalar_s = median_secs(runs, || sweep(false));
    let laned_s = median_secs(runs, || sweep(true));
    let work = entries as f64 * reps as f64 * FLOPS_PER_ENTRY;
    let row = KernelThroughput {
        entries,
        reps,
        scalar_ms: scalar_s * 1e3,
        laned_ms: laned_s * 1e3,
        scalar_gflops: work / scalar_s / 1e9,
        laned_gflops: work / laned_s / 1e9,
    };
    eprintln!(
        "gain kernel over {entries} entries x {reps} reps: scalar {:.2} ms ({:.2} GF/s), laned {:.2} ms ({:.2} GF/s)",
        row.scalar_ms, row.scalar_gflops, row.laned_ms, row.laned_gflops
    );
    row
}

/// Verdict of one timing gate after up to [`GATE_RETRIES`] re-measurements.
///
/// `lhs`/`rhs` re-measure one sample each; the gate passes when
/// `median(lhs samples) < median(rhs samples)`. Hard gates panic on failure,
/// soft gates warn (hosts without enough cores cannot honestly enforce a
/// claim about a threaded build).
fn timing_gate(
    label: &str,
    hard: bool,
    initial: (f64, f64),
    mut lhs: impl FnMut() -> f64,
    mut rhs: impl FnMut() -> f64,
) {
    let mut l = vec![initial.0];
    let mut r = vec![initial.1];
    for retry in 0..GATE_RETRIES {
        if median(&l) < median(&r) {
            break;
        }
        eprintln!(
            "gate '{label}' failing ({:.2} ms vs {:.2} ms budget), retry {}/{GATE_RETRIES}",
            median(&l) * 1e3,
            median(&r) * 1e3,
            retry + 1
        );
        l.push(lhs());
        r.push(rhs());
    }
    let (ml, mr) = (median(&l), median(&r));
    if ml < mr {
        eprintln!(
            "gate '{label}': OK ({:.2} ms within {:.2} ms budget, median of {} sample(s))",
            ml * 1e3,
            mr * 1e3,
            l.len()
        );
    } else if hard {
        panic!(
            "gate '{label}' FAILED: {:.2} ms exceeds the {:.2} ms budget \
             (median of {} samples)",
            ml * 1e3,
            mr * 1e3,
            l.len()
        );
    } else {
        eprintln!(
            "gate '{label}': WARN {:.2} ms exceeds the {:.2} ms budget \
             (host has too few cores to enforce)",
            ml * 1e3,
            mr * 1e3
        );
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_greedy.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let cfg = if smoke {
        Config::smoke()
    } else {
        Config::full()
    };
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    // The cold-start gate is an honest claim only with enough cores under
    // the threaded build; CI runners have four, this hard-enforces there and
    // warns elsewhere.
    let hard_gates = host_threads >= 4;

    eprintln!(
        "building {0}x{0} grid, {1} flows, k = {2} ({3} host threads) ...",
        cfg.grid_side, cfg.flows, cfg.k, host_threads
    );
    let scenario = grid_scenario(cfg.grid_side, cfg.flows, UtilityKind::Linear);
    let k = cfg.k;

    // Index build at one and four threads, timed on its own: the cold-start
    // gate reads the one-thread build from here.
    let mut index_build: Vec<IndexBuildTiming> = Vec::new();
    for threads in INDEX_THREADS {
        let ms = median_secs(cfg.runs, || {
            black_box(InvertedIndex::build_with_threads(&scenario, threads));
        }) * 1e3;
        eprintln!("inverted index build [threads = {threads}]: {ms:.2} ms");
        index_build.push(IndexBuildTiming { threads, ms });
    }
    let index = InvertedIndex::build(&scenario);
    eprintln!(
        "inverted index: {} coalesced groups for {} flows",
        index.groups(),
        index.flow_count()
    );

    let kernel_row = kernel_throughput(&scenario, cfg.runs);

    let mut engines: Vec<EngineResult> = Vec::new();

    let seq = time_median(cfg.runs, || {
        let (p, evals) = MarginalGreedy.place_with_stats(&scenario, k);
        (p, evals, 0)
    });
    record(
        &mut engines,
        &scenario,
        "marginal greedy",
        &seq,
        &seq,
        0.0,
        0,
    );

    let lazy = time_median(cfg.runs, || {
        let (p, evals) = LazyGreedy.place_with_stats(&scenario, k);
        (p, evals, 0)
    });
    record(
        &mut engines,
        &scenario,
        "lazy greedy (CELF)",
        &lazy,
        &seq,
        0.0,
        0,
    );

    // Warm row: the flow→candidate index is built once and reused across
    // solves in practice (streaming maintainer, serving `/topk`).
    let inv = time_median(cfg.runs, || {
        let (p, rep) = InvertedGainEngine.place_with_index(&scenario, &index, k);
        (p, rep.gain_evals, rep.delta_pushes)
    });
    record(
        &mut engines,
        &scenario,
        "inverted delta-propagation greedy",
        &inv,
        &seq,
        0.0,
        0,
    );

    // Cold rows: the one-shot CLI use case pays the index build too. The
    // build is timed inside the repetition but reported in its own column so
    // the speedup stays a solve-vs-solve comparison. The last (widest) row's
    // build + solve total feeds the cold-start gate below.
    let mut cold_total_s = 0.0;
    for threads in INDEX_THREADS {
        let (build_s, inv_cold) = time_cold(
            cfg.runs,
            || InvertedIndex::build_with_threads(&scenario, threads),
            |fresh| {
                let (p, rep) = InvertedGainEngine.place_with_index(&scenario, fresh, k);
                (p, rep.gain_evals, rep.delta_pushes)
            },
        );
        record(
            &mut engines,
            &scenario,
            "inverted delta-propagation greedy (cold index)",
            &inv_cold,
            &seq,
            build_s * 1e3,
            threads,
        );
        cold_total_s = build_s + inv_cold.seconds;
    }

    // Cold-start gate, full scale only: the threaded cold path (index build
    // at `wide` threads plus solve) must stay within 2x of the warm solve
    // plus a sequential build — parallelizing the build must never regress
    // a cold start past that envelope. Smoke instances sit near the
    // parallel-build cutoff, so the claim is only meaningful at full scale.
    if !smoke {
        let wide = *INDEX_THREADS.last().expect("INDEX_THREADS is non-empty");
        let build1 = index_build[0].ms / 1e3;
        timing_gate(
            &format!("cold build + solve @ {wide} threads within 2x of warm solve + 1t build"),
            hard_gates,
            (cold_total_s, (inv.seconds + build1) * 2.0),
            || {
                median_secs(1, || {
                    let fresh = InvertedIndex::build_with_threads(&scenario, wide);
                    black_box(InvertedGainEngine.place_with_index(&scenario, &fresh, k));
                })
            },
            || {
                let solve = median_secs(1, || {
                    black_box(InvertedGainEngine.place_with_index(&scenario, &index, k));
                });
                let build = median_secs(1, || {
                    black_box(InvertedIndex::build_with_threads(&scenario, 1));
                });
                (solve + build) * 2.0
            },
        );
    }

    let report = Report {
        scenario: ScenarioMeta {
            grid_side: cfg.grid_side,
            nodes: scenario.graph().node_count(),
            flows: scenario.flows().len(),
            k,
            utility: "linear".to_string(),
            index_threads: INDEX_THREADS.to_vec(),
            timed_runs: cfg.runs,
            host_threads,
            index_build,
            kernel: kernel_row,
        },
        engines,
    };

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    eprintln!(
        "wrote {out_path}; inverted speedup vs marginal: {:.2}x",
        seq.seconds / inv.seconds
    );
}
