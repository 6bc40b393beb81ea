//! Metric catalogue, summary statistics, host facts and the result lines.
//!
//! The names and units here are the benchmark's contract: `BENCHMARK.json`
//! lists the same end-to-end and per-layer metrics, and the self-check
//! (`--self-check`) fails if the two drift apart.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload of the untraced run. Each
/// workload has one kind of operation: a plan (`metro-plan`), an HTTP
/// request (`grid-serve`), a delta (`grid-stream`) or a regeneration of
/// Figs. 10–13 (`paper-figures`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The metrics the pipeline's users name, printed per workload on the
/// detail line (they map onto [`END_TO_END`]; see `perfbench/README.md`).
pub fn named_metrics(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "metro-plan" => &[
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("fail_frac", "ratio"),
            ("plan_s", "s"),
        ],
        "grid-serve" => &[
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("fail_frac", "ratio"),
            ("evaluate_p50_ms", "ms"),
            ("evaluate_p99_ms", "ms"),
            ("topk_p50_ms", "ms"),
            ("topk_p99_ms", "ms"),
            ("serve_closed_rps", "1/s"),
            ("reload_p50_ms", "ms"),
        ],
        "grid-stream" => &[
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("fail_frac", "ratio"),
            ("deltas_per_s", "1/s"),
            ("delta_p99_ms", "ms"),
            ("gap_max_pct", "%"),
        ],
        "paper-figures" => &[
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("fail_frac", "ratio"),
            ("figures_s", "s"),
        ],
        _ => &[],
    }
}

/// Layer time metrics whose share of the traced pass's end-to-end time is
/// also printed (as `<name without unit>_share_pct`).
pub const LAYER_TIMES: &[(&str, &str)] = &[
    ("traffic.route_ms", "ms"),
    ("core.detour_ms", "ms"),
    ("core.materialize_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.topk_us", "us"),
    ("core.evaluate_us", "us"),
    ("core.index_build_ms", "ms"),
    ("core.snapshot_encode_ms", "ms"),
    ("core.snapshot_write_ms", "ms"),
    ("core.snapshot_read_ms", "ms"),
    ("core.snapshot_verify_ms", "ms"),
    ("core.snapshot_decode_ms", "ms"),
    ("core.wal_replay_ms", "ms"),
    ("core.apply_us", "us"),
    ("stream.check_ms", "ms"),
    ("stream.repair_ms", "ms"),
    ("stream.resolve_ms", "ms"),
    ("stream.journal_us", "us"),
    ("trace.city_ms", "ms"),
    ("manhattan.scenario_ms", "ms"),
    ("manhattan.solve_ms", "ms"),
    ("manhattan.evaluate_ms", "ms"),
    ("unattributed_ms", "ms"),
];

/// Per-layer counts, ratios and times measured beside the spans: server
/// handler means, client overhead, generator lateness (no share).
pub const LAYER_OTHER: &[(&str, &str)] = &[
    ("traffic.flows_routed", "count"),
    ("traffic.origin_groups", "count"),
    ("traffic.path_nodes", "count"),
    ("core.detour_entries", "count"),
    ("core.topk_gain_evals", "count"),
    ("core.topk_delta_pushes", "count"),
    ("core.snapshot_bytes", "bytes"),
    ("core.wal_bytes", "bytes"),
    ("core.compactions", "count"),
    ("stream.check_count", "count"),
    ("stream.repair_count", "count"),
    ("stream.resolve_count", "count"),
    ("stream.intervention_rate", "ratio"),
    ("stream.rotations", "count"),
    ("stream.gap_max_pct", "%"),
    ("serve.handler_us.evaluate", "us"),
    ("serve.handler_us.topk", "us"),
    ("serve.handler_us.reload", "us"),
    ("serve.overhead_us", "us"),
    ("serve.gen_late_ms", "ms"),
    ("serve.respawns", "count"),
    ("serve.errors_4xx", "count"),
    ("serve.errors_5xx", "count"),
    ("trace_overhead_pct", "%"),
];

/// The share metric name for a layer time metric.
pub fn share_name(name: &str) -> String {
    let stem = name
        .strip_suffix("_ms")
        .or_else(|| name.strip_suffix("_us"))
        .unwrap_or(name);
    format!("{stem}_share_pct")
}

/// Every per-layer metric with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for &(name, unit) in LAYER_TIMES {
        out.push((name.to_string(), unit));
    }
    for &(name, _) in LAYER_TIMES {
        out.push((share_name(name), "%"));
    }
    for &(name, unit) in LAYER_OTHER {
        out.push((name.to_string(), unit));
    }
    out
}

/// A named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// Median of `values` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1): with fewer than `1/(1-q)`
/// samples this is the maximum.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median, over consecutive windows of `window` samples, of each
/// window's p99. One burst of host noise then moves one window, not the
/// result. With `window` 0 or fewer than two whole windows this is the
/// plain p99.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn windowed_p99(values: &[f64], window: usize) -> f64 {
    if window == 0 || values.len() < 2 * window {
        return percentile(values, 0.99);
    }
    let per_window: Vec<f64> = values
        .chunks_exact(window)
        .map(|w| percentile(w, 0.99))
        .collect();
    median(&per_window)
}

/// Peak resident set (`VmHWM`) of this process in MB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host facts recorded with every result.
pub fn host_json(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}, \"seed\": {seed}}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) print as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.99), 198.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windowed_p99_ignores_one_bad_window() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        v[150] = 1e6;
        assert_eq!(windowed_p99(&v, 100), 98.0);
        assert_eq!(windowed_p99(&v[..150], 100), percentile(&v[..150], 0.99));
    }

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &names {
            assert!(name.len() <= 64 && seen.insert(name.clone()), "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        assert_eq!(share_name("core.apply_us"), "core.apply_share_pct");
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", "s", 0.125)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
