//! The benchmark's self-check: every workload at toy size, untraced and
//! traced, prints every metric with its unit and runs every output check.

#[test]
fn every_workload_prints_every_metric_and_runs_every_check() {
    let summary = rap_perfbench::self_check().expect("self-check");
    let runs = summary.lines().filter(|l| l.contains(" trace=")).count();
    assert_eq!(runs, 2 * rap_perfbench::WORKLOADS.len(), "{summary}");
    assert!(
        summary.contains("BENCHMARK.json metric lists match"),
        "{summary}"
    );
}

#[test]
fn manifest_check_rejects_a_renamed_metric() {
    let layer = rap_perfbench::report::per_layer();
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    rap_perfbench::check_manifest(&text, &layer).expect("manifest matches");
    let broken = text.replacen("\"op_p50_ms\"", "\"op_median_ms\"", 1);
    assert!(rap_perfbench::check_manifest(&broken, &layer).is_err());
}
