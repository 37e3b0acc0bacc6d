//! Metric names and units, exactly as registered in `BENCHMARK.json`
//! (the benchmark's own tests hold the two together).

/// End-to-end metrics, printed by every untraced run:
/// `(name, unit, better)`. An "op" is one app analysis or one request.
/// Both times are process CPU time (all threads), rescaled to the
/// reference machine speed measured in the same run
/// (`stats::MachineSpeed`): on a shared VM the per-core speed drifts by
/// a quarter within minutes, and wall time more.
pub const END_TO_END: [(&str, &str, &str); 3] =
    [("setup_s", "s", "lower"), ("cpu_us_per_op", "us", "lower"), ("peak_rss_mb", "MiB", "lower")];

/// Per-layer metrics, printed by every traced run. Analysis layers are
/// per 34-app corpus pass; serving stages are per request (`_ns`,
/// `_per_req`) or per tile (`wire.parse_errors`,
/// `siglang.budget_exhausted`). A layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("deobf.ms", "ms", "lower"),
    ("deobf.classes", "count", "higher"),
    ("ir.index_ms", "ms", "lower"),
    ("pointsto.ms", "ms", "lower"),
    ("pointsto.propagations", "count", "lower"),
    ("pointsto.allocs", "count", "lower"),
    ("callgraph.ms", "ms", "lower"),
    ("demarcation.ms", "ms", "lower"),
    ("demarcation.sites", "count", "higher"),
    ("diagnostics.lint_ms", "ms", "lower"),
    ("diagnostics.lints", "count", "lower"),
    ("taint.engine_ms", "ms", "lower"),
    ("slicing.ms", "ms", "lower"),
    ("slicing.stmts", "count", "lower"),
    ("taint.cache_hits", "count", "higher"),
    ("taint.cache_misses", "count", "lower"),
    ("pairing.ms", "ms", "lower"),
    ("pairing.txns", "count", "higher"),
    ("sigbuild.ms", "ms", "lower"),
    ("interdep.ms", "ms", "lower"),
    ("interdep.edges", "count", "higher"),
    ("incr.cone_ms", "ms", "lower"),
    ("incr.cone_methods", "count", "lower"),
    ("incr.fingerprint_ms", "ms", "lower"),
    ("incr.load_ms", "ms", "lower"),
    ("incr.save_ms", "ms", "lower"),
    ("incr.reused", "count", "higher"),
    ("incr.recomputed", "count", "lower"),
    ("incr.archive_bytes", "bytes", "lower"),
    ("analyze.unattributed_ms", "ms", "lower"),
    ("wire.parse_ns", "ns", "lower"),
    ("wire.parse_errors", "count", "lower"),
    ("index.probe_ns", "ns", "lower"),
    ("index.candidates_per_req", "count", "lower"),
    ("siglang.uri_match_ns", "ns", "lower"),
    ("siglang.uri_evals_per_req", "count", "lower"),
    ("siglang.budget_exhausted", "count", "lower"),
    ("conformance.body_match_ns", "ns", "lower"),
    ("conformance.body_evals_per_req", "count", "lower"),
    ("index.classify_ns", "ns", "lower"),
    ("daemon.service_us_mean", "us", "lower"),
    ("daemon.outside_us_mean", "us", "lower"),
    ("archive.load_ms", "ms", "lower"),
    ("archive.bytes", "bytes", "lower"),
    ("trace_overhead", "ratio", "lower"),
];

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of `names` (missing values read 0).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str, &str)],
    value: impl Fn(&str) -> Option<f64>,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit, _)| {
            let v = value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
