//! Corpus-driven throughput benchmark for the serving pipeline.
//!
//! Builds the full 34-app signature index (static analysis of every
//! corpus app), harvests the perfect-fuzzer request set, tiles it out to
//! the requested request count, and measures:
//!
//! * batch throughput (requests/sec) on the trie-pruned path,
//! * single-request p50/p99 latency (sequential, no pool overhead),
//! * candidate-set telemetry (avg/max, candidate and structural-eval
//!   fractions) — the numbers backing the "≤ 20% of signatures reach the
//!   structural matcher" acceptance bar.
//!
//! The emitted JSON (`BENCH_classify.json`) is what CI regression-gates
//! against the checked-in baseline.

use crate::classify::{classify_batch, ClassifyStats};
use crate::index::SignatureIndex;
use crate::metrics::ServeMetrics;
use extractocol_core::report::AnalysisReport;
use extractocol_core::{PhaseTimings, TraceCollector};
use extractocol_http::{JsonValue, Request};
use std::time::Instant;

/// Analyzes every corpus app and returns the reports in corpus order
/// (deterministic, so the compiled index is too).
pub fn corpus_reports(jobs: usize) -> Vec<AnalysisReport> {
    extractocol_corpus::all_apps()
        .iter()
        .map(|app| {
            extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, jobs)
        })
        .collect()
}

/// The perfect-fuzzer request set of every corpus app, in corpus order.
pub fn corpus_requests() -> Vec<Request> {
    extractocol_corpus::all_apps()
        .iter()
        .flat_map(|app| {
            extractocol_dynamic::run_perfect_fuzzer(app).transactions.into_iter().map(|t| t.request)
        })
        .collect()
}

/// Result of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Requests classified in the timed batch run.
    pub requests: usize,
    /// Compiled signatures in the index.
    pub signatures: usize,
    /// Trie nodes in the index.
    pub trie_nodes: usize,
    /// Worker count used for the batch run.
    pub jobs: usize,
    /// Timed batch repetitions; the reported throughput is the best of
    /// them, so one scheduler hiccup can't flap the CI gate.
    pub iterations: usize,
    /// Batch wall-clock in seconds (fastest iteration).
    pub elapsed_secs: f64,
    /// Requests per second over the batch run (fastest iteration).
    pub requests_per_sec: f64,
    /// Full index rebuild wall-clock: corpus static analysis + compile —
    /// what every invocation paid before archives existed.
    pub rebuild_secs: f64,
    /// Archive decode + validate wall-clock for the same index.
    pub archive_load_secs: f64,
    /// `rebuild_secs / archive_load_secs` — the persistent-index payoff
    /// (acceptance bar: ≥ 20x).
    pub archive_speedup: f64,
    /// Single-request latency, 50th percentile (microseconds).
    pub p50_latency_us: f64,
    /// Single-request latency, 99th percentile (microseconds).
    pub p99_latency_us: f64,
    /// Batch stats (candidate telemetry, match counts).
    pub stats: ClassifyStats,
}

impl BenchReport {
    /// Serializes the report for `BENCH_classify.json`.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.insert("requests", JsonValue::num(self.requests as f64));
        o.insert("signatures", JsonValue::num(self.signatures as f64));
        o.insert("trie_nodes", JsonValue::num(self.trie_nodes as f64));
        o.insert("jobs", JsonValue::num(self.jobs as f64));
        o.insert("iterations", JsonValue::num(self.iterations as f64));
        o.insert("elapsed_secs", JsonValue::num(self.elapsed_secs));
        o.insert("requests_per_sec", JsonValue::num(self.requests_per_sec));
        o.insert("rebuild_secs", JsonValue::num(self.rebuild_secs));
        o.insert("archive_load_secs", JsonValue::num(self.archive_load_secs));
        o.insert("archive_speedup", JsonValue::num(self.archive_speedup));
        o.insert("p50_latency_us", JsonValue::num(self.p50_latency_us));
        o.insert("p99_latency_us", JsonValue::num(self.p99_latency_us));
        o.insert("avg_candidates", JsonValue::num(self.stats.avg_candidates()));
        o.insert("max_candidates", JsonValue::num(self.stats.max_candidates as f64));
        o.insert("avg_candidate_fraction", JsonValue::num(self.stats.avg_candidate_fraction()));
        o.insert("avg_eval_fraction", JsonValue::num(self.stats.avg_eval_fraction()));
        o.insert("matched", JsonValue::num(self.stats.matched as f64));
        o.insert("unmatched", JsonValue::num(self.stats.unmatched as f64));
        o.insert("budget_exhausted", JsonValue::num(self.stats.budget_exhausted as f64));
        o
    }
}

/// Tiles the corpus request set out to exactly `n` requests.
pub fn tile_requests(base: &[Request], n: usize) -> Vec<Request> {
    assert!(!base.is_empty(), "no base requests to tile");
    base.iter().cycle().take(n).cloned().collect()
}

/// Runs the benchmark: compiles the corpus index (timing the rebuild and
/// the archive-load path for comparison), classifies `requests_n` tiled
/// fuzzer requests on `jobs` workers taking the best of `iterations`
/// timed batches, and samples single-request latency over (up to) 10k
/// requests.
///
/// The timed batches always run uninstrumented, so throughput is
/// comparable to the baseline. With `metrics`, a second, instrumented
/// pass over the same requests fills the latency/candidate-fraction
/// histograms, shard telemetry and phase seconds. The returned
/// [`PhaseTimings`] carry `serve_compile`, plus `serve_classify` when
/// that pass ran.
pub fn run(
    requests_n: usize,
    jobs: usize,
    iterations: usize,
    metrics: Option<&ServeMetrics>,
) -> (BenchReport, PhaseTimings) {
    let mut phases = PhaseTimings::default();
    let t_rebuild = Instant::now();
    let reports = corpus_reports(jobs);
    let t = Instant::now();
    let index = SignatureIndex::compile(&reports);
    phases.serve_compile = t.elapsed();
    let rebuild_secs = t_rebuild.elapsed().as_secs_f64();
    let base = corpus_requests();
    let requests = tile_requests(&base, requests_n);
    let mut report = bench_index(&index, &requests, jobs, iterations);
    fill_archive_timings(&index, rebuild_secs, &mut report);

    if let Some(metrics) = metrics {
        let t = Instant::now();
        classify_batch(&index, &requests, jobs, Some((metrics, &TraceCollector::disabled())));
        phases.serve_classify = t.elapsed();
        metrics.observe_phases(phases.serve_compile, phases.serve_classify);
    }
    (report, phases)
}

/// Times the persistent-index path against the rebuild the caller just
/// paid: serialize, then measure decode+validate of the archive bytes.
fn fill_archive_timings(index: &SignatureIndex, rebuild_secs: f64, report: &mut BenchReport) {
    let archive = crate::archive::write_archive(index);
    let t = Instant::now();
    let loaded = crate::archive::read_archive(&archive).expect("self-written archive loads");
    let archive_load_secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&loaded);
    report.rebuild_secs = rebuild_secs;
    report.archive_load_secs = archive_load_secs;
    report.archive_speedup =
        if archive_load_secs > 0.0 { rebuild_secs / archive_load_secs } else { f64::INFINITY };
}

/// Measures one compiled index against one request set: best-of-N timed
/// batch runs plus sequential latency sampling. Verdicts and stats are
/// deterministic across iterations, so only the wall-clock varies — the
/// fastest run is the least-noise estimate of real throughput.
fn bench_index(
    index: &SignatureIndex,
    requests: &[Request],
    jobs: usize,
    iterations: usize,
) -> BenchReport {
    let iterations = iterations.max(1);
    let mut elapsed = f64::INFINITY;
    let mut stats = ClassifyStats::default();
    for _ in 0..iterations {
        let t = Instant::now();
        let (_, s) = classify_batch(index, requests, jobs, None);
        elapsed = elapsed.min(t.elapsed().as_secs_f64());
        stats = s;
    }

    // Latency sampling: sequential, one timer per request.
    let sample = &requests[..requests.len().min(10_000)];
    let mut lat_us: Vec<f64> = sample
        .iter()
        .map(|req| {
            let t = Instant::now();
            std::hint::black_box(index.classify(req));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat_us.sort_unstable_by(|a, b| a.total_cmp(b));

    BenchReport {
        requests: requests.len(),
        signatures: index.len(),
        trie_nodes: index.trie_nodes(),
        jobs,
        iterations,
        elapsed_secs: elapsed,
        requests_per_sec: if elapsed > 0.0 { requests.len() as f64 / elapsed } else { 0.0 },
        rebuild_secs: 0.0,
        archive_load_secs: 0.0,
        archive_speedup: 0.0,
        p50_latency_us: percentile(&lat_us, 0.50),
        p99_latency_us: percentile(&lat_us, 0.99),
        stats,
    }
}

/// The `p`-quantile of an ascending-sorted sample (nearest rank by
/// rounding); 0 for an empty sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

// ---------------------------------------------------------------------------
// Adversarial bench (`extractocol-serve attack`)
// ---------------------------------------------------------------------------

/// Per-attack-class outcome tally for the printed table / JSON output.
#[derive(Clone, Debug, Default)]
pub struct AttackClassTally {
    pub cases: usize,
    pub parse_errors: usize,
    pub matched: usize,
    pub unmatched: usize,
    pub budget_exhausted: usize,
}

/// Result of one adversarial bench run.
#[derive(Clone, Debug)]
pub struct AttackBenchReport {
    pub seed: u64,
    pub per_class: usize,
    pub cases: usize,
    pub per_class_tally: Vec<(&'static str, AttackClassTally)>,
    /// Parse+classify latency percentiles over all cases (µs).
    pub p50_latency_us: f64,
    pub p99_latency_us: f64,
    pub elapsed_secs: f64,
    /// Cases re-checked through the brute-force path.
    pub differential_checked: usize,
    /// Trie vs brute-force verdict disagreements (must be 0).
    pub differential_disagreements: usize,
}

impl AttackBenchReport {
    /// Serializes the report for `ATTACK_bench.json`.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.insert("seed", JsonValue::num(self.seed as f64));
        o.insert("per_class", JsonValue::num(self.per_class as f64));
        o.insert("cases", JsonValue::num(self.cases as f64));
        o.insert("p50_latency_us", JsonValue::num(self.p50_latency_us));
        o.insert("p99_latency_us", JsonValue::num(self.p99_latency_us));
        o.insert("elapsed_secs", JsonValue::num(self.elapsed_secs));
        o.insert("differential_checked", JsonValue::num(self.differential_checked as f64));
        o.insert(
            "differential_disagreements",
            JsonValue::num(self.differential_disagreements as f64),
        );
        let mut classes = JsonValue::object();
        for (name, t) in &self.per_class_tally {
            let mut c = JsonValue::object();
            c.insert("cases", JsonValue::num(t.cases as f64));
            c.insert("parse_errors", JsonValue::num(t.parse_errors as f64));
            c.insert("matched", JsonValue::num(t.matched as f64));
            c.insert("unmatched", JsonValue::num(t.unmatched as f64));
            c.insert("budget_exhausted", JsonValue::num(t.budget_exhausted as f64));
            classes.insert(name, c);
        }
        o.insert("classes", classes);
        o
    }
}

/// Runs the adversarial bench: compiles the corpus index, generates the
/// seeded attack suite over real fuzzer traffic as base material, then
/// parses + classifies every case sequentially (timing each), filling
/// the [`AttackMetrics`](crate::metrics::AttackMetrics) families on the
/// returned [`ServeMetrics`] registry. A spread subsample of parsed
/// cases is re-classified through the brute-force path; any verdict
/// disagreement is reported (and must fail the caller).
pub fn run_attack(seed: u64, per_class: usize, jobs: usize) -> (AttackBenchReport, ServeMetrics) {
    let reports = corpus_reports(jobs);
    run_attack_on(SignatureIndex::compile(&reports), seed, per_class)
}

/// [`run_attack`] against a caller-supplied index (e.g. one loaded from
/// a compiled archive via `attack --index`).
pub fn run_attack_on(
    index: SignatureIndex,
    seed: u64,
    per_class: usize,
) -> (AttackBenchReport, ServeMetrics) {
    use extractocol_dynamic::{generate_attacks, AdversarialConfig, AttackClass};

    let base = corpus_requests();
    let metrics = ServeMetrics::new();
    metrics.observe_index(index.len(), index.trie_nodes());
    let attack_metrics = crate::metrics::AttackMetrics::on(&metrics.registry);

    let config = AdversarialConfig { seed, per_class };
    let cases = generate_attacks(&config, &base);

    let mut tallies: Vec<(&'static str, AttackClassTally)> =
        AttackClass::ALL.iter().map(|c| (c.name(), AttackClassTally::default())).collect();
    let tally_idx = |class: AttackClass| AttackClass::ALL.iter().position(|c| *c == class).unwrap();

    // A spread subsample for the brute-force differential check: full
    // brute force on every giant probe would dominate the bench without
    // adding signal (the exhaustive check lives in tests/adversarial.rs).
    let check_budget = 150usize.min(cases.len()).max(1);
    let check_step = cases.len().div_ceil(check_budget).max(1);

    let run_started = Instant::now();
    let mut lat_us: Vec<f64> = Vec::with_capacity(cases.len());
    let mut differential_checked = 0usize;
    let mut differential_disagreements = 0usize;
    for case in &cases {
        let tally = &mut tallies[tally_idx(case.class)].1;
        tally.cases += 1;
        let t = Instant::now();
        let parsed = case.parse();
        match parsed {
            Err(_) => {
                let d = t.elapsed();
                tally.parse_errors += 1;
                attack_metrics.observe_parse_error(case.class, Some(d));
                lat_us.push(d.as_secs_f64() * 1e6);
            }
            Ok(None) => {
                // Truncation degenerated the line into a blank — nothing
                // to classify, nothing to count beyond the case itself.
            }
            Ok(Some(req)) => {
                let (verdict, probe) = index.classify(&req);
                let d = t.elapsed();
                match verdict {
                    crate::index::Verdict::Match(_) => tally.matched += 1,
                    crate::index::Verdict::Unmatched => tally.unmatched += 1,
                }
                tally.budget_exhausted += probe.budget_exhausted;
                attack_metrics.observe_classified(case.class, &verdict, &probe, Some(d));
                lat_us.push(d.as_secs_f64() * 1e6);
                if case.id % check_step == 0 {
                    differential_checked += 1;
                    if index.classify_brute(&req).0 != verdict {
                        differential_disagreements += 1;
                    }
                }
            }
        }
    }
    let elapsed = run_started.elapsed().as_secs_f64();

    lat_us.sort_unstable_by(|a, b| a.total_cmp(b));

    let report = AttackBenchReport {
        seed,
        per_class,
        cases: cases.len(),
        per_class_tally: tallies,
        p50_latency_us: percentile(&lat_us, 0.50),
        p99_latency_us: percentile(&lat_us, 0.99),
        elapsed_secs: elapsed,
        differential_checked,
        differential_disagreements,
    };
    (report, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiling_repeats_the_base_set() {
        let base = vec![Request::get("http://h/a"), Request::get("http://h/b")];
        let tiled = tile_requests(&base, 5);
        assert_eq!(tiled.len(), 5);
        assert_eq!(tiled[0].uri.raw, "http://h/a");
        assert_eq!(tiled[4].uri.raw, "http://h/a");
    }

    #[test]
    fn bench_report_json_is_well_formed() {
        let report = BenchReport {
            requests: 100,
            signatures: 10,
            trie_nodes: 42,
            jobs: 2,
            iterations: 3,
            elapsed_secs: 0.5,
            requests_per_sec: 200.0,
            rebuild_secs: 2.0,
            archive_load_secs: 0.01,
            archive_speedup: 200.0,
            p50_latency_us: 3.0,
            p99_latency_us: 9.0,
            stats: ClassifyStats::default(),
        };
        let text = report.to_json().to_json();
        let parsed = JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("requests_per_sec").and_then(|v| v.as_num()), Some(200.0));
        assert_eq!(parsed.get("iterations").and_then(|v| v.as_num()), Some(3.0));
        assert_eq!(parsed.get("archive_speedup").and_then(|v| v.as_num()), Some(200.0));
        assert!(parsed.get("avg_eval_fraction").is_some());
    }
}
