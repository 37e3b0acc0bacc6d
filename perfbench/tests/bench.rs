//! The benchmark's own checks: seeded generators are deterministic and
//! keep their shape across seeds, near-miss lines really are near
//! misses, the traced compositions equal the real paths, and the metric
//! names the command prints are exactly those in `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the corpus analysis behind the index is slow in a debug build).

use extractocol_http::{JsonValue, Request};
use extractocol_ir::rng::Rng;
use extractocol_perfbench::analysis::{self, Tally};
use extractocol_perfbench::metrics::{END_TO_END, PER_LAYER};
use extractocol_perfbench::serving::{self, Kind};
use extractocol_perfbench::spans::SpanStore;
use extractocol_serve::SignatureIndex;
use std::sync::OnceLock;

/// The corpus index and traffic, built once per test binary.
fn fixture() -> &'static (SignatureIndex, Vec<String>, Vec<Request>) {
    static FIXTURE: OnceLock<(SignatureIndex, Vec<String>, Vec<Request>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let index = SignatureIndex::compile(&extractocol_serve::bench::corpus_reports(0));
        let lines = serving::corpus_lines();
        let base = lines.iter().filter_map(|l| serving::parsed(l)).collect();
        (index, lines, base)
    })
}

#[test]
fn generators_are_deterministic_per_seed() {
    let (index, lines, base) = fixture();
    assert_eq!(
        serving::near_miss_lines(index, base, 64, 7),
        serving::near_miss_lines(index, base, 64, 7)
    );
    assert_ne!(
        serving::near_miss_lines(index, base, 64, 7),
        serving::near_miss_lines(index, base, 64, 8)
    );
    assert_eq!(serving::attack_lines(base, 7), serving::attack_lines(base, 7));
    assert_eq!(
        serving::stream_traffic(index, lines, 7).lines,
        serving::stream_traffic(index, lines, 7).lines
    );
    assert_ne!(
        serving::rtt_traffic(index, lines, 7).lines,
        serving::rtt_traffic(index, lines, 8).lines
    );

    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let cold = analysis::analyze(&app.apk, app.truth.open_source, &analysis::cold_config());
    let pick = |seed| analysis::mutate_app(&app.apk, &cold, &mut Rng::new(seed)).map(|m| m.1);
    assert!(pick(3).is_some());
    assert_eq!(pick(3), pick(3));
}

#[test]
fn a_held_out_seed_has_the_same_workload_shape() {
    let (index, lines, _) = fixture();
    let shape = |seed| {
        let t = serving::stream_traffic(index, lines, seed);
        [Kind::Corpus, Kind::NearMiss, Kind::Attack].map(|k| t.count(k))
    };
    let want = [lines.len(), serving::NEAR_MISS_PER_TILE, serving::ATTACKS_PER_TILE];
    assert_eq!(shape(1), want);
    assert_eq!(shape(987_654_321), want);
    let classes: Vec<_> =
        serving::attack_lines(&fixture().2, 987_654_321).into_iter().map(|(c, _)| c).collect();
    assert_eq!(classes, extractocol_dynamic::AttackClass::ALL.to_vec(), "all 7 attack classes");
}

#[test]
fn near_miss_lines_match_nothing_but_reach_candidates() {
    let (index, _, base) = fixture();
    let lines = serving::near_miss_lines(index, base, serving::NEAR_MISS_PER_TILE, 11);
    assert_eq!(lines.len(), serving::NEAR_MISS_PER_TILE);
    for line in &lines {
        let req = serving::parsed(line).expect("near-miss lines parse");
        assert!(serving::is_near_miss(index, &req, true), "not a near miss: {line}");
    }
}

#[test]
fn composed_classify_equals_the_index_on_every_line() {
    let (index, lines, _) = fixture();
    let traffic = serving::stream_traffic(index, lines, 5);
    let mut spans = SpanStore::default();
    let mut tally = Tally::new();
    for (i, line) in traffic.lines.iter().enumerate() {
        assert!(serving::classify_layered(index, line, &mut spans, i as u64, &mut tally), "{line}");
    }
    assert_eq!(tally["requests"], traffic.len() as f64);
    assert!(tally["siglang.uri_evals_per_req"] > 0.0);
}

#[test]
fn layered_analysis_equals_the_pipeline() {
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let os = app.truth.open_source;
    let cold = analysis::analyze(&app.apk, os, &analysis::cold_config());
    let (layered, tally) = analysis::analyze_layered(
        &app.apk,
        os,
        &analysis::cold_config(),
        &mut SpanStore::default(),
        0,
    );
    assert_eq!(analysis::report_json(&cold), analysis::report_json(&layered));
    assert!(analysis::matches_truth(&app, &layered));
    assert!(tally["pointsto.propagations"] > 0.0);

    let dir = std::env::temp_dir().join(format!("perfbench_layered_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = analysis::incr_config(dir.join("app.exsm"));
    let (cold_incr, _) =
        analysis::analyze_layered(&app.apk, os, &cfg, &mut SpanStore::default(), 0);
    let (warm, tally) = analysis::analyze_layered(&app.apk, os, &cfg, &mut SpanStore::default(), 0);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(analysis::report_json(&cold), analysis::report_json(&cold_incr));
    assert_eq!(analysis::report_json(&cold), analysis::report_json(&warm));
    assert!(tally["incr.reused"] > 0.0 && tally["incr.archive_bytes"] > 0.0);
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = JsonValue::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        let Some(JsonValue::Array(items)) = json.get(key) else { panic!("{key} is not a list") };
        items
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let ours = |names: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        names.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
}
