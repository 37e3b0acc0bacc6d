//! Adversarial robustness property suite (ISSUE 6).
//!
//! Seeded attack traffic from `extractocol_dynamic::adversarial` against
//! the full serving path, pinning the robustness contract:
//!
//! * **totality** — every generated line parses or yields a structured
//!   error; the round-trip property holds under arbitrary byte noise;
//! * **bounded work** — regex *and* body matching run under step
//!   budgets; pathological signatures yield `BudgetExceeded`-as-non-match
//!   identically on the trie-pruned and brute-force paths;
//! * **determinism** — verdicts and deterministic-family metrics are
//!   byte-identical across runs and across `--jobs` levels.
//!
//! Seeds are fixed here; `extractocol-serve attack --seed` replays any
//! case by suite seed, and each `AttackCase` carries its derived
//! per-case seed for single-case reproduction.

use extractocol_core::metrics::Metrics;
use extractocol_core::pairing::Pairing;
use extractocol_core::report::{AnalysisReport, Stats, TxnReport};
use extractocol_core::siglang::SigPat;
use extractocol_dynamic::{generate_attacks, AdversarialConfig, AttackClass, TrafficTrace};
use extractocol_http::{HttpMethod, Request};
use extractocol_ir::rng::Rng;
use extractocol_serve::{classify_batch, SignatureIndex};
use extractocol_serve::{AttackMetrics, ServeMetrics};

fn corpus_index_and_requests() -> (SignatureIndex, Vec<Request>) {
    let apps = extractocol_corpus::all_apps();
    let reports: Vec<_> = apps
        .iter()
        .map(|app| {
            extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, 1)
        })
        .collect();
    let index = SignatureIndex::compile(&reports);
    let requests: Vec<_> = apps
        .iter()
        .take(8)
        .flat_map(|app| {
            extractocol_dynamic::run_perfect_fuzzer(app).transactions.into_iter().map(|t| t.request)
        })
        .collect();
    (index, requests)
}

fn attack_suite(base: &[Request]) -> Vec<extractocol_dynamic::AttackCase> {
    generate_attacks(&AdversarialConfig { seed: 0xDEAD_BEEF, per_class: 8 }, base)
}

/// Satellite (a): serialize/parse round-trip under PRNG byte noise. The
/// parser must return the original trace, or a structured error — never
/// panic, never silently drop or alter a request.
#[test]
fn round_trip_survives_byte_noise_or_fails_structured() {
    let (_, requests) = corpus_index_and_requests();
    let trace = TrafficTrace {
        app: "noise".into(),
        transactions: requests
            .iter()
            .take(40)
            .cloned()
            .map(|request| extractocol_http::Transaction {
                request,
                response: extractocol_http::Response::ok(extractocol_http::Body::Empty),
            })
            .collect(),
    };
    let clean = trace.to_request_text();

    // Unmutated text round-trips exactly.
    let back = TrafficTrace::parse_request_text("noise", &clean).expect("clean round trip");
    assert_eq!(back.transactions.len(), trace.transactions.len());
    for (orig, rt) in trace.transactions.iter().zip(&back.transactions) {
        assert_eq!(orig.request.method, rt.request.method);
        assert_eq!(orig.request.uri.raw, rt.request.uri.raw);
        assert_eq!(orig.request.body, rt.request.body);
    }

    // Mutated bytes: flip/insert/delete random bytes, parse, and demand
    // totality. When parsing still succeeds, re-serializing must be a
    // fixpoint (no silent truncation: whatever survived parses the same
    // way forever after).
    let mut rng = Rng::new(0x0B57_AC1E);
    for _ in 0..200 {
        let mut bytes = clean.clone().into_bytes();
        for _ in 0..1 + rng.below(8) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.below(bytes.len());
            match rng.below(3) {
                0 => bytes[at] = rng.below(256) as u8,
                1 => bytes.insert(at, rng.below(256) as u8),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        match TrafficTrace::parse_request_bytes("noise", &bytes) {
            Err(e) => {
                // Structured and anchored: the error names a line within
                // the (mutated) input.
                assert!(e.line >= 1);
                assert!(!e.to_string().is_empty());
            }
            Ok(parsed) => {
                let reserialized = parsed.to_request_text();
                let again = TrafficTrace::parse_request_text("noise", &reserialized)
                    .expect("re-serialized trace must parse");
                assert_eq!(again.transactions.len(), parsed.transactions.len());
                for (a, b) in parsed.transactions.iter().zip(&again.transactions) {
                    assert_eq!(a.request.method, b.request.method);
                    assert_eq!(a.request.uri.raw, b.request.uri.raw);
                    assert_eq!(a.request.body, b.request.body);
                }
            }
        }
    }
}

/// Tentpole: every attack class yields a deterministic verdict with no
/// panic, and the trie-pruned path agrees with brute force on every
/// adversarial input (the differential oracle extended to hostile
/// traffic).
#[test]
fn every_attack_class_gets_deterministic_brute_equal_verdicts() {
    let (index, requests) = corpus_index_and_requests();
    let cases = attack_suite(&requests);
    assert_eq!(cases.len(), AttackClass::ALL.len() * 8);

    let mut seen_parse_errors = 0usize;
    for case in &cases {
        // First parse: total.
        let first = case.parse();
        // Second parse: byte-identical outcome (determinism).
        let second = case.parse();
        match (&first, &second) {
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "nondeterministic parse error for case {}", case.id);
                seen_parse_errors += 1;
            }
            (Ok(_), Ok(_)) => {}
            _ => panic!(
                "parse nondeterminism on {:?} case {} (seed {})",
                case.class, case.id, case.seed
            ),
        }
        if let Ok(Some(req)) = first {
            let (v1, _) = index.classify(&req);
            let (v2, _) = index.classify(&req);
            assert_eq!(v1, v2, "classify nondeterministic for case {}", case.id);
            let (brute, _) = index.classify_brute(&req);
            assert_eq!(
                v1, brute,
                "trie vs brute-force divergence on {:?} case {} (seed {}): {}",
                case.class, case.id, case.seed, case.line
            );
        }
    }
    // The malformed classes must actually exercise the error paths.
    assert!(seen_parse_errors > 0, "attack suite produced no parse errors at all");
}

/// Satellite (c): the same adversarial corpus must classify to
/// byte-identical verdicts and deterministic-family metrics at jobs=1
/// vs jobs=8.
#[test]
fn adversarial_corpus_is_jobs_invariant() {
    let (index, requests) = corpus_index_and_requests();
    let cases = attack_suite(&requests);
    let parsed: Vec<Request> = cases.iter().filter_map(|c| c.parse().ok().flatten()).collect();
    assert!(parsed.len() > 20, "too few parseable attack cases: {}", parsed.len());

    let (v1, s1) = classify_batch(&index, &parsed, 1, None);
    let (v8, s8) = classify_batch(&index, &parsed, 8, None);
    assert_eq!(v1, v8, "verdicts differ between jobs=1 and jobs=8");
    assert_eq!(s1, s8, "stats differ between jobs=1 and jobs=8");

    // Deterministic metric families render byte-identically too.
    let m1 = ServeMetrics::new();
    let m8 = ServeMetrics::new();
    let t = extractocol_core::TraceCollector::disabled();
    classify_batch(&index, &parsed, 1, Some((&m1, &t)));
    classify_batch(&index, &parsed, 8, Some((&m8, &t)));
    assert_eq!(
        m1.registry.render_deterministic(),
        m8.registry.render_deterministic(),
        "deterministic metric families differ across jobs"
    );
}

fn txn(id: usize, method: HttpMethod, uri: SigPat) -> TxnReport {
    TxnReport {
        id,
        dp_class: "org.apache.http.client.HttpClient".into(),
        root: "t.C.go".into(),
        method,
        uri_regex: uri.to_regex(),
        uri,
        headers: Vec::new(),
        header_sigs: Vec::new(),
        request_body: None,
        response: None,
        pairing: Pairing::Unique,
        origins: Vec::new(),
        consumptions: Vec::new(),
    }
}

fn report(app: &str, txns: Vec<TxnReport>) -> AnalysisReport {
    AnalysisReport {
        app: app.into(),
        transactions: txns,
        dependencies: Vec::new(),
        stats: Stats::default(),
        metrics: Metrics::default(),
    }
}

/// A nested-Rep/Or signature whose structural match blows the step
/// budget on a long ambiguous input (the regexlite regression test's
/// shape, lifted to the serving index).
fn pathological_sig() -> SigPat {
    let arm = SigPat::lit("q=")
        .concat(SigPat::lit("cats").or(SigPat::lit("dogs")).or(SigPat::any_str()))
        .concat(SigPat::lit("&"));
    // Each extra Rep layer re-runs the position-set closure, multiplying
    // step cost; eight layers over a ~220 KiB ambiguous input needs ~7M
    // steps, comfortably past DEFAULT_MATCH_BUDGET (~4.2M).
    let mut rep = SigPat::Rep(Box::new(arm));
    for _ in 1..8 {
        rep = SigPat::Rep(Box::new(rep));
    }
    SigPat::lit("http://h/api?").concat(rep).concat(SigPat::lit("tail"))
}

/// Tentpole hardening: budget blowout is `BudgetExceeded`-as-non-match
/// under BOTH the trie and brute-force paths, counted in the probe, and
/// deterministic — so the differential oracle holds even when budgets
/// trip.
#[test]
fn budget_exhaustion_is_a_deterministic_nonmatch_on_both_paths() {
    let index = SignatureIndex::compile(&[report(
        "patho",
        vec![txn(0, HttpMethod::Get, pathological_sig())],
    )]);

    // Long ambiguous input with the right literal prefix (survives trie
    // pruning) and no trailing "tail": the structural matcher burns its
    // budget on Rep-loop fan-out.
    let uri = format!("http://h/api?{}", "q=cats&q=0&".repeat(20000));
    let req = Request::get(&uri);

    let (v_trie, p_trie) = index.classify(&req);
    let (v_brute, p_brute) = index.classify_brute(&req);
    assert_eq!(v_trie, extractocol_serve::Verdict::Unmatched);
    assert_eq!(v_trie, v_brute);
    assert!(p_trie.budget_exhausted > 0, "expected the pathological probe to exhaust the budget");
    assert_eq!(p_trie.budget_exhausted, p_brute.budget_exhausted);

    // Determinism: identical probes on repeat runs.
    let (v2, p2) = index.classify(&req);
    assert_eq!(v_trie, v2);
    assert_eq!(p_trie.budget_exhausted, p2.budget_exhausted);

    // A matching short input still matches on both paths.
    let ok = Request::get("http://h/api?q=cats&tail");
    assert_eq!(index.classify(&ok).0, index.classify_brute(&ok).0);
    assert_eq!(index.classify(&ok).0, extractocol_serve::Verdict::Match(0));
}

/// Tentpole hardening: deep and giant bodies are either parsed under the
/// depth/node/byte limits or rejected with a structured error — and a
/// body whose *matching* (not parsing) would blow the budget is a
/// deterministic non-match on both classify paths.
#[test]
fn body_budgets_bound_parsing_and_matching() {
    use extractocol_core::sigbuild::BodySig;
    use extractocol_core::siglang::JsonSig;

    // Parsing: a 100k-deep nesting bomb is a structured parse error.
    let bomb = format!("POST\thttp://h/api\tapplication/json\t{}", "[".repeat(100_000));
    let err = TrafficTrace::parse_request_text("bomb", &bomb).unwrap_err();
    assert!(err.to_string().contains("depth limit"), "{err}");

    // A 100-deep document parses fine (limit is 128)...
    let deep_json = format!("{}1{}", "[".repeat(100), "]".repeat(100));
    let line = format!("POST\thttp://h/api\tapplication/json\t{deep_json}");
    let trace = TrafficTrace::parse_request_text("deep", &line).expect("within limits");
    let deep_req = trace.transactions[0].request.clone();

    // ...and matching it against a body signature is budget-bounded and
    // identical across both classify paths.
    let mut body_sig = JsonSig::object();
    body_sig.put("k", JsonSig::Unknown);
    let mut t = txn(0, HttpMethod::Post, SigPat::lit("http://h/api"));
    t.request_body = Some(BodySig::Json(body_sig.clone()));
    let index = SignatureIndex::compile(&[report("deep", vec![t])]);
    let (v_trie, _) = index.classify(&deep_req);
    let (v_brute, _) = index.classify_brute(&deep_req);
    assert_eq!(v_trie, v_brute);

    // Direct check: the budgeted body matcher reports BudgetExceeded
    // (distinct from false) when starved, like the regex engine.
    let sig = BodySig::Json(body_sig);
    let body = deep_req.body.clone();
    let starved = extractocol_core::conformance::request_body_matches_budgeted(&sig, &body, 3);
    assert!(starved.is_err(), "expected BudgetExceeded under a starved budget");
    let funded =
        extractocol_core::conformance::request_body_matches_budgeted(&sig, &body, usize::MAX);
    assert_eq!(funded, Ok(false));
}

/// Tentpole observability: the attack bench fills the per-class counter
/// families and the p99-under-attack histogram, and the deterministic
/// families are identical across repeat runs.
#[test]
fn attack_metrics_are_deterministic_and_complete() {
    let (index, requests) = corpus_index_and_requests();
    let cases = attack_suite(&requests);

    let run = || {
        let m = ServeMetrics::new();
        let a = AttackMetrics::on(&m.registry);
        for case in &cases {
            match case.parse() {
                Err(_) => a.observe_parse_error(case.class, None),
                Ok(None) => {}
                Ok(Some(req)) => {
                    let (verdict, probe) = index.classify(&req);
                    a.observe_classified(case.class, &verdict, &probe, None);
                }
            }
        }
        m.registry.render_deterministic()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "attack counters differ across identical runs");

    // Every class renders its counter family.
    for class in AttackClass::ALL {
        let needle = format!("serve_attack_cases_total{{class=\"{}\"}}", class.name());
        assert!(first.contains(&needle), "missing {needle} in:\n{first}");
    }
    assert!(first.contains("serve_attack_parse_errors_total"));
    assert!(first.contains("serve_attack_budget_exhausted_total"));
    assert!(first.contains("serve_attack_verdict_total"));
}
