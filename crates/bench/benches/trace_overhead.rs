//! Observability overhead (ISSUE 5 acceptance bar: ≤ 10% with tracing
//! off-by-default). Three configurations per app:
//!
//! * `plain`    — `analyze`, no collector anywhere near the run,
//! * `trace=off` — `analyze_traced` with a *disabled* collector: every
//!   span site costs exactly one `Option` branch,
//! * `trace=on`  — `analyze_traced` with an enabled collector: the real
//!   cost of recording the full span tree.
//!
//! Plus the serving side: `classify_batch` with its observer off vs on
//! (metrics on, trace off) — the cost of the per-request timer and
//! atomic counter updates, which is why the bench throughput gate keeps
//! its timed batch on the observer-off path.

use extractocol_bench::timing;
use extractocol_core::{Extractocol, Options, TraceCollector};
use extractocol_serve::{classify_batch, ServeMetrics, SignatureIndex};

fn main() {
    println!("== trace_overhead (pipeline) ==");
    for name in ["radio reddit", "TED", "Pinterest"] {
        let app = extractocol_corpus::app(name).expect("corpus app");
        let analyzer = Extractocol::with_options(Options { jobs: 1, ..Options::default() });
        let plain =
            timing::bench(&format!("analyze/{name} plain"), 1, 10, || analyzer.analyze(&app.apk));
        let disabled = TraceCollector::disabled();
        let off = timing::bench(&format!("analyze/{name} trace=off"), 1, 10, || {
            analyzer.analyze_traced(&app.apk, &disabled)
        });
        let enabled = TraceCollector::enabled();
        let on = timing::bench(&format!("analyze/{name} trace=on"), 1, 10, || {
            let r = analyzer.analyze_traced(&app.apk, &enabled);
            enabled.drain();
            r
        });
        println!(
            "  -> overhead: trace=off {:+.1}%  trace=on {:+.1}%\n",
            100.0 * (off.speedup_over(&plain) - 1.0),
            100.0 * (on.speedup_over(&plain) - 1.0),
        );
    }

    println!("== trace_overhead (serving) ==");
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let report = extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, 0);
    let index = SignatureIndex::compile(std::slice::from_ref(&report));
    let base: Vec<_> = extractocol_dynamic::run_perfect_fuzzer(&app)
        .transactions
        .into_iter()
        .map(|t| t.request)
        .collect();
    let requests = extractocol_serve::bench::tile_requests(&base, 20_000);
    let plain =
        timing::bench("classify/20k plain", 1, 10, || classify_batch(&index, &requests, 0, None));
    let disabled = TraceCollector::disabled();
    let observed = timing::bench("classify/20k observed (trace off)", 1, 10, || {
        classify_batch(&index, &requests, 0, Some((&ServeMetrics::new(), &disabled)))
    });
    println!(
        "  -> instrumented-pass overhead {:+.1}%",
        100.0 * (observed.speedup_over(&plain) - 1.0),
    );
}
