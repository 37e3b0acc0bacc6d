//! The analysis workloads' building blocks: the untraced entry point
//! (`conformance::analyze_app_with`), the layer-by-layer composition the
//! traced run times, report checks, and the seeded one-method mutation.

use crate::spans::SpanStore;
use extractocol_analysis::{
    diagnostics, CallGraph, CallbackRegistry, PointsTo, TaintEngine, TaintOptions,
};
use extractocol_core::flowmodel::SemanticFlowModel;
use extractocol_core::metrics::Metrics;
use extractocol_core::pairing::{self, Pairing};
use extractocol_core::report::{AnalysisReport, Stats, TxnReport};
use extractocol_core::semantics::{ApiOp, SemanticModel};
use extractocol_core::sigbuild::{ResponseSig, SignatureBuilder};
use extractocol_core::slicing::{self, SliceOptions};
use extractocol_core::{demarcation, deobf, interdep, par, stubs, TraceCollector};
use extractocol_corpus::AppSpec;
use extractocol_dynamic::conformance::{analyze_app_with, EvalConfig};
use extractocol_http::HttpMethod;
use extractocol_incr::Epoch;
use extractocol_ir::rng::Rng;
use extractocol_ir::{Apk, Const, Expr, MethodId, ProgramIndex, Stmt, Value};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;

/// Per-layer sums keyed by per-layer metric name.
pub type Tally = BTreeMap<&'static str, f64>;

/// Adds `v` to the tally entry `k`.
pub fn bump(t: &mut Tally, k: &'static str, v: f64) {
    *t.entry(k).or_default() += v;
}

/// `analyze-cold`: whole-program points-to, lint on, no summary cache,
/// one worker per core.
pub fn cold_config() -> EvalConfig {
    EvalConfig::default()
}

/// `analyze-incr`: targeted, with a per-app `.exsm` summary cache.
pub fn incr_config(cache: PathBuf) -> EvalConfig {
    EvalConfig { targeted: true, summary_cache_path: Some(cache), ..EvalConfig::default() }
}

/// The untraced path: the pipeline's public entry point.
pub fn analyze(apk: &Apk, open_source: bool, cfg: &EvalConfig) -> AnalysisReport {
    analyze_app_with(apk, open_source, cfg, &TraceCollector::disabled())
}

/// The report's canonical bytes (timing-free).
pub fn report_json(r: &AnalysisReport) -> String {
    r.to_json().to_json()
}

/// Whether the report's method, pair, JSON and XML counts equal the
/// corpus ground truth (async heuristic off for open-source apps, §5.1).
pub fn matches_truth(app: &AppSpec, r: &AnalysisReport) -> bool {
    let truth = app.truth.static_counts_with(!app.truth.open_source);
    let json: usize = r
        .transactions
        .iter()
        .map(|t| {
            usize::from(matches!(
                t.request_body,
                Some(extractocol_core::sigbuild::BodySig::Json(_))
            )) + usize::from(matches!(t.response, Some(ResponseSig::Json(_))))
        })
        .sum();
    let xml = r.transactions.iter().filter(|t| t.uses_xml()).count();
    (
        r.method_count(HttpMethod::Get),
        r.method_count(HttpMethod::Post),
        r.method_count(HttpMethod::Put),
        r.method_count(HttpMethod::Delete),
        r.pair_count(),
        json,
        xml,
    ) == (truth.get, truth.post, truth.put, truth.delete, truth.pairs, truth.json, truth.xml)
}

/// Appends `"x"` to the first string constant in the named method,
/// returning whether one was found (the same edit the incremental
/// integration tests make).
pub fn perturb_method(apk: &mut Apk, class: &str, method: &str) -> bool {
    let Some(c) = apk.classes.iter_mut().find(|c| c.name == class) else { return false };
    for m in c.methods.iter_mut().filter(|m| m.name == method) {
        for st in &mut m.body {
            match st {
                Stmt::Assign { expr: Expr::Invoke(call), .. } | Stmt::Invoke(call) => {
                    for a in &mut call.args {
                        if let Value::Const(Const::Str(s)) = a {
                            s.push('x');
                            return true;
                        }
                    }
                }
                Stmt::Assign { expr: Expr::Use(Value::Const(Const::Str(s))), .. } => {
                    s.push('x');
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

/// Fisher–Yates shuffle driven by the benchmark's seeded generator.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Picks one transaction-root method of `cold` (seeded) whose string
/// constant can be perturbed, and returns the mutated app plus the
/// method's `class.method` name. Roots are inside every DP cone and feed
/// a signature, so the edit always reaches the analysis.
pub fn mutate_app(apk: &Apk, cold: &AnalysisReport, rng: &mut Rng) -> Option<(Apk, String)> {
    let mut roots: Vec<&str> = Vec::new();
    for t in &cold.transactions {
        if !roots.contains(&t.root.as_str()) {
            roots.push(&t.root);
        }
    }
    shuffle(rng, &mut roots);
    roots.into_iter().find_map(|root| {
        let (class, method) = root.rsplit_once('.')?;
        let mut mutated = apk.clone();
        perturb_method(&mut mutated, class, method).then(|| (mutated, root.to_string()))
    })
}

/// Times the benchmark's calls into each layer: every call becomes a
/// span of the current app and adds its wall time to the tally.
struct LayerClock<'s> {
    spans: &'s mut SpanStore,
    unit: u64,
    tally: Tally,
}

impl LayerClock<'_> {
    fn time<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.spans.record(self.unit, metric, "app", t0, t1);
        bump(&mut self.tally, metric, (t1 - t0).as_secs_f64() * 1e3);
        out
    }

    fn count(&mut self, metric: &'static str, v: usize) {
        bump(&mut self.tally, metric, v as f64);
    }
}

/// The pipeline of `Extractocol::analyze` composed from each module's
/// public functions, with every layer call timed. Options mirror
/// [`analyze_app_with`]: library de-obfuscation and points-to on, the
/// async heuristic off for open-source apps, `cfg` for jobs, targeted
/// mode and the summary cache. The caller checks that the report equals
/// the untraced one, so the split measures the real path.
pub fn analyze_layered(
    apk: &Apk,
    open_source: bool,
    cfg: &EvalConfig,
    spans: &mut SpanStore,
    unit: u64,
) -> (AnalysisReport, Tally) {
    let started = Instant::now();
    let mut clock = LayerClock { spans, unit, tally: Tally::new() };
    let slice_opts = SliceOptions { async_heuristic: !open_source, ..SliceOptions::default() };
    let model = SemanticModel::standard();
    let registry = CallbackRegistry::android_defaults();

    let (apk, deobfuscated) = clock.time("deobf.ms", || {
        let map = deobf::infer_library_map(apk, &stubs::library_reference());
        let n = map.classes.len();
        (deobf::deobfuscate(apk, &map), n)
    });
    clock.count("deobf.classes", deobfuscated);

    let prog = clock.time("ir.index_ms", || ProgramIndex::new(&apk));
    let mut pts = (!cfg.targeted).then(|| clock.time("pointsto.ms", || PointsTo::solve(&prog)));
    let mut graph = clock.time("callgraph.ms", || match &pts {
        Some(p) => CallGraph::build_with_pointsto(&prog, &registry, p),
        None => CallGraph::build(&prog, &registry),
    });
    let sites = clock.time("demarcation.ms", || demarcation::scan(&prog, &model));
    clock.count("demarcation.sites", sites.len());

    let mut cone: Option<HashSet<MethodId>> = None;
    if cfg.targeted {
        let mut seen = HashSet::new();
        let roots: Vec<MethodId> =
            sites.iter().map(|s| s.method).filter(|m| seen.insert(*m)).collect();
        let c = clock.time("incr.cone_ms", || {
            let c = extractocol_incr::cone::compute(&prog, &graph, &roots);
            extractocol_incr::cone::stats(&prog, &c);
            c
        });
        clock.count("incr.cone_methods", c.len());
        let p = clock.time("pointsto.ms", || PointsTo::solve_scoped(&prog, &c));
        graph = clock.time("callgraph.ms", || CallGraph::build_with_pointsto(&prog, &registry, &p));
        pts = Some(p);
        cone = Some(c);
    }
    if let Some(p) = &pts {
        let s = p.stats();
        clock.count("pointsto.propagations", s.propagations);
        clock.count("pointsto.allocs", s.allocs);
    }

    let lints = clock.time("diagnostics.lint_ms", || {
        diagnostics::lint_scoped(
            &prog,
            &graph,
            pts.as_ref(),
            &|callee| !matches!(model.op_for(&prog, callee), ApiOp::Unknown),
            cone.as_ref(),
        )
    });
    clock.count("diagnostics.lints", lints.lints.len());

    let flow_model = SemanticFlowModel::new(&model, &prog);
    let engine = clock.time("taint.engine_ms", || {
        TaintEngine::with_scope(
            &prog,
            &graph,
            &flow_model,
            TaintOptions { max_field_depth: slice_opts.max_field_depth, ..TaintOptions::default() },
            pts.as_ref(),
            cone.as_ref(),
        )
    });

    let epoch = Epoch {
        app: apk.name.clone(),
        max_field_depth: slice_opts.max_field_depth as u32,
        pointsto: true,
        targeted: cfg.targeted,
    };
    let cache_path = cfg.incremental.then(|| cfg.summary_cache_path.clone()).flatten();
    let mut warm = None;
    if let Some(path) = &cache_path {
        let fp = clock.time("incr.fingerprint_ms", || {
            extractocol_incr::validity::fingerprints(&prog, &graph, &engine, cone.as_ref())
        });
        let outcome = clock.time("incr.load_ms", || {
            extractocol_incr::load_into_engine(path, &epoch, &prog, &fp, &engine)
        });
        warm = Some((path, fp, outcome));
    }

    let slices = clock.time("slicing.ms", || {
        slicing::slice_all_on(
            &engine,
            &prog,
            &graph,
            &sites,
            &slice_opts,
            cfg.jobs,
            pts.as_ref(),
            &TraceCollector::disabled(),
        )
    });
    let cache = engine.cache_stats();
    clock.count("taint.cache_hits", cache.hits as usize);
    clock.count("taint.cache_misses", cache.misses as usize);

    if let Some((path, fp, mut outcome)) = warm {
        let bytes = clock.time("incr.save_ms", || {
            let exports = engine.export_summaries();
            let total = cone.as_ref().map_or_else(|| prog.concrete_methods().count(), HashSet::len);
            extractocol_incr::finish_stats(
                &mut outcome.stats,
                &exports,
                &outcome.preloaded_keys,
                total,
            );
            let arch = extractocol_incr::build_archive(&epoch, &fp, &exports);
            let bytes = extractocol_incr::archive::write_archive(&arch);
            std::fs::write(path, &bytes).map_or(0, |_| bytes.len())
        });
        clock.count("incr.archive_bytes", bytes);
        clock.count("incr.reused", outcome.stats.reused_summaries);
        clock.count("incr.recomputed", outcome.stats.recomputed_summaries);
    }

    let txns = clock.time("pairing.ms", || pairing::pair(&prog, &graph, &slices));
    clock.count("pairing.txns", txns.len());

    let transactions: Vec<TxnReport> = clock.time("sigbuild.ms", || {
        par::parallel_map(&txns, cfg.jobs, |_, t| {
            let siblings: Vec<MethodId> = txns
                .iter()
                .filter(|o| o.dp_index == t.dp_index && o.id != t.id)
                .map(|o| o.root)
                .collect();
            let slice = &slices[t.dp_index];
            let sigs = SignatureBuilder::extract_scoped(
                &prog,
                &model,
                &graph,
                slice,
                &siblings,
                !t.response_stmts.is_empty(),
            );
            let method = sigs.request.effective_method(slice.dp.implied_method());
            let response = match (t.pairing, sigs.response) {
                (Pairing::Unpaired, _) => None,
                (_, Some(ResponseSig::Raw)) if !sigs.consumptions.is_empty() => None,
                (_, r) => r,
            };
            TxnReport {
                id: t.id,
                dp_class: slice.dp.spec.class.clone(),
                root: format!("{}.{}", prog.class(t.root.class).name, prog.method(t.root).name),
                method,
                uri_regex: sigs.request.uri.to_regex(),
                uri: sigs.request.uri.clone(),
                headers: sigs
                    .request
                    .headers
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_regex()))
                    .collect(),
                header_sigs: sigs.request.headers.clone(),
                request_body: sigs.request.body.clone(),
                response,
                pairing: t.pairing,
                origins: sigs.origins.clone(),
                consumptions: sigs.consumptions.clone(),
            }
        })
    });

    let dependencies =
        clock.time("interdep.ms", || interdep::dependencies(&prog, &model, &slices, &txns));
    clock.count("interdep.edges", dependencies.len());

    let slice_stats = slicing::stats(&prog, &slices);
    clock.count("slicing.stmts", slice_stats.sliced_stmts);
    let report = AnalysisReport {
        app: apk.name.clone(),
        transactions,
        dependencies,
        stats: Stats {
            total_stmts: slice_stats.total_stmts,
            sliced_stmts: slice_stats.sliced_stmts,
            dp_sites: sites.len(),
            deobfuscated_classes: deobfuscated,
            duration: started.elapsed(),
        },
        metrics: Metrics::default(),
    };
    clock.spans.record(unit, "app", "", started, Instant::now());
    (report, clock.tally)
}
