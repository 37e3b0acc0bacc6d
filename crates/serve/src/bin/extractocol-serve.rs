//! The `extractocol-serve` command-line tool: compile signatures into the
//! serving index (in-memory or as a persistent archive), classify
//! traffic, run the long-lived daemon, or benchmark the pipeline.
//!
//! ```bash
//! # Compile the corpus index once into a persistent archive:
//! extractocol-serve compile --corpus --out index.exsv --jobs 0
//!
//! # Classify a traffic file — from an archive (fast) or from sources:
//! extractocol-serve classify --index index.exsv --traffic requests.txt
//! extractocol-serve classify --report app.jimple --traffic requests.txt
//! extractocol-serve classify --corpus --traffic requests.txt --jobs 0
//!
//! # Long-running daemon over TCP (or --stdin), with hot swap:
//! extractocol-serve daemon --index index.exsv --listen 127.0.0.1:0 \
//!     --port-file daemon.port --metrics-out METRICS_daemon.txt \
//!     --log-out daemon_events.log --log-level debug
//! extractocol-serve send --port-file daemon.port --traffic requests.txt
//!
//! # Live introspection of a running daemon (no restart):
//! extractocol-serve scrape --port-file daemon.port --verb METRICS \
//!     --out METRICS_live.txt
//! extractocol-serve scrape --port-file daemon.port --verb HEALTH
//!
//! # Throughput benchmark over the corpus fuzzer traffic:
//! extractocol-serve bench --requests 50000 --jobs 0 --iterations 3 \
//!     --baseline BENCH_classify.baseline.json --margin 0.5
//! ```
//!
//! The traffic file is line-based, one request per line —
//! `METHOD<TAB>URI[<TAB>MIME<TAB>BODY]` with `#` comments (the
//! `TrafficTrace::to_request_text` format). The daemon speaks the same
//! lines plus the `PING`/`STATS`/`SWAP`/`METRICS`/`HEALTH`/`SLOW`/
//! `SHUTDOWN` control verbs.
//!
//! `bench` reports best-of-`--iterations` throughput and exits non-zero
//! when it falls below `--margin` × the baseline's `requests_per_sec`,
//! when the average candidate fraction exceeds the 20% pruning bar, or
//! when loading the archive is not at least `--min-speedup` (default
//! 20x) faster than the full rebuild.

use extractocol_core::report::AnalysisReport;
use extractocol_core::TraceCollector;
use extractocol_obs::cli::{
    self, Args, Command, Exit, Flag, JOBS, LOG_LEVEL, LOG_OUT, METRICS_OUT, TRACE_OUT,
};
use extractocol_serve::bench as serve_bench;
use extractocol_serve::{
    classify_batch, Daemon, DaemonConfig, ServeMetrics, SignatureIndex, Verdict,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const REPORT: Flag = Flag::value("--report", "<app.jimple>");
const CORPUS: Flag = Flag::switch("--corpus");
const APP: Flag = Flag::value("--app", "<name>");
const INDEX: Flag = Flag::value("--index", "<index.exsv>");
const TRAFFIC: Flag = Flag::value("--traffic", "<file>").required();
const ADDR: Flag = Flag::value("--addr", "<host:port>");
const PORT_FILE: Flag = Flag::value("--port-file", "<file>");
const OUT: Flag = Flag::value("--out", "<file>");

static COMPILE: Command = Command {
    name: "extractocol-serve compile",
    operands: "",
    flags: &[REPORT, CORPUS, APP, Flag::value("--out", "<index.exsv>").required(), JOBS],
};

static CLASSIFY: Command = Command {
    name: "extractocol-serve classify",
    operands: "",
    flags: &[
        INDEX,
        REPORT,
        CORPUS,
        APP,
        TRAFFIC,
        JOBS,
        Flag::switch("--json"),
        METRICS_OUT,
        TRACE_OUT,
    ],
};

static DAEMON: Command = Command {
    name: "extractocol-serve daemon",
    operands: "",
    flags: &[
        INDEX.required(),
        Flag::switch("--stdin"),
        Flag::value("--listen", "<addr>"),
        PORT_FILE,
        METRICS_OUT,
        TRACE_OUT,
        LOG_OUT,
        LOG_LEVEL,
    ],
};

static SEND: Command =
    Command { name: "extractocol-serve send", operands: "", flags: &[ADDR, PORT_FILE, TRAFFIC] };

static SCRAPE: Command = Command {
    name: "extractocol-serve scrape",
    operands: "",
    flags: &[
        ADDR,
        PORT_FILE,
        // Only introspection verbs: scrape must never mutate daemon state.
        Flag::checked("--verb", "METRICS|HEALTH|SLOW|STATS|PING", |v| {
            matches!(v, "METRICS" | "HEALTH" | "SLOW" | "STATS" | "PING")
        })
        .required(),
        OUT,
    ],
};

static BENCH: Command = Command {
    name: "extractocol-serve bench",
    operands: "",
    flags: &[
        Flag::parsed::<usize>("--requests", "<n>"),
        JOBS,
        Flag::parsed::<usize>("--iterations", "<n>"),
        OUT,
        Flag::value("--baseline", "<file>"),
        Flag::checked("--margin", "<frac>", |v| {
            v.parse::<f64>().is_ok_and(|f| (0.0..=1.0).contains(&f))
        }),
        Flag::parsed::<f64>("--min-speedup", "<x>"),
        METRICS_OUT,
    ],
};

static ATTACK: Command = Command {
    name: "extractocol-serve attack",
    operands: "",
    flags: &[
        INDEX,
        Flag::parsed::<u64>("--seed", "<n>"),
        Flag::parsed::<usize>("--per-class", "<n>"),
        JOBS,
        OUT,
        METRICS_OUT,
        Flag::switch("--json"),
    ],
};

type Run = fn(Args) -> Result<(), Exit>;

static COMMANDS: [(&Command, Run); 7] = [
    (&COMPILE, cmd_compile),
    (&CLASSIFY, cmd_classify),
    (&DAEMON, cmd_daemon),
    (&SEND, cmd_send),
    (&SCRAPE, cmd_scrape),
    (&BENCH, cmd_bench),
    (&ATTACK, cmd_attack),
];

fn main() -> ExitCode {
    cli::run("extractocol-serve", || {
        let mut argv = std::env::args().skip(1);
        let sub = argv.next().unwrap_or_default();
        let name = format!("extractocol-serve {sub}");
        match COMMANDS.iter().find(|(cmd, _)| cmd.name == name) {
            Some((cmd, run)) => run(cmd.parse(argv)?),
            None => {
                cli::print_usage(&COMMANDS.map(|(cmd, _)| cmd));
                let help = sub == "--help" || sub == "-h";
                Err(Exit::Code(if help { ExitCode::SUCCESS } else { ExitCode::from(2) }))
            }
        }
    })
}

/// Whether `args` name any analysis source for the index.
fn has_sources(args: &Args) -> bool {
    args.has(REPORT.name) || args.has(CORPUS.name) || args.has(APP.name)
}

/// Builds the report set shared by `compile` and `classify`: explicit
/// jimple files, the whole corpus, or one corpus app by name.
fn build_reports(args: &Args, jobs: usize) -> Result<Vec<AnalysisReport>, Exit> {
    let mut reports = Vec::new();
    for path in args.values(REPORT.name) {
        let src = cli::read_input(path)?;
        let apk = extractocol_ir::parser::parse_apk(&src)
            .map_err(|e| format!("{path}: parse error at {e}"))?;
        reports.push(extractocol_dynamic::conformance::analyze_app(&apk, false, jobs));
    }
    let app_filter = args.value(APP.name);
    if args.has(CORPUS.name) || app_filter.is_some() {
        let mut apps = extractocol_corpus::all_apps();
        if let Some(name) = app_filter {
            apps.retain(|a| a.truth.name == name);
            if apps.is_empty() {
                return Err(format!("no corpus app named {name:?}").into());
            }
        }
        for app in &apps {
            reports.push(extractocol_dynamic::conformance::analyze_app(
                &app.apk,
                app.truth.open_source,
                jobs,
            ));
        }
    }
    Ok(reports)
}

/// Loads a compiled index from a persistent archive, with the typed
/// error rendered for humans.
fn load_index(path: &str) -> Result<SignatureIndex, Exit> {
    extractocol_serve::read_archive_file(path)
        .map_err(|e| format!("cannot load index {path}: {e}").into())
}

/// The daemon address from `--addr`, or `127.0.0.1:<port>` with the port
/// read from `--port-file`.
fn daemon_addr(args: &Args, cmd: &Command) -> Result<String, Exit> {
    match (args.value(ADDR.name), args.value(PORT_FILE.name)) {
        (Some(addr), _) => Ok(addr.to_string()),
        (None, Some(path)) => Ok(format!("127.0.0.1:{}", cli::read_input(path)?.trim())),
        (None, None) => Err(cmd.misuse()),
    }
}

/// `extractocol-serve compile`: build the index once, write the archive.
fn cmd_compile(args: Args) -> Result<(), Exit> {
    if !has_sources(&args) {
        return Err(COMPILE.misuse());
    }
    let out_path = args.value("--out").expect("required flag");
    let t = Instant::now();
    let index = SignatureIndex::compile(&build_reports(&args, args.get(JOBS.name).unwrap_or(0))?);
    let compile_secs = t.elapsed().as_secs_f64();
    extractocol_serve::write_archive_file(&index, out_path)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "compiled {} signatures ({} trie nodes) in {compile_secs:.2}s -> {out_path} ({bytes} bytes)",
        index.len(),
        index.trie_nodes(),
    );
    Ok(())
}

/// `extractocol-serve daemon`: serve the line protocol until SHUTDOWN.
fn cmd_daemon(args: Args) -> Result<(), Exit> {
    let index_path = args.value(INDEX.name).expect("required flag");
    let listen = args.value("--listen");
    if args.has("--stdin") == listen.is_some() {
        // Exactly one transport.
        return Err(DAEMON.misuse());
    }
    let trace_out = args.value(TRACE_OUT.name);

    let t_load = Instant::now();
    let index = load_index(index_path)?;
    let load_secs = t_load.elapsed().as_secs_f64();
    let trace =
        if trace_out.is_some() { TraceCollector::enabled() } else { TraceCollector::disabled() };
    // The CI gate greps the event log while the daemon is still serving,
    // which the unbuffered sink from `cli::event_log` allows.
    let daemon = Arc::new(Daemon::with_observability(
        index,
        DaemonConfig::default(),
        extractocol_obs::Registry::new(),
        trace,
        cli::event_log(&args)?,
    ));
    daemon.metrics_index_load(load_secs);
    daemon
        .events
        .info("daemon", "daemon started")
        .field("signatures", daemon.index().len())
        .field("index_path", index_path)
        .emit();
    eprintln!(
        "daemon: serving {} signatures (loaded {index_path} in {:.1}ms)",
        daemon.index().len(),
        load_secs * 1e3,
    );

    let result = match listen {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            daemon.run_lines(stdin.lock(), stdout.lock())
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr.to_string());
            if let Some(path) = args.value(PORT_FILE.name) {
                let port = local.rsplit(':').next().unwrap_or("");
                cli::write_output(path, format!("{port}\n"))?;
            }
            eprintln!("daemon: listening on {local}");
            daemon.serve_tcp(listener)
        }
    };
    result.map_err(|e| format!("daemon: {e}"))?;

    if let Some(path) = args.value(METRICS_OUT.name) {
        cli::write_output(path, daemon.registry.render())?;
    }
    if let Some(path) = trace_out {
        cli::write_output(path, extractocol_obs::chrome_trace_json(&daemon.trace.drain()))?;
    }
    eprintln!("daemon: drained and shut down ({})", daemon.stats_line().replace('\t', " "));
    Ok(())
}

/// `extractocol-serve send`: line-protocol client. Streams a traffic
/// file to a running daemon and prints one response per request line;
/// exits non-zero if the daemon drops any response.
fn cmd_send(args: Args) -> Result<(), Exit> {
    let addr = daemon_addr(&args, &SEND)?;
    let input = cli::read_input(args.value(TRAFFIC.name).expect("required flag"))?;
    let responses =
        extractocol_serve::daemon::send_lines(&addr, &input).map_err(|e| format!("send: {e}"))?;
    for r in &responses {
        println!("{r}");
    }
    eprintln!("send: {} request(s), {} response(s)", responses.len(), responses.len());
    Ok(())
}

/// `extractocol-serve scrape`: one-shot live introspection. Sends a
/// single control verb to a running daemon and prints (or writes) the
/// reply payload — the Prometheus exposition for `METRICS`, the health
/// line for `HEALTH`, the exemplar dump for `SLOW`.
fn cmd_scrape(args: Args) -> Result<(), Exit> {
    let addr = daemon_addr(&args, &SCRAPE)?;
    let verb = args.value("--verb").expect("required flag");
    let payload =
        extractocol_serve::daemon::scrape(&addr, verb).map_err(|e| format!("scrape: {e}"))?;
    match args.value(OUT.name) {
        Some(path) => cli::write_output(path, &payload)?,
        None => print!("{payload}"),
    }
    Ok(())
}

fn cmd_classify(args: Args) -> Result<(), Exit> {
    let index_path = args.value(INDEX.name);
    if index_path.is_none() && !has_sources(&args) {
        return Err(CLASSIFY.misuse());
    }
    let jobs = args.get(JOBS.name).unwrap_or(1);
    let metrics_out = args.value(METRICS_OUT.name);
    let trace_out = args.value(TRACE_OUT.name);

    // Index source: a persistent archive (fast path), or compile from
    // jimple files / the corpus.
    let t_compile = Instant::now();
    let index = match index_path {
        Some(_) if has_sources(&args) => {
            eprintln!("extractocol-serve: --index excludes --report/--corpus/--app");
            return Err(CLASSIFY.misuse());
        }
        Some(path) => load_index(path)?,
        None => SignatureIndex::compile(&build_reports(&args, jobs)?),
    };
    let compile_dur = t_compile.elapsed();

    let traffic_path = args.value(TRAFFIC.name).expect("required flag");
    let text = cli::read_input(traffic_path)?;
    let trace = extractocol_dynamic::TrafficTrace::parse_request_text("traffic", &text)
        .map_err(|e| format!("{traffic_path}: {e}"))?;
    let requests: Vec<_> = trace.transactions.into_iter().map(|t| t.request).collect();

    // Instruments/spans only on request — the plain path stays the
    // uninstrumented classifier.
    let observed = metrics_out.is_some() || trace_out.is_some();
    let serve_metrics = ServeMetrics::new();
    let collector =
        if trace_out.is_some() { TraceCollector::enabled() } else { TraceCollector::disabled() };
    let t_classify = Instant::now();
    let observer = observed.then_some((&serve_metrics, &collector));
    let (verdicts, stats) = classify_batch(&index, &requests, jobs, observer);
    if observed {
        serve_metrics.observe_phases(compile_dur, t_classify.elapsed());
    }
    if let Some(path) = metrics_out {
        cli::write_output(path, serve_metrics.registry.render())?;
    }
    if let Some(path) = trace_out {
        cli::write_output(path, extractocol_obs::chrome_trace_json(&collector.drain()))?;
    }

    if args.has("--json") {
        use extractocol_http::JsonValue;
        let mut o = JsonValue::object();
        let rows: Vec<JsonValue> = verdicts
            .iter()
            .zip(&requests)
            .map(|(v, req)| {
                let mut row = JsonValue::object();
                row.insert("method", JsonValue::str(req.method.as_str()));
                row.insert("uri", JsonValue::str(&req.uri.raw));
                match v {
                    Verdict::Match(id) => {
                        let sig = index.sig(*id);
                        row.insert("app", JsonValue::str(&sig.app));
                        row.insert("txn", JsonValue::num(sig.txn_id as f64));
                        row.insert("dp", JsonValue::str(&sig.dp_class));
                    }
                    Verdict::Unmatched => {
                        row.insert("unmatched", JsonValue::Bool(true));
                    }
                }
                row
            })
            .collect();
        o.insert("verdicts", JsonValue::Array(rows));
        o.insert("matched", JsonValue::num(stats.matched as f64));
        o.insert("unmatched", JsonValue::num(stats.unmatched as f64));
        println!("{}", o.to_json());
    } else {
        for (v, req) in verdicts.iter().zip(&requests) {
            match v {
                Verdict::Match(id) => {
                    let sig = index.sig(*id);
                    println!(
                        "{} {} -> {} #{} ({})",
                        req.method, req.uri.raw, sig.app, sig.txn_id, sig.dp_class
                    );
                }
                Verdict::Unmatched => println!("{} {} -> unmatched", req.method, req.uri.raw),
            }
        }
        print!("{}", stats.to_text());
    }
    Ok(())
}

/// `extractocol-serve attack`: the adversarial robustness bench. Runs the
/// seeded attack suite against the corpus index, prints the per-class
/// outcome table and the p99-under-attack latency, writes the attack
/// metrics families on request, and fails when the trie and brute-force
/// paths ever disagree on an adversarial input.
fn cmd_attack(args: Args) -> Result<(), Exit> {
    let seed = args.get("--seed").unwrap_or(0xE57A_AC70);
    let per_class = args.get("--per-class").unwrap_or(64);
    let (report, metrics) = match args.value(INDEX.name) {
        Some(path) => serve_bench::run_attack_on(load_index(path)?, seed, per_class),
        None => serve_bench::run_attack(seed, per_class, args.get(JOBS.name).unwrap_or(0)),
    };

    if let Some(path) = args.value(METRICS_OUT.name) {
        cli::write_output(path, metrics.registry.render())?;
    }
    let json = report.to_json().to_json();
    if args.has("--json") {
        println!("{json}");
    } else {
        println!(
            "attack suite seed={} ({} cases, {} classes): p50 {:.1}us, p99 {:.1}us",
            report.seed,
            report.cases,
            report.per_class_tally.len(),
            report.p50_latency_us,
            report.p99_latency_us,
        );
        for (name, t) in &report.per_class_tally {
            println!(
                "  {name:<18} cases {:<5} parse_err {:<5} matched {:<5} unmatched {:<5} \
                 budget_exhausted {}",
                t.cases, t.parse_errors, t.matched, t.unmatched, t.budget_exhausted
            );
        }
        println!(
            "differential: {} checked, {} disagreements",
            report.differential_checked, report.differential_disagreements
        );
    }
    if let Some(path) = args.value(OUT.name) {
        cli::write_output(path, format!("{json}\n"))?;
    }

    if report.differential_disagreements > 0 {
        return Err(format!(
            "trie and brute-force verdicts disagree on {} adversarial case(s)",
            report.differential_disagreements
        )
        .into());
    }
    Ok(())
}

fn cmd_bench(args: Args) -> Result<(), Exit> {
    let requests = args.get("--requests").unwrap_or(50_000);
    let jobs = args.get(JOBS.name).unwrap_or(0);
    let iterations = args.get("--iterations").unwrap_or(3);
    let margin = args.get("--margin").unwrap_or(0.5f64);
    let min_speedup = args.get("--min-speedup").unwrap_or(20.0f64);

    // With --metrics-out the run adds an instrumented pass (latency
    // histograms, candidate-fraction distribution, shard imbalance); the
    // timed batch behind the throughput numbers stays uninstrumented.
    let metrics_out = args.value(METRICS_OUT.name);
    let metrics = ServeMetrics::new();
    let (report, phases) =
        serve_bench::run(requests, jobs, iterations, metrics_out.map(|_| &metrics));
    if let Some(path) = metrics_out {
        cli::write_output(path, metrics.registry.render())?;
        print!("{}", phases.to_text());
    }
    let json = report.to_json().to_json();
    println!(
        "classified {} requests against {} signatures: {:.0} req/s best of {} \
         (p50 {:.1}us, p99 {:.1}us, avg candidates {:.2}, candidate frac {:.4})",
        report.requests,
        report.signatures,
        report.requests_per_sec,
        report.iterations,
        report.p50_latency_us,
        report.p99_latency_us,
        report.stats.avg_candidates(),
        report.stats.avg_candidate_fraction(),
    );
    println!(
        "index rebuild {:.2}s vs archive load {:.1}ms: {:.0}x speedup",
        report.rebuild_secs,
        report.archive_load_secs * 1e3,
        report.archive_speedup,
    );
    if let Some(path) = args.value(OUT.name) {
        cli::write_output(path, format!("{json}\n"))?;
    }

    if report.stats.avg_candidate_fraction() > 0.20 {
        return Err(format!(
            "candidate fraction {:.4} exceeds the 20% pruning bar",
            report.stats.avg_candidate_fraction()
        )
        .into());
    }
    if report.archive_speedup < min_speedup {
        return Err(format!(
            "archive load is only {:.1}x faster than a rebuild (bar: {min_speedup:.0}x)",
            report.archive_speedup
        )
        .into());
    }
    if let Some(path) = args.value("--baseline") {
        let base = cli::read_input(path)?;
        let parsed = extractocol_http::JsonValue::parse(&base)
            .map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        let Some(base_rps) = parsed.get("requests_per_sec").and_then(|v| v.as_num()) else {
            return Err(format!("{path}: missing requests_per_sec").into());
        };
        let floor = base_rps * margin;
        if report.requests_per_sec < floor {
            return Err(format!(
                "best-of-{} throughput {:.0} req/s fell below {margin:.2} x baseline \
                 {base_rps:.0} req/s",
                report.iterations, report.requests_per_sec
            )
            .into());
        }
        println!(
            "baseline check: {:.0} req/s (best of {}) vs baseline {base_rps:.0} req/s \
             (gate: >= {floor:.0})",
            report.requests_per_sec, report.iterations
        );
    }
    Ok(())
}
