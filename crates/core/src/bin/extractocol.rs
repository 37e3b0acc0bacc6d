//! The `extractocol` command-line tool: analyze an app serialized in the
//! Jimple-flavoured text format (see `extractocol-ir::parser`) and print
//! its reconstructed protocol behavior.
//!
//! ```bash
//! extractocol app.jimple                 # full report
//! extractocol app.jimple --json         # machine-readable export
//! extractocol app.jimple --regex        # one compiled regex per line
//! extractocol app.jimple --scope com.x  # restrict DPs to a package (§5.3)
//! extractocol app.jimple --no-async     # disable the §3.4 heuristic
//! extractocol app.jimple --hops 3       # multi-hop async chains (§4)
//! extractocol app.jimple --jobs 8       # worker threads (0 = one per core)
//! extractocol app.jimple --lints        # precision diagnostics, then report
//! extractocol app.jimple --no-pointsto  # pure-CHA call graph (no SPARK layer)
//! extractocol app.jimple --trace-out trace.json   # Chrome-trace span tree
//! extractocol app.jimple --trace-summary          # top spans by self-time
//! extractocol app.jimple --flame-out stacks.txt   # collapsed flamegraph stacks
//! extractocol app.jimple --metrics-out metrics.txt  # exposition-format metrics
//! extractocol app.jimple --log-out events.log       # structured event log
//! extractocol app.jimple --log-out events.log --log-level debug  # + phases
//! extractocol app.jimple --targeted     # demand-driven cone analysis
//! extractocol app.jimple --summary-cache-path app.exsm  # persistent summaries
//! extractocol app.jimple --no-incremental  # ignore the summary cache
//! ```

use extractocol_core::slicing::SliceOptions;
use extractocol_core::{Extractocol, Options, TraceCollector};
use extractocol_obs::cli::{
    self, Command, Exit, Flag, JOBS, LOG_LEVEL, LOG_OUT, METRICS_OUT, TRACE_OUT,
};
use std::process::ExitCode;

static CLI: Command = Command {
    name: "extractocol",
    operands: "<app.jimple>",
    flags: &[
        Flag::switch("--regex"),
        Flag::value("--scope", "<prefix>"),
        Flag::switch("--json"),
        Flag::switch("--no-async"),
        Flag::switch("--no-augment"),
        Flag::parsed::<usize>("--hops", "<n>"),
        Flag::parsed::<usize>("--depth", "<n>"),
        JOBS,
        Flag::switch("--lints"),
        Flag::switch("--no-pointsto"),
        Flag::switch("--targeted"),
        Flag::value("--summary-cache-path", "<file>"),
        Flag::switch("--no-incremental"),
        TRACE_OUT,
        Flag::switch("--trace-summary"),
        Flag::value("--flame-out", "<file>"),
        METRICS_OUT,
        LOG_OUT,
        LOG_LEVEL,
    ],
};

fn main() -> ExitCode {
    cli::run("extractocol", run)
}

fn run() -> Result<(), Exit> {
    let args = CLI.parse(std::env::args().skip(1))?;
    let path = &args.operands[0];
    let trace_out = args.value(TRACE_OUT.name);
    let flame_out = args.value("--flame-out");
    let trace_summary = args.has("--trace-summary");
    let slice = SliceOptions::default();
    let opts = Options {
        slice: SliceOptions {
            async_heuristic: !args.has("--no-async"),
            augmentation: !args.has("--no-augment"),
            async_hops: args.get("--hops").unwrap_or(slice.async_hops),
            max_field_depth: args.get("--depth").unwrap_or(slice.max_field_depth),
        },
        scope_prefix: args.value("--scope").map(Into::into),
        jobs: args.get(JOBS.name).unwrap_or(0),
        pointsto: !args.has("--no-pointsto"),
        targeted: args.has("--targeted"),
        incremental: !args.has("--no-incremental"),
        summary_cache_path: args.value("--summary-cache-path").map(Into::into),
        ..Options::default()
    };

    let src = cli::read_input(path)?;
    let apk = extractocol_ir::parser::parse_apk(&src)
        .map_err(|e| format!("{path}: parse error at {e}"))?;
    let errs = extractocol_ir::validate::validate_apk(&apk);
    if !errs.is_empty() {
        for e in errs.iter().take(5) {
            eprintln!("extractocol: {path}: invalid IR: {e}");
        }
        return Err(Exit::Code(ExitCode::FAILURE));
    }

    // Tracing is off-by-default: the disabled collector costs one branch
    // per span site, so the plain path stays within the perf gates.
    let trace = if trace_out.is_some() || flame_out.is_some() || trace_summary {
        TraceCollector::enabled()
    } else {
        TraceCollector::disabled()
    };
    let mut analyzer = Extractocol::with_options(opts);
    analyzer.set_event_log(cli::event_log(&args)?);
    let report = analyzer.analyze_traced(&apk, &trace);
    let spans = trace.drain();
    if let Some(out) = trace_out {
        cli::write_output(out, extractocol_obs::chrome_trace_json(&spans))?;
    }
    if let Some(out) = flame_out {
        cli::write_output(out, extractocol_obs::collapsed_stacks(&spans))?;
    }
    if trace_summary {
        // Enough rows that every pipeline phase stays visible for a
        // single-app run; dp/txn spans beyond that are still in the
        // chrome-trace artifact.
        print!("{}", extractocol_obs::summary_table(&spans, 32));
        if trace.dropped() > 0 {
            println!("({} span(s) dropped at the collector capacity)", trace.dropped());
        }
    }
    if let Some(out) = args.value(METRICS_OUT.name) {
        cli::write_output(out, report.metrics.export_registry().render())?;
    }
    if args.has("--lints") {
        print!("{}", report.metrics.lints.to_text());
        if report.metrics.lints.lints.is_empty() {
            println!("no lints");
        }
    }
    if args.has("--json") {
        println!("{}", report.to_json().to_json());
    } else if args.has("--regex") {
        for t in &report.transactions {
            println!("{} {}", t.method, t.uri_regex);
        }
    } else {
        print!("{}", report.to_table());
        println!(
            "\n{} demarcation sites; slices cover {:.1}% of {} statements; {:?}",
            report.stats.dp_sites,
            100.0 * report.stats.slice_fraction(),
            report.stats.total_stmts,
            report.stats.duration
        );
        let m = &report.metrics;
        println!(
            "{} worker(s); summary cache {}/{} hits ({:.1}%)",
            m.jobs,
            m.cache.hits,
            m.cache.lookups(),
            100.0 * m.cache.hit_rate()
        );
        if let Some(tg) = &m.targeted {
            println!(
                "targeted: cone {}/{} methods; skipped {}/{} classes",
                tg.cone_methods, tg.total_methods, tg.skipped_classes, tg.total_classes
            );
        }
        if let Some(incr) = &m.incr {
            println!("incremental: {}", incr.to_line());
            if let Some(e) = &incr.load_error {
                println!("incremental: cache load failed ({e}); ran cold");
            }
            if let Some(e) = &incr.save_error {
                println!("incremental: cache save failed ({e})");
            }
        }
    }
    Ok(())
}
