//! The `extractocol-eval` command-line tool: corpus-wide validation of the
//! static pipeline against the dynamic interpreter.
//!
//! ```bash
//! extractocol-eval --conformance                # oracle over every corpus app
//! extractocol-eval --conformance --app "TED"    # one app only
//! extractocol-eval --conformance --jobs 0       # one worker per core
//! extractocol-eval --conformance --timings      # per-phase breakdown per app
//! extractocol-eval --conformance --trace-out trace.json --trace-summary
//! extractocol-eval --conformance --metrics-out metrics.txt
//! extractocol-eval --conformance --log-out events.log --log-level debug
//! extractocol-eval --conformance --targeted     # demand-driven cone analysis
//! extractocol-eval --conformance --summary-cache-dir cache/  # persistent summaries
//! extractocol-eval --conformance --report-out reports.txt    # canonical JSON per app
//! extractocol-eval --conformance-mutate         # seeded mutation self-test
//! extractocol-eval --conformance-mutate --seed 7 --sites 3
//! ```
//!
//! `--conformance` exits non-zero when any app yields a diagnostic;
//! `--conformance-mutate` exits non-zero when the oracle detects < 90% of
//! the seeded perturbations. `--trace-out` records the whole run as one
//! span tree (per app → per phase → per DP) in Chrome-trace JSON;
//! `--timings` prints the `PhaseTimings` table — including the
//! conformance slot, so the total matches the end-to-end run.

use extractocol_core::{Level, TraceCollector};
use extractocol_dynamic::conformance::{conformance_check_with, mutation_self_test, EvalConfig};
use extractocol_obs::cli::{
    self, Command, Exit, Flag, JOBS, LOG_LEVEL, LOG_OUT, METRICS_OUT, TRACE_OUT,
};
use std::process::ExitCode;

static CLI: Command = Command {
    name: "extractocol-eval",
    operands: "",
    flags: &[
        Flag::switch("--conformance"),
        Flag::switch("--conformance-mutate"),
        Flag::value("--app", "<name>"),
        JOBS,
        Flag::parsed::<u64>("--seed", "<n>"),
        Flag::parsed::<usize>("--sites", "<n>"),
        Flag::switch("--timings"),
        Flag::switch("--targeted"),
        Flag::value("--summary-cache-dir", "<dir>"),
        Flag::switch("--no-incremental"),
        Flag::value("--report-out", "<file>"),
        TRACE_OUT,
        Flag::switch("--trace-summary"),
        METRICS_OUT,
        LOG_OUT,
        LOG_LEVEL,
    ],
};

/// A per-app `.exsm` filename inside the cache dir: the app name with
/// anything outside `[A-Za-z0-9._-]` mapped to `_`.
fn cache_file(dir: &str, app: &str) -> std::path::PathBuf {
    let safe: String = app
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || ".-_".contains(c) { c } else { '_' })
        .collect();
    std::path::Path::new(dir).join(format!("{safe}.exsm"))
}

fn main() -> ExitCode {
    cli::run("extractocol-eval", run)
}

fn run() -> Result<(), Exit> {
    let args = CLI.parse(std::env::args().skip(1))?;
    let conformance = args.has("--conformance");
    if conformance == args.has("--conformance-mutate") {
        return Err(CLI.misuse());
    }
    let jobs = args.get(JOBS.name).unwrap_or(1);
    let targeted = args.has("--targeted");
    let trace_out = args.value(TRACE_OUT.name);
    let trace_summary = args.has("--trace-summary");
    let report_out = args.value("--report-out");
    let cache_dir = args.value("--summary-cache-dir");

    let mut apps = extractocol_corpus::all_apps();
    if let Some(name) = args.value("--app") {
        apps.retain(|a| a.truth.name == name);
        if apps.is_empty() {
            return Err(format!("no corpus app named {name:?}").into());
        }
    }

    // Driver-level structured events: one record per app plus run
    // start/finish milestones (the per-phase pipeline events live behind
    // `extractocol --log-out`; the eval driver reports outcomes).
    let events = cli::event_log(&args)?;

    if conformance {
        let trace = if trace_out.is_some() || trace_summary {
            TraceCollector::enabled()
        } else {
            TraceCollector::disabled()
        };
        events
            .info("eval", "conformance run started")
            .field("apps", apps.len() as u64)
            .field("jobs", jobs as u64)
            .field("targeted", targeted)
            .emit();
        if let Some(dir) = cache_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        }
        let mut dirty = 0usize;
        let mut report_lines = String::new();
        for app in &apps {
            let cfg = EvalConfig {
                jobs,
                targeted,
                incremental: !args.has("--no-incremental"),
                summary_cache_path: cache_dir.map(|d| cache_file(d, &app.truth.name)),
            };
            let (report, conf) = conformance_check_with(app, &cfg, &trace);
            print!("{}", conf.to_text());
            if let Some(incr) = &report.metrics.incr {
                println!("incr[{}]: {}", app.truth.name, incr.to_line());
                if let Some(e) = &incr.load_error {
                    println!("incr[{}]: cache load failed ({e}); ran cold", app.truth.name);
                }
                if let Some(e) = &incr.save_error {
                    println!("incr[{}]: cache save failed ({e})", app.truth.name);
                }
            }
            if let Some(tg) = &report.metrics.targeted {
                println!(
                    "targeted[{}]: cone {}/{} methods; skipped {}/{} classes",
                    app.truth.name,
                    tg.cone_methods,
                    tg.total_methods,
                    tg.skipped_classes,
                    tg.total_classes
                );
            }
            if report_out.is_some() {
                report_lines.push_str(&format!(
                    "{}\t{}\n",
                    app.truth.name,
                    report.to_json().to_json()
                ));
            }
            if args.has("--timings") {
                println!("{} phase timings:", app.truth.name);
                print!("{}", report.metrics.phases.to_text());
            }
            if let Some(path) = args.value(METRICS_OUT.name) {
                // One exposition file per run; last app wins per-app
                // instruments, aggregate files belong to serve's batch path.
                cli::write_output(path, report.metrics.export_registry().render())?;
            }
            if !conf.is_clean() {
                dirty += 1;
            }
            let level = if conf.is_clean() { Level::Info } else { Level::Warn };
            events
                .event(level, "eval", "app analyzed")
                .field("app", app.truth.name.as_str())
                .field("transactions", report.transactions.len() as u64)
                .field("diagnostics", conf.diags.len() as u64)
                .field("duration_us", report.stats.duration.as_micros() as u64)
                .emit();
        }
        if let Some(path) = report_out {
            cli::write_output(path, report_lines)?;
        }
        let spans = trace.drain();
        if let Some(path) = trace_out {
            cli::write_output(path, extractocol_obs::chrome_trace_json(&spans))?;
            println!("wrote {} span(s) to {path} ({} dropped)", spans.len(), trace.dropped());
        }
        if trace_summary {
            print!("{}", extractocol_obs::summary_table(&spans, 20));
        }
        events
            .info("eval", "conformance run finished")
            .field("apps", apps.len() as u64)
            .field("dirty", dirty as u64)
            .emit();
        if dirty > 0 {
            return Err(format!("{dirty} app(s) with conformance diagnostics").into());
        }
        println!("conformance: all {} app(s) clean", apps.len());
        return Ok(());
    }

    let seed = args.get("--seed").unwrap_or(0xE7_AC_0C_01);
    let summary = mutation_self_test(&apps, seed, args.get("--sites").unwrap_or(2), jobs);
    print!("{}", summary.to_text());
    if summary.total() == 0 {
        return Err(Exit::Fail("no mutation sites found".into()));
    }
    if summary.rate() < 0.9 {
        let rate = 100.0 * summary.rate();
        return Err(format!("detection rate {rate:.1}% below the 90% gate").into());
    }
    Ok(())
}
