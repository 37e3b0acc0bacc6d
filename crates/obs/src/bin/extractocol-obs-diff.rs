//! The `extractocol-obs-diff` tool: regression-gate two observability
//! snapshots (Prometheus-text expositions from `--metrics-out` /
//! `METRICS` scrapes, or `BENCH_*.json` reports).
//!
//! ```bash
//! extractocol-obs-diff baseline.txt current.txt
//! extractocol-obs-diff BENCH_a.json BENCH_b.json --per-run-threshold 0.5
//! extractocol-obs-diff METRICS_classify.baseline.txt METRICS_classify.txt \
//!     --ignore-per-run      # cross-machine: deterministic tier only
//! ```
//!
//! Deterministic series must match exactly; per-run series are held to a
//! symmetric relative threshold (default 25%). Exits 0 when clean, 1 on
//! any regression, 2 on usage or parse errors.

use extractocol_obs::cli::{self, Command, Exit, Flag};
use extractocol_obs::{diff, parse_snapshot, DiffConfig};
use std::process::ExitCode;

static CLI: Command = Command {
    name: "extractocol-obs-diff",
    operands: "<baseline> <current>",
    flags: &[
        Flag::checked("--per-run-threshold", "<0..1>", |v| {
            v.parse::<f64>().is_ok_and(|t| t.is_finite() && t >= 0.0)
        }),
        Flag::switch("--ignore-per-run"),
        Flag::switch("--quiet"),
    ],
};

fn main() -> ExitCode {
    cli::run("extractocol-obs-diff", || {
        let args = CLI.parse(std::env::args().skip(1))?;
        let cfg = DiffConfig {
            per_run_threshold: args
                .get("--per-run-threshold")
                .unwrap_or(DiffConfig::default().per_run_threshold),
            ignore_per_run: args.has("--ignore-per-run"),
        };
        let mut snaps = Vec::new();
        for path in &args.operands {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))
                .and_then(|text| parse_snapshot(&text).map_err(|e| format!("{path}: {e}")));
            match text {
                Ok(s) => snaps.push(s),
                Err(msg) => {
                    // Unreadable input is a usage-class error, not a regression.
                    eprintln!("extractocol-obs-diff: {msg}");
                    return Err(Exit::Code(ExitCode::from(2)));
                }
            }
        }
        let report = diff(&snaps[0], &snaps[1], &cfg);
        if !args.has("--quiet") {
            print!("{}", report.to_text());
        }
        if report.is_regression() {
            return Err(Exit::Code(ExitCode::FAILURE));
        }
        Ok(())
    })
}
