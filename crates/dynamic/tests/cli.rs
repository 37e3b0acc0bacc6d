//! The `extractocol-eval` binary keeps the usage contract.

#[path = "../../obs/tests/support/usage_contract.rs"]
mod usage_contract;

#[test]
fn eval_usage_contract() {
    let bin = env!("CARGO_BIN_EXE_extractocol-eval");
    usage_contract::check_help(bin);
    usage_contract::check_rejects(
        bin,
        &[],
        &[
            "--app",
            "--jobs",
            "--seed",
            "--sites",
            "--summary-cache-dir",
            "--report-out",
            "--trace-out",
            "--metrics-out",
            "--log-out",
            "--log-level",
        ],
    );
}
