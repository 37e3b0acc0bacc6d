//! The usage contract every workspace binary keeps: a malformed command
//! line exits 2 before doing any work, and `--help` prints usage on
//! stderr and exits 0. Shared by the CLI tests of each crate that owns a
//! binary (`#[path]`-included, so it is not a test target of its own).

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

/// Checks the error half of the contract for the command selected by
/// `prefix` (a subcommand name, or nothing): an unknown flag, each of
/// `value_flags` given as the last argument, and `--jobs x` all exit 2.
pub fn check_rejects(bin: &str, prefix: &[&str], value_flags: &[&str]) {
    let exit = |extra: &[&str]| run(bin, &[prefix, extra].concat()).status.code();
    assert_eq!(exit(&["--no-such-flag"]), Some(2), "{bin} {prefix:?}: unknown flag");
    for flag in value_flags {
        assert_eq!(exit(&[flag]), Some(2), "{bin} {prefix:?}: {flag} as the last argument");
    }
    assert_eq!(exit(&["--jobs", "x"]), Some(2), "{bin} {prefix:?}: --jobs x");
}

/// Checks the help half of the contract.
pub fn check_help(bin: &str) {
    let out = run(bin, &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{bin} --help");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{bin} --help printed no usage: {stderr}");
}
