//! One flag table for the workspace binaries (`extractocol`,
//! `extractocol-eval`, `extractocol-serve`, `extractocol-obs-diff`).
//!
//! Each binary, or each subcommand, declares its flags once as a
//! [`Command`]; both the parser and the usage line are generated from that
//! table, so they cannot drift. The flags shared across binaries —
//! [`JOBS`] and the observability outputs [`TRACE_OUT`], [`METRICS_OUT`],
//! [`LOG_OUT`] and [`LOG_LEVEL`] — are defined here, together with the
//! event-log sink behind the last two ([`event_log`]).
//!
//! The contract every command keeps: an unknown flag, a value flag given
//! without its value, a value that does not parse, a surplus operand or a
//! missing required flag prints the usage line on stderr and exits 2;
//! `--help` (or `-h`) prints it and exits 0.

use crate::log::{EventLog, Level, SinkFormat};
use std::process::ExitCode;
use std::str::FromStr;

/// One flag: a switch, or a flag taking one value.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag itself, e.g. `--jobs`.
    pub name: &'static str,
    /// Placeholder for the value in the usage line; `None` for a switch.
    value: Option<&'static str>,
    /// Whether the command refuses to run without this flag.
    required: bool,
    /// Whether a value is acceptable; checked while parsing.
    valid: fn(&str) -> bool,
}

fn parses<T: FromStr>(s: &str) -> bool {
    s.parse::<T>().is_ok()
}

impl Flag {
    /// A flag without a value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, value: None, required: false, valid: |_| true }
    }

    /// A flag taking any value.
    pub const fn value(name: &'static str, placeholder: &'static str) -> Flag {
        Flag { name, value: Some(placeholder), required: false, valid: |_| true }
    }

    /// A flag whose value must parse as `T` (read it back with [`Args::get`]).
    pub const fn parsed<T: FromStr>(name: &'static str, placeholder: &'static str) -> Flag {
        Flag { name, value: Some(placeholder), required: false, valid: parses::<T> }
    }

    /// A flag whose value must pass `valid`.
    pub const fn checked(
        name: &'static str,
        placeholder: &'static str,
        valid: fn(&str) -> bool,
    ) -> Flag {
        Flag { name, value: Some(placeholder), required: false, valid }
    }

    /// The same flag, but mandatory.
    pub const fn required(self) -> Flag {
        Flag { required: true, ..self }
    }
}

/// `--jobs <n>`: worker threads (0 = one per core).
pub const JOBS: Flag = Flag::parsed::<usize>("--jobs", "<n>");
/// `--trace-out <file>`: the run's span tree as Chrome-trace JSON.
pub const TRACE_OUT: Flag = Flag::value("--trace-out", "<file>");
/// `--metrics-out <file>`: the metrics registry in exposition format.
pub const METRICS_OUT: Flag = Flag::value("--metrics-out", "<file>");
/// `--log-out <file>`: the structured event log (see [`event_log`]).
pub const LOG_OUT: Flag = Flag::value("--log-out", "<file>");
/// `--log-level <level>`: the event log's minimum level (default info).
pub const LOG_LEVEL: Flag = Flag::parsed::<Level>("--log-level", "<level>");

/// A binary or subcommand: its name, its operands and its flag table.
#[derive(Debug)]
pub struct Command {
    /// Name as typed, e.g. `extractocol` or `extractocol-serve compile`.
    pub name: &'static str,
    /// Operand placeholders, space-separated (`""` for none). Each word
    /// is one required operand.
    pub operands: &'static str,
    /// The accepted flags.
    pub flags: &'static [Flag],
}

/// How a command ends other than by success.
#[derive(Debug)]
pub enum Exit {
    /// Exit with this code; anything worth saying was already printed.
    Code(ExitCode),
    /// Print `<binary>: <message>` on stderr and exit 1.
    Fail(String),
}

impl From<String> for Exit {
    fn from(msg: String) -> Exit {
        Exit::Fail(msg)
    }
}

/// Runs a binary's body: `Ok` exits 0, an [`Exit`] exits as it says.
pub fn run(binary: &str, body: impl FnOnce() -> Result<(), Exit>) -> ExitCode {
    match body() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Exit::Code(code)) => code,
        Err(Exit::Fail(msg)) => {
            eprintln!("{binary}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the usage lines of `commands` on stderr.
pub fn print_usage(commands: &[&Command]) {
    let lines: Vec<String> = commands.iter().map(|c| c.usage()).collect();
    eprintln!("usage: {}", lines.join("\n       "));
}

impl Command {
    /// The usage line, generated from the table (without `usage: `).
    pub fn usage(&self) -> String {
        let mut line = String::from(self.name);
        for word in self.operands.split_whitespace() {
            line.push(' ');
            line.push_str(word);
        }
        for f in self.flags {
            let flag = match f.value {
                Some(v) => format!("{} {v}", f.name),
                None => f.name.to_string(),
            };
            line.push_str(&if f.required { format!(" {flag}") } else { format!(" [{flag}]") });
        }
        line
    }

    /// Prints this command's usage and returns the exit-2 outcome, for
    /// command lines the table accepts but the command cannot run.
    pub fn misuse(&self) -> Exit {
        print_usage(&[self]);
        Exit::Code(ExitCode::from(2))
    }

    /// Parses `args` (everything after the command name) against the table.
    pub fn parse(&'static self, args: impl IntoIterator<Item = String>) -> Result<Args, Exit> {
        let wanted = self.operands.split_whitespace().count();
        let mut parsed = Args { command: self, given: Vec::new(), operands: Vec::new() };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                print_usage(&[self]);
                return Err(Exit::Code(ExitCode::SUCCESS));
            }
            if !arg.starts_with('-') && parsed.operands.len() < wanted {
                parsed.operands.push(arg);
                continue;
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                return Err(self.misuse());
            };
            let value = match flag.value {
                None => String::new(),
                Some(_) => it.next().filter(|v| (flag.valid)(v)).ok_or_else(|| self.misuse())?,
            };
            parsed.given.push((flag.name, value));
        }
        let missing_flag = self.flags.iter().any(|f| f.required && !parsed.has(f.name));
        if parsed.operands.len() < wanted || missing_flag {
            return Err(self.misuse());
        }
        Ok(parsed)
    }
}

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static str, String)>,
    /// The operands, in order; exactly as many as the command declares.
    pub operands: Vec<String>,
}

impl Args {
    /// Every value given for `name`, in order (empty strings for a switch).
    pub fn values<'a>(&'a self, name: &str) -> Vec<&'a str> {
        assert!(
            self.command.flags.iter().any(|f| f.name == name),
            "{name} is not in the flag table of {}",
            self.command.name
        );
        self.given.iter().filter(|(n, _)| *n == name).map(|(_, v)| v.as_str()).collect()
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        !self.values(name).is_empty()
    }

    /// The last value given for `name`.
    pub fn value<'a>(&'a self, name: &str) -> Option<&'a str> {
        self.values(name).pop()
    }

    /// The last value given for `name`, parsed. The table's check already
    /// accepted it, so a parse failure here is a table/getter mismatch.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse().unwrap_or_else(|_| panic!("{name}: value {v:?} passed the table check"))
        })
    }
}

/// The event log asked for by [`LOG_OUT`] and [`LOG_LEVEL`]: disabled
/// without `--log-out`; otherwise recording at `--log-level` (default
/// info) into that file as `key=value` lines. The file is unbuffered on
/// purpose: records reach disk at emit time, so the log can be read while
/// the process is still running.
pub fn event_log(args: &Args) -> Result<EventLog, Exit> {
    let Some(path) = args.value(LOG_OUT.name) else { return Ok(EventLog::disabled()) };
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let log = EventLog::enabled(args.get(LOG_LEVEL.name).unwrap_or(Level::Info));
    log.set_sink(Box::new(file), SinkFormat::Text);
    Ok(log)
}

/// Reads an input file; the error names the path.
pub fn read_input(path: &str) -> Result<String, Exit> {
    std::fs::read_to_string(path).map_err(|e| Exit::Fail(format!("cannot read {path}: {e}")))
}

/// Writes an output artifact; the error names the path.
pub fn write_output(path: &str, contents: impl AsRef<[u8]>) -> Result<(), Exit> {
    std::fs::write(path, contents).map_err(|e| Exit::Fail(format!("cannot write {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEMO: Command = Command {
        name: "demo run",
        operands: "<input>",
        flags: &[
            Flag::switch("--json"),
            Flag::value("--out", "<file>").required(),
            Flag::value("--tag", "<t>"),
            JOBS,
            LOG_LEVEL,
        ],
    };

    fn parse(args: &[&str]) -> Result<Args, Exit> {
        DEMO.parse(args.iter().map(|s| s.to_string()))
    }

    fn exit_code(r: Result<Args, Exit>) -> String {
        match r {
            Err(Exit::Code(c)) => format!("{c:?}"),
            other => panic!("expected an exit code, got {other:?}"),
        }
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        assert_eq!(
            DEMO.usage(),
            "demo run <input> [--json] --out <file> [--tag <t>] [--jobs <n>] [--log-level <level>]"
        );
    }

    #[test]
    fn values_switches_and_operands_parse() {
        let a =
            parse(&["in.txt", "--json", "--out", "o", "--tag", "a", "--tag", "b", "--jobs", "4"])
                .expect("valid command line");
        assert_eq!(a.operands, ["in.txt"]);
        assert!(a.has("--json"));
        assert_eq!(a.value("--out"), Some("o"));
        assert_eq!(a.values("--tag"), ["a", "b"]);
        assert_eq!(a.value("--tag"), Some("b"), "last value wins");
        assert_eq!(a.get::<usize>("--jobs"), Some(4));
        assert_eq!(a.get::<Level>("--log-level"), None);
    }

    #[test]
    fn malformed_command_lines_exit_2_and_help_exits_0() {
        let two = format!("{:?}", ExitCode::from(2));
        for bad in [
            &["in", "--out", "o", "--nope"][..],
            &["in", "--out"],
            &["in", "--out", "o", "--jobs", "x"],
            &["in", "--out", "o", "--log-level", "loud"],
            &["in", "extra", "--out", "o"],
            &["--out", "o"],
            &["in"],
        ] {
            assert_eq!(exit_code(parse(bad)), two, "{bad:?}");
        }
        assert_eq!(exit_code(parse(&["--help"])), format!("{:?}", ExitCode::SUCCESS));
    }
}
