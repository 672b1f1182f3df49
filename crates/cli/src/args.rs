//! The flag table of `lgg-sim` and `experiments`, and its parser.
//!
//! Every subcommand is one [`Command`] row listing its flags. [`parse`]
//! picks the row from the first argument and reads the rest against it;
//! any bad input ends in [`LggError::Usage`], which names the command and
//! the flag and ends with the command's usage line. That line and
//! `--help` ([`help`]) are generated from the same rows, so they cannot
//! drift from what the parser accepts. `--help` (or `-h`) is one rule for
//! every row: [`main`] prints the selected command's usage and what it
//! does, and exits 0.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;

use crate::LggError;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Switch,
    /// An unsigned integer no smaller than the given minimum.
    Uint(u64),
    /// A file or directory path.
    Text,
}
use Kind::{Switch, Text, Uint};

/// A flag: its spellings and metavar as the usage line shows them
/// (`"--out|-o DIR"`), and the value it takes.
#[derive(Debug)]
struct Flag(&'static str, Kind);

impl Flag {
    fn names(&self) -> impl Iterator<Item = &'static str> {
        self.0.split(' ').next().unwrap_or_default().split('|')
    }
}

/// One subcommand: its flags, its operands and what it does.
#[derive(Debug)]
pub struct Command {
    program: &'static str,
    /// The word after the binary name; empty for the bare path.
    name: &'static str,
    operand: &'static str,
    max_operands: usize,
    flags: &'static [Flag],
    about: &'static str,
}

/// The `lgg-sim` subcommands; the first row, with the empty name, is the
/// bare path.
#[rustfmt::skip]
pub const LGG_SIM: &[Command] = &[
    Command { program: "lgg-sim", name: "", operand: "SCENARIO.json", max_operands: 1,
        flags: &[Flag("--json", Switch), Flag("--template", Switch)],
        about: "run a scenario file (topology, sources/sinks/R-generalized nodes, protocol, \
            arrivals, loss, topology dynamics, lying/extraction policies, steps, seed, age \
            tracking) and print its report; --template prints a starter scenario" },
    Command { program: "lgg-sim", name: "run", operand: "SCENARIO.json", max_operands: 1, flags: &[
        Flag("--steps N", Uint(0)), Flag("--checkpoint-every N", Uint(1)), Flag("--checkpoint-dir DIR", Text),
        Flag("--resume", Switch), Flag("--trace FILE", Text), Flag("--sample-every N", Uint(1)),
        Flag("--kill-after N", Uint(0)), Flag("--json", Switch), Flag("--guard", Switch),
        Flag("--guard-dump DIR", Text), Flag("--max-backlog N", Uint(1)), Flag("--max-wall-ms N", Uint(1)),
        Flag("--inject-fault STEP", Uint(0))],
        about: "long run with crash-safe snapshots; --resume continues bit-for-bit from the newest \
            snapshot; --guard checks invariants every step and exits 9 on a violation with a \
            replayable reproducer, and resumes like any run; --max-wall-ms counts from the start \
            of this invocation" },
    Command { program: "lgg-sim", name: "chaos", operand: "", max_operands: 0, flags: &[
        Flag("--smoke", Switch), Flag("--trials N", Uint(1)), Flag("--steps N", Uint(1)), Flag("--seed N", Uint(0)),
        Flag("--out DIR", Text), Flag("--inject-fault STEP", Uint(0)), Flag("--replay FILE", Text)],
        about: "seeded adversarial campaign; violations are shrunk to minimal reproducers in \
            results/chaos; --replay exits 9 iff a reproducer re-triggers" },
    Command { program: "lgg-sim", name: "bench", operand: "", max_operands: 0, flags: &[
        Flag("--quick", Switch), Flag("--out FILE", Text), Flag("--scenarios DIR", Text),
        Flag("--baseline FILE", Text)],
        about: "every timing (step cases, observer and guard overhead, a scenario grid run \
            serially and in parallel with its digest check, layer kernels) as one row of \
            BENCH_throughput.json; --baseline fails if observer/off is more than 2% slower than \
            the file's" },
    Command { program: "lgg-sim", name: "trace", operand: "[SCENARIO.json]", max_operands: 1, flags: &[
        Flag("--smoke", Switch), Flag("--out FILE", Text), Flag("--steps N", Uint(0)),
        Flag("--sample-every N", Uint(1))],
        about: "per-step event trace as JSON Lines; --smoke checks two captures agree and prints \
            their digest" },
];

/// The `experiments` binary: experiment ids are its operands.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Command] = &[
    Command { program: "experiments", name: "", operand: "[IDS...|all]", max_operands: usize::MAX,
        flags: &[Flag("--quick|-q", Switch), Flag("--out|-o DIR", Text)],
        about: "run the experiments; --quick shrinks step counts (CI mode); --out writes \
            per-experiment .md/.json and a combined report" },
];

impl Command {
    /// The usage line after `first`, wrapped to 80 columns.
    fn usage(&self, first: &str) -> String {
        let head = [self.program, self.name, self.operand].into_iter();
        let words = head.filter(|s| !s.is_empty()).map(String::from);
        let flags = self.flags.iter().map(|f| format!("[{}]", f.0));
        wrap(first, first.len() + 4, words.chain(flags))
    }

    /// The usage line after `first`, then what the command does.
    fn described(&self, first: &str) -> String {
        let about = wrap("      ", 6, self.about.split_whitespace().map(String::from));
        format!("{}\n{about}\n", self.usage(first))
    }
}

/// Joins `words` after `first` with single spaces, breaking before a word
/// that would pass column 80 and indenting continuation lines by `indent`.
fn wrap(first: &str, indent: usize, words: impl Iterator<Item = String>) -> String {
    let mut out = first.to_string();
    for (i, w) in words.enumerate() {
        let col = out.len() - out.rfind('\n').map_or(0, |n| n + 1);
        if i > 0 && col + 1 + w.len() > 80 {
            out += &format!("\n{:indent$}", "");
        } else if i > 0 {
            out.push(' ');
        }
        out += &w;
    }
    out
}

/// `--help` for a binary: its title, then each command's usage line and
/// what it does.
pub fn help(title: &str, table: &[Command]) -> String {
    let mut out = format!("{title}\n\nUSAGE:\n");
    for c in table {
        out += &c.described("  ");
    }
    out
}

/// The flags and operands of one parsed command line.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    /// Each given flag's value under its first spelling ("" for a switch).
    values: BTreeMap<&'static str, String>,
    operands: Vec<String>,
    /// `--help` or `-h` was given: the rest of the line is not read.
    help: bool,
}

/// Reads `argv` (without the binary name) against `table`: the first
/// argument selects a row by name, else the first row, the bare path,
/// takes every argument. A repeated flag keeps its last value, and
/// `--help` or `-h` ends the line for any row.
pub fn parse(table: &'static [Command], argv: &[String]) -> Result<Args, LggError> {
    let named = table[1..]
        .iter()
        .find(|c| argv.first().is_some_and(|a| a == c.name));
    let (command, argv) = match named {
        Some(c) => (c, &argv[1..]),
        None => (&table[0], argv),
    };
    let mut args = Args {
        command,
        values: BTreeMap::new(),
        operands: Vec::new(),
        help: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            if args.operands.len() == command.max_operands {
                return Err(args.usage_error(format!("unexpected operand {a}")));
            }
            args.operands.push(a.clone());
            continue;
        }
        if a == "--help" || a == "-h" {
            args.help = true;
            break;
        }
        let unknown = || args.usage_error(format!("unknown flag {a}"));
        let flag = command
            .flags
            .iter()
            .find(|f| f.names().any(|n| n == a))
            .ok_or_else(unknown)?;
        let value = match flag.1 {
            Switch => String::new(),
            kind => {
                let v = it
                    .next()
                    .ok_or_else(|| args.usage_error(format!("{a} needs a value")))?;
                if let Uint(min) = kind {
                    if !v.parse::<u64>().is_ok_and(|n| n >= min) {
                        let msg = format!("{a} needs an integer >= {min}, got {v:?}");
                        return Err(args.usage_error(msg));
                    }
                }
                v.clone()
            }
        };
        args.values
            .insert(flag.names().next().expect("a name"), value);
    }
    Ok(args)
}

impl Args {
    /// The selected command's name (empty for the bare path).
    pub fn command(&self) -> &'static str {
        self.command.name
    }

    fn get(&self, name: &str) -> Option<&String> {
        debug_assert!(
            self.command
                .flags
                .iter()
                .any(|f| f.names().next() == Some(name)),
            "{name} is not a flag of `{} {}`",
            self.command.program,
            self.command.name
        );
        self.values.get(name)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of the integer flag `name`, if given.
    pub fn uint(&self, name: &str) -> Option<u64> {
        self.get(name).map(|v| v.parse().expect("checked by parse"))
    }

    /// The value of the integer flag `name` as a count, if given.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.uint(name)
            .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
    }

    /// The value of the text flag `name`, if given.
    pub fn text(&self, name: &str) -> Option<String> {
        self.get(name).cloned()
    }

    /// Every operand, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The one operand the command needs.
    pub fn operand(&self) -> Result<&str, LggError> {
        let missing = || self.usage_error(format!("missing {}", self.command.operand));
        self.operands
            .first()
            .map(String::as_str)
            .ok_or_else(missing)
    }

    /// The operand, or `None` when the switch `instead` stands in for it;
    /// giving both or neither is a usage error.
    pub fn operand_unless(&self, instead: &str) -> Result<Option<&str>, LggError> {
        match (self.switch(instead), self.operands.first()) {
            (true, None) => Ok(None),
            (false, Some(path)) => Ok(Some(path)),
            (true, Some(path)) => {
                Err(self.usage_error(format!("{instead} takes no operand, got {path}")))
            }
            (false, None) => {
                let operand = self.command.operand.trim_matches(['[', ']']);
                Err(self.usage_error(format!("needs {operand} or {instead}")))
            }
        }
    }

    /// A [`LggError::Usage`] that names this command and ends with its
    /// usage line.
    pub fn usage_error(&self, msg: impl std::fmt::Display) -> LggError {
        let Command { program, name, .. } = self.command;
        let sep = if name.is_empty() { "" } else { " " };
        let usage = self.command.usage("usage: ");
        LggError::Usage(format!("{program}{sep}{name}: {msg}\n{usage}"))
    }
}

/// Writes `text` to stdout, so a closed pipe is an [`LggError::Io`]
/// instead of a panic.
pub fn write_stdout(text: impl AsRef<[u8]>) -> Result<(), LggError> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(text.as_ref())
        .and_then(|()| stdout.flush())
        .map_err(|e| LggError::io("cannot write to stdout", e))
}

/// A binary's `main`: reads its command line against `table` and runs
/// `body` on it, or, when help was asked for, prints the selected row's
/// help (for the bare row, the binary's [`help`] under `title`). Exits
/// with the code `body` chose, 0 after help, or an error's
/// [`LggError::exit_code`] after printing it to stderr.
pub fn main(
    table: &'static [Command],
    title: &str,
    body: impl FnOnce(&Args) -> Result<ExitCode, LggError>,
) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(table, &argv).and_then(|a| match (a.help, a.command.name) {
        (false, _) => body(&a),
        (true, "") => write_stdout(help(title, table)).map(|()| ExitCode::SUCCESS),
        (true, _) => write_stdout(a.command.described("usage: ")).map(|()| ExitCode::SUCCESS),
    });
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(e.exit_code())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every settable flag, as the binaries accepted it before the table
    /// existed, less the four of the `sweep` command that `bench` absorbed:
    /// (binary, command, spellings and metavar, kind).
    const PINNED: &[(&str, &str, &str, Kind)] = &[
        ("lgg-sim", "", "--json", Switch),
        ("lgg-sim", "", "--template", Switch),
        ("lgg-sim", "run", "--steps N", Uint(0)),
        ("lgg-sim", "run", "--checkpoint-every N", Uint(1)),
        ("lgg-sim", "run", "--checkpoint-dir DIR", Text),
        ("lgg-sim", "run", "--resume", Switch),
        ("lgg-sim", "run", "--trace FILE", Text),
        ("lgg-sim", "run", "--sample-every N", Uint(1)),
        ("lgg-sim", "run", "--kill-after N", Uint(0)),
        ("lgg-sim", "run", "--json", Switch),
        ("lgg-sim", "run", "--guard", Switch),
        ("lgg-sim", "run", "--guard-dump DIR", Text),
        ("lgg-sim", "run", "--max-backlog N", Uint(1)),
        ("lgg-sim", "run", "--max-wall-ms N", Uint(1)),
        ("lgg-sim", "run", "--inject-fault STEP", Uint(0)),
        ("lgg-sim", "chaos", "--smoke", Switch),
        ("lgg-sim", "chaos", "--trials N", Uint(1)),
        ("lgg-sim", "chaos", "--steps N", Uint(1)),
        ("lgg-sim", "chaos", "--seed N", Uint(0)),
        ("lgg-sim", "chaos", "--out DIR", Text),
        ("lgg-sim", "chaos", "--inject-fault STEP", Uint(0)),
        ("lgg-sim", "chaos", "--replay FILE", Text),
        ("lgg-sim", "bench", "--quick", Switch),
        ("lgg-sim", "bench", "--out FILE", Text),
        ("lgg-sim", "bench", "--scenarios DIR", Text),
        ("lgg-sim", "bench", "--baseline FILE", Text),
        ("lgg-sim", "trace", "--smoke", Switch),
        ("lgg-sim", "trace", "--out FILE", Text),
        ("lgg-sim", "trace", "--steps N", Uint(0)),
        ("lgg-sim", "trace", "--sample-every N", Uint(1)),
        ("experiments", "", "--quick|-q", Switch),
        ("experiments", "", "--out|-o DIR", Text),
    ];

    fn table(program: &str) -> &'static [Command] {
        if program == "lgg-sim" {
            LGG_SIM
        } else {
            EXPERIMENTS
        }
    }

    fn parse_cmd(program: &str, cmd: &str, rest: &[&str]) -> Result<Args, LggError> {
        let argv: Vec<String> = (!cmd.is_empty())
            .then_some(cmd)
            .into_iter()
            .chain(rest.iter().copied())
            .map(String::from)
            .collect();
        parse(table(program), &argv)
    }

    #[track_caller]
    fn assert_usage(r: Result<Args, LggError>, program: &str, cmd: &str, needle: &str) {
        let e = r.expect_err("must be rejected");
        assert!(matches!(e, LggError::Usage(_)), "{e}");
        assert_eq!(e.exit_code(), 64);
        let msg = e.to_string();
        let head = [program, cmd].join(" ");
        assert!(msg.starts_with(&format!("{}: ", head.trim_end())), "{msg}");
        assert!(msg.contains(needle), "{msg}");
        assert!(
            msg.contains(&format!("\nusage: {}", head.trim_end())),
            "{msg}"
        );
    }

    #[test]
    fn table_matches_the_pinned_flags() {
        let mut rows = Vec::new();
        for program in ["lgg-sim", "experiments"] {
            for c in table(program) {
                assert_eq!(c.program, program);
                rows.extend(c.flags.iter().map(|f| (program, c.name, f.0, f.1)));
            }
        }
        assert_eq!(rows, PINNED);
        assert_eq!(rows.len(), 32);
    }

    #[test]
    fn every_flag_accepts_good_values_and_rejects_bad_ones() {
        for &(program, cmd, spec, kind) in PINNED {
            let names = spec.split(' ').next().unwrap();
            let canonical = names.split('|').next().unwrap();
            for flag in names.split('|') {
                match kind {
                    Switch => {
                        let a = parse_cmd(program, cmd, &[flag]).unwrap();
                        assert!(a.switch(canonical), "{cmd} {flag}");
                        assert!(!parse_cmd(program, cmd, &[]).unwrap().switch(canonical));
                    }
                    Text => {
                        let a = parse_cmd(program, cmd, &[flag, "some/path"]).unwrap();
                        assert_eq!(a.text(canonical).as_deref(), Some("some/path"));
                        assert_usage(parse_cmd(program, cmd, &[flag]), program, cmd, flag);
                    }
                    Uint(min) => {
                        for good in [min, min + 1, u64::MAX] {
                            let a = parse_cmd(program, cmd, &[flag, &good.to_string()]).unwrap();
                            assert_eq!(a.uint(canonical), Some(good), "{cmd} {flag}");
                        }
                        assert_usage(parse_cmd(program, cmd, &[flag]), program, cmd, flag);
                        for bad in ["x1", "-1", "1.5", ""] {
                            let r = parse_cmd(program, cmd, &[flag, bad]);
                            assert_usage(r, program, cmd, flag);
                        }
                        if min > 0 {
                            let below = (min - 1).to_string();
                            let r = parse_cmd(program, cmd, &[flag, &below]);
                            assert_usage(r, program, cmd, flag);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_flags_and_extra_operands_are_usage_errors() {
        for program in ["lgg-sim", "experiments"] {
            for c in table(program) {
                let r = parse_cmd(program, c.name, &["--no-such-flag"]);
                assert_usage(r, program, c.name, "unknown flag --no-such-flag");
                let extra = ["a.json"].repeat(c.max_operands.min(3) + 1);
                let r = parse_cmd(program, c.name, &extra);
                if c.max_operands > 3 {
                    assert_eq!(r.unwrap().operands().len(), 4);
                } else {
                    assert_usage(r, program, c.name, "unexpected operand a.json");
                }
            }
        }
    }

    #[test]
    fn operands_are_checked_where_used() {
        let a = parse_cmd("lgg-sim", "run", &["--guard"]).unwrap();
        assert_eq!(a.operand().unwrap_err().exit_code(), 64);
        let a = parse_cmd(
            "lgg-sim",
            "run",
            &["x.json", "--steps", "5", "--steps", "7"],
        )
        .unwrap();
        assert_eq!(
            (a.operand().unwrap(), a.uint("--steps")),
            ("x.json", Some(7))
        );

        let trace = |rest: &[&str]| parse_cmd("lgg-sim", "trace", rest).unwrap();
        assert_eq!(trace(&["--smoke"]).operand_unless("--smoke").unwrap(), None);
        assert_eq!(
            trace(&["x.json"]).operand_unless("--smoke").unwrap(),
            Some("x.json")
        );
        for rest in [&["--smoke", "x.json"][..], &[]] {
            let e = trace(rest).operand_unless("--smoke").unwrap_err();
            assert!(matches!(e, LggError::Usage(_)), "{e}");
            assert!(e.to_string().contains("--smoke"), "{e}");
        }
    }

    #[test]
    fn help_is_one_rule_for_every_row() {
        for program in ["lgg-sim", "experiments"] {
            for c in table(program) {
                for flag in ["--help", "-h"] {
                    let a = parse_cmd(program, c.name, &[flag, "--no-such-flag"]).unwrap();
                    assert!(
                        a.help && a.command() == c.name,
                        "{program} {} {flag}",
                        c.name
                    );
                }
                assert!(!parse_cmd(program, c.name, &[]).unwrap().help);
                let text = c.described("usage: ");
                assert!(text.starts_with(&format!("usage: {program}")), "{text}");
                assert!(text.lines().all(|l| l.len() <= 80), "{text}");
            }
        }
    }

    #[test]
    fn help_lists_every_flag_within_80_columns() {
        for (program, table) in [("lgg-sim", LGG_SIM), ("experiments", EXPERIMENTS)] {
            let text = help(program, table);
            for c in table {
                for f in c.flags {
                    assert!(text.contains(&format!("[{}]", f.0)), "{program} {}", c.name);
                }
            }
            assert!(text.lines().all(|l| l.len() <= 80), "{text}");
        }
    }
}
