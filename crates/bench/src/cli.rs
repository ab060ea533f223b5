//! The one command-line parser of every binary but mpbench. Each binary's
//! command line is declared here as a [`Table`], written as its usage
//! synopsis, and [`Table::parse`] checks argv against it: every word
//! becomes part of [`Args`] or an [`ArgError`] that names it. The usage a
//! binary prints is its table, so the two cannot drift apart.
//!
//! A value flag takes `--flag value` or `--flag=value`; a value that is
//! empty or starts with `--` counts as missing, while `-` is a value
//! (`--live-metrics -` streams to stdout). A switch takes no value, and no
//! flag may be given twice. On an error, [`Table::parse_or_exit`] prints
//! `error: <message>` and the usage, then exits 2.

use std::fmt;

/// A command line as its usage synopsis, in parts that print as one usage
/// line each: positional arguments by name (`FILE`), then flags, optional
/// ones in brackets. What follows a flag's `=` is its kind: nothing for a
/// switch, `N` for a whole number (`N>0` for one of at least 1), `X` for a
/// finite number, `PATH` for a path (or `-`), and `a|b` for a word of that
/// set, ASCII case ignored.
#[derive(Debug, PartialEq)]
pub struct Table(pub &'static [&'static str]);

/// One flag: its name, what it takes (`""` for a switch), and whether it is required.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flag {
    pub name: &'static str,
    pub kind: &'static str,
    pub required: bool,
}

const OUTPUTS: &str = "[--metrics-out=PATH] [--trace-out=PATH]";
/// Live telemetry: the NDJSON sink, the text exposition, and their interval.
const LIVE: &str = "[--live-metrics=PATH] [--expose=PATH] [--live-interval=N]";
const FRAMEWORK: &str = "--framework=gpop|xstream|x-stream|powergraph";
/// The datasets are each `Dataset::name`.
const APP_DATASET: &str =
    "--app=bfs|cc|pr|pagerank|sssp|tc [--dataset=amazon|google|roadCA|soclj|wiki|youtube|rmat]";
const SIZE: &str = "[--div=N>0] [--iterations=N] [--limit=N]";

/// The twelve experiment binaries, `table4` to `resilience`.
pub static EXPERIMENT: Table = Table(&["[--quick] [--datasets=all]", OUTPUTS]);
pub static PERF: Table = Table(&["[--quick] [--check]", OUTPUTS]);
pub static LOADGEN: Table = Table(&[
    "[--quick] [--streams=N>0] [--ticks=N] [--chaos] [--zipf] [--quant]",
    OUTPUTS,
    LIVE,
]);
/// `--tol` sets every tolerance; each other flag sets one metric's.
pub static SNAPDIFF: Table = Table(&[
    "BASELINE CURRENT [--tol=X]",
    "[--tol-accuracy=X] [--tol-coverage=X] [--tol-timeliness=X] [--tol-pbot=X]",
    "[--tol-p50=X] [--tol-p99=X] [--tol-burn=X]",
]);

/// `mpgraph`'s command lines. The second word of a name is the switch
/// that selects that mode of `run`.
pub static MPGRAPH: [(&str, Table); 7] = [
    ("trace", Table(&["--out=PATH", FRAMEWORK, APP_DATASET, SIZE])),
    ("info", Table(&["FILE"])),
    (
        "simulate",
        Table(&[
            "FILE [--prefetcher=none|next-line|stride|bo|isb] [--scaled]",
            // Each `FaultKind::name`.
            "[--fault=corrupt-record|drop-prefetch|duplicate-prefetch|detector-misfire|stall-inference]",
            "[--fault-rate=X] [--fault-seed=N] [--stall-cycles=N]",
            OUTPUTS,
        ]),
    ),
    ("run --all", Table(&["--all [--quick] [--shards=N>0]", OUTPUTS])),
    ("run --quick", Table(&["--quick [--quant]", FRAMEWORK, APP_DATASET, OUTPUTS])),
    ("run", Table(&["[--quant]", FRAMEWORK, APP_DATASET, SIZE, OUTPUTS])),
    (
        "serve",
        Table(&["FILE [--streams=N>0] [--load=X] [--no-fuse] [--quant] [--stdin]", OUTPUTS, LIVE]),
    ),
];

/// Parses `mpgraph`'s argv: a command, then the words its table takes.
/// Returns the name of the [`MPGRAPH`] entry that applied: the first whose
/// command matches and whose mode switch, if it has one, is given.
pub fn parse_mpgraph(
    argv: impl IntoIterator<Item = String>,
) -> Result<(&'static str, Args), ArgError> {
    let mut argv = argv.into_iter();
    let command = argv
        .next()
        .ok_or_else(|| ArgError::Missing("COMMAND".into()))?;
    let words: Vec<String> = argv.collect();
    let applies = |name: &str| match name.split_once(' ') {
        Some((cmd, switch)) => cmd == command && words.iter().any(|w| w == switch),
        None => name == command,
    };
    match MPGRAPH.iter().find(|(name, _)| applies(name)) {
        Some((name, table)) => Ok((*name, table.parse(words)?)),
        None => Err(ArgError::Unknown(command)),
    }
}

/// Every `mpgraph` command's usage.
pub fn mpgraph_usage() -> Vec<String> {
    let usage = MPGRAPH.iter().map(|(name, table)| {
        let command = name.split(' ').next().unwrap_or(name);
        table.synopsis(&format!("mpgraph {command}"))
    });
    usage.collect()
}

/// An argv error. Its `Display` names the argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// A flag the table does not declare, or a positional word past the
    /// table's count.
    Unknown(String),
    /// A value flag with no value after it.
    MissingValue(&'static str),
    /// A value the flag refuses (a switch refuses any), and what it takes.
    BadValue {
        flag: &'static str,
        value: String,
        takes: String,
    },
    Repeated(&'static str),
    /// A required flag (`--name`) or positional argument absent.
    Missing(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(word) => write!(f, "unknown argument `{word}`"),
            ArgError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            ArgError::BadValue { flag, value, takes } => {
                write!(f, "--{flag} takes {takes}, got `{value}`")
            }
            ArgError::Repeated(flag) => write!(f, "--{flag} given twice"),
            ArgError::Missing(arg) => write!(f, "missing {arg}"),
        }
    }
}

/// A parsed command line. Its accessors take a flag its table declares.
#[derive(Debug)]
pub struct Args {
    pub positional: Vec<String>,
    /// Each given flag and its checked value: `""` for a switch, the set's
    /// own spelling for a set word.
    given: Vec<(&'static str, String)>,
    table: &'static Table,
}

impl Args {
    pub fn text(&self, name: &str) -> Option<&str> {
        let declared = self.table.flags().any(|f| f.name == name);
        assert!(declared, "--{name} is not in the table");
        let (_, value) = self.given.iter().find(|(given, _)| *given == name)?;
        Some(value)
    }

    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    pub fn count(&self, name: &str) -> Option<u64> {
        Some(self.text(name)?.parse().expect("parse checks counts"))
    }

    pub fn number(&self, name: &str) -> Option<f64> {
        Some(self.text(name)?.parse().expect("parse checks numbers"))
    }

    pub fn path(&self, name: &str) -> Option<std::path::PathBuf> {
        self.text(name).map(Into::into)
    }
}

impl Table {
    fn words(&self) -> impl Iterator<Item = &'static str> {
        self.0.iter().flat_map(|part| part.split_whitespace())
    }

    /// The positional arguments' names.
    pub fn positional(&self) -> impl Iterator<Item = &'static str> {
        self.words().filter(|w| !w.contains("--"))
    }

    /// The flags, in the order the synopsis gives them.
    pub fn flags(&self) -> impl Iterator<Item = Flag> {
        self.words().filter_map(|word| {
            let flag = word.trim_matches(['[', ']']).strip_prefix("--")?;
            let (name, kind) = flag.split_once('=').unwrap_or((flag, ""));
            let required = !word.starts_with('[');
            Some(Flag {
                name,
                kind,
                required,
            })
        })
    }

    /// Parses `argv`, the words after the program name.
    pub fn parse(&'static self, argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let positional = self.positional().count();
        let mut args = Args {
            positional: Vec::new(),
            given: Vec::new(),
            table: self,
        };
        let mut words = argv.into_iter();
        while let Some(word) = words.next() {
            let Some(body) = word.strip_prefix("--") else {
                if args.positional.len() == positional {
                    return Err(ArgError::Unknown(word));
                }
                args.positional.push(word);
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (body, None),
            };
            let Some(flag) = self.flags().find(|f| f.name == name) else {
                return Err(ArgError::Unknown(word));
            };
            if args.switch(flag.name) {
                return Err(ArgError::Repeated(flag.name));
            }
            let value = match inline {
                _ if !flag.kind.is_empty() => match inline.or_else(|| words.next()) {
                    Some(v) if !v.is_empty() && !v.starts_with("--") => check(&flag, v)?,
                    _ => return Err(ArgError::MissingValue(flag.name)),
                },
                None => String::new(),
                Some(value) => check(&flag, value)?,
            };
            args.given.push((flag.name, value));
        }
        if let Some(name) = self.positional().nth(args.positional.len()) {
            return Err(ArgError::Missing(name.to_string()));
        }
        match self.flags().find(|f| f.required && !args.switch(f.name)) {
            Some(flag) => Err(ArgError::Missing(format!("--{}", flag.name))),
            None => Ok(args),
        }
    }

    /// Parses the process's arguments, exiting through [`exit_usage`] on
    /// an error.
    pub fn parse_or_exit(&'static self, program: &str) -> Args {
        let argv = std::env::args().skip(1);
        self.parse(argv)
            .unwrap_or_else(|e| exit_usage(&e, &[self.synopsis(program)]))
    }

    /// `program` and the synopsis, one part per line.
    pub fn synopsis(&self, program: &str) -> String {
        format!("{program} {}", self.0.join("\n         "))
    }
}

/// Checks a value against its flag's kind, returning the value to keep.
fn check(flag: &Flag, value: String) -> Result<String, ArgError> {
    let takes = match flag.kind {
        "" => "no value".to_string(),
        "N" if value.parse::<u64>().is_ok() => return Ok(value),
        "N>0" if value.parse::<u64>().is_ok_and(|n| n > 0) => return Ok(value),
        "N" => "a whole number".to_string(),
        "N>0" => "a whole number of at least 1".to_string(),
        "X" if value.parse::<f64>().is_ok_and(f64::is_finite) => return Ok(value),
        "X" => "a number".to_string(),
        "PATH" => return Ok(value),
        set => match set.split('|').find(|s| s.eq_ignore_ascii_case(&value)) {
            Some(word) => return Ok(word.to_string()),
            None => format!("one of {set}"),
        },
    };
    Err(ArgError::BadValue {
        flag: flag.name,
        value,
        takes,
    })
}

/// Prints `error: <err>` and the usage lines, then exits 2.
pub fn exit_usage(err: &dyn fmt::Display, usage: &[String]) -> ! {
    eprintln!("error: {err}\nusage: {}", usage.join("\n       "));
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(v: &[&str]) -> Vec<String> {
        v.iter().map(|w| w.to_string()).collect()
    }

    fn tables() -> impl Iterator<Item = &'static Table> {
        [&EXPERIMENT, &PERF, &LOADGEN, &SNAPDIFF]
            .into_iter()
            .chain(MPGRAPH.iter().map(|(_, table)| table))
    }

    #[test]
    fn value_flags_reject_a_missing_value() {
        let get = |v: &[&str]| {
            LOADGEN
                .parse(words(v))
                .map(|a| a.text("expose").map(str::to_string))
        };
        assert_eq!(get(&["--quick"]), Ok(None));
        assert_eq!(get(&["--expose", "p.prom"]), Ok(Some("p.prom".into())));
        assert_eq!(get(&["--expose=p.prom"]), Ok(Some("p.prom".into())));
        // `-` (stdout) is a value, not a flag.
        assert_eq!(get(&["--expose", "-"]), Ok(Some("-".into())));
        for bad in [
            &["--expose"][..],
            &["--expose", "--live-metrics", "x"],
            &["--live-metrics", "x", "--expose", "--quick"],
            &["--expose="],
            &["--expose", ""],
        ] {
            let err = get(bad).expect_err("missing value accepted");
            assert_eq!(err, ArgError::MissingValue("expose"), "{bad:?}");
            assert_eq!(err.to_string(), "--expose needs a value");
        }
        let err = get(&["--live-metrics", "--expose", "p.prom"]).expect_err("accepted");
        assert_eq!(err.to_string(), "--live-metrics needs a value");
    }

    #[test]
    fn every_word_is_checked() {
        let err = |table: &'static Table, v: &[&str]| table.parse(words(v)).expect_err("accepted");
        assert_eq!(
            err(&PERF, &["--quick", "--chek"]),
            ArgError::Unknown("--chek".into())
        );
        assert_eq!(err(&PERF, &["stray"]), ArgError::Unknown("stray".into()));
        assert_eq!(err(&PERF, &["--"]), ArgError::Unknown("--".into()));
        assert_eq!(
            err(&PERF, &["--quick", "--quick"]),
            ArgError::Repeated("quick")
        );
        assert_eq!(
            err(&LOADGEN, &["--streams=2", "--streams", "3"]),
            ArgError::Repeated("streams")
        );
        assert_eq!(
            err(&PERF, &["--check=1"]).to_string(),
            "--check takes no value, got `1`"
        );
        assert_eq!(err(&SNAPDIFF, &["B"]), ArgError::Missing("CURRENT".into()));
        assert_eq!(
            err(&SNAPDIFF, &["B", "C", "D"]),
            ArgError::Unknown("D".into())
        );
        assert_eq!(
            err(&SNAPDIFF, &["B", "C", "--tol", "nan"]).to_string(),
            "--tol takes a number, got `nan`"
        );
        assert_eq!(
            err(&LOADGEN, &["--ticks", "-1"]).to_string(),
            "--ticks takes a whole number, got `-1`"
        );
        let args = SNAPDIFF.parse(words(&["B", "C", "--tol=0.2", "--tol-p99", "1e-1"]));
        let args = args.expect("valid command line");
        assert_eq!(args.positional, ["B", "C"]);
        assert_eq!(
            (args.number("tol"), args.number("tol-p99")),
            (Some(0.2), Some(0.1))
        );
        assert_eq!(args.number("tol-p50"), None);
    }

    #[test]
    fn mpgraph_picks_the_run_mode_by_its_switch() {
        let command = |v: &[&str]| parse_mpgraph(words(v)).map(|(name, _)| name);
        assert_eq!(
            command(&["run", "--all", "--quick", "--shards", "2"]),
            Ok("run --all")
        );
        assert_eq!(command(&["run", "--quick", "--all"]), Ok("run --all"));
        assert_eq!(
            command(&["run", "--quick", "--framework=gpop", "--app=pr"]),
            Ok("run --quick")
        );
        assert_eq!(
            command(&["run", "--framework", "GPOP", "--app", "pr"]),
            Ok("run")
        );
        assert_eq!(command(&["info", "t.mpgtrc"]), Ok("info"));
        // Each mode takes only the flags it reads.
        assert_eq!(
            command(&["run", "--all", "--quant"]),
            Err(ArgError::Unknown("--quant".into()))
        );
        let div = [
            "run",
            "--quick",
            "--div",
            "8",
            "--framework",
            "gpop",
            "--app",
            "pr",
        ];
        assert_eq!(command(&div), Err(ArgError::Unknown("--div".into())));
        assert_eq!(
            command(&["run", "--all", "--shards", "0"])
                .unwrap_err()
                .to_string(),
            "--shards takes a whole number of at least 1, got `0`"
        );
        assert_eq!(
            command(&["run", "--quik", "--framework", "gpop", "--app", "pr"]),
            Err(ArgError::Unknown("--quik".into()))
        );
        assert_eq!(
            command(&["run", "--app", "pr"]),
            Err(ArgError::Missing("--framework".into()))
        );
        assert_eq!(
            command(&["trace", "--framework", "gpop", "--app", "pr"]),
            Err(ArgError::Missing("--out".into()))
        );
        assert_eq!(
            command(&["simulate"]),
            Err(ArgError::Missing("FILE".into()))
        );
        assert_eq!(command(&[]), Err(ArgError::Missing("COMMAND".into())));
        assert_eq!(command(&["runn"]), Err(ArgError::Unknown("runn".into())));
        let (_, args) = parse_mpgraph(words(&[
            "run",
            "--framework",
            "X-Stream",
            "--app",
            "PageRank",
        ]))
        .expect("valid command line");
        assert_eq!(
            (args.text("framework"), args.text("app")),
            (Some("x-stream"), Some("pagerank"))
        );
    }

    /// Every table's kinds are the documented ones, and the sets that
    /// stand for enums hold exactly their names.
    #[test]
    fn tables_declare_known_kinds_and_the_enums_names() {
        for table in tables() {
            for flag in table.flags() {
                let known = ["", "N", "N>0", "X", "PATH"].contains(&flag.kind);
                let set = flag.kind.chars().any(|c| c.is_ascii_lowercase());
                assert!(known || set, "--{} takes {:?}", flag.name, flag.kind);
            }
        }
        let set = |command: &str, flag: &str| {
            let (_, table) = MPGRAPH
                .iter()
                .find(|(name, _)| *name == command)
                .expect("command");
            let flag = table.flags().find(|f| f.name == flag).expect("flag");
            flag.kind.split('|').map(str::to_string).collect::<Vec<_>>()
        };
        let names = |v: &[&str]| v.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let datasets = mpgraph_graph::Dataset::ALL.map(|d| d.name());
        for command in ["trace", "run --quick", "run"] {
            assert_eq!(set(command, "dataset"), names(&datasets));
        }
        let faults = mpgraph_sim::FaultKind::ALL.map(|k| k.name());
        assert_eq!(set("simulate", "fault"), names(&faults));
    }
}
