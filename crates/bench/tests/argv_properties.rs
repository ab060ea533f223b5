//! Property tests for the command-line parser (`mpgraph_bench::cli`):
//! arbitrary argv, drawn from every table's flags, near misses, `=` forms,
//! numbers and junk, gives each binary's table a parse or a typed error,
//! never a panic, and every error names a word of the input.

use mpgraph_bench::cli::{
    parse_mpgraph, ArgError, Table, EXPERIMENT, LOADGEN, MPGRAPH, PERF, SNAPDIFF,
};
use proptest::prelude::*;

fn tables() -> Vec<&'static Table> {
    let mut tables = vec![&EXPERIMENT, &PERF, &LOADGEN, &SNAPDIFF];
    tables.extend(MPGRAPH.iter().map(|(_, table)| table));
    tables
}

/// Values a flag may meet: counts, numbers, sets' words, paths and junk.
const VALUES: &[&str] = &[
    "0", "1", "8", "-3", "+5", "2.5", "1e3", "nan", "inf", "abc", "-", "", "all", "ALL", "bo",
    "gpop", "pr", "tc", "rmat", "m.json", "B", "é", "=", "x=y",
];

/// Every table's flags bare, with `=`, and with `=value`; near misses;
/// the values on their own; and `--`.
fn pool() -> Vec<String> {
    let mut pool: Vec<String> = [
        "--quik",
        "--chek",
        "--streams=",
        "--metrics-outt",
        "--tol-acuracy",
        "--standard",
        "-q",
        "--",
        "--=",
        "---quick",
        "run",
        "--all",
        "--quick",
    ]
    .iter()
    .map(|w| w.to_string())
    .collect();
    pool.extend(VALUES.iter().map(|v| v.to_string()));
    for table in tables() {
        for flag in table.flags() {
            pool.push(format!("--{}", flag.name));
            pool.push(format!("--{}=", flag.name));
            pool.extend(VALUES.iter().map(|v| format!("--{}={v}", flag.name)));
        }
    }
    pool
}

/// Whether `err` names an argument as it stands in `argv`: the word
/// itself, or the flag a word spells with or without `=value`. A missing
/// argument is named by its declaration instead, and `argv` must lack it.
fn names_the_input(err: &ArgError, argv: &[String]) -> bool {
    let spells = |flag: &str| {
        argv.iter()
            .any(|w| w.strip_prefix("--").and_then(|b| b.split('=').next()) == Some(flag))
    };
    match err {
        ArgError::Unknown(word) => argv.contains(word),
        ArgError::MissingValue(flag) | ArgError::Repeated(flag) => spells(flag),
        ArgError::BadValue { flag, value, .. } => {
            spells(flag) && argv.iter().any(|w| w.ends_with(value.as_str()))
        }
        ArgError::Missing(arg) => match arg.strip_prefix("--") {
            Some(flag) => !spells(flag),
            None => arg.chars().all(|c| c.is_ascii_uppercase()),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_argv_parses_or_names_a_word_of_it(
        argv in prop::collection::vec(prop::sample::select(pool()), 0..10),
    ) {
        for table in tables() {
            match table.parse(argv.clone()) {
                Ok(args) => {
                    prop_assert_eq!(args.positional.len(), table.positional().count());
                    for flag in table.flags() {
                        if flag.required {
                            prop_assert!(args.text(flag.name).is_some(), "{argv:?}");
                        }
                    }
                }
                Err(err) => {
                    prop_assert!(names_the_input(&err, &argv), "{err} for {argv:?}");
                    prop_assert!(!err.to_string().is_empty());
                }
            }
        }
        for command in ["trace", "info", "simulate", "run", "serve", "servee"] {
            let mut full = vec![command.to_string()];
            full.extend(argv.iter().cloned());
            if let Err(err) = parse_mpgraph(full.clone()) {
                prop_assert!(names_the_input(&err, &full), "{err} for {full:?}");
            }
        }
    }
}

/// The accessors read back exactly what was given, in either value form.
#[test]
fn both_value_forms_read_back_the_same() {
    for (flag, value) in [
        ("streams", "3"),
        ("ticks", "0"),
        ("live-metrics", "-"),
        ("expose", "p"),
    ] {
        let spaced = LOADGEN
            .parse([format!("--{flag}"), value.to_string()])
            .expect("spaced");
        let joined = LOADGEN
            .parse([format!("--{flag}={value}")])
            .expect("joined");
        assert_eq!(spaced.text(flag), Some(value));
        assert_eq!(joined.text(flag), Some(value));
    }
}
