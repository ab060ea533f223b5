//! Result reporting: fixed-width console tables matching the paper's
//! row/column structure, plus JSON dumps under `results/` so EXPERIMENTS.md
//! comparisons are reproducible.

use serde::Serialize;
use std::path::PathBuf;

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let s: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", s.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

fn results_dir() -> PathBuf {
    if std::path::Path::new("results").exists() || std::fs::create_dir_all("results").is_ok() {
        PathBuf::from("results")
    } else {
        PathBuf::from(".")
    }
}

/// Writes `value` as pretty JSON to `results/<name>.json` (relative to the
/// workspace root if present, else the current directory).
pub fn dump_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Like [`dump_json`] but single-line compact JSON — for the bulky figure
/// artifacts whose pretty form churns thousands of diff lines per run.
pub fn dump_json_compact<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string(value).expect("serializable");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Writes a metrics snapshot (or any serializable value) as pretty JSON to
/// an explicit path, creating parent directories as needed.
pub fn write_json_to<T: Serialize>(path: &std::path::Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(path, json)
}

/// Like [`write_json_to`] but compact single-line JSON — used for trace
/// exports, which are bulky and consumed by tools rather than humans.
pub fn write_json_compact_to<T: Serialize>(
    path: &std::path::Path,
    value: &T,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string(value).expect("serializable");
    std::fs::write(path, json)
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Formats a float with fixed precision.
pub fn f(v: f64, digits: usize) -> String {
    format!("{:.*}", digits, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_f_format() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(f(1.23456, 3), "1.235");
    }

    #[test]
    fn dump_json_roundtrips() {
        #[derive(Serialize)]
        struct S {
            a: u32,
        }
        let p = dump_json("test_dump", &S { a: 7 }).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.contains("\"a\": 7"));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            "t",
            &["a", "b"],
            &[
                vec!["1".into()],
                vec!["22".into(), "333".into(), "x".into()],
            ],
        );
    }
}
