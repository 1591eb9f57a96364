//! JSON report emission for figure regeneration.
//!
//! Every figure writes `reports/figN_<name>.json` with the series the paper
//! plots, plus a human-readable console table. EXPERIMENTS.md records the
//! paper-vs-measured comparison from these files.

use serde_json::Value;
use std::path::PathBuf;

/// Where reports land (`$NETLLM_REPORTS` or `reports/`).
pub fn reports_dir() -> PathBuf {
    std::env::var("NETLLM_REPORTS").map(PathBuf::from).unwrap_or_else(|_| PathBuf::from("reports"))
}

/// Write a JSON report, print its path and return it.
pub fn write_report(name: &str, value: &Value) -> std::io::Result<PathBuf> {
    let dir = reports_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    println!("wrote {}", path.display());
    Ok(path)
}

/// Console table helper.
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
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}
