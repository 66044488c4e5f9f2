//! Shared helpers for the reproduction harness binaries and benches.
//!
//! Each `fig*`, `table*`, `exp_*` and `ablation_*` binary in `src/bin/`
//! regenerates one table, figure or experiment of the DATE 2014 paper
//! and prints a paper-vs-measured comparison; `gates` judges the
//! performance gates as one table (`GATES.json`). The Criterion benches
//! in `benches/` track the cost of the underlying solvers. This library
//! hosts the small formatting utilities they share.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

/// Prints a section header for a reproduction binary.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Formats a paper-vs-measured comparison row.
pub fn compare_row(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    let ratio = if paper.abs() > 1e-300 {
        measured / paper
    } else {
        f64::NAN
    };
    format!(
        "  {label:<42} paper {paper:>9.3} {unit:<8} measured {measured:>9.3} {unit:<8} ratio {ratio:>5.2}"
    )
}

/// Simple fixed-width table printer.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let header = headers
        .iter()
        .map(|h| format!("{h:>12}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{header}");
    for row in rows {
        let line = row
            .iter()
            .map(|c| format!("{c:>12}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_row_reports_ratio() {
        let row = compare_row("peak current", 6.0, 4.0, "A");
        assert!(row.contains("0.67"));
        assert!(row.contains("peak current"));
    }

    #[test]
    fn compare_row_handles_zero_reference() {
        let row = compare_row("zero", 0.0, 1.0, "W");
        assert!(row.contains("NaN"));
    }
}
