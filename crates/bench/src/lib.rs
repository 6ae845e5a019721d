//! # qcc-bench — the experiment harness
//!
//! Shared utilities for the experiment binaries (`src/bin/exp_*.rs`) and
//! the Criterion benches (`benches/`). Every experiment of `DESIGN.md`
//! (E1–E13) has a binary that regenerates its table; the output is pasted
//! into `EXPERIMENTS.md`.
//!
//! Run all experiment binaries with, e.g.:
//!
//! ```text
//! cargo run --release -p qcc-bench --bin exp_find_edges
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// A markdown table accumulated row by row and printed to stdout.
///
/// # Examples
///
/// ```
/// use qcc_bench::Table;
///
/// let mut t = Table::new(&["n", "rounds"]);
/// t.row(&[&16, &42]);
/// let rendered = t.render();
/// assert!(rendered.contains("| n | rounds |"));
/// assert!(rendered.contains("| 16 | 42 |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Least-squares slope of `log y` against `log x` — the empirical scaling
/// exponent of a measurement series.
///
/// Returns `None` for fewer than two points or non-positive values.
///
/// # Examples
///
/// ```
/// let xs = [16.0f64, 64.0, 256.0];
/// let ys: Vec<f64> = xs.iter().map(|x: &f64| 3.0 * x.powf(0.5)).collect();
/// let slope = qcc_bench::loglog_slope(&xs, &ys).unwrap();
/// assert!((slope - 0.5).abs() < 1e-9);
/// ```
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys.iter()).any(|&v| v <= 0.0) {
        return None;
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    if var == 0.0 {
        return None;
    }
    Some(cov / var)
}

/// Geometric mean of a series (0 if empty or any non-positive entry).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints an experiment banner (id + claim) so harness output is
/// self-describing when tee'd into logs.
pub fn banner(id: &str, claim: &str) {
    println!("\n## {id} — {claim}\n");
}

/// Extracts `--trace FILE` from an experiment binary's argument list,
/// removing both tokens and opening the NDJSON sink.
///
/// The experiment binaries share one convention: `--trace` is optional,
/// everything else is binary-specific. Returns `Err` with a usage-style
/// message when the flag is present without a value or the file cannot be
/// created; the caller prints it and exits non-zero.
///
/// # Errors
///
/// Returns a message naming the problem (`--trace requires a path`, or the
/// file-creation failure).
///
/// # Examples
///
/// ```
/// let mut args = vec!["--smoke".to_string()];
/// let sink = qcc_bench::take_trace_flag(&mut args).unwrap();
/// assert!(sink.is_none());
/// assert_eq!(args, ["--smoke"]);
/// ```
pub fn take_trace_flag(args: &mut Vec<String>) -> Result<Option<qcc_congest::TraceSink>, String> {
    let Some(i) = args.iter().position(|a| a == "--trace") else {
        return Ok(None);
    };
    if i + 1 >= args.len() || args[i + 1].starts_with("--") {
        return Err("--trace requires a path".into());
    }
    let path = args.remove(i + 1);
    args.remove(i);
    qcc_congest::TraceSink::to_file(&path)
        .map(Some)
        .map_err(|e| format!("cannot create trace file {path}: {e}"))
}

/// `true` iff a fail-stop crash is the root cause of `e`: the fault-sweep
/// and transport-matrix gates require it of every crash cell.
pub fn crash_is_root_cause(e: &qcc_apsp::ApspError) -> bool {
    use qcc_apsp::ApspError;
    let root = match e {
        ApspError::Faulted { source, .. } => source.as_ref(),
        other => other,
    };
    matches!(
        root,
        ApspError::Congest(qcc_congest::CongestError::NodeCrashed { .. })
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&2, &"y"]);
        let r = t.render();
        assert!(r.starts_with("| a | b |\n|---|---|\n"));
        assert!(r.contains("| 2 | y |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        Table::new(&["a"]).row(&[&1, &2]);
    }

    #[test]
    fn slope_recovers_exponents() {
        let xs = [8.0f64, 16.0, 32.0, 64.0];
        for expo in [0.25, 0.333, 0.5, 1.0] {
            let ys: Vec<f64> = xs.iter().map(|x: &f64| 7.0 * x.powf(expo)).collect();
            let slope = loglog_slope(&xs, &ys).unwrap();
            assert!((slope - expo).abs() < 1e-9, "expo {expo}");
        }
    }

    #[test]
    fn slope_rejects_degenerate_input() {
        assert!(loglog_slope(&[1.0], &[1.0]).is_none());
        assert!(loglog_slope(&[1.0, 2.0], &[0.0, 1.0]).is_none());
        assert!(loglog_slope(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn take_trace_flag_removes_its_tokens() {
        let path =
            std::env::temp_dir().join(format!("qcc-bench-lib-{}.ndjson", std::process::id()));
        let mut args = vec![
            "--smoke".to_string(),
            "--trace".to_string(),
            path.to_string_lossy().into_owned(),
            "--out".to_string(),
            "x.json".to_string(),
        ];
        let sink = take_trace_flag(&mut args).unwrap();
        assert!(sink.is_some());
        assert_eq!(args, ["--smoke", "--out", "x.json"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn take_trace_flag_requires_a_value() {
        let mut args = vec!["--trace".to_string()];
        assert!(take_trace_flag(&mut args).is_err());
        let mut args = vec!["--trace".to_string(), "--smoke".to_string()];
        assert!(take_trace_flag(&mut args).is_err());
    }
}
