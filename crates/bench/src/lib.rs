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

use qcc_congest::json::{self, Value};
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

/// The command line of a bench binary: `--flag value` pairs and bare
/// switches, checked against the flags the binary declares.
///
/// Every usage error — an undeclared flag, a value flag without a value,
/// a malformed number — prints `BIN: message` and the usage line to
/// stderr and exits with status 2 ([`Args::fail`]).
#[derive(Clone, Debug)]
pub struct Args {
    bin: &'static str,
    usage: &'static str,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Reads the process's arguments; a repeated flag keeps its last
    /// value.
    #[must_use]
    pub fn parse(
        bin: &'static str,
        usage: &'static str,
        value_flags: &[&str],
        switches: &[&str],
    ) -> Args {
        let mut args = Args {
            bin,
            usage,
            values: Vec::new(),
            switches: Vec::new(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if let Err(e) = args.read(&argv, value_flags, switches) {
            args.fail(&e);
        }
        args
    }

    /// Records `argv`; a following `--flag` is not taken as a value.
    fn read(
        &mut self,
        argv: &[String],
        value_flags: &[&str],
        switches: &[&str],
    ) -> Result<(), String> {
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if switches.contains(&arg.as_str()) {
                self.switches.push(arg.clone());
            } else if value_flags.contains(&arg.as_str()) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => self.values.push((arg.clone(), v.clone())),
                    _ => return Err(format!("{arg} requires a value")),
                }
            } else {
                return Err(format!("unknown argument `{arg}`"));
            }
        }
        Ok(())
    }

    /// Prints `BIN: message` and the usage line to stderr, then exits
    /// with status 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("{}: {message}\n{}", self.bin, self.usage);
        std::process::exit(2);
    }

    /// Whether switch `name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of flag `name`, if given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of flag `name` parsed as a `T`, or `default` when the
    /// flag is absent; exits with status 2 when it does not parse.
    #[must_use]
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.fail(&format!("invalid value for {name}: {v}"))),
        }
    }

    /// The NDJSON sink of `--trace FILE`, if given; exits with status 2
    /// when the file cannot be created.
    #[must_use]
    pub fn trace_sink(&self) -> Option<qcc_congest::TraceSink> {
        let path = self.value("--trace")?;
        Some(
            qcc_congest::TraceSink::to_file(path)
                .unwrap_or_else(|e| self.fail(&format!("cannot create trace file {path}: {e}"))),
        )
    }
}

/// A bench report: one JSON object, written in the layout every
/// checked-in `BENCH_*.json` shares — one top-level field per line, an
/// array of objects one element per line, everything else inline with
/// `", "` and `": "` separators.
///
/// # Examples
///
/// ```
/// use qcc_bench::{fixed, Report};
///
/// let row = Report::new().field("n", 16usize).field("ms", fixed(1.0 / 3.0, 3));
/// let text = Report::new()
///     .field("schema", "demo/v1")
///     .field("all_ms", vec![fixed(2.0, 1), fixed(0.5, 1)])
///     .field("rows", vec![row])
///     .render();
/// assert_eq!(
///     text,
///     "{\n  \"schema\": \"demo/v1\",\n  \"all_ms\": [2.0, 0.5],\n  \"rows\": [\n    \
///      {\"n\": 16, \"ms\": 0.333}\n  ]\n}\n"
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct Report(Vec<(String, Value)>);

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends field `key`; fields render in the order they were added.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Report {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// The report's JSON text, ending in a newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::from("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            s.push_str("  ");
            push_key(&mut s, key);
            match value {
                Value::Arr(items) if items.iter().any(|v| matches!(v, Value::Obj(_))) => {
                    s.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        s.push_str("    ");
                        push_inline(&mut s, item);
                        s.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    s.push_str("  ]");
                }
                other => push_inline(&mut s, other),
            }
            s.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        s.push_str("}\n");
        s
    }

    /// Writes [`Report::render`] to `path` and returns the text.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write(&self, path: &str) -> std::io::Result<String> {
        let text = self.render();
        std::fs::write(path, &text)?;
        Ok(text)
    }
}

impl From<Report> for Value {
    fn from(r: Report) -> Value {
        Value::Obj(r.0)
    }
}

/// The host's available parallelism (1 when unknown), recorded in every
/// timing report.
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `x` with `decimals` digits after the point (`null` when not finite,
/// which JSON cannot write).
#[must_use]
pub fn fixed(x: f64, decimals: usize) -> Value {
    if x.is_finite() {
        Value::Num(format!("{x:.decimals$}"))
    } else {
        Value::Null
    }
}

fn push_key(s: &mut String, key: &str) {
    s.push('"');
    json::escape_into(s, key);
    s.push_str("\": ");
}

fn push_inline(s: &mut String, value: &Value) {
    match value {
        Value::Null => s.push_str("null"),
        Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
        Value::Num(literal) => s.push_str(literal),
        Value::Str(text) => {
            s.push('"');
            json::escape_into(s, text);
            s.push('"');
        }
        Value::Arr(items) => {
            s.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                push_inline(s, item);
            }
            s.push(']');
        }
        Value::Obj(fields) => {
            s.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                push_key(s, key);
                push_inline(s, item);
            }
            s.push('}');
        }
    }
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

    fn args(argv: &str, value_flags: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            bin: "demo",
            usage: "usage: demo",
            values: Vec::new(),
            switches: Vec::new(),
        };
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        args.read(&argv, value_flags, switches).map(|()| args)
    }

    fn demo(argv: &str) -> Result<Args, String> {
        args(argv, &["--n", "--out"], &["--smoke"])
    }

    #[test]
    fn args_read_values_and_switches() {
        let args = demo("--n 5 --smoke --out x.json --n 6").unwrap();
        assert!(args.switch("--smoke"));
        assert_eq!(args.value("--out"), Some("x.json"));
        assert_eq!(args.num("--n", 0usize), 6);
        assert_eq!(demo("").unwrap().num("--n", 9usize), 9);
    }

    #[test]
    fn args_reject_unknown_flags_and_missing_values() {
        assert!(demo("--bogus")
            .unwrap_err()
            .contains("unknown argument `--bogus`"));
        assert!(demo("stray")
            .unwrap_err()
            .contains("unknown argument `stray`"));
        for bad in ["--n", "--n --smoke", "--out --n 3"] {
            assert!(demo(bad).unwrap_err().contains("requires a value"), "{bad}");
        }
    }

    #[test]
    fn trace_sink_opens_the_file() {
        let path =
            std::env::temp_dir().join(format!("qcc-bench-lib-{}.ndjson", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let traced = args(&format!("--trace {path}"), &["--trace"], &[]).unwrap();
        assert!(traced.trace_sink().is_some());
        std::fs::remove_file(&path).ok();
        assert!(demo("").unwrap().trace_sink().is_none());
    }

    #[test]
    fn report_layout_round_trips_through_the_reader() {
        let text = Report::new()
            .field("schema", "x/v1")
            .field("label", "say \"hi\"")
            .field("missing", None::<u64>)
            .field(
                "rows",
                vec![Report::new()
                    .field("ok", true)
                    .field("all", vec![fixed(1.5, 2)])],
            )
            .render();
        assert!(
            text.contains("  \"label\": \"say \\\"hi\\\"\",\n"),
            "{text}"
        );
        assert!(
            text.contains("    {\"ok\": true, \"all\": [1.50]}\n  ]\n}\n"),
            "{text}"
        );
        let value = json::parse(&text).unwrap();
        assert_eq!(value.get("label"), Some(&Value::Str("say \"hi\"".into())));
        assert_eq!(value.get("missing"), Some(&Value::Null));
        assert_eq!(fixed(f64::NAN, 3), Value::Null);
    }
}
