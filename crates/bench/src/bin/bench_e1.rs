//! E1 end-to-end wall-clock bench: the full quantum APSP pipeline on the
//! fixed E1 instance (seed `0xE1`, density 0.5, weights ≤ 8, scaled
//! params), timed at a configurable `n`.
//!
//! This is the workload `BENCH_baseline.json` pins at n = 81 (337.6 s /
//! 9,767,313 charged rounds on the recording host). The binary exists so
//! that the batched-simulator speedups are visible as a standalone
//! artifact (`BENCH_e1_fast.json`) and so CI can smoke-test for wall-clock
//! regressions at a reduced `n` against a checked-in reference.
//!
//! Usage:
//!
//! ```text
//! bench_e1 [--n N] [--reps R] [--out PATH] [--trace FILE]
//!          [--check REF.json] [--max-ratio X]
//! ```
//!
//! * Every rep replays the *identical* run (the RNG is re-seeded per rep),
//!   so charged rounds are asserted equal across reps. One warmup rep is
//!   executed and discarded before timing.
//! * `--check REF.json` compares this run's `min_ms` against the
//!   reference's `min_ms` (falling back to `median_ms`) and exits 1 when
//!   it regressed by more than `--max-ratio` (default 2.0), or when its
//!   charged rounds differ from the reference's `rounds`. `min_ms` is
//!   compared because it is the noise-robust statistic on shared CI hosts.
//!   A reference without an integer `rounds` is a usage error (exit 2).
//! * The JSON also records `trimmed_mean_ms` (mean with the fastest and
//!   slowest rep dropped) as the typical-rep statistic; it is reported,
//!   never gated on. See EXPERIMENTS.md for the rationale.

use qcc_apsp::{apsp_traced, ApspAlgorithm, Params};
use qcc_bench::{fixed, host_parallelism, Args, Report};
use qcc_congest::json::{self, Value};
use qcc_congest::TraceSink;
use qcc_graph::random_reweighted_digraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct E1Result {
    n: usize,
    reps: usize,
    times_ms: Vec<f64>,
    rounds: u64,
}

fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean with the extremes dropped (when there are at least three
/// samples): E1 tails are high-variance, so the trimmed mean tracks the
/// typical rep better than the plain mean without being as optimistic as
/// the min.
fn trimmed_mean(sorted: &[f64]) -> f64 {
    let trimmed = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        sorted
    };
    trimmed.iter().sum::<f64>() / trimmed.len() as f64
}

fn run_e1(n: usize, reps: usize, sink: Option<&TraceSink>) -> E1Result {
    // The E1 instance of bench_baseline, byte for byte: graph and
    // algorithm randomness both come from the 0xE1 stream.
    let mut times_ms = Vec::with_capacity(reps);
    let mut rounds: Option<u64> = None;
    // Rep 0 is a discarded warmup: it faults in code pages and warms the
    // allocator so the timed reps measure steady state.
    for rep in 0..=reps {
        let mut rng = StdRng::seed_from_u64(0xE1);
        let g = random_reweighted_digraph(n, 0.5, 8, &mut rng);
        let timed_sink = if rep == 1 { sink } else { None };
        let t = Instant::now();
        let report = apsp_traced(
            &g,
            Params::scaled(),
            ApspAlgorithm::QuantumTriangle,
            &mut rng,
            timed_sink,
        )
        .expect("pipeline succeeds");
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        // Identical seed ⇒ identical simulation: any drift in charged
        // rounds between reps is a determinism bug.
        assert_eq!(
            *rounds.get_or_insert(report.rounds),
            report.rounds,
            "charged rounds drifted between identical reps"
        );
        if rep > 0 {
            times_ms.push(elapsed);
        }
        eprintln!(
            "bench_e1: rep {rep}{} n={n}: {elapsed:.1} ms, {} rounds",
            if rep == 0 { " (warmup, discarded)" } else { "" },
            report.rounds
        );
    }
    E1Result {
        n,
        reps,
        times_ms,
        rounds: rounds.expect("at least one rep ran"),
    }
}

fn to_json(r: &E1Result) -> Report {
    let mut sorted = r.times_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    Report::new()
        .field("schema", "qcc-bench-e1/v1")
        .field("host_available_parallelism", host_parallelism())
        .field("n", r.n)
        .field("reps", r.reps)
        .field("median_ms", fixed(median(&sorted), 3))
        .field("trimmed_mean_ms", fixed(trimmed_mean(&sorted), 3))
        .field("min_ms", fixed(sorted[0], 3))
        .field("rounds", r.rounds)
        .field(
            "all_ms",
            r.times_ms.iter().map(|&t| fixed(t, 3)).collect::<Vec<_>>(),
        )
}

/// The reference run `--check` compares against: its `min_ms` (falling
/// back to `median_ms`) and its charged `rounds`, which must be present —
/// a reference without them would let round drift pass unseen.
fn reference(text: &str) -> Result<(f64, u64), String> {
    let value = json::parse(text)?;
    let ms = ["min_ms", "median_ms"]
        .iter()
        .find_map(|key| match value.get(key) {
            Some(Value::Num(literal)) => literal.parse::<f64>().ok(),
            _ => None,
        })
        .ok_or("has no min_ms/median_ms")?;
    let rounds = match value.get("rounds") {
        Some(Value::Num(literal)) => json::int(literal).map_err(|e| format!("rounds: {e}"))?,
        Some(_) => return Err("rounds is not an integer".into()),
        None => return Err("has no rounds".into()),
    };
    Ok((ms, rounds))
}

fn main() {
    let args = Args::parse(
        "bench_e1",
        "usage: bench_e1 [--n N] [--reps R] [--out PATH] [--trace FILE] \
         [--check REF.json] [--max-ratio X]",
        &[
            "--n",
            "--reps",
            "--out",
            "--trace",
            "--check",
            "--max-ratio",
        ],
        &[],
    );
    let n = args.num("--n", 81usize);
    let reps = args.num("--reps", 1usize);
    let out_path = args.value("--out").unwrap_or("BENCH_e1_fast.json");
    let max_ratio = args.num("--max-ratio", 2.0f64);
    if reps == 0 {
        args.fail("--reps must be at least 1");
    }
    // Read the reference before the run, so a bad one fails fast.
    let check = args.value("--check").map(|ref_path| {
        std::fs::read_to_string(ref_path)
            .map_err(|e| format!("cannot read reference {ref_path}: {e}"))
            .and_then(|text| reference(&text).map_err(|e| format!("reference {ref_path}: {e}")))
            .unwrap_or_else(|e| args.fail(&e))
    });
    let sink = args.trace_sink();

    let result = run_e1(n, reps, sink.as_ref());
    if let Some(sink) = &sink {
        sink.flush().expect("trace flush");
    }
    let json = to_json(&result).write(out_path).expect("write bench JSON");
    println!("{json}");
    eprintln!("bench_e1: wrote {out_path}");

    if let Some((ref_ms, ref_rounds)) = check {
        let mut sorted = result.times_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let ours = sorted[0];
        let ratio = ours / ref_ms;
        if ref_rounds != result.rounds {
            eprintln!(
                "bench_e1: FAIL — charged rounds {} differ from reference {} \
                 (simulation semantics changed)",
                result.rounds, ref_rounds
            );
            std::process::exit(1);
        }
        if ratio > max_ratio {
            eprintln!(
                "bench_e1: FAIL — min {ours:.1} ms is {ratio:.2}x the reference \
                 {ref_ms:.1} ms (limit {max_ratio}x)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_e1: check OK — min {ours:.1} ms vs reference {ref_ms:.1} ms \
             ({ratio:.2}x, limit {max_ratio}x)"
        );
    }
}
