//! Host-performance baseline: a fixed workload matrix timed with
//! wall-clock medians, written to `BENCH_baseline.json`.
//!
//! Three workload families:
//!
//! 1. **Tiled min-plus distance product** at `n ∈ {64, 128, 256}`, once
//!    with 1 worker thread and once with 4 — the speedup table quoted in
//!    `README.md`. On a single-core host both configurations time the
//!    same; the JSON records whatever the machine actually delivers.
//! 2. **`Clique::route` stress** — all-to-all fragmented payloads on the
//!    zero-allocation simulator (n = 64, repeated phases on one warm
//!    network instance).
//! 3. **End-to-end E1** — the full quantum APSP pipeline (Theorem 1) at
//!    `n = 81` with scaled params; a single run (it executes millions of
//!    simulated rounds), recording wall-clock and charged rounds.
//!
//! `--smoke` shrinks every workload (n = 64 products, n = 16 pipeline) so
//! CI can exercise the whole harness in seconds. Charged round counts are
//! asserted identical across worker counts — optimisations must never
//! change simulation semantics.
//!
//! Usage: `bench_baseline [--smoke] [--skip-e1] [--out PATH] [--trace FILE]`
//!
//! `--skip-e1` omits the end-to-end quantum APSP workload (`bench_e1`
//! owns that measurement), keeping smoke invocations fast.
//!
//! `--trace FILE` writes an NDJSON congestion trace of the simulated
//! workloads (route stress + end-to-end APSP); render it with
//! `qcc trace-summary FILE`.

use qcc_apsp::{apsp_traced, ApspAlgorithm, Params};
use qcc_bench::{fixed, host_parallelism, Args, Report};
use qcc_congest::{Clique, Envelope, NodeId, RawBits, TraceSink};
use qcc_graph::{
    distance_product_with_threads, random_reweighted_digraph, ExtWeight, WeightMatrix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Sample {
    name: String,
    n: usize,
    threads: usize,
    reps: usize,
    times_ms: Vec<f64>,
    rounds: Option<u64>,
}

impl Sample {
    fn median_ms(&self) -> f64 {
        let mut sorted = self.times_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        }
    }

    fn min_ms(&self) -> f64 {
        self.times_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Times `reps` executions of `f`, preceded by one discarded warmup run
/// (when `reps > 1`) so cold caches, lazy allocations, and first-touch page
/// faults don't skew the recorded samples. Single-rep workloads (the
/// end-to-end pipeline) skip the warmup — doubling a minutes-long run buys
/// no precision.
fn time_reps<F: FnMut()>(reps: usize, mut f: F) -> Vec<f64> {
    if reps > 1 {
        f();
    }
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn random_matrix(n: usize, seed: u64) -> WeightMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    WeightMatrix::from_fn(n, |_, _| {
        if rng.gen_bool(0.85) {
            ExtWeight::from(rng.gen_range(-40..=40))
        } else {
            ExtWeight::PosInf
        }
    })
}

fn bench_distance_products(sizes: &[usize], reps: usize, out: &mut Vec<Sample>) {
    for &n in sizes {
        let a = random_matrix(n, 0xA0 + n as u64);
        let b = random_matrix(n, 0xB0 + n as u64);
        let reference = distance_product_with_threads(&a, &b, 1);
        for threads in [1usize, 4] {
            let times_ms = time_reps(reps, || {
                let c = distance_product_with_threads(&a, &b, threads);
                assert_eq!(c, reference, "worker count changed the product");
            });
            out.push(Sample {
                name: "distance_product".into(),
                n,
                threads,
                reps,
                times_ms,
                rounds: None,
            });
        }
    }
}

fn bench_route_stress(n: usize, reps: usize, sink: Option<&TraceSink>, out: &mut Vec<Sample>) {
    // All-to-all fragmented payloads: every node sends 3 bandwidth-widths
    // to every other node, so Lemma 1 relaying and fragmentation both run.
    let bits = 16;
    let sends: Vec<Envelope<RawBits>> = (0..n)
        .flat_map(|u| {
            (0..n).filter(move |&v| v != u).map(move |v| {
                Envelope::new(NodeId::new(u), NodeId::new(v), RawBits::new(0, 3 * bits))
            })
        })
        .collect();
    let mut net = Clique::with_bandwidth(n, bits).expect("valid network");
    if let Some(sink) = sink {
        net.set_trace_sink(sink.clone());
    }
    net.push_span("route-stress");
    let mut rounds_per_phase = None;
    let times_ms = time_reps(reps, || {
        let before = net.rounds();
        net.route(sends.clone()).expect("route succeeds");
        let phase = net.rounds() - before;
        // Warm scratch must not change charged rounds between phases.
        assert_eq!(*rounds_per_phase.get_or_insert(phase), phase);
    });
    net.close_all_spans();
    out.push(Sample {
        name: "clique_route_all_to_all".into(),
        n,
        threads: 1,
        reps,
        times_ms,
        rounds: rounds_per_phase,
    });
}

fn bench_apsp_e2e(n: usize, sink: Option<&TraceSink>, out: &mut Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(0xE1);
    let g = random_reweighted_digraph(n, 0.5, 8, &mut rng);
    let mut rounds = 0;
    let times_ms = time_reps(1, || {
        let report = apsp_traced(
            &g,
            Params::scaled(),
            ApspAlgorithm::QuantumTriangle,
            &mut rng,
            sink,
        )
        .expect("pipeline succeeds");
        rounds = report.rounds;
    });
    out.push(Sample {
        name: "apsp_e2e_quantum".into(),
        n,
        threads: 1,
        reps: 1,
        times_ms,
        rounds: Some(rounds),
    });
}

fn to_json(samples: &[Sample], mode: &str) -> Report {
    let workloads: Vec<Report> = samples
        .iter()
        .map(|sample| {
            let row = Report::new()
                .field("name", sample.name.as_str())
                .field("n", sample.n)
                .field("threads", sample.threads)
                .field("reps", sample.reps)
                .field("median_ms", fixed(sample.median_ms(), 3))
                .field("min_ms", fixed(sample.min_ms(), 3));
            let row = match sample.rounds {
                Some(r) => row.field("rounds", r),
                None => row,
            };
            row.field(
                "all_ms",
                sample
                    .times_ms
                    .iter()
                    .map(|&t| fixed(t, 3))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    Report::new()
        .field("schema", "qcc-bench-baseline/v1")
        .field("mode", mode)
        .field("host_available_parallelism", host_parallelism())
        .field("workloads", workloads)
}

fn main() {
    let args = Args::parse(
        "bench_baseline",
        "usage: bench_baseline [--smoke] [--skip-e1] [--out PATH] [--trace FILE]",
        &["--out", "--trace"],
        &["--smoke", "--skip-e1"],
    );
    let smoke = args.switch("--smoke");
    let skip_e1 = args.switch("--skip-e1");
    let out_path = args.value("--out").unwrap_or("BENCH_baseline.json");
    let sink = args.trace_sink();

    let (sizes, reps, e2e_n): (&[usize], usize, usize) = if smoke {
        (&[64], 2, 16)
    } else {
        (&[64, 128, 256], 5, 81)
    };

    let mut samples = Vec::new();
    eprintln!("bench_baseline: distance products (n = {sizes:?}, {reps} reps) ...");
    bench_distance_products(sizes, reps, &mut samples);
    eprintln!("bench_baseline: Clique::route stress ...");
    bench_route_stress(64, reps, sink.as_ref(), &mut samples);
    if skip_e1 {
        // `bench_e1` owns the end-to-end E1 measurement; skipping it here
        // keeps smoke invocations out of the ~34 s run.
        eprintln!("bench_baseline: skipping end-to-end APSP (--skip-e1)");
    } else {
        eprintln!("bench_baseline: end-to-end quantum APSP at n = {e2e_n} (single run) ...");
        bench_apsp_e2e(e2e_n, sink.as_ref(), &mut samples);
    }
    if let Some(sink) = &sink {
        sink.flush().expect("trace flush");
    }

    let json = to_json(&samples, if smoke { "smoke" } else { "full" })
        .write(out_path)
        .expect("write baseline JSON");
    println!("{json}");
    eprintln!("bench_baseline: wrote {out_path}");
}
