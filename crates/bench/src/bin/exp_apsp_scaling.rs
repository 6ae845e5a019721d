//! Experiments E1 + E9 — Theorem 1 and the algorithm landscape.
//!
//! E1: the full quantum APSP pipeline is correct and its rounds scale with
//! a smaller exponent than the classical triangle pipeline. E9: round
//! counts of all four APSP algorithms on the same instances (naive `O(n)`,
//! semiring `O~(n^{1/3})`, classical triangle `O~(√n·log W)`, quantum
//! triangle `O~(n^{1/4}·log W)`).
//!
//! End-to-end runs execute the entire reduction stack, so sizes stay
//! moderate; per-stage scaling at larger `n` is covered by E2/E8/E11.

use qcc_apsp::{apsp_traced, ApspAlgorithm, Params};
use qcc_bench::{banner, loglog_slope, Args, Table};
use qcc_graph::{floyd_warshall, random_reweighted_digraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let sink = Args::parse(
        "exp_apsp_scaling",
        "usage: exp_apsp_scaling [--trace FILE]",
        &["--trace"],
        &[],
    )
    .trace_sink();
    banner(
        "E1/E9",
        "end-to-end APSP: correctness and round counts across algorithms",
    );
    let sizes = [4usize, 8, 12, 16];
    let mut table = Table::new(&[
        "n",
        "naive",
        "semiring",
        "classical-triangle",
        "quantum-triangle",
        "exact",
    ]);
    let mut ns = Vec::new();
    let mut quantum = Vec::new();
    let mut classical = Vec::new();

    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(0xE1 + n as u64);
        let g = random_reweighted_digraph(n, 0.5, 8, &mut rng);
        let oracle = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let mut params = Params::paper();
        params.search_repetitions = Some(12);

        let mut rounds = Vec::new();
        let mut exact = true;
        for algorithm in [
            ApspAlgorithm::NaiveBroadcast,
            ApspAlgorithm::SemiringSquaring,
            ApspAlgorithm::ClassicalTriangle,
            ApspAlgorithm::QuantumTriangle,
        ] {
            if let Some(sink) = &sink {
                sink.open_span(&format!("e1/n{n}/{algorithm:?}"));
            }
            let report = apsp_traced(&g, params, algorithm, &mut rng, sink.as_ref()).unwrap();
            if let Some(sink) = &sink {
                sink.close_span();
            }
            exact &= report.distances == oracle;
            rounds.push(report.rounds);
        }
        table.row(&[&n, &rounds[0], &rounds[1], &rounds[2], &rounds[3], &exact]);
        ns.push(n as f64);
        classical.push(rounds[2] as f64);
        quantum.push(rounds[3] as f64);
    }
    table.print();

    println!();
    if let (Some(q), Some(c)) = (loglog_slope(&ns, &quantum), loglog_slope(&ns, &classical)) {
        println!("quantum-triangle slope:   {q:.2}");
        println!("classical-triangle slope: {c:.2}");
        println!(
            "(at end-to-end testable sizes the shared reduction machinery — gather,\n\
             covering, identify-class, O(log n · log M) invocations — dominates both\n\
             pipelines equally, so their slopes coincide; the quantum separation is\n\
             in the Step-3 search itself, measured at scale in E2: 0.48 vs 0.96)"
        );
    }

    banner(
        "E1b",
        "log W dependence: rounds grow linearly in log(weight range)",
    );
    let mut table = Table::new(&["W", "quantum rounds", "products", "exact"]);
    let n = 8;
    for &w in &[2u64, 8, 64, 512] {
        let mut rng = StdRng::seed_from_u64(0xE1B + w);
        let g = random_reweighted_digraph(n, 0.5, w, &mut rng);
        let oracle = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let mut params = Params::paper();
        params.search_repetitions = Some(12);
        if let Some(sink) = &sink {
            sink.open_span(&format!("e1b/w{w}"));
        }
        let report = apsp_traced(
            &g,
            params,
            ApspAlgorithm::QuantumTriangle,
            &mut rng,
            sink.as_ref(),
        )
        .unwrap();
        if let Some(sink) = &sink {
            sink.close_span();
        }
        table.row(&[
            &w,
            &report.rounds,
            &report.products,
            &(report.distances == oracle),
        ]);
    }
    table.print();
    if let Some(sink) = &sink {
        sink.flush().expect("trace flush");
    }
}
