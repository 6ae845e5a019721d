//! Experiment E12 — the load-balancing ablation (Section 5.3).
//!
//! Paper narrative: without the class machinery, a node `(u, v, w)` whose
//! fine block holds the apexes of *many* negative triangles receives
//! `Θ(m√n)` queries in one evaluation — `Θ~(√n)` rounds of congestion.
//! The class partition plus Figure-5 duplication spreads exactly that load.
//!
//! We build the adversarial hotspot instance, run one evaluation step with
//! every query aimed at the hot block, and compare three configurations:
//! unbounded classical (pays the congestion), promise-gated Figure 4
//! (refuses), and Figure 5 with duplication (accepts and stays flat).

use qcc_apsp::eval_procedure::{evaluate_joint, evaluate_joint_unbounded, AlphaContext, EvalQuery};
use qcc_apsp::gather::gather_weights;
use qcc_apsp::lambda::KeptPair;
use qcc_apsp::{Instance, PairSet, Params};
use qcc_bench::{banner, Args, Table};
use qcc_congest::Clique;
use qcc_graph::congestion_hotspot;

fn main() {
    let sink = Args::parse(
        "exp_congestion",
        "usage: exp_congestion [--trace FILE]",
        &["--trace"],
        &[],
    )
    .trace_sink();
    banner(
        "E12",
        "load-balancing ablation: hot-block queries with and without the machinery",
    );
    let n = 256;
    let (g, base_pairs) = congestion_hotspot(n, 64, 16);
    let s = PairSet::all_pairs(n);

    // All apexes sit in the fine blocks right after the base pairs; pick
    // the block holding the first apexes as the hot target.
    let params = Params::paper();
    let inst = Instance::new(&g, &s, params);
    let hot_block = inst.parts.fine.block_of(2 * 64); // first apex vertex
    let mut net = Clique::new(n).unwrap();
    if let Some(sink) = &sink {
        net.set_trace_sink(sink.clone());
    }
    net.push_span("e12");
    let gathered = gather_weights(&inst, &mut net).unwrap();
    let labels: Vec<usize> = (0..inst.triples.labeling().label_count()).collect();

    // Every base pair queries the hot block from every search node that
    // keeps it — the worst case the class machinery is built for.
    let build_queries = |inst: &Instance<'_>| -> Vec<EvalQuery> {
        let mut queries = Vec::new();
        for &(u, v) in &base_pairs {
            let bu = inst.parts.coarse.block_of(u);
            let bv = inst.parts.coarse.block_of(v);
            let w = g.weight(u, v).finite().expect("base pairs are edges");
            for x in 0..inst.parts.fine.num_blocks() {
                queries.push(EvalQuery {
                    search_label: inst.searches.encode(bu.min(bv), bu.max(bv), x),
                    pair: KeptPair { u, v, weight: w },
                    target: hot_block,
                });
            }
        }
        queries
    };

    let mut table = Table::new(&["configuration", "outcome", "rounds", "max link bits"]);

    // (a) unbounded classical evaluator: pays the congestion.
    let queries = build_queries(&inst);
    let actx = AlphaContext::build(&inst, &mut net, 0, &labels).unwrap();
    net.begin_phase("e12/unbounded");
    let before = net.rounds();
    evaluate_joint_unbounded(&inst, &mut net, &gathered, &actx, &queries).unwrap();
    let unbounded_rounds = net.rounds() - before;
    let unbounded_link = last_max_link(&net);
    table.row(&[
        &"classical unbounded",
        &"answered",
        &unbounded_rounds,
        &unbounded_link,
    ]);

    // (b) promise-gated Figure 4 with a tight cap: refuses the hot load.
    let mut tight = params;
    tight.list_bound = 0.05; // cap ≈ 0.05·√n·log n = 6.4 < per-list load
    let inst_tight = Instance::new(&g, &s, tight);
    let queries_t = build_queries(&inst_tight);
    let actx_t = AlphaContext::build(&inst_tight, &mut net, 0, &labels).unwrap();
    net.begin_phase("e12/gated");
    let before = net.rounds();
    let refused = evaluate_joint(&inst_tight, &mut net, &gathered, &actx_t, &queries_t).is_err();
    let gated_rounds = net.rounds() - before;
    table.row(&[
        &"Figure 4, tight promise gate",
        &(if refused {
            "refused (atypical)"
        } else {
            "answered"
        }),
        &gated_rounds,
        &0u64,
    ]);

    // (c) Figure 5 with duplication: accepts the same load, spread flat.
    let mut dup_params = params;
    dup_params.dup_denominator = 0.02; // alpha = 3 => dup = floor(8/(0.02·8)) = 50 copies
    let inst_d = Instance::new(&g, &s, dup_params);
    let queries_d = build_queries(&inst_d);
    let actx_d = AlphaContext::build(&inst_d, &mut net, 3, &labels).unwrap();
    net.begin_phase("e12/duplicated");
    let before = net.rounds();
    evaluate_joint(&inst_d, &mut net, &gathered, &actx_d, &queries_d).unwrap();
    let dup_rounds = net.rounds() - before;
    let dup_link = last_max_link(&net);
    table.row(&[
        &format!("Figure 5, {} copies", actx_d.dup),
        &"answered",
        &dup_rounds,
        &dup_link,
    ]);

    net.close_all_spans();
    table.print();
    println!(
        "\n(duplication cuts the busiest link by ~{}x at the cost of a one-time\n\
         table broadcast, exactly Section 5.3.2's trade)",
        unbounded_link.checked_div(dup_link).unwrap_or(0)
    );

    // E12b: why the covering is randomized (Section 5.1).
    banner(
        "E12b",
        "random vs deterministic covering on adversarially ordered triangle pairs",
    );
    let n2 = 64;
    let mut g2 = qcc_graph::UGraph::new(n2);
    // 30 consecutive pairs {0,v} all in negative triangles through apex 50
    for v in 1..=30 {
        g2.add_edge(0, v, -10);
        g2.add_edge(v, 50, 4);
    }
    g2.add_edge(0, 50, 4);
    let s2 = PairSet::all_pairs(n2);
    // sub-unit sampling rate so the randomized covering actually spreads
    let mut thin = Params::paper();
    thin.lambda_rate = 0.25; // p ≈ 0.19 at n = 64
    let inst2 = Instance::new(&g2, &s2, thin);
    let delta: Vec<(usize, usize)> = (1..=30).map(|v| (0usize, v)).collect();

    let max_overlap = |cover: &qcc_apsp::LambdaCover| -> usize {
        cover
            .kept
            .iter()
            .map(|list| {
                list.iter()
                    .filter(|kp| delta.contains(&(kp.u, kp.v)))
                    .count()
            })
            .max()
            .unwrap_or(0)
    };

    let mut net2 = Clique::new(n2).unwrap();
    if let Some(sink) = &sink {
        net2.set_trace_sink(sink.clone());
    }
    net2.push_span("e12b");
    let det = qcc_apsp::build_deterministic_cover(&inst2, &mut net2).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE12B);
    use rand::SeedableRng;
    let rnd = qcc_apsp::build_lambda_cover_with_retry(&inst2, &mut net2, 10, &mut rng).unwrap();

    let mut table = Table::new(&["covering", "max |Lambda_x ∩ Delta| (one label)", "|Delta|"]);
    table.row(&[&"deterministic chunks", &max_overlap(&det), &delta.len()]);
    table.row(&[&"randomized (paper)", &max_overlap(&rnd), &delta.len()]);
    net2.close_all_spans();
    table.print();
    println!(
        "\n(the randomized cover spreads Delta across the sqrt(n) labels — the\n\
         mechanism behind Lemma 3 — while deterministic chunks hand an\n\
         adversary a single hot label forever; this is why Section 5.1 uses a\n\
         random covering rather than a partition)"
    );
    if let Some(sink) = &sink {
        sink.flush().expect("trace flush");
    }
}

fn last_max_link(net: &Clique) -> u64 {
    net.metrics()
        .phases()
        .iter()
        .rev()
        .take_while(|p| !p.label.starts_with("e12/"))
        .map(|p| p.max_link_bits)
        .max()
        .unwrap_or(0)
}
