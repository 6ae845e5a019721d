//! Robustness and failure-injection tests: awkward sizes, violated
//! promises, oversized payloads, and abort paths.

use qcc::algo::{
    apsp_driver, compute_pairs, find_edges, promise_violation, reference_find_edges, ApspAlgorithm,
    ApspError, DriverConfig, PairSet, Params, SearchBackend,
};
use qcc::congest::{Clique, CongestError, Envelope, FaultPlan, NetConfig, NodeId, RawBits};
use qcc::graph::{book_graph, floyd_warshall, generators, UGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn non_fourth_power_sizes_still_work() {
    // n = 17, 23, 50: partitions round up, labelings overload nodes
    for &n in &[17usize, 23, 50] {
        let mut rng = StdRng::seed_from_u64(401 + n as u64);
        let g = generators::random_ugraph(n, 0.3, 4, &mut rng);
        let s = PairSet::all_pairs(n);
        let mut net = Clique::new(n).unwrap();
        let report = compute_pairs(
            &g,
            &s,
            Params::paper(),
            SearchBackend::Classical,
            &mut net,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.found, reference_find_edges(&g, &s), "n = {n}");
    }
}

#[test]
fn violated_promise_degrades_gracefully() {
    // Γ(0,1) = 13 but we force the promise bound below it: the algorithm
    // must not panic, and anything it reports must be a true positive.
    let g = book_graph(16, 13);
    let s = PairSet::all_pairs(16);
    let mut params = Params::paper();
    params.promise_factor = 0.1;
    assert!(promise_violation(&g, &s, params.promise_bound(16)).is_some());
    let mut net = Clique::new(16).unwrap();
    let mut rng = StdRng::seed_from_u64(402);
    let report = compute_pairs(&g, &s, params, SearchBackend::Quantum, &mut net, &mut rng).unwrap();
    let truth = reference_find_edges(&g, &s);
    for (u, v) in report.found.iter() {
        assert!(truth.contains(u, v), "no false positives even off-promise");
    }
}

#[test]
fn find_edges_handles_dense_all_negative_graphs() {
    // every pair is in a negative triangle: the heaviest possible Γ load
    let n = 16;
    let mut g = UGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, -1);
        }
    }
    let s = PairSet::all_pairs(n);
    let mut net = Clique::new(n).unwrap();
    let mut rng = StdRng::seed_from_u64(403);
    let report = find_edges(
        &g,
        &s,
        Params::paper(),
        SearchBackend::Quantum,
        &mut net,
        &mut rng,
    )
    .unwrap();
    assert_eq!(report.found.len(), n * (n - 1) / 2);
}

#[test]
fn oversized_payloads_fragment_through_routing() {
    let n = 8;
    let mut net = Clique::with_bandwidth(n, 8).unwrap();
    // each payload needs 5 fragments; loads stay under n units per node
    let sends: Vec<Envelope<RawBits>> = (1..n)
        .map(|v| Envelope::new(NodeId::new(0), NodeId::new(v), RawBits::new(v as u64, 40)))
        .collect();
    let inboxes = net.route(sends).unwrap();
    // 7 dests × 5 units = 35 units from node 0 -> 2·ceil(35/8) = 10 rounds
    assert_eq!(net.rounds(), 10);
    for v in 1..n {
        assert_eq!(inboxes.of(NodeId::new(v)).len(), 1);
    }
}

#[test]
fn stage_abort_errors_are_reported_not_panicked() {
    let g = book_graph(16, 3);
    let s = PairSet::all_pairs(16);
    let mut params = Params::paper();
    params.balance_factor = 0.0001; // every draw is unbalanced
    let mut net = Clique::new(16).unwrap();
    let mut rng = StdRng::seed_from_u64(404);
    let err =
        compute_pairs(&g, &s, params, SearchBackend::Quantum, &mut net, &mut rng).unwrap_err();
    assert!(matches!(
        err,
        ApspError::StageAborted {
            stage: "lambda-cover",
            ..
        }
    ));
}

#[test]
fn network_addressing_errors_surface() {
    let mut net = Clique::new(4).unwrap();
    let bad = vec![Envelope::new(NodeId::new(0), NodeId::new(9), 1u64)];
    assert!(matches!(
        net.route(bad),
        Err(CongestError::UnknownNode { .. })
    ));
}

#[test]
fn empty_pair_set_and_empty_graph_compose() {
    let g = UGraph::new(16);
    let s = PairSet::new();
    let mut net = Clique::new(16).unwrap();
    let mut rng = StdRng::seed_from_u64(405);
    let report = compute_pairs(
        &g,
        &s,
        Params::paper(),
        SearchBackend::Quantum,
        &mut net,
        &mut rng,
    )
    .unwrap();
    assert!(report.found.is_empty());
}

#[test]
fn weights_at_the_representational_edge() {
    // ±(2^31)-scale weights exercise the wide wire formats end to end
    let n = 12;
    let big = 1_i64 << 31;
    let mut g = UGraph::new(n);
    g.add_edge(0, 1, -big);
    g.add_edge(0, 2, big / 4);
    g.add_edge(1, 2, big / 4);
    g.add_edge(3, 4, big);
    let s = PairSet::all_pairs(n);
    let mut net = Clique::new(n).unwrap();
    let mut rng = StdRng::seed_from_u64(406);
    let report = compute_pairs(
        &g,
        &s,
        Params::paper(),
        SearchBackend::Classical,
        &mut net,
        &mut rng,
    )
    .unwrap();
    assert_eq!(report.found, reference_find_edges(&g, &s));
}

#[test]
fn fault_plans_naming_absent_nodes_never_index_out_of_bounds() {
    // One plan serves networks of different sizes (the quantum pipeline's
    // virtual network has 3n nodes, its verifier's n): a crash or link
    // beyond this network's nodes is ignored, never an out-of-bounds panic.
    let plan = FaultPlan::parse("crash=9@0,link=7>1:0.5,seed=3").unwrap();
    let mut net = Clique::new(4).unwrap();
    net.set_fault_plan(plan.clone());
    let sends = (1..4)
        .map(|i| Envelope::new(NodeId::new(i), NodeId::new(0), RawBits::new(i as u64, 8)))
        .collect();
    let inboxes = net.exchange(sends).unwrap();
    assert_eq!(
        inboxes.of(NodeId::new(0)).len(),
        3,
        "no node of this network crashed"
    );

    // Through the whole driver. Naive APSP and its verifier run on the
    // 4-node network, where node 9 does not exist: the answer is exact.
    // The quantum pipeline's 12-node virtual network has a node 9, which
    // crashes: a typed crash, not a panic.
    let mut rng = StdRng::seed_from_u64(407);
    let g = generators::random_reweighted_digraph(4, 0.5, 5, &mut rng);
    for algorithm in [
        ApspAlgorithm::NaiveBroadcast,
        ApspAlgorithm::QuantumTriangle,
    ] {
        let cfg = DriverConfig {
            algorithm,
            net: NetConfig::faulty(plan.clone()),
            ..DriverConfig::default()
        };
        match apsp_driver(&g, &cfg, &mut rng, None) {
            Ok(out) => {
                assert_eq!(algorithm, ApspAlgorithm::NaiveBroadcast);
                assert!(out.verified && !out.used_fallback);
                assert_eq!(
                    out.report.distances,
                    floyd_warshall(&g.adjacency_matrix()).unwrap()
                );
            }
            Err(ApspError::Faulted { source, .. }) => {
                assert_eq!(algorithm, ApspAlgorithm::QuantumTriangle);
                assert!(
                    matches!(*source, ApspError::Congest(CongestError::NodeCrashed { node, .. }) if node.index() == 9)
                );
            }
            Err(e) => panic!("{algorithm:?}: {e}"),
        }
    }
}

#[test]
fn the_cli_rejects_fault_nodes_outside_the_network_as_usage_errors() {
    for args in [
        &["apsp", "--n", "4", "--faults", "crash=9@0"][..],
        &["apsp", "--n", "4", "--faults", "link=7>1:0.5"],
        &[
            "apsp",
            "--n",
            "4",
            "--faults",
            "crash=4@0",
            "--transport",
            "gossip",
        ],
        &["diameter", "--n", "4", "--faults", "crash=9@0"],
        &["serve", "--n", "4", "--faults", "crash=9@0"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_qcc"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("outside the 4-node network"),
            "{args:?}: {stderr}"
        );
    }
}
