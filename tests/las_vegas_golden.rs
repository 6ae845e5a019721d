//! Golden pins of the Las-Vegas loop's observable behaviour.
//!
//! Every scenario runs on a lossy network *without* the reliable envelope
//! (`NetConfig { faults, reliable: None }`), so attempts really fail: typed
//! errors, rejected certificates, degraded fallbacks, exhausted budgets.
//! Each pin records the full attempt history, the round totals, the
//! verified/fallback flags, the caller's next RNG draw (the loop must not
//! reorder randomness) and a hash of the NDJSON trace. The strings were
//! captured before the APSP driver, the distance-parameter search stage
//! and gossip APSP shared one loop; a diff here is a behaviour change.

use qcc::algo::{
    apsp_driver, distance_params, gossip_apsp, ApspAlgorithm, DistanceParam, DriverConfig,
    ExtremumBackend, ExtremumConfig, FallbackPolicy, GossipApspConfig,
};
use qcc::congest::{FaultPlan, NetConfig, TopologySpec, TraceSink};
use qcc::graph::floyd_warshall;
use qcc::graph::generators::random_reweighted_digraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Drops at `rate` with no envelope to mask them.
fn lossy(rate: &str, seed: u64) -> NetConfig {
    NetConfig {
        faults: Some(FaultPlan::parse(&format!("drop={rate},seed={seed}")).unwrap()),
        reliable: None,
    }
}

/// FNV-1a 64 of the trace text, with its line count.
fn trace_digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("trace {} lines {h:016x}", text.lines().count())
}

fn driver_pin(seed: u64, cfg: &DriverConfig) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_reweighted_digraph(8, 0.5, 6, &mut rng);
    let (sink, buffer) = TraceSink::in_memory();
    let result = apsp_driver(&g, cfg, &mut rng, Some(&sink));
    sink.flush().unwrap();
    let mut s = String::new();
    match result {
        Ok(out) => {
            for a in &out.attempts {
                writeln!(
                    s,
                    "{} {:?} {} {:?} {:?} {}",
                    a.attempt, a.algorithm, a.rounds, a.verified, a.error, a.fallback
                )
                .unwrap();
            }
            let exact = out.report.distances == floyd_warshall(&g.adjacency_matrix()).unwrap();
            writeln!(
                s,
                "total {} run {} verified {} fallback {} exact {exact}",
                out.total_rounds, out.report.rounds, out.verified, out.used_fallback
            )
            .unwrap();
        }
        Err(e) => writeln!(s, "error {e}").unwrap(),
    }
    writeln!(s, "next draw {:016x}", rng.gen::<u64>()).unwrap();
    s + &trace_digest(&buffer.contents())
}

fn distance_pin(seed: u64, cfg: &ExtremumConfig) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_reweighted_digraph(8, 0.5, 6, &mut rng);
    let (sink, buffer) = TraceSink::in_memory();
    let result = distance_params(&g, cfg, &mut rng, Some(&sink));
    sink.flush().unwrap();
    let mut s = String::new();
    match result {
        Ok(out) => {
            for a in &out.search_attempts {
                writeln!(
                    s,
                    "{} {:?} {} {} {:?} {:?} {}",
                    a.attempt, a.backend, a.rounds, a.evaluations, a.verified, a.error, a.fallback
                )
                .unwrap();
            }
            writeln!(
                s,
                "value {} witness {:?} distance {} search {} total {} evaluations {} \
                 verified {} fallback {}",
                out.value,
                out.witness,
                out.distance_rounds,
                out.search_rounds,
                out.total_rounds,
                out.evaluations,
                out.verified,
                out.used_fallback
            )
            .unwrap();
        }
        Err(e) => writeln!(s, "error {e}").unwrap(),
    }
    writeln!(s, "next draw {:016x}", rng.gen::<u64>()).unwrap();
    s + &trace_digest(&buffer.contents())
}

fn gossip_pin(seed: u64, cfg: &GossipApspConfig) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_reweighted_digraph(8, 0.5, 6, &mut rng);
    let (sink, buffer) = TraceSink::in_memory();
    let result = gossip_apsp(&g, cfg, Some(&sink));
    sink.flush().unwrap();
    let mut s = String::new();
    match result {
        Ok(out) => {
            for a in &out.attempts {
                writeln!(
                    s,
                    "{} {} {:?} {:?}",
                    a.attempt, a.rounds, a.verified, a.error
                )
                .unwrap();
            }
            let exact = out.distances == floyd_warshall(&g.adjacency_matrix()).unwrap();
            writeln!(
                s,
                "total {} run {} verified {} exact {exact} packets {} wasted {} full {} on {}",
                out.total_rounds,
                out.rounds,
                out.verified,
                out.stats.packets_sent,
                out.stats.wasted_packets,
                out.stats.full_nodes,
                out.topology
            )
            .unwrap();
        }
        Err(e) => writeln!(s, "error {e}").unwrap(),
    }
    s + &trace_digest(&buffer.contents())
}

fn driver(algorithm: ApspAlgorithm, net: NetConfig) -> DriverConfig {
    DriverConfig {
        algorithm,
        max_retries: 2,
        net,
        ..DriverConfig::default()
    }
}

fn search(param: DistanceParam, backend: ExtremumBackend, net: NetConfig) -> ExtremumConfig {
    ExtremumConfig {
        algorithm: ApspAlgorithm::NaiveBroadcast,
        backend,
        max_retries: 2,
        net,
        ..ExtremumConfig::new(param)
    }
}

fn gossip(chunks: usize, net: NetConfig, seed: u64) -> GossipApspConfig {
    GossipApspConfig {
        topology: TopologySpec::Ring,
        chunks,
        max_retries: 2,
        net,
        seed,
    }
}

#[track_caller]
fn assert_pin(got: &str, want: &str) {
    assert_eq!(got, want, "\n--- got ---\n{got}\n--- want ---\n{want}");
}

#[test]
fn driver_rejected_certificate_then_verified_attempt() {
    let cfg = driver(ApspAlgorithm::NaiveBroadcast, lossy("0.05", 2));
    assert_pin(
        &driver_pin(2, &cfg),
        "0 NaiveBroadcast 1 Some(false) None false\n\
         1 NaiveBroadcast 22 Some(true) None false\n\
         total 23 run 1 verified true fallback false exact true\n\
         next draw e109e37c988360e1\n\
         trace 57 lines 329f5cbfed9e5bc4",
    );
}

#[test]
fn driver_rejected_certificates_degrade_to_the_fallback() {
    let cfg = driver(ApspAlgorithm::NaiveBroadcast, lossy("0.3", 2));
    assert_pin(
        &driver_pin(2, &cfg),
        "0 NaiveBroadcast 1 Some(false) None false\n\
         1 NaiveBroadcast 1 Some(false) None false\n\
         2 NaiveBroadcast 1 Some(false) None false\n\
         3 SemiringSquaring 355 Some(true) None true\n\
         total 358 run 291 verified true fallback true exact true\n\
         next draw e109e37c988360e1\n\
         trace 845 lines 726028e23cc118ef",
    );
}

#[test]
fn driver_typed_errors_degrade_to_the_fallback() {
    let cfg = driver(ApspAlgorithm::QuantumTriangle, lossy("0.1", 3));
    assert_pin(&driver_pin(3, &cfg),
        "0 QuantumTriangle 423 None Some(\"internal invariant violated: query 5 of 533 went unanswered — messages lost in transit (after charging 423 rounds)\") false\n\
         1 QuantumTriangle 432 None Some(\"internal invariant violated: query 3 of 532 went unanswered — messages lost in transit (after charging 432 rounds)\") false\n\
         2 QuantumTriangle 441 None Some(\"internal invariant violated: query 4 of 531 went unanswered — messages lost in transit (after charging 441 rounds)\") false\n\
         3 SemiringSquaring 116 Some(true) None true\n\
         total 1412 run 84 verified true fallback true exact true\n\
         next draw ba7823bdb7b65ca5\n\
         trace 2244 lines 6caaa90664e89a37",
    );
}

#[test]
fn driver_fail_policy_returns_the_last_typed_error() {
    let cfg = DriverConfig {
        fallback: FallbackPolicy::Fail,
        ..driver(ApspAlgorithm::QuantumTriangle, lossy("0.1", 1))
    };
    assert_pin(&driver_pin(1, &cfg),
        "error internal invariant violated: query 2 of 533 went unanswered — messages lost in transit (after charging 441 rounds)\n\
         next draw efc7ec3647155085\n\
         trace 1997 lines 0b116cc455c81613",
    );
}

#[test]
fn driver_fail_policy_without_errors_reports_verification_failed() {
    let cfg = DriverConfig {
        fallback: FallbackPolicy::Fail,
        ..driver(ApspAlgorithm::NaiveBroadcast, lossy("0.3", 2))
    };
    assert_pin(
        &driver_pin(2, &cfg),
        "error no APSP attempt passed verification after 3 attempts\n\
         next draw e109e37c988360e1\n\
         trace 75 lines c25777937a811fd7",
    );
}

#[test]
fn driver_failed_fallback_maps_to_verification_failed() {
    let cfg = driver(ApspAlgorithm::NaiveBroadcast, lossy("0.6", 1));
    assert_pin(
        &driver_pin(1, &cfg),
        "error no APSP attempt passed verification after 4 attempts\n\
         next draw 9b199e5134403e8f\n\
         trace 597 lines af4570bd49ef18e3",
    );
}

#[test]
fn driver_without_verification_accepts_the_first_matrix() {
    let cfg = DriverConfig {
        verify: false,
        ..driver(ApspAlgorithm::NaiveBroadcast, lossy("0.3", 2))
    };
    assert_pin(
        &driver_pin(2, &cfg),
        "0 NaiveBroadcast 1 None None false\n\
         total 1 run 1 verified false fallback false exact false\n\
         next draw e109e37c988360e1\n\
         trace 25 lines ce7d824753351f2a",
    );
}

#[test]
fn quantum_search_typed_errors_then_a_certified_extremum() {
    let cfg = search(
        DistanceParam::Diameter,
        ExtremumBackend::Quantum,
        lossy("0.1", 2),
    );
    assert_pin(&distance_pin(2, &cfg),
        "0 Quantum 25 0 None Some(\"internal invariant violated: oracle evaluation of node 1 lost on the wire (after charging 25 rounds)\") false\n\
         1 Quantum 39 7 Some(true) None false\n\
         value 12 witness Some(0) distance 29 search 64 total 93 evaluations 7 verified true fallback false\n\
         next draw e10903e16ac62a98\n\
         trace 142 lines e1648049b50f8de1",
    );
}

#[test]
fn quantum_search_degrades_to_the_verified_scan() {
    let cfg = search(
        DistanceParam::Diameter,
        ExtremumBackend::Quantum,
        lossy("0.05", 1),
    );
    assert_pin(&distance_pin(1, &cfg),
        "0 Quantum 12 0 None Some(\"internal invariant violated: oracle evaluation of node 7 lost on the wire (after charging 12 rounds)\") false\n\
         1 Quantum 30 0 None Some(\"internal invariant violated: oracle evaluation of node 3 lost on the wire (after charging 30 rounds)\") false\n\
         2 Quantum 5 0 None Some(\"internal invariant violated: oracle evaluation of node 3 lost on the wire (after charging 5 rounds)\") false\n\
         3 ClassicalScan 27 8 Some(true) None true\n\
         value 9 witness Some(1) distance 17 search 74 total 91 evaluations 8 verified true fallback true\n\
         next draw d8733a942d2b4380\n\
         trace 94 lines eb69a0cefc2bb018",
    );
}

#[test]
fn quantum_search_fail_policy_returns_the_last_typed_error() {
    let cfg = ExtremumConfig {
        fallback: FallbackPolicy::Fail,
        ..search(
            DistanceParam::Diameter,
            ExtremumBackend::Quantum,
            lossy("0.05", 1),
        )
    };
    assert_pin(&distance_pin(1, &cfg),
        "error internal invariant violated: oracle evaluation of node 3 lost on the wire (after charging 5 rounds)\n\
         next draw d8733a942d2b4380\n\
         trace 72 lines 950cd4ae611e9a98",
    );
}

#[test]
fn scan_search_degrades_to_its_fallback() {
    let cfg = search(
        DistanceParam::Radius,
        ExtremumBackend::ClassicalScan,
        lossy("0.3", 2),
    );
    assert_pin(&distance_pin(2, &cfg),
        "0 ClassicalScan 3 0 None Some(\"internal invariant violated: classical scan lost 1 of 8 values on the wire (after charging 3 rounds)\") false\n\
         1 ClassicalScan 3 0 None Some(\"internal invariant violated: classical scan lost 3 of 8 values on the wire (after charging 3 rounds)\") false\n\
         2 ClassicalScan 3 0 None Some(\"internal invariant violated: classical scan lost 3 of 8 values on the wire (after charging 3 rounds)\") false\n\
         3 ClassicalScan 113 8 Some(true) None true\n\
         value 4 witness Some(6) distance 358 search 122 total 480 evaluations 8 verified true fallback true\n\
         next draw e109e37c988360e1\n\
         trace 963 lines 00eeabd871590583",
    );
}

#[test]
fn eccentricity_gather_degrades_to_its_fallback() {
    let cfg = search(
        DistanceParam::Eccentricities,
        ExtremumBackend::Quantum,
        lossy("0.3", 2),
    );
    assert_pin(&distance_pin(2, &cfg),
        "0 Quantum 3 0 None Some(\"internal invariant violated: eccentricity gather lost 1 of 8 values on the wire (after charging 3 rounds)\") false\n\
         1 Quantum 3 0 None Some(\"internal invariant violated: eccentricity gather lost 3 of 8 values on the wire (after charging 3 rounds)\") false\n\
         2 Quantum 3 0 None Some(\"internal invariant violated: eccentricity gather lost 3 of 8 values on the wire (after charging 3 rounds)\") false\n\
         3 ClassicalScan 29 8 None None true\n\
         value 12 witness None distance 358 search 38 total 396 evaluations 8 verified true fallback true\n\
         next draw e109e37c988360e1\n\
         trace 896 lines efe5a30e1b8eb20c",
    );
}

#[test]
fn unverified_search_accepts_its_first_claim() {
    let cfg = ExtremumConfig {
        verify: false,
        ..search(
            DistanceParam::Diameter,
            ExtremumBackend::Quantum,
            lossy("0.1", 2),
        )
    };
    assert_pin(&distance_pin(2, &cfg),
        "0 Quantum 30 0 None Some(\"internal invariant violated: oracle evaluation of node 1 lost on the wire (after charging 30 rounds)\") false\n\
         1 Quantum 9 1 None None false\n\
         value inf witness Some(5) distance 1 search 39 total 40 evaluations 1 verified false fallback false\n\
         next draw 77283c1ccceb2a9c\n\
         trace 41 lines 1af73ff84bbbd9bd",
    );
}

#[test]
fn distance_stage_failure_reports_verification_failed() {
    let cfg = search(
        DistanceParam::Radius,
        ExtremumBackend::ClassicalScan,
        lossy("0.6", 1),
    );
    assert_pin(
        &distance_pin(1, &cfg),
        "error no APSP attempt passed verification after 4 attempts\n\
         next draw 9b199e5134403e8f\n\
         trace 599 lines b896ae80289b79c2",
    );
}

#[test]
fn coded_gossip_survives_heavy_loss() {
    assert_pin(
        &gossip_pin(1, &gossip(0, lossy("0.9", 1), 1)),
        "0 2529 Some(true) None\n\
         total 2529 run 2529 verified true exact true packets 11254 wasted 676 full 8 on ring\n\
         trace 10991 lines 3234760d59b17a7b",
    );
}

#[test]
fn coded_gossip_retries_a_decode_failure() {
    assert_pin(&gossip_pin(5, &gossip(0, lossy("0.91", 5), 5)),
        "0 408 None Some(\"network error: coded gossip failed in phase \\\"gossip-apsp-0\\\": 4 node(s) could not decode after 408 rounds\")\n\
         1 2718 Some(true) None\n\
         total 3126 run 2718 verified true exact true packets 12050 wasted 645 full 8 on ring\n\
         trace 13716 lines adea18836744d471",
    );
}

#[test]
fn flooding_gossip_retries_twice() {
    assert_pin(&gossip_pin(2, &gossip(1, lossy("0.94", 2), 2)),
        "0 1620 None Some(\"network error: coded gossip failed in phase \\\"gossip-apsp-0\\\": 1 node(s) could not decode after 960 rounds\")\n\
         1 2964 None Some(\"network error: coded gossip failed in phase \\\"gossip-apsp-1\\\": 1 node(s) could not decode after 960 rounds\")\n\
         2 4668 Some(true) None\n\
         total 9252 run 4668 verified true exact true packets 3520 wasted 166 full 8 on ring\n\
         trace 7197 lines 87c3450df2d8ad02",
    );
}

#[test]
fn flooding_gossip_exhausts_its_attempts() {
    assert_pin(&gossip_pin(1, &gossip(1, lossy("0.95", 1), 1)),
        "error network error: coded gossip failed in phase \"gossip-apsp-2\": 1 node(s) could not decode after 960 rounds\n\
         trace 3742 lines e2130e1bc78ffb3a",
    );
}
