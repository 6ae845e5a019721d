//! Differential tests for the stream-charged Lemma-1 route.
//!
//! On a transparent network the Step-1 gather and both Step-2 weight-loading
//! legs are charged from their `(src, dst, bits)` message streams through
//! [`Clique::charge_route_stream`] instead of routing materialized
//! envelopes, and the König relay maximum of a repeated schedule comes from
//! a per-network memo. These tests pin both against the materialized
//! [`Clique::route`]: first on random raw streams (memo hits, misses and
//! evictions, below and above [`EXPLICIT_SCHEDULE_LIMIT`]), then on the
//! real weight-loading pipeline, where a network carrying a
//! reliable-delivery configuration but no fault plan is exact yet not
//! transparent, and so takes the materialized path.

use qcc::algo::gather::{gather_weights, GatheredWeights};
use qcc::algo::lambda::{build_deterministic_cover, build_lambda_cover, LambdaAttempt};
use qcc::algo::{Instance, PairSet, Params, Wire};
use qcc::congest::{
    Clique, Envelope, NodeId, PhaseStats, ReliableConfig, TraceBuffer, TraceSink,
    EXPLICIT_SCHEDULE_LIMIT,
};
use qcc::graph::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A network with an in-memory NDJSON trace attached.
fn traced(n: usize) -> (Clique, TraceBuffer) {
    let mut net = Clique::new(n).unwrap();
    let (sink, buffer) = TraceSink::in_memory();
    net.set_trace_sink(sink);
    (net, buffer)
}

/// One route's traffic: `(src, dst)` pairs in submission order, all of
/// one width.
#[derive(Clone, Debug)]
struct Stream {
    pairs: Vec<(usize, usize)>,
    bits: u64,
}

impl Stream {
    fn random(rng: &mut StdRng, n: usize, len: usize, bits: u64) -> Self {
        let pairs = (0..len)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        Stream { pairs, bits }
    }

    fn units(&self, bandwidth: u64) -> usize {
        let k = self.bits.div_ceil(bandwidth).max(1) as usize;
        self.pairs.iter().filter(|(s, d)| s != d).count() * k
    }

    fn envelopes(&self) -> Vec<Envelope<Wire<()>>> {
        self.pairs
            .iter()
            .map(|&(s, d)| Envelope::new(NodeId::new(s), NodeId::new(d), Wire::new((), self.bits)))
            .collect()
    }
}

/// The last phase's statistics of a fresh network routing `stream`: a
/// reference that never consults a memo.
fn fresh_route_stats(n: usize, stream: &Stream) -> PhaseStats {
    let mut net = Clique::new(n).unwrap();
    net.begin_phase("leg");
    net.route(stream.envelopes()).unwrap();
    net.metrics().phases()[0].clone()
}

#[test]
fn stream_charge_matches_materialized_route() {
    let mut rng = StdRng::seed_from_u64(0x57EA);
    for n in [5usize, 16, 27] {
        let b = Clique::new(n).unwrap().bandwidth_bits();
        let a = Stream::random(&mut rng, n, 300, b / 2);
        let c = Stream::random(&mut rng, n, 900, b + 1);
        // Same length and width as `c`, one destination moved.
        let mut c_twin = c.clone();
        let last = c_twin.pairs.len() - 1;
        let (s, d) = c_twin.pairs[last];
        c_twin.pairs[last] = (s, (d + 1) % n);
        // Two unit lists of equal length whose relay maxima differ, so a memo
        // that confused them would record a wrong maximum.
        let hot = Stream {
            pairs: vec![(0, 1); 2 * n],
            bits: b,
        };
        let spread = Stream {
            pairs: (0..2 * n).map(|i| (i % n, (i + 1) % n)).collect(),
            bits: b,
        };
        assert_eq!(hot.units(b), spread.units(b));
        assert_ne!(
            fresh_route_stats(n, &hot).max_link_bits,
            fresh_route_stats(n, &spread).max_link_bits
        );
        let mut schedule = vec![
            hot,
            spread,
            a.clone(),
            Stream::random(&mut rng, n, 500, 3 * b),
            // Hit.
            a.clone(),
            c.clone(),
            // Equal length, different list: miss.
            c_twin,
            // Hit.
            c.clone(),
            // Zero-bit messages still take one unit each.
            Stream::random(&mut rng, n, 40, 0),
            Stream::random(&mut rng, n, 700, 1),
            Stream::random(&mut rng, n, 60, 2 * b),
            // Four other lists since its last use evicted it: miss.
            a.clone(),
            Stream::random(&mut rng, n, 0, b),
        ];
        // Past the explicit-schedule limit: the degree bound is recorded.
        let big = Stream::random(&mut rng, n, EXPLICIT_SCHEDULE_LIMIT / 2, 3 * b);
        assert!(big.units(b) > EXPLICIT_SCHEDULE_LIMIT);
        schedule.push(big);
        schedule.push(a.clone());
        // Random widths and lengths, interleaved with repeats.
        for i in 0..6 {
            let len = rng.gen_range(1..400);
            let bits = rng.gen_range(0..4 * b);
            schedule.push(Stream::random(&mut rng, n, len, bits));
            schedule.push(if i % 2 == 0 { a.clone() } else { c.clone() });
        }

        let (mut charged, charged_trace) = traced(n);
        let (mut materialized, materialized_trace) = traced(n);
        for (i, stream) in schedule.iter().enumerate() {
            let label = format!("leg{i}");
            charged.begin_phase(&label);
            let rounds =
                charged.charge_route_stream(stream.pairs.iter().map(|&(s, d)| (s, d, stream.bits)));
            materialized.begin_phase(&label);
            materialized.route(stream.envelopes()).unwrap();

            let stats = &charged.metrics().phases()[i];
            assert_eq!(stats.rounds, rounds, "n={n} leg {i}");
            let reference = fresh_route_stats(n, stream);
            assert_eq!(
                (stats.rounds, stats.messages, stats.bits),
                (reference.rounds, reference.messages, reference.bits),
                "n={n} leg {i}"
            );
            assert_eq!(
                (
                    stats.max_link_bits,
                    stats.max_node_out_bits,
                    stats.max_node_in_bits
                ),
                (
                    reference.max_link_bits,
                    reference.max_node_out_bits,
                    reference.max_node_in_bits
                ),
                "n={n} leg {i}"
            );
        }
        assert_eq!(charged.rounds(), materialized.rounds());
        assert_eq!(charged.metrics().phases(), materialized.metrics().phases());
        charged.close_all_spans();
        materialized.close_all_spans();
        assert_eq!(
            charged_trace.contents(),
            materialized_trace.contents(),
            "n={n}: NDJSON comm events differ"
        );
    }
}

#[test]
#[should_panic(expected = "transparent")]
fn stream_charge_refuses_a_non_transparent_network() {
    let mut net = Clique::new(4).unwrap();
    net.set_reliable_delivery(ReliableConfig::default());
    net.charge_route_stream([(0, 1, 8)]);
}

/// Every entry of the gathered Step-1 tables, in label order.
fn table_entries(inst: &Instance<'_>, gathered: &GatheredWeights) -> Vec<Option<i64>> {
    let mut out = Vec::new();
    for (label, (bu, bv, bw)) in inst.triples.triples() {
        for w in inst.parts.fine.block(bw) {
            for u in inst.parts.coarse.block(bu) {
                out.push(gathered.f_uw(inst, label, u, w));
            }
            for v in inst.parts.coarse.block(bv) {
                out.push(gathered.f_wv(inst, label, w, v));
            }
        }
    }
    out
}

/// Kept pairs `(u, v, weight)` per search label.
type Kept = Vec<Vec<(usize, usize, i64)>>;
/// Sampled pairs per search label.
type Sampled = Vec<Vec<(usize, usize)>>;

/// What one network saw: gathered tables, the randomized cover (or the
/// label it aborted on), the deterministic cover, phase statistics and the
/// NDJSON trace.
#[derive(Debug, PartialEq)]
struct Observed {
    tables: Vec<Option<i64>>,
    random_cover: Result<(Kept, Sampled), usize>,
    deterministic_kept: Kept,
    deterministic_sampled: Sampled,
    rounds: u64,
    phases: Vec<PhaseStats>,
    trace: String,
}

fn flatten(kept: &[Vec<qcc::algo::lambda::KeptPair>]) -> Kept {
    kept.iter()
        .map(|list| list.iter().map(|kp| (kp.u, kp.v, kp.weight)).collect())
        .collect()
}

fn observe(inst: &Instance<'_>, reliable: bool, cover_seed: u64) -> Observed {
    let (mut net, trace) = traced(inst.n());
    if reliable {
        // No fault plan: delivery stays exact, but the network is no longer
        // transparent, so every charge-only shortcut is off.
        net.set_reliable_delivery(ReliableConfig::default());
    }
    assert_eq!(net.is_transparent(), !reliable);
    let gathered = gather_weights(inst, &mut net).unwrap();
    let mut rng = StdRng::seed_from_u64(cover_seed);
    let random_cover = match build_lambda_cover(inst, &mut net, &mut rng).unwrap() {
        LambdaAttempt::Balanced(cover) => Ok((flatten(&cover.kept), cover.sampled)),
        LambdaAttempt::Aborted { label, .. } => Err(label),
    };
    let det = build_deterministic_cover(inst, &mut net).unwrap();
    net.close_all_spans();
    Observed {
        tables: table_entries(inst, &gathered),
        random_cover,
        deterministic_kept: flatten(&det.kept),
        deterministic_sampled: det.sampled,
        rounds: net.rounds(),
        phases: net.metrics().phases().to_vec(),
        trace: trace.contents(),
    }
}

#[test]
fn weight_loading_matches_materialized_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(0x10AD);
    for n in [16usize, 27] {
        for _ in 0..2 {
            let density = rng.gen_range(0.3..0.9);
            let g = generators::random_ugraph(n, density, 6, &mut rng);
            let mut s = PairSet::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.7) {
                        s.insert(u, v);
                    }
                }
            }
            let inst = Instance::new(&g, &s, Params::scaled());
            let cover_seed = rng.gen();
            let charged = observe(&inst, false, cover_seed);
            let materialized = observe(&inst, true, cover_seed);
            assert!(charged.rounds > 0);
            assert!(charged.random_cover.is_ok(), "n={n}: cover aborted");
            assert_eq!(charged, materialized, "n={n} seed {cover_seed}");
        }
    }
}
