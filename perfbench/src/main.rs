//! The repository's benchmark: four seeded workloads over the simulator's
//! public API, every answer checked against Floyd–Warshall, and one JSON
//! result line. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload e1-quantum --seed 225 --seconds 20 --trace 0
//! ```
//!
//! Exit codes: 0 all answers correct, 1 a wrong answer (the result line
//! then reads `"correct":false`), 2 a usage error.

mod layers;

use layers::{LayerProfile, StampedWriter};
use qcc_apsp::{
    apsp_driver, apsp_traced, semiring_apsp_traced, ApspAlgorithm, DriverConfig, EdgeChange,
    EngineConfig, FallbackPolicy, LoadPlan, Params, QueryEngine, ServeRequest, ServeStats,
};
use qcc_congest::{FaultPlan, NetConfig, TraceSink};
use qcc_graph::{
    delta_repair_candidate, distance_product_with_threads, floyd_warshall_with_threads,
    min_plus_fixpoint_certificate, random_reweighted_digraph, sssp_row_with_parents, DiGraph,
    EdgeDelta, ExtWeight, NegativeCycleError, WeightMatrix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Worker count for every timed host kernel, capped by the host's cores. It is
/// passed explicitly where the API takes one and exported as
/// `QCC_THREADS` for the kernels that resolve their own (the serve path
/// and the driver's certificate), so the caller's environment never
/// decides it. One worker: on a small shared host, a second worker makes
/// every barrier wait for the busiest core, which timed the neighbours'
/// load rather than the program (serve read p99 rose 3.5x under one
/// competing process at two workers and not at one).
const PINNED_THREADS: usize = 1;
/// Edge density and weight bound of the E1 generator.
const DENSITY: f64 = 0.5;
const W_MAX: u64 = 8;
/// Set-ups per serve run; `setup_s` and the serve `solve_s` are their
/// medians.
const SETUP_REPS: usize = 10;
/// Drop rate of the lossy workload's fault plan.
const LOSSY_DROP: f64 = 0.05;
/// Requests per serve batch.
const BATCH: usize = 64;
/// Per-batch chance of one single-edge decrease (≈0.1% of requests) and
/// of one single-edge increase (≈0.03%).
const P_DECREASE: f64 = BATCH as f64 * 0.001;
const P_INCREASE: f64 = BATCH as f64 * 0.0003;
/// Share of reads that ask for an explicit path instead of a distance.
const P_PATH: f64 = 0.1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    E1Quantum,
    LossyQuantum,
    SemiringRoute,
    ServeMixed,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("e1-quantum", Workload::E1Quantum),
        ("lossy-quantum", Workload::LossyQuantum),
        ("semiring-route", Workload::SemiringRoute),
        ("serve-mixed", Workload::ServeMixed),
    ];

    /// Distinct seeded instances per run: the APSP workloads average over
    /// several because charged rounds and solve time vary from instance to
    /// instance by more than the bounds allow.
    fn instances(self) -> usize {
        match self {
            Workload::E1Quantum => 5,
            Workload::LossyQuantum => 6,
            Workload::SemiringRoute => 4,
            Workload::ServeMixed => 1,
        }
    }

    fn n(self) -> usize {
        match self {
            Workload::E1Quantum => 27,
            Workload::LossyQuantum => 16,
            Workload::SemiringRoute => 256,
            Workload::ServeMixed => 128,
        }
    }
}

struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|(name, _)| *name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A run's verdict: `Err` means a wrong answer, which aborts the run.
type Checked<T> = Result<T, String>;

/// What one run reports: the result line's fields.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload e1-quantum|lossy-quantum|semiring-route|serve-mixed \
                 --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = PINNED_THREADS.min(host);
    std::env::set_var("QCC_THREADS", threads.to_string());
    println!(
        "{{\"workload\":\"{}\",\"n\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{threads},\
         \"host_available_parallelism\":{host}}}",
        args.name,
        args.workload.n(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let bench = Bench {
        workload: args.workload,
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        threads,
    };
    let result = match (args.workload, args.trace) {
        (Workload::ServeMixed, false) => bench.serve(),
        (Workload::ServeMixed, true) => bench.serve_traced(),
        (_, false) => bench.solves(),
        (_, true) => bench.solves_traced(),
    };
    match result {
        Ok(report) => {
            println!("{}", result_line(true, &report));
            ExitCode::SUCCESS
        }
        Err(wrong) => {
            eprintln!("perfbench: WRONG ANSWER: {wrong}");
            let report = Report {
                attempted: 1,
                failed: 0,
                metrics: Vec::new(),
            };
            println!("{}", result_line(false, &report));
            ExitCode::from(1)
        }
    }
}

fn result_line(correct: bool, r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// A workload's seeded input plus the oracle answer.
struct Instance {
    seed: u64,
    graph: DiGraph,
    reference: WeightMatrix,
    /// Generator state right after the graph was drawn: every solve starts
    /// from a clone, so its charged rounds repeat exactly.
    rng: StdRng,
}

/// The outcome of one solve: distances and charged rounds.
type Solved = (WeightMatrix, u64);

/// Per-instance record of the verified solves of one run.
#[derive(Clone, Default)]
struct Samples {
    seconds: Vec<f64>,
    rounds: Option<u64>,
}

struct Bench {
    workload: Workload,
    seed: u64,
    budget: Duration,
    threads: usize,
}

impl Bench {
    fn params(&self) -> Params {
        Params {
            threads: Some(self.threads),
            ..Params::scaled()
        }
    }

    /// Instance `k` of the run. Instance 0 is drawn from the run's seed
    /// itself, exactly as `tests/accounting.rs` draws the pinned E1 run.
    fn instance(&self, k: usize) -> Instance {
        let seed = self
            .seed
            .wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_reweighted_digraph(self.workload.n(), DENSITY, W_MAX, &mut rng);
        let reference = oracle(&graph).expect("reweighted digraphs have no negative cycle");
        Instance {
            seed,
            graph,
            reference,
            rng,
        }
    }

    fn driver_config(&self, algorithm: ApspAlgorithm, net: NetConfig) -> DriverConfig {
        DriverConfig {
            algorithm,
            params: self.params(),
            max_retries: 3,
            verify: true,
            fallback: FallbackPolicy::Semiring,
            net,
        }
    }

    /// One APSP solve of the workload's pipeline; `Err` is a typed error.
    fn solve(&self, inst: &Instance, trace: Option<&TraceSink>) -> Result<Solved, String> {
        let mut rng = inst.rng.clone();
        let g = &inst.graph;
        let out = match self.workload {
            Workload::E1Quantum => apsp_traced(
                g,
                self.params(),
                ApspAlgorithm::QuantumTriangle,
                &mut rng,
                trace,
            )
            .map(|r| (r.distances, r.rounds)),
            Workload::LossyQuantum => {
                let plan = FaultPlan {
                    drop_rate: LOSSY_DROP,
                    seed: inst.seed ^ 0x1055_f417,
                    ..FaultPlan::default()
                };
                let cfg =
                    self.driver_config(ApspAlgorithm::QuantumTriangle, NetConfig::faulty(plan));
                apsp_driver(g, &cfg, &mut rng, trace).map(|r| (r.report.distances, r.total_rounds))
            }
            Workload::SemiringRoute => {
                semiring_apsp_traced(g, self.threads, trace).map(|r| (r.distances, r.rounds))
            }
            Workload::ServeMixed => unreachable!("serve-mixed does not run bare solves"),
        };
        out.map_err(|e| e.to_string())
    }

    /// Set-up of an APSP run, timed once: the instances with their
    /// oracles, then one checked warm-up solve of instance 0. Without the
    /// warm-up, set-up takes well under a millisecond on the small
    /// workloads and its median drifts by more than the bound between
    /// runs. Returns the seconds, the instances and the warm-up's rounds.
    fn setup(&self, counts: &mut Counts) -> Checked<(f64, Vec<Instance>, Option<u64>)> {
        let t = Instant::now();
        let insts: Vec<Instance> = (0..self.workload.instances())
            .map(|k| self.instance(k))
            .collect();
        let mut rounds = None;
        counts.check_solve(self.solve(&insts[0], None), &insts[0], &mut rounds)?;
        Ok((t.elapsed().as_secs_f64(), insts, rounds))
    }

    /// Cycles through the instances, calling `step` once per instance per
    /// cycle: always one full cycle, then more while the next call is
    /// expected to end within the budget.
    fn cycle(
        &self,
        insts: &[Instance],
        mut step: impl FnMut(usize, &Instance) -> Checked<()>,
    ) -> Checked<()> {
        let start = Instant::now();
        let mut last = vec![Duration::ZERO; insts.len()];
        for round in 0.. {
            for (k, inst) in insts.iter().enumerate() {
                if round > 0 && start.elapsed() + last[k] > self.budget {
                    return Ok(());
                }
                let t = Instant::now();
                step(k, inst)?;
                last[k] = t.elapsed();
            }
        }
        unreachable!("the loop above only ends by returning")
    }

    /// Untraced APSP workload: verified solves of every instance in turn
    /// until the budget is spent.
    fn solves(&self) -> Checked<Report> {
        let mut counts = Counts::default();
        let (setup_s, insts, warm_rounds) = self.setup(&mut counts)?;
        let mut samples = vec![Samples::default(); insts.len()];
        samples[0].rounds = warm_rounds;
        self.cycle(&insts, |k, inst| {
            let t = Instant::now();
            let out = self.solve(inst, None);
            let dt = t.elapsed().as_secs_f64();
            if counts
                .check_solve(out, inst, &mut samples[k].rounds)?
                .is_some()
            {
                samples[k].seconds.push(dt);
            }
            Ok(())
        })?;
        if samples.iter().any(|s| s.seconds.is_empty()) {
            return Err("an instance had no successful solve, so nothing was verified".into());
        }
        let mean =
            |f: &dyn Fn(&Samples) -> f64| samples.iter().map(f).sum::<f64>() / samples.len() as f64;
        let solve_s = mean(&|s| median(&s.seconds));
        let rounds = mean(&|s| s.rounds.expect("a solve succeeded") as f64);
        let all: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.seconds.iter().copied())
            .collect();
        for (inst, s) in insts.iter().zip(&samples) {
            eprintln!(
                "perfbench: instance seed {}: {} verified solves, median {:.3} s, {} charged rounds",
                inst.seed,
                s.seconds.len(),
                median(&s.seconds),
                s.rounds.expect("a solve succeeded")
            );
        }
        Ok(counts.report(vec![
            ("setup_s", setup_s, "s"),
            ("solve_s", solve_s, "s"),
            ("charged_rounds", rounds, "rounds"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            (
                "serve_qps",
                all.len() as f64 / all.iter().sum::<f64>(),
                "1/s",
            ),
            ("read_p50_us", median(&all) * 1e6, "us"),
            ("read_p99_us", p99(&all) * 1e6, "us"),
            ("update_p50_ms", median(&all) * 1e3, "ms"),
        ]))
    }

    /// Traced APSP workload: an untraced and a traced solve of each
    /// instance in turn, so the per-layer figures and the tracing overhead
    /// come from one run.
    fn solves_traced(&self) -> Checked<Report> {
        let mut counts = Counts::default();
        let (_, insts, warm_rounds) = self.setup(&mut counts)?;
        let (mut plain, mut traced) = (0.0, 0.0);
        let mut profiles = Vec::new();
        let mut rounds = vec![None; insts.len()];
        rounds[0] = warm_rounds;
        self.cycle(&insts, |k, inst| {
            let t = Instant::now();
            let out = self.solve(inst, None);
            let dt_plain = t.elapsed().as_secs_f64();
            counts.check_solve(out, inst, &mut rounds[k])?;

            let (out, dt, profile) = traced_call(|sink| self.solve(inst, Some(sink)))?;
            if let Some(r) = counts.check_solve(out, inst, &mut rounds[k])? {
                if profile.rounds != r {
                    return Err(format!(
                        "trace charges {} rounds, the solve reported {r}",
                        profile.rounds
                    ));
                }
            }
            plain += dt_plain;
            traced += dt;
            profiles.push(profile);
            Ok(())
        })?;
        let kernels = host_kernels(&insts[0].graph, &insts[0].reference, self.threads)?;
        let mut metrics = layer_metrics(&profiles, traced / plain);
        metrics.extend(serve_metrics(&ServeStats::default(), 0));
        metrics.extend(kernels);
        Ok(counts.report(metrics))
    }

    fn serve_config(&self) -> EngineConfig {
        EngineConfig {
            plan: LoadPlan::Driver(Box::new(
                self.driver_config(ApspAlgorithm::SemiringSquaring, NetConfig::default()),
            )),
            params: self.params(),
            row_cache: None,
        }
    }

    /// One serve set-up: the instance, then the engine's load solve,
    /// checked entry by entry. Returns the load seconds too.
    fn serve_setup(&self, trace: Option<&TraceSink>) -> Checked<(Instance, QueryEngine, f64)> {
        let inst = self.instance(0);
        let t = Instant::now();
        let engine = QueryEngine::load(
            inst.graph.clone(),
            &self.serve_config(),
            &mut inst.rng.clone(),
            trace,
        );
        let load_s = t.elapsed().as_secs_f64();
        let mut engine = engine.map_err(|e| format!("engine load failed: {e}"))?;
        check_engine(&mut engine, &inst.reference)?;
        Ok((inst, engine, load_s))
    }

    /// Untraced serve workload: load, then a closed loop of batches. The
    /// other set-ups are spread evenly over the loop, so their median
    /// samples the host across the whole run rather than its first second.
    fn serve(&self) -> Checked<Report> {
        let (mut setups, mut loads) = (Vec::new(), Vec::new());
        let mut set_up = || {
            let t = Instant::now();
            let (inst, engine, load_s) = self.serve_setup(None)?;
            setups.push(t.elapsed().as_secs_f64());
            loads.push(load_s);
            Ok::<_, String>((inst, engine))
        };
        let (inst, mut engine) = set_up()?;
        let rounds = engine.load_report().rounds;
        let lat = self.serve_loop(&mut engine, inst, &mut || {
            let (_, other) = set_up()?;
            if other.load_report().rounds != rounds {
                return Err("load rounds differ between identical set-ups".into());
            }
            Ok(())
        })?;
        let reads: u64 = lat.reads.iter().map(|&(_, k)| k).sum();
        if reads == 0 || lat.updates.is_empty() {
            return Err("the serve loop completed no reads or no updates".into());
        }
        let requests = (reads as usize + lat.updates.len()) as f64;
        Ok(lat.counts.report(vec![
            ("setup_s", median(&setups), "s"),
            ("solve_s", median(&loads), "s"),
            ("charged_rounds", rounds as f64, "rounds"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("serve_qps", requests / lat.busy, "1/s"),
            ("read_p50_us", weighted_rank(&lat.reads, 0.5) * 1e6, "us"),
            ("read_p99_us", weighted_rank(&lat.reads, 0.99) * 1e6, "us"),
            ("update_p50_ms", median(&lat.updates) * 1e3, "ms"),
        ]))
    }

    /// Traced serve workload: untraced and traced loads alternate, then
    /// the serving loop runs for the counters of `ServeStats`.
    fn serve_traced(&self) -> Checked<Report> {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut profiles = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let (_, _, load_s) = self.serve_setup(None)?;
            plain.push(load_s);
            let (out, _, profile) = traced_call(|sink| self.serve_setup(Some(sink)))?;
            let (inst, engine, load_s) = out?;
            if profile.rounds != engine.load_report().rounds {
                return Err(format!(
                    "trace charges {} rounds, the load reported {}",
                    profile.rounds,
                    engine.load_report().rounds
                ));
            }
            traced.push(load_s);
            profiles.push(profile);
            last = Some((inst, engine));
        }
        let (inst, mut engine) = last.expect("SETUP_REPS > 0");
        let kernels = host_kernels(&inst.graph, &inst.reference, self.threads)?;
        let lat = self.serve_loop(&mut engine, inst, &mut || Ok(()))?;
        let mut metrics = layer_metrics(&profiles, median(&traced) / median(&plain));
        metrics.extend(serve_metrics(engine.stats(), lat.decreases));
        metrics.extend(kernels);
        Ok(lat.counts.report(metrics))
    }

    /// The closed loop: one client sends a batch, waits for all of its
    /// responses, checks them, and sends the next, until the budget is
    /// spent. A read's latency is its batch's wall time. `pause` runs
    /// `SETUP_REPS - 1` times, evenly spaced; its time does not count
    /// toward the budget.
    fn serve_loop(
        &self,
        engine: &mut QueryEngine,
        inst: Instance,
        pause: &mut dyn FnMut() -> Checked<()>,
    ) -> Checked<Latencies> {
        let Instance {
            graph: mut mirror,
            mut reference,
            ..
        } = inst;
        let n = mirror.n();
        let arcs: Vec<(usize, usize)> = mirror.arcs().map(|(u, v, _)| (u, v)).collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5e7e_0000);
        let mut lat = Latencies::default();
        let slice = self.budget / SETUP_REPS as u32;
        let (mut next_pause, mut paused) = (slice, Duration::ZERO);
        let start = Instant::now();
        while start.elapsed() - paused < self.budget {
            if start.elapsed() - paused >= next_pause {
                let t = Instant::now();
                pause()?;
                paused += t.elapsed();
                next_pause += slice;
            }
            let mut batch: Vec<Result<ServeRequest, String>> = (0..BATCH)
                .map(|_| {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    Ok(if rng.gen::<f64>() < P_PATH {
                        ServeRequest::Path { id: None, u, v }
                    } else {
                        ServeRequest::Dist { id: None, u, v }
                    })
                })
                .collect();
            let r = rng.gen::<f64>();
            let change = if r < P_DECREASE {
                safe_decrease(&mirror, &reference, &arcs, &mut rng)
            } else if r < P_DECREASE + P_INCREASE {
                let (u, v) = arcs[rng.gen_range(0..arcs.len())];
                let w = mirror
                    .weight(u, v)
                    .finite()
                    .expect("arcs are never removed");
                Some(EdgeChange {
                    u,
                    v,
                    weight: Some(w + 1),
                })
            } else {
                None
            };
            let at = rng.gen_range(0..BATCH);
            if let Some(c) = change {
                batch[at] = Ok(ServeRequest::Update {
                    id: None,
                    changes: vec![c],
                });
            }

            let t = Instant::now();
            let out = engine.answer_batch(&batch);
            let dt = t.elapsed().as_secs_f64();
            lat.busy += dt;

            let mut after = None;
            if let Some(c) = change {
                lat.counts.attempted += 1;
                lat.updates.push(dt);
                if out.responses[at].starts_with("{\"ok\":true") {
                    let mut g = mirror.clone();
                    g.add_arc(c.u, c.v, c.weight.expect("changes set weights"));
                    let d = oracle(&g)
                        .map_err(|_| "the engine accepted an update that makes a negative cycle")?;
                    if c.weight < mirror.weight(c.u, c.v).finite() {
                        lat.decreases += 1;
                    }
                    after = Some((g, d));
                } else {
                    lat.counts.failed += 1;
                }
            }
            let mut reads = 0;
            for (k, (req, resp)) in batch.iter().zip(&out.responses).enumerate() {
                let (g, d) = match &after {
                    Some((g, d)) if k > at => (g, d),
                    _ => (&mirror, &reference),
                };
                match req {
                    Ok(ServeRequest::Dist { u, v, .. }) => {
                        reads += 1;
                        check_dist(resp, d[(*u, *v)])?;
                    }
                    Ok(ServeRequest::Path { u, v, .. }) => {
                        reads += 1;
                        check_path(resp, *u, *v, d[(*u, *v)], g)?;
                    }
                    _ => {}
                }
            }
            lat.counts.attempted += reads;
            lat.reads.push((dt, reads));
            if let Some((g, d)) = after {
                mirror = g;
                reference = d;
            }
        }
        check_engine(engine, &reference)?;
        Ok(lat)
    }
}

/// Operations attempted and typed errors, shared by every workload.
#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

impl Counts {
    /// Counts one solve and checks its answer: `Ok(None)` for a typed
    /// error, `Ok(Some(rounds))` for a verified solve, `Err` for a wrong
    /// matrix or charged rounds that moved between identical solves.
    fn check_solve(
        &mut self,
        out: Result<Solved, String>,
        inst: &Instance,
        rounds: &mut Option<u64>,
    ) -> Checked<Option<u64>> {
        self.attempted += 1;
        match out {
            Err(e) => {
                eprintln!("perfbench: typed error: {e}");
                self.failed += 1;
                Ok(None)
            }
            Ok((d, r)) => {
                if d != inst.reference {
                    return Err("solve disagrees with Floyd–Warshall".into());
                }
                if rounds.is_some_and(|first| first != r) {
                    return Err(format!(
                        "charged rounds moved between identical solves: {r}"
                    ));
                }
                *rounds = Some(r);
                Ok(Some(r))
            }
        }
    }

    fn report(self, metrics: Vec<(&'static str, f64, &'static str)>) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

#[derive(Default)]
struct Latencies {
    counts: Counts,
    /// Per batch: its wall seconds, which is the latency of each of its
    /// reads, and its read count. One entry per batch keeps the record's
    /// size, and so `peak_rss_mb`, independent of the throughput.
    reads: Vec<(f64, u64)>,
    /// Seconds per update request (its batch's wall).
    updates: Vec<f64>,
    /// Seconds spent inside `answer_batch`.
    busy: f64,
    /// Decrease updates the engine accepted.
    decreases: u64,
}

/// Runs `f` with a fresh trace sink; returns its result, its wall seconds
/// and the folded profile of its trace.
fn traced_call<T>(f: impl FnOnce(&TraceSink) -> T) -> Checked<(T, f64, LayerProfile)> {
    let writer = StampedWriter::default();
    let sink = TraceSink::to_writer(Box::new(writer.clone()));
    let t = Instant::now();
    let out = f(&sink);
    let dt = t.elapsed().as_secs_f64();
    sink.flush().map_err(|e| format!("trace sink: {e}"))?;
    let mut profile = LayerProfile::default();
    profile
        .fold(&writer.take_lines())
        .map_err(|e| format!("malformed trace: {e}"))?;
    Ok((out, dt, profile))
}

/// A decrease by one on a random arc that cannot close a negative cycle:
/// `w - 1 + dist(v, u) >= 0` on the current tables.
fn safe_decrease(
    g: &DiGraph,
    d: &WeightMatrix,
    arcs: &[(usize, usize)],
    rng: &mut StdRng,
) -> Option<EdgeChange> {
    (0..16).find_map(|_| {
        let (u, v) = arcs[rng.gen_range(0..arcs.len())];
        let w = g.weight(u, v).finite()?;
        let safe = match d[(v, u)] {
            ExtWeight::Finite(back) => w - 1 + back >= 0,
            _ => true,
        };
        safe.then_some(EdgeChange {
            u,
            v,
            weight: Some(w - 1),
        })
    })
}

/// The raw text of a response field: up to the next `,` or `}` (or the
/// closing `]` for an array).
fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let start = resp.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &resp[start..];
    let end = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

fn weight_text(w: ExtWeight) -> String {
    match w {
        ExtWeight::Finite(x) => x.to_string(),
        _ => "null".into(),
    }
}

fn check_dist(resp: &str, want: ExtWeight) -> Checked<()> {
    if field(resp, "dist") == Some(weight_text(want).as_str()) {
        Ok(())
    } else {
        Err(format!(
            "dist response {resp} should carry {}",
            weight_text(want)
        ))
    }
}

/// A path response must carry the reference distance and a walk from `u`
/// to `v` over arcs of the current graph whose weights sum to it.
fn check_path(resp: &str, u: usize, v: usize, want: ExtWeight, g: &DiGraph) -> Checked<()> {
    check_dist(resp, want)?;
    let bad = || format!("path response {resp} is not a shortest {u}->{v} walk");
    let path = field(resp, "path").ok_or_else(bad)?;
    if path == "null" {
        return if want.is_finite() { Err(bad()) } else { Ok(()) };
    }
    let nodes: Vec<usize> = path
        .trim_matches(['[', ']'])
        .split(',')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| bad())?;
    if nodes.first() != Some(&u) || nodes.last() != Some(&v) {
        return Err(bad());
    }
    let mut total = 0i64;
    for hop in nodes.windows(2) {
        total += g.weight(hop[0], hop[1]).finite().ok_or_else(bad)?;
    }
    if ExtWeight::Finite(total) == want {
        Ok(())
    } else {
        Err(bad())
    }
}

/// The Floyd–Warshall oracle every answer is checked against. It runs on
/// one thread whatever the pinned count: from n = 32 up the banded kernel
/// spawns its workers once per pivot, which would tie set-up time to the
/// load on the other core.
fn oracle(g: &DiGraph) -> Result<WeightMatrix, NegativeCycleError> {
    floyd_warshall_with_threads(&g.adjacency_matrix(), 1)
}

/// Every entry the engine serves must equal the reference.
fn check_engine(engine: &mut QueryEngine, reference: &WeightMatrix) -> Checked<()> {
    let n = reference.n();
    for u in 0..n {
        for v in 0..n {
            let got = engine.dist(u, v)?;
            if got != reference[(u, v)] {
                return Err(format!(
                    "engine serves dist({u},{v}) = {got:?}, want {:?}",
                    reference[(u, v)]
                ));
            }
        }
    }
    Ok(())
}

/// Span-derived metrics, averaged per traced solve (or load).
fn layer_metrics(
    profiles: &[LayerProfile],
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let per = |f: &dyn Fn(&LayerProfile) -> f64| {
        profiles.iter().map(f).sum::<f64>() / profiles.len() as f64
    };
    let self_s = |label: &'static str| per(&|p| p.label(label).self_time.as_secs_f64());
    let count = |label: &'static str| per(&|p| p.label(label).count as f64);
    vec![
        (
            "step3.sessions",
            count("stepN/alphaN/eval-queries"),
            "count",
        ),
        ("step3.queries_s", self_s("stepN/alphaN/eval-queries"), "s"),
        ("step3.answers_s", self_s("stepN/alphaN/eval-answers"), "s"),
        (
            "identify_class.broadcast_s",
            self_s("identify-class/broadcast"),
            "s",
        ),
        (
            "compute_pairs.gather_s",
            self_s("compute-pairs/stepN-gather"),
            "s",
        ),
        (
            "compute_pairs.requests_s",
            self_s("compute-pairs/stepN-requests"),
            "s",
        ),
        (
            "compute_pairs.responses_s",
            self_s("compute-pairs/stepN-responses"),
            "s",
        ),
        (
            "distance_product.calls",
            count("distance-product/callN"),
            "count",
        ),
        (
            "find_edges.loops",
            count("find-edges/loopN") + count("find-edges/final"),
            "count",
        ),
        ("network.rounds", per(&|p| p.rounds as f64), "rounds"),
        ("network.messages", per(&|p| p.messages as f64), "count"),
        ("network.bits", per(&|p| p.bits as f64), "bits"),
        (
            "network.max_link_bits",
            per(&|p| p.max_link_bits as f64),
            "bits",
        ),
        ("semiring.distribute_s", self_s("semiring/distribute"), "s"),
        ("semiring.aggregate_s", self_s("semiring/aggregate"), "s"),
        ("fault.injected", per(&|p| p.faults as f64), "count"),
        ("driver.attempts", count("attempt-N"), "count"),
        (
            "driver.verify_s",
            per(&|p| p.label("verify-N").inclusive.as_secs_f64()),
            "s",
        ),
        ("driver.fallbacks", count("fallback"), "count"),
        ("trace.events", per(&|p| p.events as f64), "count"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]
}

/// `ServeStats` counters; `decreases` is the accepted decrease updates.
fn serve_metrics(s: &ServeStats, decreases: u64) -> Vec<(&'static str, f64, &'static str)> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_k = |x: u64| 1000.0 * ratio(x, s.queries + s.updates);
    vec![
        (
            "serve.row_hit_ratio",
            ratio(s.row_hits, s.row_hits + s.row_misses),
            "ratio",
        ),
        ("serve.row_misses", per_k(s.row_misses), "1/kreq"),
        ("serve.delta_repairs", per_k(s.delta_repairs), "1/kreq"),
        ("serve.full_recomputes", per_k(s.full_recomputes), "1/kreq"),
        (
            "serve.repair_ratio",
            ratio(s.delta_repairs, decreases),
            "ratio",
        ),
    ]
}

/// Host kernels timed from outside on the workload's own matrices
/// (median of a few calls each); the timed repair is then checked exact.
fn host_kernels(
    g: &DiGraph,
    reference: &WeightMatrix,
    threads: usize,
) -> Checked<Vec<(&'static str, f64, &'static str)>> {
    const REPS: usize = 5;
    let median_time = |calls: usize, f: &mut dyn FnMut(usize)| {
        let times: Vec<f64> = (0..calls)
            .map(|i| {
                let t = Instant::now();
                f(i);
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    };
    let rows = median_time(g.n().min(16), &mut |src| {
        black_box(sssp_row_with_parents(g, src).expect("no negative cycle"));
    });

    let arcs: Vec<(usize, usize)> = g.arcs().map(|(u, v, _)| (u, v)).collect();
    let mut rng = StdRng::seed_from_u64(g.n() as u64);
    let change = safe_decrease(g, reference, &arcs, &mut rng)
        .ok_or("no safe decrease found for the repair kernel")?;
    let (u, v, w) = (
        change.u,
        change.v,
        change.weight.expect("decreases set weights"),
    );
    let mut g2 = g.clone();
    g2.add_arc(u, v, w);
    let adj2 = g2.adjacency_matrix();
    let deltas = [EdgeDelta {
        u,
        v,
        weight: ExtWeight::Finite(w),
    }];
    let repair = median_time(REPS, &mut |_| {
        let cand = delta_repair_candidate(reference, &deltas);
        black_box(min_plus_fixpoint_certificate(&adj2, &cand));
    });
    let cand = delta_repair_candidate(reference, &deltas);
    let want = oracle(&g2).map_err(|e| e.to_string())?;
    if !(min_plus_fixpoint_certificate(&adj2, &cand) && cand == want) {
        return Err("a single-edge decrease failed to repair exactly".into());
    }
    let adj = g.adjacency_matrix();
    let product = median_time(REPS, &mut |_| {
        black_box(distance_product_with_threads(&adj, &adj, threads));
    });
    let fw = median_time(REPS, &mut |_| {
        black_box(floyd_warshall_with_threads(&adj, threads).ok());
    });
    Ok(vec![
        ("delta.row_relax_us", rows * 1e6, "us"),
        ("delta.repair_ms", repair * 1e3, "ms"),
        ("matrix.min_plus_ms", product * 1e3, "ms"),
        ("apsp_ref.floyd_warshall_ms", fw * 1e3, "ms"),
    ])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank 99th percentile (the maximum below 100 samples).
fn p99(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let rank = (0.99 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank `q`-quantile of values that each occur `count` times.
fn weighted_rank(xs: &[(f64, u64)], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|&(_, k)| k).sum();
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (x, k) in v {
        seen += k;
        if seen >= rank {
            return x;
        }
    }
    unreachable!("rank is at most the total count")
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Checked<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::weighted_rank;

    #[test]
    fn weighted_rank_counts_each_value_by_its_weight() {
        // 3 × 1.0, 1 × 5.0, 96 × 2.0: 100 reads in three batches.
        let batches = [(5.0, 1), (1.0, 3), (2.0, 96)];
        assert_eq!(weighted_rank(&batches, 0.0), 1.0);
        assert_eq!(weighted_rank(&batches, 0.03), 1.0);
        assert_eq!(weighted_rank(&batches, 0.04), 2.0);
        assert_eq!(weighted_rank(&batches, 0.5), 2.0);
        assert_eq!(weighted_rank(&batches, 0.99), 2.0);
        assert_eq!(weighted_rank(&batches, 1.0), 5.0);
        // A batch without reads never supplies a quantile.
        assert_eq!(weighted_rank(&[(9.0, 0), (4.0, 2)], 1.0), 4.0);
    }
}
