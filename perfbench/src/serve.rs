//! The two serving workloads and the cross-check against the `scale`
//! bench.
//!
//! * `serve_steady` replays the `scale` bench's configuration: Poisson
//!   arrivals at 300 rps into a 2-layer Llama-2-13B on tp1·pp1·dp4,
//!   round robin, through `ClusterServingSim` under Elk-Full, 1 thread.
//!   Nearly every step prices through a plan-cache hit.
//! * `serve_cold` serves a bursty heavy-tail trace with the `elk serve`
//!   replica engine (`ServingSim`) under all five designs on one fresh
//!   engine, 2 threads: full-depth plan compiles on cache misses
//!   dominate.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use elk_baselines::{Design, DesignRunner};
use elk_cluster::{ClusterServeConfig, ClusterServingReport, ClusterServingSim, ParallelismPlan};
use elk_hw::SystemConfig;
use elk_model::{Phase, TransformerConfig, Workload};
use elk_obs::{MemRecorder, Obs};
use elk_serve::{
    BatchConfig, CacheStats, PlanCache, RequestOutcome, RequestTrace, RouterPolicy, ServingReport,
    ServingSim,
};
use elk_sim::SimOptions;
use elk_spec::{ScenarioSpec, TraceSourceSpec};

use crate::span::Tracer;
use crate::{fnv1a, metric, percentile, Metric, Rep, FNV_OFFSET};

const STEADY_SPEC: &str = include_str!("../scenarios/serve_steady.json");
const COLD_SPEC: &str = include_str!("../scenarios/serve_cold.json");

/// Warm-lookup rounds over the replayed plan-cache keys.
const HIT_ROUNDS: usize = 400;

fn parse(tracer: &Tracer, json: &str) -> ScenarioSpec {
    tracer
        .span("spec.parse", || ScenarioSpec::from_json(json))
        .expect("the benchmark's scenario files parse")
}

/// Checks one outcome per request, in trace order, with
/// `arrival <= first_token <= completion`. Returns the failures.
fn check_outcomes(trace: &RequestTrace, outcomes: &[RequestOutcome]) -> u64 {
    if outcomes.len() != trace.len() {
        return trace.len().abs_diff(outcomes.len()) as u64;
    }
    trace
        .requests
        .iter()
        .zip(outcomes)
        .filter(|(r, o)| {
            o.id != r.id
                || o.arrival != r.arrival
                || o.first_token < o.arrival
                || o.completion < o.first_token
        })
        .count() as u64
}

/// `(phase, batch, seq)` signatures a batch config can produce, decode
/// first; the key set the plan-cache replay warms and then looks up.
fn signature_ladder(batch: &BatchConfig, phases: &[Phase], max_seq: u64) -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    for &phase in phases {
        for n in 1..=batch.max_batch {
            for seq in batch.seq_buckets.ladder() {
                let wl = batch.step_workload(phase, n, seq.min(max_seq));
                if !out.contains(&wl) {
                    out.push(wl);
                }
            }
        }
    }
    out
}

/// Times warm `PlanCache::step_latency_for` lookups: warms a fresh cache
/// with `keys` under `design`, then looks every key up `HIT_ROUNDS`
/// times in a seeded order, building the key string per lookup as the
/// serving engines do. Returns sorted per-lookup nanoseconds.
fn replay_hits(
    system: &SystemConfig,
    model: &TransformerConfig,
    tp: u64,
    sim: &SimOptions,
    design: Design,
    keys: &[Workload],
    seed: u64,
) -> Vec<u64> {
    let runner = DesignRunner::new(system.subpod(tp)).with_threads(1);
    let cache = PlanCache::new();
    let stage = ParallelismPlan::new(tp, 1, 1)
        .stages(model.layers)
        .remove(0);
    let lookup = |wl: Workload| {
        let key = stage.cache_key(&model.name, tp);
        cache.step_latency_for(&runner, &key, tp, design, wl, sim, |w, s| {
            model.build_stage(w, s, stage.layers.clone(), stage.embed, stage.head)
        })
    };
    let warm: Vec<Workload> = keys
        .iter()
        .copied()
        .filter(|&wl| lookup(wl).is_ok())
        .collect();
    let mut rng = elk_sim_core::SimRng::new(seed);
    let mut ns = Vec::with_capacity(warm.len() * HIT_ROUNDS);
    for _ in 0..HIT_ROUNDS {
        for _ in 0..warm.len() {
            let wl = warm[rng.gen_index(warm.len())];
            let t = Instant::now();
            let hit = std::hint::black_box(lookup(std::hint::black_box(wl)));
            ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            assert!(hit.is_ok(), "warmed key must hit");
        }
    }
    ns.sort_unstable();
    ns
}

fn hit_metrics(ns: &[u64]) -> [Metric; 3] {
    [
        metric("plan_cache.hit_ns_p50", "ns", percentile(ns, 50.0)),
        metric("plan_cache.hit_ns_p99", "ns", percentile(ns, 99.0)),
        metric("plan_cache.hit_ns_count", "count", ns.len() as f64),
    ]
}

fn latency_metrics(
    ttft: &elk_serve::LatencyStats,
    tpot: &elk_serve::LatencyStats,
    goodput: f64,
) -> Vec<Metric> {
    vec![
        metric("sim_ttft_p50_ms", "ms", ttft.p50.as_millis()),
        metric("sim_ttft_p99_ms", "ms", ttft.p99.as_millis()),
        metric("sim_ttft_samples", "count", ttft.n as f64),
        metric("sim_tpot_p50_ms", "ms", tpot.p50.as_millis()),
        metric("sim_tpot_p99_ms", "ms", tpot.p99.as_millis()),
        metric("sim_tpot_samples", "count", tpot.n as f64),
        metric("sim_goodput_rps", "1/s", goodput),
    ]
}

/// The `serve_steady` scenario with `seed` applied and, if given, the
/// request count.
struct Steady {
    spec: ScenarioSpec,
    trace: RequestTrace,
    engine: ClusterServingSim,
}

fn steady_setup(seed: u64, requests: Option<usize>, tracer: &Tracer) -> Steady {
    let mut spec = parse(tracer, STEADY_SPEC);
    spec.serving.trace.seed = seed;
    if let Some(n) = requests {
        spec.serving.trace.requests = n;
    }
    let trace_cfg = spec.serving.trace.to_config().expect("valid trace recipe");
    let trace = tracer.span("trace.gen", || trace_cfg.generate());
    let system = spec.system.to_system().expect("valid system");
    let model = spec.model.as_transformer().expect("dense model");
    let sim = spec.sim.to_options().expect("valid sim options");
    let serve = spec
        .serving
        .to_config(model.clone(), 1, sim)
        .expect("valid serving config");
    let config = ClusterServeConfig {
        model,
        plan: ParallelismPlan::new(1, 1, serve.replicas as u64),
        batch: serve.batch,
        slo: serve.slo,
        sim,
        threads: serve.threads,
    };
    let engine = tracer
        .span("cost.fit", || ClusterServingSim::new(system, config))
        .expect("the tp1·pp1·dp4 plan fits the pod");
    Steady {
        spec,
        trace,
        engine,
    }
}

fn steady_run(s: &mut Steady, tracer: &Tracer) -> (ClusterServingReport, String) {
    let design = s.spec.compiler.design[0];
    let report = tracer
        .span("engine.run", || {
            s.engine.run(design, RouterPolicy::RoundRobin, &s.trace)
        })
        .expect("every step shape compiles");
    let json = tracer
        .span("report.serialize", || serde_json::to_string(&report))
        .expect("reports serialize");
    (report, json)
}

/// One `serve_steady` repetition.
pub fn steady(seed: u64, tracer: &Tracer) -> Rep {
    let t0 = Instant::now();
    let mut s = steady_setup(seed, None, tracer);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let before = s.engine.cache_stats();
    let (report, json) = steady_run(&mut s, tracer);
    let wall_s = t1.elapsed().as_secs_f64();
    let cache = s.engine.cache_stats().since(before);

    let mut failed = check_outcomes(&s.trace, &report.outcomes);
    if report.completed != s.trace.len()
        || report.per_group_requests.iter().sum::<usize>() != s.trace.len()
    {
        failed += 1;
    }

    let mut layer = Vec::new();
    if tracer.on() {
        let cfg = s.engine.config();
        let keys = signature_ladder(&cfg.batch, &[Phase::Decode, Phase::Prefill], u64::MAX);
        let system = s.spec.system.to_system().expect("valid system");
        let ns = tracer.span("plan_cache.replay", || {
            replay_hits(
                &system,
                &cfg.model,
                cfg.plan.tp,
                &cfg.sim,
                s.spec.compiler.design[0],
                &keys,
                seed,
            )
        });
        layer.extend(hit_metrics(&ns));
        // One design on one thread: nothing warms other designs and
        // every miss compiles exactly one single-stage plan, so misses
        // count both the compiled plans and their graph signatures.
        layer.extend([
            metric("plan_cache.signatures", "count", cache.misses as f64),
            metric("plan_cache.plans", "count", cache.misses as f64),
            metric("plan_cache.useful_ratio", "ratio", 1.0),
        ]);
    }
    layer.extend([
        metric(
            "plan_cache.lookups",
            "count",
            (cache.hits + cache.misses) as f64,
        ),
        metric("plan_cache.misses", "count", cache.misses as f64),
        metric("plan_cache.hit_rate", "ratio", cache.hit_rate()),
        metric("kernel.events", "count", report.sim_events as f64),
        metric(
            "kernel.peak_queue_len",
            "count",
            report.peak_event_queue_len as f64,
        ),
        metric("engine.prefill_steps", "count", report.prefill_steps as f64),
        metric("engine.decode_steps", "count", report.decode_steps as f64),
        metric("report.bytes", "B", json.len() as f64),
        metric(
            "report.queue_depth_samples",
            "count",
            report.queue_depth.len() as f64,
        ),
    ]);

    Rep {
        setup_s,
        wall_s,
        work: report.sim_events as f64,
        work_metric: "events_per_s",
        attempted: s.trace.len() as u64,
        failed,
        digest: fnv1a(json.as_bytes(), FNV_OFFSET),
        sim: latency_metrics(&report.ttft, &report.tpot, report.goodput_rps),
        layer,
    }
}

/// One `serve_cold` repetition: a fresh engine serves the trace under
/// every design of the scenario, in order.
pub fn cold(seed: u64, tracer: &Tracer) -> Rep {
    let t0 = Instant::now();
    let mut spec = parse(tracer, COLD_SPEC);
    let Some(TraceSourceSpec::Generate(gen)) = &mut spec.workload.trace else {
        unreachable!("serve_cold.json generates its trace")
    };
    gen.seed = seed;
    let gen_cfg = gen.to_config().expect("valid trace recipe");
    let trace = tracer.span("trace.gen", || gen_cfg.generate().to_request_trace());
    let system = spec.system.to_system().expect("valid system");
    let model = spec.model.as_transformer().expect("dense model");
    let shards = spec.workload.shards_for(&system).expect("valid shards");
    let sim = spec.sim.to_options().expect("valid sim options");
    let config = spec
        .serving
        .to_config(model, shards, sim)
        .expect("valid serving config");
    let mut engine = tracer.span("cost.fit", || {
        ServingSim::new(system.clone(), config.clone())
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut reports: Vec<(ServingReport, String)> = Vec::new();
    for &design in &spec.compiler.design {
        let report = tracer
            .span("engine.run", || engine.run(design, &trace))
            .expect("every step shape compiles");
        let json = tracer
            .span("report.serialize", || serde_json::to_string(&report))
            .expect("reports serialize");
        reports.push((report, json));
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let mut failed = 0;
    let mut digest = FNV_OFFSET;
    for (report, _) in &reports {
        failed += check_outcomes(&trace, &report.outcomes);
        // The hit/miss split shifts with the worker interleaving; the
        // rest of the report must repeat exactly.
        let mut simulated = report.clone();
        simulated.cache = CacheStats::default();
        let json = serde_json::to_string(&simulated).expect("reports serialize");
        digest = fnv1a(json.as_bytes(), digest);
    }
    let sum = |f: fn(&ServingReport) -> u64| reports.iter().map(|(r, _)| f(r)).sum::<u64>() as f64;
    let cache = engine.cache_stats();

    let mut layer = Vec::new();
    if tracer.on() {
        // A single-worker census engine replays the same designs: it
        // warms nothing, so its misses count the plans requested, and
        // its `elk-obs` counter gives the graph signatures, which do not
        // depend on the worker count. The measured engine stays
        // unobserved, so tracing does not slow it down.
        let (requested, signatures) = tracer.span("plan_cache.census", || {
            let mut census = ServingSim::new(system.clone(), config.clone().with_threads(1));
            let rec = Arc::new(MemRecorder::new());
            census.set_obs(Obs::new(rec.clone(), 0));
            for &design in &spec.compiler.design {
                census
                    .run(design, &trace)
                    .expect("every step shape compiles");
            }
            let signatures = rec
                .take_buf()
                .counters
                .get("serve.cache.signatures")
                .copied()
                .unwrap_or(0);
            (census.cache_stats().misses, signatures)
        });
        // With more than one worker every miss compiles all five
        // designs of its signature.
        let compiled = if config.threads > 1 {
            signatures * Design::ALL.len() as u64
        } else {
            requested
        };
        layer.extend([
            metric("plan_cache.signatures", "count", signatures as f64),
            metric("plan_cache.plans", "count", compiled as f64),
            metric(
                "plan_cache.useful_ratio",
                "ratio",
                requested as f64 / compiled.max(1) as f64,
            ),
        ]);
        let max_seq = trace
            .requests
            .iter()
            .map(|r| r.prompt_len + r.output_len)
            .max()
            .unwrap_or(1);
        let keys: Vec<Workload> = signature_ladder(&config.batch, &[Phase::Decode], max_seq)
            .into_iter()
            .filter(|wl| wl.batch == config.batch.max_batch)
            .collect();
        let ns = tracer.span("plan_cache.replay", || {
            replay_hits(
                &system,
                &config.model,
                config.shards,
                &sim,
                Design::ElkFull,
                &keys,
                seed,
            )
        });
        layer.extend(hit_metrics(&ns));
    }
    layer.extend([
        metric(
            "plan_cache.lookups",
            "count",
            (cache.hits + cache.misses) as f64,
        ),
        metric("plan_cache.misses", "count", cache.misses as f64),
        metric("plan_cache.hit_rate", "ratio", cache.hit_rate()),
        metric("kernel.events", "count", sum(|r| r.sim_events)),
        metric(
            "kernel.peak_queue_len",
            "count",
            reports
                .iter()
                .map(|(r, _)| r.peak_event_queue_len)
                .max()
                .unwrap_or(0) as f64,
        ),
        metric("engine.prefill_steps", "count", sum(|r| r.prefill_steps)),
        metric("engine.decode_steps", "count", sum(|r| r.decode_steps)),
        metric(
            "report.bytes",
            "B",
            reports.iter().map(|(_, j)| j.len()).sum::<usize>() as f64,
        ),
        metric(
            "report.queue_depth_samples",
            "count",
            reports
                .iter()
                .map(|(r, _)| r.queue_depth.len())
                .sum::<usize>() as f64,
        ),
    ]);

    // Simulated metrics of the Elk-Full replay (the design `elk serve`
    // users deploy); all five designs are checked above.
    let (full, _) = reports
        .iter()
        .find(|(r, _)| r.design == Design::ElkFull)
        .expect("serve_cold.json serves elk_full");
    Rep {
        setup_s,
        wall_s,
        work: sum(|r| r.sim_events),
        work_metric: "events_per_s",
        attempted: (trace.len() * reports.len()) as u64,
        failed,
        digest,
        sim: latency_metrics(&full.ttft, &full.tpot, full.goodput_rps),
        layer,
    }
}

/// The `scale` bench's simulated summary at seed 11 and one million
/// requests, as its `results/scale.json` records it.
const SCALE_EXPECTED: [(&str, f64); 5] = [
    ("completed", 1_000_000.0),
    ("sim_events", 5_775_700.0),
    ("prefill_steps", 969_176.0),
    ("decode_steps", 3_806_524.0),
    ("max_queue_depth", 11.0),
];

/// `--scale-check [--scale-json PATH]`: runs `serve_steady` at the
/// `scale` bench's seed and size and compares its simulated summary with
/// the pinned values and, when given, with a `scale.json` file.
pub fn scale_check(args: &[String]) -> ExitCode {
    let file = match args {
        [] => None,
        [flag, path] if flag == "--scale-json" => Some(path.clone()),
        _ => {
            eprintln!("usage: perfbench --scale-check [--scale-json PATH]");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(false);
    let mut s = steady_setup(11, Some(1_000_000), &tracer);
    let (r, _) = steady_run(&mut s, &tracer);
    let summary: Vec<(&str, f64)> = vec![
        ("requests", s.trace.len() as f64),
        ("completed", r.completed as f64),
        ("groups", r.per_group_requests.len() as f64),
        ("sim_events", r.sim_events as f64),
        ("makespan_s", r.makespan.as_secs()),
        ("throughput_rps", r.throughput_rps),
        ("tokens_per_sec", r.tokens_per_sec),
        ("prefill_steps", r.prefill_steps as f64),
        ("decode_steps", r.decode_steps as f64),
        ("mean_queue_depth", r.mean_queue_depth),
        ("max_queue_depth", r.max_queue_depth as f64),
        ("e2e_mean_ms", r.e2e.mean.as_millis()),
        ("ttft_p99_ms", r.ttft.p99.as_millis()),
    ];
    let mut ok = true;
    for (name, value) in &summary {
        println!("{name:<18} {value}");
    }
    for (name, want) in SCALE_EXPECTED {
        let got = summary.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        if got != Some(want) {
            println!("MISMATCH {name}: pinned {want}, got {got:?}");
            ok = false;
        }
    }
    if let Some(path) = file {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        let value: serde::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        for (name, got) in &summary {
            let want = match value.get(name) {
                Some(serde::Value::F64(x)) => Some(*x),
                Some(serde::Value::U64(x)) => Some(*x as f64),
                _ => None,
            };
            if want != Some(*got) {
                println!("MISMATCH {name} vs {path}: file {want:?}, got {got}");
                ok = false;
            }
        }
    }
    if ok {
        println!("scale cross-check: identical");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
