//! End-to-end serving-simulator checks through the `elk` facade:
//! request accounting, design ordering, plan-cache reuse, and seeded
//! byte-identical determinism.

use elk::baselines::Design;
use elk::prelude::*;

/// Doctest-sized model: the serving dynamics (queueing, batching,
/// bucketing) are independent of layer count.
fn model() -> TransformerConfig {
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 2;
    cfg
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(model(), 4);
    cfg.batch = BatchConfig {
        max_batch: 8,
        max_prefill_tokens: 2048,
        seq_buckets: SeqBuckets::new(256, 2048),
        bucket_batch: true,
    };
    cfg
}

fn trace(seed: u64) -> RequestTrace {
    TraceConfig {
        seed,
        requests: 24,
        rate: RateShape::bursty(150.0, 3.0, 0.2, 0.25).expect("valid burst recipe"),
        prompt_len: LengthModel::Bimodal {
            short: (150, 500),
            long: (900, 1800),
            long_weight: 0.4,
        },
        output_len: LengthModel::Uniform { lo: 4, hi: 16 },
    }
    .generate()
}

#[test]
fn serves_every_request_with_consistent_timelines() {
    let mut sim = ServingSim::new(presets::ipu_pod4(), config());
    let t = trace(1);
    let report = sim.run(Design::ElkFull, &t).unwrap();
    assert_eq!(report.completed, t.len());
    assert!(report.makespan >= t.duration());
    for o in &report.outcomes {
        assert!(o.first_token > o.arrival, "TTFT must be positive");
        assert!(o.completion >= o.first_token);
        assert!(o.e2e() >= o.ttft());
    }
    // Queue-depth samples are time-ordered.
    for w in report.queue_depth.windows(2) {
        assert!(w[0].0 <= w[1].0);
    }
    assert!(report.prefill_steps > 0 && report.decode_steps > 0);
}

#[test]
fn design_ordering_survives_request_level_dynamics() {
    // The Fig. 17 endpoints must hold end to end: the roofline cannot
    // lose to full Elk, and full Elk cannot lose to the Basic baseline.
    let mut sim = ServingSim::new(presets::ipu_pod4(), config());
    let t = trace(2);
    let slack = 1.02;
    let tpot = |d: Design, sim: &mut ServingSim| sim.run(d, &t).unwrap().tpot.mean.as_secs();
    let basic = tpot(Design::Basic, &mut sim);
    let full = tpot(Design::ElkFull, &mut sim);
    let ideal = tpot(Design::Ideal, &mut sim);
    assert!(ideal <= full * slack, "Ideal {ideal} > ELK-Full {full}");
    assert!(full <= basic * slack, "ELK-Full {full} > Basic {basic}");
}

#[test]
fn repeated_shapes_reach_the_plan_cache_once_per_design() {
    let mut sim = ServingSim::new(presets::ipu_pod4(), config());
    let t = trace(3);
    let first = sim.run(Design::ElkFull, &t).unwrap();
    let lookups = first.cache.hits + first.cache.misses;
    assert!(
        lookups < first.prefill_steps + first.decode_steps,
        "repeated seq buckets must hit the step memo within one run: {:?}",
        first.cache
    );
    assert!(first.cache.misses > 0);
    // A second design recompiles plans but shares every catalog, and a
    // repeat run looks nothing up at all.
    let other = sim.run(Design::Basic, &t).unwrap();
    assert!(other.cache.misses > 0);
    let repeat = sim.run(Design::ElkFull, &t).unwrap();
    assert_eq!(
        repeat.cache,
        elk::serve::CacheStats::default(),
        "a repeat run must price every step from the memo"
    );
    assert_eq!(repeat.makespan, first.makespan);
    assert_eq!(repeat.outcomes, first.outcomes);
}

#[test]
fn same_trace_and_seed_give_byte_identical_reports() {
    // Fresh simulator + fresh trace from the same seeds: the rendered
    // report must match byte for byte.
    let render = || {
        let mut sim = ServingSim::new(presets::ipu_pod4(), config());
        let t = trace(4);
        let mut out = String::new();
        for design in [Design::Basic, Design::ElkFull, Design::Ideal] {
            out.push_str(&sim.run(design, &t).unwrap().to_string());
            out.push('\n');
        }
        out
    };
    let a = render();
    let b = render();
    assert!(!a.is_empty());
    assert_eq!(a, b, "serving reports must be deterministic");
}

#[test]
fn replicas_halve_the_queue() {
    let t = trace(5);
    let mut one = ServingSim::new(presets::ipu_pod4(), config());
    let mut two = ServingSim::new(presets::ipu_pod4(), config().with_replicas(2));
    let r1 = one.run(Design::ElkFull, &t).unwrap();
    let r2 = two.run(Design::ElkFull, &t).unwrap();
    assert_eq!(r2.completed, t.len());
    assert!(r2.e2e.mean <= r1.e2e.mean * 1.01);
    assert!(r2.max_queue_depth <= r1.max_queue_depth);
}

#[test]
fn serving_is_thread_count_invariant() {
    // Concurrent replica loops against the single-flight plan cache must
    // reproduce the sequential run exactly: outcomes, latency
    // percentiles, queue depths, makespan, and the plan cache's hit/miss
    // split (each key is compiled once, by a lookup that asked for it).
    let t = trace(6);
    let mut seq = ServingSim::new(presets::ipu_pod4(), config().with_replicas(2));
    let mut par = ServingSim::new(
        presets::ipu_pod4(),
        config().with_replicas(2).with_threads(8),
    );
    for design in [Design::ElkFull, Design::Static, Design::Basic] {
        let a = seq.run(design, &t).unwrap();
        let b = par.run(design, &t).unwrap();
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "{design}: 8-thread serving run diverged from sequential"
        );
    }
}
