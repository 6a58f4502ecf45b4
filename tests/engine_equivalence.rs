//! Cross-engine differential: the replica engine and the routed cluster
//! engine run the same group step core, so one whole-pod group must
//! serve a trace identically in both.
//!
//! `ServingSim` with `shards` = the pod's chips and one replica prices
//! a `chips`-way graph on the whole-pod runner; `ClusterServingSim` with
//! `tp` = chips, `pp = 1`, `dp = 1` prices the same graph as its single
//! stage. At that layout the step latencies agree, so every request
//! timeline, the queue trace, the step counts and the kernel counters
//! must match exactly.

use elk::cluster::{ClusterServeConfig, ClusterServingSim, ParallelismPlan};
use elk::prelude::*;
use elk::serve::RouterPolicy;

fn model() -> TransformerConfig {
    let mut model = zoo::llama2_13b();
    model.layers = 2;
    model
}

fn batch() -> BatchConfig {
    BatchConfig {
        max_batch: 8,
        max_prefill_tokens: 2048,
        seq_buckets: SeqBuckets::new(64, 2048),
        bucket_batch: true,
    }
}

fn traces() -> Vec<(&'static str, RequestTrace)> {
    let path = format!("{}/traces/golden_small.jsonl", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let golden = TraceFile::parse(&text).expect("golden trace parses");
    let poisson = TraceConfig {
        seed: 17,
        requests: 30,
        rate: RateShape::Constant { rate_rps: 250.0 },
        prompt_len: LengthModel::Uniform { lo: 64, hi: 900 },
        output_len: LengthModel::Uniform { lo: 1, hi: 10 },
    }
    .generate();
    vec![("golden", golden.to_request_trace()), ("poisson", poisson)]
}

#[test]
fn one_whole_pod_group_serves_identically_in_both_engines() {
    let system = presets::ipu_pod4();
    let chips = system.chips;
    let mut serve_config = ServeConfig::new(model(), chips);
    serve_config.batch = batch();
    let mut replica = ServingSim::new(system.clone(), serve_config);
    let mut cluster = ClusterServingSim::new(
        system,
        ClusterServeConfig {
            batch: batch(),
            ..ClusterServeConfig::new(model(), ParallelismPlan::new(chips, 1, 1))
        },
    )
    .expect("whole-pod plan fits");

    for (name, trace) in traces() {
        for design in [Design::Basic, Design::ElkFull] {
            let a = replica.run(design, &trace).expect("replica engine serves");
            let b = cluster
                .run(design, RouterPolicy::RoundRobin, &trace)
                .expect("cluster engine serves");
            let case = format!("{name}/{design}");
            assert_eq!(a.outcomes, b.outcomes, "{case}: outcomes");
            assert_eq!(a.queue_depth, b.queue_depth, "{case}: queue_depth");
            assert_eq!(
                a.mean_queue_depth.to_bits(),
                b.mean_queue_depth.to_bits(),
                "{case}: mean_queue_depth"
            );
            assert_eq!(a.prefill_steps, b.prefill_steps, "{case}: prefill_steps");
            assert_eq!(a.decode_steps, b.decode_steps, "{case}: decode_steps");
            assert_eq!(a.sim_events, b.sim_events, "{case}: sim_events");
            assert_eq!(
                a.peak_event_queue_len, b.peak_event_queue_len,
                "{case}: peak_event_queue_len"
            );
            assert!(
                a.prefill_steps > 0 && a.decode_steps > 0,
                "{case}: exercised"
            );
        }
    }
}
