//! Golden guarantees of the trace-replay path:
//!
//! 1. the checked-in `traces/golden_small.jsonl` is bit-for-bit what
//!    its generator recipe (`scenarios/trace_gen_golden.json`)
//!    produces — the generator cannot drift without the diff showing;
//! 2. replaying it through `elk serve` and `elk cluster` pins the
//!    TTFT/TPOT percentiles and `sim_events` exactly (f64 equality,
//!    not tolerance) — the whole serving stack is deterministic;
//! 3. the replay reports are byte-identical at `--threads 1` vs `8`;
//! 4. no report on the trace path carries a wall-clock field, and
//!    `elk trace gen` emits identical bytes on every run;
//! 5. `serving.trace` and `workload.trace.generate` share one
//!    generator: a recipe written in either key resolves to the same
//!    requests.

use elk::serve::TraceConfig;
use elk::spec::spec::{ArrivalsSpec, TraceGenSpec, TraceSourceSpec, TraceSpec};
use elk::spec::{runner, ScenarioSpec};
use elk::trace::{LengthModel, RateShape, TraceFile, TraceGenConfig};
use serde::{Serialize, Value};

fn read_file(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn replay_spec() -> ScenarioSpec {
    ScenarioSpec::from_json(&read_file("scenarios/trace_replay_pin.json")).expect("spec parses")
}

/// The recipe in `scenarios/trace_gen_golden.json`, written out in
/// Rust: regenerating must reproduce the checked-in file bit for bit.
#[test]
fn golden_trace_regenerates_bit_for_bit() {
    let config = TraceGenConfig {
        trace: TraceConfig {
            seed: 7411,
            requests: 24,
            rate: RateShape::Diurnal {
                mean_rps: 60.0,
                amplitude: 0.5,
                period_s: 0.5,
            },
            prompt_len: LengthModel::HeavyTail {
                lo: 64,
                alpha: 1.3,
                cap: 1024,
            },
            output_len: LengthModel::Uniform { lo: 2, hi: 8 },
        },
        tenants: 2,
    };
    let checked_in = read_file("traces/golden_small.jsonl");
    assert_eq!(
        config.generate().to_jsonl(),
        checked_in,
        "traces/golden_small.jsonl drifted from its generator recipe"
    );
    let parsed = TraceFile::parse(&checked_in).expect("golden trace parses");
    assert_eq!(parsed.len(), 24);
    assert_eq!(parsed.tenants().len(), 2);
}

/// Replaying the golden trace pins the serving percentiles exactly.
/// These constants are history: a change means the serving stack's
/// arithmetic changed, which must be a conscious decision.
#[test]
fn golden_replay_pins_serving_percentiles() {
    let spec = replay_spec();

    let serve = runner::run_serve(&spec).expect("serve replay");
    assert_eq!(serve.requests, 24, "the golden trace supplies the load");
    let d = &serve.designs[0];
    assert_eq!(d.completed, 24);
    assert_eq!(d.ttft.p99.as_secs(), 0.0031611267400116494);
    assert_eq!(d.tpot.p99.as_secs(), 0.0004295759388309569);
    assert_eq!(d.tpot.mean.as_secs(), 0.00016600104416672265);
    assert_eq!(d.sim_events, 159);
    // Arrivals enter each replica's kernel heap only when due: one step
    // completion plus one arrival at most.
    assert_eq!(d.peak_event_queue_len, 2);

    let cluster = runner::run_cluster(&spec).expect("cluster replay");
    let rows = cluster.serving.as_ref().expect("cluster.serve is on");
    let row = &rows[0];
    assert_eq!(row.completed, 24);
    assert_eq!(row.ttft.p99.as_secs(), 0.00577555478165348);
    assert_eq!(row.tpot.p99.as_secs(), 0.0019366933630504402);
    assert_eq!(row.sim_events, 165);
    assert_eq!(row.peak_event_queue_len, 3);
}

/// The replay is byte-identical at any worker-thread count: the
/// cluster report and the serve report, its plan-cache hit/miss split
/// included.
#[test]
fn golden_replay_is_thread_count_invariant() {
    let mut at1 = replay_spec();
    at1.serving.threads = 1;
    at1.cluster.as_mut().expect("cluster section").threads = 1;
    let mut at8 = replay_spec();
    at8.serving.threads = 8;
    at8.cluster.as_mut().expect("cluster section").threads = 8;

    let cluster1 = runner::run_cluster(&at1).expect("cluster @1");
    let cluster8 = runner::run_cluster(&at8).expect("cluster @8");
    assert_eq!(
        serde_json::to_string(&cluster1).expect("serialize"),
        serde_json::to_string(&cluster8).expect("serialize"),
        "cluster replay must be byte-identical at any thread count"
    );

    let serve1 = runner::run_serve(&at1).expect("serve @1");
    let serve8 = runner::run_serve(&at8).expect("serve @8");
    assert_eq!(
        serde_json::to_string(&serve1).expect("serialize"),
        serde_json::to_string(&serve8).expect("serialize"),
        "serve replay must be byte-identical at any thread count"
    );
}

/// Recursively asserts no key of `v` smells like wall-clock time.
/// `duration_s`/`makespan` are *simulated* time and stay legal;
/// `elapsed`/`wall`/`timestamp` would break replay determinism.
fn assert_no_wall_clock_keys(v: &Value, path: &str) {
    const FORBIDDEN: &[&str] = &["wall", "elapsed", "timestamp", "time_ms", "unix_"];
    match v {
        Value::Map(entries) => {
            for (k, child) in entries {
                let key = k.to_ascii_lowercase();
                assert!(
                    !FORBIDDEN.iter().any(|f| key.contains(f)) && key != "now" && key != "date",
                    "wall-clock-smelling key {path}.{k} in a deterministic report"
                );
                assert_no_wall_clock_keys(child, &format!("{path}.{k}"));
            }
        }
        Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                assert_no_wall_clock_keys(child, &format!("{path}[{i}]"));
            }
        }
        _ => {}
    }
}

/// `elk trace gen` and the trace-replay reports carry no wall-clock
/// fields, and generation is byte-deterministic run to run.
#[test]
fn trace_path_reports_carry_no_wall_clock_fields() {
    let out = std::env::temp_dir().join(format!("elk-trace-clock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let gen_scenario = format!(
        "{}/scenarios/trace_gen_golden.json",
        env!("CARGO_MANIFEST_DIR")
    );

    let mut emitted = Vec::new();
    for _ in 0..2 {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
            .args(["trace", "gen", &gen_scenario, "--out"])
            .arg(&out)
            .output()
            .expect("spawn elk");
        assert!(output.status.success(), "`elk trace gen` must exit 0");
        emitted.push((
            std::fs::read_to_string(out.join("golden_small.trace.jsonl")).expect("jsonl emitted"),
            std::fs::read_to_string(out.join("golden_small.trace.json")).expect("report emitted"),
        ));
    }
    assert_eq!(
        emitted[0], emitted[1],
        "trace gen must be run-to-run deterministic"
    );

    let (jsonl, summary) = &emitted[0];
    TraceFile::parse(jsonl).expect("emitted trace parses under the strict schema");
    let summary: Value = serde_json::from_str(summary).expect("summary parses");
    assert_no_wall_clock_keys(&summary, "trace");

    // The replay reports — serve, cluster, and the elastic fleet —
    // obey the same contract.
    let spec = replay_spec();
    assert_no_wall_clock_keys(
        &runner::run_serve(&spec).expect("serve").to_value(),
        "serve",
    );
    assert_no_wall_clock_keys(
        &runner::run_cluster(&spec).expect("cluster").to_value(),
        "cluster",
    );
    let auto_spec = ScenarioSpec::from_json(&read_file("scenarios/autoscale_burst.json"))
        .expect("autoscale scenario parses");
    assert_no_wall_clock_keys(
        &runner::run_cluster(&auto_spec)
            .expect("autoscale cluster")
            .to_value(),
        "autoscale",
    );

    let _ = std::fs::remove_dir_all(&out);
}

/// The same recipe through either trace key resolves to identical
/// requests, arrival bits included: `Poisson` is `Constant`, and
/// `Bursty` is the burst train [`RateShape::bursty`] lowers it to.
#[test]
fn serving_and_generate_recipes_resolve_to_identical_traces() {
    let prompt_len = LengthModel::Bimodal {
        short: (60, 400),
        long: (1500, 3000),
        long_weight: 0.3,
    };
    let output_len = LengthModel::Uniform { lo: 1, hi: 12 };
    for (arrivals, rate) in [
        (
            ArrivalsSpec::Poisson { rate_rps: 250.0 },
            RateShape::Constant { rate_rps: 250.0 },
        ),
        (
            ArrivalsSpec::Bursty {
                rate_rps: 300.0,
                burst_factor: 4.0,
                period_s: 0.2,
                duty: 0.2,
            },
            RateShape::bursty(300.0, 4.0, 0.2, 0.2).expect("valid burst recipe"),
        ),
    ] {
        let mut serving = ScenarioSpec::from_json(r#"{"name": "t", "model": {"zoo": "llama13"}}"#)
            .expect("spec parses");
        let mut generate = serving.clone();
        serving.serving.trace = TraceSpec {
            seed: 29,
            requests: 2000,
            arrivals,
            prompt_len,
            output_len,
        };
        generate.workload.trace = Some(TraceSourceSpec::Generate(TraceGenSpec {
            seed: 29,
            requests: 2000,
            rate,
            prompt_len,
            output_len,
            tenants: 0,
        }));
        let a = runner::resolve_trace(&serving).expect("serving.trace resolves");
        let b = runner::resolve_trace(&generate).expect("workload.trace.generate resolves");
        assert_eq!(a, b, "{arrivals:?}");
        let bits = |t: &elk::serve::RequestTrace| -> Vec<u64> {
            t.requests
                .iter()
                .map(|r| r.arrival.as_secs().to_bits())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "{arrivals:?}");
    }
}
