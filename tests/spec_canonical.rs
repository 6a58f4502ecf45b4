//! Canonical-form pins for the scenario spec layer.
//!
//! Every checked-in scenario (`scenarios/*.json` and
//! `perfbench/scenarios/*.json`) and a set of inline specs that switch
//! on every optional section are parsed and re-emitted with
//! `ScenarioSpec::to_json`; the FNV-1a digest of that canonical JSON is
//! pinned in `tests/pins/spec.pins`. The digests cover key order, which
//! optional keys are skipped when absent, default filling and number
//! formatting, so any change to how the spec types serialize or fill
//! defaults — hand-written or derived — shows up as a digest change.

use elk::spec::ScenarioSpec;
use elk_pins::{fold, Pins, OFFSET};

fn canonical_digest(name: &str, json: &str) -> u64 {
    let spec = ScenarioSpec::from_json(json).unwrap_or_else(|e| panic!("{name}: {e}"));
    fold(OFFSET, spec.to_json().as_bytes())
}

/// Every `*.json` in `dir` (relative to the package root), sorted.
fn scenario_files(dir: &str) -> Vec<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("{}: {e}", root.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn checked_in_scenarios_have_pinned_canonical_forms() {
    let mut pins = Pins::new("spec", "scenario_files");
    for dir in ["scenarios", "perfbench/scenarios"] {
        for path in scenario_files(dir) {
            let name = format!(
                "{dir}/{}",
                path.file_name().expect("file name").to_string_lossy()
            );
            let json = std::fs::read_to_string(&path).expect("readable scenario");
            let d = canonical_digest(&name, &json);
            pins.add(name, d);
        }
    }
    pins.check();
}

/// A spec with every optional section present: explicit system and
/// model bodies, `workload.shards` and a generated `workload.trace`,
/// `serving.tenants` with a `map`, `observe.timeline`, a `cluster`
/// section with `plan`, `microbatches`, a `power_of_two` router,
/// `autoscale`, `disaggregate` and `tenants`, and a `sweep`. The
/// `{rate}`, `{prompt}` and `{output}` holes take one generator
/// variant each.
const FULL: &str = r#"{
  "name": "full",
  "system": {
    "chip": {"name": "probe", "cores": 256, "sram_per_core_kib": 512,
             "io_buffer_per_core_kib": 16, "matmul_tflops": 100.0,
             "vector_tflops": 12.5, "sram_bw_gb_s": 30.0,
             "sram_contention": "concurrent",
             "topology": {"mesh": {"total_gib_s": 2048.0}}},
    "chips": 2,
    "hbm": {"channels": 8, "channel_bw_gib_s": 512.0, "capacity_gib": 48},
    "inter_chip_bw_gib_s": 320.0
  },
  "model": {"transformer": {"name": "probe-lm", "layers": 2, "hidden": 1024,
            "heads": 8, "kv_heads": 2, "head_dim": 128, "intermediate": 4096,
            "vocab": 32000, "glu": true, "norm": "Rms", "rope": true,
            "post_norms": false}},
  "workload": {
    "phase": "prefill", "batch": 4, "seq_len": 256, "shards": 2,
    "trace": {"generate": {"seed": 11, "requests": 24, "rate": {rate},
                           "prompt_len": {prompt}, "output_len": {output},
                           "tenants": 2}}
  },
  "compiler": {"design": ["basic", "elk_full"], "threads": 2},
  "sim": {"noise_sigma": 0.01, "noise_seed": 9, "trace_samples": 4},
  "serving": {
    "trace": {"seed": 3, "requests": 8,
              "arrivals": {"Bursty": {"rate_rps": 50.0, "burst_factor": 2.0,
                                      "period_s": 1.0, "duty": 0.25}},
              "prompt_len": {"Bimodal": {"short": [16, 64], "long": [512, 1024],
                                         "long_weight": 0.1}},
              "output_len": {"Fixed": 6}},
    "replicas": 2, "max_batch": 16, "max_prefill_tokens": 4096,
    "seq_buckets": {"min": 64, "max": 8192}, "bucket_batch": false,
    "slo": {"ttft_ms": 500.0, "tpot_ms": 40.0},
    "tenants": {
      "classes": [
        {"name": "gold", "priority": 0, "slo": {"ttft_ms": 200.0, "tpot_ms": 20.0}},
        {"name": "bronze", "priority": 5, "rate_rps": 10.0, "burst": 4,
         "model": "opt30", "sheddable": true}
      ],
      "map": {"t0": "gold", "t1": "bronze"},
      "shed_queue_depth": 3.5, "shed_policy": "defer", "defer_ms": 25.0
    },
    "threads": 2
  },
  "observe": {"enable": true, "timeline": "out/full.timeline.json", "sample": 8},
  "cluster": {
    "plan": {"tp": 2, "pp": 1, "dp": 1},
    "microbatches": 2,
    "interconnect": "fully_connected",
    "router": ["round_robin", "least_outstanding", {"power_of_two": {"seed": 5}}],
    "serve": true,
    "autoscale": {"min_groups": 1, "max_groups": 2, "interval_ms": 100.0,
                  "up_queue_depth": 2.0, "down_queue_depth": 0.5,
                  "slo_target": 0.9, "cold_start_steps": 4.0},
    "disaggregate": {"prefill": {"tp": 1, "pp": 1, "dp": 1},
                     "decode": {"tp": 1, "pp": 1, "dp": 1},
                     "chunk_tokens": 512, "shared_chips": true},
    "tenants": {"classes": [{"name": "solo"}]},
    "threads": 2
  },
  "sweep": {"command": "serve",
            "axes": [{"path": "workload.batch", "values": [2, 4]},
                     {"path": "compiler.design", "values": ["basic", ["ideal"]]}]}
}"#;

#[test]
fn fully_populated_specs_have_pinned_canonical_forms() {
    // Each row covers one `RateShape` and, across the rows, every
    // `LengthModel` variant in both length slots.
    let variants = [
        (
            "constant",
            r#"{"Constant": {"rate_rps": 40.0}}"#,
            r#"{"Fixed": 32}"#,
            r#"{"Uniform": {"lo": 2, "hi": 9}}"#,
        ),
        (
            "diurnal",
            r#"{"Diurnal": {"mean_rps": 60.0, "amplitude": 0.5, "period_s": 2.0}}"#,
            r#"{"HeavyTail": {"lo": 16, "alpha": 1.3, "cap": 900}}"#,
            r#"{"Fixed": 4}"#,
        ),
        (
            "burst_train",
            r#"{"BurstTrain": {"base_rps": 10.0, "burst_rps": 90.0, "period_s": 1.5, "burst_s": 0.25}}"#,
            r#"{"Uniform": {"lo": 64, "hi": 128}}"#,
            r#"{"HeavyTail": {"lo": 2, "alpha": 2.0, "cap": 40}}"#,
        ),
    ];
    let mut pins = Pins::new("spec", "full_specs");
    for (name, rate, prompt, output) in variants {
        let json = FULL
            .replace("{rate}", rate)
            .replace("{prompt}", prompt)
            .replace("{output}", output);
        pins.add(format!("full/{name}"), canonical_digest(name, &json));
    }
    // The minimal scenario: every section defaulted.
    pins.add(
        "minimal",
        canonical_digest("minimal", r#"{"name": "m", "model": {"zoo": "llama13"}}"#),
    );
    // Each explicit model body and a preset system.
    for (name, model) in [
        ("zoo_layers", r#"{"zoo": "gemma27", "layers": 3}"#),
        (
            "moe",
            r#"{"moe": {"name": "probe-moe", "layers": 2, "hidden": 1024, "heads": 8,
                        "kv_heads": 2, "head_dim": 128, "expert_intermediate": 2048,
                        "experts": 4, "experts_per_token": 2, "vocab": 32000}}"#,
        ),
        (
            "dit",
            r#"{"dit": {"name": "probe-dit", "layers": 2, "hidden": 1152, "heads": 16,
                        "head_dim": 72, "mlp_ratio": 4, "tokens": 256}}"#,
        ),
    ] {
        let json = format!(
            r#"{{"name": "{name}", "system": {{"preset": "single_chip"}}, "model": {model},
                "workload": {{"trace": {{"file": "traces/golden_small.jsonl"}}}},
                "compiler": {{"design": "all"}}}}"#
        );
        pins.add(format!("model/{name}"), canonical_digest(name, &json));
    }
    pins.check();
}
