//! Golden guarantees of the scenario layer:
//!
//! 1. every file in `scenarios/` parses under the strict schema;
//! 2. `scenarios/paper_default.json` resolves to the *exact* hardcoded
//!    paper setup (preset system, zoo model, default workload) — the
//!    spec layer adds no drift;
//! 3. compiling through the spec path produces a byte-identical
//!    `SimReport` to the equivalent preset-path run, and its total
//!    matches the constant pinned in `golden_report.rs`;
//! 4. `elk sweep` output is byte-identical at `--threads 1` vs `8`.

use elk::baselines::{Design, DesignRunner};
use elk::prelude::*;
use elk::spec::spec::SystemSpec;
use elk::spec::sweep::set_path;
use elk::spec::{run_sweep, runner, ScenarioSpec};

fn read_scenario(name: &str) -> String {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_checked_in_scenario_parses() {
    let dir = format!("{}/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|ext| ext != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable scenario");
        let spec =
            ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!spec.name.is_empty());
        // Every scenario must build its system and model — a file that
        // parses but names an unknown preset/alias is still broken.
        spec.system.to_system().expect("system builds");
        spec.model.resolve().expect("model resolves");
        seen += 1;
    }
    assert!(
        seen >= 7,
        "expected the checked-in scenario set, saw {seen}"
    );
}

#[test]
fn paper_default_matches_the_hardcoded_paper_setup() {
    let spec = ScenarioSpec::from_json(&read_scenario("paper_default.json")).expect("parses");
    assert_eq!(spec.system, SystemSpec::Preset("ipu_pod4".into()));
    assert_eq!(spec.system.to_system().unwrap(), presets::ipu_pod4());

    let elk::spec::ResolvedModel::Llm(model) = spec.model.resolve().unwrap() else {
        panic!("paper default serves a dense LLM");
    };
    assert_eq!(model, zoo::llama2_13b());

    assert_eq!(
        spec.workload.to_workload().unwrap(),
        Workload::decode(32, 2048)
    );
    assert_eq!(
        spec.workload.shards_for(&presets::ipu_pod4()).unwrap(),
        4,
        "defaults to one shard per chip"
    );
    assert_eq!(spec.compiler.design, vec![Design::ElkFull]);
}

/// The byte-identity acceptance check, doctest-sized: the paper-default
/// scenario with the model cut to 2 layers and the workload shrunk to
/// the golden-report shape must compile to the byte-identical
/// `SimReport` the preset path produces — and that report's total is
/// the constant `golden_report.rs` pins, so scenario path ≡ preset
/// path ≡ pinned history.
#[test]
fn paper_default_compiles_byte_identical_to_the_preset_path() {
    // Shrink via the sweep override machinery, which is exactly what
    // `elk sweep` does to a grid point.
    let mut doc: serde::Value =
        serde_json::from_str(&read_scenario("paper_default.json")).expect("valid JSON");
    set_path(&mut doc, "model.layers", serde::Value::U64(2)).unwrap();
    set_path(&mut doc, "workload.batch", serde::Value::U64(16)).unwrap();
    set_path(&mut doc, "workload.seq_len", serde::Value::U64(512)).unwrap();
    let spec: ScenarioSpec = serde::Deserialize::from_value(&doc).expect("still a valid scenario");

    // Spec path.
    let report = runner::run_compile(&spec).expect("spec path compiles");
    assert_eq!(report.designs.len(), 1);
    let spec_sim = &report.designs[0].report;

    // Preset path: the same engine calls, written out by hand.
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 2;
    let graph = cfg.build(Workload::decode(16, 512), 4);
    let runner_hw = DesignRunner::new(presets::ipu_pod4()).with_threads(1);
    let catalog = runner_hw.catalog(&graph).expect("catalog");
    let outcome = runner_hw
        .run(Design::ElkFull, &graph, &catalog, &SimOptions::default())
        .expect("preset path compiles");

    assert_eq!(
        serde_json::to_string(spec_sim).expect("serialize"),
        serde_json::to_string(&outcome.report).expect("serialize"),
        "spec-path SimReport must be byte-identical to the preset path"
    );

    // Tie to the pinned golden constant (same tolerance as
    // golden_report.rs).
    let want = 1.931_976_061_036_663_2e-4;
    let got = spec_sim.total.as_secs();
    assert!(
        (got - want).abs() <= 1e-9 * want,
        "scenario-path total {got:?} drifted from the pinned golden value {want:?}"
    );
}

/// `elk sweep --threads 1` vs `--threads 8` on the checked-in sweep
/// scenario (grid shrunk to stay debug-test-sized) must emit identical
/// bytes.
#[test]
fn sweep_scenario_is_thread_count_invariant() {
    let mut doc: serde::Value =
        serde_json::from_str(&read_scenario("sweep_batch.json")).expect("valid JSON");
    set_path(&mut doc, "workload.seq_len", serde::Value::U64(512)).unwrap();
    set_path(
        &mut doc,
        "sweep.axes",
        serde_json::from_str(r#"[{"path": "workload.batch", "values": [8, 16]}]"#).unwrap(),
    )
    .unwrap();

    let seq = run_sweep(&doc, 1).expect("sweep @1");
    let par = run_sweep(&doc, 8).expect("sweep @8");
    assert_eq!(seq.points.len(), 2);
    assert_eq!(
        serde_json::to_string(&seq).expect("serialize"),
        serde_json::to_string(&par).expect("serialize"),
        "sweep report must be byte-identical at any thread count"
    );
    // And each point really did run both designs of the base scenario.
    let point = &seq.points[0];
    let designs = point.report.get("designs").expect("compile report");
    let serde::Value::Seq(designs) = designs else {
        panic!("designs is an array");
    };
    assert_eq!(designs.len(), 2, "basic + elk_full from the base file");
}

/// `elk serve`/`elk cluster` on a model the engine cannot batch (MoE)
/// exit 0 but must leave a structured `*.skipped.json` marker — a
/// results directory where "skipped by design" and "never ran" look
/// identical is a silent-failure trap.
#[test]
fn moe_skip_writes_a_structured_marker() {
    let out = std::env::temp_dir().join(format!("elk-skip-marker-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let scenario = format!("{}/scenarios/moe_mixtral.json", env!("CARGO_MANIFEST_DIR"));
    for command in ["serve", "cluster"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
            .args([command, &scenario, "--out"])
            .arg(&out)
            .output()
            .expect("spawn elk");
        assert!(
            output.status.success(),
            "`elk {command}` on MoE must exit 0"
        );
        let marker = out.join(format!("moe_mixtral.{command}.skipped.json"));
        let text = std::fs::read_to_string(&marker)
            .unwrap_or_else(|e| panic!("{}: {e}", marker.display()));
        let v: serde::Value = serde_json::from_str(&text).expect("marker parses");
        assert_eq!(v.get("skipped"), Some(&serde::Value::Bool(true)));
        assert_eq!(
            v.get("command"),
            Some(&serde::Value::Str(command.to_string()))
        );
        assert_eq!(
            v.get("scenario"),
            Some(&serde::Value::Str("moe_mixtral".to_string()))
        );
        assert!(
            v.get("reason")
                .is_some_and(|r| matches!(r, serde::Value::Str(s) if !s.is_empty())),
            "marker must say why the run was skipped"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// A shard count that does not divide the model's heads is a spec
/// error (exit 2 with a message), not a panic in the graph builder.
#[test]
fn indivisible_shards_exit_with_a_spec_error() {
    let dir = std::env::temp_dir().join(format!("elk-bad-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("bad_shards.json");
    std::fs::write(
        &scenario,
        r#"{"name": "bad_shards", "model": {"zoo": "llama13", "layers": 2},
            "workload": {"shards": 3}}"#,
    )
    .expect("write scenario");
    for command in ["compile", "simulate", "serve"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
            .arg(command)
            .arg(&scenario)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("spawn elk");
        let code = output.status.code();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            matches!(code, Some(1 | 2)),
            "`elk {command}` must fail cleanly, got {code:?}: {stderr}"
        );
        assert!(
            stderr.contains("heads (40)") && stderr.contains("shards (3)"),
            "`elk {command}` must name heads and shards: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A workload no operator plan can fit is a compile error (exit 1)
/// whose message names the chip's real per-core SRAM budget.
#[test]
fn infeasible_workload_names_the_per_core_capacity() {
    let dir = std::env::temp_dir().join(format!("elk-big-seq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("big_seq.json");
    std::fs::write(
        &scenario,
        r#"{"name": "big_seq", "model": {"zoo": "llama13", "layers": 2},
            "workload": {"seq_len": 100000000}}"#,
    )
    .expect("write scenario");
    let capacity = presets::ipu_pod4().chip.usable_sram_per_core();
    assert!(capacity > Bytes::ZERO);
    for command in ["compile", "simulate"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
            .arg(command)
            .arg(&scenario)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("spawn elk");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "`elk {command}`: {stderr}");
        assert!(
            stderr.contains(&format!("within {capacity} per core")),
            "`elk {command}` must name the usable SRAM ({capacity}): {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An explicit model config with a zero dimension, or a MoE routing
/// more experts per token than it has, is a spec error (exit 2) that
/// names the field — not a failed plan search or a silently wrong
/// report.
#[test]
fn invalid_explicit_model_configs_exit_2_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("elk-bad-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let transformer = |hidden: u64, kv_heads: u64| {
        format!(
            r#"{{"transformer": {{"name": "x", "layers": 2, "hidden": {hidden}, "heads": 8,
                "kv_heads": {kv_heads}, "head_dim": 128, "intermediate": 3072, "vocab": 32000,
                "glu": true, "norm": "Rms", "rope": true, "post_norms": false}}}}"#
        )
    };
    let cases = [
        ("zero_hidden", transformer(0, 8), "model.transformer.hidden"),
        (
            "zero_kv_heads",
            transformer(1024, 0),
            "model.transformer.kv_heads",
        ),
        (
            "moe_top_k",
            r#"{"moe": {"name": "m", "layers": 2, "hidden": 1024, "heads": 8, "kv_heads": 8,
                "head_dim": 128, "expert_intermediate": 2048, "experts": 2,
                "experts_per_token": 4, "vocab": 32000}}"#
                .to_string(),
            "experts_per_token",
        ),
    ];
    for (name, model, field) in cases {
        let scenario = dir.join(format!("{name}.json"));
        std::fs::write(
            &scenario,
            format!(r#"{{"name": "{name}", "model": {model}}}"#),
        )
        .expect("write scenario");
        for command in ["compile", "simulate"] {
            let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
                .arg(command)
                .arg(&scenario)
                .arg("--out")
                .arg(&dir)
                .output()
                .expect("spawn elk");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "`elk {command}` on {name}: {stderr}"
            );
            assert!(
                stderr.contains(field),
                "`elk {command}` on {name} must name `{field}`: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A finite number that overflows during unit conversion — a rate that
/// becomes infinite in bytes or FLOP/s, a KiB or GiB count past 64 bits
/// of bytes — is a spec error (exit 2) naming the field, in debug and
/// release builds alike: not a panic (101), and not a silently wrapped
/// chip (0).
#[test]
fn overflowing_unit_conversions_exit_2_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("elk-overflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let huge = serde::Value::F64(1e300);
    let max = serde::Value::U64(u64::MAX);
    let cases = [
        ("system.chip.matmul_tflops", &huge),
        ("system.chip.vector_tflops", &huge),
        ("system.chip.sram_bw_gb_s", &huge),
        ("system.chip.topology.mesh.total_gib_s", &huge),
        ("system.hbm.channel_bw_gib_s", &huge),
        ("system.inter_chip_bw_gib_s", &huge),
        ("system.chip.sram_per_core_kib", &max),
        ("system.hbm.capacity_gib", &max),
    ];
    for (path, value) in cases {
        let mut doc: serde::Value =
            serde_json::from_str(&read_scenario("custom_chip_dse.json")).expect("valid JSON");
        set_path(&mut doc, path, value.clone()).unwrap();
        let scenario = dir.join("overflow.json");
        std::fs::write(&scenario, serde_json::to_string(&doc).expect("serializes"))
            .expect("write scenario");
        let field = path.rsplit('.').next().expect("a leaf key");
        for command in ["simulate", "serve", "cluster"] {
            let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
                .arg(command)
                .arg(&scenario)
                .arg("--out")
                .arg(&dir)
                .output()
                .expect("spawn elk");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "`elk {command}` with {path} = {value:?}: {stderr}"
            );
            assert!(
                stderr.contains(field),
                "`elk {command}` must name `{field}`: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Workload dimensions whose per-shard element or byte counts overflow
/// 64 bits are a spec error (exit 2) naming `workload`: not a panic in
/// the graph builder (101), and not a report on a wrapped token count
/// (0).
#[test]
fn overflowing_workload_dimensions_exit_2_naming_the_workload() {
    let dir = std::env::temp_dir().join(format!("elk-overflow-wl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for side in [1u64 << 32, 1 << 31] {
        let mut doc: serde::Value =
            serde_json::from_str(&read_scenario("custom_chip_dse.json")).expect("valid JSON");
        let prefill = serde::Value::Str("prefill".into());
        set_path(&mut doc, "workload.phase", prefill).unwrap();
        set_path(&mut doc, "workload.batch", serde::Value::U64(side)).unwrap();
        set_path(&mut doc, "workload.seq_len", serde::Value::U64(side)).unwrap();
        let scenario = dir.join("overflow.json");
        std::fs::write(&scenario, serde_json::to_string(&doc).expect("serializes"))
            .expect("write scenario");
        for command in ["simulate", "serve", "cluster"] {
            let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
                .arg(command)
                .arg(&scenario)
                .arg("--out")
                .arg(&dir)
                .output()
                .expect("spawn elk");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "`elk {command}` with prefill batch = seq_len = {side}: {stderr}"
            );
            assert!(
                stderr.contains("workload"),
                "`elk {command}` must name `workload`: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request count past `TraceConfig::MAX_REQUESTS` is a spec error
/// (exit 2) naming the field's full dotted path, under every command
/// that builds the trace: not a capacity-overflow panic (101) at 2^64 -
/// 1, nor an allocation that aborts at 2^32, in the generator.
/// `simulate` never builds a trace, so it is not asked.
#[test]
fn huge_request_counts_exit_2_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("elk-huge-requests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases: [(&str, &str, &[&[&str]]); 2] = [
        (
            "serving_burst.json",
            "serving.trace.requests",
            &[&["serve"], &["cluster"]],
        ),
        (
            "trace_gen_golden.json",
            "workload.trace.generate.requests",
            &[&["serve"], &["cluster"], &["trace", "gen"]],
        ),
    ];
    for ((base, path, commands), requests) in
        cases.iter().flat_map(|c| [(c, u64::MAX), (c, 1 << 32)])
    {
        let mut doc: serde::Value = serde_json::from_str(&read_scenario(base)).expect("valid JSON");
        set_path(&mut doc, path, serde::Value::U64(requests)).unwrap();
        let scenario = dir.join("huge.json");
        std::fs::write(&scenario, serde_json::to_string(&doc).expect("serializes"))
            .expect("write scenario");
        for command in *commands {
            let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
                .args(*command)
                .arg(&scenario)
                .arg("--out")
                .arg(&dir)
                .output()
                .expect("spawn elk");
            let stderr = String::from_utf8_lossy(&output.stderr);
            let command = command.join(" ");
            assert_eq!(
                output.status.code(),
                Some(2),
                "`elk {command}` with {path} = {requests}: {stderr}"
            );
            assert!(
                stderr.contains(path),
                "`elk {command}` must name `{path}`: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sizes past their stated limits are spec errors (exit 2) naming the
/// field: a plan whose degrees wrap the chip count or the stage count
/// (a 101 panic in `stages`), replica counts and trace samples that go
/// straight into an allocation (an abort, or a capacity-overflow
/// panic), and an autoscale interval or output lengths whose simulated
/// work never ends.
#[test]
fn sizes_past_their_limits_exit_2_naming_the_field() {
    use serde::Value;
    let dir = std::env::temp_dir().join(format!("elk-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let long_outputs =
        serde_json::from_str(r#"{"Uniform": {"lo": 1, "hi": 4294967295}}"#).expect("valid JSON");
    let cases: [(&str, &str, Value, &str, &[&str]); 10] = [
        (
            "cluster_router_burst.json",
            "cluster.plan.pp",
            Value::U64(1 << 63),
            "cluster.plan",
            &["cluster"],
        ),
        (
            "serving_burst.json",
            "serving.replicas",
            Value::U64(1 << 32),
            "serving.replicas",
            &["serve", "cluster"],
        ),
        (
            "serving_burst.json",
            "serving.replicas",
            Value::U64(u64::MAX),
            "serving.replicas",
            &["serve"],
        ),
        (
            "paper_default.json",
            "sim.trace_samples",
            Value::U64(1 << 32),
            "sim.trace_samples",
            &["simulate"],
        ),
        (
            "paper_default.json",
            "sim.trace_samples",
            Value::U64(u64::MAX),
            "sim.trace_samples",
            &["simulate"],
        ),
        (
            "autoscale_burst.json",
            "cluster.autoscale.interval_ms",
            Value::F64(1e-9),
            "cluster.autoscale.interval_ms",
            &["cluster"],
        ),
        (
            "autoscale_burst.json",
            "cluster.autoscale.interval_ms",
            Value::F64(1e-300),
            "cluster.autoscale.interval_ms",
            &["cluster"],
        ),
        (
            "serving_burst.json",
            "serving.trace.output_len",
            long_outputs,
            "serving.trace.output_len",
            &["serve", "cluster"],
        ),
        // 2³¹ layers, past `ResolvedModel::MAX_LAYERS`: the run once grew
        // until the OS killed it (137).
        (
            "paper_default.json",
            "model.layers",
            Value::U64(1 << 31),
            "model.layers",
            &["simulate", "cluster"],
        ),
        (
            "custom_chip_dse.json",
            "model.transformer.layers",
            Value::U64(1 << 31),
            "model.transformer.layers",
            &["simulate", "cluster"],
        ),
    ];
    for (base, path, value, field, commands) in cases {
        let mut doc: Value = serde_json::from_str(&read_scenario(base)).expect("valid JSON");
        set_path(&mut doc, path, value.clone()).unwrap();
        let scenario = dir.join("limits.json");
        std::fs::write(&scenario, serde_json::to_string(&doc).expect("serializes"))
            .expect("write scenario");
        for &command in commands {
            let args: &[&str] = if command == "trace" {
                &["trace", "gen"]
            } else {
                &[command]
            };
            let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
                .args(args)
                .arg(&scenario)
                .arg("--out")
                .arg(&dir)
                .output()
                .expect("spawn elk");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "`elk {command}` on {base} with {path} = {value:?}: {stderr}"
            );
            assert!(
                stderr.contains(field),
                "`elk {command}` must name `{field}`: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replica-group counts past `ParallelismPlan::MAX_GROUPS` on a pod that
/// holds them (2⁶⁴−1 chips of 1472 cores) are spec errors naming the
/// field: disaggregated pools of 2⁶² groups each once panicked on a
/// capacity overflow (101), and 2⁴⁰ autoscale groups aborted on a
/// 220 TB allocation (134).
#[test]
fn huge_group_counts_exit_2_naming_the_field() {
    use serde::Value;
    let dir = std::env::temp_dir().join(format!("elk-groups-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let custom: Value =
        serde_json::from_str(&read_scenario("custom_chip_dse.json")).expect("valid JSON");
    let mut pod = custom.get("system").expect("custom chip system").clone();
    set_path(&mut pod, "chip.cores", Value::U64(1472)).unwrap();
    set_path(&mut pod, "chips", Value::U64(u64::MAX)).unwrap();
    let cases: [(&str, &[&str], u64, &str); 2] = [
        (
            "disagg_chat.json",
            &[
                "cluster.disaggregate.prefill.dp",
                "cluster.disaggregate.decode.dp",
            ],
            1 << 62,
            "cluster.disaggregate: prefill pool: tp1·pp1·dp4611686018427387904: dp must be at most 1024",
        ),
        (
            "autoscale_burst.json",
            &["cluster.autoscale.max_groups"],
            1 << 40,
            "cluster.autoscale: autoscale max_groups (1099511627776) must be at most 1024",
        ),
    ];
    for (base, paths, groups, message) in cases {
        let mut doc: Value = serde_json::from_str(&read_scenario(base)).expect("valid JSON");
        set_path(&mut doc, "system", pod.clone()).unwrap();
        for path in paths {
            set_path(&mut doc, path, Value::U64(groups)).unwrap();
        }
        let scenario = dir.join("groups.json");
        std::fs::write(&scenario, serde_json::to_string(&doc).expect("serializes"))
            .expect("write scenario");
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
            .arg("cluster")
            .arg(&scenario)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("spawn elk");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{base}: {stderr}");
        assert!(
            stderr.contains(message),
            "{base} must say `{message}`: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The auto-parallelism search on a pod of 2⁴⁰ chips once walked `tp`
/// over every chip count and never ended. Bounded by the model's heads
/// and layers and the batch, the grid is 80 plans, and the run ends:
/// estimate-only with the searched report (exit 0), and with the
/// serving replay on a compile error (exit 1), since the `tp1·pp1·dp8`
/// plan the search picks has no feasible `lm_head` partition on this
/// chip.
#[test]
fn auto_search_on_a_huge_pod_finishes() {
    use serde::Value;
    let dir = std::env::temp_dir().join(format!("elk-huge-pod-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut doc: Value =
        serde_json::from_str(&read_scenario("custom_chip_dse.json")).expect("valid JSON");
    let Value::Map(fields) = &mut doc else {
        panic!("a scenario is an object")
    };
    fields.retain(|(key, _)| key != "sweep");
    set_path(&mut doc, "system.chips", Value::U64(1 << 40)).unwrap();
    let run = |doc: &Value| {
        let scenario = dir.join("huge-pod.json");
        std::fs::write(&scenario, serde_json::to_string(doc).expect("serializes"))
            .expect("write scenario");
        std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
            .arg("cluster")
            .arg(&scenario)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("spawn elk")
    };

    let output = run(&doc);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("`lm_head`"), "{stderr}");

    let mut estimate_only = doc.clone();
    let cluster = serde_json::from_str(r#"{"serve": false}"#).expect("valid JSON");
    if let Value::Map(fields) = &mut estimate_only {
        fields.push(("cluster".into(), cluster));
    }
    let output = run(&estimate_only);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    let report = std::fs::read_to_string(dir.join("custom_chip_dse.cluster.json")).expect("report");
    let report: Value = serde_json::from_str(&report).expect("valid JSON");
    let Some(Value::Seq(candidates)) = report.get("candidates") else {
        panic!("an auto-search report lists its candidates")
    };
    assert_eq!(candidates.len(), 80);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A typo'd sweep axis is a spec error (exit 2) that names the unknown
/// key and lists the valid keys at its level, and no report is written.
#[test]
fn typod_sweep_axis_exits_2_listing_the_valid_keys() {
    let dir = std::env::temp_dir().join(format!("elk-bad-axis-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("bad_axis.json");
    std::fs::write(
        &scenario,
        r#"{"name": "bad_axis", "model": {"zoo": "llama13", "layers": 2},
            "sweep": {"axes": [{"path": "workload.bach", "values": [8, 16]}]}}"#,
    )
    .expect("write scenario");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
        .arg("sweep")
        .arg(&scenario)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("spawn elk");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("`bach`"), "must name the key: {stderr}");
    assert!(
        stderr.contains("valid keys: ") && stderr.contains("batch") && stderr.contains("seq_len"),
        "must list the valid keys: {stderr}"
    );
    assert!(!dir.join("bad_axis.sweep.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Arrays nested past the JSON parser's recursion limit are a parse
/// error (exit 2) at any depth, not a stack overflow that aborts the
/// process.
#[test]
fn deeply_nested_json_exits_2_at_every_depth() {
    let dir = std::env::temp_dir().join(format!("elk-deep-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("deep.json");
    for depth in [129, 20_000, 50_000, 200_000] {
        std::fs::write(&scenario, "[".repeat(depth)).expect("write scenario");
        for command in ["simulate", "serve", "cluster"] {
            let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
                .arg(command)
                .arg(&scenario)
                .arg("--out")
                .arg(&dir)
                .output()
                .expect("spawn elk");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "`elk {command}` on {depth} nested arrays: {stderr}"
            );
            assert!(
                stderr.contains("recursion limit exceeded"),
                "`elk {command}` must name the limit: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A number with a leading zero is not JSON (RFC 8259, Python's
/// `json.loads` and `serde_json` all reject it): a parse error, exit 2,
/// not a run with `batch` read as 16.
#[test]
fn leading_zero_numbers_exit_2() {
    let dir = std::env::temp_dir().join(format!("elk-leading-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("leading_zero.json");
    std::fs::write(
        &scenario,
        r#"{"name": "leading-zero", "model": {"zoo": "llama13", "layers": 2},
            "workload": {"phase": "decode", "batch": 016, "seq_len": 128}}"#,
    )
    .expect("write scenario");
    for command in ["simulate", "serve", "cluster"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
            .arg(command)
            .arg(&scenario)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("spawn elk");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "`elk {command}`: {stderr}");
        assert!(
            stderr.contains("invalid number") && stderr.contains("leading zero"),
            "`elk {command}` must name the bad number: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scenario name written the way Python's `json.dumps` writes it —
/// a non-BMP character as a `\u` surrogate pair — keeps that one
/// character in the report and in the report's file name.
#[test]
fn surrogate_pair_escaped_names_round_trip_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("elk-surrogate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("emoji.json");
    std::fs::write(
        &scenario,
        r#"{"name": "chat-\ud83d\ude00", "model": {"zoo": "llama13", "layers": 2}}"#,
    )
    .expect("write scenario");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_elk"))
        .arg("simulate")
        .arg(&scenario)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("spawn elk");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    // One character, one `_` in the file-name stem.
    assert!(!dir.join("chat-__.simulate.json").exists());
    let report = dir.join("chat-_.simulate.json");
    let text =
        std::fs::read_to_string(&report).unwrap_or_else(|e| panic!("{}: {e}", report.display()));
    let v: serde::Value = serde_json::from_str(&text).expect("report parses");
    assert_eq!(
        v.get("scenario"),
        Some(&serde::Value::Str("chat-\u{1f600}".to_string()))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
