//! Serde round-trips of the public artifacts: compiled programs,
//! schedules, and simulator reports are data a downstream user will cache
//! to disk (the paper's artifact stores execution traces the same way).
//! The JSON writer streams values without building a `Value` tree; its
//! bytes are pinned against a plain rendering of that tree.

use elk::compiler::{Compiler, DeviceProgram, Schedule};
use elk::prelude::*;
use elk::sim::SimReport;
use proptest::prelude::*;
use serde::{Serialize, Value};

fn fixture() -> (SystemConfig, elk::model::ModelGraph) {
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 2;
    (presets::ipu_pod4(), cfg.build(Workload::decode(8, 512), 4))
}

#[test]
fn device_program_round_trips_through_json() {
    let (system, graph) = fixture();
    let plan = Compiler::new(system).compile(&graph).expect("compile");
    let json = serde_json::to_string(&plan.program).expect("serialize");
    let back: DeviceProgram = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, plan.program);
    back.validate().expect("still well-formed");
}

#[test]
fn schedule_round_trips_through_json() {
    let (system, graph) = fixture();
    let plan = Compiler::new(system).compile(&graph).expect("compile");
    let json = serde_json::to_string(&plan.schedule).expect("serialize");
    let back: Schedule = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, plan.schedule);
}

#[test]
fn sim_report_round_trips_through_json() {
    let (system, graph) = fixture();
    let plan = Compiler::new(system.clone())
        .compile(&graph)
        .expect("compile");
    let report = simulate(
        &plan.program,
        &system,
        &SimOptions::default().with_trace(16),
    );
    let json = serde_json::to_string(&report).expect("serialize");
    let back: SimReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, report);
}

#[test]
fn model_graph_and_system_round_trip() {
    let (system, graph) = fixture();
    let gj = serde_json::to_string(&graph).expect("graph");
    let back: elk::model::ModelGraph = serde_json::from_str(&gj).expect("graph back");
    assert_eq!(back, graph);
    assert_eq!(back.total_hbm_load(), graph.total_hbm_load());
    let sj = serde_json::to_string(&system).expect("system");
    let sys_back: SystemConfig = serde_json::from_str(&sj).expect("system back");
    assert_eq!(sys_back, system);
}

// ---- the JSON writer is byte-identical to walking the Value tree ----

/// A plain recursive emitter over a finished [`Value`] tree: the
/// reference the streaming JSON writer must match byte for byte.
fn reference_json(v: &Value, pretty: bool) -> String {
    fn block<T>(
        out: &mut String,
        (open, close): (char, char),
        items: &[T],
        pretty: bool,
        level: usize,
        mut item: impl FnMut(&mut String, &T),
    ) {
        out.push(open);
        if items.is_empty() {
            out.push(close);
            return;
        }
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(level + 1));
            }
            item(out, x);
        }
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        out.push(close);
    }
    fn string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn walk(out: &mut String, v: &Value, pretty: bool, level: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(x) if x.is_nan() => out.push_str("\"NaN\""),
            Value::F64(x) if x.is_infinite() && *x > 0.0 => out.push_str("\"Infinity\""),
            Value::F64(x) if x.is_infinite() => out.push_str("\"-Infinity\""),
            Value::F64(x) => out.push_str(&format!("{x:?}")),
            Value::Str(s) => string(out, s),
            Value::Seq(items) => block(out, ('[', ']'), items, pretty, level, |out, x| {
                walk(out, x, pretty, level + 1);
            }),
            Value::Map(entries) => block(out, ('{', '}'), entries, pretty, level, |out, (k, x)| {
                string(out, k);
                out.push_str(if pretty { ": " } else { ":" });
                walk(out, x, pretty, level + 1);
            }),
        }
    }
    let mut out = String::new();
    walk(&mut out, v, pretty, 0);
    out
}

/// Compact and pretty output written straight from `v` equals the
/// reference rendering of its `to_value()` tree, and writing the tree
/// itself gives the same bytes.
fn assert_writer_matches_tree<T: Serialize + ?Sized>(label: &str, v: &T) {
    let tree = v.to_value();
    let compact = serde_json::to_string(v).expect("serialize");
    let pretty = serde_json::to_string_pretty(v).expect("serialize");
    assert_eq!(compact, reference_json(&tree, false), "{label}: compact");
    assert_eq!(pretty, reference_json(&tree, true), "{label}: pretty");
    assert_eq!(compact, serde_json::to_string(&tree).unwrap(), "{label}");
    assert_eq!(
        pretty,
        serde_json::to_string_pretty(&tree).unwrap(),
        "{label}"
    );
}

fn scenario(name: &str) -> elk::spec::ScenarioSpec {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    elk::spec::ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_report_writes_the_bytes_of_its_value_tree() {
    use elk::spec::runner;

    let (system, graph) = fixture();
    let plan = Compiler::new(system.clone())
        .compile(&graph)
        .expect("compile");
    let sim = simulate(
        &plan.program,
        &system,
        &SimOptions::default().with_trace(16),
    );
    assert_writer_matches_tree("SimReport", &sim);

    let replay = scenario("trace_replay_pin.json");
    let serve = runner::run_serve(&replay).expect("serve replay");
    assert_writer_matches_tree("ServingReport", &serve.designs[0]);
    assert_writer_matches_tree("ServeReport", &serve);
    let cluster = runner::run_cluster(&replay).expect("cluster replay");
    let rows = cluster.serving.as_ref().expect("cluster.serve is on");
    assert_writer_matches_tree("ClusterServingReport", &rows[0]);
    assert_writer_matches_tree("ClusterRunReport", &cluster);

    let auto = runner::run_cluster(&scenario("autoscale_burst.json")).expect("autoscale");
    assert_writer_matches_tree("AutoscaleReport", &auto.autoscale.as_ref().unwrap()[0]);
    assert_writer_matches_tree("autoscale run", &auto);
    let disagg = runner::run_cluster(&scenario("disagg_chat.json")).expect("disagg");
    assert_writer_matches_tree("DisaggServingReport", &disagg.disagg.as_ref().unwrap()[0]);
    assert_writer_matches_tree("disagg run", &disagg);
    let tenancy = runner::run_cluster(&scenario("tenants_overload.json")).expect("tenancy");
    assert_writer_matches_tree(
        "TenancyServingReport",
        &tenancy.tenancy.as_ref().unwrap()[0],
    );
    assert_writer_matches_tree("tenancy run", &tenancy);

    // Specs serialize through their derived (and, for the system,
    // model and tenancy specs, hand-written) impls.
    let dir = format!("{}/scenarios", env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(dir).expect("scenarios/") {
        let name = entry.expect("entry").file_name().into_string().unwrap();
        assert_writer_matches_tree(&name, &scenario(&name));
    }
}

/// A seeded random `Value` tree: every scalar kind, non-finite and
/// extreme floats, strings that need escaping, empty containers, and
/// nesting up to `depth` levels.
fn arb_value(state: &mut u64, depth: u32) -> Value {
    let mut next = || {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    const FLOATS: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        1e-7,
        1.5e16,
        0.1,
        -2.5,
        f64::MAX,
        f64::MIN_POSITIVE,
    ];
    const STRS: [&str; 7] = [
        "",
        "plain",
        "q\"uote",
        "back\\slash",
        "nl\n\tcr\r",
        "\u{1}\u{1f}",
        "é日\u{7f}",
    ];
    let kinds = if depth == 0 { 7 } else { 9 };
    match next() % kinds {
        0 => Value::Null,
        1 => Value::Bool(next() % 2 == 0),
        2 => Value::U64(if next() % 2 == 0 {
            u64::MAX
        } else {
            next() % 1000
        }),
        3 => Value::I64(if next() % 2 == 0 {
            i64::MIN
        } else {
            -((next() % 1000) as i64)
        }),
        4 => Value::F64(FLOATS[(next() % 10) as usize]),
        5 => Value::F64(f64::from_bits(next())),
        6 => Value::Str(STRS[(next() % 7) as usize].to_string()),
        7 => {
            let n = next() % 4;
            Value::Seq((0..n).map(|_| arb_value(state, depth - 1)).collect())
        }
        _ => {
            let n = next() % 4;
            Value::Map(
                (0..n)
                    .map(|i| {
                        (
                            format!("{}{i}", STRS[(i % 7) as usize]),
                            arb_value(state, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    // Writing a tree — through `impl Serialize for Value` — matches the
    // reference rendering, compact and pretty, and rebuilding the tree
    // from the sink calls loses nothing.
    #[test]
    fn value_trees_write_like_the_reference(seed in any::<u64>(), depth in 0u32..5) {
        let mut state = seed;
        let v = arb_value(&mut state, depth);
        prop_assert_eq!(serde_json::to_string(&v).unwrap(), reference_json(&v, false));
        prop_assert_eq!(serde_json::to_string_pretty(&v).unwrap(), reference_json(&v, true));
        prop_assert_eq!(reference_json(&serde::build_value(&v), true), reference_json(&v, true));
    }
}
