//! Whole-report pins for the design-space drivers: the `elk sweep`
//! reports of `scenarios/sweep_batch.json` and
//! `scenarios/custom_chip_dse.json`, and the `elk cluster` auto-search
//! report of `scenarios/pod4_llama_tp_pp.json` (shrunk to test size as
//! `cluster_golden.rs` shrinks it), each as an FNV-1a digest of its
//! serialized JSON.
//!
//! These drivers build many runners of one chip (sweep points, cluster
//! candidates), so they are where sharing a fitted cost model or plan
//! sets between runners could change a number. A refactor of that
//! sharing must leave every digest unchanged; a deliberate change to
//! compiled or simulated behaviour re-pins them in
//! `tests/pins/sweep_cluster.pins`.

use elk::spec::sweep::set_path;
use elk::spec::{run_sweep, runner, ScenarioSpec};
use elk_pins::{digest, Pins};
fn scenario_doc(name: &str) -> serde::Value {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).expect("valid scenario JSON")
}

#[test]
fn sweep_reports_are_pinned() {
    let mut pins = Pins::new("sweep_cluster", "sweep");
    for scenario in ["sweep_batch.json", "custom_chip_dse.json"] {
        let report = run_sweep(&scenario_doc(scenario), 2).expect("sweep runs");
        pins.add(scenario, digest(&report));
    }
    pins.check();
}

#[test]
fn cluster_auto_search_report_is_pinned() {
    let mut doc = scenario_doc("pod4_llama_tp_pp.json");
    set_path(&mut doc, "model.layers", serde::Value::U64(2)).unwrap();
    set_path(&mut doc, "workload.batch", serde::Value::U64(8)).unwrap();
    set_path(&mut doc, "workload.seq_len", serde::Value::U64(512)).unwrap();
    set_path(&mut doc, "cluster.threads", serde::Value::U64(1)).unwrap();
    let spec: ScenarioSpec = serde::Deserialize::from_value(&doc).expect("valid scenario");
    let report = runner::run_cluster(&spec).expect("cluster run succeeds");
    assert!(report.auto, "no pinned plan: the search must have run");
    let mut pins = Pins::new("sweep_cluster", "cluster");
    pins.add("pod4_llama_tp_pp.json", digest(&report));
    pins.check();
}
