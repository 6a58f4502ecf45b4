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
//! compiled or simulated behaviour re-pins them here.

use elk::spec::sweep::set_path;
use elk::spec::{run_sweep, runner, ScenarioSpec};
use serde::Serialize;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest<T: Serialize>(value: &T) -> u64 {
    fnv1a(serde_json::to_string(value).expect("serializes").as_bytes())
}

fn scenario_doc(name: &str) -> serde::Value {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).expect("valid scenario JSON")
}

#[test]
fn sweep_reports_are_pinned() {
    for (scenario, pinned) in [
        ("sweep_batch.json", 0x5170_4eec_46ff_5cff_u64),
        ("custom_chip_dse.json", 0xeab2_9a42_1341_874d),
    ] {
        let report = run_sweep(&scenario_doc(scenario), 2).expect("sweep runs");
        let got = digest(&report);
        assert_eq!(got, pinned, "{scenario}: sweep report digest 0x{got:016x}");
    }
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
    let got = digest(&report);
    assert_eq!(
        got, 0x66aa_b94a_d1de_0607,
        "cluster report digest 0x{got:016x}"
    );
}
