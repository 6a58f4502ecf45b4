//! Whole-output pins for the serving engines.
//!
//! The golden suites pin selected fields (percentiles, step counts,
//! event totals). This suite pins *everything* each engine emits — the
//! full serialized report, the Chrome-trace timeline and the metrics
//! export — as FNV-1a digests, on the checked-in
//! `traces/golden_small.jsonl` and on a small generated burst trace.
//! A refactor of the serving core must leave every digest unchanged;
//! a deliberate change to simulated behaviour re-pins them in
//! `tests/pins/engine.pins`.
//!
//! The only field left out is `ServingReport::cache`: its hit/miss
//! split is not part of the deterministic output contract.

use std::sync::Arc;

use elk::cluster::{
    AutoscaleConfig, AutoscaleServingSim, ClusterServeConfig, ClusterServingSim, DisaggConfig,
    DisaggServingSim, ParallelismPlan, TenantServingSim,
};
use elk::obs::{export, MemRecorder, Obs, ObsBuf};
use elk::prelude::*;
use elk::serve::{CacheStats, RouterPolicy, ShedPolicy, TenancyConfig, TenantClass};
use elk_pins::{digest, Pins};

/// Adds the digests of the recorded timeline and metrics export.
fn add_obs(pins: &mut Pins, name: &str, buf: &ObsBuf) {
    pins.add(
        format!("{name}/timeline"),
        digest(&export::chrome_trace(buf)),
    );
    pins.add(format!("{name}/metrics"), digest(&export::metrics(buf)));
}

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

fn cluster_config(plan: ParallelismPlan) -> ClusterServeConfig {
    ClusterServeConfig {
        batch: batch(),
        ..ClusterServeConfig::new(model(), plan)
    }
}

/// `(name, trace, tenant assignments)` for both inputs.
fn traces() -> Vec<(&'static str, RequestTrace, Vec<String>)> {
    let path = format!("{}/traces/golden_small.jsonl", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let golden = TraceFile::parse(&text).expect("golden trace parses");
    let burst = TraceConfig {
        seed: 29,
        requests: 40,
        rate: RateShape::bursty(300.0, 4.0, 0.2, 0.2).expect("valid burst recipe"),
        prompt_len: LengthModel::Uniform { lo: 60, hi: 900 },
        output_len: LengthModel::Uniform { lo: 1, hi: 10 },
    }
    .generate();
    let burst_tenants = (0..burst.len())
        .map(|i| ["t0", "t1", "t1"][i % 3].to_string())
        .collect();
    vec![
        (
            "golden",
            golden.to_request_trace(),
            golden.tenant_assignments(),
        ),
        ("burst", burst, burst_tenants),
    ]
}

fn recorder() -> (Arc<MemRecorder>, Obs) {
    let rec = Arc::new(MemRecorder::new());
    let obs = Obs::new(rec.clone(), 16);
    (rec, obs)
}

#[test]
fn replica_engine_output_is_pinned() {
    let mut pins = Pins::new("engine", "replica");
    for (name, trace, _) in traces() {
        let (rec, obs) = recorder();
        let mut config = ServeConfig::new(model(), 2).with_replicas(2);
        config.batch = batch();
        let mut sim = ServingSim::new(presets::ipu_pod4(), config);
        sim.set_obs(obs);
        for design in [Design::ElkFull, Design::Basic] {
            let mut report = sim.run(design, &trace).expect("serves");
            report.cache = CacheStats::default();
            pins.add(format!("serve/{name}/{design}"), digest(&report));
        }
        add_obs(&mut pins, &format!("serve/{name}"), &rec.take_buf());
    }
    pins.check();
}

#[test]
fn cluster_engine_output_is_pinned_under_every_policy() {
    let mut pins = Pins::new("engine", "cluster");
    for (name, trace, _) in traces() {
        let (rec, obs) = recorder();
        let mut sim = ClusterServingSim::new(
            presets::ipu_pod4(),
            cluster_config(ParallelismPlan::new(2, 1, 2)),
        )
        .expect("valid plan");
        sim.set_obs(obs);
        for policy in RouterPolicy::all() {
            let report = sim.run(Design::ElkFull, policy, &trace).expect("serves");
            pins.add(format!("cluster/{name}/{policy}"), digest(&report));
        }
        add_obs(&mut pins, &format!("cluster/{name}"), &rec.take_buf());
    }
    pins.check();
}

#[test]
fn autoscale_engine_output_is_pinned() {
    let mut pins = Pins::new("engine", "autoscale");
    for (name, trace, _) in traces() {
        let (rec, obs) = recorder();
        let auto = AutoscaleConfig {
            min_groups: 1,
            max_groups: 3,
            interval: Seconds::from_millis(5.0),
            up_queue_depth: 0.5,
            down_queue_depth: 0.1,
            slo_target: 0.9,
            cold_start_steps: 4.0,
        };
        let mut sim = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            cluster_config(ParallelismPlan::new(1, 1, 1)),
            auto,
        )
        .expect("valid config");
        sim.set_obs(obs);
        let report = sim.run(Design::ElkFull, &trace).expect("serves");
        if name == "burst" {
            assert!(
                report.scale_ups > 1 && report.scale_downs > 0,
                "the burst scales the fleet"
            );
        }
        pins.add(format!("autoscale/{name}"), digest(&report));
        add_obs(&mut pins, &format!("autoscale/{name}"), &rec.take_buf());
    }
    pins.check();
}

/// Three classes on a two-model pod: a premium class, a rate-limited
/// sheddable class, and a class served by a second model.
fn mixed_tenancy(shed_policy: ShedPolicy) -> TenancyConfig {
    TenancyConfig {
        classes: vec![
            TenantClass::named("premium"),
            TenantClass {
                priority: 7,
                sheddable: true,
                rate_rps: Some(80.0),
                burst: 3,
                ..TenantClass::named("best_effort")
            },
            TenantClass {
                priority: 3,
                model: Some("opt30".to_string()),
                ..TenantClass::named("opt_class")
            },
        ],
        tenants: vec![
            ("t0".to_string(), "premium".to_string()),
            ("t2".to_string(), "opt_class".to_string()),
        ],
        default_class: "best_effort".to_string(),
        shed_queue_depth: Some(0.3),
        shed_policy,
        defer_s: 0.05,
    }
}

#[test]
fn tenancy_engine_output_is_pinned_for_default_and_mixed_classes() {
    let mut pins = Pins::new("engine", "tenancy");
    for (name, trace, tenants) in traces() {
        let (rec, obs) = recorder();
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            cluster_config(ParallelismPlan::new(2, 1, 2)),
            TenancyConfig::default(),
        )
        .expect("valid config");
        sim.set_obs(obs);
        for policy in RouterPolicy::all() {
            let report = sim
                .run(Design::ElkFull, policy, &trace, &[])
                .expect("serves");
            pins.add(format!("tenancy/{name}/default/{policy}"), digest(&report));
        }
        add_obs(
            &mut pins,
            &format!("tenancy/{name}/default"),
            &rec.take_buf(),
        );

        // Every third request of the mixed runs goes to the second model.
        let mixed_tenants: Vec<String> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if i % 3 == 2 {
                    "t2".to_string()
                } else {
                    t.clone()
                }
            })
            .collect();
        for (label, shed) in [("reject", ShedPolicy::Reject), ("defer", ShedPolicy::Defer)] {
            let (rec, obs) = recorder();
            let mut sim = TenantServingSim::new(
                presets::ipu_pod4(),
                cluster_config(ParallelismPlan::new(1, 1, 3)),
                mixed_tenancy(shed),
            )
            .expect("valid config");
            sim.set_obs(obs);
            let report = sim
                .run(
                    Design::ElkFull,
                    RouterPolicy::LeastOutstanding,
                    &trace,
                    &mixed_tenants,
                )
                .expect("serves");
            if name == "burst" {
                assert!(report.rejected + report.deferred > 0, "the burst sheds");
            }
            pins.add(format!("tenancy/{name}/mixed-{label}"), digest(&report));
            add_obs(
                &mut pins,
                &format!("tenancy/{name}/mixed-{label}"),
                &rec.take_buf(),
            );
        }
    }
    pins.check();
}

/// Every pinned disaggregated layout:
/// `(label, prefill pool, decode pool, shared_chips, chunk_tokens)`.
fn disagg_layouts() -> [(&'static str, ParallelismPlan, ParallelismPlan, bool, u64); 5] {
    let dp2 = ParallelismPlan::new(1, 1, 2);
    [
        ("disjoint-chunk256", dp2, dp2, false, 256),
        ("disjoint", dp2, dp2, false, 0),
        ("shared", dp2, dp2, true, 0),
        ("shared-chunk256", dp2, dp2, true, 256),
        (
            "unequal-chunk512",
            ParallelismPlan::new(2, 1, 1),
            dp2,
            false,
            512,
        ),
    ]
}

fn disagg_config(prefill: ParallelismPlan, decode: ParallelismPlan) -> DisaggConfig {
    DisaggConfig {
        batch: batch(),
        ..DisaggConfig::new(model(), prefill, decode)
    }
}

#[test]
fn disaggregated_engine_output_is_pinned() {
    let mut pins = Pins::new("engine", "disagg");
    for (name, trace, _) in traces() {
        let (rec, obs) = recorder();
        let dp2 = ParallelismPlan::new(1, 1, 2);
        let config = DisaggConfig {
            chunk_tokens: 256,
            ..disagg_config(dp2, dp2)
        };
        let mut sim = DisaggServingSim::new(presets::ipu_pod4(), config).expect("valid pools");
        sim.set_obs(obs);
        let report = sim
            .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
            .expect("serves");
        pins.add(format!("disagg/{name}"), digest(&report));
        add_obs(&mut pins, &format!("disagg/{name}"), &rec.take_buf());

        // Every layout under every router policy, one recording each.
        for (label, prefill, decode, shared_chips, chunk_tokens) in disagg_layouts() {
            let (rec, obs) = recorder();
            let config = DisaggConfig {
                shared_chips,
                chunk_tokens,
                ..disagg_config(prefill, decode)
            };
            let mut sim = DisaggServingSim::new(presets::ipu_pod4(), config).expect("valid pools");
            sim.set_obs(obs);
            for policy in RouterPolicy::all() {
                let report = sim.run(Design::ElkFull, policy, &trace).expect("serves");
                pins.add(format!("disagg/{name}/{label}/{policy}"), digest(&report));
            }
            add_obs(
                &mut pins,
                &format!("disagg/{name}/{label}"),
                &rec.take_buf(),
            );
        }
    }
    pins.check();
}
