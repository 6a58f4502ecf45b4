//! Whole-output pins for the serving engines.
//!
//! The golden suites pin selected fields (percentiles, step counts,
//! event totals). This suite pins *everything* each engine emits — the
//! full serialized report, the Chrome-trace timeline and the metrics
//! export — as FNV-1a digests, on the checked-in
//! `traces/golden_small.jsonl` and on a small generated burst trace.
//! A refactor of the serving core must leave every digest unchanged;
//! a deliberate change to simulated behaviour re-pins them here.
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

/// Digests of the recorded timeline and metrics export.
fn obs_digests(buf: &ObsBuf) -> (u64, u64) {
    (
        digest(&export::chrome_trace(buf)),
        digest(&export::metrics(buf)),
    )
}

/// Collects `(name, digest)` rows and checks them against the pins,
/// listing every mismatch at once.
struct Pins(Vec<(String, u64)>);

impl Pins {
    fn new() -> Self {
        Pins(Vec::new())
    }

    fn add(&mut self, name: String, d: u64) {
        self.0.push((name, d));
    }

    fn add_obs(&mut self, name: &str, buf: &ObsBuf) {
        let (timeline, metrics) = obs_digests(buf);
        self.add(format!("{name}/timeline"), timeline);
        self.add(format!("{name}/metrics"), metrics);
    }

    fn check(&self, pinned: &[(&str, u64)]) {
        let got: Vec<String> = self
            .0
            .iter()
            .map(|(n, d)| format!("(\"{n}\", 0x{d:016x}),"))
            .collect();
        let want: Vec<String> = pinned
            .iter()
            .map(|(n, d)| format!("(\"{n}\", 0x{d:016x}),"))
            .collect();
        assert_eq!(
            got.join("\n"),
            want.join("\n"),
            "engine output digests changed; actual table:\n{}",
            got.join("\n")
        );
    }
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
        arrivals: ArrivalProcess::Bursty {
            rate_rps: 300.0,
            burst_factor: 4.0,
            period_s: 0.2,
            duty: 0.2,
        },
        prompt_len: LengthDist::Uniform { lo: 60, hi: 900 },
        output_len: LengthDist::Uniform { lo: 1, hi: 10 },
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
    let mut pins = Pins::new();
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
        pins.add_obs(&format!("serve/{name}"), &rec.take_buf());
    }
    pins.check(&[
        ("serve/golden/ELK-Full", 0x1d559c7fa219c8cf),
        ("serve/golden/Basic", 0x518a1f530692c421),
        ("serve/golden/timeline", 0xdaa168486cff7cf4),
        ("serve/golden/metrics", 0xe872d4a9ab254a93),
        ("serve/burst/ELK-Full", 0x6c5384c64764904b),
        ("serve/burst/Basic", 0x0d258e5498e99926),
        ("serve/burst/timeline", 0x222c683948b460db),
        ("serve/burst/metrics", 0xbdbd7ed0db638a2d),
    ]);
}

#[test]
fn cluster_engine_output_is_pinned_under_every_policy() {
    let mut pins = Pins::new();
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
        pins.add_obs(&format!("cluster/{name}"), &rec.take_buf());
    }
    pins.check(&[
        ("cluster/golden/round_robin", 0xf87048df052d9c5e),
        ("cluster/golden/least_outstanding", 0x88e2c9b2a59884da),
        ("cluster/golden/power_of_two(seed=2)", 0xb614a902adfce102),
        ("cluster/golden/timeline", 0xb144099c160bac70),
        ("cluster/golden/metrics", 0xeb7b3e71e2c642d1),
        ("cluster/burst/round_robin", 0xf024ce0e343cea1f),
        ("cluster/burst/least_outstanding", 0xfce6e80a198fa228),
        ("cluster/burst/power_of_two(seed=2)", 0xc4729d799fc8e33c),
        ("cluster/burst/timeline", 0x5d4f5c78dd0926b9),
        ("cluster/burst/metrics", 0xe5196c8abd728f67),
    ]);
}

#[test]
fn autoscale_engine_output_is_pinned() {
    let mut pins = Pins::new();
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
        pins.add_obs(&format!("autoscale/{name}"), &rec.take_buf());
    }
    pins.check(&[
        ("autoscale/golden", 0xff78f854dfd06724),
        ("autoscale/golden/timeline", 0x86e152633d8cc1ab),
        ("autoscale/golden/metrics", 0xed6648ef65f236b8),
        ("autoscale/burst", 0x8a22a233afacdfc2),
        ("autoscale/burst/timeline", 0x3eae2b3259b69b39),
        ("autoscale/burst/metrics", 0x495908817377b189),
    ]);
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
    let mut pins = Pins::new();
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
        pins.add_obs(&format!("tenancy/{name}/default"), &rec.take_buf());

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
            pins.add_obs(&format!("tenancy/{name}/mixed-{label}"), &rec.take_buf());
        }
    }
    pins.check(&[
        ("tenancy/golden/default/round_robin", 0x56d50f7d4bc64080),
        (
            "tenancy/golden/default/least_outstanding",
            0x99837dc09d80bb2a,
        ),
        (
            "tenancy/golden/default/power_of_two(seed=2)",
            0x28ed423eb857d7f2,
        ),
        ("tenancy/golden/default/timeline", 0x500839e7c61ad77d),
        ("tenancy/golden/default/metrics", 0x3c8b83395fd10f1d),
        ("tenancy/golden/mixed-reject", 0xf8305da9662b3abc),
        ("tenancy/golden/mixed-reject/timeline", 0x38d329c6fe177c24),
        ("tenancy/golden/mixed-reject/metrics", 0xc9a5e1e9cd0d1b9d),
        ("tenancy/golden/mixed-defer", 0xf8305da9662b3abc),
        ("tenancy/golden/mixed-defer/timeline", 0x38d329c6fe177c24),
        ("tenancy/golden/mixed-defer/metrics", 0xc9a5e1e9cd0d1b9d),
        ("tenancy/burst/default/round_robin", 0x352f83aea1046ca1),
        (
            "tenancy/burst/default/least_outstanding",
            0x9cf086a7101b655a,
        ),
        (
            "tenancy/burst/default/power_of_two(seed=2)",
            0x7412920c06caf6e8,
        ),
        ("tenancy/burst/default/timeline", 0xb8a461c06ea74cbb),
        ("tenancy/burst/default/metrics", 0x0b3f0dfcf28302e7),
        ("tenancy/burst/mixed-reject", 0x83dff5a1ef241cc0),
        ("tenancy/burst/mixed-reject/timeline", 0xd4ae95b499f5f781),
        ("tenancy/burst/mixed-reject/metrics", 0x3b539c3340bfe36a),
        ("tenancy/burst/mixed-defer", 0x08d9d70edab3e536),
        ("tenancy/burst/mixed-defer/timeline", 0x3d7b3e85270b85ad),
        ("tenancy/burst/mixed-defer/metrics", 0x442a16f1c0b47a03),
    ]);
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
    let mut pins = Pins::new();
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
        pins.add_obs(&format!("disagg/{name}"), &rec.take_buf());

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
            pins.add_obs(&format!("disagg/{name}/{label}"), &rec.take_buf());
        }
    }
    pins.check(&[
        ("disagg/golden", 0x81794e0e7184e985),
        ("disagg/golden/timeline", 0x8add06e24f7da3f5),
        ("disagg/golden/metrics", 0x0babbc5dab376226),
        (
            "disagg/golden/disjoint-chunk256/round_robin",
            0x8a35e5f6c5e9c4ae,
        ),
        (
            "disagg/golden/disjoint-chunk256/least_outstanding",
            0x81794e0e7184e985,
        ),
        (
            "disagg/golden/disjoint-chunk256/power_of_two(seed=2)",
            0x54c97416c0066e37,
        ),
        (
            "disagg/golden/disjoint-chunk256/timeline",
            0x0f1aa28bc9798580,
        ),
        (
            "disagg/golden/disjoint-chunk256/metrics",
            0xe16b88c90fd0c8b9,
        ),
        ("disagg/golden/disjoint/round_robin", 0x6559ef9f9c393441),
        (
            "disagg/golden/disjoint/least_outstanding",
            0x65b40018441777fb,
        ),
        (
            "disagg/golden/disjoint/power_of_two(seed=2)",
            0xa7731f8be7e7e119,
        ),
        ("disagg/golden/disjoint/timeline", 0x9f16382802b4454c),
        ("disagg/golden/disjoint/metrics", 0xccb576166a6df96f),
        ("disagg/golden/shared/round_robin", 0x73281cfae3fb7caa),
        ("disagg/golden/shared/least_outstanding", 0x2d704f5775d6fd77),
        (
            "disagg/golden/shared/power_of_two(seed=2)",
            0x8335ed96fc5e3388,
        ),
        ("disagg/golden/shared/timeline", 0xf98b18281139760a),
        ("disagg/golden/shared/metrics", 0x34dd188cb4a0a6ac),
        (
            "disagg/golden/shared-chunk256/round_robin",
            0xcbb2cca0f9289a78,
        ),
        (
            "disagg/golden/shared-chunk256/least_outstanding",
            0x190bb144871353a1,
        ),
        (
            "disagg/golden/shared-chunk256/power_of_two(seed=2)",
            0x09a0889751f8d2f0,
        ),
        ("disagg/golden/shared-chunk256/timeline", 0x155030b1ec9a3f89),
        ("disagg/golden/shared-chunk256/metrics", 0xe3d3eef341563d34),
        (
            "disagg/golden/unequal-chunk512/round_robin",
            0xed879d73e09bd00e,
        ),
        (
            "disagg/golden/unequal-chunk512/least_outstanding",
            0xebf1e87ea5f7297d,
        ),
        (
            "disagg/golden/unequal-chunk512/power_of_two(seed=2)",
            0x2972b8f85e77df68,
        ),
        (
            "disagg/golden/unequal-chunk512/timeline",
            0x33d47628fdda46ca,
        ),
        ("disagg/golden/unequal-chunk512/metrics", 0xc166aaee03f9f8da),
        ("disagg/burst", 0x0d7130f30dec4277),
        ("disagg/burst/timeline", 0xafc3ffc9df8a99d6),
        ("disagg/burst/metrics", 0x9e29abd89c3d903a),
        (
            "disagg/burst/disjoint-chunk256/round_robin",
            0x20592b25ed0ad7b5,
        ),
        (
            "disagg/burst/disjoint-chunk256/least_outstanding",
            0x0d7130f30dec4277,
        ),
        (
            "disagg/burst/disjoint-chunk256/power_of_two(seed=2)",
            0x252a20e73bc12e58,
        ),
        (
            "disagg/burst/disjoint-chunk256/timeline",
            0xb85f245e76db2654,
        ),
        ("disagg/burst/disjoint-chunk256/metrics", 0x5e10b4586a18b555),
        ("disagg/burst/disjoint/round_robin", 0x64caed5b8281ef54),
        (
            "disagg/burst/disjoint/least_outstanding",
            0x2fd28ec92a22c5d1,
        ),
        (
            "disagg/burst/disjoint/power_of_two(seed=2)",
            0xa46ead49d532bc3a,
        ),
        ("disagg/burst/disjoint/timeline", 0x249b9adbf0ba0e82),
        ("disagg/burst/disjoint/metrics", 0x83051f246a37ba8b),
        ("disagg/burst/shared/round_robin", 0x6504b9484c24bd18),
        ("disagg/burst/shared/least_outstanding", 0x06569679453160cd),
        (
            "disagg/burst/shared/power_of_two(seed=2)",
            0xd92c3665bf5ba82a,
        ),
        ("disagg/burst/shared/timeline", 0x097ce49cdafdc657),
        ("disagg/burst/shared/metrics", 0xecd07c68dd62c472),
        (
            "disagg/burst/shared-chunk256/round_robin",
            0x70446e36848298a1,
        ),
        (
            "disagg/burst/shared-chunk256/least_outstanding",
            0x3d65a1b3011f4272,
        ),
        (
            "disagg/burst/shared-chunk256/power_of_two(seed=2)",
            0x3aedfd9da3b852f1,
        ),
        ("disagg/burst/shared-chunk256/timeline", 0x318740d0a523d4ce),
        ("disagg/burst/shared-chunk256/metrics", 0xe1a27d8edfd34ce3),
        (
            "disagg/burst/unequal-chunk512/round_robin",
            0x487aa034da72683d,
        ),
        (
            "disagg/burst/unequal-chunk512/least_outstanding",
            0x1a51d3d9daabd932,
        ),
        (
            "disagg/burst/unequal-chunk512/power_of_two(seed=2)",
            0xb3a2272da7f61875,
        ),
        ("disagg/burst/unequal-chunk512/timeline", 0x8c0be480cd9d1ec2),
        ("disagg/burst/unequal-chunk512/metrics", 0x0a0ea1555b33a175),
    ]);
}
