//! Property tests for the scenario-spec serde layer: any spec the
//! strategies can produce must survive struct → JSON → struct
//! unchanged, through both the compact and the pretty emitter.
//!
//! Most spec types derive both `Serialize` and `Deserialize` with the
//! real-serde attributes the derive shim understands (`default`,
//! `rename`, `skip_serializing_if`, `with`/`deserialize_with`,
//! `deny_unknown_fields`); `SystemSpec`, `ModelSpec` and `TenancySpec`
//! keep hand-written impls over the shim's `MapReader`. Either way the
//! two directions can drift apart — an attribute on one side only, a
//! hand-written key renamed in one impl — and this suite is what pins
//! them together.

use proptest::prelude::*;

use elk::baselines::Design;
use elk::model::Phase;
use elk::serve::RouterPolicy;
use elk::spec::spec::{
    ArrivalsSpec, AutoscaleSpec, ChipSpec, ClusterSpec, CompilerSpec, DisaggSpec, HbmSpec,
    ModelSpec, ObserveSpec, PlanSpec, ScenarioSpec, SeqBucketsSpec, ServingSpec, SimSpec, SloSpec,
    SweepAxis, SweepSpec, SystemSpec, TenancySpec, TenantClassSpec, TopologySpec, TraceGenSpec,
    TraceSourceSpec, TraceSpec, WorkloadSpec,
};
use elk::spec::{run_sweep, SweepCommand};
use elk::trace::{LengthModel, RateShape};

fn arb_system() -> impl Strategy<Value = SystemSpec> {
    (
        0usize..4,
        prop::sample::select(vec!["ipu_pod4", "ipu_pod4_mesh", "single_chip"]),
        (16u64..=2048, 1u64..=8, 1.0f64..900.0),
        any::<bool>(),
    )
        .prop_map(|(variant, preset, (cores, chips, bw), mesh)| {
            if variant == 0 {
                SystemSpec::Preset(preset.to_string())
            } else {
                SystemSpec::Custom {
                    chip: ChipSpec {
                        name: "prop-chip".into(),
                        cores,
                        sram_per_core_kib: 624,
                        io_buffer_per_core_kib: 8,
                        matmul_tflops: bw,
                        vector_tflops: bw / 10.0,
                        sram_bw_gb_s: 21.3,
                        sram_contention: if mesh { "blocking" } else { "concurrent" }.into(),
                        topology: if mesh {
                            TopologySpec::Mesh {
                                total_gib_s: bw * 8.0,
                            }
                        } else {
                            TopologySpec::AllToAll {
                                core_link_gib_s: bw / 100.0,
                            }
                        },
                    },
                    chips,
                    hbm: HbmSpec {
                        channels: chips,
                        channel_bw_gib_s: bw,
                        capacity_gib: 32 + chips,
                    },
                    inter_chip_bw_gib_s: bw * 2.0,
                }
            }
        })
}

fn arb_model() -> impl Strategy<Value = ModelSpec> {
    (
        0usize..4,
        prop::sample::select(vec![
            "llama13", "gemma27", "opt30", "llama70", "mixtral", "dit",
        ]),
        1u32..=4,
        any::<bool>(),
    )
        .prop_map(|(variant, zoo, layers, with_layers)| match variant {
            0 => ModelSpec::Zoo {
                zoo: zoo.to_string(),
                layers: with_layers.then_some(layers),
            },
            1 => {
                let mut cfg = elk::model::zoo::llama2_13b();
                cfg.layers = layers;
                ModelSpec::Transformer(cfg)
            }
            2 => {
                let mut cfg = elk::model::zoo::mixtral_8x7b();
                cfg.layers = layers;
                ModelSpec::Moe(cfg)
            }
            _ => {
                let mut cfg = elk::model::zoo::dit_xl();
                cfg.layers = layers;
                ModelSpec::Dit(cfg)
            }
        })
}

/// Every `workload.trace` shape: absent, a recorded file, or each of
/// the three generator rate shapes paired with a distinct length model
/// (the burst train with two, so every model appears).
fn arb_trace_source() -> impl Strategy<Value = Option<TraceSourceSpec>> {
    (
        0usize..6,
        (0u64..=1 << 48, 1usize..=256, 0u64..=6),
        (0.5f64..900.0, 0.05f64..0.95, 0.05f64..5.0),
        (1u64..=256, 1u64..=512, 1.01f64..3.0),
    )
        .prop_map(
            |(variant, (seed, requests, tenants), (rps, frac, period_s), (lo, span, alpha))| {
                match variant {
                    0 => None,
                    1 => Some(TraceSourceSpec::File(format!("traces/prop-{seed}.jsonl"))),
                    v => {
                        let rate = match v {
                            2 => RateShape::Constant { rate_rps: rps },
                            3 => RateShape::Diurnal {
                                mean_rps: rps,
                                amplitude: frac,
                                period_s,
                            },
                            _ => RateShape::BurstTrain {
                                base_rps: rps,
                                burst_rps: rps * 4.0,
                                period_s,
                                burst_s: period_s * frac,
                            },
                        };
                        let prompt_len = match v {
                            2 => LengthModel::Fixed(lo),
                            3 => LengthModel::Uniform { lo, hi: lo + span },
                            4 => LengthModel::HeavyTail {
                                lo,
                                alpha,
                                cap: lo + span,
                            },
                            _ => LengthModel::Bimodal {
                                short: (lo, lo + span),
                                long: (lo * 10, lo * 10 + span),
                                long_weight: frac,
                            },
                        };
                        Some(TraceSourceSpec::Generate(TraceGenSpec {
                            seed,
                            requests,
                            rate,
                            prompt_len,
                            output_len: LengthModel::Uniform {
                                lo: 1,
                                hi: 1 + span,
                            },
                            tenants,
                        }))
                    }
                }
            },
        )
}

fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    (
        prop::sample::select(vec![Phase::Decode, Phase::Prefill, Phase::TrainingForward]),
        1u64..=64,
        1u64..=8192,
        any::<bool>(),
        1u64..=8,
        arb_trace_source(),
    )
        .prop_map(
            |(phase, batch, seq_len, with_shards, shards, trace)| WorkloadSpec {
                phase,
                batch,
                seq_len,
                shards: with_shards.then_some(shards),
                trace,
            },
        )
}

fn arb_compiler() -> impl Strategy<Value = CompilerSpec> {
    (0usize..5, 1usize..=5, 0usize..=8).prop_map(|(first, count, threads)| CompilerSpec {
        design: (0..count)
            .map(|i| Design::ALL[(first + i) % Design::ALL.len()])
            .collect(),
        threads,
    })
}

fn arb_serving() -> impl Strategy<Value = ServingSpec> {
    (
        (0u64..=1 << 48, 1usize..=64, 0.5f64..2000.0),
        (0usize..4, 1u64..=512, 1u64..=64),
        (1usize..=4, 1u64..=64, 1u64..=16384),
        (0u32..=4, 1u64..=4096),
        any::<bool>(),
        ((0.1f64..10_000.0, 0.1f64..500.0), arb_tenancy()),
    )
        .prop_map(
            |(
                (seed, requests, rate),
                (dist, lo, span),
                (replicas, max_batch, max_prefill_tokens),
                (bucket_pow, bucket_span),
                bucket_batch,
                ((ttft_ms, tpot_ms), tenants),
            )| {
                // Both trace keys take the one length form: `serving.trace`
                // covers every model too.
                let prompt_len = match dist {
                    0 => LengthModel::Fixed(lo),
                    1 => LengthModel::Uniform { lo, hi: lo + span },
                    2 => LengthModel::Bimodal {
                        short: (lo, lo + span),
                        long: (lo * 10, lo * 10 + span),
                        long_weight: 0.25,
                    },
                    _ => LengthModel::HeavyTail {
                        lo,
                        alpha: 1.2,
                        cap: lo + span,
                    },
                };
                let arrivals = if dist >= 2 {
                    ArrivalsSpec::Bursty {
                        rate_rps: rate,
                        burst_factor: 3.0,
                        period_s: 0.5,
                        duty: 0.2,
                    }
                } else {
                    ArrivalsSpec::Poisson { rate_rps: rate }
                };
                let min = 1u64 << bucket_pow;
                ServingSpec {
                    trace: TraceSpec {
                        seed,
                        requests,
                        arrivals,
                        prompt_len,
                        output_len: LengthModel::Fixed(lo),
                    },
                    replicas,
                    max_batch,
                    max_prefill_tokens,
                    seq_buckets: SeqBucketsSpec {
                        min,
                        max: min + bucket_span,
                    },
                    bucket_batch,
                    slo: SloSpec { ttft_ms, tpot_ms },
                    tenants,
                    threads: replicas,
                }
            },
        )
}

/// The `serving.tenants` / `cluster.tenants` section: absent or a
/// class ladder with an optional rate limit, model alias, and shedder.
fn arb_tenancy() -> impl Strategy<Value = Option<TenancySpec>> {
    (
        0usize..3,
        1usize..=3,
        (0.5f64..200.0, 1u64..=8),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (0.5f64..8.0, 1.0f64..200.0),
    )
        .prop_map(
            |(variant, n_classes, (rate, burst), (limited, aliased, defer), (depth, defer_ms))| {
                if variant == 0 {
                    return None;
                }
                let names = ["gold", "silver", "bronze"];
                let classes: Vec<TenantClassSpec> = (0..n_classes)
                    .map(|i| TenantClassSpec {
                        name: names[i].into(),
                        priority: (i * 7) as u64,
                        slo: SloSpec {
                            ttft_ms: 100.0 * (i + 1) as f64,
                            tpot_ms: 20.0 * (i + 1) as f64,
                        },
                        rate_rps: (limited && i > 0).then_some(rate),
                        burst,
                        model: (aliased && i + 1 == n_classes).then(|| "opt30".into()),
                        sheddable: i + 1 == n_classes,
                    })
                    .collect();
                let map = (0..n_classes)
                    .map(|i| (format!("t{i}"), names[i].to_string()))
                    .collect();
                Some(TenancySpec {
                    classes,
                    map,
                    default_class: names[n_classes - 1].into(),
                    shed_queue_depth: (variant == 2).then_some(depth),
                    shed_policy: if defer { "defer" } else { "reject" }.into(),
                    defer_ms,
                })
            },
        )
}

/// The `cluster.autoscale` section: absent or a full knob set.
fn arb_autoscale() -> impl Strategy<Value = Option<AutoscaleSpec>> {
    (
        0usize..3,
        (1u64..=2, 0u64..=6),
        10.0f64..500.0,
        (0.5f64..8.0, 0.05f64..0.45),
        0.5f64..0.99,
        0.0f64..64.0,
    )
        .prop_map(
            |(variant, (min, extra), interval_ms, (up, down), slo_target, cold)| {
                (variant != 0).then_some(AutoscaleSpec {
                    min_groups: min,
                    max_groups: min + extra,
                    interval_ms,
                    up_queue_depth: up,
                    down_queue_depth: down,
                    slo_target,
                    cold_start_steps: cold,
                })
            },
        )
}

/// The `cluster.disaggregate` section: absent or a full pool split.
fn arb_disagg() -> impl Strategy<Value = Option<DisaggSpec>> {
    (
        0usize..3,
        (1u64..=4, 1u64..=2, 1u64..=4),
        (1u64..=4, 1u64..=2, 1u64..=4),
        0u64..=1024,
        any::<bool>(),
    )
        .prop_map(|(variant, p, d, chunk_tokens, shared_chips)| {
            (variant != 0).then_some(DisaggSpec {
                prefill: PlanSpec {
                    tp: p.0,
                    pp: p.1,
                    dp: p.2,
                },
                decode: PlanSpec {
                    tp: d.0,
                    pp: d.1,
                    dp: d.2,
                },
                chunk_tokens,
                shared_chips,
            })
        })
}

fn arb_cluster() -> impl Strategy<Value = Option<ClusterSpec>> {
    (
        0usize..3,
        (1u64..=4, 1u64..=4, 1u64..=4),
        ((any::<bool>(), 1u64..=8), any::<bool>()),
        0usize..4,
        (any::<bool>(), 0u64..=1 << 32, 0usize..=8),
        (arb_autoscale(), arb_disagg(), arb_tenancy()),
    )
        .prop_map(
            |(
                variant,
                (tp, pp, dp),
                ((with_micro, micro), mesh_links),
                policies,
                (serve, seed, threads),
                (autoscale, disaggregate, tenants),
            )| {
                if variant == 0 {
                    return None;
                }
                let microbatches = with_micro.then_some(micro);
                let all = [
                    RouterPolicy::RoundRobin,
                    RouterPolicy::LeastOutstanding,
                    RouterPolicy::PowerOfTwoChoices { seed },
                ];
                let router: Vec<RouterPolicy> = (0..=policies.min(2))
                    .map(|i| all[(policies + i) % all.len()])
                    .collect();
                Some(ClusterSpec {
                    plan: (variant == 2).then_some(PlanSpec { tp, pp, dp }),
                    microbatches,
                    interconnect: if mesh_links {
                        "fully_connected"
                    } else {
                        "ring"
                    }
                    .into(),
                    router,
                    serve,
                    autoscale,
                    disaggregate,
                    tenants,
                    threads,
                })
            },
        )
}

fn arb_sweep() -> impl Strategy<Value = Option<SweepSpec>> {
    (
        0usize..3,
        prop::sample::select(vec![
            SweepCommand::Compile,
            SweepCommand::Simulate,
            SweepCommand::Serve,
        ]),
        1u64..=64,
    )
        .prop_map(|(axes, command, v)| {
            if axes == 0 {
                return None;
            }
            let axis = |path: &str, scale: u64| SweepAxis {
                path: path.to_string(),
                values: (1..=axes as u64)
                    .map(|i| serde::Value::U64(i * scale * v))
                    .collect(),
            };
            let mut all = vec![axis("workload.batch", 1)];
            if axes > 1 {
                all.push(axis("system.chip.cores", 16));
            }
            Some(SweepSpec { command, axes: all })
        })
}

fn arb_observe() -> impl Strategy<Value = ObserveSpec> {
    (any::<bool>(), 0usize..3, 1u64..=256).prop_map(|(enable, timeline, sample)| ObserveSpec {
        enable,
        timeline: match timeline {
            0 => None,
            1 => Some("out/timeline.json".to_string()),
            _ => Some(format!("results/prop-{sample}.timeline.json")),
        },
        sample,
    })
}

fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        (arb_system(), arb_model(), arb_workload()),
        (
            arb_compiler(),
            arb_serving(),
            arb_observe(),
            arb_cluster(),
            arb_sweep(),
        ),
        (0.0f64..0.5, 0u64..=1 << 40, 0usize..=64),
    )
        .prop_map(
            |(
                (system, model, workload),
                (compiler, serving, observe, cluster, sweep),
                (noise_sigma, noise_seed, trace_samples),
            )| ScenarioSpec {
                name: format!("prop-{noise_seed}"),
                system,
                model,
                workload,
                compiler,
                sim: SimSpec {
                    noise_sigma,
                    noise_seed,
                    trace_samples,
                },
                serving,
                observe,
                cluster,
                sweep,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn scenario_specs_round_trip_through_json(spec in arb_scenario()) {
        // Pretty emitter (what `ScenarioSpec::to_json` and the CLI use).
        let pretty = spec.to_json();
        let back = ScenarioSpec::from_json(&pretty).expect("pretty round-trip parses");
        prop_assert_eq!(&back, &spec);

        // Compact emitter.
        let compact = serde_json::to_string(&spec).expect("serialize");
        let back: ScenarioSpec = serde_json::from_str(&compact).expect("compact round-trip parses");
        prop_assert_eq!(&back, &spec);

        // Serialization is deterministic: same spec, same bytes.
        prop_assert_eq!(spec.to_json(), pretty);
    }

    #[test]
    fn workload_and_compiler_sections_round_trip_alone(
        workload in arb_workload(),
        compiler in arb_compiler(),
    ) {
        let json = serde_json::to_string(&workload).expect("serialize");
        let back: WorkloadSpec = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(back, workload);

        let json = serde_json::to_string(&compiler).expect("serialize");
        let back: CompilerSpec = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(back, compiler);
    }
}

/// `cluster.disaggregate` is strict at every level: unknown keys are
/// rejected with their dotted context (not silently ignored), and both
/// pool plans are required.
#[test]
fn disaggregate_rejects_unknown_and_missing_keys() {
    let err = serde_json::from_str::<ClusterSpec>(
        r#"{"disaggregate": {"prefill": {"tp": 1, "pp": 1, "dp": 2},
            "decode": {"tp": 1, "pp": 1, "dp": 2}, "bogus": 1}}"#,
    )
    .expect_err("unknown key under disaggregate must fail")
    .to_string();
    assert!(
        err.contains("cluster.disaggregate") && err.contains("bogus"),
        "error must name the dotted context and the offending key: {err}"
    );

    let err = serde_json::from_str::<ClusterSpec>(
        r#"{"disaggregate": {"prefill": {"tp": 1, "pp": 1, "dp": 2}}}"#,
    )
    .expect_err("a disaggregate section without a decode pool must fail")
    .to_string();
    assert!(
        err.contains("decode"),
        "error must name the missing pool: {err}"
    );

    let err = serde_json::from_str::<ClusterSpec>(
        r#"{"disaggregate": {"prefill": {"tp": 1, "pp": 1, "dp": 2, "zz": 0},
            "decode": {"tp": 1, "pp": 1, "dp": 2}}}"#,
    )
    .expect_err("unknown key inside a pool plan must fail")
    .to_string();
    assert!(
        err.contains("cluster.disaggregate.prefill") && err.contains("zz"),
        "error must name the pool's dotted context: {err}"
    );
}

/// The dotted sweep paths under `cluster.disaggregate` are sweepable,
/// and a bogus one fails the parse pass — before any grid point runs —
/// with the parser's dotted context and valid keys.
#[test]
fn disaggregate_sweep_paths_validate() {
    let mk = |axes: &str| -> serde::Value {
        serde_json::from_str(&format!(
            r#"{{"name": "probe", "model": {{"zoo": "llama13", "layers": 2}},
                 "workload": {{"batch": 8, "seq_len": 512}},
                 "cluster": {{"disaggregate": {{"prefill": {{"tp": 1, "pp": 1, "dp": 1}},
                                                "decode": {{"tp": 1, "pp": 1, "dp": 1}}}}}},
                 "sweep": {{"command": "compile", "axes": {axes}}}}}"#
        ))
        .expect("probe document is valid JSON")
    };

    let doc = mk(
        r#"[{"path": "cluster.disaggregate.prefill.tp", "values": [1]},
            {"path": "cluster.disaggregate.prefill.pp", "values": [1]},
            {"path": "cluster.disaggregate.decode.dp", "values": [1]},
            {"path": "cluster.disaggregate.chunk_tokens", "values": [256]},
            {"path": "cluster.disaggregate.shared_chips", "values": [true]}]"#,
    );
    let report = run_sweep(&doc, 1).expect("every valid disaggregate path is sweepable");
    assert_eq!(report.points.len(), 1);

    let doc = mk(r#"[{"path": "cluster.disaggregate.nope", "values": [1]}]"#);
    let err = run_sweep(&doc, 1)
        .expect_err("the bogus axis must fail")
        .to_string();
    assert!(
        err.contains("`nope`") && err.contains("cluster.disaggregate"),
        "the error must name the key and its dotted context: {err}"
    );
    let (_, valid) = err.split_once("valid keys: ").expect("a valid-key list");
    let valid: Vec<&str> = valid.split(", ").collect();
    assert!(
        valid.contains(&"prefill") && valid.contains(&"chunk_tokens"),
        "the error must list the valid keys at that level: {err}"
    );

    // Descending into a leaf is the parser's type error at that leaf.
    let doc = mk(r#"[{"path": "cluster.disaggregate.chunk_tokens.deeper", "values": [1]}]"#);
    let err = run_sweep(&doc, 1)
        .expect_err("leaf descent must fail")
        .to_string();
    assert!(
        err.contains("sweep point") && err.contains("cluster.disaggregate.chunk_tokens: expected"),
        "leaf descent must fail the parse pass at `chunk_tokens`: {err}"
    );
}
