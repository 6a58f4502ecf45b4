//! The scenario document's key tree, used to validate sweep paths
//! **before** any grid point runs: a typo'd dotted path (e.g.
//! `system.chip.coers`) fails immediately with the valid keys at that
//! level, instead of surfacing as a bare unknown-field parse error
//! deep inside the first grid point.
//!
//! The tree mirrors the strict readers in [`crate::spec`], which list
//! their valid keys when they reject an unknown one. A unit test probes
//! every object level of the tree with an unknown key and checks that
//! list against the level's keys, so a spec field added without its
//! key here (or the reverse) fails the build's tests.

/// One level of the scenario schema.
pub(crate) enum Node {
    /// A scalar/array value — sweepable, but not descendable.
    Leaf,
    /// An object with a fixed key set.
    Map(&'static [(&'static str, Node)]),
}

const LENGTH_DIST: Node = Node::Map(&[
    ("Fixed", Node::Leaf),
    (
        "Uniform",
        Node::Map(&[("lo", Node::Leaf), ("hi", Node::Leaf)]),
    ),
    (
        "Bimodal",
        Node::Map(&[
            ("short", Node::Leaf),
            ("long", Node::Leaf),
            ("long_weight", Node::Leaf),
        ]),
    ),
]);

const TRACE_LENGTH_MODEL: Node = Node::Map(&[
    ("Fixed", Node::Leaf),
    (
        "Uniform",
        Node::Map(&[("lo", Node::Leaf), ("hi", Node::Leaf)]),
    ),
    (
        "HeavyTail",
        Node::Map(&[
            ("lo", Node::Leaf),
            ("alpha", Node::Leaf),
            ("cap", Node::Leaf),
        ]),
    ),
]);

const TENANTS: Node = Node::Map(&[
    ("classes", Node::Leaf),
    ("map", Node::Leaf),
    ("default_class", Node::Leaf),
    ("shed_queue_depth", Node::Leaf),
    ("shed_policy", Node::Leaf),
    ("defer_ms", Node::Leaf),
]);

const TOPOLOGY: Node = Node::Map(&[
    ("all_to_all", Node::Map(&[("core_link_gib_s", Node::Leaf)])),
    ("mesh", Node::Map(&[("total_gib_s", Node::Leaf)])),
]);

const CHIP: Node = Node::Map(&[
    ("name", Node::Leaf),
    ("cores", Node::Leaf),
    ("sram_per_core_kib", Node::Leaf),
    ("io_buffer_per_core_kib", Node::Leaf),
    ("matmul_tflops", Node::Leaf),
    ("vector_tflops", Node::Leaf),
    ("sram_bw_gb_s", Node::Leaf),
    ("sram_contention", Node::Leaf),
    ("topology", TOPOLOGY),
]);

const ROOT: Node = Node::Map(&[
    ("name", Node::Leaf),
    (
        "system",
        Node::Map(&[
            ("preset", Node::Leaf),
            ("chip", CHIP),
            ("chips", Node::Leaf),
            (
                "hbm",
                Node::Map(&[
                    ("channels", Node::Leaf),
                    ("channel_bw_gib_s", Node::Leaf),
                    ("capacity_gib", Node::Leaf),
                ]),
            ),
            ("inter_chip_bw_gib_s", Node::Leaf),
        ]),
    ),
    (
        "model",
        Node::Map(&[
            ("zoo", Node::Leaf),
            ("layers", Node::Leaf),
            (
                "transformer",
                Node::Map(&[
                    ("name", Node::Leaf),
                    ("layers", Node::Leaf),
                    ("hidden", Node::Leaf),
                    ("heads", Node::Leaf),
                    ("kv_heads", Node::Leaf),
                    ("head_dim", Node::Leaf),
                    ("intermediate", Node::Leaf),
                    ("vocab", Node::Leaf),
                    ("glu", Node::Leaf),
                    ("norm", Node::Leaf),
                    ("rope", Node::Leaf),
                    ("post_norms", Node::Leaf),
                ]),
            ),
            (
                "moe",
                Node::Map(&[
                    ("name", Node::Leaf),
                    ("layers", Node::Leaf),
                    ("hidden", Node::Leaf),
                    ("heads", Node::Leaf),
                    ("kv_heads", Node::Leaf),
                    ("head_dim", Node::Leaf),
                    ("expert_intermediate", Node::Leaf),
                    ("experts", Node::Leaf),
                    ("experts_per_token", Node::Leaf),
                    ("vocab", Node::Leaf),
                ]),
            ),
            (
                "dit",
                Node::Map(&[
                    ("name", Node::Leaf),
                    ("layers", Node::Leaf),
                    ("hidden", Node::Leaf),
                    ("heads", Node::Leaf),
                    ("head_dim", Node::Leaf),
                    ("mlp_ratio", Node::Leaf),
                    ("tokens", Node::Leaf),
                ]),
            ),
        ]),
    ),
    (
        "workload",
        Node::Map(&[
            ("phase", Node::Leaf),
            ("batch", Node::Leaf),
            ("seq_len", Node::Leaf),
            ("shards", Node::Leaf),
            (
                "trace",
                Node::Map(&[
                    ("file", Node::Leaf),
                    (
                        "generate",
                        Node::Map(&[
                            ("seed", Node::Leaf),
                            ("requests", Node::Leaf),
                            (
                                "rate",
                                Node::Map(&[
                                    ("Constant", Node::Map(&[("rate_rps", Node::Leaf)])),
                                    (
                                        "Diurnal",
                                        Node::Map(&[
                                            ("mean_rps", Node::Leaf),
                                            ("amplitude", Node::Leaf),
                                            ("period_s", Node::Leaf),
                                        ]),
                                    ),
                                    (
                                        "BurstTrain",
                                        Node::Map(&[
                                            ("base_rps", Node::Leaf),
                                            ("burst_rps", Node::Leaf),
                                            ("period_s", Node::Leaf),
                                            ("burst_s", Node::Leaf),
                                        ]),
                                    ),
                                ]),
                            ),
                            ("prompt_len", TRACE_LENGTH_MODEL),
                            ("output_len", TRACE_LENGTH_MODEL),
                            ("tenants", Node::Leaf),
                        ]),
                    ),
                ]),
            ),
        ]),
    ),
    (
        "compiler",
        Node::Map(&[("design", Node::Leaf), ("threads", Node::Leaf)]),
    ),
    (
        "sim",
        Node::Map(&[
            ("noise_sigma", Node::Leaf),
            ("noise_seed", Node::Leaf),
            ("trace_samples", Node::Leaf),
        ]),
    ),
    (
        "serving",
        Node::Map(&[
            (
                "trace",
                Node::Map(&[
                    ("seed", Node::Leaf),
                    ("requests", Node::Leaf),
                    (
                        "arrivals",
                        Node::Map(&[
                            ("Poisson", Node::Map(&[("rate_rps", Node::Leaf)])),
                            (
                                "Bursty",
                                Node::Map(&[
                                    ("rate_rps", Node::Leaf),
                                    ("burst_factor", Node::Leaf),
                                    ("period_s", Node::Leaf),
                                    ("duty", Node::Leaf),
                                ]),
                            ),
                        ]),
                    ),
                    ("prompt_len", LENGTH_DIST),
                    ("output_len", LENGTH_DIST),
                ]),
            ),
            ("replicas", Node::Leaf),
            ("max_batch", Node::Leaf),
            ("max_prefill_tokens", Node::Leaf),
            (
                "seq_buckets",
                Node::Map(&[("min", Node::Leaf), ("max", Node::Leaf)]),
            ),
            ("bucket_batch", Node::Leaf),
            (
                "slo",
                Node::Map(&[("ttft_ms", Node::Leaf), ("tpot_ms", Node::Leaf)]),
            ),
            ("tenants", TENANTS),
            ("threads", Node::Leaf),
        ]),
    ),
    (
        "observe",
        Node::Map(&[
            ("enable", Node::Leaf),
            ("timeline", Node::Leaf),
            ("sample", Node::Leaf),
        ]),
    ),
    (
        "cluster",
        Node::Map(&[
            (
                "plan",
                Node::Map(&[("tp", Node::Leaf), ("pp", Node::Leaf), ("dp", Node::Leaf)]),
            ),
            ("microbatches", Node::Leaf),
            ("interconnect", Node::Leaf),
            ("router", Node::Leaf),
            ("serve", Node::Leaf),
            (
                "autoscale",
                Node::Map(&[
                    ("min_groups", Node::Leaf),
                    ("max_groups", Node::Leaf),
                    ("interval_ms", Node::Leaf),
                    ("up_queue_depth", Node::Leaf),
                    ("down_queue_depth", Node::Leaf),
                    ("slo_target", Node::Leaf),
                    ("cold_start_steps", Node::Leaf),
                ]),
            ),
            (
                "disaggregate",
                Node::Map(&[
                    (
                        "prefill",
                        Node::Map(&[("tp", Node::Leaf), ("pp", Node::Leaf), ("dp", Node::Leaf)]),
                    ),
                    (
                        "decode",
                        Node::Map(&[("tp", Node::Leaf), ("pp", Node::Leaf), ("dp", Node::Leaf)]),
                    ),
                    ("chunk_tokens", Node::Leaf),
                    ("shared_chips", Node::Leaf),
                ]),
            ),
            ("tenants", TENANTS),
            ("threads", Node::Leaf),
        ]),
    ),
    (
        "sweep",
        Node::Map(&[("command", Node::Leaf), ("axes", Node::Leaf)]),
    ),
]);

/// Checks a dotted sweep path against the schema. On an unknown key the
/// error lists every valid key at that level; descending *into* a leaf
/// value is also an error.
pub(crate) fn validate_path(path: &str) -> Result<(), String> {
    let mut node = &ROOT;
    let mut walked: Vec<&str> = Vec::new();
    for seg in path.split('.') {
        match node {
            Node::Map(entries) => match entries.iter().find(|(k, _)| *k == seg) {
                Some((_, child)) => {
                    node = child;
                    walked.push(seg);
                }
                None => {
                    let valid: Vec<&str> = entries.iter().map(|(k, _)| *k).collect();
                    let at = if walked.is_empty() {
                        "the scenario root".to_string()
                    } else {
                        format!("`{}`", walked.join("."))
                    };
                    return Err(format!(
                        "unknown key `{seg}` at {at}; valid keys: {}",
                        valid.join(", ")
                    ));
                }
            },
            Node::Leaf => {
                return Err(format!(
                    "`{}` is a value, not an object — cannot descend into `{seg}`",
                    walked.join(".")
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_paths_validate() {
        for path in [
            "workload.batch",
            "system.chip.cores",
            "system.chip.topology.mesh.total_gib_s",
            "system.hbm.capacity_gib",
            "model.layers",
            "model.transformer.hidden",
            "serving.trace.arrivals.Bursty.burst_factor",
            "serving.slo.tpot_ms",
            "workload.trace.file",
            "workload.trace.generate.rate.BurstTrain.burst_rps",
            "workload.trace.generate.prompt_len.HeavyTail.alpha",
            "cluster.plan.tp",
            "cluster.autoscale.max_groups",
            "cluster.autoscale.cold_start_steps",
            "cluster.disaggregate.prefill.tp",
            "cluster.disaggregate.decode.dp",
            "cluster.disaggregate.chunk_tokens",
            "cluster.disaggregate.shared_chips",
            "serving.tenants.shed_queue_depth",
            "serving.tenants.classes",
            "cluster.tenants.shed_policy",
            "cluster.tenants.defer_ms",
            "observe.enable",
            "observe.timeline",
            "observe.sample",
            "compiler.design",
            "system",
        ] {
            validate_path(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
    }

    #[test]
    fn typos_list_the_valid_keys_at_that_level() {
        let e = validate_path("system.chip.coers").unwrap_err();
        assert!(e.contains("unknown key `coers` at `system.chip`"), "{e}");
        assert!(
            e.contains("cores") && e.contains("sram_per_core_kib"),
            "{e}"
        );

        let e = validate_path("wrokload.batch").unwrap_err();
        assert!(e.contains("the scenario root"), "{e}");
        assert!(e.contains("workload") && e.contains("cluster"), "{e}");
    }

    #[test]
    fn descending_into_a_leaf_is_an_error() {
        let e = validate_path("workload.batch.x").unwrap_err();
        assert!(e.contains("value, not an object"), "{e}");
        assert!(e.contains("workload.batch"), "{e}");
    }

    /// Drift guard: every key the schema claims must be accepted by the
    /// strict parser when swept with a plausible value. (The converse —
    /// parser keys missing from the schema — is caught the moment
    /// someone sweeps the new key and hits `validate_path`.)
    #[test]
    fn schema_top_level_matches_the_strict_parser() {
        let doc: serde::Value = serde_json::from_str(
            r#"{"name": "t", "model": {"zoo": "llama13"},
                "cluster": {}, "sweep": {"axes": [{"path": "workload.batch", "values": [1]}]}}"#,
        )
        .unwrap();
        let spec = <crate::ScenarioSpec as serde::Deserialize>::from_value(&doc).unwrap();
        // Sections the schema names at the root must parse as sections.
        let Node::Map(entries) = &ROOT else {
            unreachable!()
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| *k).collect();
        for key in [
            "name", "system", "model", "workload", "compiler", "sim", "serving", "observe",
            "cluster", "sweep",
        ] {
            assert!(keys.contains(&key), "schema lost the `{key}` section");
        }
        assert_eq!(keys.len(), 10, "new root sections need schema entries");
        drop(spec);
    }

    /// Scenario documents that, between them, reach every object level
    /// of the schema: each variant body (`mesh`, `Diurnal`, `Bimodal`,
    /// ...) appears in at least one of them, with its required fields.
    const PROBE_BASES: [&str; 3] = [
        r#"{"name": "a",
            "system": {"chip": {"cores": 64, "matmul_tflops": 10.0, "vector_tflops": 1.0,
                                "topology": {"all_to_all": {}}},
                       "hbm": {}},
            "model": {"transformer": {"name": "x", "layers": 2, "hidden": 1024, "heads": 8,
                      "kv_heads": 8, "head_dim": 128, "intermediate": 3072, "vocab": 32000,
                      "glu": true, "norm": "Rms", "rope": true, "post_norms": false}},
            "workload": {"trace": {"generate": {
                "rate": {"Constant": {"rate_rps": 1.0}},
                "prompt_len": {"Uniform": {"lo": 1, "hi": 2}},
                "output_len": {"HeavyTail": {"lo": 1, "alpha": 1.5, "cap": 9}}}}},
            "compiler": {}, "sim": {},
            "serving": {"trace": {"arrivals": {"Poisson": {"rate_rps": 1.0}},
                                  "prompt_len": {"Uniform": {"lo": 1, "hi": 2}},
                                  "output_len": {"Bimodal": {"short": [1, 2], "long": [3, 4],
                                                             "long_weight": 0.5}}},
                        "seq_buckets": {}, "slo": {}, "tenants": {}},
            "observe": {},
            "cluster": {"plan": {"tp": 1, "pp": 1, "dp": 1}, "autoscale": {},
                        "disaggregate": {"prefill": {"tp": 1, "pp": 1, "dp": 1},
                                         "decode": {"tp": 1, "pp": 1, "dp": 1}},
                        "tenants": {}},
            "sweep": {"axes": [{"path": "workload.batch", "values": [1]}]}}"#,
        r#"{"name": "b",
            "system": {"chip": {"cores": 64, "matmul_tflops": 10.0, "vector_tflops": 1.0,
                                "topology": {"mesh": {"total_gib_s": 64.0}}}},
            "model": {"moe": {"name": "m", "layers": 2, "hidden": 1024, "heads": 8,
                      "kv_heads": 8, "head_dim": 128, "expert_intermediate": 2048,
                      "experts": 4, "experts_per_token": 2, "vocab": 32000}},
            "workload": {"trace": {"generate": {
                "rate": {"Diurnal": {"mean_rps": 1.0, "amplitude": 0.5, "period_s": 1.0}},
                "prompt_len": {"HeavyTail": {"lo": 1, "alpha": 1.5, "cap": 9}},
                "output_len": {"Uniform": {"lo": 1, "hi": 2}}}}},
            "serving": {"trace": {"arrivals": {"Bursty": {"rate_rps": 1.0, "burst_factor": 2.0,
                                                          "period_s": 1.0, "duty": 0.25}},
                                  "prompt_len": {"Bimodal": {"short": [1, 2], "long": [3, 4],
                                                             "long_weight": 0.5}},
                                  "output_len": {"Uniform": {"lo": 1, "hi": 2}}}}}"#,
        r#"{"name": "c",
            "model": {"dit": {"name": "d", "layers": 2, "hidden": 1152, "heads": 16,
                      "head_dim": 72, "mlp_ratio": 4, "tokens": 256}},
            "workload": {"trace": {"generate": {"rate": {"BurstTrain": {
                "base_rps": 1.0, "burst_rps": 2.0, "period_s": 1.0, "burst_s": 0.5}}}}}}"#,
    ];

    /// Every object level of the schema tree: its dotted path (empty
    /// for the root) and its keys.
    fn object_levels(node: &Node, path: &str, out: &mut Vec<(String, Vec<&'static str>)>) {
        let Node::Map(entries) = node else { return };
        out.push((path.to_string(), entries.iter().map(|(k, _)| *k).collect()));
        for (key, child) in entries.iter() {
            let child_path = if path.is_empty() {
                (*key).to_string()
            } else {
                format!("{path}.{key}")
            };
            object_levels(child, &child_path, out);
        }
    }

    /// The sorted key list after `marker` in a strict-parse error.
    fn listed_keys(err: &str, marker: &str) -> Option<Vec<String>> {
        let (_, list) = err.split_once(marker)?;
        let mut keys: Vec<String> = list.split(", ").map(str::to_string).collect();
        keys.sort();
        Some(keys)
    }

    /// Drift guard over the whole tree: at every object level, an
    /// unknown probe key makes the strict parser list its valid keys
    /// (a struct's fields, or an enum's variants), and that list must be
    /// exactly the schema's key set for the level.
    #[test]
    fn every_schema_level_lists_the_strict_parsers_keys() {
        use crate::sweep::set_path;
        use serde::{Deserialize, Value};

        const PROBE: &str = "__probe";
        let parse = |doc: &Value| crate::ScenarioSpec::from_value(doc).map(drop);
        let bases: Vec<Value> = PROBE_BASES
            .iter()
            .map(|json| serde_json::from_str(json).expect("valid probe JSON"))
            .collect();
        for base in &bases {
            parse(base).expect("probe bases are valid scenarios");
        }
        let mut levels = Vec::new();
        object_levels(&ROOT, "", &mut levels);
        for (path, schema_keys) in levels {
            let at = |doc: &Value| {
                path.split('.')
                    .filter(|seg| !seg.is_empty())
                    .try_fold(doc, |v, seg| v.get(seg))
                    .cloned()
            };
            let base = bases
                .iter()
                .find(|b| matches!(at(b), Some(Value::Map(_))))
                .unwrap_or_else(|| panic!("no probe base has an object at `{path}`"));
            let probe_path = |leaf: &str| {
                if path.is_empty() {
                    leaf.to_string()
                } else {
                    format!("{path}.{leaf}")
                }
            };

            // A struct level: add the probe key next to the valid ones.
            let mut doc = base.clone();
            set_path(&mut doc, &probe_path(PROBE), Value::U64(1)).expect("object level");
            let err = parse(&doc)
                .expect_err("probe key must be rejected")
                .to_string();
            let listed = listed_keys(&err, &format!("`{PROBE}`; valid keys: ")).or_else(|| {
                // An enum level: the probe replaces the variant.
                let mut doc = base.clone();
                let variant = Value::Map(vec![(PROBE.to_string(), Value::Map(Vec::new()))]);
                set_path(&mut doc, &path, variant).expect("object level");
                let err = parse(&doc).expect_err("probe variant must be rejected");
                listed_keys(&err.to_string(), &format!("`{PROBE}`; valid variants: "))
            });
            let listed = listed.unwrap_or_else(|| panic!("`{path}`: no key list in: {err}"));
            let mut expected: Vec<String> = schema_keys.iter().map(|k| k.to_string()).collect();
            expected.sort();
            assert_eq!(
                listed, expected,
                "schema keys at `{path}` differ from the strict parser's"
            );
        }
    }
}
