//! Grid sweeps over scenario fields: the design-space-exploration
//! driver behind `elk sweep`.
//!
//! A sweep works on the scenario's *JSON document*, not its parsed
//! struct: each axis names a dotted path (`"workload.batch"`,
//! `"system.chip.cores"`, `"compiler.design"`), and every grid point
//! clones the document, substitutes one value per axis, and re-parses.
//! Every point is parsed up front, in grid order, before any point
//! runs: the strict parser rejects a typo'd path or an ill-typed value
//! with its dotted level and valid keys, and any spec field — including
//! ones the base file left to defaults — is sweepable.
//!
//! The parsed points then fan out over an [`elk_par`] work pool and
//! merge in grid order, so the report is byte-identical at any
//! `--threads` setting. The sweep owns one base runner, fitted for its
//! first point; every point derives its runner from it with
//! [`DesignRunner::with_system`], so points on an equal device share one
//! cost-model fit and points on the same chip share plan sets.

use elk_baselines::DesignRunner;
use elk_obs::Obs;
use serde::{Deserialize, Serialize, Value};

use crate::report::{SweepPoint, SweepReport};
use crate::spec::{ScenarioSpec, SweepCommand, SweepSpec};
use crate::{runner, SpecError};

/// Substitutes `new` at dotted `path` inside `root`, creating missing
/// intermediate objects (the sweep's parse pass rejects paths that
/// create keys the spec does not know).
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] when a path segment lands on a
/// non-object value (e.g. `"name.x"`).
pub fn set_path(root: &mut Value, path: &str, new: Value) -> Result<(), SpecError> {
    let mut cur = root;
    let mut segments = path.split('.').peekable();
    while let Some(seg) = segments.next() {
        let Value::Map(entries) = cur else {
            return Err(SpecError::Invalid(format!(
                "sweep path `{path}`: segment `{seg}` lands inside a non-object value"
            )));
        };
        let idx = match entries.iter().position(|(k, _)| k == seg) {
            Some(idx) => idx,
            None => {
                entries.push((seg.to_string(), Value::Map(Vec::new())));
                entries.len() - 1
            }
        };
        if segments.peek().is_none() {
            entries[idx].1 = new;
            return Ok(());
        }
        cur = &mut entries[idx].1;
    }
    unreachable!("split('.') yields at least one segment")
}

/// One grid point's overrides: `(path, value)` per axis, in axis order.
type Overrides = Vec<(String, Value)>;

/// Expands the axes' cartesian product in row-major order (the last
/// axis varies fastest).
fn grid(axes: &[crate::spec::SweepAxis]) -> Vec<Overrides> {
    let mut points: Vec<Overrides> = vec![Vec::new()];
    for axis in axes {
        points = points
            .into_iter()
            .flat_map(|point| {
                axis.values.iter().map(move |v| {
                    let mut next = point.clone();
                    next.push((axis.path.clone(), v.clone()));
                    next
                })
            })
            .collect();
    }
    points
}

/// A sweep after its parse pass: the scenario's name and sweep section,
/// and every grid point's overrides with the named spec they produce,
/// in grid order.
pub(crate) struct ParsedSweep {
    scenario: String,
    sweep: SweepSpec,
    points: Vec<(Overrides, ScenarioSpec)>,
}

/// The parse pass: strict-parses the scenario document `doc`, then each
/// grid point's patched document, in grid order; the first point that
/// does not parse is the error.
pub(crate) fn parse_sweep(doc: &Value) -> Result<ParsedSweep, SpecError> {
    let spec = ScenarioSpec::from_value(doc)?;
    let Some(sweep) = spec.sweep else {
        return Err(SpecError::Invalid(format!(
            "scenario `{}` has no `sweep` section",
            spec.name
        )));
    };

    // The base document is the scenario without its sweep section, so a
    // point's overrides re-parse as a plain (sweepless) scenario.
    let Value::Map(entries) = doc else {
        unreachable!("from_value above only accepts objects");
    };
    let base = Value::Map(
        entries
            .iter()
            .filter(|(k, _)| k != "sweep")
            .cloned()
            .collect(),
    );

    let points = grid(&sweep.axes)
        .into_iter()
        .map(|overrides| {
            let mut doc = base.clone();
            for (path, value) in &overrides {
                set_path(&mut doc, path, value.clone())?;
            }
            let mut point_spec = ScenarioSpec::from_value(&doc).map_err(|e| {
                SpecError::Invalid(format!("sweep point {}: {e}", describe(&overrides)))
            })?;
            point_spec.name = format!("{}[{}]", spec.name, describe(&overrides));
            Ok((overrides, point_spec))
        })
        .collect::<Result<_, SpecError>>()?;
    Ok(ParsedSweep {
        scenario: spec.name,
        sweep,
        points,
    })
}

/// Runs the sweep described by the scenario document `doc`: every grid
/// point is parsed first, then the parsed points fan out across
/// `threads` workers (`0` = all available cores), each on a runner
/// derived from the sweep's one base. The merged report is in grid
/// order and byte-identical at any thread count.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] when the document has no `sweep`
/// section or an override produces an ill-formed scenario (the first
/// such point in grid order, before any point runs), and propagates
/// the first failing point's run error (in grid order).
pub fn run_sweep(doc: &Value, threads: usize) -> Result<SweepReport, SpecError> {
    let parsed = parse_sweep(doc)?;
    let command = parsed.sweep.command;
    let (_, first) = parsed
        .points
        .first()
        .expect("every axis has a value, so the grid has a point");
    let base = runner::base_runner(first)?;
    let results = elk_par::try_par_map(threads, &parsed.points, |_, (overrides, point_spec)| {
        run_point(&base, point_spec, command, overrides)
    })?;

    Ok(SweepReport {
        scenario: parsed.scenario,
        command: command.name().to_string(),
        axes: parsed.sweep.axes.iter().map(|a| a.path.clone()).collect(),
        points: results,
    })
}

/// Runs one parsed point through `command`, on a runner derived from
/// `base`.
fn run_point(
    base: &DesignRunner,
    point_spec: &ScenarioSpec,
    command: SweepCommand,
    overrides: &Overrides,
) -> Result<SweepPoint, SpecError> {
    let obs = Obs::null();
    let report = match command {
        SweepCommand::Compile => runner::run_compile_observed(base, point_spec, &obs)?.to_value(),
        SweepCommand::Simulate => runner::run_simulate_observed(base, point_spec, &obs)?.to_value(),
        SweepCommand::Serve => runner::run_serve_observed(base, point_spec, &obs)?.to_value(),
    };
    Ok(SweepPoint {
        name: point_spec.name.clone(),
        overrides: Value::Map(overrides.clone()),
        report,
    })
}

/// `path=value` pairs, comma-joined — the point's display name.
fn describe(overrides: &Overrides) -> String {
    overrides
        .iter()
        .map(|(path, v)| {
            format!(
                "{path}={}",
                serde_json::to_string(v).expect("value serialization is infallible")
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(json: &str) -> Value {
        serde_json::from_str(json).expect("valid test JSON")
    }

    #[test]
    fn set_path_replaces_and_creates() {
        let mut v = doc(r#"{"workload": {"batch": 32}}"#);
        set_path(&mut v, "workload.batch", Value::U64(8)).unwrap();
        assert_eq!(
            v.get("workload").unwrap().get("batch"),
            Some(&Value::U64(8))
        );
        // Creating a section the base omitted.
        set_path(&mut v, "compiler.threads", Value::U64(2)).unwrap();
        assert_eq!(
            v.get("compiler").unwrap().get("threads"),
            Some(&Value::U64(2))
        );
        // Descending into a scalar is an error.
        let e = set_path(&mut v, "workload.batch.x", Value::U64(1)).unwrap_err();
        assert!(e.to_string().contains("non-object"), "{e}");
    }

    #[test]
    fn grid_is_row_major_with_last_axis_fastest() {
        let axes = vec![
            crate::spec::SweepAxis {
                path: "a".into(),
                values: vec![Value::U64(1), Value::U64(2)],
            },
            crate::spec::SweepAxis {
                path: "b".into(),
                values: vec![Value::U64(10), Value::U64(20)],
            },
        ];
        let points = grid(&axes);
        let flat: Vec<(u64, u64)> = points
            .iter()
            .map(|p| {
                let a = u64::from_value(&p[0].1).unwrap();
                let b = u64::from_value(&p[1].1).unwrap();
                (a, b)
            })
            .collect();
        assert_eq!(flat, vec![(1, 10), (1, 20), (2, 10), (2, 20)]);
    }

    #[test]
    fn sweep_runs_and_merges_deterministically() {
        let batch = doc(r#"{
              "name": "s",
              "model": {"zoo": "llama13", "layers": 2},
              "workload": {"batch": 16, "seq_len": 512},
              "sweep": {"command": "compile",
                        "axes": [{"path": "workload.batch", "values": [8, 16]}]}
            }"#);
        // Chip axes: a smaller SRAM keeps the device, so its points share
        // the base's fit with fresh plan sets; a faster SRAM port changes
        // the device, so its points fit afresh.
        let chip = doc(r#"{
              "name": "c",
              "system": {"chip": {"cores": 1472, "matmul_tflops": 250.0,
                                  "vector_tflops": 7.8}},
              "model": {"zoo": "llama13", "layers": 2},
              "workload": {"batch": 16, "seq_len": 512},
              "sweep": {"command": "compile",
                        "axes": [{"path": "system.chip.sram_per_core_kib",
                                  "values": [624, 600]},
                                 {"path": "system.chip.sram_bw_gb_s",
                                  "values": [21.3, 30.0]}]}
            }"#);
        for (scenario, points, first) in [
            (batch, 2, "s[workload.batch=8]"),
            (
                chip,
                4,
                "c[system.chip.sram_per_core_kib=624,system.chip.sram_bw_gb_s=21.3]",
            ),
        ] {
            let seq = run_sweep(&scenario, 1).unwrap();
            let par = run_sweep(&scenario, 8).unwrap();
            assert_eq!(seq.points.len(), points);
            assert_eq!(seq.points[0].name, first);
            assert_eq!(
                serde_json::to_string(&seq).unwrap(),
                serde_json::to_string(&par).unwrap(),
                "sweep must be byte-identical at any thread count"
            );
            // A derived point reports what a fresh fit of it would.
            for ((_, spec), point) in parse_sweep(&scenario)
                .unwrap()
                .points
                .iter()
                .zip(&seq.points)
            {
                assert_eq!(runner::run_compile(spec).unwrap().to_value(), point.report);
            }
        }
    }

    #[test]
    fn sweep_without_section_is_an_error() {
        let scenario = doc(r#"{"name": "s", "model": {"zoo": "llama13"}}"#);
        let e = run_sweep(&scenario, 1).unwrap_err();
        assert!(e.to_string().contains("no `sweep` section"), "{e}");
    }

    #[test]
    fn typo_in_a_swept_path_fails_up_front_with_valid_keys() {
        let scenario = doc(r#"{
              "name": "s",
              "model": {"zoo": "llama13", "layers": 2},
              "sweep": {"axes": [{"path": "workload.bach", "values": [8]}]}
            }"#);
        let e = run_sweep(&scenario, 1).unwrap_err().to_string();
        assert!(e.contains("bach"), "{e}");
        assert!(
            e.contains("valid keys") && e.contains("batch") && e.contains("seq_len"),
            "the error must list the valid keys at that level: {e}"
        );

        // Deeper typo: the chip level's keys are listed.
        let scenario = doc(r#"{
              "name": "s",
              "model": {"zoo": "llama13", "layers": 2},
              "sweep": {"axes": [{"path": "system.chip.coers", "values": [64]}]}
            }"#);
        let e = run_sweep(&scenario, 1).unwrap_err().to_string();
        assert!(e.contains("`coers`"), "{e}");
        assert!(
            e.contains("system.chip"),
            "the error must name the level: {e}"
        );
        let (_, valid) = e.split_once("valid keys: ").expect("a valid-key list");
        assert!(valid.split(", ").any(|k| k == "cores"), "{e}");
    }

    #[test]
    fn every_malformed_point_fails_before_any_point_runs() {
        // Point 1 parses but cannot run (40 heads over 3 shards); point 2
        // does not parse. The parse pass must report point 2 first.
        let scenario = doc(r#"{
              "name": "s",
              "model": {"zoo": "llama13", "layers": 2},
              "sweep": {"axes": [{"path": "workload.shards", "values": [3]},
                                 {"path": "workload.batch", "values": [8, "x"]}]}
            }"#);
        let e = run_sweep(&scenario, 1).unwrap_err().to_string();
        assert!(
            e.contains(r#"sweep point workload.shards=3,workload.batch="x""#),
            "{e}"
        );
        assert!(!e.contains("shards (3)"), "point 1 must not have run: {e}");

        // The parse pass alone accepts point 1: its failure is a run error.
        let scenario = doc(r#"{
              "name": "s",
              "model": {"zoo": "llama13", "layers": 2},
              "sweep": {"axes": [{"path": "workload.shards", "values": [3]}]}
            }"#);
        assert_eq!(parse_sweep(&scenario).unwrap().points.len(), 1);
        let e = run_sweep(&scenario, 1).unwrap_err().to_string();
        assert!(e.contains("heads (40)") && e.contains("shards (3)"), "{e}");
    }

    /// Every leaf path under `value`, dotted from `prefix`. Arrays are
    /// leaves; empty objects have none.
    fn leaf_paths(value: &Value, prefix: &str, out: &mut Vec<(String, Value)>) {
        let Value::Map(entries) = value else {
            out.push((prefix.to_string(), value.clone()));
            return;
        };
        for (key, child) in entries {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            leaf_paths(child, &path, out);
        }
    }

    /// Every field a scenario emits is sweepable: setting any leaf of
    /// the canonical document to its own value parses back to the same
    /// spec.
    #[test]
    fn every_emitted_field_is_sweepable() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("scenarios directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no scenarios in {}", dir.display());
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable scenario");
            let mut base = ScenarioSpec::from_json(&text).expect("scenario parses");
            base.sweep = None;
            let Value::Map(canonical) = base.to_value() else {
                unreachable!("a scenario serializes as an object")
            };
            let mut leaves = Vec::new();
            leaf_paths(&Value::Map(canonical.clone()), "", &mut leaves);
            for (path, value) in leaves {
                let axis = Value::Map(vec![
                    ("path".into(), Value::Str(path.clone())),
                    ("values".into(), Value::Seq(vec![value])),
                ]);
                let mut entries = canonical.clone();
                entries.push((
                    "sweep".into(),
                    Value::Map(vec![("axes".into(), Value::Seq(vec![axis]))]),
                ));
                let parsed = parse_sweep(&Value::Map(entries))
                    .unwrap_or_else(|e| panic!("{}: `{path}`: {e}", file.display()));
                let [(_, point)] = &parsed.points[..] else {
                    panic!("a one-value axis has one point")
                };
                let mut point = point.clone();
                point.name.clone_from(&base.name);
                assert_eq!(point, base, "{}: sweeping `{path}`", file.display());
            }
        }
    }

    /// Runs every conversion the runners perform on `spec`, each under
    /// `catch_unwind`, without building an engine or generating a
    /// trace. Returns the steps that panicked instead of returning `Ok`
    /// or a [`SpecError`].
    fn panicking_conversions(spec: &ScenarioSpec) -> Vec<&'static str> {
        use crate::convert::ResolvedModel;
        use crate::spec::TraceSourceSpec;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut panics = Vec::new();
        let mut probe = |step, f: &mut dyn FnMut() -> Result<(), SpecError>| {
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                panics.push(step);
            }
        };
        let (mut system, mut model, mut sim) = (None, None, None);
        probe("system", &mut || {
            system = Some(spec.system.to_system()?);
            Ok(())
        });
        probe("model", &mut || {
            model = Some(spec.model.resolve()?);
            Ok(())
        });
        probe("sim", &mut || {
            sim = Some(spec.sim.to_options()?);
            Ok(())
        });
        probe("workload", &mut || spec.workload.to_workload().map(drop));
        probe("serving.trace", &mut || {
            spec.serving.trace.to_config().map(drop)
        });
        if let Some(TraceSourceSpec::Generate(g)) = &spec.workload.trace {
            probe("workload.trace", &mut || g.to_config().map(drop));
        }
        let cluster = spec.cluster.clone().unwrap_or_default();
        probe("cluster", &mut || {
            cluster.to_interconnect()?;
            cluster.to_options()?;
            let _ = cluster.to_plan();
            Ok(())
        });
        if let Some(auto) = &cluster.autoscale {
            probe("cluster.autoscale", &mut || auto.to_config().map(drop));
        }
        if let Some(disagg) = &cluster.disaggregate {
            probe("cluster.disaggregate", &mut || {
                let _ = disagg.to_plans();
                Ok(())
            });
        }
        for tenants in [&spec.serving.tenants, &cluster.tenants]
            .into_iter()
            .flatten()
        {
            probe("tenants", &mut || tenants.to_config().map(drop));
        }
        if let (Some(system), Some(model), Some(sim)) = (system, model, sim) {
            probe("serving", &mut || {
                let shards = spec.workload.shards_for_model(&system, &model)?;
                if let ResolvedModel::Llm(cfg) = &model {
                    spec.serving.to_config(cfg.clone(), shards, sim)?;
                }
                Ok(())
            });
        }
        panics
    }

    /// No conversion panics on an extreme number: each numeric leaf of
    /// every scenario's canonical document, set to 0, -1, 1e300 or
    /// u64::MAX, either converts or yields a `SpecError`.
    #[test]
    fn extreme_values_convert_or_fail_typed() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("scenarios directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        let extremes = [
            Value::U64(0),
            Value::I64(-1),
            Value::F64(1e300),
            Value::U64(u64::MAX),
        ];
        let (mut probed, mut failures) = (0, Vec::new());
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable scenario");
            let mut base = ScenarioSpec::from_json(&text).expect("scenario parses");
            base.sweep = None;
            let canonical = base.to_value();
            let mut leaves = Vec::new();
            leaf_paths(&canonical, "", &mut leaves);
            for (path, leaf) in leaves {
                if !matches!(leaf, Value::U64(_) | Value::I64(_) | Value::F64(_)) {
                    continue;
                }
                for extreme in &extremes {
                    let mut doc = canonical.clone();
                    set_path(&mut doc, &path, extreme.clone()).expect("leaf path");
                    let Ok(spec) = ScenarioSpec::from_value(&doc) else {
                        continue;
                    };
                    probed += 1;
                    for step in panicking_conversions(&spec) {
                        let name = file.file_name().unwrap().to_string_lossy();
                        failures.push(format!("{name}: {path} = {extreme:?} panics in {step}"));
                    }
                }
            }
        }
        assert!(probed > 500, "only {probed} documents parsed");
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
