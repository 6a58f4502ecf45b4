//! Scenario runners: one function per `elk` CLI subcommand, shared by
//! the CLI, the sweep fan-out, and the test suite.
//!
//! Every runner goes through the exact engine entry points the
//! hardcoded-preset paths use ([`DesignRunner`], [`ServingSim`]), so a
//! scenario that names a preset produces byte-identical reports to the
//! equivalent non-spec run — the golden tests pin this.
//!
//! A run fits its chip once: its entry point (a CLI command, a sweep)
//! builds one [`base_runner`] and passes it to each `run_*_observed`
//! call, which derives every runner it needs with
//! [`DesignRunner::with_system`]. The one-shot `run_*` build their own.

use elk_baselines::{Design, DesignRunner};
use elk_cluster::{
    AutoscaleServingSim, ClusterError, ClusterEstimator, ClusterServeConfig, ClusterServingSim,
    DisaggConfig, DisaggServingSim, ParallelismPlan, TenantServingSim,
};
use elk_obs::Obs;
use elk_serve::{RequestTrace, RouterPolicy, ServingSim};
use elk_trace::TraceFile;
use elk_units::Seconds;

use crate::convert::ResolvedModel;
use crate::report::{
    ClusterRunReport, CompileReport, DesignCompileReport, DesignSimRow, ServeReport,
    SimulateReport, TraceGenReport,
};
use crate::spec::{ScenarioSpec, TraceSourceSpec};
use crate::SpecError;

impl From<ClusterError> for SpecError {
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::Invalid(msg) => SpecError::Invalid(msg),
            ClusterError::Compile { source, .. } => SpecError::Compile(source),
        }
    }
}

/// Prefixes the scenario path `path` to a cluster engine's
/// [`ClusterError::Invalid`] message.
fn cluster_at(path: &str) -> impl FnOnce(ClusterError) -> SpecError + '_ {
    move |e| match e {
        ClusterError::Invalid(msg) => SpecError::Invalid(format!("{path}: {msg}")),
        e => e.into(),
    }
}

/// The base runner of one run of `spec`: a fresh fit for the
/// scenario's system, from which every runner of the run derives.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] for an ill-formed system section.
pub fn base_runner(spec: &ScenarioSpec) -> Result<DesignRunner, SpecError> {
    Ok(DesignRunner::new(spec.system.to_system()?))
}

/// Compiles the scenario's designs and simulates each compiled program.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] for an ill-formed spec and
/// [`SpecError::Compile`] when a design has no feasible plan.
pub fn run_compile(spec: &ScenarioSpec) -> Result<CompileReport, SpecError> {
    run_compile_observed(&base_runner(spec)?, spec, &Obs::null())
}

/// Emits one compile-pipeline lane on `obs` for `design`: pseudo-time
/// spans (1 work unit = 1 µs of span width) sized by the run's
/// thread-invariant search counters, never by wall clock — so a
/// recorded compile timeline is byte-identical at any `threads`
/// setting.
fn record_compile_lane(obs: &Obs, design: elk_baselines::Design, d: &DesignCompileReport) {
    let track = format!("compile/{}", crate::spec::design_name(design));
    let unit = |n: usize| Seconds::from_micros(n as f64);
    let mut cursor = Seconds::ZERO;
    let mut phase = |name: &str, units: usize, args: &[(&str, String)]| {
        let dur = unit(units.max(1));
        obs.span(&track, name, cursor, dur, args);
        cursor += dur;
    };
    if let Some(s) = &d.compile {
        phase(
            "enumerate",
            s.distinct_signatures,
            &[("distinct_signatures", s.distinct_signatures.to_string())],
        );
        phase(
            "order_search",
            s.orders_considered,
            &[
                ("orders_considered", s.orders_considered.to_string()),
                ("orders_feasible", s.orders_feasible.to_string()),
            ],
        );
        obs.counter("compile.orders_considered", s.orders_considered as u64);
        obs.counter("compile.distinct_signatures", s.distinct_signatures as u64);
    }
    phase(
        "lower",
        d.ops,
        &[("ops", d.ops.to_string()), ("instrs", d.instrs.to_string())],
    );
    obs.counter("compile.designs", 1);
    obs.counter("compile.instrs", d.instrs as u64);
}

/// [`run_compile`] on a runner derived from `base`, with an attached
/// recorder: per-design compile lanes and `compile.*` counters land on
/// `obs`.
///
/// # Errors
///
/// Same as [`run_compile`].
pub fn run_compile_observed(
    base: &DesignRunner,
    spec: &ScenarioSpec,
    obs: &Obs,
) -> Result<CompileReport, SpecError> {
    let system = spec.system.to_system()?;
    let model = spec.model.resolve()?;
    let workload = spec.workload.to_workload()?;
    let shards = spec.workload.shards_for_model(&system, &model)?;
    let sim = spec.sim.to_options()?;
    let graph = model.build(workload, shards);

    let runner = base
        .with_system(system.clone())
        .with_threads(spec.compiler.threads);
    let designs = runner
        .run_designs(&spec.compiler.design, &graph, &sim)?
        .into_iter()
        .map(|out| {
            let d = DesignCompileReport {
                design: out.design,
                ops: out.program.op_count(),
                instrs: out.program.instrs.len(),
                estimate_total_ms: out.estimate.total.as_millis(),
                compile: out.stats.as_ref().map(Into::into),
                report: out.report,
            };
            if obs.enabled() {
                record_compile_lane(obs, d.design, &d);
            }
            d
        })
        .collect();

    Ok(CompileReport {
        scenario: spec.name.clone(),
        system: system.chip.name.clone(),
        chips: system.chips,
        model: model.name().to_string(),
        workload,
        shards,
        designs,
    })
}

/// Runs the scenario's designs through the chip simulator and reports
/// the comparison table (the §6 figures' view).
///
/// # Errors
///
/// Same as [`run_compile`].
pub fn run_simulate(spec: &ScenarioSpec) -> Result<SimulateReport, SpecError> {
    run_simulate_observed(&base_runner(spec)?, spec, &Obs::null())
}

/// [`run_simulate`] on a runner derived from `base`, with an attached
/// recorder: the underlying compile pass records one `compile/<design>`
/// lane per design (see [`run_compile_observed`]).
///
/// # Errors
///
/// Same as [`run_simulate`].
pub fn run_simulate_observed(
    base: &DesignRunner,
    spec: &ScenarioSpec,
    obs: &Obs,
) -> Result<SimulateReport, SpecError> {
    let compiled = run_compile_observed(base, spec, obs)?;
    let basic_total = compiled
        .designs
        .iter()
        .find(|d| d.design == elk_baselines::Design::Basic)
        .map(|d| d.report.total);
    let designs = compiled
        .designs
        .iter()
        .map(|d| DesignSimRow {
            design: d.design,
            total_ms: d.report.total.as_millis(),
            speedup_vs_basic: basic_total.map(|b| b / d.report.total),
            buckets: d.report.buckets,
            hbm_util: d.report.hbm_util,
            noc_util: d.report.noc_util,
            achieved_tflops: d.report.achieved.as_tera(),
            overlap_fraction: d.report.overlap_fraction(),
            capacity_violations: d.report.capacity_violations,
        })
        .collect();
    Ok(SimulateReport {
        scenario: compiled.scenario,
        system: compiled.system,
        model: compiled.model,
        workload: compiled.workload,
        shards: compiled.shards,
        designs,
    })
}

/// Resolves the request trace a replay command uses: the
/// `workload.trace` source when the scenario has one (a recorded
/// `elk-trace` file — relative paths resolve against the working
/// directory — or a seeded generator), else the synthetic
/// `serving.trace` recipe.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] for an unreadable or ill-formed
/// trace file (the message carries the path and the offending record)
/// or an ill-formed generator recipe.
pub fn resolve_trace(spec: &ScenarioSpec) -> Result<RequestTrace, SpecError> {
    resolve_trace_with_tenants(spec).map(|(trace, _)| trace)
}

/// Like [`resolve_trace`], but also returns the per-request tenant ids
/// (indexable by request id) for the multi-tenant replay. Trace sources
/// carry tenant labels; the synthetic `serving.trace` recipe does not,
/// so it yields an empty assignment (= every request on the default
/// tenant).
///
/// # Errors
///
/// Same conditions as [`resolve_trace`].
pub fn resolve_trace_with_tenants(
    spec: &ScenarioSpec,
) -> Result<(RequestTrace, Vec<String>), SpecError> {
    match &spec.workload.trace {
        Some(TraceSourceSpec::File(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| SpecError::Invalid(format!("workload.trace.file {path:?}: {e}")))?;
            let file = TraceFile::parse(&text)
                .map_err(|e| SpecError::Invalid(format!("workload.trace.file {path:?}: {e}")))?;
            if file.is_empty() {
                return Err(SpecError::Invalid(format!(
                    "workload.trace.file {path:?}: the trace has no records"
                )));
            }
            Ok((file.to_request_trace(), file.tenant_assignments()))
        }
        Some(TraceSourceSpec::Generate(g)) => {
            let file = g.to_config()?.generate();
            let tenants = file.tenant_assignments();
            Ok((file.to_request_trace(), tenants))
        }
        None => Ok((spec.serving.trace.to_config()?.generate(), Vec::new())),
    }
}

/// Generates the scenario's `workload.trace.generate` recipe into a
/// versioned trace file plus its summary report.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] when the scenario has no
/// `workload.trace.generate` section (a `file` source is already a
/// trace — nothing to generate) or the recipe is ill-formed.
pub fn run_trace_gen(spec: &ScenarioSpec) -> Result<(TraceFile, TraceGenReport), SpecError> {
    let g = match &spec.workload.trace {
        Some(TraceSourceSpec::Generate(g)) => g,
        Some(TraceSourceSpec::File(path)) => {
            return Err(SpecError::Invalid(format!(
                "trace gen needs a `workload.trace.generate` recipe, but this scenario \
                 replays the recorded file {path:?}"
            )))
        }
        None => {
            return Err(SpecError::Invalid(
                "trace gen needs a `workload.trace.generate` section".into(),
            ))
        }
    };
    let file = g.to_config()?.generate();
    let report = TraceGenReport {
        scenario: spec.name.clone(),
        seed: g.seed,
        requests: file.len(),
        duration_s: file.duration_s(),
        total_prompt_tokens: file.total_prompt_tokens(),
        total_output_tokens: file.total_output_tokens(),
        tenants: file.tenants().len(),
    };
    Ok((file, report))
}

/// Replays the scenario's request trace against each design.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] when the model is not a dense
/// transformer (check [`ScenarioSpec::servable`] first to skip
/// gracefully), the spec is ill-formed, or a step shape has no
/// feasible plan.
pub fn run_serve(spec: &ScenarioSpec) -> Result<ServeReport, SpecError> {
    run_serve_observed(&base_runner(spec)?, spec, &Obs::null())
}

/// [`run_serve`] with both replays on runners derived from `base`, and
/// an attached recorder: the flat-pool replay (and the tenancy replay,
/// when configured) record kernel spans, request lanes, and
/// `serve.*`/`tenancy.*` metrics onto `obs`.
///
/// # Errors
///
/// Same as [`run_serve`].
pub fn run_serve_observed(
    base: &DesignRunner,
    spec: &ScenarioSpec,
    obs: &Obs,
) -> Result<ServeReport, SpecError> {
    let system = spec.system.to_system()?;
    let model = spec.model.as_transformer()?;
    let shards = spec
        .workload
        .shards_for_model(&system, &ResolvedModel::Llm(model.clone()))?;
    let sim_opts = spec.sim.to_options()?;
    let config = spec.serving.to_config(model.clone(), shards, sim_opts)?;
    let (trace, tenant_ids) = resolve_trace_with_tenants(spec)?;

    let mut sim = ServingSim::new(base.with_system(system.clone()), config.clone());
    sim.set_obs(obs.clone());
    let designs = spec
        .compiler
        .design
        .iter()
        .map(|&design| Ok(sim.run(design, &trace)?))
        .collect::<Result<Vec<_>, SpecError>>()?;

    let tenancy = match &spec.serving.tenants {
        Some(t) => {
            let mut engine = TenantServingSim::new(
                base.with_system(system),
                ClusterServeConfig {
                    model: model.clone(),
                    plan: ParallelismPlan::new(shards, 1, spec.serving.replicas as u64),
                    batch: config.batch,
                    slo: config.slo,
                    sim: sim_opts,
                    threads: spec.serving.threads,
                },
                t.to_config()?,
            )?;
            engine.set_obs(obs.clone());
            let mut rows = Vec::new();
            for &design in &spec.compiler.design {
                rows.push(engine.run(design, RouterPolicy::RoundRobin, &trace, &tenant_ids)?);
            }
            Some(rows)
        }
        None => None,
    };

    Ok(ServeReport {
        scenario: spec.name.clone(),
        model: model.name,
        requests: trace.len(),
        replicas: spec.serving.replicas,
        shards,
        designs,
        tenancy,
    })
}

/// Plans (or auto-searches) the scenario's multi-chip parallelism and
/// estimates the chosen plan; when the scenario's `cluster.serve` flag
/// is on (the default), also replays the serving trace across the
/// plan's replica groups once per design × router policy.
///
/// The scenario's `cluster` section is optional — a scenario without
/// one runs a full auto-parallelism search with defaults.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`] when the model is not a dense
/// transformer or the spec/plan is ill-formed, and [`SpecError::Compile`]
/// when a stage has no feasible on-chip plan.
pub fn run_cluster(spec: &ScenarioSpec) -> Result<ClusterRunReport, SpecError> {
    run_cluster_observed(&base_runner(spec)?, spec, &Obs::null())
}

/// [`run_cluster`] with the estimator and every serving engine on
/// runners derived from `base`, and an attached recorder: every serving
/// engine the scenario exercises (colocated, autoscaled, disaggregated,
/// tenancy) records kernel spans, request lanes, and metrics onto `obs`.
///
/// # Errors
///
/// Same as [`run_cluster`].
pub fn run_cluster_observed(
    base: &DesignRunner,
    spec: &ScenarioSpec,
    obs: &Obs,
) -> Result<ClusterRunReport, SpecError> {
    let cluster = spec.cluster.clone().unwrap_or_default();
    let interconnect = cluster.to_interconnect()?;
    let system = spec
        .system
        .to_system()?
        .with_inter_chip_topology(interconnect);
    let model = spec.model.as_transformer()?;
    let workload = spec.workload.to_workload()?;
    // Plans shard from tp = 1 up, and the unsharded graph holds the
    // largest per-shard counts.
    ResolvedModel::Llm(model.clone()).check_workload(workload, 1)?;
    let sim = spec.sim.to_options()?;
    let design = *spec
        .compiler
        .design
        .first()
        .expect("the design list is never empty (parse rejects it)");

    let estimator = ClusterEstimator::new(base.with_system(system.clone()), cluster.to_options()?);
    let (auto, candidates, estimate) = match cluster.to_plan() {
        Some(plan) => {
            let report = estimator
                .estimate(&model, workload, design, &sim, plan)
                .map_err(cluster_at("cluster.plan"))?;
            (false, None, report)
        }
        None => {
            let outcome = estimator.search(&model, workload, design, &sim)?;
            (true, Some(outcome.candidates), outcome.best)
        }
    };

    // The replays share one resolved trace and one serving config: the
    // serving spec's batching and SLO knobs with the cluster's worker
    // threads. The serving spec's replica and thread knobs are the
    // flat-pool ones and are superseded by the cluster layout; its
    // conversion runs on a one-chip split, which is always even, since
    // each engine checks its plan against the model itself. The
    // disaggregated replay swaps in its own plans.
    let (mut serving, mut autoscale, mut disagg, mut tenancy) = (None, None, None, None);
    if cluster.serve {
        let serve = spec.serving.to_config(model.clone(), 1, sim)?;
        let config = ClusterServeConfig {
            model: model.clone(),
            plan: estimate.plan,
            batch: serve.batch,
            slo: serve.slo,
            sim,
            threads: cluster.threads,
        };
        let (trace, tenant_ids) = resolve_trace_with_tenants(spec)?;
        let designs = &spec.compiler.design;
        let mut engine = ClusterServingSim::new(base.with_system(system.clone()), config.clone())?;
        engine.set_obs(obs.clone());
        serving = Some(per_design_and_policy(designs, &cluster.router, |d, p| {
            engine.run(d, p, &trace)
        })?);
        if let Some(auto) = &cluster.autoscale {
            let mut engine = AutoscaleServingSim::new(
                base.with_system(system.clone()),
                config.clone(),
                auto.to_config()?,
            )
            .map_err(cluster_at("cluster.autoscale"))?;
            engine.set_obs(obs.clone());
            let rows: Result<_, ClusterError> =
                designs.iter().map(|&d| engine.run(d, &trace)).collect();
            // A run's one spec error: a controller that ticks too often.
            autoscale = Some(rows.map_err(cluster_at("cluster.autoscale.interval_ms"))?);
        }
        if let Some(split) = &cluster.disaggregate {
            let (prefill, decode) = split.to_plans();
            let mut engine = DisaggServingSim::new(
                base.with_system(system.clone()),
                DisaggConfig {
                    batch: config.batch,
                    slo: config.slo,
                    sim: config.sim,
                    threads: config.threads,
                    chunk_tokens: split.chunk_tokens,
                    shared_chips: split.shared_chips,
                    ..DisaggConfig::new(config.model.clone(), prefill, decode)
                },
            )
            .map_err(cluster_at("cluster.disaggregate"))?;
            engine.set_obs(obs.clone());
            disagg = Some(per_design_and_policy(designs, &cluster.router, |d, p| {
                engine.run(d, p, &trace)
            })?);
        }
        if let Some(tenants) = &cluster.tenants {
            let mut engine = TenantServingSim::new(
                base.with_system(system.clone()),
                config,
                tenants.to_config()?,
            )?;
            engine.set_obs(obs.clone());
            tenancy = Some(per_design_and_policy(designs, &cluster.router, |d, p| {
                engine.run(d, p, &trace, &tenant_ids)
            })?);
        }
    }

    Ok(ClusterRunReport {
        scenario: spec.name.clone(),
        system: system.chip.name.clone(),
        chips: system.chips,
        model: model.name.clone(),
        design,
        interconnect: interconnect.name().to_string(),
        auto,
        candidates,
        estimate,
        serving,
        autoscale,
        disagg,
        tenancy,
    })
}

/// Runs `replay` once per design × router policy, designs outer.
fn per_design_and_policy<T>(
    designs: &[Design],
    policies: &[RouterPolicy],
    mut replay: impl FnMut(Design, RouterPolicy) -> Result<T, ClusterError>,
) -> Result<Vec<T>, SpecError> {
    let mut rows = Vec::new();
    for &design in designs {
        for &policy in policies {
            rows.push(replay(design, policy)?);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_baselines::Design;

    fn tiny(extra: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(&format!(
            r#"{{"name": "tiny", "model": {{"zoo": "llama13", "layers": 2}},
                "workload": {{"batch": 16, "seq_len": 512}}{extra}}}"#
        ))
        .expect("valid test scenario")
    }

    #[test]
    fn compile_runs_the_default_design() {
        let report = run_compile(&tiny("")).unwrap();
        assert_eq!(report.designs.len(), 1);
        let d = &report.designs[0];
        assert_eq!(d.design, Design::ElkFull);
        assert!(d.compile.is_some(), "Elk designs report compile stats");
        assert_eq!(d.report.capacity_violations, 0);
        assert!(d.report.total.as_millis() > 0.0);
        assert_eq!(report.shards, 4, "defaults to the pod's chip count");
    }

    #[test]
    fn simulate_reports_speedups_relative_to_basic() {
        let spec = tiny(r#", "compiler": {"design": ["basic", "elk_full"]}"#);
        let report = run_simulate(&spec).unwrap();
        assert_eq!(report.designs.len(), 2);
        let basic = &report.designs[0];
        let full = &report.designs[1];
        assert!((basic.speedup_vs_basic.unwrap() - 1.0).abs() < 1e-12);
        assert!(full.speedup_vs_basic.unwrap() >= 1.0, "Elk-Full >= Basic");
    }

    #[test]
    fn serve_completes_every_request() {
        let spec = tiny(r#", "serving": {"trace": {"requests": 6}}"#);
        let report = run_serve(&spec).unwrap();
        assert_eq!(report.requests, 6);
        assert_eq!(report.designs[0].completed, 6);
    }

    #[test]
    fn cluster_runs_a_fixed_plan_with_serving() {
        let spec = tiny(
            r#", "cluster": {"plan": {"tp": 2, "pp": 1, "dp": 2},
                             "router": ["round_robin", "least_outstanding"]},
                "serving": {"trace": {"requests": 5}}"#,
        );
        let report = run_cluster(&spec).unwrap();
        assert!(!report.auto);
        assert!(report.candidates.is_none());
        assert_eq!(
            report.estimate.plan,
            elk_cluster::ParallelismPlan::new(2, 1, 2)
        );
        let rows = report.serving.expect("serve defaults on");
        assert_eq!(rows.len(), 2, "one row per router policy");
        for row in &rows {
            assert_eq!(row.completed, 5);
        }
    }

    #[test]
    fn cluster_auto_search_lists_candidates() {
        let spec = tiny(r#", "cluster": {"serve": false}"#);
        let report = run_cluster(&spec).unwrap();
        assert!(report.auto);
        let candidates = report.candidates.expect("auto mode records the grid");
        assert!(candidates.len() >= 8);
        assert!(report.serving.is_none());
        assert!(report.estimate.scaling_efficiency.is_some());
    }

    #[test]
    fn cluster_rejects_non_transformer_models() {
        let spec =
            ScenarioSpec::from_json(r#"{"name": "moe", "model": {"zoo": "mixtral", "layers": 2}}"#)
                .unwrap();
        let e = run_cluster(&spec).unwrap_err().to_string();
        assert!(e.contains("dense transformer"), "{e}");
    }

    /// Like [`tiny`] but with a `workload.trace` source in place of the
    /// default steady-state workload.
    fn traced(workload_trace: &str, extra: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(&format!(
            r#"{{"name": "traced", "model": {{"zoo": "llama13", "layers": 2}},
                "workload": {{"batch": 16, "seq_len": 512, "trace": {workload_trace}}}{extra}}}"#
        ))
        .expect("valid test scenario")
    }

    #[test]
    fn workload_trace_supersedes_the_serving_recipe() {
        let spec = traced(
            r#"{"generate": {"requests": 7,
                 "rate": {"Constant": {"rate_rps": 200.0}},
                 "prompt_len": {"Uniform": {"lo": 128, "hi": 256}},
                 "output_len": {"Fixed": 3}}}"#,
            r#", "serving": {"trace": {"requests": 99}}"#,
        );
        let report = run_serve(&spec).unwrap();
        assert_eq!(report.requests, 7, "the workload trace wins");
        assert_eq!(report.designs[0].completed, 7);
    }

    #[test]
    fn trace_gen_requires_a_generator_recipe() {
        let e = run_trace_gen(&tiny("")).unwrap_err().to_string();
        assert!(e.contains("workload.trace.generate"), "{e}");

        let spec = traced(r#"{"file": "nope.jsonl"}"#, "");
        let e = run_trace_gen(&spec).unwrap_err().to_string();
        assert!(e.contains("nope.jsonl"), "{e}");
        // And replaying a missing file names the path.
        let e = run_serve(&spec).unwrap_err().to_string();
        assert!(e.contains("nope.jsonl"), "{e}");
    }

    #[test]
    fn trace_gen_emits_a_parsable_file_and_summary() {
        let spec = traced(
            r#"{"generate": {"seed": 11, "requests": 12,
                 "rate": {"BurstTrain": {"base_rps": 50.0, "burst_rps": 400.0,
                                         "period_s": 1.0, "burst_s": 0.2}},
                 "output_len": {"HeavyTail": {"lo": 4, "alpha": 1.5, "cap": 64}},
                 "tenants": 2}}"#,
            "",
        );
        let (file, report) = run_trace_gen(&spec).unwrap();
        assert_eq!(report.requests, 12);
        assert_eq!(file.len(), 12);
        assert!(report.tenants >= 1 && report.tenants <= 2);
        assert!(report.duration_s >= 0.0);
        let reparsed = elk_trace::TraceFile::parse(&file.to_jsonl()).unwrap();
        assert_eq!(reparsed, file);
    }

    #[test]
    fn cluster_autoscale_section_adds_elastic_rows() {
        let spec = traced(
            r#"{"generate": {"requests": 24,
                 "rate": {"BurstTrain": {"base_rps": 20.0, "burst_rps": 2000.0,
                                         "period_s": 2.0, "burst_s": 0.5}},
                 "prompt_len": {"Uniform": {"lo": 128, "hi": 256}},
                 "output_len": {"Uniform": {"lo": 2, "hi": 6}}}}"#,
            r#", "cluster": {"plan": {"tp": 1, "pp": 1, "dp": 1},
                             "autoscale": {"min_groups": 1, "max_groups": 2,
                                           "interval_ms": 100.0,
                                           "up_queue_depth": 1.0}}"#,
        );
        let report = run_cluster(&spec).unwrap();
        let rows = report.autoscale.expect("autoscale section ran");
        assert_eq!(rows.len(), 1, "one row per design");
        let row = &rows[0];
        assert_eq!(row.completed, row.requests);
        assert_eq!(row.max_groups, 2);
        assert!(!row.transitions.is_empty());
        // The plain serving comparison still runs alongside.
        assert!(report.serving.is_some());
    }

    #[test]
    fn serve_tenants_section_adds_per_tenant_rows() {
        let spec = tiny(r#", "serving": {"trace": {"requests": 6}}"#);
        assert!(run_serve(&spec).unwrap().tenancy.is_none());

        let spec = tiny(
            r#", "serving": {"trace": {"requests": 6},
                 "tenants": {"classes": [{"name": "premium"},
                                         {"name": "bulk", "priority": 16}],
                             "map": {"t0": "premium"},
                             "default_class": "bulk"}}"#,
        );
        let report = run_serve(&spec).unwrap();
        let rows = report.tenancy.expect("tenants section ran");
        assert_eq!(rows.len(), report.designs.len(), "one row per design");
        let row = &rows[0];
        assert_eq!(row.admitted + row.rejected + row.deferred, 6);
        assert_eq!(row.base.completed, row.admitted + row.deferred);
        // The synthetic serving trace carries no tenant tags, so every
        // request lands on the default class under one "default" tenant.
        assert_eq!(row.tenants.len(), 1);
        assert_eq!(row.tenants[0].class, "bulk");
    }

    #[test]
    fn cluster_trivial_tenancy_base_matches_plain_serving_rows() {
        let serving = r#""serving": {"trace": {"requests": 5}}"#;
        let cluster = r#""cluster": {"plan": {"tp": 1, "pp": 1, "dp": 2},
                          "router": ["round_robin", "least_outstanding"]"#;
        let plain = tiny(&format!(", {cluster}}}, {serving}"));
        let trivial = tiny(&format!(
            r#", {cluster}, "tenants": {{"classes": [{{"name": "default"}}]}}}}, {serving}"#
        ));

        let plain = run_cluster(&plain).unwrap();
        assert!(plain.tenancy.is_none(), "no tenants section, no rows");
        let trivial = run_cluster(&trivial).unwrap();

        // A single permissive default class must not perturb the
        // simulation: each tenancy row's whole-run aggregate serializes
        // byte-identically to the plain serving row it shadows.
        let serving_rows = trivial.serving.as_ref().expect("serve defaults on");
        let tenancy_rows = trivial.tenancy.expect("tenants section ran");
        assert_eq!(tenancy_rows.len(), serving_rows.len());
        for (t, s) in tenancy_rows.iter().zip(serving_rows) {
            assert_eq!(t.admitted, 5, "a trivial class admits everything");
            assert_eq!(t.rejected + t.deferred, 0);
            assert_eq!(
                serde_json::to_string(&t.base).unwrap(),
                serde_json::to_string(s).unwrap(),
                "trivial tenancy must shadow the plain engine byte-for-byte"
            );
        }
        // And the plain rows themselves match the no-tenancy run.
        assert_eq!(
            serde_json::to_string(&plain.serving).unwrap(),
            serde_json::to_string(&trivial.serving).unwrap()
        );
    }

    #[test]
    fn serve_rejects_non_transformer_models() {
        let spec =
            ScenarioSpec::from_json(r#"{"name": "moe", "model": {"zoo": "mixtral", "layers": 2}}"#)
                .unwrap();
        assert!(!spec.servable());
        let e = run_serve(&spec).unwrap_err().to_string();
        assert!(e.contains("dense transformer"), "{e}");
    }
}
