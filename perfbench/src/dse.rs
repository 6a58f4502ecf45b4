//! `dse_sweep`: a chip design-space grid like the paper's Figs. 19–24,
//! with no serving. Cores per chip × HBM bandwidth per core on IPU-POD4;
//! each point fits the cost model, builds a plan catalog per model and
//! runs all five designs at decode b32/s2048, on one thread.

use std::time::Instant;

use elk_baselines::{Design, DesignOutcome, DesignRunner};
use elk_core::CompileError;
use elk_hw::SystemConfig;
use elk_model::ModelGraph;
use elk_sim::SimOptions;
use elk_spec::ScenarioSpec;
use elk_units::ByteRate;

use crate::span::Tracer;
use crate::{fnv1a, median, metric, Rep, FNV_OFFSET};

/// One scenario per model: system preset, model, workload, designs.
const SPECS: [&str; 2] = [
    include_str!("../scenarios/dse_llama13.json"),
    include_str!("../scenarios/dse_gemma27.json"),
];

/// Cores per chip. Gemma-2-27B has no feasible plan at 736 cores.
const CORES: [u64; 2] = [736, 1472];

/// HBM bandwidth per core in GB/s before the seeded jitter.
const HBM_PER_CORE_GBPS: [f64; 2] = [1.8, 3.6];

/// Largest relative change the seed applies to each HBM value.
const HBM_JITTER: f64 = 0.05;

/// Simulator-noise slack of the design ordering, as `elk-baselines`
/// uses it.
const SLACK: f64 = 1.02;

/// Set-up passes per repetition.
const SETUP_REPEATS: usize = 15;

struct Model {
    name: String,
    graph: ModelGraph,
    designs: Vec<Design>,
    sim: SimOptions,
}

fn total(outs: &[DesignOutcome], design: Design) -> Option<f64> {
    outs.iter()
        .find(|o| o.design == design)
        .map(|o| o.report.total.as_secs())
}

fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Parses the scenarios, builds each model's graph and draws the HBM
/// axis from `seed`.
fn setup(seed: u64, tracer: &Tracer) -> (SystemConfig, Vec<Model>, Vec<f64>) {
    let mut base = None;
    let mut models = Vec::new();
    for json in SPECS {
        let spec = tracer
            .span("spec.parse", || ScenarioSpec::from_json(json))
            .expect("the benchmark's scenario files parse");
        let system = spec.system.to_system().expect("valid system");
        let resolved = spec.model.resolve().expect("zoo model");
        let workload = spec.workload.to_workload().expect("valid workload");
        let shards = spec.workload.shards_for(&system).expect("valid shards");
        models.push(Model {
            name: resolved.name().to_string(),
            graph: tracer.span("model.build", || resolved.build(workload, shards)),
            designs: spec.compiler.design.clone(),
            sim: spec.sim.to_options().expect("valid sim options"),
        });
        base.get_or_insert(system);
    }
    let mut rng = elk_sim_core::SimRng::new(seed);
    let hbm = HBM_PER_CORE_GBPS
        .iter()
        .map(|gbps| gbps * (1.0 + HBM_JITTER * (2.0 * rng.next_f64() - 1.0)))
        .collect();
    (base.expect("at least one scenario"), models, hbm)
}

/// One `dse_sweep` repetition.
pub fn sweep(seed: u64, tracer: &Tracer) -> Rep {
    // Setting up takes well under a millisecond, so time it several
    // times and keep the median; only the last pass is traced.
    let quiet = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        state = Some(setup(
            seed,
            if i + 1 == SETUP_REPEATS {
                tracer
            } else {
                &quiet
            },
        ));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    let (base, models, hbm) = state.expect("SETUP_REPEATS > 0");

    let t1 = Instant::now();
    let mut points: Vec<(u64, f64, usize, Vec<DesignOutcome>)> = Vec::new();
    let mut infeasible = 0u64;
    let mut runs = 0u64;
    let mut failed = 0u64;
    for cores in CORES {
        for &gbps in &hbm {
            let system = base.with_cores_and_hbm_per_core(cores, ByteRate::new(gbps * 1e9));
            let runner = tracer.span("cost.fit", || DesignRunner::new(system).with_threads(1));
            for (mi, m) in models.iter().enumerate() {
                let catalog = match tracer.span("catalog.build", || runner.catalog(&m.graph)) {
                    Ok(c) => c,
                    Err(CompileError::NoFeasiblePlan { .. }) => {
                        infeasible += 1;
                        continue;
                    }
                    Err(_) => {
                        runs += m.designs.len() as u64;
                        failed += m.designs.len() as u64;
                        continue;
                    }
                };
                let mut outs = Vec::new();
                for &d in &m.designs {
                    let layer = if matches!(d, Design::ElkDyn | Design::ElkFull) {
                        "compile.order_search"
                    } else {
                        "baselines.plan"
                    };
                    runs += 1;
                    match tracer.span(layer, || runner.run(d, &m.graph, &catalog, &m.sim)) {
                        Ok(o) => outs.push(o),
                        Err(_) => failed += 1,
                    }
                }
                points.push((cores, gbps, mi, outs));
            }
        }
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let mut digest = FNV_OFFSET;
    let mut outcomes = 0u64;
    let mut roofline = Vec::new();
    let mut speedup = Vec::new();
    let (mut signatures, mut considered, mut feasible) = (0u64, 0u64, 0u64);
    for (cores, gbps, mi, outs) in &points {
        let m = &models[*mi];
        let ordered = match (
            total(outs, Design::Ideal),
            total(outs, Design::ElkFull),
            total(outs, Design::Basic),
        ) {
            (Some(ideal), Some(full), Some(basic)) => {
                roofline.push(ideal / full);
                speedup.push(basic / full);
                ideal <= full * SLACK && full <= basic * SLACK
            }
            _ => false,
        };
        // Traced only: simulate every program again to time the chip
        // simulator on its own (its first call is inside
        // `DesignRunner::run`) and to check that it is deterministic.
        let system = base.with_cores_and_hbm_per_core(*cores, ByteRate::new(gbps * 1e9));
        for o in outs {
            let resimulated_equal = !tracer.on() || {
                let mut sim = m.sim;
                sim.dedicated_interconnects |= o.design == Design::Ideal;
                tracer.span("chip_sim.simulate", || {
                    elk_sim::simulate(&o.program, &system, &sim)
                }) == o.report
            };
            let within_capacity = o.design == Design::Ideal || o.report.capacity_violations == 0;
            if !(resimulated_equal && within_capacity && (ordered || o.design != Design::ElkFull)) {
                failed += 1;
            }
            let line = format!(
                "{} c{cores} hbm{gbps} {} {:?} {}\n",
                m.name, o.design, o.report.total, o.report.capacity_violations
            );
            digest = fnv1a(line.as_bytes(), digest);
            if let Some(stats) = &o.stats {
                considered += stats.orders_considered as u64;
                feasible += stats.orders_feasible as u64;
            }
        }
        outcomes += outs.len() as u64;
        if let Some(stats) = outs.iter().find_map(|o| o.stats.as_ref()) {
            signatures += stats.distinct_signatures as u64;
        }
    }
    digest = fnv1a(&infeasible.to_le_bytes(), digest);

    Rep {
        setup_s,
        wall_s,
        work: outcomes as f64,
        work_metric: "points_per_s",
        attempted: runs,
        failed,
        digest,
        sim: vec![
            metric("roofline_frac", "ratio", geomean(&roofline)),
            metric("speedup_vs_basic", "ratio", geomean(&speedup)),
            metric("dse_outcomes", "count", outcomes as f64),
            metric("dse.infeasible_points", "count", infeasible as f64),
        ],
        layer: vec![
            metric("catalog.signatures", "count", signatures as f64),
            metric("compile.orders_considered", "count", considered as f64),
            metric(
                "compile.orders_feasible_ratio",
                "ratio",
                feasible as f64 / considered.max(1) as f64,
            ),
            metric("dse.infeasible_points", "count", infeasible as f64),
        ],
    }
}
