//! The five designs of the paper's evaluation (§6.1), behind one API.
//!
//! * **Basic** — existing-DL-compiler behaviour: maximize the execution
//!   space, preload only the next operator into whatever space remains.
//! * **Static** — T10 extended with HBM: a statically-sized preload space
//!   (globally tuned), fastest execution plans within the remaining
//!   space, FIFO preloading, and a single global preload-state mode
//!   (all-max-broadcast or all-min-footprint, whichever is faster).
//! * **Elk-Dyn** — Elk without preload-order permutation (§4.2–4.3).
//! * **Elk-Full** — the complete Elk design (§4.2–4.4).
//! * **Ideal** — the roofline: dedicated interconnects for preload and
//!   execution, unconstrained memory, minimal preload footprints, free
//!   data distribution.
//!
//! ```
//! use elk_baselines::{Design, DesignRunner};
//! use elk_hw::presets;
//! use elk_model::{zoo, Workload};
//! use elk_sim::SimOptions;
//!
//! # fn main() -> Result<(), elk_core::CompileError> {
//! let mut cfg = zoo::llama2_13b();
//! cfg.layers = 2; // doctest-sized
//! let graph = cfg.build(Workload::decode(16, 512), 4);
//! let runner = DesignRunner::new(presets::ipu_pod4());
//! let designs = [Design::Basic, Design::ElkFull];
//! let out = runner.run_designs(&designs, &graph, &SimOptions::default())?;
//! assert!(out[1].report.total <= out[0].report.total);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod basic;
mod ideal;
mod manual;
mod static_split;

pub use static_split::{plan_with_budget as static_plan_with_budget, PreloadMode};

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use elk_cost::{AnalyticDevice, LearnedCostModel};
use elk_hw::SystemConfig;
use elk_model::ModelGraph;
use elk_partition::Partitioner;
use elk_sim::{simulate, SimOptions, SimReport};

use elk_core::{
    compile_with_catalog, evaluate, Catalog, CompileError, CompileStats, CompilerOptions,
    DeviceProgram, PlanEstimate, PlanMemo,
};

/// One of the paper's evaluated designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// Maximize execution space; preload the next operator only.
    Basic,
    /// Static execution/preload split with FIFO preloading (T10 + HBM).
    Static,
    /// Elk without preload reordering.
    ElkDyn,
    /// Full Elk.
    ElkFull,
    /// Contention- and capacity-free roofline.
    Ideal,
}

impl Design {
    /// All designs in the paper's plotting order.
    pub const ALL: [Design; 5] = [
        Design::Basic,
        Design::Static,
        Design::ElkDyn,
        Design::ElkFull,
        Design::Ideal,
    ];
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Design::Basic => "Basic",
            Design::Static => "Static",
            Design::ElkDyn => "ELK-Dyn",
            Design::ElkFull => "ELK-Full",
            Design::Ideal => "Ideal",
        };
        f.write_str(s)
    }
}

/// Outcome of running one design on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOutcome {
    /// The design that ran.
    pub design: Design,
    /// The lowered device program.
    pub program: DeviceProgram,
    /// Compiler-side forward-timeline estimate.
    pub estimate: PlanEstimate,
    /// Simulator measurement (the §6 numbers).
    pub report: SimReport,
    /// Elk compile statistics (None for the hand-built baselines).
    pub stats: Option<CompileStats>,
}

/// Runs any [`Design`] on a model/system pair, sharing the fitted cost
/// model and plan catalog across designs so comparisons are apples to
/// apples.
///
/// A runner owns what its chip determines: the fitted cost model and the
/// plan sets its catalogs build through, so the graphs it compiles
/// enumerate each operator shape once. [`with_system`](Self::with_system)
/// is the one way to share them, and it alone decides what a derived
/// design point shares; a fresh runner starts cold. The entry point of a
/// run (a CLI command, a sweep, a bench binary) builds one base runner,
/// and the estimator, the serving engines and the sweep points derive
/// theirs from it.
#[derive(Debug)]
pub struct DesignRunner {
    system: SystemConfig,
    cost: Arc<LearnedCostModel>,
    plans: Arc<PlanMemo>,
    threads: usize,
}

impl From<SystemConfig> for DesignRunner {
    /// A fresh runner for `system`, as [`DesignRunner::new`] builds it.
    fn from(system: SystemConfig) -> Self {
        DesignRunner::new(system)
    }
}

impl DesignRunner {
    /// Creates a runner for `system`, fitting the learned cost model the
    /// compiler side plans with.
    #[must_use]
    pub fn new(system: SystemConfig) -> Self {
        DesignRunner {
            cost: Arc::new(LearnedCostModel::of_chip(&system.chip)),
            system,
            plans: Arc::new(PlanMemo::new()),
            threads: 0,
        }
    }

    /// Sets the worker-thread count for catalog construction and the
    /// Elk designs' order search (`0` = all available cores). Outputs
    /// are byte-identical at any setting; only wall-clock changes.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured worker-thread count (`0` = all available cores).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The system under test.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Derives a runner for `system`, sharing what the change leaves
    /// valid:
    ///
    /// * on the same chip (other HBM or inter-chip provisioning, a
    ///   subpod), this runner's cost model and plan sets;
    /// * on another chip with an equal [`AnalyticDevice`] (another core
    ///   count at the same per-core rates and link bandwidth, another
    ///   SRAM port model), the cost model, with fresh plan sets;
    /// * otherwise nothing: it fits afresh, as [`new`](Self::new) does.
    #[must_use]
    pub fn with_system(&self, system: SystemConfig) -> DesignRunner {
        let cost = if AnalyticDevice::of_chip(&system.chip)
            == AnalyticDevice::of_chip(&self.system.chip)
        {
            Arc::clone(&self.cost)
        } else {
            Arc::new(LearnedCostModel::of_chip(&system.chip))
        };
        let plans = if system.chip == self.system.chip {
            Arc::clone(&self.plans)
        } else {
            Arc::default()
        };
        DesignRunner {
            system,
            cost,
            plans,
            threads: self.threads,
        }
    }

    /// Builds the plan catalog for `graph` (shareable across designs),
    /// fanning plan enumeration across the configured worker threads,
    /// through the plan sets this runner shares.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError::NoFeasiblePlan`].
    pub fn catalog(&self, graph: &ModelGraph) -> Result<Catalog, CompileError> {
        let partitioner = Partitioner::new(&self.system.chip, &*self.cost);
        Catalog::build_in(graph, &partitioner, self.threads, &self.plans)
    }

    /// Compiles and simulates `design` on `graph`.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from planning.
    pub fn run(
        &self,
        design: Design,
        graph: &ModelGraph,
        catalog: &Catalog,
        sim: &SimOptions,
    ) -> Result<DesignOutcome, CompileError> {
        let with_estimate = |program: DeviceProgram| {
            let estimate = evaluate(&program, self.system.chip.usable_sram_per_core());
            (program, estimate, None)
        };
        // Static and the Elk designs evaluate their winning program while
        // choosing it, and hand that estimate back.
        let (program, estimate, stats) = match design {
            Design::Basic => with_estimate(basic::plan(graph, catalog, &self.system)?),
            Design::Static => {
                let (program, estimate) = static_split::plan(graph, catalog, &self.system)?;
                (program, estimate, None)
            }
            Design::Ideal => with_estimate(ideal::plan(graph, catalog, &self.system)?),
            Design::ElkDyn | Design::ElkFull => {
                let mut opts = CompilerOptions::default();
                opts.reorder.enable = design == Design::ElkFull;
                opts.threads = self.threads;
                let plan = compile_with_catalog(&self.system, &opts, graph, catalog)?;
                (plan.program, plan.estimate, Some(plan.stats))
            }
        };
        let sim_opts = if design == Design::Ideal {
            SimOptions {
                dedicated_interconnects: true,
                ..*sim
            }
        } else {
            *sim
        };
        let report = simulate(&program, &self.system, &sim_opts);
        Ok(DesignOutcome {
            design,
            program,
            estimate,
            report,
            stats,
        })
    }

    /// Runs `designs` on `graph` in order, sharing one catalog built
    /// through this runner's plan sets.
    ///
    /// # Errors
    ///
    /// Propagates the first planning failure.
    pub fn run_designs(
        &self,
        designs: &[Design],
        graph: &ModelGraph,
        sim: &SimOptions,
    ) -> Result<Vec<DesignOutcome>, CompileError> {
        let catalog = self.catalog(graph)?;
        designs
            .iter()
            .map(|&d| self.run(d, graph, &catalog, sim))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;
    use elk_model::{zoo, Workload};
    use elk_units::ByteRate;

    fn small_graph() -> ModelGraph {
        // Memory-pressured config (sequence 4096): the regime where the
        // design ordering is decisive. At comfortable sizes Static's
        // tuned split can tie Elk within cost-model noise (Fig. 17 shows
        // the same near-ties at batch 16).
        let mut cfg = zoo::llama2_13b();
        cfg.layers = 3;
        cfg.build(Workload::decode(32, 4096), 4)
    }

    #[test]
    fn design_ordering_matches_paper() {
        // Fig. 17: Ideal <= ELK-Full <= ELK-Dyn <= Static-ish <= Basic.
        let runner = DesignRunner::new(presets::ipu_pod4());
        let graph = small_graph();
        let out = runner
            .run_designs(&Design::ALL, &graph, &SimOptions::default())
            .unwrap();
        let t = |d: Design| {
            out.iter()
                .find(|o| o.design == d)
                .unwrap()
                .report
                .total
                .as_secs()
        };
        let slack = 1.02; // simulator noise tolerance
        assert!(t(Design::Ideal) <= t(Design::ElkFull) * slack);
        assert!(t(Design::ElkFull) <= t(Design::ElkDyn) * slack);
        assert!(t(Design::ElkDyn) <= t(Design::Basic) * slack);
        assert!(t(Design::ElkFull) <= t(Design::Static) * slack);
        assert!(
            t(Design::Basic) > t(Design::ElkFull) * 1.05,
            "Elk should clearly beat Basic: {} vs {}",
            t(Design::Basic),
            t(Design::ElkFull)
        );
    }

    #[test]
    fn baselines_respect_memory() {
        let runner = DesignRunner::new(presets::ipu_pod4());
        let graph = small_graph();
        let catalog = runner.catalog(&graph).unwrap();
        for d in [
            Design::Basic,
            Design::Static,
            Design::ElkDyn,
            Design::ElkFull,
        ] {
            let o = runner
                .run(d, &graph, &catalog, &SimOptions::default())
                .unwrap();
            assert_eq!(
                o.report.capacity_violations, 0,
                "{d} violates capacity (peak {})",
                o.report.peak_resident
            );
        }
    }

    #[test]
    fn every_design_reports_its_programs_estimate() {
        let runner = DesignRunner::new(presets::ipu_pod4());
        let graph = small_graph();
        let capacity = runner.system().chip.usable_sram_per_core();
        for o in runner
            .run_designs(&Design::ALL, &graph, &SimOptions::default())
            .unwrap()
        {
            assert_eq!(o.estimate, evaluate(&o.program, capacity), "{}", o.design);
        }
    }

    #[test]
    fn with_system_shares_plan_sets_on_the_same_chip() {
        let base = DesignRunner::new(presets::ipu_pod4());
        let hbm = base.system().total_hbm_bandwidth() * 2.0;
        let derived = base.with_system(base.system().with_total_hbm_bandwidth(hbm));
        assert_ne!(derived.system(), base.system());
        let graph = small_graph();
        let ours = base.catalog(&graph).unwrap();
        let theirs = derived.catalog(&graph).unwrap();
        for op in graph.iter() {
            assert!(std::ptr::eq(ours.op(op.id()), theirs.op(op.id())));
        }
    }

    #[test]
    fn with_system_refits_for_another_chip() {
        let base = DesignRunner::new(presets::ipu_pod4());
        let derived = base.with_system(presets::ipu_pod4_mesh());
        let fresh = DesignRunner::new(presets::ipu_pod4_mesh());
        let graph = small_graph();
        let ours = base.catalog(&graph).unwrap();
        let derived_catalog = derived.catalog(&graph).unwrap();
        let fresh_catalog = fresh.catalog(&graph).unwrap();
        // The mesh plans differ from the ring's, so reusing the base
        // runner's plan sets would show.
        assert!(graph
            .iter()
            .any(|op| ours.op(op.id()) != fresh_catalog.op(op.id())));
        for op in graph.iter() {
            assert_eq!(derived_catalog.op(op.id()), fresh_catalog.op(op.id()));
        }
        let sim = SimOptions::default();
        let a = derived
            .run(Design::ElkFull, &graph, &derived_catalog, &sim)
            .unwrap();
        let b = fresh
            .run(Design::ElkFull, &graph, &fresh_catalog, &sim)
            .unwrap();
        // `stats` carries the wall-clock compile time; everything else
        // must match.
        assert_eq!(
            (a.program, a.estimate, a.report),
            (b.program, b.estimate, b.report)
        );
    }

    #[test]
    fn with_system_shares_the_fit_for_an_equal_device() {
        let base = DesignRunner::new(presets::ipu_pod4());
        let mut concurrent = presets::ipu_pod4();
        concurrent.chip.sram_contention = elk_hw::SramContention::Concurrent;
        let hbm_per_core = ByteRate::new(2.7e9);
        for system in [
            concurrent,
            presets::ipu_pod4().with_cores_and_hbm_per_core(736, hbm_per_core),
        ] {
            let derived = base.with_system(system);
            assert!(Arc::ptr_eq(&derived.cost, &base.cost));
            assert!(!Arc::ptr_eq(&derived.plans, &base.plans));
        }
    }

    #[test]
    fn with_system_refits_when_the_device_changes() {
        let base = DesignRunner::new(presets::ipu_pod4());
        let noc = base
            .system()
            .with_total_noc_bandwidth(ByteRate::tib_per_sec(30.0));
        let mut scaled = presets::ipu_pod4();
        scaled.chip = scaled.chip.with_compute_scale(1.5);
        for system in [noc, scaled] {
            let derived = base.with_system(system.clone());
            assert!(!Arc::ptr_eq(&derived.cost, &base.cost));
            assert!(!Arc::ptr_eq(&derived.plans, &base.plans));
            assert_ne!(derived.cost, base.cost);
            assert_eq!(*derived.cost, *DesignRunner::new(system).cost);
        }
    }

    #[test]
    fn run_designs_matches_one_catalog_run_per_design() {
        let runner = DesignRunner::new(presets::ipu_pod4());
        let graph = small_graph();
        let sim = SimOptions::default();
        let outs = runner.run_designs(&Design::ALL, &graph, &sim).unwrap();
        let catalog = runner.catalog(&graph).unwrap();
        assert_eq!(outs.len(), Design::ALL.len());
        for (design, out) in Design::ALL.into_iter().zip(outs) {
            let expected = runner.run(design, &graph, &catalog, &sim).unwrap();
            assert_eq!(out.design, design);
            // `stats` carries the wall-clock compile time.
            assert_eq!(
                (out.program, out.estimate, out.report),
                (expected.program, expected.estimate, expected.report),
                "{design}"
            );
        }
    }

    /// Asserts that a runner derived from `base` for `system` holds a fit
    /// serialized identical to a fresh runner's, and that every design
    /// plans and simulates `graph` exactly as the fresh runner does.
    fn assert_derives_like_fresh(base: &DesignRunner, system: &SystemConfig, graph: &ModelGraph) {
        let derived = base.with_system(system.clone());
        let fresh = DesignRunner::new(system.clone());
        let json = |cost: &LearnedCostModel| serde_json::to_string(cost).expect("serializes");
        assert_eq!(json(&derived.cost), json(&fresh.cost), "fit on {system:?}");
        let sim = SimOptions::default();
        let ours = derived.catalog(graph).unwrap();
        let theirs = fresh.catalog(graph).unwrap();
        for design in Design::ALL {
            let a = derived.run(design, graph, &ours, &sim).unwrap();
            let b = fresh.run(design, graph, &theirs, &sim).unwrap();
            // `stats` carries the wall-clock compile time.
            assert_eq!(
                (a.program, a.estimate, a.report),
                (b.program, b.estimate, b.report),
                "{design} on {system:?}"
            );
        }
    }

    /// Checks every point against `base`, after warming the base's plan
    /// sets on `graph` as an experiment's earlier points would.
    fn assert_points_derive_like_fresh(base: SystemConfig, points: &[(SystemConfig, &ModelGraph)]) {
        let base = DesignRunner::new(base);
        for (system, graph) in points {
            base.catalog(graph).unwrap();
            assert_derives_like_fresh(&base, system, graph);
        }
    }

    /// A 2-layer graph of `cfg` on the 4-chip pod.
    fn two_layers(mut cfg: elk_model::TransformerConfig, workload: Workload) -> ModelGraph {
        cfg.layers = 2;
        cfg.build(workload, 4)
    }

    fn two_layer_dit() -> ModelGraph {
        let mut cfg = zoo::dit_xl();
        cfg.layers = 2;
        cfg.build(Workload::decode(8, 256), 1)
    }

    fn tib(x: f64) -> ByteRate {
        ByteRate::tib_per_sec(x)
    }

    #[test]
    fn hbm_sweeps_derive_like_fresh_runners() {
        // Figs. 19-21: both topologies at every pod HBM bandwidth.
        let graph = two_layers(zoo::llama2_13b(), Workload::decode(32, 2048));
        let points: Vec<_> = [presets::ipu_pod4(), presets::ipu_pod4_mesh()]
            .iter()
            .flat_map(|topo| {
                (2..=8).map(|i| {
                    (
                        topo.with_total_hbm_bandwidth(tib(2.0 * f64::from(i))),
                        &graph,
                    )
                })
            })
            .collect();
        assert_points_derive_like_fresh(presets::ipu_pod4(), &points);
    }

    #[test]
    fn noc_sweep_derives_like_fresh_runners() {
        // Fig. 22: NoC x HBM bandwidth on both topologies.
        let graph = two_layers(zoo::llama2_70b(), Workload::decode(32, 2048));
        let mut points = Vec::new();
        for topo in [presets::ipu_pod4(), presets::ipu_pod4_mesh()] {
            for noc in [30.0, 35.0, 40.0, 45.0] {
                for hbm in [8.0, 10.0, 12.0, 14.0] {
                    let system = topo
                        .with_total_noc_bandwidth(tib(noc))
                        .with_total_hbm_bandwidth(tib(hbm));
                    points.push((system, &graph));
                }
            }
        }
        assert_points_derive_like_fresh(presets::ipu_pod4(), &points);
    }

    #[test]
    fn core_sweep_derives_like_fresh_runners() {
        // Fig. 23: LLMs on the pod and DiT-XL on one chip per core count.
        let llm = two_layers(zoo::llama2_13b(), Workload::decode(32, 2048));
        let dit = two_layer_dit();
        let hbm_per_core = ByteRate::new(2.7e9);
        let points: Vec<_> = [736, 1104, 1472, 2208, 2944]
            .into_iter()
            .flat_map(|cores| {
                [(presets::ipu_pod4(), &llm), (presets::single_chip(), &dit)].map(|(sys, graph)| {
                    (sys.with_cores_and_hbm_per_core(cores, hbm_per_core), graph)
                })
            })
            .collect();
        let base = presets::ipu_pod4().with_cores_and_hbm_per_core(736, hbm_per_core);
        assert_points_derive_like_fresh(base, &points);
    }

    #[test]
    fn compute_sweep_derives_like_fresh_runners() {
        // Fig. 24: training forward at varied compute, NoC and HBM.
        let graph = two_layers(zoo::llama2_13b(), Workload::training_forward(4, 2048));
        let mut points = Vec::new();
        for topo in [presets::ipu_pod4(), presets::ipu_pod4_mesh()] {
            for noc in [32.0, 48.0] {
                for scale in [0.5, 1.0, 1.5] {
                    for hbm in [300.0, 400.0] {
                        let mut system = topo
                            .with_total_noc_bandwidth(tib(noc))
                            .with_total_hbm_bandwidth(ByteRate::gib_per_sec(hbm));
                        system.chip = system.chip.with_compute_scale(scale);
                        points.push((system, &graph));
                    }
                }
            }
        }
        assert_points_derive_like_fresh(presets::ipu_pod4(), &points);
    }

    #[test]
    fn table2_and_sram_points_derive_like_fresh_runners() {
        let llm = two_layers(zoo::llama2_13b(), Workload::decode(32, 2048));
        let dit = two_layer_dit();
        let mut concurrent = presets::ipu_pod4();
        concurrent.chip.sram_contention = elk_hw::SramContention::Concurrent;
        assert_points_derive_like_fresh(
            presets::ipu_pod4(),
            &[
                (presets::ipu_pod4(), &llm),
                (presets::single_chip(), &dit),
                (concurrent, &llm),
            ],
        );
    }

    #[test]
    fn design_space_device_facts() {
        let device = |system: &SystemConfig| AnalyticDevice::of_chip(&system.chip);
        let hbm_per_core = ByteRate::new(2.7e9);
        let pod = presets::ipu_pod4();
        let at = |cores| pod.with_cores_and_hbm_per_core(cores, hbm_per_core);
        for cores in [1104, 1472, 2208, 2944] {
            assert_ne!(at(cores).chip, at(736).chip);
            assert_eq!(device(&at(cores)), device(&at(736)), "{cores} cores");
        }
        assert_eq!(presets::single_chip().chip, pod.chip);
        let noc = pod.with_total_noc_bandwidth(tib(30.0));
        assert_ne!(device(&noc), device(&pod));
        let mut scaled = pod.clone();
        scaled.chip = scaled.chip.with_compute_scale(1.5);
        assert_ne!(device(&scaled), device(&pod));
        let mut concurrent = pod.clone();
        concurrent.chip.sram_contention = elk_hw::SramContention::Concurrent;
        assert_ne!(concurrent.chip, pod.chip);
        assert_eq!(device(&concurrent), device(&pod));
    }

    #[test]
    fn hbm_utilization_improves_along_design_axis() {
        // Fig. 18(b): Basic < Static <= ELK designs.
        let runner = DesignRunner::new(presets::ipu_pod4());
        let graph = small_graph();
        let out = runner
            .run_designs(&Design::ALL, &graph, &SimOptions::default())
            .unwrap();
        let u = |d: Design| out.iter().find(|o| o.design == d).unwrap().report.hbm_util;
        assert!(u(Design::Basic) < u(Design::ElkFull));
    }
}
