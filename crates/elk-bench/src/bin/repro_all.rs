//! Runs every table/figure reproduction in sequence, writing
//! `<out>/<id>.{txt,json}` (default `results/`; override with
//! `--out DIR`). Set `ELK_FULL=1` for the complete grids and
//! `--threads N` to bound the worker pool.
//!
//! After the individual experiments, the per-experiment headline
//! metrics (recorded via `Ctx::metric` — simulated quantities only,
//! never wall-clock) are consolidated into `<out>/BENCH.json`'s
//! `experiments` section, one object per experiment, so successive PRs
//! can diff performance machine-readably. Measured quantities recorded
//! via `Ctx::perf` (the scale bench's events/sec and peak RSS) land in
//! a separate run-varying `perf` section.
//!
//! The scale bench defaults to one million requests; set
//! `ELK_SCALE_REQUESTS` to shrink it for smoke runs.

use std::cell::OnceCell;
use std::path::PathBuf;
use std::time::Instant;

use serde::Value;

use elk_bench::experiments::{fig19, fig21};
use elk_bench::{bench_json, Ctx};

type Experiment<'a> = (&'static str, Box<dyn Fn(&mut Ctx) + 'a>);

fn main() {
    // Figs. 19 and 21 report two fields of the same outcomes: sweep once.
    let fig19_sweep = OnceCell::new();
    let shared_sweep = |ctx: &Ctx| fig19_sweep.get_or_init(|| fig19::sweep(ctx));
    let fixed = |run: fn(&mut Ctx)| -> Box<dyn Fn(&mut Ctx)> { Box::new(run) };
    let experiments: Vec<Experiment> = vec![
        ("table2", fixed(elk_bench::experiments::table2::run)),
        ("fig05", fixed(elk_bench::experiments::fig05::run)),
        ("fig06", fixed(elk_bench::experiments::fig06::run)),
        ("fig07", fixed(elk_bench::experiments::fig07::run)),
        ("fig08", fixed(elk_bench::experiments::fig08::run)),
        ("fig12", fixed(elk_bench::experiments::fig12::run)),
        ("fig16", fixed(elk_bench::experiments::fig16::run)),
        ("fig17", fixed(elk_bench::experiments::fig17::run)),
        ("fig18", fixed(elk_bench::experiments::fig18::run)),
        (
            "fig19",
            Box::new(|ctx: &mut Ctx| fig19::report(ctx, shared_sweep(ctx))),
        ),
        ("fig20", fixed(elk_bench::experiments::fig20::run)),
        (
            "fig21",
            Box::new(|ctx: &mut Ctx| fig21::report(ctx, shared_sweep(ctx))),
        ),
        ("fig22", fixed(elk_bench::experiments::fig22::run)),
        ("fig23", fixed(elk_bench::experiments::fig23::run)),
        ("fig24", fixed(elk_bench::experiments::fig24::run)),
        ("serving", fixed(elk_bench::experiments::serving::run)),
        ("cluster", fixed(elk_bench::experiments::cluster::run)),
        ("autoscale", fixed(elk_bench::experiments::autoscale::run)),
        ("disagg", fixed(elk_bench::experiments::disagg::run)),
        ("tenancy", fixed(elk_bench::experiments::tenancy::run)),
        ("scale", fixed(elk_bench::experiments::scale::run)),
    ];
    let t0 = Instant::now();
    let mut metrics: Vec<(String, Value)> = Vec::new();
    let mut perf: Vec<(String, Value)> = Vec::new();
    let mut out: Option<PathBuf> = None;
    for (id, run) in experiments {
        let mut ctx = elk_bench::bin_ctx(id);
        let t = Instant::now();
        run(&mut ctx);
        metrics.push(bench_json::entry(id, ctx.metrics()));
        if !ctx.perf_metrics().is_empty() {
            perf.push(bench_json::entry(id, ctx.perf_metrics()));
        }
        // Every ctx resolves the same --out/ELK_RESULTS_DIR policy;
        // reuse it so BENCH.json lands next to the per-experiment files.
        out.get_or_insert_with(|| ctx.results_dir().to_path_buf());
        println!("[{id} done in {:.1}s]\n", t.elapsed().as_secs_f64());
    }

    // One consolidated machine-readable snapshot. The `experiments`
    // section holds no wall-clock fields: re-running the suite on the
    // same commit reproduces it byte for byte, so PR-to-PR diffs show
    // performance drift only. Wall-clock-derived numbers live under
    // `perf`, which is documented as run-varying.
    let out = out.expect("at least one experiment ran");
    let path = bench_json::update(&out, metrics, perf);
    println!("consolidated metrics: {}", path.display());
    println!("all experiments done in {:.1}s", t0.elapsed().as_secs_f64());
}
