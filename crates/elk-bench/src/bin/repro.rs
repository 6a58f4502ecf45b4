//! Runs experiments of the reproduction by id:
//!
//! ```text
//! repro [--threads N] [--out DIR] <id>... | all
//! ```
//!
//! Each experiment writes `<out>/<id>.{txt,json}` (default `results/`,
//! or `ELK_RESULTS_DIR`), in the order given. After each one, its
//! headline metrics are upserted into `<out>/BENCH.json`: the
//! deterministic ones (recorded via `Ctx::metric`, simulated quantities
//! only) under `experiments`, which re-runs reproduce byte for byte, and
//! the measured ones (`Ctx::perf`: the scale bench's events/sec and peak
//! RSS) under the run-varying `perf` section.
//!
//! Set `ELK_FULL=1` for the complete grids, and `ELK_SCALE_REQUESTS` to
//! shrink the scale bench's default one million requests.

use std::time::Instant;

use elk_bench::experiments::{Experiment, REGISTRY};
use elk_bench::{bench_json, parse_out, Ctx};

fn main() {
    let fail = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let parsed = elk_par::parse_threads(std::env::args().skip(1)).unwrap_or_else(|e| fail(e));
    let (out, ids) = parse_out(parsed.rest).unwrap_or_else(|e| fail(e));
    // A misspelled flag must not silently run with defaults — the
    // typo-safety rule the scenario layer enforces for its files.
    if let Some(flag) = ids.iter().find(|arg| arg.starts_with('-')) {
        fail(format!(
            "unknown flag '{flag}': repro accepts --threads N and --out DIR"
        ));
    }
    let experiments = select(&ids).unwrap_or_else(|e| fail(e));

    let t0 = Instant::now();
    let mut bench = None;
    for (id, run) in experiments {
        let ctx = Ctx::new(id).with_threads(parsed.threads);
        let mut ctx = match &out {
            Some(dir) => ctx.with_results_dir(dir),
            None => ctx,
        };
        let t = Instant::now();
        run(&mut ctx);
        let perf = match ctx.perf_metrics() {
            [] => vec![],
            measured => vec![bench_json::entry(id, measured)],
        };
        bench = Some(bench_json::update(
            ctx.results_dir(),
            vec![bench_json::entry(id, ctx.metrics())],
            perf,
        ));
        println!("[{id} done in {:.1}s]\n", t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("select returns at least one experiment");
    println!("consolidated metrics: {}", bench.display());
    println!("done in {:.1}s", t0.elapsed().as_secs_f64());
}

/// The experiments `ids` name, in order (`all` names every one), or
/// the usage message listing the valid ids.
fn select(ids: &[String]) -> Result<Vec<Experiment>, String> {
    let usage = || {
        let valid: Vec<&str> = REGISTRY.iter().map(|&(id, _)| id).collect();
        format!(
            "usage: repro [--threads N] [--out DIR] <id>... | all\nexperiments: {}",
            valid.join(" ")
        )
    };
    if ids.is_empty() {
        return Err(usage());
    }
    let mut experiments = Vec::new();
    for id in ids {
        if id == "all" {
            experiments.extend_from_slice(REGISTRY);
        } else {
            let found = REGISTRY.iter().find(|&&(known, _)| known == id);
            experiments
                .push(*found.ok_or_else(|| format!("unknown experiment '{id}'\n{}", usage()))?);
        }
    }
    Ok(experiments)
}
