//! The Elk repository benchmark: three workloads timed end to end and,
//! in a separate traced run, per layer.
//!
//! ```text
//! perfbench --workload <serve_steady|serve_cold|dse_sweep> --seed N --seconds S --trace <0|1>
//! perfbench --scale-check [--scale-json PATH]
//! ```
//!
//! One *repetition* sets a workload up from its seed (timed as
//! `setup_s`), runs its timed section (`wall_s`) and checks the
//! outputs. A run repeats until `--seconds` have passed and reports
//! the fastest repetition's `wall_s` and the medians of `setup_s` and
//! of the per-repetition peak RSS. With `--trace 1` untraced and traced
//! repetitions alternate: the traced ones wrap every call into a
//! workspace layer in a span and give the per-layer metrics; spans are
//! written to
//! `perfbench/out/<workload>-seed<N>.spans.json` when the run ends.
//! The last line of stdout is the JSON result.

mod dse;
mod serve;
mod span;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use span::{LayerTime, Tracer};

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one repetition of a workload measured and checked.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Work units finished in the timed section (kernel events or DSE
    /// outcomes), for the throughput metric named by `work_metric`.
    pub work: f64,
    pub work_metric: &'static str,
    /// Operations checked (requests or design outcomes) and how many of
    /// them failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the serialized simulated outputs: every repetition
    /// of one seed, traced or not, must agree.
    pub digest: u64,
    /// Simulated end-to-end metrics; identical for a given seed.
    pub sim: Vec<Metric>,
    /// Per-layer counts and ratios.
    pub layer: Vec<Metric>,
}

/// FNV-1a, for comparing simulated outputs without keeping them.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Span name -> (per-layer time metric, per-layer call-count metric).
const TIMED_LAYERS: [(&str, &str, Option<&str>); 9] = [
    ("spec.parse", "spec.parse_s", None),
    ("trace.gen", "trace.gen_s", None),
    ("cost.fit", "cost.fit_s", Some("cost.fit_calls")),
    ("catalog.build", "catalog.build_s", Some("catalog.calls")),
    (
        "compile.order_search",
        "compile.order_search_s",
        Some("compile.calls"),
    ),
    ("baselines.plan", "baselines.plan_s", None),
    (
        "chip_sim.simulate",
        "chip_sim.simulate_s",
        Some("chip_sim.calls"),
    ),
    ("engine.run", "engine.run_s", None),
    ("report.serialize", "report.serialize_s", None),
];

/// Every per-layer metric, in output order, with its unit. Workloads
/// report 0 for layers they leave idle.
const PER_LAYER: [(&str, &str); 34] = [
    ("spec.parse_s", "s"),
    ("trace.gen_s", "s"),
    ("cost.fit_s", "s"),
    ("cost.fit_calls", "count"),
    ("catalog.build_s", "s"),
    ("catalog.calls", "count"),
    ("catalog.signatures", "count"),
    ("compile.order_search_s", "s"),
    ("compile.calls", "count"),
    ("compile.orders_considered", "count"),
    ("compile.orders_feasible_ratio", "ratio"),
    ("baselines.plan_s", "s"),
    ("chip_sim.simulate_s", "s"),
    ("chip_sim.calls", "count"),
    ("dse.infeasible_points", "count"),
    ("plan_cache.lookups", "count"),
    ("plan_cache.misses", "count"),
    ("plan_cache.hit_rate", "ratio"),
    ("plan_cache.signatures", "count"),
    ("plan_cache.plans", "count"),
    ("plan_cache.useful_ratio", "ratio"),
    ("plan_cache.hit_ns_p50", "ns"),
    ("plan_cache.hit_ns_p99", "ns"),
    ("plan_cache.hit_ns_count", "count"),
    ("kernel.events", "count"),
    ("kernel.peak_queue_len", "count"),
    ("kernel.ns_per_event", "ns"),
    ("engine.run_s", "s"),
    ("engine.prefill_steps", "count"),
    ("engine.decode_steps", "count"),
    ("report.serialize_s", "s"),
    ("report.bytes", "B"),
    ("report.queue_depth_samples", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn run_rep(workload: &str, seed: u64, tracer: &Tracer) -> Rep {
    match workload {
        "serve_steady" => serve::steady(seed, tracer),
        "serve_cold" => serve::cold(seed, tracer),
        "dse_sweep" => dse::sweep(seed, tracer),
        _ => unreachable!("workload validated in main"),
    }
}

const WORKLOADS: [&str; 3] = ["serve_steady", "serve_cold", "dse_sweep"];

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Hands memory freed by earlier repetitions back to the OS, then resets
/// this process's peak resident set to its current size, so the next
/// reading covers one repetition alone (Linux; elsewhere the readings
/// stay cumulative).
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases free heap pages; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<32} {:>18.6}  {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--scale-check") {
        return serve::scale_check(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "unknown workload {}; choose one of {}",
                a.workload,
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let plain_tracer = Tracer::new(false);
    let tracer = Tracer::new(args.trace);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, BTreeMap<&'static str, LayerTime>)> = Vec::new();
    let min_reps = if args.trace { 2 } else { 3 };
    if args.trace {
        // Warm the allocator and page cache first, so the overhead
        // ratio does not charge the first repetition's cold start to
        // the untraced side.
        run_rep(&args.workload, args.seed, &plain_tracer);
    }
    let mut rss: Vec<f64> = Vec::new();
    loop {
        reset_peak_rss();
        plain.push(run_rep(&args.workload, args.seed, &plain_tracer));
        rss.push(peak_rss_mib());
        if args.trace {
            reset_peak_rss();
            let mark = tracer.mark();
            let rep = tracer.span("rep", || run_rep(&args.workload, args.seed, &tracer));
            traced.push((rep, tracer.layers_since(mark)));
        }
        if plain.len() >= min_reps && started.elapsed() >= budget {
            break;
        }
    }

    let first = &plain[0];
    let digests_agree = plain
        .iter()
        .map(|r| r.digest)
        .chain(traced.iter().map(|(r, _)| r.digest))
        .all(|d| d == first.digest);
    let attempted: u64 = plain.iter().map(|r| r.attempted).sum::<u64>()
        + traced.iter().map(|(r, _)| r.attempted).sum::<u64>();
    let failed: u64 = plain.iter().map(|r| r.failed).sum::<u64>()
        + traced.iter().map(|(r, _)| r.failed).sum::<u64>();
    let correct = failed == 0 && digests_agree;

    let wall: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let setup: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    // The host is shared: other tenants only ever add time, so the
    // fastest repetition is the steadiest estimate of the program's own
    // cost (medians moved by up to 40% between runs minutes apart).
    let fastest = plain
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one repetition");
    let wall_s = fastest.wall_s;
    let end_to_end = vec![
        metric("wall_s", "s", wall_s),
        metric("setup_s", "s", median(&setup)),
        metric("peak_rss_mib", "MiB", median(&rss)),
    ];

    println!(
        "workload {} seed {} reps {} (+{} traced) in {:.1} s; digest {:016x}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        first.digest
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("repetition wall_s: {}", list(&wall));
    println!("repetition peak_rss_mib: {}", list(&rss));
    let mut shown = end_to_end.clone();
    shown.push(metric(first.work_metric, "1/s", fastest.work / wall_s));
    shown.push(metric(
        "error_rate",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
    ));
    shown.extend(first.sim.iter().cloned());
    print_table("end-to-end (host time untraced; sim_* simulated)", &shown);

    let metrics = if args.trace {
        let per_layer = layer_metrics(&traced, wall_s);
        print_table("per layer (traced repetitions, medians)", &per_layer);
        print_self_times(&traced);
        let path = format!(
            "perfbench/out/{}-seed{}.spans.json",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => println!("spans not written ({path}: {e})"),
        }
        per_layer
    } else {
        end_to_end
    };
    if !digests_agree {
        println!("FAIL: simulated outputs differ between repetitions of one seed");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

/// Medians over the traced repetitions of every per-layer metric.
fn layer_metrics(
    traced: &[(Rep, BTreeMap<&'static str, LayerTime>)],
    untraced_wall_s: f64,
) -> Vec<Metric> {
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (rep, layers) in traced {
        for (span, time_name, calls_name) in TIMED_LAYERS {
            let t = layers.get(span).copied().unwrap_or_default();
            values.entry(time_name).or_default().push(t.total_s);
            if let Some(calls) = calls_name {
                values.entry(calls).or_default().push(t.calls as f64);
            }
        }
        for m in &rep.layer {
            values.entry(m.name).or_default().push(m.value);
        }
        let events = rep
            .layer
            .iter()
            .find(|m| m.name == "kernel.events")
            .map_or(0.0, |m| m.value);
        let run_s = layers.get("engine.run").map_or(0.0, |t| t.total_s);
        let ns_per_event = if events > 0.0 {
            run_s * 1e9 / events
        } else {
            0.0
        };
        values
            .entry("kernel.ns_per_event")
            .or_default()
            .push(ns_per_event);
    }
    let traced_wall = traced
        .iter()
        .map(|(r, _)| r.wall_s)
        .fold(f64::INFINITY, f64::min);
    values.insert(
        "bench.trace_overhead_frac",
        vec![traced_wall / untraced_wall_s - 1.0],
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, unit, values.get(name).map_or(0.0, |v| median(v))))
        .collect()
}

/// Self time per span name, summed over the traced repetitions.
fn print_self_times(traced: &[(Rep, BTreeMap<&'static str, LayerTime>)]) {
    let mut sum: BTreeMap<&str, LayerTime> = BTreeMap::new();
    for (_, layers) in traced {
        for (name, t) in layers {
            let s = sum.entry(name).or_default();
            s.calls += t.calls;
            s.total_s += t.total_s;
            s.self_s += t.self_s;
        }
    }
    println!("self time per layer (all traced repetitions)");
    println!(
        "  {:<24} {:>8} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, t) in sum {
        println!(
            "  {:<24} {:>8} {:>12.6} {:>12.6}",
            name, t.calls, t.total_s, t.self_s
        );
    }
}
