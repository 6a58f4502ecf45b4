//! `elk` — the scenario CLI: run declarative JSON scenario files
//! through the compiler, simulator, and serving stack without touching
//! Rust code.
//!
//! ```text
//! elk compile  <scenario.json> [--out DIR] [--threads N]   compile + measure each design
//! elk simulate <scenario.json> [--out DIR] [--threads N]   design comparison table
//! elk serve    <scenario.json> [--out DIR] [--threads N]   request-level serving replay
//! elk cluster  <scenario.json> [--out DIR] [--threads N]   multi-chip plan + routed serving
//! elk trace gen <scenario.json> [--out DIR]                emit the workload.trace generator
//! elk sweep    <scenario.json> [--out DIR] [--threads N]   grid over the file's sweep axes
//! elk validate <dir-or-file>...                            round-trip emitted JSON reports
//! ```
//!
//! `serve` and `cluster` replay the scenario's `workload.trace` source
//! when one is present (a recorded `elk-trace` JSONL file or a seeded
//! generator), so recorded and synthetic traces flow through one path.
//!
//! Every run writes a machine-readable report to
//! `<out>/<name>.<command>.json` (default `results/`). Reports contain
//! no wall-clock fields, so reruns are byte-identical, as is any
//! command at any `--threads` count.
//!
//! `simulate`, `serve`, and `cluster` can additionally export a
//! deterministic sim-time timeline: `--timeline FILE` (or the
//! scenario's `observe` section) attaches an `elk-obs` recorder and
//! writes a Chrome-trace JSON (open in Perfetto / `chrome://tracing`)
//! plus a flat `*.metrics.json` next to it. Timelines carry only
//! simulated time, so they are byte-identical at any `--threads` count.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use elk::obs::{export, MemRecorder, Obs};
use elk::spec::{runner, ScenarioSpec, SpecError};
use serde::{Serialize, Value};

const USAGE: &str = "\
usage: elk <command> ...

commands:
  compile  <scenario.json> [--out DIR] [--threads N]  compile the scenario's designs and
                                                      simulate each compiled program
  simulate <scenario.json> [--out DIR] [--threads N]  per-design comparison table
  serve    <scenario.json> [--out DIR] [--threads N]  replay the scenario's request trace
  cluster  <scenario.json> [--out DIR] [--threads N]  plan (tp, pp, dp) parallelism over the
                                                      pod and replay routed cluster serving
                                                      (plus the autoscaled fleet, the
                                                      disaggregated prefill/decode pools,
                                                      and/or the multi-tenant replay when
                                                      the scenario has cluster.autoscale /
                                                      cluster.disaggregate / cluster.tenants
                                                      sections)
  trace gen <scenario.json> [--out DIR]               write the scenario's workload.trace
                                                      generator as <name>.trace.jsonl
  sweep    <scenario.json> [--out DIR] [--threads N]  run the file's sweep grid
  validate <dir-or-file>...                           check emitted JSON round-trips

Reports are written to <out>/<name>.<command>.json (default: results/).
--threads overrides the spec's worker-thread count (sweep: the fan-out
width across grid points); results are byte-identical at any setting.

simulate, serve, and cluster take --timeline FILE: record the run with
elk-obs and write a Chrome-trace timeline (Perfetto-loadable) there,
plus flat metrics as *.metrics.json next to it. The flag overrides the
scenario's observe.timeline and implies observe.enable; with observe
enabled and no path, the timeline lands at <out>/<name>.timeline.json.
Timelines carry simulated time only and are byte-identical at any
--threads count.";

/// A fatal CLI error: message plus exit code (2 = usage/parse, 1 = run).
struct Fail {
    code: u8,
    msg: String,
}

impl Fail {
    fn usage(msg: impl Into<String>) -> Self {
        Fail {
            code: 2,
            msg: msg.into(),
        }
    }

    fn run(msg: impl Into<String>) -> Self {
        Fail {
            code: 1,
            msg: msg.into(),
        }
    }
}

impl From<SpecError> for Fail {
    fn from(e: SpecError) -> Self {
        match e {
            SpecError::Parse(_) | SpecError::Invalid(_) => Fail::usage(e.to_string()),
            SpecError::Compile(_) => Fail::run(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(fail) => {
            eprintln!("elk: {}", fail.msg);
            ExitCode::from(fail.code)
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), Fail> {
    let Some(command) = args.first() else {
        return Err(Fail::usage(USAGE));
    };
    match command.as_str() {
        "compile" | "simulate" | "serve" | "cluster" | "sweep" => {
            let opts = ScenarioArgs::parse(command, &args[1..])?;
            run_scenario(command, &opts)
        }
        "trace" => match args.get(1).map(String::as_str) {
            Some("gen") => {
                let opts = ScenarioArgs::parse("trace gen", &args[2..])?;
                run_trace_gen(&opts)
            }
            Some(other) => Err(Fail::usage(format!(
                "unknown trace subcommand '{other}' (expected `gen`)\n\n{USAGE}"
            ))),
            None => Err(Fail::usage(format!(
                "`elk trace` needs a subcommand (expected `gen`)\n\n{USAGE}"
            ))),
        },
        "validate" => validate(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Fail::usage(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

/// Parsed arguments of the scenario-running commands.
struct ScenarioArgs {
    file: PathBuf,
    out: PathBuf,
    threads: Option<usize>,
    timeline: Option<PathBuf>,
}

impl ScenarioArgs {
    fn parse(command: &str, args: &[String]) -> Result<Self, Fail> {
        // Same shared flag walk as elk-par's --threads and elk-bench's
        // --out, so the three surfaces cannot drift.
        let (outs, rest) = elk::par::extract_flag("--out", args.to_vec()).map_err(Fail::usage)?;
        let (timelines, rest) = elk::par::extract_flag("--timeline", rest).map_err(Fail::usage)?;
        let (threads_values, rest) =
            elk::par::extract_flag("--threads", rest).map_err(Fail::usage)?;
        // Validate every occurrence; the last one wins.
        let mut threads = None;
        for v in &threads_values {
            threads = Some(elk::par::validate_threads(v).map_err(Fail::usage)?);
        }
        let mut file = None;
        for arg in rest {
            if arg.starts_with('-') {
                return Err(Fail::usage(format!(
                    "unknown flag '{arg}' for `elk {command}`"
                )));
            }
            if file.is_some() {
                return Err(Fail::usage(format!(
                    "`elk {command}` takes exactly one scenario file"
                )));
            }
            file = Some(PathBuf::from(arg));
        }
        let file = file.ok_or_else(|| {
            Fail::usage(format!("`elk {command}` needs a scenario file\n\n{USAGE}"))
        })?;
        Ok(ScenarioArgs {
            file,
            out: outs
                .last()
                .map_or_else(|| PathBuf::from("results"), PathBuf::from),
            threads,
            timeline: timelines.last().map(PathBuf::from),
        })
    }
}

/// Resolves where a run's timeline goes, or `None` when the run should
/// not record one. Precedence: the `--timeline` flag (which implies
/// `observe.enable`), then the scenario's `observe.timeline` path, then
/// — with `observe.enable` set but no path — the derived
/// `<out>/<name>.timeline.json`.
fn timeline_destination(
    command: &str,
    opts: &ScenarioArgs,
    spec: &ScenarioSpec,
) -> Result<Option<PathBuf>, Fail> {
    let supported = matches!(command, "simulate" | "serve" | "cluster");
    if let Some(path) = &opts.timeline {
        if !supported {
            return Err(Fail::usage(format!(
                "`elk {command}` does not take --timeline (only simulate, \
                 serve, and cluster record timelines)"
            )));
        }
        return Ok(Some(path.clone()));
    }
    if !supported || !spec.observe.enable {
        return Ok(None);
    }
    Ok(Some(spec.observe.timeline.as_ref().map_or_else(
        || {
            opts.out
                .join(format!("{}.timeline.json", report_stem(&spec.name)))
        },
        PathBuf::from,
    )))
}

/// `<x>.timeline.json` → `<x>.metrics.json` (plain `<x>.json` also
/// swaps its extension); anything else gets `.metrics.json` appended.
fn metrics_destination(timeline: &Path) -> PathBuf {
    let name = timeline
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("timeline");
    let stem = name
        .strip_suffix(".timeline.json")
        .or_else(|| name.strip_suffix(".json"))
        .unwrap_or(name);
    timeline.with_file_name(format!("{stem}.metrics.json"))
}

fn run_scenario(command: &str, opts: &ScenarioArgs) -> Result<(), Fail> {
    let text = fs::read_to_string(&opts.file)
        .map_err(|e| Fail::usage(format!("{}: {e}", opts.file.display())))?;
    // One parse: the document tree feeds `sweep` (which rewrites it per
    // grid point) and the spec everything else.
    let doc: Value = serde_json::from_str(&text)
        .map_err(|e| Fail::usage(format!("{}: {e}", opts.file.display())))?;
    let mut spec = <ScenarioSpec as serde::Deserialize>::from_value(&doc)
        .map_err(|e| Fail::usage(format!("{}: {e}", opts.file.display())))?;

    // --threads overrides the section the command actually uses. For
    // `sweep` it is the fan-out width across grid points instead (each
    // point keeps its file's own worker setting), so the spec is left
    // untouched there.
    if command != "sweep" {
        if let Some(threads) = opts.threads {
            spec.compiler.threads = threads;
            spec.serving.threads = threads;
            // Only `cluster` reads the cluster section; don't conjure a
            // phantom section into the other commands' specs.
            if command == "cluster" {
                spec.cluster.get_or_insert_with(Default::default).threads = threads;
            } else if let Some(cluster) = spec.cluster.as_mut() {
                cluster.threads = threads;
            }
        }
    }

    // Recording: when a timeline destination resolves, every observed
    // runner below shares one in-memory recorder; the buffered stream
    // is exported after the report lands.
    let timeline_out = timeline_destination(command, opts, &spec)?;
    let recorder = timeline_out.as_ref().map(|_| Arc::new(MemRecorder::new()));
    let obs = recorder.as_ref().map_or_else(Obs::null, |rec| {
        Obs::new(Arc::clone(rec), spec.observe.sample)
    });

    let report: Value = match command {
        "compile" => {
            let r = runner::run_compile(&spec)?;
            for d in &r.designs {
                println!(
                    "{}: {} on {}: {} ops, {:.3} ms simulated ({} violations)",
                    spec.name,
                    elk::spec::design_name(d.design),
                    r.system,
                    d.ops,
                    d.report.total.as_millis(),
                    d.report.capacity_violations,
                );
            }
            r.to_value()
        }
        "simulate" => {
            let r = runner::run_simulate_observed(&runner::base_runner(&spec)?, &spec, &obs)?;
            for d in &r.designs {
                let speedup = d
                    .speedup_vs_basic
                    .map_or_else(String::new, |s| format!(" ({s:.2}x vs basic)"));
                println!(
                    "{}: {}: {:.3} ms{speedup}, hbm {:.0}%, noc {:.0}%",
                    spec.name,
                    elk::spec::design_name(d.design),
                    d.total_ms,
                    d.hbm_util * 100.0,
                    d.noc_util * 100.0,
                );
            }
            r.to_value()
        }
        "serve" => {
            // A broken model spec (typo'd alias, zero layers) must fail
            // like every other command; only a *valid* model the serving
            // engine cannot batch (MoE, DiT) is a documented no-op —
            // scenario smoke runs `elk serve` over every file.
            match spec.model.resolve().map_err(Fail::from)? {
                elk::spec::ResolvedModel::Llm(_) => {}
                _ => {
                    let reason = "the serving engine batches dense transformers only";
                    println!("{}: serving skipped — {reason}", spec.name);
                    let path = write_skip_marker(&opts.out, &spec.name, command, reason)?;
                    println!("skip marker: {}", path.display());
                    return Ok(());
                }
            }
            // A recorded serve timeline also carries the compile
            // pipeline's lanes, so one file spans compile phases,
            // kernel events, and request lanes end to end. Both passes
            // derive from one base runner: the chip is fitted once.
            let base = runner::base_runner(&spec)?;
            if obs.enabled() {
                runner::run_compile_observed(&base, &spec, &obs)?;
            }
            let r = runner::run_serve_observed(&base, &spec, &obs)?;
            for d in &r.designs {
                println!(
                    "{}: {}: {} reqs, ttft p99 {:.2} ms, tpot mean {:.2} ms, goodput {:.1} req/s",
                    spec.name,
                    elk::spec::design_name(d.design),
                    d.completed,
                    d.ttft.p99.as_millis(),
                    d.tpot.mean.as_millis(),
                    d.goodput_rps,
                );
            }
            for row in r.tenancy.iter().flatten() {
                print_tenancy_row(&format!("{}: tenancy", spec.name), row);
            }
            // Same disposition summary the cluster path prints: with no
            // admission control every completed request was admitted.
            let (admitted, rejected, deferred) = match &r.tenancy {
                Some(rows) => rows.iter().fold((0, 0, 0), |(a, j, d), t| {
                    (a + t.admitted, j + t.rejected, d + t.deferred)
                }),
                None => (r.designs.iter().map(|d| d.completed).sum(), 0, 0),
            };
            println!(
                "{}: dispositions: {admitted} admitted / {rejected} rejected / {deferred} deferred",
                spec.name,
            );
            r.to_value()
        }
        "cluster" => {
            // Same skip contract as `serve`: a broken model spec fails,
            // a valid non-dense model is a documented no-op (CI runs
            // `elk cluster` over scenario sets that include MoE/DiT).
            match spec.model.resolve().map_err(Fail::from)? {
                elk::spec::ResolvedModel::Llm(_) => {}
                _ => {
                    let reason = "the planner shards dense transformers only";
                    println!("{}: cluster planning skipped — {reason}", spec.name);
                    let path = write_skip_marker(&opts.out, &spec.name, command, reason)?;
                    println!("skip marker: {}", path.display());
                    return Ok(());
                }
            }
            // See the serve arm: compile lanes ride along in the
            // recorded timeline, on the run's one base runner.
            let base = runner::base_runner(&spec)?;
            if obs.enabled() {
                runner::run_compile_observed(&base, &spec, &obs)?;
            }
            let r = runner::run_cluster_observed(&base, &spec, &obs)?;
            let e = &r.estimate;
            println!(
                "{}: {} plan {} on {} chips ({} used), step {:.3} ms, bubble {:.1}%, {}",
                spec.name,
                if r.auto { "auto-selected" } else { "pinned" },
                e.plan,
                r.chips,
                e.chips_used,
                e.step_total.as_millis(),
                e.bubble_fraction * 100.0,
                e.scaling_efficiency.map_or_else(
                    || "no single-chip baseline".to_string(),
                    |s| format!("scaling efficiency {:.2}", s)
                ),
            );
            for s in &e.stages {
                println!(
                    "  stage {}: layers {}..{}{}{} {:.3} ms/microbatch (busy {:.0}%)",
                    s.stage,
                    s.layer_start,
                    s.layer_end,
                    if s.embed { " +embed" } else { "" },
                    if s.head { " +head" } else { "" },
                    s.time.as_millis(),
                    s.busy_fraction * 100.0,
                );
            }
            for row in r.serving.iter().flatten() {
                println!(
                    "  serve {} × {}: {} reqs, ttft p99 {:.2} ms, tpot mean {:.2} ms, goodput {:.1} req/s",
                    elk::spec::design_name(row.design),
                    row.policy,
                    row.completed,
                    row.ttft.p99.as_millis(),
                    row.tpot.mean.as_millis(),
                    row.goodput_rps,
                );
            }
            for row in r.autoscale.iter().flatten() {
                println!(
                    "  autoscale {}: {} reqs, {}..{} groups (peak {}), {} up / {} down, \
                     {} cold start(s) ({:.1} ms), slo {:.1}%, goodput {:.1} req/s, {:.2} chip-s",
                    elk::spec::design_name(row.design),
                    row.completed,
                    row.min_groups,
                    row.max_groups,
                    row.peak_groups,
                    row.scale_ups,
                    row.scale_downs,
                    row.cold_starts,
                    row.cold_start_total.as_millis(),
                    row.slo_attainment * 100.0,
                    row.goodput_rps,
                    row.chip_seconds,
                );
            }
            for row in r.disagg.iter().flatten() {
                println!(
                    "  disagg {} × {}: {} reqs, prefill {} × decode {}{}, \
                     ttft p99 {:.2} ms, tpot mean {:.2} ms, kv {:.1} MiB, goodput {:.1} req/s",
                    elk::spec::design_name(row.design),
                    row.policy,
                    row.completed,
                    row.prefill_plan,
                    row.decode_plan,
                    if row.chunk_tokens > 0 {
                        format!(" (chunk {})", row.chunk_tokens)
                    } else {
                        String::new()
                    },
                    row.ttft.p99.as_millis(),
                    row.tpot.mean.as_millis(),
                    row.kv_moved.get() as f64 / (1024.0 * 1024.0),
                    row.goodput_rps,
                );
            }
            for row in r.tenancy.iter().flatten() {
                print_tenancy_row("  tenancy", row);
            }
            r.to_value()
        }
        "sweep" => {
            let threads = opts.threads.unwrap_or(0);
            let r = elk::spec::run_sweep(&doc, threads)?;
            println!(
                "{}: swept {} over {} point(s): {}",
                r.scenario,
                r.axes.join(" x "),
                r.points.len(),
                r.command,
            );
            for p in &r.points {
                println!("  {}", p.name);
            }
            r.to_value()
        }
        _ => unreachable!("dispatch only routes known commands"),
    };

    let path = write_report(&opts.out, &spec.name, command, &report)?;
    println!("report: {}", path.display());

    if let (Some(timeline_path), Some(rec)) = (timeline_out, recorder) {
        let buf = rec.take_buf();
        let metrics_path = metrics_destination(&timeline_path);
        write_json(&timeline_path, &export::chrome_trace(&buf))?;
        write_json(&metrics_path, &export::metrics(&buf))?;
        println!("timeline: {}", timeline_path.display());
        println!("metrics: {}", metrics_path.display());
    }
    Ok(())
}

/// Writes a pretty-printed JSON value to `path`, creating parent
/// directories as needed.
fn write_json(path: &Path, value: &Value) -> Result<(), Fail> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent).map_err(|e| Fail::run(format!("{}: {e}", parent.display())))?;
    }
    let json = serde_json::to_string_pretty(value).expect("value serialization is infallible");
    fs::write(path, json + "\n").map_err(|e| Fail::run(format!("{}: {e}", path.display())))
}

/// One console row per tenancy replay, plus an indented line per
/// tenant: admission split, fleet goodput, and the fairness index.
fn print_tenancy_row(prefix: &str, row: &elk::cluster::TenancyServingReport) {
    println!(
        "{prefix} {} × {}: {} admitted / {} rejected / {} deferred, \
         goodput {:.1} req/s, jain {:.3}",
        elk::spec::design_name(row.base.design),
        row.base.policy,
        row.admitted,
        row.rejected,
        row.deferred,
        row.base.goodput_rps,
        row.jain_fairness,
    );
    for t in &row.tenants {
        println!(
            "    {} [{}]: {}/{} completed, ttft p99 {:.2} ms, slo {:.1}%, goodput {:.1} req/s",
            t.tenant,
            t.class,
            t.completed,
            t.arrivals,
            t.ttft.p99.as_millis(),
            t.slo_attainment * 100.0,
            t.goodput_rps,
        );
    }
}

/// `elk trace gen`: run the scenario's `workload.trace.generate`
/// recipe and write the records as `<out>/<name>.trace.jsonl` plus a
/// `<name>.trace.json` summary. The JSONL is the artifact a replay
/// scenario points its `workload.trace.file` at, so the bytes are the
/// raw versioned trace format, not a pretty-printed report.
fn run_trace_gen(opts: &ScenarioArgs) -> Result<(), Fail> {
    if opts.threads.is_some() {
        return Err(Fail::usage(
            "`elk trace gen` does not take --threads: generation is a \
             pure function of the seed",
        ));
    }
    let text = fs::read_to_string(&opts.file)
        .map_err(|e| Fail::usage(format!("{}: {e}", opts.file.display())))?;
    let spec = ScenarioSpec::from_json(&text)
        .map_err(|e| Fail::usage(format!("{}: {e}", opts.file.display())))?;
    let (trace, report) = runner::run_trace_gen(&spec)?;

    fs::create_dir_all(&opts.out).map_err(|e| Fail::run(format!("{}: {e}", opts.out.display())))?;
    let jsonl_path = opts
        .out
        .join(format!("{}.trace.jsonl", report_stem(&spec.name)));
    fs::write(&jsonl_path, trace.to_jsonl())
        .map_err(|e| Fail::run(format!("{}: {e}", jsonl_path.display())))?;
    println!(
        "{}: {} request(s) over {:.2} s, {} prompt + {} output tokens, {} tenant(s)",
        spec.name,
        report.requests,
        report.duration_s,
        report.total_prompt_tokens,
        report.total_output_tokens,
        report.tenants,
    );
    println!("trace: {}", jsonl_path.display());
    let path = write_report(&opts.out, &spec.name, "trace", &report.to_value())?;
    println!("report: {}", path.display());
    Ok(())
}

/// Sanitizes a scenario name into a filesystem-safe report stem.
fn report_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes `report` to `<out>/<name>.<command>.json` and returns the
/// path.
fn write_report(out: &Path, name: &str, command: &str, report: &Value) -> Result<PathBuf, Fail> {
    fs::create_dir_all(out).map_err(|e| Fail::run(format!("{}: {e}", out.display())))?;
    let path = out.join(format!("{}.{command}.json", report_stem(name)));
    let json = serde_json::to_string_pretty(report).expect("report serialization is infallible");
    fs::write(&path, json + "\n").map_err(|e| Fail::run(format!("{}: {e}", path.display())))?;
    Ok(path)
}

/// Writes the structured `<stem>.<command>.skipped.json` marker for a
/// scenario a command declines (MoE/DiT under `serve`/`cluster`).
///
/// A skip exits 0, but it must still leave a machine-readable trace:
/// without one, "skipped by design" and "silently never ran" are
/// indistinguishable to anything consuming the results directory. The
/// marker round-trips through `elk validate` like every other report.
fn write_skip_marker(out: &Path, name: &str, command: &str, reason: &str) -> Result<PathBuf, Fail> {
    let marker = Value::Map(vec![
        ("scenario".to_string(), Value::Str(name.to_string())),
        ("command".to_string(), Value::Str(command.to_string())),
        ("skipped".to_string(), Value::Bool(true)),
        ("reason".to_string(), Value::Str(reason.to_string())),
    ]);
    write_report(out, name, &format!("{command}.skipped"), &marker)
}

/// `elk validate`: every given JSON file (or every `*.json` in a given
/// directory) must parse and survive a serialize → parse round-trip
/// unchanged.
fn validate(args: &[String]) -> Result<(), Fail> {
    if args.is_empty() {
        return Err(Fail::usage(
            "`elk validate` needs at least one file or directory",
        ));
    }
    let mut files = Vec::new();
    for arg in args {
        let path = PathBuf::from(arg);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = fs::read_dir(&path)
                .map_err(|e| Fail::usage(format!("{arg}: {e}")))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path);
        }
    }
    if files.is_empty() {
        return Err(Fail::run("no JSON files found to validate"));
    }
    for file in &files {
        let text =
            fs::read_to_string(file).map_err(|e| Fail::run(format!("{}: {e}", file.display())))?;
        let parsed: Value = serde_json::from_str(&text)
            .map_err(|e| Fail::run(format!("{}: parse error: {e}", file.display())))?;
        let reemitted = serde_json::to_string(&parsed).expect("value serialization is infallible");
        let reparsed: Value = serde_json::from_str(&reemitted)
            .map_err(|e| Fail::run(format!("{}: re-parse error: {e}", file.display())))?;
        if parsed != reparsed {
            return Err(Fail::run(format!(
                "{}: JSON does not round-trip through serde_json",
                file.display()
            )));
        }
        if let Some(events) = timeline_events(&parsed) {
            check_timeline(file, events)?;
            println!("{}: ok ({} trace event(s))", file.display(), events.len());
        } else {
            println!("{}: ok", file.display());
        }
    }
    println!("{} file(s) round-trip clean", files.len());
    Ok(())
}

/// The `traceEvents` array when `v` is a Chrome-trace timeline, else
/// `None` (ordinary reports fall through to the round-trip check only).
fn timeline_events(v: &Value) -> Option<&[Value]> {
    let Value::Map(pairs) = v else { return None };
    pairs
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, events)| match events {
            Value::Seq(events) => Some(events.as_slice()),
            _ => None,
        })
}

/// Structural check over a timeline's `traceEvents`: every event is an
/// object with string `ph` and `name`, and every non-metadata event
/// (`ph` ≠ `"M"`) carries a numeric `ts`.
fn check_timeline(file: &Path, events: &[Value]) -> Result<(), Fail> {
    let field = |pairs: &[(String, Value)], key: &str| {
        pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    for (i, ev) in events.iter().enumerate() {
        let fail = |what: &str| Fail::run(format!("{}: traceEvents[{i}]: {what}", file.display()));
        let Value::Map(pairs) = ev else {
            return Err(fail("not an object"));
        };
        let Some(Value::Str(ph)) = field(pairs, "ph") else {
            return Err(fail("missing string `ph`"));
        };
        if !matches!(field(pairs, "name"), Some(Value::Str(_))) {
            return Err(fail("missing string `name`"));
        }
        if ph != "M"
            && !matches!(
                field(pairs, "ts"),
                Some(Value::U64(_) | Value::I64(_) | Value::F64(_))
            )
        {
            return Err(fail("missing numeric `ts`"));
        }
    }
    Ok(())
}
