//! Request-level serving: replay one seeded trace against all five
//! designs and compare TTFT / TPOT / p99 / goodput — the serving-system
//! view the paper's per-batch numbers (Fig. 17) do not show.
//!
//! ```text
//! cargo run --release --example serving_trace [model] [replicas] [--threads N]
//! # model in {llama13, llama70, gemma27, opt30}, default llama13
//! ```

use elk::baselines::Design;
use elk::prelude::*;

fn main() -> Result<(), elk::compiler::CompileError> {
    let parsed = match elk::par::parse_threads(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let model_arg = parsed
        .rest
        .first()
        .cloned()
        .unwrap_or_else(|| "llama13".into());
    let model = match zoo::by_name(&model_arg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let replicas: usize = match parsed.rest.get(1) {
        None => 1,
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("invalid replica count '{s}': expected a positive integer");
                std::process::exit(2);
            }
        },
    };

    // A thundering-herd trace: a burst of long-prompt requests saturates
    // the batcher, driving decode to batch 32-64 against 2048/4096-deep
    // KV contexts — the memory-pressured regime where the paper's design
    // gap is decisive (Fig. 17) — with outputs long enough that decode,
    // not prefill, dominates each request's lifetime.
    let trace = TraceConfig {
        seed: 0x5eed,
        requests: 64,
        rate: RateShape::bursty(300.0, 3.5, 0.2, 0.25).expect("valid burst recipe"),
        prompt_len: LengthModel::Uniform { lo: 1700, hi: 3600 },
        output_len: LengthModel::Uniform { lo: 160, hi: 320 },
    }
    .generate();

    println!(
        "{}: {} requests over {:.3} s ({} output tokens), {} replica(s) x 4 chips, {} worker thread(s)",
        model.name,
        trace.len(),
        trace.duration().as_secs(),
        trace.total_output_tokens(),
        replicas,
        parsed.threads,
    );
    println!();

    // Under a saturating burst, TTFT is queueing-dominated for every
    // design; the SLO that separates them is the decode-speed (TPOT)
    // bound.
    let mut config = ServeConfig::new(model, 4)
        .with_replicas(replicas)
        .with_threads(parsed.threads);
    // Batch 32 keeps decode in the regime where every design is
    // HBM-overlappable (at batch 64 x seq 4096 even Static's tuned split
    // thrashes and the Fig. 17 ordering degenerates).
    config.batch.max_batch = 32;
    config.slo = SloConfig {
        ttft: Seconds::new(20.0),
        tpot: Seconds::from_millis(25.0),
    };
    let mut sim = ServingSim::new(presets::ipu_pod4(), config);

    let mut mean_tpot = Vec::new(); // (design, secs), in Design::ALL order
    let mut rows = Vec::new();
    let mut steps = 0;
    for design in Design::ALL {
        let report = sim.run(design, &trace)?;
        assert_eq!(report.completed, trace.len());
        steps += report.prefill_steps + report.decode_steps;
        rows.push(format!(
            "{:>9} {:>9.2} {:>9.2} {:>8.2} {:>8.2} {:>9.2} {:>9.2} {:>8.1} {:>7.0}%  {:>4}/{:<4}",
            design.to_string(),
            report.ttft.p50.as_millis(),
            report.ttft.p99.as_millis(),
            report.tpot.mean.as_millis(),
            report.tpot.p99.as_millis(),
            report.e2e.p99.as_millis(),
            report.makespan.as_millis(),
            report.goodput_rps,
            report.slo_attainment * 100.0,
            report.cache.hits,
            report.cache.misses,
        ));
        mean_tpot.push((design, report.tpot.mean.as_secs()));
    }

    println!(
        "{:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8}  {:>9}",
        "design",
        "TTFT-p50",
        "TTFT-p99",
        "TPOT",
        "TPOT-p99",
        "E2E-p99",
        "makespan",
        "goodput",
        "SLO",
        "hit/miss"
    );
    println!(
        "{:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "", "(ms)", "(ms)", "(ms)", "(ms)", "(ms)", "(ms)", "(req/s)", ""
    );
    for row in &rows {
        println!("{row}");
    }

    // Fig. 17's design ordering must survive the request-level view:
    // Ideal <= ELK-Full <= ELK-Dyn/Static <= Basic on mean TPOT.
    let tpot_of = |d: Design| {
        mean_tpot
            .iter()
            .find(|(design, _)| *design == d)
            .expect("all designs ran")
            .1
    };
    let (basic, stat, dyn_, full, ideal) = (
        tpot_of(Design::Basic),
        tpot_of(Design::Static),
        tpot_of(Design::ElkDyn),
        tpot_of(Design::ElkFull),
        tpot_of(Design::Ideal),
    );
    let slack = 1.02; // simulator noise tolerance
    assert!(ideal <= full * slack, "Ideal {ideal} > ELK-Full {full}");
    assert!(full <= dyn_ * slack, "ELK-Full {full} > ELK-Dyn {dyn_}");
    assert!(full <= stat * slack, "ELK-Full {full} > Static {stat}");
    assert!(dyn_ <= basic * slack, "ELK-Dyn {dyn_} > Basic {basic}");
    assert!(stat <= basic * slack, "Static {stat} > Basic {basic}");

    let stats = sim.cache_stats();
    println!();
    println!(
        "plan cache over all designs: {} lookups for {} steps ({} misses) — the step memos price each repeated shape once",
        stats.hits + stats.misses,
        steps,
        stats.misses,
    );
    assert!(
        stats.hits + stats.misses < steps,
        "repeated step shapes must hit the step memo"
    );
    Ok(())
}
