//! LLM serving scenario: compare all five designs (§6.1) across batch
//! sizes for one model, reproducing the Fig. 17 reading for one column.
//!
//! ```text
//! cargo run --release --example llm_serving [model] [seq_len] [--threads N]
//! # model in {llama13, llama70, gemma27, opt30}, default llama13
//! ```

use elk::baselines::{Design, DesignRunner};
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
    let seq: u64 = parsed
        .rest
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2048);
    let cfg = match zoo::by_name(&model_arg) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let runner = DesignRunner::new(presets::ipu_pod4()).with_threads(parsed.threads);
    println!(
        "{} decode, seq_len {seq}, 4 chips, 16 TB/s pod HBM",
        cfg.name
    );
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "batch", "Basic", "Static", "ELK-Dyn", "ELK-Full", "Ideal"
    );

    for batch in [16u64, 32, 64] {
        let graph = cfg.build(Workload::decode(batch, seq), 4);
        let mut row = format!("{batch:>6}");
        for out in runner.run_designs(&Design::ALL, &graph, &SimOptions::default())? {
            row.push_str(&format!(" {:>8.2}ms", out.report.total.as_millis()));
        }
        println!("{row}");
    }

    println!();
    println!("Expected: ELK-Full tracks Ideal closely and the gap to Basic/Static");
    println!("widens with batch (KV-cache pressure on the on-chip memory).");
    Ok(())
}
