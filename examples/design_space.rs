//! Architecture design-space exploration (§6.4): sweep HBM bandwidth and
//! interconnect topology for a new ICCA chip and see where the
//! bottleneck moves — the paper's "HBM and interconnect must scale
//! together" insight.
//!
//! ```text
//! cargo run --release --example design_space [--threads N]
//! ```

use elk::baselines::{Design, DesignRunner};
use elk::prelude::*;

fn main() -> Result<(), elk::compiler::CompileError> {
    let threads = match elk::par::parse_threads(std::env::args().skip(1)) {
        Ok(parsed) => parsed.threads,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let graph = zoo::llama2_70b().build(Workload::decode(32, 2048), 4);

    let pod = DesignRunner::new(presets::ipu_pod4()).with_threads(threads);
    for (name, topology) in [
        ("all-to-all", presets::ipu_pod4()),
        ("2D mesh", presets::ipu_pod4_mesh()),
    ] {
        println!("== {name} interconnect ==");
        println!(
            "{:>10} {:>12} {:>12} {:>10}",
            "HBM TB/s", "ELK-Full", "Ideal", "NoC util"
        );
        let runner = pod.with_system(topology);
        for hbm_tbps in [4.0f64, 8.0, 12.0, 16.0] {
            let swept = runner.with_system(
                runner
                    .system()
                    .with_total_hbm_bandwidth(ByteRate::tib_per_sec(hbm_tbps)),
            );
            let designs = [Design::ElkFull, Design::Ideal];
            let outs = swept.run_designs(&designs, &graph, &SimOptions::default())?;
            let (full, ideal) = (&outs[0], &outs[1]);
            println!(
                "{:>10.0} {:>10.2}ms {:>10.2}ms {:>9.0}%",
                hbm_tbps,
                full.report.total.as_millis(),
                ideal.report.total.as_millis(),
                full.report.noc_util * 100.0,
            );
        }
        println!();
    }

    println!("Reading: more HBM bandwidth helps until the interconnect binds; the mesh");
    println!("saturates its links earlier than the all-to-all exchange at equal aggregate");
    println!("bandwidth, so its returns diminish sooner (Figs. 19, 21, 22).");
    Ok(())
}
