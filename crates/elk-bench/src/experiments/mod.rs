//! One module per paper table/figure (plus ablations). Each exposes
//! `run(&mut Ctx)`.

pub mod ablation_allocator;
pub mod ablation_reorder;
pub mod ablation_sram;
pub mod autoscale;
pub mod cluster;
pub mod disagg;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig12;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod scale;
pub mod serving;
pub mod table2;
pub mod tenancy;

use elk_baselines::DesignOutcome;

/// Pod-level achieved TFLOPS (the simulator reports per chip).
pub(crate) fn pod_tflops(outcome: &DesignOutcome, chips: u64) -> f64 {
    outcome.report.achieved.as_tera() * chips as f64
}
