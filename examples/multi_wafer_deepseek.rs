//! Multi-wafer scaling: train DeepSeek-V3-671B — which cannot fit one
//! wafer's DRAM — on a four-wafer Config-3 node, comparing SOTA (1.8 TB/s)
//! and commodity (400 GB/s) wafer-to-wafer interconnects (§VI-F).
//! A single `Explorer` session covers the infeasible single wafer and
//! both multi-wafer nodes.
//!
//! Run with: `cargo run --release --example multi_wafer_deepseek`

use watos::{Explorer, PlanFilter};
use wsc_arch::presets;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

fn main() {
    let job = TrainingJob::standard(zoo::deepseek_v3());
    println!(
        "model: {} ({:.0}B params, modelP = {:.1} TB)",
        job.model.name,
        job.model.params_b(),
        job.model.total_params() * 16.0 / 1e12
    );

    // The plan-based search space: cross-wafer TP (TP collectives may
    // cross the W2W seam) and uneven stage→wafer maps, on top of the
    // balanced intra-wafer baseline. Each winning record carries its
    // full `ParallelPlan`.
    let report = Explorer::builder()
        .job(job)
        .wafer(presets::config(3))
        .multi_wafer(presets::multi_wafer_18())
        .multi_wafer(presets::multi_wafer_4())
        .plans(PlanFilter::all())
        .no_ga()
        .build()
        .expect("valid configuration")
        .run();

    // A single wafer is pruned by the Alg. 1 memory check.
    match &report.single_wafer[0].best {
        None => println!("single Config-3 wafer: infeasible (as expected — 3.9 TB of DRAM)"),
        Some(_) => println!("single wafer unexpectedly feasible"),
    }

    for (node, label) in report
        .multi_wafer
        .iter()
        .zip(["WATOS-18 (1.8 TB/s W2W)", "WATOS-4  (0.4 TB/s W2W)"])
    {
        match &node.best {
            Some(r) => println!(
                "{label}: {} | iter {} | {} useful | {:.0}% of stage boundaries cross wafers",
                r.plan,
                r.iteration,
                r.useful_throughput,
                r.w2w_boundary_fraction * 100.0
            ),
            None => println!("{label}: infeasible"),
        }
    }
}
