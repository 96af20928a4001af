//! Measured-benchmark harness for the §IV-C/§IV-D refinement hot path.
//!
//! Runs each GA preset twice in the same process — once on the
//! incremental [`PlacementCostModel`] cost engine (`ga::refine` /
//! `placement::optimize`) and once on the naive re-derive-everything
//! reference (`ga::refine_naive` / `placement::optimize_naive`) —
//! verifies the results are **bit-identical** (fitness, history,
//! placement, grants for the GA; placement and Eq. 2 cost for the hill
//! climb), and writes the wall times to `BENCH_ga.json` so the perf
//! trajectory is tracked from PR to PR.
//!
//! ```text
//! cargo run -p wsc-bench --release --bin bench_ga -- \
//!     [--preset refine-llama2-30b|refine-llama3-70b|hillclimb|all] \
//!     [--output BENCH_ga.json] [--reps N] [--min-speedup X] [--threads N]
//! ```
//!
//! The equivalence contract always applies (any divergence exits
//! non-zero); `--min-speedup` additionally exits non-zero when a
//! measured speedup falls below `X` (the CI smoke contract).
//!
//! [`PlacementCostModel`]: watos::PlacementCostModel

use std::time::Instant;
use watos::ga::{refine, refine_naive, GaResult};
use watos::placement::{global_cost, optimize, optimize_naive};
use wsc_arch::fault::FaultMap;
use wsc_bench::util::{ga_refine_presets, ga_setup, hill_climb_preset};
use wsc_workload::training::TrainingJob;

use serde::Serialize;

/// One preset's measurements.
#[derive(Debug, Serialize)]
struct BenchEntry {
    preset: String,
    workload: String,
    naive_secs: f64,
    incremental_secs: f64,
    speedup: f64,
    reps: usize,
    threads: usize,
    /// Stages with DRAM overflow (GA presets) or Sender→Helper pair
    /// count (hill-climb preset) — how hard the Eq. 2 pair/conflict
    /// machinery is exercised.
    demand_sites: usize,
    /// Best fitness (GA presets) or Eq. 2 cost (hill-climb preset) —
    /// identical on both engines by contract.
    objective: f64,
    identical: bool,
}

/// The whole `BENCH_ga.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    threads: usize,
    presets: Vec<BenchEntry>,
}

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut out = f(); // warm-up (fills caches, faults pages) — untimed
    let t0 = Instant::now();
    for _ in 0..reps {
        out = f();
    }
    (out, t0.elapsed().as_secs_f64() / reps as f64)
}

fn ga_identical(a: &GaResult, b: &GaResult) -> bool {
    let bits = |h: &[f64]| h.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    a.fitness.to_bits() == b.fitness.to_bits()
        && bits(&a.history) == bits(&b.history)
        && a.placement == b.placement
        && a.grants == b.grants
        && a.recompute == b.recompute
}

fn record(entry: BenchEntry, min_speedup: Option<f64>, entries: &mut Vec<BenchEntry>) -> bool {
    let mut failed = false;
    println!(
        "[{:16}] {:12} naive {:8.4}s  incremental {:8.4}s  speedup {:6.2}x  identical {}",
        entry.preset,
        entry.workload,
        entry.naive_secs,
        entry.incremental_secs,
        entry.speedup,
        entry.identical,
    );
    if !entry.identical {
        eprintln!(
            "[{}] EQUIVALENCE BUG: incremental result differs from the naive reference",
            entry.preset
        );
        failed = true;
    }
    if let Some(min) = min_speedup {
        if entry.speedup < min {
            eprintln!(
                "[{}] speedup {:.2}x below required {min}x",
                entry.preset, entry.speedup
            );
            failed = true;
        }
    }
    entries.push(entry);
    failed
}

fn main() {
    let mut preset_arg = "all".to_string();
    let mut output = "BENCH_ga.json".to_string();
    let mut min_speedup: Option<f64> = None;
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--preset" => preset_arg = args.next().expect("--preset needs a value"),
            "--output" => output = args.next().expect("--output needs a value"),
            "--reps" => {
                reps = args
                    .next()
                    .expect("--reps needs a value")
                    .parse()
                    .expect("--reps must be an integer")
            }
            "--min-speedup" => {
                min_speedup = Some(
                    args.next()
                        .expect("--min-speedup needs a value")
                        .parse()
                        .expect("--min-speedup must be a number"),
                )
            }
            "--threads" => {
                // Honored by the vendored rayon at call time; set before
                // any parallel work starts.
                std::env::set_var(
                    "RAYON_NUM_THREADS",
                    args.next().expect("--threads needs a value"),
                );
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let refine_presets: Vec<_> = ga_refine_presets()
        .into_iter()
        .filter(|p| preset_arg == "all" || p.name == preset_arg)
        .collect();
    let hill = hill_climb_preset();
    let run_hill = preset_arg == "all" || hill.name == preset_arg;
    if refine_presets.is_empty() && !run_hill {
        eprintln!(
            "unknown preset `{preset_arg}` (refine-llama2-30b|refine-llama3-70b|hillclimb|all)"
        );
        std::process::exit(2);
    }

    let mut entries = Vec::new();
    let mut failed = false;
    for preset in &refine_presets {
        let s = ga_setup(preset);
        let (naive_result, naive_secs) = time(reps, || {
            refine_naive(
                &s.mesh,
                &s.stages,
                &s.plan,
                &s.placement,
                &s.overflow,
                &s.spare,
                s.pp_volume,
                &preset.params,
            )
        });
        let (inc_result, inc_secs) = time(reps, || {
            refine(
                &s.mesh,
                &s.stages,
                &s.plan,
                &s.placement,
                &s.overflow,
                &s.spare,
                s.pp_volume,
                s.capacity,
                &preset.params,
            )
        });
        let job = TrainingJob::standard(preset.model.clone());
        failed |= record(
            BenchEntry {
                preset: preset.name.to_string(),
                workload: format!("{} D(1)T({})P({})", job.model.name, preset.tp, preset.pp),
                naive_secs,
                incremental_secs: inc_secs,
                speedup: naive_secs / inc_secs.max(1e-12),
                reps,
                threads: rayon::current_num_threads(),
                demand_sites: s
                    .overflow
                    .iter()
                    .filter(|o| **o > wsc_arch::units::Bytes::ZERO)
                    .count(),
                objective: inc_result.fitness,
                identical: ga_identical(&inc_result, &naive_result),
            },
            min_speedup,
            &mut entries,
        );
    }

    if run_hill {
        let h = hill;
        let (naive_p, naive_secs) = time(reps, || {
            optimize_naive(
                &h.mesh,
                h.pp,
                h.tile_w,
                h.tile_h,
                h.pp_volume,
                &h.pairs,
                &FaultMap::none(),
                h.seed,
            )
            .expect("preset fits")
        });
        let (inc_p, inc_secs) = time(reps, || {
            optimize(
                &h.mesh,
                h.pp,
                h.tile_w,
                h.tile_h,
                h.pp_volume,
                &h.pairs,
                h.seed,
            )
            .expect("preset fits")
        });
        let naive_cost = global_cost(&h.mesh, &naive_p, h.pp_volume, &h.pairs, &FaultMap::none());
        let inc_cost = global_cost(&h.mesh, &inc_p, h.pp_volume, &h.pairs, &FaultMap::none());
        failed |= record(
            BenchEntry {
                preset: h.name.to_string(),
                workload: format!(
                    "{}x{} mesh, {} stages, {} pairs",
                    h.mesh.nx,
                    h.mesh.ny,
                    h.pp,
                    h.pairs.len()
                ),
                naive_secs,
                incremental_secs: inc_secs,
                speedup: naive_secs / inc_secs.max(1e-12),
                reps,
                threads: rayon::current_num_threads(),
                demand_sites: h.pairs.len(),
                objective: inc_cost,
                identical: inc_p == naive_p && inc_cost.to_bits() == naive_cost.to_bits(),
            },
            min_speedup,
            &mut entries,
        );
    }

    let report = BenchReport {
        benchmark: "ga refinement + placement hill climb: incremental cost engine vs naive decode"
            .to_string(),
        threads: rayon::current_num_threads(),
        presets: entries,
    };
    let json = serde::json::to_text(&report.to_value());
    std::fs::write(&output, json + "\n").expect("write benchmark report");
    println!("wrote {output}");
    if failed {
        std::process::exit(1);
    }
}
