//! Measured-benchmark harness for the co-exploration search engine.
//!
//! Runs each search sweep twice per preset — once with the production
//! configuration (analytic pruning + parallel waves) and once as the
//! exhaustive sequential baseline (`sequential` + no-prune) — in the
//! same process, checks the winners agree, and writes the wall times
//! plus `SearchStats` to `BENCH_search.json` so the perf trajectory is
//! tracked from PR to PR. The `small`/`medium`/`large` presets exercise
//! the Alg. 1 single-wafer engine; `multiwafer` exercises the §VI-F
//! node sweep (Llama3-405B on a 4-wafer node).
//!
//! ```text
//! cargo run -p wsc-bench --release --bin bench_search -- \
//!     [--preset small|medium|large|multiwafer|all] \
//!     [--output BENCH_search.json] \
//!     [--require-pruning] [--min-speedup X] [--threads N[,M,...]]
//!     [--no-node-placement] [--time-budget SECS] [--inject-smoke]
//! ```
//!
//! `--time-budget SECS` switches to the anytime mode: one budgeted pass
//! per preset under a wall-clock deadline. The winner-agreement and
//! pruning contracts don't apply to a truncated run; the contract here
//! is anytime validity — the run returns, the counters stay honest
//! (`visited == pruned + evaluated + skipped`), and the best-so-far
//! report round-trips through JSON. `--inject-smoke` runs the CI
//! resilience smoke: a seeded fault-injection storm (panics, delays,
//! cache corruption) that must stay isolated, plus a 100ms-deadline
//! multi-wafer run that must still emit valid best-so-far JSON.
//!
//! `--require-pruning` exits non-zero unless every preset pruned at
//! least one configuration (the CI smoke contract); `--min-speedup`
//! exits non-zero when the measured speedup falls below `X`;
//! `--no-node-placement` is the escape hatch that strips the node-level
//! Alg. 3 pass from multi-wafer presets that enable it, reproducing the
//! seed-era baseline sweep.
//! `--threads N[,M,...]` pins the rayon pool (the vendored rayon honors
//! `RAYON_NUM_THREADS` at call time) and runs the whole sweep once per
//! listed pool size in one process, so a single document carries every
//! thread count's entries; the harness exits non-zero if any preset's
//! winning plan differs between thread counts, so the byte-identity
//! contract is measured on real multi-core hardware rather than
//! assumed.

use std::time::Instant;
use watos::{
    ExplorationReport, Explorer, ExplorerBuilder, Injection, ParallelPlan, SearchBudget,
    SearchStats,
};
use wsc_bench::util::{
    multi_wafer_search_presets, search_presets, MultiWaferSearchPreset, SearchPreset,
};
use wsc_workload::training::TrainingJob;

use serde::Serialize;

/// One preset's measurements.
#[derive(Debug, Serialize)]
struct BenchEntry {
    preset: String,
    model: String,
    wafer: String,
    /// Rayon pool size the entry was measured with.
    threads: usize,
    pruned_parallel_secs: f64,
    sequential_noprune_secs: f64,
    speedup: f64,
    stats: SearchStats,
    exhaustive_stats: SearchStats,
    best_parallel: Option<String>,
    /// The full winning plan (strategy, stage map, TP span), so the
    /// committed JSON records *which* plan-space region won.
    best_plan: Option<ParallelPlan>,
    best_iteration_secs: Option<f64>,
}

/// The whole `BENCH_search.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    /// Every rayon pool size the sweep was run with (one pass each).
    thread_counts: Vec<usize>,
    presets: Vec<BenchEntry>,
}

/// One preset's anytime (`--time-budget`) measurements.
#[derive(Debug, Serialize)]
struct AnytimeEntry {
    preset: String,
    deadline_secs: f64,
    elapsed_secs: f64,
    truncated: bool,
    stats: SearchStats,
    best_parallel: Option<String>,
    best_plan: Option<ParallelPlan>,
}

/// The `--time-budget` / `--inject-smoke` output document.
#[derive(Debug, Serialize)]
struct AnytimeReport {
    benchmark: String,
    presets: Vec<AnytimeEntry>,
}

fn presets_for(which: &str) -> (Vec<SearchPreset>, Vec<MultiWaferSearchPreset>) {
    let single = search_presets();
    let multi = multi_wafer_search_presets();
    if which == "all" {
        return (single, multi);
    }
    let single: Vec<SearchPreset> = single.into_iter().filter(|p| p.name == which).collect();
    let multi: Vec<MultiWaferSearchPreset> =
        multi.into_iter().filter(|p| p.name == which).collect();
    if single.is_empty() && multi.is_empty() {
        eprintln!("unknown preset `{which}` (small|medium|large|multiwafer|all)");
        std::process::exit(2);
    }
    (single, multi)
}

/// The GA-free search session of a single-wafer preset.
fn single_session(preset: &SearchPreset) -> ExplorerBuilder {
    Explorer::builder()
        .job(TrainingJob::standard(preset.model.clone()))
        .wafer(preset.wafer.clone())
        .strategies(preset.strategies.clone())
        .no_ga()
}

/// The GA-free search session of a multi-wafer preset, with the
/// node-level Alg. 3 pass when `placed`.
fn multi_session(preset: &MultiWaferSearchPreset, placed: bool) -> ExplorerBuilder {
    let b = Explorer::builder()
        .job(TrainingJob::standard(preset.model.clone()))
        .multi_wafer(preset.node.clone())
        .strategies(preset.strategies.clone())
        .plans(preset.plans)
        .no_ga();
    if placed {
        b.node_placement()
    } else {
        b
    }
}

/// Build `session` and time one run of it.
fn timed_run(session: ExplorerBuilder) -> (ExplorationReport, f64) {
    let explorer = session.build().expect("valid benchmark configuration");
    let t0 = Instant::now();
    let report = explorer.run();
    (report, t0.elapsed().as_secs_f64())
}

/// One fully measured preset, ready to be checked and recorded.
struct Measured {
    preset: String,
    model: String,
    wafer: String,
    pruned_report: ExplorationReport,
    pruned_secs: f64,
    exhaustive_report: ExplorationReport,
    exhaustive_secs: f64,
    /// Read the multi-wafer leg of the reports instead of the
    /// single-wafer one.
    multi: bool,
}

/// Check the winners agree and the CLI contracts hold, print the row,
/// and append the JSON entry. Returns `true` when a contract failed.
fn record(
    m: Measured,
    require_pruning: bool,
    min_speedup: Option<f64>,
    entries: &mut Vec<BenchEntry>,
) -> bool {
    let winner = |r: &ExplorationReport| -> Option<(ParallelPlan, f64)> {
        if m.multi {
            r.multi_wafer.first().and_then(|rec| {
                rec.best
                    .as_ref()
                    .map(|b| (b.plan.clone(), b.iteration.as_secs()))
            })
        } else {
            r.best().ok().and_then(|rec| {
                rec.best
                    .as_ref()
                    .map(|b| (b.plan.clone(), b.report.iteration.as_secs()))
            })
        }
    };
    let mut failed = false;
    let (pw, ew) = (winner(&m.pruned_report), winner(&m.exhaustive_report));
    if pw != ew {
        eprintln!(
            "[{}] PRUNING BUG: pruned winner {pw:?} != exhaustive winner {ew:?}",
            m.preset
        );
        failed = true;
    }
    let (stats, exhaustive_stats) = if m.multi {
        (
            m.pruned_report.multi_wafer_search_stats(),
            m.exhaustive_report.multi_wafer_search_stats(),
        )
    } else {
        (
            m.pruned_report.search_stats(),
            m.exhaustive_report.search_stats(),
        )
    };
    let speedup = m.exhaustive_secs / m.pruned_secs.max(1e-12);
    println!(
        "[{:10}] {:12} pruned+parallel {:8.3}s  sequential+no-prune {:8.3}s  speedup {:5.2}x  \
         visited {} pruned {} evaluated {}",
        m.preset,
        m.model,
        m.pruned_secs,
        m.exhaustive_secs,
        speedup,
        stats.visited,
        stats.pruned,
        stats.evaluated,
    );
    if require_pruning && stats.pruned == 0 {
        eprintln!("[{}] expected pruned > 0, got {:?}", m.preset, stats);
        failed = true;
    }
    if let Some(min) = min_speedup {
        if speedup < min {
            eprintln!("[{}] speedup {speedup:.2}x below required {min}x", m.preset);
            failed = true;
        }
    }
    entries.push(BenchEntry {
        preset: m.preset,
        model: m.model,
        wafer: m.wafer,
        threads: rayon::current_num_threads(),
        pruned_parallel_secs: m.pruned_secs,
        sequential_noprune_secs: m.exhaustive_secs,
        speedup,
        stats,
        exhaustive_stats,
        best_parallel: pw.as_ref().map(|(p, _)| p.to_string()),
        best_plan: pw.as_ref().map(|(p, _)| p.clone()),
        best_iteration_secs: pw.map(|(_, t)| t),
    });
    failed
}

fn main() {
    let mut preset_arg = "all".to_string();
    let mut output = "BENCH_search.json".to_string();
    let mut require_pruning = false;
    let mut no_node_placement = false;
    let mut min_speedup: Option<f64> = None;
    let mut time_budget: Option<f64> = None;
    let mut inject_smoke = false;
    let mut thread_counts: Vec<usize> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--preset" => preset_arg = args.next().expect("--preset needs a value"),
            "--output" => output = args.next().expect("--output needs a value"),
            "--require-pruning" => require_pruning = true,
            "--no-node-placement" => no_node_placement = true,
            "--inject-smoke" => inject_smoke = true,
            "--time-budget" => {
                time_budget = Some(
                    args.next()
                        .expect("--time-budget needs a value")
                        .parse()
                        .expect("--time-budget must be seconds"),
                )
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
                // One sweep per comma-separated pool size; the vendored
                // rayon honors RAYON_NUM_THREADS at call time.
                thread_counts = args
                    .next()
                    .expect("--threads needs a value")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads must be numbers"))
                    .collect();
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    if inject_smoke {
        if run_inject_smoke(&output) {
            std::process::exit(1);
        }
        return;
    }
    if let Some(secs) = time_budget {
        if run_budgeted(&preset_arg, secs, no_node_placement, &output) {
            std::process::exit(1);
        }
        return;
    }

    if thread_counts.is_empty() {
        thread_counts.push(rayon::current_num_threads());
    }

    let mut entries = Vec::new();
    let mut failed = false;
    for &t in &thread_counts {
        std::env::set_var("RAYON_NUM_THREADS", t.to_string());
        failed |= run_sweep(
            &preset_arg,
            require_pruning,
            no_node_placement,
            min_speedup,
            &mut entries,
        );
    }

    // The determinism contract, measured: a preset's winning plan must
    // not depend on the pool size it was searched with.
    for e in &entries {
        if let Some(first) = entries.iter().find(|o| o.preset == e.preset) {
            if first.best_plan != e.best_plan {
                eprintln!(
                    "DIVERGENT WINNER for `{}`: {:?} (threads={}) vs {:?} (threads={})",
                    e.preset, first.best_parallel, first.threads, e.best_parallel, e.threads
                );
                failed = true;
            }
        }
    }

    let report = BenchReport {
        benchmark: "explore_impl: pruned+parallel vs sequential exhaustive".to_string(),
        thread_counts,
        presets: entries,
    };
    let json = serde::json::to_text(&report.to_value());
    std::fs::write(&output, json + "\n").expect("write benchmark report");
    println!("wrote {output}");
    if failed {
        std::process::exit(1);
    }
}

/// One full pass over the selected presets at the current pool size.
fn run_sweep(
    preset_arg: &str,
    require_pruning: bool,
    no_node_placement: bool,
    min_speedup: Option<f64>,
    entries: &mut Vec<BenchEntry>,
) -> bool {
    let mut failed = false;
    let (single, multi) = presets_for(preset_arg);
    for preset in single {
        let (pruned_report, pruned_secs) = timed_run(single_session(&preset));
        let (exhaustive_report, exhaustive_secs) =
            timed_run(single_session(&preset).sequential().no_prune());
        failed |= record(
            Measured {
                preset: preset.name.to_string(),
                model: preset.model.name.clone(),
                wafer: preset.wafer.name.clone(),
                pruned_report,
                pruned_secs,
                exhaustive_report,
                exhaustive_secs,
                multi: false,
            },
            require_pruning,
            min_speedup,
            entries,
        );
    }
    for preset in multi {
        let placed = preset.node_placement && !no_node_placement;
        let (pruned_report, pruned_secs) = timed_run(multi_session(&preset, placed));
        let (exhaustive_report, exhaustive_secs) =
            timed_run(multi_session(&preset, placed).sequential().no_prune());
        failed |= record(
            Measured {
                preset: preset.name.to_string(),
                model: preset.model.name.clone(),
                wafer: format!("{}x {}", preset.node.wafers, preset.node.wafer.name),
                pruned_report,
                pruned_secs,
                exhaustive_report,
                exhaustive_secs,
                multi: true,
            },
            require_pruning,
            min_speedup,
            entries,
        );
    }

    failed
}

/// Validate the anytime contract on one budgeted report and append its
/// JSON row. Returns `true` when the contract failed.
fn check_anytime(
    name: &str,
    multi: bool,
    report: &ExplorationReport,
    deadline_secs: f64,
    elapsed_secs: f64,
    rows: &mut Vec<AnytimeEntry>,
) -> bool {
    let mut failed = false;
    let stats = if multi {
        report.multi_wafer_search_stats()
    } else {
        report.search_stats()
    };
    if stats.visited != stats.pruned + stats.evaluated + stats.skipped {
        eprintln!("[{name}] DISHONEST COUNTERS: {stats:?}");
        failed = true;
    }
    match ExplorationReport::from_json(&report.to_json()) {
        Ok(round) if &round == report => {}
        other => {
            eprintln!(
                "[{name}] best-so-far report does not round-trip through JSON: {:?}",
                other.err()
            );
            failed = true;
        }
    }
    let best = if multi {
        report
            .multi_wafer
            .first()
            .and_then(|r| r.best.as_ref().map(|b| b.plan.clone()))
    } else {
        report
            .best()
            .ok()
            .and_then(|r| r.best.as_ref().map(|b| b.plan.clone()))
    };
    println!(
        "[{name:10}] deadline {deadline_secs:6.3}s  elapsed {elapsed_secs:6.3}s  truncated {}  \
         visited {} evaluated {} skipped {}  best {}",
        report.truncated(),
        stats.visited,
        stats.evaluated,
        stats.skipped,
        best.as_ref().map_or_else(|| "-".into(), |p| p.to_string()),
    );
    rows.push(AnytimeEntry {
        preset: name.to_string(),
        deadline_secs,
        elapsed_secs,
        truncated: report.truncated(),
        stats,
        best_parallel: best.as_ref().map(|p| p.to_string()),
        best_plan: best,
    });
    failed
}

/// `--time-budget SECS`: one budgeted pass per preset (see module docs
/// for the contract this mode checks).
fn run_budgeted(preset_arg: &str, secs: f64, no_node_placement: bool, output: &str) -> bool {
    let mut failed = false;
    let mut rows = Vec::new();
    let (single, multi) = presets_for(preset_arg);
    let budget = SearchBudget::none().deadline(secs);
    for preset in single {
        let (report, elapsed) = timed_run(single_session(&preset).budget(budget));
        failed |= check_anytime(preset.name, false, &report, secs, elapsed, &mut rows);
    }
    for preset in multi {
        let placed = preset.node_placement && !no_node_placement;
        let (report, elapsed) = timed_run(multi_session(&preset, placed).budget(budget));
        failed |= check_anytime(preset.name, true, &report, secs, elapsed, &mut rows);
    }
    write_anytime(output, "anytime search under a wall-clock budget", rows);
    failed
}

/// Seeded `wsc-inject` panics are expected noise in the smoke run; keep
/// the default hook for anything else.
fn install_quiet_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if !msg.contains("wsc-inject") {
            default(info);
        }
    }));
}

/// `--inject-smoke`: the CI resilience smoke.
///
/// Leg 1 runs the small preset under a seeded injection storm (panics,
/// delays, cache corruption): the run must return, the winner must not
/// be a failed candidate, and the report must round-trip through JSON.
/// Leg 2 runs the multi-wafer preset under a 100ms deadline: a
/// truncated run must still emit valid best-so-far JSON with honest
/// counters.
fn run_inject_smoke(output: &str) -> bool {
    install_quiet_hook();
    let mut failed = false;
    let mut rows = Vec::new();

    let storm = Injection::seeded(0xC0FFEE)
        .panics(0.25)
        .delays(0.10, 200)
        .corruption(0.25);
    for preset in search_presets().iter().filter(|p| p.name == "small") {
        let (report, elapsed) = timed_run(single_session(preset).inject(storm));
        let incidents = report.incidents().len();
        if let Some(best) = report.best().ok().and_then(|r| r.best.as_ref()) {
            if report.incidents().iter().any(|f| f.plan == best.plan) {
                eprintln!("[inject] FAILED CANDIDATE CROWNED: {}", best.plan);
                failed = true;
            }
        }
        println!("[inject    ] {incidents} isolated incidents under the storm");
        failed |= check_anytime("inject", false, &report, 0.0, elapsed, &mut rows);
    }

    for preset in multi_wafer_search_presets().iter().take(1) {
        let budget = SearchBudget::none().deadline(0.1);
        let (report, elapsed) = timed_run(multi_session(preset, false).budget(budget));
        failed |= check_anytime(preset.name, true, &report, 0.1, elapsed, &mut rows);
    }

    write_anytime(
        output,
        "resilience smoke: injection storm + 100ms deadline",
        rows,
    );
    failed
}

fn write_anytime(output: &str, benchmark: &str, rows: Vec<AnytimeEntry>) {
    let report = AnytimeReport {
        benchmark: benchmark.to_string(),
        presets: rows,
    };
    let json = serde::json::to_text(&report.to_value());
    std::fs::write(output, json + "\n").expect("write benchmark report");
    println!("wrote {output}");
}
