//! The traced run: per-layer metrics and the span file.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use watos::CheckpointSink;

use crate::audit::AuditReport;
use crate::trace::{Spans, WaveTimer};
use crate::workloads::{search_stats, setup};
use crate::{median, p50, replay, Args, Env, Outcome, Run};

/// Every per-layer metric `BENCHMARK.json` lists, with its unit, in
/// order. A workload reports 0 for the layers it does not reach.
const PER_LAYER: [(&str, &str); 38] = [
    ("wave.visited", "count"),
    ("wave.pruned", "count"),
    ("wave.evaluated", "count"),
    ("wave.prune_ratio", "ratio"),
    ("wave.waves", "count"),
    ("wave.width_mean", "count"),
    ("wave.wave_s_p50", "s"),
    ("wave.par_eff", "ratio"),
    ("serving.bound_calls", "count"),
    ("serving.bound_us", "us"),
    ("serving.score_calls", "count"),
    ("serving.score_us", "us"),
    ("serving.score_share", "ratio"),
    ("serving.bound_gap_p50", "ratio"),
    ("serving.bound_violations", "count"),
    ("cache.stage_build_us", "us"),
    ("cache.stage_hit_us", "us"),
    ("cache.hit_contention", "ratio"),
    ("cache.stage_entries", "count"),
    ("cache.layer_entries", "count"),
    ("sim.layer_data_us", "us"),
    ("mesh.all_reduce_us", "us"),
    ("pipeline.gcmr_us", "us"),
    ("scheduler.schedule_us", "us"),
    ("scheduler.share_est", "ratio"),
    ("evaluator.evaluate_us", "us"),
    ("evaluator.faulted_us", "us"),
    ("goodput.ensemble_us", "us"),
    ("dram_alloc.allocate_us", "us"),
    ("placement.optimize_us", "us"),
    ("ga.refine_us", "us"),
    ("multiwafer.eval_placed_us", "us"),
    ("serve.derive_us", "us"),
    ("serve.simulate_us", "us"),
    ("serve.sim_ns_per_token", "ns/token"),
    ("serve.kv_peak_fraction", "ratio"),
    ("serve.slo_met_ratio", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The traced run. After one warm-up search it runs rounds of three
/// searches: untraced at the full pool, traced at the full pool, and
/// untraced at one thread, so drift hits all three alike. Then it
/// replays the winner's layers.
pub fn run(args: &Args, pool: usize, env: &Env) -> Outcome {
    let mut run = Run::new();
    let clock = run.clock;
    let plain = setup(args.workload, args.seed, None, None);
    let timer = Arc::new(WaveTimer::new(clock));
    let sink: Arc<dyn CheckpointSink> = timer.clone();
    let session = setup(args.workload, args.seed, Some(sink), Some(clock));

    let (_, report) = run.search_report(&plain);
    let (mut full, mut one, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let rounds_until = 0.8 * args.seconds;
    while full.len() < 2 || clock.now() < rounds_until {
        full.push(run.search(&plain));
        timer.begin(clock.now());
        let searched = run.search(&session);
        traced.push((searched, timer.begin(clock.now())));
        std::env::set_var("RAYON_NUM_THREADS", "1");
        one.push(run.search(&plain));
        std::env::set_var("RAYON_NUM_THREADS", pool.to_string());
    }

    let mut spans = Spans::default();
    let mut search_id = 0u64;
    for (name, list) in [("search", &full), ("search.1thread", &one)] {
        for s in list {
            search_id += 1;
            spans.push(name, (s.start, s.end), None, search_id);
        }
    }
    let mut waves: Vec<(f64, f64, usize)> = Vec::new();
    let mut wave_counts = Vec::new();
    for (s, log) in &traced {
        search_id += 1;
        let parent = spans.push("search.traced", (s.start, s.end), None, search_id);
        for &(a, b, w) in &log.waves {
            spans.push("wave", (a, b), Some(parent), search_id);
            waves.push((a, b, w));
        }
        for &(a, b) in &log.tails {
            spans.push("leg_tail", (a, b), Some(parent), search_id);
        }
        for &(name, a, b) in &s.audit.spans {
            spans.push(name, (a, b), Some(parent), search_id);
        }
        wave_counts.push(log.waves.len() as f64);
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Search counters are the same for every search of the run.
    let stats = search_stats(&report);
    let full_p50 = p50(&full);
    let one_p50 = p50(&one);
    let traced_p50 = p50(traced.iter().map(|t| &t.0));
    m.insert("wave.visited", stats.visited as f64);
    m.insert("wave.pruned", stats.pruned as f64);
    m.insert("wave.evaluated", stats.evaluated as f64);
    m.insert(
        "wave.prune_ratio",
        stats.pruned as f64 / stats.visited.max(1) as f64,
    );
    m.insert("wave.waves", median(&wave_counts));
    if !waves.is_empty() {
        let widths: f64 = waves.iter().map(|w| w.2 as f64).sum();
        m.insert("wave.width_mean", widths / waves.len() as f64);
        let secs: Vec<f64> = waves.iter().map(|w| w.1 - w.0).collect();
        m.insert("wave.wave_s_p50", median(&secs));
    }
    m.insert("wave.par_eff", one_p50 / (pool as f64 * full_p50));
    m.insert("trace.overhead", traced_p50 / full_p50 - 1.0);

    let audits: Vec<&AuditReport> = traced.iter().map(|t| &t.0.audit).collect();
    if let Some(last) = audits.last().filter(|a| a.bound_calls > 0) {
        let sum = |f: fn(&AuditReport) -> f64| audits.iter().map(|a| f(a)).sum::<f64>();
        let traced_s: f64 = traced.iter().map(|t| t.0.secs()).sum();
        m.insert("serving.bound_calls", last.bound_calls as f64);
        m.insert("serving.score_calls", last.score_calls as f64);
        m.insert(
            "serving.bound_us",
            sum(|a| a.bound_s) / sum(|a| a.bound_calls as f64) * 1e6,
        );
        m.insert(
            "serving.score_us",
            sum(|a| a.score_s) / sum(|a| a.score_calls as f64).max(1.0) * 1e6,
        );
        m.insert(
            "serving.score_share",
            sum(|a| a.score_s) / (traced_s * pool as f64),
        );
        if !last.gaps.is_empty() {
            m.insert("serving.bound_gap_p50", median(&last.gaps));
        }
        m.insert("serving.bound_violations", sum(|a| a.violations as f64));
        m.insert("cache.stage_entries", last.stage_entries as f64);
        m.insert("cache.layer_entries", last.layer_entries as f64);
    }

    m.extend(replay::replay(&plain, &report, clock, &mut spans, pool));
    if let Some(&schedule_us) = m.get("scheduler.schedule_us") {
        m.insert(
            "scheduler.share_est",
            stats.evaluated as f64 * schedule_us * 1e-6 / (full_p50 * pool as f64),
        );
    }

    let mut outcome = run.outcome;
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"pool\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        env.nproc,
        env.pool,
        env.rustc,
        env.commit
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl(&header)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => outcome
            .errors
            .push(format!("writing {}: {e}", path.display())),
    }
    for (name, self_s, count) in spans.self_time_by_name() {
        println!("self_time {name} {self_s:.6} s over {count} spans");
    }
    println!(
        "rounds {}: p50 untraced {full_p50:.4} s, traced {traced_p50:.4} s, one thread {one_p50:.4} s",
        full.len()
    );
    for (name, unit) in PER_LAYER {
        outcome.metric(name, m.get(name).copied().unwrap_or(0.0), unit);
    }
    outcome
}
