//! Per-call costs of each layer's public functions, replayed on the
//! inputs of the workload's winner: each function is called once cold
//! and then repeatedly warm. These are per-call costs on one set of
//! inputs, not the layer's self time inside the search.

use std::collections::BTreeMap;
use std::hint::black_box;

use watos::dram_alloc::{allocate, allocate_node};
use watos::ga;
use watos::placement::{self, choose_tile, optimize_node, PairDemand};
use watos::scheduler::{evaluate_scheduled_cached, schedule_plan_cached, SchedulerOptions};
use watos::stage::{boundary_bytes, build_layer_data};
use watos::{
    ensemble_effective_secs, evaluate_multi_wafer_plan_cached, evaluate_multi_wafer_plan_placed,
    ExplorationReport, NodeCostModel, ParallelPlan, ProfileCache, RobustObjective,
};
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{all_reduce_time, CollectiveAlgo, GroupShape};
use wsc_mesh::multiwafer::MultiWaferFabric;
use wsc_mesh::topology::Mesh2D;
use wsc_pipeline::gcmr::{gcmr, GcmrPlan};
use wsc_pipeline::recompute::{overflow_and_spare, StageRecomputeInput};
use wsc_serve::{simulate, PhaseCost};
use wsc_workload::training::TrainingJob;

use crate::trace::{Clock, Spans};
use crate::workloads::{serve_winner, winner, Session, Winner};

/// Upper bound on the warm repetitions of one function, in seconds.
const WARM_BUDGET_S: f64 = 0.2;

/// Times calls and records them as spans under one replay root.
struct Timer<'a> {
    clock: Clock,
    spans: &'a mut Spans,
    root: usize,
    metrics: BTreeMap<&'static str, f64>,
}

impl Timer<'_> {
    /// Time `f` once cold, then warm in batches long enough to resolve
    /// sub-microsecond calls; record the warm median in microseconds per
    /// call under `metric`.
    fn calls<R>(&mut self, metric: &'static str, mut f: impl FnMut() -> R) -> f64 {
        let start = self.clock.now();
        black_box(f());
        let cold = (start, self.clock.now());
        let mut reps = 1usize;
        let mut per_call = Vec::new();
        let warm_start = self.clock.now();
        while per_call.len() < 7 && self.clock.now() - warm_start < WARM_BUDGET_S {
            let t0 = self.clock.now();
            for _ in 0..reps {
                black_box(f());
            }
            let dt = self.clock.now() - t0;
            if dt < 1e-3 && reps < 1 << 20 {
                reps *= 2;
                continue;
            }
            per_call.push(dt / reps as f64);
        }
        if per_call.is_empty() {
            // The budget ran out while calibrating: one warm call.
            let t0 = self.clock.now();
            black_box(f());
            per_call.push(self.clock.now() - t0);
        }
        self.record(metric, cold, (warm_start, self.clock.now()), &mut per_call)
    }

    /// Like [`Self::calls`] for a call that needs fresh, untimed state
    /// each time (a cache miss on a new cache).
    fn fresh<S, R>(
        &mut self,
        metric: &'static str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> f64 {
        let mut one = |clock: Clock| {
            let state = setup();
            let t0 = clock.now();
            black_box(f(state));
            (t0, clock.now())
        };
        let cold = one(self.clock);
        let warm_start = self.clock.now();
        let mut per_call = Vec::new();
        while per_call.len() < 7
            && (per_call.is_empty() || self.clock.now() - warm_start < WARM_BUDGET_S)
        {
            let (a, b) = one(self.clock);
            per_call.push(b - a);
        }
        self.record(metric, cold, (warm_start, self.clock.now()), &mut per_call)
    }

    fn record(
        &mut self,
        metric: &'static str,
        cold: (f64, f64),
        warm: (f64, f64),
        per_call: &mut [f64],
    ) -> f64 {
        let name = metric.trim_end_matches("_us");
        self.spans
            .push(format!("{name}.cold"), cold, Some(self.root), 0);
        self.spans
            .push(format!("{name}.warm"), warm, Some(self.root), 0);
        per_call.sort_by(f64::total_cmp);
        let us = per_call[per_call.len() / 2] * 1e6;
        self.metrics.insert(metric, us);
        us
    }

    fn set(&mut self, metric: &'static str, value: f64) {
        self.metrics.insert(metric, value);
    }
}

/// GCMR's quanta per die for a pipeline of `pp` stages, as the
/// schedulers choose it.
fn quanta(pp: usize) -> usize {
    (160 / pp).clamp(3, 16)
}

fn pair_demands(plan: &GcmrPlan) -> Vec<PairDemand> {
    plan.mem_pairs
        .iter()
        .map(|p| PairDemand {
            sender: p.sender,
            helper: p.helper,
            volume: p.bytes.as_f64(),
        })
        .collect()
}

/// Replay every layer the workload's winner exercises. Metrics of
/// layers the workload does not reach are absent.
pub fn replay(
    session: &Session,
    report: &ExplorationReport,
    clock: Clock,
    spans: &mut Spans,
    pool: usize,
) -> BTreeMap<&'static str, f64> {
    let root_start = clock.now();
    let root = spans.push("replay", (root_start, root_start), None, 0);
    let mut t = Timer {
        clock,
        spans,
        root,
        metrics: BTreeMap::new(),
    };
    let job = &session.job;
    let seed = session.seed;
    match winner(session.workload, report) {
        Some(Winner::Single(rec, cfg)) => {
            let wafer = &rec.wafer;
            let plan = &cfg.plan;
            let n_mb = job.microbatches(cfg.parallel.dp);
            common(&mut t, session, wafer, plan, n_mb, cfg.collective, pool);
            let cache = ProfileCache::new();
            let opts = session.explorer.options().clone();
            // The search schedules every candidate without the GA and
            // refines only its winner (timed as `ga.refine_us`).
            let inner = SchedulerOptions {
                ga: None,
                ..opts.clone()
            };
            t.calls("scheduler.schedule_us", || {
                schedule_plan_cached(wafer, job, plan, &inner, None, &cache)
            });
            t.calls("evaluator.evaluate_us", || {
                evaluate_scheduled_cached(wafer, job, cfg, None, true, &cache)
            });

            let stages = cache.stage_profiles(wafer, job, plan, n_mb);
            let inputs: Vec<StageRecomputeInput> =
                stages.iter().map(|s| s.as_recompute_input()).collect();
            let cap = wafer.dram.capacity;
            let (overflow, spare) = overflow_and_spare(&inputs, &cfg.recompute, cap);
            t.calls("dram_alloc.allocate_us", || {
                allocate(&cfg.placement, &overflow, &spare)
            });
            let base = gcmr(&inputs, cap, quanta(plan.pp));
            let pairs = pair_demands(&base);
            let tile = cfg.placement.stages[0];
            let mesh = Mesh2D::new(wafer.nx, wafer.ny);
            let pp_volume = boundary_bytes(job, &plan.sharding_ctx(job)).as_f64();
            t.calls("placement.optimize_us", || {
                placement::optimize(&mesh, plan.pp, tile.w, tile.h, pp_volume, &pairs, seed)
            });
            if let Some(params) = &opts.ga {
                let base_plan = base.as_recompute_plan();
                let (overflow, spare) = overflow_and_spare(&inputs, &base_plan, cap);
                t.calls("ga.refine_us", || {
                    ga::refine(
                        &mesh,
                        &stages,
                        &base_plan,
                        &cfg.placement,
                        &overflow,
                        &spare,
                        pp_volume,
                        cap,
                        params,
                    )
                });
            }
            if let Some(ensemble) = &session.ensemble {
                let map = ensemble
                    .sample_maps(wafer.nx, wafer.ny)
                    .into_iter()
                    .next()
                    .expect("the fault ensemble has samples");
                t.calls("evaluator.faulted_us", || {
                    evaluate_scheduled_cached(wafer, job, cfg, Some(&map), true, &cache)
                });
                t.calls("goodput.ensemble_us", || {
                    ensemble_effective_secs(
                        wafer,
                        job,
                        cfg,
                        ensemble,
                        RobustObjective::Worst,
                        &cache,
                    )
                });
            }
            if let Some(audit) = &session.audit {
                let model = audit.model();
                t.calls("serve.derive_us", || {
                    PhaseCost::derive(wafer, job, cfg, &cache)
                });
                let cost = PhaseCost::derive(wafer, job, cfg, &cache)
                    .expect("the serving winner has a phase cost");
                let (sim, slo) = (model.sim_config(), model.slo());
                let us = t.calls("serve.simulate_us", || {
                    simulate(&cost, model.trace(), &sim, &slo)
                });
                let (prompt, output) = model.trace().total_tokens();
                t.set(
                    "serve.sim_ns_per_token",
                    us * 1e3 / (prompt + output) as f64,
                );
                if let Some(served) = serve_winner(model, wafer, job, cfg) {
                    t.set("serve.kv_peak_fraction", served.kv_peak_fraction);
                    t.set(
                        "serve.slo_met_ratio",
                        served.slo_met as f64 / served.requests.max(1) as f64,
                    );
                }
            }
        }
        Some(Winner::Multi(rec, best)) => {
            let node = &rec.node;
            let plan = &best.plan;
            let wafer = &node.wafer;
            let n_mb = job.microbatches(best.parallel.dp);
            common(
                &mut t,
                session,
                wafer,
                plan,
                n_mb,
                CollectiveAlgo::RingBi,
                pool,
            );
            let cache = ProfileCache::new();
            t.calls("evaluator.evaluate_us", || {
                evaluate_multi_wafer_plan_cached(node, job, plan, &cache)
            });
            t.calls("multiwafer.eval_placed_us", || {
                evaluate_multi_wafer_plan_placed(node, job, plan, &cache, seed)
            });

            // The inputs of the node-level Alg. 3 pass, derived as the
            // multi-wafer evaluator derives them.
            let (pp, span) = (plan.pp, plan.tp_span);
            let assignment = plan.stage_map.assignments(pp);
            let per_group = plan.stage_map.max_stages_per_wafer(pp);
            let (tw, th) = choose_tile(wafer.nx, wafer.ny, plan.tp / span, per_group)
                .expect("the winning plan has a tile");
            let stages = cache.stage_profiles(wafer, job, plan, n_mb);
            let inputs: Vec<StageRecomputeInput> =
                stages.iter().map(|s| s.as_recompute_input()).collect();
            let cap = wafer.dram.capacity;
            let base = gcmr(&inputs, cap, quanta(pp));
            let pairs = pair_demands(&base);
            let boundary = boundary_bytes(job, &plan.sharding_ctx(job));
            let fabric = MultiWaferFabric {
                wafers: node.wafers / span,
                wafer_mesh: Mesh2D::new(wafer.nx, wafer.ny),
                w2w_bw: node.w2w_bw,
                w2w_latency: node.w2w_latency,
            };
            let penalty =
                fabric.seam_hop_penalty(boundary, wafer.d2d_link_bw(), wafer.d2d_link_latency);
            let model = NodeCostModel::new(
                wafer.nx,
                wafer.ny,
                tw,
                th,
                node.wafers / span,
                penalty,
                boundary.as_f64(),
            )
            .expect("the winning plan has a node slot grid");
            t.calls("placement.optimize_us", || {
                optimize_node(&model, &assignment, &pairs, seed)
            });
            let slots = optimize_node(&model, &assignment, &pairs, seed)
                .expect("the winning plan places")
                .slots;
            let (overflow, spare) = overflow_and_spare(&inputs, &base.as_recompute_plan(), cap);
            t.calls("dram_alloc.allocate_us", || {
                allocate_node(&model, &slots, &overflow, &spare)
            });
        }
        None => {}
    }
    let Timer { spans, metrics, .. } = t;
    spans.set_end(root, clock.now());
    metrics
}

/// The layers every winner reaches: layer simulation, stage-profile
/// cache, TP collective and GCMR.
fn common(
    t: &mut Timer<'_>,
    session: &Session,
    wafer: &WaferConfig,
    plan: &ParallelPlan,
    n_mb: usize,
    collective: CollectiveAlgo,
    pool: usize,
) {
    let job = &session.job;
    let ctx = plan.sharding_ctx(job);
    t.calls("sim.layer_data_us", || build_layer_data(wafer, job, &ctx));
    t.fresh(
        "cache.stage_build_us",
        || {
            let cache = ProfileCache::new();
            cache.layer_data(wafer, job, plan);
            cache
        },
        |cache| cache.stage_profiles(wafer, job, plan, n_mb),
    );
    let cache = ProfileCache::new();
    let stages = cache.stage_profiles(wafer, job, plan, n_mb);
    let hit = t.calls("cache.stage_hit_us", || {
        cache.stage_profiles(wafer, job, plan, n_mb)
    });
    t.set(
        "cache.hit_contention",
        hit_contention(&cache, wafer, job, plan, n_mb, pool) / hit.max(1e-9),
    );

    let first = &stages[0];
    let volume = first.fwd_comm_bytes / first.fwd_collectives.max(1) as u64;
    let tile = choose_tile(
        wafer.nx,
        wafer.ny,
        plan.tp / plan.tp_span,
        plan.stage_map.max_stages_per_wafer(plan.pp),
    )
    .map_or(GroupShape::new(1, 1), |(w, h)| GroupShape::new(w, h));
    t.calls("mesh.all_reduce_us", || {
        all_reduce_time(
            collective,
            tile,
            volume,
            wafer.d2d_link_bw(),
            wafer.d2d_link_latency,
        )
    });
    let inputs: Vec<StageRecomputeInput> = stages.iter().map(|s| s.as_recompute_input()).collect();
    t.calls("pipeline.gcmr_us", || {
        gcmr(&inputs, wafer.dram.capacity, quanta(plan.pp))
    });
}

/// Microseconds per stage-profile hit when `threads` threads hit the
/// same cache at once (the median over a few rounds).
fn hit_contention(
    cache: &ProfileCache,
    wafer: &WaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    n_mb: usize,
    threads: usize,
) -> f64 {
    const HITS: usize = 20_000;
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let clock = Clock::start();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        for _ in 0..HITS {
                            black_box(cache.stage_profiles(wafer, job, plan, n_mb));
                        }
                    });
                }
            });
            clock.now() / HITS as f64 * 1e6
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}
