//! The early-pruning central scheduler (Alg. 1) and the downstream
//! scheduler orchestration of Fig. 9.
//!
//! For each feasible (TP, PP) pair and TP partition strategy, the central
//! scheduler: prunes candidates whose `modelP` cannot fit the aggregate
//! wafer memory (line 1–2); delegates checkpoint overflow to the GCMR
//! recomputation scheduler (line 5–6); invokes the memory scheduler
//! (location-aware placement + Alg. 3 DRAM allocation); optionally refines
//! with the GA global optimizer; and evaluates the result, keeping the
//! best configuration (line 7–8).
//!
//! One driver, `search_leg`, runs this sweep for a single wafer — a
//! one-wafer node — and for a §VI-F multi-wafer node
//! ([`crate::multiwafer`]); `plan_geometry` derives what a plan means
//! on either, and its line 1–2 memory precheck rejects a point before
//! any profile is built. On the shared bounded wave engine
//! (`crate::wave`) the points are sorted by an analytic lower bound
//! (compute plus ideal collective time, from cached stage profiles) and
//! evaluated in deterministic ramped waves, each candidate carrying the
//! score it competes on, and the incumbent best prunes the bound-ordered
//! tail. Winner and [`SearchStats`] are byte-identical across thread
//! counts and vs the exhaustive sweep.

use crate::cache::ProfileCache;
use crate::costmodel::PlacementCostModel;
use crate::dram_alloc::{allocate, DramGrant};
use crate::evaluator::{self, evaluate, EvalInput, EvalOptions, PerfReport};
use crate::ga::{self, GaParams};
use crate::goodput::{ensemble_effective_secs_within, FaultAwareSpec};
use crate::placement::{self, PairDemand, Placement};
use crate::serving::ServingModel;
use crate::stage::{boundary_bytes, StageProfile};
use crate::wave::{bounded_search, Outcome, SessionCtx, WaveResult, WorkItem};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use wsc_arch::fault::FaultMap;
use wsc_arch::units::Bytes;
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{CollectiveAlgo, GroupShape};
use wsc_mesh::topology::Mesh2D;
use wsc_pipeline::gcmr::{gcmr, GcmrPlan};
use wsc_pipeline::recompute::{
    naive_recompute, overflow_and_spare, RecomputePlan, StageRecomputeInput,
};
use wsc_workload::graph::ShardingCtx;
use wsc_workload::memory::model_p_total;
use wsc_workload::parallel::{ParallelPlan, ParallelSpec, TpSplitStrategy};
use wsc_workload::training::TrainingJob;

/// Which recomputation scheduler to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecomputeMode {
    /// No recomputation at all (OOM configs are simply infeasible).
    None,
    /// Per-stage naive recomputation (Fig. 8a baseline).
    Naive,
    /// Globally coordinated memory-efficient recomputation (Alg. 2).
    Gcmr,
}

/// Which regions of the [`ParallelPlan`] space a search may emit, beyond
/// the baseline intra-wafer-TP, balanced-stage-map plans. Both axes are
/// off by default: the default search space is exactly the seed space,
/// and each axis only ever *adds* candidate plans, so enabling one can
/// never lose a winner (the equivalence proptests run with both on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanFilter {
    /// Emit cross-wafer-TP plans on multi-wafer nodes: TP groups with
    /// `tp_span > 1` place `tp / tp_span` dies on each spanned wafer and
    /// pay the W2W seam in every TP collective, in exchange for TP
    /// degrees (and per-die memory relief) no single wafer can host.
    /// Ignored by the single-wafer search (a wafer has no seam to span).
    pub cross_wafer_tp: bool,
    /// Emit uneven stage→wafer maps on multi-wafer nodes: every `pp`
    /// (not just wafer multiples) with the balanced map, plus the
    /// deterministic
    /// [`StageMap::remainder_shifted`](wsc_workload::parallel::StageMap::remainder_shifted)
    /// family of explicit maps when `pp` does not divide evenly. Ignored
    /// by the single-wafer search (one wafer has exactly one map).
    pub uneven_stage_maps: bool,
}

impl PlanFilter {
    /// Both axes enabled — the largest plan space the searches know.
    pub fn all() -> Self {
        PlanFilter {
            cross_wafer_tp: true,
            uneven_stage_maps: true,
        }
    }
}

/// Scheduler knobs (the ablation switches of Fig. 18 map directly here).
///
/// The same option set drives both legs of the one search driver behind
/// [`crate::Explorer`]. The search-shaping knobs (`strategies`,
/// `tp_candidates`, `allow_odd_tp`, `prune`, `sequential`) shape every
/// leg's sweep. The single-wafer leg honors every other knob too, except
/// `plans` and `node_placement`, which only a multi-wafer node has a
/// seam for. The node leg honors `plans` and `node_placement` (and,
/// with it on, `seed`, which drives the node-level Alg. 3 hill climb)
/// but fixes its evaluator to ring collectives + GCMR, so
/// `collectives`, `recompute`, `memory_scheduler`, `ga` and `punish` do
/// not affect it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerOptions {
    /// TP partition strategies to explore (the set `S` of Alg. 1).
    ///
    /// Keep both [`TpSplitStrategy::Megatron`] and
    /// [`TpSplitStrategy::SequenceParallel`] (the default) for final
    /// quality; trim to one to halve the work-list for smoke tests and
    /// quick sweeps.
    pub strategies: Vec<TpSplitStrategy>,
    /// Collective algorithms to consider per TP shape. The scheduler
    /// picks the cheapest supported algorithm at each shape's typical
    /// per-op volume; list more than one only when comparing collective
    /// implementations (Fig. 13).
    pub collectives: Vec<CollectiveAlgo>,
    /// Allow odd TP degrees (expanded search space of Fig. 21). Off by
    /// default: odd degrees rarely win and inflate the work-list.
    pub allow_odd_tp: bool,
    /// Recomputation scheduler selection. [`RecomputeMode::Gcmr`]
    /// (Alg. 2, the default) for production searches;
    /// [`RecomputeMode::Naive`] / [`RecomputeMode::None`] exist for the
    /// Fig. 8/18 ablations.
    pub recompute: RecomputeMode,
    /// Enable the location-aware memory scheduler (§IV-C: optimized
    /// placement + Alg. 3 DRAM allocation). Disable only to reproduce
    /// the serpentine-placement baseline of the ablations.
    pub memory_scheduler: bool,
    /// GA global-optimizer parameters (§IV-D; `None` disables the GA).
    /// The GA refines the search winner once and never makes it worse,
    /// at the cost of a few hundred extra evaluations — disable for
    /// interactive exploration, enable for final numbers.
    pub ga: Option<GaParams>,
    /// Link-punishment factor for PP routing: how strongly the traffic
    /// assigner penalizes pipeline hops over contended links.
    pub punish: f64,
    /// Explicit TP candidates (`None` = automatic: 1 and every even
    /// degree up to 16 that embeds as a rectangle). Set to pin the sweep
    /// to specific degrees, e.g. `Some(vec![4])` when reproducing a
    /// fixed configuration. In the multi-wafer search these are the
    /// *per-wafer* degrees; cross-wafer plans multiply them by the span.
    pub tp_candidates: Option<Vec<usize>>,
    /// Which plan-space axes beyond the baseline the searches may emit
    /// (cross-wafer TP, uneven stage maps). See [`PlanFilter`]; builder:
    /// [`crate::ExplorerBuilder::plans`].
    pub plans: PlanFilter,
    /// Run the node-level Alg. 3 memory scheduler on every evaluated
    /// multi-wafer plan (§VI-F): seam-extended placement optimization
    /// within each wafer group plus Sender→Helper DRAM borrowing across
    /// the W2W boundary, kept per plan only when strictly faster than
    /// the baseline evaluation — so turning this on can only improve
    /// (or tie) the winner. Off by default: the knob-off sweep
    /// reproduces today's results bit-for-bit. Builder:
    /// [`crate::ExplorerBuilder::node_placement`]. Ignored by the
    /// single-wafer search (which has its own §IV-C memory scheduler).
    pub node_placement: bool,
    /// RNG seed for placement optimization and the GA. Reports are a
    /// pure function of this seed — rerunning with the same seed
    /// reproduces them byte-for-byte at any thread count.
    pub seed: u64,
    /// Enable the analytic lower-bound pruner: skip full scheduling of a
    /// `(tp, pp, strategy)` point whenever its compute-plus-ideal-
    /// collective bound already exceeds the incumbent best. The search
    /// result is identical with or without pruning (the bound is a true
    /// lower bound and ties are never pruned) and the pruned search is
    /// 20–100× faster on the committed presets, so leave it on; disable
    /// (builder: [`crate::ExplorerBuilder::no_prune`]) only to measure
    /// the exhaustive sweep or stress the equivalence tests.
    pub prune: bool,
    /// Force sequential evaluation of the search work-list (default: a
    /// rayon fan-out in bound-ordered ramped waves). Results and
    /// [`SearchStats`] are identical either way; enable (builder:
    /// [`crate::ExplorerBuilder::sequential`]) for single-threaded
    /// benchmarking baselines and determinism tests, or to keep a shared
    /// machine responsive.
    pub sequential: bool,
}

/// Default RNG seed for the scheduler's stochastic components.
pub const DEFAULT_SEED: u64 = 0x0005_eed0_a705;

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            strategies: vec![TpSplitStrategy::Megatron, TpSplitStrategy::SequenceParallel],
            collectives: vec![CollectiveAlgo::RingBi],
            allow_odd_tp: false,
            recompute: RecomputeMode::Gcmr,
            memory_scheduler: true,
            ga: Some(GaParams::default()),
            punish: 4.0,
            tp_candidates: None,
            plans: PlanFilter::default(),
            node_placement: false,
            seed: DEFAULT_SEED,
            prune: true,
            sequential: false,
        }
    }
}

pub use crate::wave::SearchStats;

/// One fully scheduled configuration plus its evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledConfig {
    /// Parallelism (resolved DP).
    pub parallel: ParallelSpec,
    /// The full parallel plan this schedule realizes (strategy, stage
    /// map, TP span; `dp` resolved to the scheduled value).
    pub plan: ParallelPlan,
    /// Chosen collective algorithm.
    pub collective: CollectiveAlgo,
    /// Stage placement.
    pub placement: Placement,
    /// Recomputation plan.
    pub recompute: RecomputePlan,
    /// Sender→Helper DRAM grants.
    pub grants: Vec<DramGrant>,
    /// Evaluation report.
    pub report: PerfReport,
}

/// Per-wafer TP degrees worth trying on `wafer`: explicit
/// `opts.tp_candidates` if set, else 1 plus every (even, unless
/// `allow_odd_tp`) degree up to 16 that embeds as a rectangle. Shared
/// with the multi-wafer search, where these are the degrees one wafer
/// hosts (cross-wafer plans multiply them by the TP span).
pub(crate) fn tp_candidates(wafer: &WaferConfig, opts: &SchedulerOptions) -> Vec<usize> {
    if let Some(c) = &opts.tp_candidates {
        return c.clone();
    }
    let dies = wafer.die_count();
    let mut out = vec![1usize];
    for tp in 2..=16usize {
        if tp > dies {
            break;
        }
        let even_ok = tp % 2 == 0 || opts.allow_odd_tp;
        if !even_ok {
            continue;
        }
        if GroupShape::best_rectangle(tp, wafer.nx, wafer.ny).is_some() {
            out.push(tp);
        }
    }
    out
}

/// The Alg. 1 line 1–2 aggregate-memory precheck: true when `modelP`
/// split over a `tp × pp` group cannot fit that group's aggregate DRAM
/// (per-die share vs per-die capacity). Called from exactly two places:
/// [`plan_geometry`], which every bound and evaluator of both legs runs
/// first, so a failing plan is rejected before any profile is built; and
/// [`search_leg`]'s early exit, which asks it once for the whole node.
pub(crate) fn memory_precheck_fails(
    wafer: &WaferConfig,
    job: &TrainingJob,
    tp: usize,
    pp: usize,
) -> bool {
    model_p_total(&job.model).as_f64() / (tp * pp) as f64 > wafer.dram.capacity.as_f64()
}

/// The derived geometry of one [`ParallelPlan`] on a node of `wafers`
/// identical wafers — a single wafer is `wafers = 1`: the resolved
/// stage → wafer-group assignment, per-wafer TP tile shape, data
/// parallelism, micro-batch count and sharding context. One function
/// computes it for both legs' evaluators and lower bounds, so no two of
/// them can disagree on what a plan means.
pub(crate) struct PlanGeometry {
    /// Stage → wafer-group index (`pp` entries).
    pub assignment: Vec<usize>,
    /// Wafers one TP group spans (`plan.tp_span`).
    pub span: usize,
    /// Per-wafer TP tile shape (`tp / span` dies).
    pub shape: GroupShape,
    /// Parallelism with `dp` resolved.
    pub parallel: ParallelSpec,
    /// Micro-batches per iteration at the resolved `dp`.
    pub n_mb: usize,
    /// Sharding context of the plan.
    pub ctx: ShardingCtx,
}

/// [`PlanGeometry`] of `plan` on `wafers` copies of `wafer`. `None` =
/// statically infeasible: a zero degree or `pp` above the layer count, a
/// `tp_span` that divides neither `tp` nor the wafer count (at one wafer
/// only span 1 passes), a stage map invalid for the node's wafer groups
/// (at one wafer only single-wafer-shaped maps pass), the Alg. 1 line
/// 1–2 aggregate-memory precheck (`modelP / (tp·pp)` must fit the
/// per-die DRAM — independent of `tp_span`, which only moves the same
/// dies across seams), no tile embedding, or more stages on one wafer
/// than it has tile slots. The precheck runs *before* any stage profile
/// is built, so a plan that fails it costs nothing in either sweep mode.
pub(crate) fn plan_geometry(
    wafer: &WaferConfig,
    wafers: usize,
    job: &TrainingJob,
    plan: &ParallelPlan,
) -> Option<PlanGeometry> {
    let (tp, pp, span) = (plan.tp, plan.pp, plan.tp_span);
    if tp == 0 || pp == 0 || span == 0 || pp > job.model.layers {
        return None;
    }
    // A TP group spans whole wafers; wafer groups partition the node.
    let wafers = wafers.max(1);
    if !tp.is_multiple_of(span) || !wafers.is_multiple_of(span) {
        return None;
    }
    let groups = wafers / span;
    if plan.stage_map.validate(pp, groups).is_err() {
        return None;
    }
    if memory_precheck_fails(wafer, job, tp, pp) {
        return None;
    }
    let max_per_group = plan.stage_map.max_stages_per_wafer(pp);
    // Each wafer of a group hosts `tp / span` dies of every TP group and
    // one tile slot per stage of the group.
    let (tw, th) = placement::choose_tile(wafer.nx, wafer.ny, tp / span, max_per_group)?;
    let slots_per_wafer = (wafer.nx / tw) * (wafer.ny / th);
    if max_per_group > slots_per_wafer {
        return None;
    }
    let mut dp =
        (slots_per_wafer / max_per_group).clamp(1, (job.global_batch / job.micro_batch).max(1));
    if plan.dp > 0 {
        // A pinned DP can only narrow what the node supports.
        dp = dp.min(plan.dp);
    }
    Some(PlanGeometry {
        assignment: plan.stage_map.assignments(pp),
        span,
        shape: GroupShape::new(tw, th),
        parallel: ParallelSpec::new(dp, tp, pp),
        n_mb: job.microbatches(dp),
        ctx: plan.sharding_ctx(job),
    })
}

/// The collective algorithm the scheduler uses for a point: cheapest
/// supported algorithm at the first stage's typical per-op volume.
/// Shared by [`schedule_plan_cached`] and the lower-bound pruner.
fn choose_collective(
    opts: &SchedulerOptions,
    wafer: &WaferConfig,
    shape: GroupShape,
    stages: &[StageProfile],
    cache: &ProfileCache,
) -> Option<CollectiveAlgo> {
    let typical_volume = stages
        .first()
        .map(|s| s.fwd_comm_bytes / s.fwd_collectives.max(1) as u64)
        .unwrap_or(Bytes::ZERO);
    pick_collective(opts, shape, typical_volume, wafer, cache)
}

fn pick_collective(
    opts: &SchedulerOptions,
    shape: GroupShape,
    volume: Bytes,
    wafer: &WaferConfig,
    cache: &ProfileCache,
) -> Option<CollectiveAlgo> {
    let mut best: Option<(CollectiveAlgo, f64)> = None;
    for &algo in &opts.collectives {
        if !algo.supports(shape) {
            continue;
        }
        let t = cache.all_reduce(
            algo,
            shape,
            volume,
            wafer.d2d_link_bw(),
            wafer.d2d_link_latency,
        );
        if best.as_ref().is_none_or(|(_, bt)| t.as_secs() < *bt) {
            best = Some((algo, t.as_secs()));
        }
    }
    best.map(|(a, _)| a)
}

/// Alg. 2 (GCMR) at the memory resolution both legs schedule with:
/// `160 / pp` quanta per die, clamped to `[3, 16]`, for the `pp` stages
/// of `inputs`. Its Mem_pairs reach Alg. 3 as
/// [`PairDemand::from`](crate::placement::PairDemand) demands.
pub(crate) fn gcmr_plan(inputs: &[StageRecomputeInput], capacity: Bytes) -> GcmrPlan {
    gcmr(inputs, capacity, (160 / inputs.len()).clamp(3, 16))
}

/// Schedule a fixed [`ParallelPlan`] on one wafer: run the downstream
/// schedulers and evaluate. This is the Alg. 1 loop body, also used
/// directly by the ablation and baseline experiments. Stage profiles and
/// collective-time lookups are memoized in `cache` and reused across
/// every plan it has seen for this `(wafer, job)` pair; a one-off call
/// passes `&ProfileCache::new()`.
pub fn schedule_plan_cached(
    wafer: &WaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    opts: &SchedulerOptions,
    faults: Option<&FaultMap>,
    cache: &ProfileCache,
) -> Option<ScheduledConfig> {
    let PlanGeometry {
        shape,
        parallel,
        n_mb,
        ctx,
        ..
    } = plan_geometry(wafer, 1, job, plan)?;
    let pp = plan.pp;
    let stages = cache.stage_profiles(wafer, job, plan, n_mb);
    let cap = wafer.dram.capacity;
    let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();

    // Recomputation scheduler.
    let (rplan, mem_pairs) = match opts.recompute {
        RecomputeMode::None => {
            let fits = inputs.iter().all(|i| i.full_memory() <= cap);
            let mut p = RecomputePlan::none(pp);
            p.feasible = fits;
            (p, Vec::new())
        }
        RecomputeMode::Naive => (naive_recompute(&inputs, cap), Vec::new()),
        RecomputeMode::Gcmr => {
            let g = gcmr_plan(&inputs, cap);
            let pairs = g.mem_pairs.clone();
            (g.as_recompute_plan(), pairs)
        }
    };
    if !rplan.feasible {
        return None;
    }

    // Memory scheduler: placement (+ fine-grained DRAM allocation).
    let pp_volume = boundary_bytes(job, &ctx).as_f64();
    let pair_demands: Vec<PairDemand> = mem_pairs.iter().map(PairDemand::from).collect();
    // One cost model per (tile shape, pp_volume) is shared through the
    // cache: the hill climb, the GA refinement, and every other search
    // point with this tile shape reuse its distance tables and memoized
    // path-link fragments. Built only when a consumer actually reads it:
    // the GA decodes against it, and the hill climb prices pairs on it —
    // with no pair demands the hill climb returns the serpentine seed
    // without touching Eq. 2, so the common fits-in-DRAM point skips the
    // O(slots²) table build entirely.
    let mesh = Mesh2D::new(wafer.nx, wafer.ny);
    let faulted = faults.is_some_and(|f| !f.is_empty());
    let cost_model = ((opts.memory_scheduler && (!pair_demands.is_empty() || faulted))
        || opts.ga.is_some())
    .then(|| match faults {
        // A degraded wafer gets a fresh fault-aware model (quality-
        // weighted distances, dead-die slots masked) and NEVER goes
        // through the cache: the cache key carries no fault state, so a
        // cached faulted model would poison every clean lookup of the
        // same tile shape (and vice versa).
        Some(f) if !f.is_empty() => Arc::new(PlacementCostModel::with_faults(
            mesh, shape.w, shape.h, pp_volume, f,
        )),
        _ => cache.cost_model(&mesh, shape.w, shape.h, pp_volume),
    });
    let placement = if opts.memory_scheduler {
        match &cost_model {
            Some(model) => placement::optimize_with(model, pp, &pair_demands, opts.seed)?,
            // No pair demands: `optimize_with` would return serpentine
            // unchanged (the boustrophedon layout already minimizes the
            // pipeline term).
            None => placement::serpentine(wafer.nx, wafer.ny, pp, shape.w, shape.h)?,
        }
    } else {
        placement::serpentine(wafer.nx, wafer.ny, pp, shape.w, shape.h)?
    };

    // Fine-grained DRAM allocation (Alg. 3): overflow/spare per stage.
    let (overflow, spare) = overflow_and_spare(&inputs, &rplan, cap);
    let grants: Vec<DramGrant> = if opts.memory_scheduler {
        let alloc = allocate(&placement, &overflow, &spare);
        if !alloc.complete() {
            return None;
        }
        alloc.grants
    } else {
        // Naive pairing from GCMR (distance-unaware).
        mem_pairs
            .iter()
            .map(|p| DramGrant {
                sender: p.sender,
                helper: p.helper,
                bytes: p.bytes,
                hops: placement.stages[p.sender].dist(&placement.stages[p.helper]),
            })
            .collect()
    };

    // Collective selection for this shape.
    let collective = choose_collective(opts, wafer, shape, &stages[..], cache)?;

    let options = EvalOptions {
        collective,
        punish: opts.punish,
        robust: true,
    };
    let eval_with = |placement: &Placement, rplan: &RecomputePlan, grants: &[DramGrant]| {
        evaluate(&EvalInput {
            wafer,
            job,
            parallel,
            ctx,
            stages: &stages[..],
            recompute: rplan,
            placement,
            grants,
            faults,
            options: options.clone(),
            cache,
        })
    };
    let base_report = eval_with(&placement, &rplan, &grants);

    // Optional GA refinement of placement + recomputation + pairing;
    // kept only when the full evaluation confirms the improvement.
    let (placement, rplan, grants, report) = if let Some(params) = &opts.ga {
        let refined = ga::refine_with_model(
            &stages[..],
            &rplan,
            &placement,
            &overflow,
            &spare,
            // wsc-lint: allow(S001, "cost_model is constructed above under the same opts.ga flag that guards this branch")
            cost_model.as_ref().expect("built when ga is enabled"),
            params,
        );
        let refined_report = eval_with(&refined.placement, &refined.recompute, &refined.grants);
        if refined_report.feasible
            && refined_report.iteration.as_secs() < base_report.iteration.as_secs()
        {
            (
                refined.placement,
                refined.recompute,
                refined.grants,
                refined_report,
            )
        } else {
            (placement, rplan, grants, base_report)
        }
    } else {
        (placement, rplan, grants, base_report)
    };
    if !report.feasible {
        return None;
    }
    Some(ScheduledConfig {
        parallel,
        plan: plan.clone().with_dp(parallel.dp),
        collective,
        placement,
        recompute: rplan,
        grants,
        report,
    })
}

/// The one search driver behind both legs of an [`crate::Explorer`]
/// session: the Alg. 1 `TP × PP × strategy` sweep, in which a single
/// wafer is a one-wafer node and a §VI-F multi-wafer node is `dies`
/// dies of identical `wafer`s.
///
/// The driver owns everything the legs share:
///
/// * the node-level Alg. 1 line 1–2 early exit — when `modelP` cannot
///   fit even spread over all `dies`, no plan can, and the leg returns
///   empty stats without enumerating anything;
/// * the leg's [`ProfileCache`], built through the injection harness
///   when one is armed, and the generation tag its checkpoints carry;
///   it is handed back beside the result so downstream sweeps (fault
///   sweeps, ensemble scoring, baselines) reuse the winner's stage
///   profiles instead of rebuilding them;
/// * the bound-ordered wave search (`bounded_search`), honoring
///   `opts.prune` and `opts.sequential`.
///
/// Each leg brings only what really differs: its `work_list`
/// enumeration and its `bound` and `eval` closures (`eval` returns the
/// candidate with the score it competes on). Both closures start with
/// [`plan_geometry`], so a plan that fails the per-plan memory precheck
/// gets `None` before any stage profile is built: the pruned mode
/// counts it as pruned, the exhaustive mode as evaluated. Kept apart on
/// purpose — merging any of these changes results or pinned winners:
///
/// | | single wafer ([`explore_impl`]) | node (`explore_multi_wafer_impl`) |
/// |---|---|---|
/// | evaluator | [`crate::evaluate`]: routed p2p, faults, optimizer step | `crate::multiwafer`'s 1F1B model with W2W seam p2p |
/// | placement | [`placement::optimize`] + [`allocate`], GA refinement of the winner | [`placement::optimize_node`] + [`crate::allocate_node`] behind `node_placement` |
/// | optimizer DRAM stream | charged (evaluator and bound) | not charged |
/// | stranding filter | skip when `tp · pp · dp` < dies / 2, `dp` from the tile slots | skip when `tp · pp` < dies / 2 |
///
/// Both legs price the DP gradient all-reduce on the same
/// `min(dp, nx) × ⌈dp / nx⌉` group ([`evaluator::dp_allreduce_time`]).
/// On a node the search never reaches `dp > nx`: the stranding filter
/// keeps `tp · pp ≥ dies / 2`, and [`plan_geometry`] resolves
/// `dp ≤ slots_per_wafer / max_stages_per_wafer ≤ ⌊dies / (tp · pp)⌋ ≤ 2`
/// (a wafer hosts at most `die_count · span / tp` tile slots and a
/// wafer group at least `pp · span / wafers` stages), while every node
/// wafer has `nx ≥ 2` — so the row count there is always 1.
///
/// The result — winner *and* [`SearchStats`] — is identical to the
/// exhaustive sequential sweep (`prune: false, sequential: true`) up to
/// the instrumentation counters, and byte-identical across thread
/// counts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_leg<C: Send>(
    wafer: &WaferConfig,
    dies: usize,
    job: &TrainingJob,
    opts: &SchedulerOptions,
    ctx: &SessionCtx<'_>,
    work_list: impl FnOnce() -> Vec<WorkItem>,
    bound: impl Fn(&WorkItem, &ProfileCache) -> Option<f64> + Sync,
    eval: impl Fn(&WorkItem, &ProfileCache) -> Option<(C, f64)> + Sync,
) -> (WaveResult<C>, ProfileCache) {
    if memory_precheck_fails(wafer, job, dies, 1) {
        let empty = WaveResult {
            best: None,
            stats: SearchStats::default(),
            outcome: Outcome::Complete,
            failures: Vec::new(),
        };
        return (empty, ProfileCache::new());
    }
    let items = work_list();
    // An armed injection schedule builds its corrupted/poisoned cache
    // (test/bench-only); production runs take the plain memo.
    let cache = match ctx.inject {
        Some(inj) if inj.is_armed() => inj.build_cache(),
        _ => ProfileCache::new(),
    };
    // Checkpoints emitted from this leg carry this cache's generation
    // tag.
    let ctx = SessionCtx {
        generation: Some(cache.generation_handle()),
        ..*ctx
    };
    let leg = bounded_search(
        &items,
        opts.prune,
        opts.sequential,
        &ctx,
        |it| bound(it, &cache),
        |it| eval(it, &cache),
    );
    (leg, cache)
}

/// Analytic lower bound (seconds) on the iteration time any feasible
/// single-wafer schedule of a plan can achieve: the shared
/// [`evaluator::pipeline_floor`] of its cached stage profiles, priced
/// with the collective the full scheduler will pick, plus the DP
/// gradient all-reduce and the optimizer DRAM stream, which the
/// evaluator adds verbatim. The search evaluates fault-free at healthy
/// bandwidth, so the bound never exceeds the true evaluation. `None` =
/// statically infeasible (geometry or no supported collective).
fn config_lower_bound(
    wafer: &WaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    opts: &SchedulerOptions,
    cache: &ProfileCache,
) -> Option<f64> {
    let geo = plan_geometry(wafer, 1, job, plan)?;
    let stages = cache.stage_profiles(wafer, job, plan, geo.n_mb);
    let collective = choose_collective(opts, wafer, geo.shape, &stages[..], cache)?;
    let dp = geo.parallel.dp;
    let bound =
        evaluator::pipeline_floor(
            cache,
            collective,
            geo.shape,
            None,
            &stages[..],
            geo.n_mb,
            wafer,
        ) + evaluator::dp_allreduce_time(cache, collective, wafer, job, plan.tp, plan.pp, dp)
            .as_secs()
            + evaluator::optimizer_stream_time(&stages[..], wafer).as_secs();
    Some(bound)
}

/// What a single-wafer candidate competes on: the one place the search
/// chooses between clean, fault-aware and serving ranking, resolved by
/// [`crate::ExplorerBuilder::build`]. Not a [`SchedulerOptions`] field,
/// so serialized option sets stay oblivious to it.
pub(crate) enum SearchObjective {
    /// Clean iteration seconds.
    Clean,
    /// Ensemble effective seconds, under the clean bound, which stays
    /// sound because faults and checkpoints only add time
    /// (`crate::goodput` module docs).
    FaultAware(FaultAwareSpec),
    /// The model's own score and bound (soundness obligation in the
    /// `crate::serving` module docs).
    Serving(Arc<dyn ServingModel>),
}

impl std::fmt::Debug for SearchObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchObjective::Clean => write!(f, "Clean"),
            SearchObjective::FaultAware(fa) => write!(f, "FaultAware({fa:?})"),
            SearchObjective::Serving(model) => write!(f, "Serving({})", model.name()),
        }
    }
}

impl SearchObjective {
    /// Analytic lower bound on [`Self::score`] over every schedule of
    /// `plan`; `None` = statically infeasible.
    pub(crate) fn bound(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
        opts: &SchedulerOptions,
        cache: &ProfileCache,
    ) -> Option<f64> {
        match self {
            // Serving ranks on a different axis than iteration seconds,
            // so the clean training bound is meaningless for it. The
            // training geometry gate still applies — a plan that cannot
            // be laid out cannot be scheduled, let alone served.
            SearchObjective::Serving(model) => {
                plan_geometry(wafer, 1, job, plan)?;
                model.bound(wafer, job, plan, cache)
            }
            SearchObjective::Clean | SearchObjective::FaultAware(_) => {
                config_lower_bound(wafer, job, plan, opts, cache)
            }
        }
    }

    /// The score `cfg` competes on (lower wins). The ensemble loop
    /// honors `deadline`: a candidate it interrupts scores `INFINITY`,
    /// as does one the serving model cannot score.
    pub(crate) fn score(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        cfg: &ScheduledConfig,
        cache: &ProfileCache,
        deadline: Option<Instant>,
    ) -> f64 {
        match self {
            SearchObjective::Clean => cfg.report.iteration.as_secs(),
            SearchObjective::FaultAware(fa) => ensemble_effective_secs_within(
                wafer,
                job,
                cfg,
                &fa.ensemble,
                fa.objective,
                cache,
                deadline,
            ),
            SearchObjective::Serving(model) => model.score(wafer, job, cfg, cache),
        }
    }
}

/// The single-wafer leg of [`search_leg`] (driven by
/// [`crate::Explorer`]): the intra-wafer [`ParallelPlan`] space
/// (`TP × PP × strategy`, all stages on this wafer), minus the points
/// that strand more than half the wafer, bounded and ranked by
/// `objective`. Each evaluated candidate is scored once and carries its
/// score, so neither the wave loop's incumbent reads nor the explorer's
/// cross-wafer ranking re-run it.
///
/// The wave loop runs without the GA; with `opts.ga` set, the GA
/// refines the winner of a complete leg once.
pub(crate) fn explore_impl(
    wafer: &WaferConfig,
    job: &TrainingJob,
    opts: &SchedulerOptions,
    objective: &SearchObjective,
    ctx: &SessionCtx<'_>,
) -> (WaveResult<ScheduledConfig>, ProfileCache) {
    let dies = wafer.die_count();
    let inner = SchedulerOptions {
        ga: None,
        ..opts.clone()
    };
    let work_list = || {
        let mut items = Vec::new();
        for tp in tp_candidates(wafer, opts) {
            for pp in 1..=(dies / tp).min(job.model.layers) {
                // Skip configurations that strand more than half the wafer.
                let Some((tw, th)) = placement::choose_tile(wafer.nx, wafer.ny, tp, pp) else {
                    continue;
                };
                let slots = (wafer.nx / tw) * (wafer.ny / th);
                if tp * pp * ((slots / pp).max(1)).min(job.global_batch / job.micro_batch)
                    < dies / 2
                {
                    continue;
                }
                for (sidx, &strategy) in opts.strategies.iter().enumerate() {
                    items.push(WorkItem {
                        plan: ParallelPlan::intra(tp, pp, strategy),
                        sidx,
                        pidx: 0,
                    });
                }
            }
        }
        items
    };
    let score = |cfg: &ScheduledConfig, cache: &ProfileCache| {
        objective.score(wafer, job, cfg, cache, ctx.deadline)
    };
    let (mut leg, cache) = search_leg(
        wafer,
        dies,
        job,
        opts,
        ctx,
        work_list,
        |it, cache| objective.bound(wafer, job, &it.plan, opts, cache),
        |it, cache| {
            let cfg = schedule_plan_cached(wafer, job, &it.plan, &inner, None, cache)?;
            let score = score(&cfg, cache);
            // A non-finite score cannot rank (deadline-interrupted
            // ensemble, or every sample infeasible): treat the candidate
            // as unscoreable rather than letting INFINITY win a search
            // with no finite competitor.
            score.is_finite().then_some((cfg, score))
        },
    );

    // GA refinement of the winner, kept only when it wins on the same
    // score the search ranked by. A truncated leg skips it: refinement
    // is unbudgeted work, and anytime semantics promise best-so-far.
    if opts.ga.is_some() && leg.outcome == Outcome::Complete {
        if let Some((b, bscore)) = leg.best.take() {
            let refined = schedule_plan_cached(wafer, job, &b.plan, opts, None, &cache)
                .map(|r| {
                    let rscore = score(&r, &cache);
                    (r, rscore)
                })
                .filter(|(_, rscore)| *rscore <= bscore);
            leg.best = Some(refined.unwrap_or((b, bscore)));
        }
    }
    (leg, cache)
}

/// Re-evaluate a scheduled configuration under faults (Fig. 22) or with
/// a different robustness policy. Stage profiles come from `cache`, so
/// sweeps that re-evaluate the same configuration many times (fault
/// rates, robust vs baseline policies) build them exactly once; a
/// one-off call passes `&ProfileCache::new()`.
pub fn evaluate_scheduled_cached(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
    faults: Option<&FaultMap>,
    robust: bool,
    cache: &ProfileCache,
) -> PerfReport {
    let ctx = cfg.plan.sharding_ctx(job);
    let n_mb = job.microbatches(cfg.parallel.dp);
    let stages = cache.stage_profiles(wafer, job, &cfg.plan, n_mb);
    evaluate(&EvalInput {
        wafer,
        job,
        parallel: cfg.parallel,
        ctx,
        stages: &stages[..],
        recompute: &cfg.recompute,
        placement: &cfg.placement,
        grants: &cfg.grants,
        faults,
        options: EvalOptions {
            collective: cfg.collective,
            punish: 4.0,
            robust,
        },
        cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_arch::presets;
    use wsc_workload::zoo;

    fn quick_opts() -> SchedulerOptions {
        SchedulerOptions {
            ga: None,
            strategies: vec![TpSplitStrategy::Megatron],
            ..SchedulerOptions::default()
        }
    }

    fn search(
        wafer: &WaferConfig,
        job: &TrainingJob,
        opts: &SchedulerOptions,
        fault_aware: Option<&FaultAwareSpec>,
    ) -> WaveResult<ScheduledConfig> {
        let objective = fault_aware.map_or(SearchObjective::Clean, |fa| {
            SearchObjective::FaultAware(fa.clone())
        });
        explore_impl(wafer, job, opts, &objective, &SessionCtx::default()).0
    }

    /// The single-wafer plan geometry as the Alg. 1 leg derived it
    /// before both legs shared [`plan_geometry`], kept as the oracle of
    /// `one_wafer_geometry_matches_the_single_wafer_rules` (with the
    /// line 1–2 memory precheck spelled out).
    fn single_wafer_geometry_oracle(
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
    ) -> Option<(GroupShape, ParallelSpec, usize, ShardingCtx)> {
        let (tp, pp) = (plan.tp, plan.pp);
        if plan.validate().is_err() || pp > job.model.layers {
            return None;
        }
        if plan.tp_span != 1 || plan.stage_map.wafer_count() != 1 {
            return None;
        }
        if model_p_total(&job.model).as_f64() / (tp * pp) as f64 > wafer.dram.capacity.as_f64() {
            return None;
        }
        let (tile_w, tile_h) = placement::choose_tile(wafer.nx, wafer.ny, tp, pp)?;
        let slots = (wafer.nx / tile_w) * (wafer.ny / tile_h);
        let dp_max = (job.global_batch / job.micro_batch).max(1);
        let mut dp = (slots / pp).clamp(1, dp_max);
        if plan.dp > 0 {
            dp = dp.min(plan.dp);
        }
        Some((
            GroupShape::new(tile_w, tile_h),
            ParallelSpec::new(dp, tp, pp),
            job.microbatches(dp),
            plan.sharding_ctx(job),
        ))
    }

    #[test]
    fn one_wafer_geometry_matches_the_single_wafer_rules() {
        // At one wafer the shared geometry must accept and reject exactly
        // the plans the single-wafer rules did, with the same tile, dp and
        // micro-batch count: plan validation vs `StageMap::validate(pp,
        // 1)`, the `tp_span` rejection, `choose_tile`, the slot check and
        // the dp clamp all agree there.
        use wsc_workload::parallel::StageMap;
        let job = TrainingJob::standard(zoo::llama2_30b());
        let mut accepted = 0usize;
        let mut checked = 0usize;
        for idx in 1..=4 {
            let wafer = presets::config(idx);
            for tp in 0..=16usize {
                for pp in [0usize, 1, 2, 3, 4, 5, 7, 8, 12, 14, 16, 28, 56, 60, 61] {
                    let maps = [
                        StageMap::SingleWafer,
                        StageMap::Balanced { wafers: 0 },
                        StageMap::Balanced { wafers: 1 },
                        StageMap::Balanced { wafers: 2 },
                        StageMap::Explicit(vec![0; pp]),
                        StageMap::Explicit(vec![0; pp.saturating_sub(1)]),
                        StageMap::Explicit((0..pp).map(|s| usize::from(2 * s >= pp)).collect()),
                    ];
                    for map in maps {
                        for span in 0..=2usize {
                            for dp in [0usize, 3] {
                                let plan = ParallelPlan::intra(tp, pp, TpSplitStrategy::Megatron)
                                    .with_stage_map(map.clone())
                                    .with_tp_span(span)
                                    .with_dp(dp);
                                let shared = plan_geometry(&wafer, 1, &job, &plan)
                                    .map(|g| (g.shape, g.parallel, g.n_mb, g.ctx));
                                let oracle = single_wafer_geometry_oracle(&wafer, &job, &plan);
                                assert_eq!(shared, oracle, "{plan} on {}", wafer.name);
                                checked += 1;
                                accepted += usize::from(oracle.is_some());
                            }
                        }
                    }
                }
            }
        }
        assert!(
            accepted > 100,
            "only {accepted} of {checked} plans accepted"
        );
    }

    #[test]
    fn schedule_fixed_produces_feasible_config() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let cfg = schedule_plan_cached(
            &wafer,
            &job,
            &ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron),
            &quick_opts(),
            None,
            &ProfileCache::new(),
        )
        .expect("schedulable");
        assert!(cfg.report.feasible);
        assert_eq!(cfg.parallel.tp, 4);
        assert_eq!(cfg.parallel.pp, 14);
        assert_eq!(cfg.placement.stages.len(), 14);
    }

    #[test]
    fn early_pruning_rejects_oversized_models() {
        // DeepSeek-671B modelP = 671e9 x 16 B ≈ 10.7 TB > Config 3's
        // 3.92 TB wafer: every candidate must be pruned.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::deepseek_v3());
        assert!(search(&wafer, &job, &quick_opts(), None).best.is_none());
    }

    #[test]
    fn explore_finds_small_tp() {
        // Fig. 5a / §V-C: the optimum uses a small TP (not 8/16).
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let (best, _) = search(&wafer, &job, &quick_opts(), None)
            .best
            .expect("feasible");
        assert!(
            best.parallel.tp <= 4,
            "expected small TP, got {}",
            best.parallel
        );
        assert!(best.report.feasible);
    }

    #[test]
    fn pruned_search_matches_exhaustive_sweep() {
        // The tentpole invariant: prune+parallel, prune+sequential and
        // no-prune+sequential all return the same winner; pruning only
        // changes the instrumentation counters.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let pruned = search(&wafer, &job, &quick_opts(), None);
        let pruned_seq = search(
            &wafer,
            &job,
            &SchedulerOptions {
                sequential: true,
                ..quick_opts()
            },
            None,
        );
        let exhaustive = search(
            &wafer,
            &job,
            &SchedulerOptions {
                prune: false,
                sequential: true,
                ..quick_opts()
            },
            None,
        );
        assert_eq!(pruned.best, pruned_seq.best);
        assert_eq!(pruned.stats, pruned_seq.stats);
        assert_eq!(pruned.best, exhaustive.best);
        assert_eq!(pruned.stats.visited, exhaustive.stats.visited);
        assert!(pruned.stats.pruned > 0, "{:?}", pruned.stats);
        assert_eq!(exhaustive.stats.pruned, 0);
        assert_eq!(exhaustive.stats.evaluated, exhaustive.stats.visited);
    }

    #[test]
    fn fault_aware_search_matches_exhaustive_sweep() {
        // Clean-bound pruning stays sound when candidates are ranked by
        // ensemble effective seconds: the pruned fault-aware search and
        // the exhaustive one return the identical winner.
        use crate::goodput::{ensemble_effective_secs, FaultEnsemble, RobustObjective};
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let fa = FaultAwareSpec {
            ensemble: FaultEnsemble::clustered(0.2, 3, 11),
            objective: RobustObjective::Mean,
        };
        let pruned = search(&wafer, &job, &quick_opts(), Some(&fa));
        let exhaustive = search(
            &wafer,
            &job,
            &SchedulerOptions {
                prune: false,
                sequential: true,
                ..quick_opts()
            },
            Some(&fa),
        );
        assert_eq!(pruned.best, exhaustive.best);
        assert_eq!(pruned.stats.visited, exhaustive.stats.visited);
        assert!(pruned.stats.pruned > 0, "{:?}", pruned.stats);
        let (best, score) = pruned.best.expect("feasible");
        // The ensemble score the winner was ranked by dominates its
        // clean iteration time (the pruning-soundness inequality).
        let cache = ProfileCache::new();
        let s = ensemble_effective_secs(&wafer, &job, &best, &fa.ensemble, fa.objective, &cache);
        assert_eq!(s, score, "the winner is ranked by its ensemble score");
        assert!(s >= best.report.iteration.as_secs());
    }

    #[test]
    fn search_stats_are_consistent() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let out = search(&wafer, &job, &quick_opts(), None);
        let s = out.stats;
        assert!(s.visited > 0);
        assert_eq!(s.visited, s.pruned + s.evaluated);
        assert!(s.evaluated > 0, "the winner must have been evaluated");
    }

    #[test]
    fn tie_break_is_deterministic_under_parallelism() {
        // Duplicate the strategy list: every (tp, pp) point now appears
        // twice with identical iteration times, so the winner is decided
        // purely by the (tp, pp, strategy index) tie-break. The duplicated
        // search must agree with the plain one, sequentially and in
        // parallel.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let plain = search(&wafer, &job, &quick_opts(), None);
        let dup_opts = SchedulerOptions {
            strategies: vec![TpSplitStrategy::Megatron, TpSplitStrategy::Megatron],
            ..quick_opts()
        };
        let dup_par = search(&wafer, &job, &dup_opts, None);
        let dup_seq = search(
            &wafer,
            &job,
            &SchedulerOptions {
                sequential: true,
                ..dup_opts
            },
            None,
        );
        assert_eq!(dup_par.best, dup_seq.best);
        assert_eq!(dup_par.stats, dup_seq.stats);
        // Strategy index 0 wins the tie: identical outcome to the plain
        // single-strategy search.
        assert_eq!(plain.best, dup_par.best);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        // A plan that fails its own validation (wrong-length explicit
        // map, zero degree, indivisible span) must never schedule — the
        // "every record carries a valid plan" property depends on it.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        use wsc_workload::parallel::StageMap;
        let bad_map = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron)
            .with_stage_map(StageMap::Explicit(vec![0]));
        assert!(bad_map.validate().is_err());
        assert!(schedule_plan_cached(
            &wafer,
            &job,
            &bad_map,
            &quick_opts(),
            None,
            &ProfileCache::new()
        )
        .is_none());
        let bad_span = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron).with_tp_span(3);
        assert!(schedule_plan_cached(
            &wafer,
            &job,
            &bad_span,
            &quick_opts(),
            None,
            &ProfileCache::new()
        )
        .is_none());
    }

    #[test]
    fn infeasible_pp_returns_none() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        // 61 stages on 56 dies with TP=4: no.
        assert!(schedule_plan_cached(
            &wafer,
            &job,
            &ParallelPlan::intra(4, 61, TpSplitStrategy::Megatron),
            &quick_opts(),
            None,
            &ProfileCache::new(),
        )
        .is_none());
    }

    #[test]
    fn memory_scheduler_never_hurts() {
        let wafer = presets::config(2); // tighter memory than config 3
        let job = TrainingJob::standard(zoo::llama3_70b());
        let mut with = quick_opts();
        with.memory_scheduler = true;
        let mut without = quick_opts();
        without.memory_scheduler = false;
        let plan = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron);
        let a = schedule_plan_cached(&wafer, &job, &plan, &with, None, &ProfileCache::new());
        let b = schedule_plan_cached(&wafer, &job, &plan, &without, None, &ProfileCache::new());
        if let (Some(a), Some(b)) = (a, b) {
            assert!(a.report.iteration.as_secs() <= b.report.iteration.as_secs() * 1.05);
        }
    }

    #[test]
    fn gcmr_mode_beats_naive_mode() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama3_70b());
        let mut gcmr_opts = quick_opts();
        gcmr_opts.recompute = RecomputeMode::Gcmr;
        let mut naive_opts = quick_opts();
        naive_opts.recompute = RecomputeMode::Naive;
        let plan = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron);
        let g = schedule_plan_cached(&wafer, &job, &plan, &gcmr_opts, None, &ProfileCache::new())
            .expect("gcmr feasible");
        let n = schedule_plan_cached(&wafer, &job, &plan, &naive_opts, None, &ProfileCache::new())
            .expect("naive feasible");
        assert!(
            g.report.iteration.as_secs() <= n.report.iteration.as_secs() * 1.001,
            "gcmr {} vs naive {}",
            g.report.iteration,
            n.report.iteration
        );
    }
}
