//! The four benchmark workloads: how each one is set up from a seed,
//! what its winner is, and the correctness gate every search must pass.

use std::sync::Arc;

use watos::{
    ensemble_goodput, ArchRecord, CheckpointSink, ExplorationReport, Explorer, FaultEnsemble,
    MultiWaferRecord, MultiWaferReport, PlanFilter, ProfileCache, RobustObjective, ScheduledConfig,
    SearchStats,
};
use wsc_arch::presets;
use wsc_arch::wafer::WaferConfig;
use wsc_serve::{simulate, PhaseCost, ServingReport, ServingSlo, SimConfig, SloServingModel};
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::serving::{ServingWorkload, TokenDist};
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

use crate::audit::ServingAudit;
use crate::trace::Clock;

/// The seed the pinned winners were recorded at.
pub const DEFAULT_SEED: u64 = 7;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Llama3-70B over the four Table II wafers, default scheduler
    /// options (both TP strategies, GCMR, GA on).
    Dse70b,
    /// Llama3-405B on the four-wafer WATOS-18 node, full plan space,
    /// node-level placement on, GA off.
    Node405b,
    /// SLO-aware serving search for Llama2-30B on Config 3 with a
    /// long-context Poisson trace, GA off.
    ServeLongctx,
    /// Fault-aware search for Llama2-30B on Config 3 under a clustered
    /// yield ensemble, sequence-parallel TP only, GA off.
    Fault30b,
}

/// The winner a workload must crown at [`DEFAULT_SEED`].
struct Pinned {
    arch: &'static str,
    plan: &'static str,
    /// Clean iteration seconds (training workloads) or goodput in
    /// requests per second (serving).
    score: f64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Dse70b,
        Workload::Node405b,
        Workload::ServeLongctx,
        Workload::Fault30b,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dse70b => "dse-70b",
            Workload::Node405b => "node-405b",
            Workload::ServeLongctx => "serve-longctx",
            Workload::Fault30b => "fault-30b",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn pinned(self) -> Pinned {
        match self {
            Workload::Dse70b => Pinned {
                arch: "Config 3",
                plan: "D(1)T(4)P(14) seq-parallel",
                score: 29.871251887096445,
            },
            Workload::Node405b => Pinned {
                arch: "4x Config 3",
                plan: "D(1)T(16)P(14) seq-parallel stages=balanced/2 tp-span=2",
                score: 82.19455471986042,
            },
            Workload::ServeLongctx => Pinned {
                arch: "Config 3",
                plan: "D(4)T(2)P(7) seq-parallel",
                score: 63.47836224018978,
            },
            Workload::Fault30b => Pinned {
                arch: "Config 3",
                plan: "D(1)T(8)P(7) seq-parallel",
                score: 15.13219108666756,
            },
        }
    }
}

/// Everything one workload's searches run on, built by [`setup`].
pub struct Session {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The configured search.
    pub explorer: Explorer,
    /// The training job the search schedules (the profile job on the
    /// serving workload).
    pub job: TrainingJob,
    /// The fault ensemble (fault-30b only).
    pub ensemble: Option<FaultEnsemble>,
    /// The auditing serving model the search ranks with (serve-longctx
    /// only).
    pub audit: Option<Arc<ServingAudit>>,
}

/// Build a workload's inputs from `seed` and validate them into an
/// [`Explorer`]: the set-up cost `setup_s` measures. `sink`, when
/// given, receives a checkpoint after every wave; `clock`, when given,
/// makes the serving audit time its calls on it.
pub fn setup(
    workload: Workload,
    seed: u64,
    sink: Option<Arc<dyn CheckpointSink>>,
    clock: Option<Clock>,
) -> Session {
    let mut ensemble = None;
    let mut audit = None;
    let (job, builder) = match workload {
        Workload::Dse70b => (
            TrainingJob::with_batch(zoo::llama3_70b(), 512, 4, 4096),
            Explorer::builder().wafers(presets::table_ii_configs()),
        ),
        Workload::Node405b => (
            TrainingJob::standard(zoo::llama3_405b()),
            Explorer::builder()
                .multi_wafer(presets::multi_wafer_18())
                .plans(PlanFilter::all())
                .node_placement()
                .no_ga(),
        ),
        Workload::ServeLongctx => {
            let serving = ServingWorkload::poisson(zoo::llama2_30b(), 128.0, 2048, seed)
                .with_lengths(
                    TokenDist::Uniform { lo: 1024, hi: 2048 },
                    TokenDist::Uniform { lo: 128, hi: 512 },
                );
            let model = SloServingModel::with_sim(
                serving,
                ServingSlo::ttft(0.5),
                SimConfig {
                    max_batch_tokens: 4096,
                },
            );
            let job = model.profile_job();
            let wrapped = Arc::new(ServingAudit::new(model, clock));
            audit = Some(Arc::clone(&wrapped));
            (
                job,
                Explorer::builder()
                    .serving_model(wrapped)
                    .wafer(presets::config(3))
                    .no_ga(),
            )
        }
        Workload::Fault30b => {
            // The ensemble keeps its own seed: which wafers it samples
            // decides how much of the space survives pruning, and across
            // seeds 1-5 that moved a search from 0.5 s to 7.7 s, more
            // than any run-to-run bound can absorb. The workload seed
            // drives the search's own RNG.
            let e = FaultEnsemble::clustered(0.2, 4, DEFAULT_SEED);
            ensemble = Some(e.clone());
            (
                TrainingJob::standard(zoo::llama2_30b()),
                Explorer::builder()
                    .wafer(presets::config(3))
                    .strategies(vec![TpSplitStrategy::SequenceParallel])
                    .no_ga()
                    .fault_aware(e, RobustObjective::Worst),
            )
        }
    };
    let builder = match sink {
        Some(sink) => builder.checkpoint_every(1, sink),
        None => builder,
    };
    let explorer = builder
        .job(job.clone())
        .seed(seed)
        .build()
        .expect("the benchmark workloads are valid explorer configurations");
    Session {
        workload,
        seed,
        explorer,
        job,
        ensemble,
        audit,
    }
}

/// The winning record of a report: a single-wafer candidate or a
/// multi-wafer node.
pub enum Winner<'a> {
    /// Best single-wafer candidate and its schedule.
    Single(&'a ArchRecord, &'a ScheduledConfig),
    /// Best multi-wafer node and its schedule.
    Multi(&'a MultiWaferRecord, &'a MultiWaferReport),
}

impl Winner<'_> {
    /// The winning plan, rendered.
    pub fn plan(&self) -> String {
        match self {
            Winner::Single(_, cfg) => cfg.plan.to_string(),
            Winner::Multi(_, best) => best.plan.to_string(),
        }
    }

    /// The winning architecture's name.
    pub fn arch(&self) -> &str {
        match self {
            Winner::Single(rec, _) => &rec.arch,
            Winner::Multi(rec, _) => &rec.name,
        }
    }

    /// Clean simulated iteration seconds of the winning schedule.
    pub fn iter_s(&self) -> f64 {
        match self {
            Winner::Single(_, cfg) => cfg.report.iteration.as_secs(),
            Winner::Multi(_, best) => best.iteration.as_secs(),
        }
    }

    fn feasible(&self) -> bool {
        match self {
            Winner::Single(_, cfg) => cfg.report.feasible,
            Winner::Multi(_, best) => best.feasible,
        }
    }
}

/// The winner of `report`, if the search found one.
pub fn winner(workload: Workload, report: &ExplorationReport) -> Option<Winner<'_>> {
    match workload {
        Workload::Node405b => {
            let rec = report.best_multi_wafer()?;
            rec.best.as_ref().map(|best| Winner::Multi(rec, best))
        }
        _ => {
            let rec = report.best().ok()?;
            rec.best.as_ref().map(|cfg| Winner::Single(rec, cfg))
        }
    }
}

/// Aggregate search counters over every leg of a report.
pub fn search_stats(report: &ExplorationReport) -> SearchStats {
    report
        .search_stats()
        .merge(report.multi_wafer_search_stats())
}

/// The per-search correctness gate. `first_json` is the report of the
/// run's first search (`None` for the first search itself).
pub fn check_search(
    session: &Session,
    report: &ExplorationReport,
    json: &str,
    first_json: Option<&str>,
    bound_violations: usize,
) -> Result<(), String> {
    if report.truncated() {
        return Err("a search leg did not complete".into());
    }
    let incidents = report.incidents();
    if !incidents.is_empty() {
        return Err(format!("{} isolated candidate failures", incidents.len()));
    }
    let legs = report
        .single_wafer
        .iter()
        .map(|r| (&r.arch, r.stats))
        .chain(report.multi_wafer.iter().map(|r| (&r.name, r.stats)));
    for (name, s) in legs {
        if s.visited != s.pruned + s.evaluated + s.skipped {
            return Err(format!("leg `{name}` counters do not add up: {s:?}"));
        }
    }
    match winner(session.workload, report) {
        Some(w) if w.feasible() => {}
        Some(_) => return Err("the winner is infeasible".into()),
        None => return Err("no winner".into()),
    }
    if let Some(first) = first_json {
        if first != json {
            return Err("report differs from the run's first search".into());
        }
    }
    if bound_violations > 0 {
        return Err(format!("{bound_violations} serving bound violations"));
    }
    Ok(())
}

/// Simulated figures of one run's winner, derived once from its first
/// report outside the timed loop.
pub struct WinnerFigures {
    /// Winning architecture.
    pub arch: String,
    /// Winning plan.
    pub plan: String,
    /// Clean simulated iteration seconds of the winning schedule.
    pub iter_s: f64,
    /// Ensemble useful FLOP/s (fault-30b).
    pub goodput_flops: Option<f64>,
    /// The winner served on the workload's trace (serve-longctx).
    pub serving: Option<ServingReport>,
}

/// Derive the winner's simulated figures.
pub fn winner_figures(session: &Session, report: &ExplorationReport) -> Option<WinnerFigures> {
    let w = winner(session.workload, report)?;
    let mut figures = WinnerFigures {
        arch: w.arch().to_string(),
        plan: w.plan(),
        iter_s: w.iter_s(),
        goodput_flops: None,
        serving: None,
    };
    if let Winner::Single(rec, cfg) = w {
        if let Some(ensemble) = &session.ensemble {
            let cache = ProfileCache::new();
            figures.goodput_flops = ensemble_goodput(
                &rec.wafer,
                &session.job,
                cfg,
                ensemble,
                RobustObjective::Worst,
                &cache,
            )
            .ok();
        }
        if let Some(audit) = &session.audit {
            figures.serving = serve_winner(audit.model(), &rec.wafer, &session.job, cfg);
        }
    }
    Some(figures)
}

/// Serve the model's trace on a scheduled candidate.
pub fn serve_winner(
    model: &SloServingModel,
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
) -> Option<ServingReport> {
    let cache = ProfileCache::new();
    let cost = PhaseCost::derive(wafer, job, cfg, &cache)?;
    simulate(&cost, model.trace(), &model.sim_config(), &model.slo()).ok()
}

/// The pinned-winner check, made at [`DEFAULT_SEED`] only.
pub fn check_pinned(workload: Workload, figures: &WinnerFigures) -> Result<(), String> {
    let pinned = workload.pinned();
    let score = match workload {
        Workload::ServeLongctx => figures.serving.as_ref().map_or(f64::NAN, |r| r.goodput_rps),
        _ => figures.iter_s,
    };
    if figures.arch != pinned.arch || figures.plan != pinned.plan || score != pinned.score {
        return Err(format!(
            "winner {} on {} scoring {score} differs from the pinned {} on {} scoring {}",
            figures.plan, figures.arch, pinned.plan, pinned.arch, pinned.score
        ));
    }
    Ok(())
}
