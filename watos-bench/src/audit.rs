//! A [`ServingModel`] wrapper that audits the serving leg from outside
//! the library: every in-search `bound` and `score` call is recorded so
//! the pruning contract `bound <= score` can be checked per scored plan,
//! and (when timed) each call becomes a span.

use std::sync::{Mutex, MutexGuard};

use watos::{ParallelPlan, ProfileCache, ScheduledConfig, ServingModel, TpSplitStrategy};
use wsc_arch::wafer::WaferConfig;
use wsc_serve::SloServingModel;
use wsc_workload::training::TrainingJob;

use crate::trace::Clock;

/// The bound and the score see the same plan with `dp` unresolved and
/// resolved respectively, so calls are matched on `(tp, pp, strategy)`.
type PlanKey = (usize, usize, TpSplitStrategy);

fn key(plan: &ParallelPlan) -> PlanKey {
    (plan.tp, plan.pp, plan.strategy)
}

/// One recorded call: the plan, the value returned, and (when timed)
/// the call's start and end on the run's clock.
struct Call {
    plan: PlanKey,
    value: f64,
    span: Option<(f64, f64)>,
}

#[derive(Default)]
struct Log {
    bounds: Vec<Call>,
    scores: Vec<Call>,
    stage_entries: usize,
    layer_entries: usize,
}

/// What one search's serving calls amounted to.
#[derive(Debug, Default, Clone)]
pub struct AuditReport {
    /// `bound` calls made.
    pub bound_calls: usize,
    /// `score` calls made.
    pub score_calls: usize,
    /// Total seconds inside `bound` (0 when untimed).
    pub bound_s: f64,
    /// Total seconds inside `score` (0 when untimed).
    pub score_s: f64,
    /// Scored plans whose bound exceeded the score.
    pub violations: usize,
    /// `(score - bound) / |score|` per scored plan with finite values.
    pub gaps: Vec<f64>,
    /// Largest stage-profile entry count the search's cache reached.
    pub stage_entries: usize,
    /// Largest layer-data entry count the search's cache reached.
    pub layer_entries: usize,
    /// `(name, start, end)` of each timed call, in call order per kind.
    pub spans: Vec<(&'static str, f64, f64)>,
}

/// The auditing wrapper around [`SloServingModel`].
pub struct ServingAudit {
    inner: SloServingModel,
    clock: Option<Clock>,
    log: Mutex<Log>,
}

impl ServingAudit {
    /// Wrap `inner`; with a `clock`, each call's start and end are
    /// recorded on it.
    pub fn new(inner: SloServingModel, clock: Option<Clock>) -> Self {
        ServingAudit {
            inner,
            clock,
            log: Mutex::new(Log::default()),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &SloServingModel {
        &self.inner
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("no audit call panics while holding the log")
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, Option<(f64, f64)>) {
        match self.clock {
            Some(clock) => {
                let start = clock.now();
                let value = f();
                (value, Some((start, clock.now())))
            }
            None => (f(), None),
        }
    }

    /// Drain the calls recorded since the last drain and check every
    /// scored plan against its bound.
    pub fn take(&self) -> AuditReport {
        let log = std::mem::take(&mut *self.log());
        let mut report = AuditReport {
            bound_calls: log.bounds.len(),
            score_calls: log.scores.len(),
            stage_entries: log.stage_entries,
            layer_entries: log.layer_entries,
            ..AuditReport::default()
        };
        let busy = |calls: &[Call]| -> f64 {
            calls
                .iter()
                .filter_map(|c| c.span)
                .map(|(a, b)| b - a)
                .sum()
        };
        report.bound_s = busy(&log.bounds);
        report.score_s = busy(&log.scores);
        for (name, calls) in [
            ("serving.bound", &log.bounds),
            ("serving.score", &log.scores),
        ] {
            let spans = calls.iter().filter_map(|c| c.span);
            report.spans.extend(spans.map(|(a, b)| (name, a, b)));
        }
        for score in log.scores.iter().filter(|c| c.value.is_finite()) {
            let Some(bound) = log.bounds.iter().find(|b| b.plan == score.plan) else {
                // Every scored plan went through the bound phase first.
                report.violations += 1;
                continue;
            };
            if bound.value.is_nan() || bound.value > score.value {
                report.violations += 1;
            }
            if bound.value.is_finite() && score.value != 0.0 {
                report
                    .gaps
                    .push((score.value - bound.value) / score.value.abs());
            }
        }
        report
    }
}

impl ServingModel for ServingAudit {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn bound(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
        cache: &ProfileCache,
    ) -> Option<f64> {
        let (value, span) = self.timed(|| self.inner.bound(wafer, job, plan, cache));
        // A plan bounded `None` is skipped as unserveable; NaN marks it
        // so a later score of that plan counts as a violation.
        self.log().bounds.push(Call {
            plan: key(plan),
            value: value.unwrap_or(f64::NAN),
            span,
        });
        value
    }

    fn score(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        cfg: &ScheduledConfig,
        cache: &ProfileCache,
    ) -> f64 {
        let (value, span) = self.timed(|| self.inner.score(wafer, job, cfg, cache));
        let mut log = self.log();
        log.scores.push(Call {
            plan: key(&cfg.plan),
            value,
            span,
        });
        log.stage_entries = log.stage_entries.max(cache.stage_entries());
        log.layer_entries = log.layer_entries.max(cache.layer_entries());
        value
    }
}
