//! Property tests for the resilience contract (see
//! `docs/ARCHITECTURE.md`): across randomized injection schedules the
//! engine must return a valid report with every panic isolated, a failed
//! candidate must never be crowned, a disarmed harness must leave the
//! report byte-identical to a run without one, and killing a session at
//! any checkpoint then resuming must reproduce the uninterrupted run
//! bit-for-bit.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Once};
use watos::{
    ExplorationError, Explorer, ExplorerBuilder, FaultEnsemble, Injection, MemorySink,
    RobustObjective, SearchBudget, SearchCheckpoint,
};
use wsc_arch::presets;
use wsc_arch::wafer::{MultiWaferConfig, WaferConfig};
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// Seeded `wsc-inject` panics are expected noise in these tests; keep
/// the default hook for anything else (a real bug must still print).
fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
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
    });
}

fn small_wafer(cfg_idx: usize) -> WaferConfig {
    let mut wafer = presets::config(cfg_idx);
    wafer.nx = 3;
    wafer.ny = 3;
    wafer
}

fn small_job(layers: usize) -> TrainingJob {
    let mut model = zoo::llama_7b();
    model.layers = layers;
    TrainingJob::with_batch(model, 8, 2, 1024)
}

/// The common base session: one shrunken wafer, sequential evaluation
/// (so injection side-counters cannot race), no GA.
fn base(wafer: &WaferConfig, job: &TrainingJob, seed: u64) -> ExplorerBuilder {
    Explorer::builder()
        .job(job.clone())
        .wafer(wafer.clone())
        .no_ga()
        .seed(seed)
        .sequential()
        // Shrunken wafers need not satisfy the full floorplan model.
        .allow_invalid_architectures()
}

proptest! {
    #[test]
    fn injection_storms_stay_isolated_and_never_crown_a_failed_candidate(
        cfg_idx in 1usize..5,
        layers in 4usize..10,
        panic_rate in 0.0f64..1.0,
        delay_rate in 0.0f64..0.3,
        corrupt_rate in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        quiet_panics();
        let wafer = small_wafer(cfg_idx);
        let job = small_job(layers);

        let mut storm = Injection::seeded(seed)
            .panics(panic_rate)
            .delays(delay_rate, 20)
            .corruption(corrupt_rate);
        if seed % 4 == 0 {
            storm = storm.poisoning();
        }
        let stormy = base(&wafer, &job, seed)
            .inject(storm)
            .build()
            .expect("valid session")
            .run();

        // 1. The engine returned (every panic was isolated) and the
        //    report is still a valid, serializable document.
        let round = watos::ExplorationReport::from_json(&stormy.to_json())
            .expect("stormy report round-trips");
        prop_assert_eq!(&round, &stormy);

        // 2. A failed candidate is never the winner.
        let incidents = stormy.incidents();
        if let Some(best) = stormy.best().ok().and_then(|r| r.best.as_ref()) {
            prop_assert!(
                incidents.iter().all(|f| f.plan != best.plan),
                "winner {} is among the {} failed candidates",
                best.plan,
                incidents.len()
            );
        }

        // 3. Honest counters under fire: panicked candidates count as
        //    evaluated, nothing silently disappears.
        let s = stormy.search_stats();
        prop_assert_eq!(s.visited, s.pruned + s.evaluated + s.skipped);

        // 4. A disarmed harness is a no-op: byte-identical to a run
        //    with no harness at all.
        let plain = base(&wafer, &job, seed).build().expect("valid session").run();
        let disarmed = base(&wafer, &job, seed)
            .inject(Injection::seeded(seed))
            .build()
            .expect("valid session")
            .run();
        prop_assert_eq!(plain.to_json(), disarmed.to_json());
    }
}

/// A two-wafer node of shrunken wafers.
fn small_node(cfg_idx: usize) -> MultiWaferConfig {
    MultiWaferConfig {
        wafers: 2,
        wafer: small_wafer(cfg_idx),
        ..presets::multi_wafer_18()
    }
}

/// The kill/resume session: two shrunken wafers and a shrunken two-wafer
/// node, so checkpoints land on both sides of the session.
fn session(cfg_a: usize, cfg_b: usize, job: &TrainingJob, seed: u64) -> ExplorerBuilder {
    base(&small_wafer(cfg_a), job, seed)
        .wafer(small_wafer(cfg_b))
        .multi_wafer(small_node(cfg_b))
}

/// Whether every leg a checkpoint records as completed ran to the end.
/// A truncated completed leg is reused verbatim on resume by design —
/// resuming it resumes the *decision* to truncate — so only checkpoints
/// without one must reproduce the uninterrupted run.
fn completed_legs_are_complete(cp: &SearchCheckpoint) -> bool {
    cp.completed_single
        .iter()
        .all(|r| !r.outcome.is_truncated())
        && cp.completed_multi.iter().all(|r| !r.outcome.is_truncated())
}

proptest! {
    #[test]
    fn killing_at_any_checkpoint_then_resuming_matches_the_uninterrupted_run(
        cfg_idx in 1usize..5,
        cfg_other in 1usize..5,
        layers in 4usize..10,
        cap in 1usize..40,
        pick in 0usize..64,
        seed in 0u64..1_000_000,
        fault_aware in 0u8..2,
    ) {
        let job = small_job(layers);
        // With the fault-aware objective on, both single-wafer legs rank
        // by ensemble effective seconds, and a resume that reuses a
        // completed leg must re-score its winner to the same value.
        let session = |a, b, job: &TrainingJob, seed| match fault_aware {
            0 => session(a, b, job, seed),
            _ => session(a, b, job, seed)
                .fault_aware(FaultEnsemble::clustered(0.2, 2, seed), RobustObjective::Mean),
        };

        // The uninterrupted reference run.
        let full = session(cfg_idx, cfg_other, &job, seed).build().expect("valid session").run();

        // The "killed" run: an evaluation cap plays the part of the
        // kill, with a checkpoint written at every wave so the kill
        // point lands at an arbitrary depth of any leg.
        let sink = Arc::new(MemorySink::new());
        let killed = session(cfg_idx, cfg_other, &job, seed)
            .budget(SearchBudget::none().max_evaluations(cap))
            .checkpoint_every(1, sink.clone())
            .build()
            .expect("valid session")
            .run();
        let k = killed.search_stats().merge(killed.multi_wafer_search_stats());
        prop_assert_eq!(k.visited, k.pruned + k.evaluated + k.skipped);
        if killed.truncated() {
            prop_assert!(k.evaluated >= cap, "truncation fired before the cap");
        } else {
            prop_assert_eq!(k.skipped, 0, "a complete run skips nothing");
            prop_assert_eq!(killed.to_json(), full.to_json());
        }

        // Resume a budget-free twin from an arbitrary snapshot — a
        // mid-leg wave frontier on either side, or a leg boundary — whose
        // completed legs all ran to the end: the session must converge
        // to the uninterrupted run bit-for-bit.
        let resumable: Vec<SearchCheckpoint> = sink
            .all()
            .into_iter()
            .filter(completed_legs_are_complete)
            .collect();
        if !resumable.is_empty() {
            let cp = &resumable[pick % resumable.len()];
            // The snapshot itself must round-trip through JSON — it is
            // the unit of session persistence.
            let text = serde::json::to_text(&cp.to_value());
            let back = SearchCheckpoint::from_value(
                &serde::json::from_text(&text).expect("checkpoint json parses"),
            )
            .expect("checkpoint deserializes");
            prop_assert_eq!(&back, cp);

            let resumed = session(cfg_idx, cfg_other, &job, seed)
                .build()
                .expect("valid session")
                .resume(&back)
                .expect("the checkpoint belongs to this session");
            prop_assert_eq!(resumed.to_json(), full.to_json());
        }
    }
}

/// The kill/resume property must reach both sides of the session: the
/// uncapped checkpointed run emits a multi-wafer wave frontier, and
/// resuming from it, or from the final leg boundary (which reuses every
/// completed leg, `completed_multi` included), reproduces the run.
#[test]
fn resuming_reaches_the_multi_wafer_side() {
    let job = small_job(6);
    let full = session(2, 3, &job, 11)
        .build()
        .expect("valid session")
        .run();
    assert!(
        full.multi_wafer[0].stats.evaluated > 0,
        "the node leg evaluated nothing"
    );
    let sink = Arc::new(MemorySink::new());
    let run = session(2, 3, &job, 11)
        .checkpoint_every(1, sink.clone())
        .build()
        .expect("valid session");
    assert_eq!(run.run().to_json(), full.to_json());
    let all = sink.all();
    let multi_frontier = all
        .iter()
        .find(|cp| cp.frontier.as_ref().is_some_and(|f| f.multi))
        .expect("a wave checkpoint inside the node leg");
    let last = all.last().expect("leg-boundary snapshots");
    assert_eq!(last.completed_multi.len(), 1);
    assert!(last.frontier.is_none());
    for cp in [multi_frontier, last] {
        let resumed = run
            .resume(cp)
            .expect("the checkpoint belongs to this session");
        assert_eq!(resumed.to_json(), full.to_json());
    }
}

/// A checkpoint from another session is refused with a typed error
/// instead of being spliced into this session's report.
#[test]
fn resume_rejects_a_checkpoint_from_another_session() {
    let job = small_job(6);
    let sink = Arc::new(MemorySink::new());
    session(2, 3, &job, 11)
        .checkpoint_every(1, sink.clone())
        .build()
        .expect("valid session")
        .run();
    let last = sink.last().expect("leg-boundary snapshot");

    let other_seed = session(2, 3, &job, 12).build().expect("valid session");
    assert_eq!(
        other_seed.resume(&last),
        Err(ExplorationError::CheckpointSeedMismatch {
            checkpoint: 11,
            session: 12,
        })
    );
    let other_wafers = session(3, 2, &job, 11).build().expect("valid session");
    assert_eq!(
        other_wafers.resume(&last),
        Err(ExplorationError::CheckpointLegMismatch {
            side: "single-wafer".into(),
            index: 0,
        })
    );
    let mut other_node = last.clone();
    other_node.completed_multi[0].node.wafers = 3;
    let same = session(2, 3, &job, 11).build().expect("valid session");
    assert_eq!(
        same.resume(&other_node),
        Err(ExplorationError::CheckpointLegMismatch {
            side: "multi-wafer".into(),
            index: 0,
        })
    );
    // A session with fewer candidates than the checkpoint completed.
    let fewer = base(&small_wafer(2), &job, 11)
        .build()
        .expect("valid session");
    assert_eq!(
        fewer.resume(&last),
        Err(ExplorationError::CheckpointLegMismatch {
            side: "single-wafer".into(),
            index: 1,
        })
    );
}

/// Guard against a vacuous fixture: the shrunken-wafer sessions the
/// properties above run must actually visit and evaluate candidates,
/// otherwise every property holds trivially.
#[test]
fn shrunken_fixture_searches_a_real_space() {
    let wafer = small_wafer(2);
    let job = small_job(6);
    let report = base(&wafer, &job, 42).build().expect("valid session").run();
    let s = report.search_stats();
    assert!(s.visited > 0, "no candidates visited");
    assert!(s.evaluated > 0, "no candidates evaluated");
}

/// Guard against a silently disconnected harness: a high-rate seeded
/// storm over the fixture must actually produce isolated incidents —
/// otherwise "no failed candidate is ever crowned" holds vacuously.
#[test]
fn high_rate_storms_actually_produce_incidents() {
    quiet_panics();
    let wafer = small_wafer(2);
    let job = small_job(6);
    let report = base(&wafer, &job, 7)
        .inject(Injection::seeded(7).panics(0.95))
        .build()
        .expect("valid session")
        .run();
    assert!(
        !report.incidents().is_empty(),
        "a 95% panic storm produced no incidents: the harness is not wired in"
    );
}
