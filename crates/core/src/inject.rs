//! Deterministic fault-injection harness for the resilience layer.
//!
//! **Test/bench-only API.** Production searches never construct an
//! [`Injection`]; the engine only consults one when a caller explicitly
//! threads it in via `Explorer::builder().inject(..)` (the `bench_search
//! --inject-smoke` scenario and the `tests/resilience.rs` proptests).
//! With no injection attached, every code path here is dead and a run is
//! byte-identical to an injection-free build.
//!
//! Every decision is a pure function of `(seed, fault class, candidate
//! key)` through SplitMix64 — the same per-item stream construction the
//! GA and the yield ensembles use — so an injection schedule is
//! *reproducible*: the same seed panics the same candidates, delays the
//! same candidates and corrupts the same cache entries at any thread
//! count, in the pruned and the exhaustive sweep alike. That is what
//! lets the resilience proptests assert exact invariants ("the winner is
//! never a failed candidate", "resume ≡ uninterrupted") instead of
//! reasoning statistically.
//!
//! Three fault classes are injected:
//!
//! * **Seeded panics** — a candidate evaluation panics before running.
//!   The wave engine's `catch_unwind` isolation must convert it into a
//!   [`CandidateFailure`](crate::CandidateFailure) record and keep
//!   searching.
//! * **Artificial delays** — a candidate evaluation sleeps first,
//!   shuffling wall-clock completion order across threads without
//!   touching results; determinism must survive it.
//! * **Cache corruption / poisoning** — `Injection::build_cache` arms
//!   the [`ProfileCache`]'s entry-checksum validation and corrupts a
//!   seeded fraction of stage-profile inserts (detected on the next hit
//!   and recovered by rebuild); [`Injection::poison_cache`] poisons a
//!   shard lock outright, exercising the clear-and-count poison
//!   recovery path.

use crate::cache::ProfileCache;
use crate::stats::splitmix64;
use crate::wave::PlanKey;

/// Domain separators so the panic, delay and corruption streams of one
/// seed are decorrelated.
const DOMAIN_PANIC: u64 = 0x50414e49; // "PANI"
const DOMAIN_DELAY: u64 = 0x44454c41; // "DELA"
const DOMAIN_CORRUPT: u64 = 0x434f5252; // "CORR"

/// Fold a work-item tie-break key into one u64 injection index.
fn fold_key(key: PlanKey) -> u64 {
    splitmix64(
        (key.tp as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (key.pp as u64),
        ((key.sidx as u64) << 32) | key.pidx as u64,
    )
}

/// A deterministic fault-injection schedule (see the module docs).
///
/// Rates are probabilities in `[0, 1]` evaluated independently per
/// candidate (or per cache entry); `0.0` disables a class. The default
/// (`Injection::seeded(seed)`) injects nothing — arm classes with the
/// builder methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Base seed for every decision stream.
    pub seed: u64,
    /// Fraction of candidate evaluations that panic.
    pub panic_rate: f64,
    /// Fraction of candidate evaluations that sleep first.
    pub delay_rate: f64,
    /// Sleep length for delayed candidates, in microseconds.
    pub delay_micros: u64,
    /// Fraction of stage-profile cache inserts written corrupted (the
    /// checksum of the *correct* value is stored alongside, so the next
    /// hit detects the mismatch and rebuilds).
    pub corrupt_rate: f64,
    /// Poison the cache's stage shard lock before the search starts,
    /// forcing the clear-and-count recovery path on first access.
    pub poison_cache: bool,
}

impl Injection {
    /// An injection schedule that injects nothing yet.
    pub fn seeded(seed: u64) -> Self {
        Injection {
            seed,
            panic_rate: 0.0,
            delay_rate: 0.0,
            delay_micros: 0,
            corrupt_rate: 0.0,
            poison_cache: false,
        }
    }

    /// Panic the given fraction of candidate evaluations.
    pub fn panics(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sleep `micros` µs before the given fraction of evaluations.
    pub fn delays(mut self, rate: f64, micros: u64) -> Self {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay_micros = micros;
        self
    }

    /// Corrupt the given fraction of stage-profile cache inserts.
    pub fn corruption(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Poison the stage shard's lock before the search runs.
    pub fn poisoning(mut self) -> Self {
        self.poison_cache = true;
        self
    }

    /// Whether any fault class is armed.
    pub fn is_armed(&self) -> bool {
        self.panic_rate > 0.0
            || self.delay_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.poison_cache
    }

    /// One Bernoulli draw: does the fault class seeded by `domain` fire
    /// for injection index `key`? Pure in `(seed, domain, key, rate)`.
    fn decide(&self, domain: u64, key: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let draw = splitmix64(self.seed ^ domain, key);
        // Map the top 53 bits to [0, 1) — exact on f64.
        ((draw >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    /// Whether the stage-profile insert for cache index `key` is written
    /// corrupted.
    pub(crate) fn corrupts(&self, key: u64) -> bool {
        self.decide(DOMAIN_CORRUPT, key, self.corrupt_rate)
    }

    /// Apply the per-candidate faults for the work item with tie-break
    /// key `key`: sleep if the delay stream fires, then panic if the
    /// panic stream fires. Called by the wave engine inside its
    /// `catch_unwind` guard, before the real evaluation.
    pub(crate) fn apply(&self, key: PlanKey) {
        let k = fold_key(key);
        if self.decide(DOMAIN_DELAY, k, self.delay_rate) {
            std::thread::sleep(std::time::Duration::from_micros(self.delay_micros));
        }
        if self.decide(DOMAIN_PANIC, k, self.panic_rate) {
            // wsc-lint: allow(S001, "the harness's one job is to panic: callers opt in explicitly and the wave engine's catch_unwind converts it into a CandidateFailure record")
            // The payload lands in `CandidateFailure` records of reports
            // and checkpoints, so its text stays stable.
            panic!(
                "wsc-inject: seeded panic for candidate key ({}, {}, {}, {})",
                key.tp, key.pp, key.sidx, key.pidx
            );
        }
    }

    /// A [`ProfileCache`] with this schedule's corruption stream armed
    /// (and the shard poisoned, if requested): entry-checksum validation
    /// is on, and the configured fraction of stage-profile inserts is
    /// written corrupted.
    pub(crate) fn build_cache(&self) -> ProfileCache {
        let cache = if self.corrupt_rate > 0.0 {
            ProfileCache::with_corruption(*self)
        } else {
            ProfileCache::new()
        };
        if self.poison_cache {
            cache.poison_stages();
        }
        cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_sensitive() {
        let inj = Injection::seeded(7).panics(0.5);
        let fired: Vec<bool> = (0..64)
            .map(|i| inj.decide(DOMAIN_PANIC, i, inj.panic_rate))
            .collect();
        let again: Vec<bool> = (0..64)
            .map(|i| inj.decide(DOMAIN_PANIC, i, inj.panic_rate))
            .collect();
        assert_eq!(fired, again, "same seed, same schedule");
        let hits = fired.iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&hits), "rate 0.5 should land near half");
        let other: Vec<bool> = (0..64)
            .map(|i| {
                Injection::seeded(8)
                    .panics(0.5)
                    .decide(DOMAIN_PANIC, i, 0.5)
            })
            .collect();
        assert_ne!(fired, other, "seed must matter");
    }

    #[test]
    fn rate_endpoints_are_exact() {
        let never = Injection::seeded(3);
        let always = Injection::seeded(3).panics(1.0);
        assert!((0..100).all(|i| !never.decide(DOMAIN_PANIC, i, never.panic_rate)));
        assert!((0..100).all(|i| always.decide(DOMAIN_PANIC, i, always.panic_rate)));
        assert!(!never.is_armed());
        assert!(always.is_armed());
    }

    #[test]
    fn domains_are_decorrelated() {
        let inj = Injection::seeded(11).panics(0.5).delays(0.5, 1);
        let panics: Vec<bool> = (0..256).map(|i| inj.decide(DOMAIN_PANIC, i, 0.5)).collect();
        let delays: Vec<bool> = (0..256).map(|i| inj.decide(DOMAIN_DELAY, i, 0.5)).collect();
        assert_ne!(panics, delays, "fault classes must draw different streams");
    }

    #[test]
    fn injected_panic_carries_the_marker() {
        let inj = Injection::seeded(0).panics(1.0);
        let key = PlanKey {
            tp: 1,
            pp: 2,
            sidx: 0,
            pidx: 0,
        };
        let err = std::panic::catch_unwind(|| inj.apply(key)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("wsc-inject"), "payload: {msg}");
        assert!(msg.ends_with("key (1, 2, 0, 0)"), "payload: {msg}");
    }
}
