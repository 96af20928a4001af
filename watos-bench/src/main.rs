//! watos-bench: the end-to-end and per-layer benchmark of the WATOS
//! `Explorer` search.
//!
//! ```text
//! cargo run -q --release --offline --manifest-path watos-bench/Cargo.toml -- \
//!     --workload dse-70b|node-405b|serve-longctx|fault-30b \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs as a closed loop: one caller issues back-to-back
//! `Explorer::run` searches in one process, with the search's thread
//! pool pinned to the machine's core count. Every search passes the
//! correctness gate in [`workloads::check_search`]. The last line of
//! standard output is one JSON object with the run's verdict and
//! metrics: the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics traced (`--trace 1`). See `README.md`.

mod audit;
mod heap;
mod replay;
mod trace;
mod traced;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use audit::AuditReport;
use trace::Clock;
use watos::ExplorationReport;
use workloads::{
    check_pinned, check_search, search_stats, setup, winner_figures, Session, Workload,
    DEFAULT_SEED,
};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The thread count and build every output records.
struct Env {
    nproc: usize,
    pool: usize,
    rustc: String,
    commit: String,
}

impl Env {
    fn detect(pool: usize) -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Env {
            nproc,
            pool,
            rustc,
            commit: git_commit(&root).unwrap_or_else(|| "unknown".into()),
        }
    }

    fn line(&self) -> String {
        format!(
            "env nproc={} pool={} rustc=\"{}\" commit={}",
            self.nproc, self.pool, self.rustc, self.commit
        )
    }
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run from an export that has no repository).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median seconds of some searches.
fn p50<'a>(searches: impl IntoIterator<Item = &'a Searched>) -> f64 {
    median(&searches.into_iter().map(Searched::secs).collect::<Vec<_>>())
}

/// The tail of a sample: the highest nearest-rank percentile with at
/// least ten samples above it, but never below the median. Returns the
/// value and the percentile it sits at.
fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    let idx = n.saturating_sub(11).max((n - 1) / 2);
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run measured and whether its outputs were correct.
#[derive(Default)]
struct Outcome {
    /// Searches issued.
    attempted: usize,
    /// Searches that failed the correctness gate.
    failed: usize,
    /// Every failed check, searches' and the run's own.
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value fails the run; keep the line JSON.
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.errors.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// One search as issued by [`Run::search`].
struct Searched {
    start: f64,
    end: f64,
    visited: usize,
    audit: AuditReport,
    /// Peak heap bytes the search held, when counted.
    heap_bytes: Option<usize>,
}

impl Searched {
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The run's clock, its first report and its verdict so far.
struct Run {
    clock: Clock,
    first_json: Option<String>,
    outcome: Outcome,
    /// Count the heap the next searches hold (which slows them).
    count_heap: bool,
}

impl Run {
    fn new() -> Self {
        Run {
            clock: Clock::start(),
            first_json: None,
            outcome: Outcome::default(),
            count_heap: false,
        }
    }

    /// [`Self::search_report`] without the report.
    fn search(&mut self, session: &Session) -> Searched {
        self.search_report(session).0
    }

    /// Issue one search on `session` and gate it against the run's
    /// first report. The first search's winner is also printed and, at
    /// the default seed, checked against the pinned winner.
    fn search_report(&mut self, session: &Session) -> (Searched, ExplorationReport) {
        let start = self.clock.now();
        let (report, heap_bytes) = if self.count_heap {
            let (report, bytes) = heap::peak_during(|| session.explorer.run());
            (report, Some(bytes))
        } else {
            (session.explorer.run(), None)
        };
        let end = self.clock.now();
        let audit = session
            .audit
            .as_ref()
            .map_or_else(AuditReport::default, |a| a.take());
        self.outcome.attempted += 1;

        let json = report.to_json();
        let first = self.first_json.as_deref();
        let mut verdict = check_search(session, &report, &json, first, audit.violations);
        if self.first_json.is_none() {
            let stats = search_stats(&report);
            println!(
                "plans visited {} pruned {} evaluated {} skipped {}",
                stats.visited, stats.pruned, stats.evaluated, stats.skipped
            );
            match winner_figures(session, &report) {
                Some(fig) => {
                    print_winner(&fig);
                    if session.seed == DEFAULT_SEED {
                        verdict = verdict.and_then(|()| check_pinned(session.workload, &fig));
                    }
                }
                None => verdict = Err("no winner to report".into()),
            }
            self.first_json = Some(json);
        }
        if let Err(e) = verdict {
            self.outcome.failed += 1;
            self.outcome.errors.push(e);
        }
        let searched = Searched {
            start,
            end,
            visited: search_stats(&report).visited,
            audit,
            heap_bytes,
        };
        (searched, report)
    }

    /// The closed loop: back-to-back searches until `budget` seconds
    /// have passed, and at least `min` of them. `between` runs after
    /// each search, outside its timing.
    fn closed_loop(
        &mut self,
        session: &Session,
        budget: f64,
        min: usize,
        mut between: impl FnMut(),
    ) -> Vec<Searched> {
        let begin = self.clock.now();
        let mut done: Vec<Searched> = Vec::new();
        loop {
            let secs: Vec<f64> = done.iter().map(Searched::secs).collect();
            let typical = if secs.is_empty() { 0.0 } else { median(&secs) };
            if done.len() >= min && self.clock.now() - begin + typical / 2.0 >= budget {
                return done;
            }
            done.push(self.search(session));
            between();
        }
    }
}

/// Print the winner's simulated figures (human-readable lines).
fn print_winner(fig: &workloads::WinnerFigures) {
    println!("winner {} on {}", fig.plan, fig.arch);
    println!("simulated winner_iter_s {} s", fig.iter_s);
    if let Some(g) = fig.goodput_flops {
        println!("simulated winner_goodput_flops {g} FLOP/s");
    }
    if let Some(s) = &fig.serving {
        println!("simulated winner_goodput_rps {} 1/s", s.goodput_rps);
        println!("simulated winner_ttft_p99_s {} s", s.ttft.p99);
        println!(
            "simulated slo_met {}/{} kv_peak_fraction {}",
            s.slo_met, s.requests, s.kv_peak_fraction
        );
    }
}

/// Samples the set-up cost in batches long enough for the clock to
/// resolve. Batches are spread over the whole run, so they see the same
/// machine as the searches do.
struct SetupSampler<'a> {
    args: &'a Args,
    clock: Clock,
    batch: usize,
    per_setup: Vec<f64>,
    count: usize,
}

impl<'a> SetupSampler<'a> {
    /// Grow the batch until it takes a millisecond, then take five
    /// samples.
    fn new(args: &'a Args) -> Self {
        let mut sampler = SetupSampler {
            args,
            clock: Clock::start(),
            batch: 1,
            per_setup: Vec::new(),
            count: 0,
        };
        while sampler.per_setup.len() < 5 {
            sampler.sample();
        }
        sampler
    }

    fn sample(&mut self) {
        let start = self.clock.now();
        for _ in 0..self.batch {
            drop(setup(self.args.workload, self.args.seed, None, None));
        }
        let dt = self.clock.now() - start;
        self.count += self.batch;
        if dt < 1e-3 {
            self.batch *= 2;
        } else {
            self.per_setup.push(dt / self.batch as f64);
        }
    }
}

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args, pool: usize) -> Outcome {
    let mut setups = SetupSampler::new(args);
    let session = setup(args.workload, args.seed, None, None);
    let mut run = Run::new();
    let done = run.closed_loop(&session, args.seconds, 3, || setups.sample());
    // One more search, untimed, to count the heap a search holds.
    run.count_heap = true;
    let heap_bytes = run.search(&session).heap_bytes.unwrap_or(0);
    let secs: Vec<f64> = done.iter().map(Searched::secs).collect();
    let visited: usize = done.iter().map(|s| s.visited).sum();
    let total: f64 = secs.iter().sum();
    let (tail_s, tail_pct) = tail(&secs);
    let n = secs.len();
    let mut outcome = run.outcome;
    println!("searches {n} over {total:.3} s at pool {pool}");
    println!("search_s_tail is p{tail_pct:.1} of n={n}");
    println!(
        "setup_s is the median over {} batches of {} set-ups in all",
        setups.per_setup.len(),
        setups.count
    );
    println!("peak resident set (VmHWM) {} MiB", peak_rss_mb());
    println!("search_heap_mb is counted on one more search, not timed");
    outcome.metric("search_s_p50", median(&secs), "s");
    outcome.metric("search_s_tail", tail_s, "s");
    outcome.metric("plans_per_s", visited as f64 / total, "1/s");
    outcome.metric("setup_s", median(&setups.per_setup), "s");
    outcome.metric(
        "search_heap_mb",
        heap_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("watos-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let pool = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The vendored rayon reads the pool size at every fan-out.
    std::env::set_var("RAYON_NUM_THREADS", pool.to_string());
    let env = Env::detect(pool);
    println!("{}", env.line());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        traced::run(&args, pool, &env)
    } else {
        untraced(&args, pool)
    };
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_ratio {} ({} of {} searches)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for f in &outcome.errors {
        eprintln!("watos-bench: FAILED: {f}");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
