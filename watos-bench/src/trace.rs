//! In-memory spans for the traced run, and the checkpoint sink that
//! turns the wave engine's per-wave checkpoints into wave spans.
//!
//! Spans carry a name, start, end, parent and search id. They stay in
//! memory until the run ends and are then written out as JSON lines,
//! each with its self time: its duration minus the part of it that its
//! children cover.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use watos::{CheckpointSink, SearchCheckpoint};

/// Seconds since the start of the run.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Seconds since the clock's zero.
    pub fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Start, in seconds on the run's clock.
    pub start: f64,
    /// End, in seconds on the run's clock.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The search the span belongs to (0: the winner replays).
    pub search: u64,
}

/// The run's spans, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Record a span and return its index.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        (start, end): (f64, f64),
        parent: Option<usize>,
        search: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
            search,
        });
        self.spans.len() - 1
    }

    /// Close a span recorded with a provisional end.
    pub fn set_end(&mut self, id: usize, end: f64) {
        self.spans[id].end = end;
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children may overlap when they ran on
    /// different threads).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered).max(0.0)
            })
            .collect()
    }

    /// Total self time per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(String, f64, usize)> {
        let mut totals: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = totals.entry(&s.name).or_default();
            e.0 += t;
            e.1 += 1;
        }
        totals
            .into_iter()
            .map(|(n, (t, c))| (n.to_string(), t, c))
            .collect()
    }

    /// The spans as JSON lines after a `header` line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = format!("{header}\n");
        for (i, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            // `writeln!` into a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"parent\":{parent},\"search\":{}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                self_s * 1e6,
                s.search
            );
        }
        out
    }
}

/// What the wave sink saw during one search.
#[derive(Debug, Default)]
pub struct WaveLog {
    /// `(start, end, evaluated)` of each completed wave.
    pub waves: Vec<(f64, f64, usize)>,
    /// `(start, end)` of each leg's tail: from its last wave to the leg
    /// boundary (final pruning, GA refinement of the winner).
    pub tails: Vec<(f64, f64)>,
    last: f64,
    last_evaluated: usize,
}

/// A [`CheckpointSink`] that timestamps every checkpoint. With
/// `checkpoint_every(1, ..)` the wave engine writes one checkpoint per
/// completed wave plus one per leg boundary, so consecutive writes
/// bound the waves. The first wave of each leg also covers the leg's
/// bound phase.
pub struct WaveTimer {
    clock: Clock,
    log: Mutex<WaveLog>,
}

impl WaveTimer {
    /// A sink stamping on `clock`.
    pub fn new(clock: Clock) -> Self {
        WaveTimer {
            clock,
            log: Mutex::new(WaveLog::default()),
        }
    }

    /// Start a search at `now`; returns what the previous one saw.
    pub fn begin(&self, now: f64) -> WaveLog {
        let mut log = self.log.lock().expect("the wave log is never poisoned");
        let done = std::mem::take(&mut *log);
        log.last = now;
        done
    }
}

impl CheckpointSink for WaveTimer {
    fn write(&self, checkpoint: &SearchCheckpoint) {
        let now = self.clock.now();
        let mut log = self.log.lock().expect("the wave log is never poisoned");
        let start = log.last;
        match &checkpoint.frontier {
            Some(frontier) => {
                let evaluated = frontier.wave.stats.evaluated;
                let width = evaluated.saturating_sub(log.last_evaluated);
                log.waves.push((start, now, width));
                log.last_evaluated = evaluated;
            }
            None => {
                log.tails.push((start, now));
                log.last_evaluated = 0;
            }
        }
        log.last = now;
    }
}
