//! # swbench
//!
//! The repository benchmark. Four seeded workloads run the swsimd
//! crates through their public APIs, check every answer against an
//! oracle, and report end-to-end metrics; a traced run re-issues the
//! same work one layer call at a time inside spans and reports
//! per-layer metrics. See `README.md` for the workloads, the metrics and
//! how to read the output.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod pacer;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::time::{Duration, Instant};

use swsimd_core::{sw_scalar, Aligner, AlignerBuilder};
use swsimd_matrices::blosum62;

use crate::inputs::Sizes;
use crate::layers::Kernel;

/// Worker threads and client connections of every workload. Fixed
/// rather than read from the host so runs on different hosts do the
/// same work.
pub const THREADS: usize = 2;

/// The names `--workload` accepts, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["scan", "msa", "serve", "align"];

/// One workload run's settings.
#[derive(Clone, Debug)]
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measurement time after set-up.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

impl Run {
    /// Round clock of a measurement phase of the run's length,
    /// starting now.
    pub fn clock(&self) -> Clock {
        Clock::new(Duration::from_secs_f64(self.seconds))
    }
}

/// Decides whether another round fits in a measurement phase, so a run
/// ends close to its deadline instead of overrunning by a round.
pub struct Clock {
    end: Instant,
    started: Instant,
    last: Duration,
    rounds: usize,
}

impl Clock {
    /// A phase of length `span`, starting now.
    pub fn new(span: Duration) -> Self {
        let now = Instant::now();
        Self {
            end: now + span,
            started: now,
            last: Duration::ZERO,
            rounds: 0,
        }
    }

    /// Start the next round if it fits: the first two always run, later
    /// ones only if a round as long as the previous one ends in time.
    pub fn next_round(&mut self) -> bool {
        let now = Instant::now();
        if self.rounds > 0 {
            self.last = now - self.started;
        }
        self.started = now;
        let go = self.rounds < 2 || now + self.last <= self.end;
        self.rounds += usize::from(go);
        go
    }

    /// Rounds started so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// The aligner every workload searches with: the library defaults
/// (BLOSUM62, affine 11/1, adaptive precision, widest engine).
pub fn builder() -> AlignerBuilder {
    Aligner::builder().matrix(blosum62())
}

/// Set the program up `n` times, timing each; keeps the last state.
/// `input` makes each set-up's input outside the timed part; earlier
/// states are dropped only after the next set-up is timed.
pub fn repeat_setup<I, S>(
    n: usize,
    mut input: impl FnMut() -> I,
    mut setup: impl FnMut(I) -> S,
) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let i = input();
        let t = Instant::now();
        let s = setup(i);
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), times)
}

/// Number of `(query, target, claimed score)` triples whose score
/// differs from the scalar reference implementation.
pub fn scalar_mismatches(k: &Kernel, items: &[(&[u8], &[u8], i32)]) -> u64 {
    items
        .iter()
        .filter(|(q, t, claimed)| sw_scalar(q, t, &k.scoring, k.gaps).score != *claimed)
        .count() as u64
}

/// Logical cells of aligning `query` against every residue of a database.
pub fn cells(query: &[u8], residues: usize) -> u64 {
    query.len() as u64 * residues as u64
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
