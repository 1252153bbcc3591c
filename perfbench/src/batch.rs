//! Offline batch phase: every input in batches of 64 through
//! `InferenceModel::predict_batch`. The models take turns in chunks of
//! [`CHUNK`] batches, like the stream phase's windows, and the canaries
//! timed on every worker thread between chunks put each chunk's time on the
//! nominal host-speed scale of its model's canary (see [`crate::canary`]).

use std::time::{Duration, Instant};

use crate::canary;
use crate::procfs;
use crate::setup::{Deployment, Replica};
use crate::stats::{median, Ledger};
use crate::workload::{key, BATCH, MODELS};

/// Batches one model runs before the next model's turn.
pub const CHUNK: usize = 2;

/// Per-chunk times of each model plus `/proc` counters over the phase.
#[derive(Debug, Default)]
pub struct BatchResult {
    /// `[model][chunk]` seconds of one chunk of `CHUNK * BATCH` images, on
    /// the canary's nominal scale.
    pub chunk_s: Vec<Vec<f64>>,
    /// `[model][chunk]` the same times as measured.
    pub raw_chunk_s: Vec<Vec<f64>>,
    /// Batch calls made.
    pub batches: u64,
    /// Context switches of the calling thread during batch calls.
    pub ctx_switches: u64,
    /// Process CPU seconds during batch calls.
    pub cpu_s: f64,
    /// Wall seconds of batch calls.
    pub wall_s: f64,
}

impl BatchResult {
    /// Median over model `m`'s chunks of the chunk's images per second, on
    /// the nominal scale, or as measured when `raw`.
    pub fn images_per_s(&self, m: usize, raw: bool) -> f64 {
        let chunks = if raw {
            &self.raw_chunk_s
        } else {
            &self.chunk_s
        };
        let per_chunk: Vec<f64> = chunks[m]
            .iter()
            .map(|s| (CHUNK * BATCH) as f64 / s)
            .collect();
        median(&per_chunk)
    }
}

/// Run rounds over all inputs until `budget` has passed (at least
/// `min_rounds`). Round `r` runs on replica `r % replicas.len()`, and its
/// chunk `c` is served by the models in an order rotated by `c`. Every
/// prediction is checked against the set-up's reference.
pub fn run(
    dep: &Deployment,
    replicas: &mut [Replica],
    budget: Duration,
    min_rounds: usize,
    ledger: &mut Ledger,
) -> BatchResult {
    let n = MODELS.len();
    let mut result = BatchResult {
        chunk_s: vec![Vec::new(); n],
        raw_chunk_s: vec![Vec::new(); n],
        ..BatchResult::default()
    };
    // A batch call splits its rows over this many threads.
    let threads = tensor::parallel::max_threads();
    let canary = canary::shared();
    let mut before = canary.sample_parallel(threads);
    let mut wrong = vec![0u64; n];
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed() < budget {
        replicas[round % replicas.len()].serve(|models, _| {
            for (c, first) in (0..dep.batches.len()).step_by(CHUNK).enumerate() {
                for j in 0..n {
                    let m = (c + round + j) % n;
                    let model = &mut models[m];
                    let reference = &dep.reference[m];
                    let chunk = &dep.batches[first..first + CHUNK];
                    let (ctx0, cpu0) = (procfs::ctx_switches(), procfs::cpu_seconds());
                    let t0 = Instant::now();
                    for (b, x) in chunk.iter().enumerate() {
                        let pred = model.predict_batch(x);
                        let row = (first + b) * BATCH;
                        if pred[..] != reference[row..row + BATCH] {
                            wrong[m] += 1;
                        }
                    }
                    let wall = t0.elapsed().as_secs_f64();
                    let (ctx1, cpu1) = (procfs::ctx_switches(), procfs::cpu_seconds());
                    let after = canary.sample_parallel(threads);
                    let kind = canary::kind_of(MODELS[m]);
                    result.raw_chunk_s[m].push(wall);
                    result.chunk_s[m].push(wall * before.mean(after).factor(kind));
                    before = after;
                    result.batches += CHUNK as u64;
                    result.wall_s += wall;
                    if let (Some(a), Some(b)) = (ctx0, ctx1) {
                        result.ctx_switches += b - a;
                    }
                    if let (Some(a), Some(b)) = (cpu0, cpu1) {
                        result.cpu_s += b - a;
                    }
                }
            }
        });
        round += 1;
    }
    for (m, &bad) in wrong.iter().enumerate() {
        ledger.record_many(result.chunk_s[m].len() as u64 * CHUNK as u64, bad, || {
            format!(
                "{}: {bad} batch predictions differ from the reference",
                key(MODELS[m])
            )
        });
    }
    result
}
