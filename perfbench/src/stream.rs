//! Closed-loop batch-1 phase: one client replays the same request sequence
//! through `InferenceModel::predict_batch` and sends each request only when
//! the previous one returned. The three models take turns in windows of
//! [`WINDOW`] requests, and both canaries are timed between windows (see
//! [`crate::canary`]).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::canary::{self, Floor};
use crate::setup::{Deployment, Replica};
use crate::stats::{quantile_sorted, Ledger};
use crate::trace::{SpanKind, SpanProbe};
use crate::workload::{key, MODELS, N_STREAM};

/// Requests one model serves before the next model's turn.
pub const WINDOW: usize = 128;
/// Step by which the window boundaries move from one replay to the next.
/// The first requests after a model's turn begins run on cold caches; with
/// moving boundaries no request is always among them.
const WINDOW_SHIFT: usize = 37;

/// Each request's fastest latency over the replays, per model.
#[derive(Debug, Default)]
pub struct StreamResult {
    /// `[model][request]` the request's fastest latency over the replays,
    /// µs, as measured.
    pub fastest: Vec<Vec<f64>>,
    /// Replays of the request sequence.
    pub rounds: usize,
    /// Canary floor over the replays.
    pub floor: Floor,
}

impl StreamResult {
    /// Merge another result's replays into this one.
    pub fn extend(&mut self, other: StreamResult) {
        if self.fastest.is_empty() {
            *self = other;
            return;
        }
        for (mine, theirs) in self.fastest.iter_mut().zip(other.fastest) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a = a.min(b);
            }
        }
        self.rounds += other.rounds;
        self.floor.merge(&other.floor);
    }

    /// Latencies model `m` measured.
    pub fn samples(&self, m: usize) -> usize {
        self.fastest.get(m).map_or(0, Vec::len) * self.rounds
    }

    /// Quantile `q` over the requests of model `m`'s fastest latencies, µs:
    /// on the nominal scale of the model's canary, and as measured.
    ///
    /// Every replay sends the same requests, so a request's fastest replay
    /// is its service time with the host's disturbances (the slow state,
    /// interrupts, preemption) left out, and the quantiles over requests
    /// are those of the request mix.
    pub fn latency_us(&self, m: usize, q: f64) -> (f64, f64) {
        let mut v = self.fastest[m].clone();
        v.sort_by(f64::total_cmp);
        let raw = quantile_sorted(&v, q);
        (raw * self.floor.factor(canary::kind_of(MODELS[m])), raw)
    }
}

/// Replay the request sequence until `budget` has passed (at least
/// `min_rounds` replays, at most `max_rounds`). Replay `r` runs on replica
/// `r % replicas.len()`, its windows start `WINDOW_SHIFT * r` requests
/// later than replay 0's (wrapping round), and its window `w` is served by
/// the models in an order rotated by `w`, each turn after a canary sample.
/// Every prediction is checked against the batch-64 reference for the same
/// input.
pub fn run(
    dep: &Deployment,
    replicas: &mut [Replica],
    budget: Duration,
    min_rounds: usize,
    max_rounds: usize,
    probe: Option<&SpanProbe>,
    ledger: &mut Ledger,
) -> StreamResult {
    let n = MODELS.len();
    let mut result = StreamResult {
        fastest: vec![vec![f64::INFINITY; N_STREAM]; n],
        ..StreamResult::default()
    };
    let canary = canary::shared();
    let mut wrong = vec![0u64; n];
    let start = Instant::now();
    while result.rounds < max_rounds && (result.rounds < min_rounds || start.elapsed() < budget) {
        let round = result.rounds;
        let replica = &mut replicas[round % replicas.len()];
        let shift = round * WINDOW_SHIFT % WINDOW;
        replica.serve(|models, singles| {
            for w in 0..N_STREAM / WINDOW {
                for j in 0..n {
                    result.floor.add(w * n + j, canary.sample());
                    let m = (w + round + j) % n;
                    let model = &mut models[m];
                    for k in 0..WINDOW {
                        let i = (shift + w * WINDOW + k) % N_STREAM;
                        let (x, expected) = (&singles[i], dep.reference[m][i]);
                        let request = probe.map(|p| p.begin(SpanKind::Request, m as u8));
                        let t0 = Instant::now();
                        let call = probe.map(|p| p.begin(SpanKind::Predict, m as u8));
                        let pred = model.predict_batch(black_box(x));
                        if let (Some(p), Some(id)) = (probe, call) {
                            p.end(id);
                        }
                        let best = &mut result.fastest[m][i];
                        *best = best.min(t0.elapsed().as_nanos() as f64 / 1e3);
                        if pred.len() != 1 || pred[0] != expected {
                            wrong[m] += 1;
                        }
                        if let (Some(p), Some(id)) = (probe, request) {
                            p.end(id);
                        }
                    }
                }
            }
        });
        result.rounds += 1;
    }
    let round = result.rounds;
    for (m, &bad) in wrong.iter().enumerate() {
        ledger.record_many(N_STREAM as u64 * round as u64, bad, || {
            format!(
                "{}: {bad} batch-1 predictions differ from batch-64",
                key(MODELS[m])
            )
        });
    }
    result
}
