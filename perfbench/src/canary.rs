//! Host-speed canaries: fixed pieces of benchmark-owned work, timed between
//! the measured units so that timings can be put on one host-speed scale.
//!
//! On a shared host a core switches between a fast state and a slow one
//! (another tenant busy on the same physical core) within milliseconds, and
//! the share of a run spent in each drifts over minutes, so raw timings of
//! the same code differ by tens of percent from run to run. A time `t`
//! measured while a canary took `c` is reported as `t * NOMINAL / c`: the
//! time on a host where the canary takes its nominal time. Two ways of
//! pairing `t` with `c` are used:
//!
//! * *floor*: `t` is a unit's fastest repetition and `c` the canary's
//!   [`Floor`] over the same phase. Both land in the fast state when the
//!   phase saw it, and both in the slow state when it did not.
//! * *adjacent*: `c` is the mean of the samples timed just before and just
//!   after the unit, for units too long to run wholly in one state.
//!
//! How much code slows in the slow state depends on what bounds it, so
//! there are two canaries: [`Kind::Compute`] is throughput-bound
//! multiply-adds on L1-resident operands (what the conv kernels of LeNet
//! and BranchyNet do), [`Kind::Memory`] streams a matrix from L2 (what
//! CBNet's dense autoencoder does). The canaries never call the
//! repository's crates, so no change to the program under test changes
//! them.

use std::hint::black_box;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// Which canary a metric is put on the scale of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Multiply-adds on L1-resident operands.
    Compute,
    /// A matrix-vector product streaming a 256 KiB matrix from L2.
    Memory,
}

/// Nominal time of the compute canary, µs: about its floor on an
/// undisturbed vCPU of a 2.1 GHz Intel Xeon (Sapphire Rapids), so timings
/// scaled by a floor read close to undisturbed raw ones there.
const NOMINAL_COMPUTE_US: f64 = 60.0;
/// Nominal time of the memory canary, µs, chosen the same way.
const NOMINAL_MEMORY_US: f64 = 37.0;

/// Elements of each L1-resident vector of the compute canary (2 × 8 KiB).
const COMPUTE_LEN: usize = 2048;
/// Passes of the compute canary over its vectors.
const COMPUTE_PASSES: usize = 400;
/// Columns of the memory canary's matrix (an image's pixels).
const COLS: usize = 784;
/// Rows of the memory canary's matrix (84 × 784 × 4 B ≈ 256 KiB).
const ROWS: usize = 84;
/// Matrix-vector products per memory canary.
const MEMORY_REPS: usize = 6;

/// One timing of both canaries, µs.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The compute canary.
    pub compute_us: f64,
    /// The memory canary.
    pub memory_us: f64,
}

impl Sample {
    const INFINITE: Sample = Sample {
        compute_us: f64::INFINITY,
        memory_us: f64::INFINITY,
    };

    fn zip(self, other: Sample, f: impl Fn(f64, f64) -> f64) -> Sample {
        Sample {
            compute_us: f(self.compute_us, other.compute_us),
            memory_us: f(self.memory_us, other.memory_us),
        }
    }

    fn max(self, other: Sample) -> Sample {
        self.zip(other, f64::max)
    }

    fn min(self, other: Sample) -> Sample {
        self.zip(other, f64::min)
    }

    /// The mean of two samples.
    pub fn mean(self, other: Sample) -> Sample {
        self.zip(other, |a, b| 0.5 * (a + b))
    }

    /// Factor that puts a time measured while the canaries took this
    /// sample on the nominal scale: multiply times by it, divide rates by
    /// it.
    pub fn factor(self, kind: Kind) -> f64 {
        match kind {
            Kind::Compute => NOMINAL_COMPUTE_US / self.compute_us,
            Kind::Memory => NOMINAL_MEMORY_US / self.memory_us,
        }
    }
}

/// The canaries' floor over a phase, robust to a single lucky sample: the
/// phase's samples fall into slots (the same point of every round), each
/// slot keeps its fastest sample, and the floor is the median over slots.
#[derive(Debug, Clone, Default)]
pub struct Floor(Vec<Sample>);

impl Floor {
    /// Take a sample timed at `slot` into the floor.
    pub fn add(&mut self, slot: usize, s: Sample) {
        if self.0.len() <= slot {
            self.0.resize(slot + 1, Sample::INFINITE);
        }
        self.0[slot] = self.0[slot].min(s);
    }

    /// Take another phase's floor into this one, slot by slot.
    pub fn merge(&mut self, other: &Floor) {
        for (slot, &s) in other.0.iter().enumerate() {
            self.add(slot, s);
        }
    }

    /// Factor that puts a unit's fastest repetition in this phase on the
    /// nominal scale.
    pub fn factor(&self, kind: Kind) -> f64 {
        let mut us: Vec<f64> = self.0.iter().map(|&s| 1.0 / s.factor(kind)).collect();
        us.sort_by(f64::total_cmp);
        match us.get(us.len() / 2) {
            Some(&median) => 1.0 / median,
            None => 1.0,
        }
    }
}

/// The canaries' inputs, allocated once.
pub struct Canary {
    a: Vec<f32>,
    b: Vec<f32>,
    matrix: Vec<f32>,
    x: Vec<f32>,
}

impl Canary {
    fn new() -> Self {
        let fill = |n: usize, m: usize, step: f32| -> Vec<f32> {
            (0..n).map(|i| (i % m) as f32 * step - 1.0).collect()
        };
        Canary {
            a: fill(COMPUTE_LEN, 17, 0.125),
            b: fill(COMPUTE_LEN, 13, 0.0625),
            matrix: fill(ROWS * COLS, 31, 0.0625),
            x: fill(COLS, 7, 0.25),
        }
    }

    /// Time both canaries once on the calling thread.
    pub fn sample(&self) -> Sample {
        let t0 = Instant::now();
        let (a, b) = (black_box(&self.a[..]), black_box(&self.b[..]));
        let mut acc = [0f32; 16];
        for _ in 0..COMPUTE_PASSES {
            for (x, y) in a.chunks_exact(16).zip(b.chunks_exact(16)) {
                for k in 0..16 {
                    acc[k] += x[k] * y[k];
                }
            }
        }
        black_box(acc);
        let compute_us = t0.elapsed().as_nanos() as f64 / 1e3;

        let t0 = Instant::now();
        let (w, x) = (black_box(&self.matrix[..]), black_box(&self.x[..]));
        for _ in 0..MEMORY_REPS {
            for row in w.chunks_exact(COLS) {
                let mut acc = [0f32; 16];
                for (r, v) in row.chunks_exact(16).zip(x.chunks_exact(16)) {
                    for k in 0..16 {
                        acc[k] += r[k] * v[k];
                    }
                }
                black_box(acc);
            }
        }
        let memory_us = t0.elapsed().as_nanos() as f64 / 1e3;
        Sample {
            compute_us,
            memory_us,
        }
    }

    /// Both canaries on each of `threads` threads at once (the calling
    /// thread and `threads - 1` scoped ones, released together); each
    /// canary at its slowest thread, since a parallel call ends with its
    /// slowest share.
    pub fn sample_parallel(&self, threads: usize) -> Sample {
        if threads <= 1 {
            return self.sample();
        }
        let start = Barrier::new(threads);
        std::thread::scope(|s| {
            let others: Vec<_> = (1..threads)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        self.sample()
                    })
                })
                .collect();
            start.wait();
            let mine = self.sample();
            others
                .into_iter()
                .map(|h| h.join().expect("a canary thread panicked"))
                .fold(mine, Sample::max)
        })
    }
}

/// The process's canaries, allocated on first use.
pub fn shared() -> &'static Canary {
    static CANARY: OnceLock<Canary> = OnceLock::new();
    CANARY.get_or_init(Canary::new)
}

/// The canary that times like `model`'s dominant kernel.
pub fn kind_of(model: cbnet::ModelKind) -> Kind {
    match model {
        cbnet::ModelKind::Cbnet => Kind::Memory,
        _ => Kind::Compute,
    }
}
