//! The fixed workloads and the scale every run shares.
//!
//! Each workload is one traffic scenario: a dataset family, the hard-input
//! fraction of the requests, and whether the fleet phase performs a rolling
//! deploy. Every run measures all three phases (closed-loop batch-1 stream,
//! batch-64 offline, simulated fleet) on its scenario's inputs; see
//! `perfbench/README.md` for why each workload exists.

use cbnet::ModelKind;
use datasets::Family;

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Dataset family the models train on and the requests come from.
    pub family: Family,
    /// Hard fraction of the request inputs; `None` is the family default.
    pub hard_fraction: Option<f32>,
    /// Whether the fleet phase hot-swaps every tier to a checkpoint loaded
    /// back from the model store, one tier at a time.
    pub rollout: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "edge_stream",
        family: Family::KmnistLike,
        hard_fraction: Some(0.8),
        rollout: false,
    },
    Workload {
        name: "batch_offline",
        family: Family::MnistLike,
        hard_fraction: None,
        rollout: false,
    },
    Workload {
        name: "fleet_rollout",
        family: Family::FmnistLike,
        hard_fraction: None,
        rollout: true,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The three comparators every phase measures, in metric order.
pub const MODELS: [ModelKind; 3] = [ModelKind::LeNet, ModelKind::BranchyNet, ModelKind::Cbnet];

/// Metric-name prefix of a comparator.
pub fn key(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::LeNet => "lenet",
        ModelKind::BranchyNet => "branchynet",
        ModelKind::Cbnet => "cbnet",
        ModelKind::AdaDeep => "adadeep",
        ModelKind::SubFlow => "subflow",
    }
}

/// Training images per set-up (2000 images and 3 epochs put every model
/// well above chance; 1000 and 2 left CBNet near chance).
pub const N_TRAIN: usize = 2000;
/// Training epochs per model.
pub const EPOCHS: usize = 3;
/// Held-out images generated with the training split (unused by the
/// phases, which draw their own request inputs).
pub const N_TEST: usize = 100;
/// Request inputs generated per run.
pub const N_INPUTS: usize = 2048;
/// Requests one stream round replays at batch 1 (the first `N_STREAM`
/// inputs).
pub const N_STREAM: usize = 1024;
/// Batch size of the offline phase.
pub const BATCH: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
