//! Set-up: data generation, training, plan warm-up, model-store publish
//! and load, and fleet tier pricing. `setup_s` times all of it.

use std::time::Instant;

use cbnet::experiments::{ExperimentScale, TrainedFamily};
use cbnet::pipeline::train_pipeline;
use cbnet::{CbnetModel, InferenceModel, ModelKind, ModelRegistry, ModelStore, PipelineConfig};
use datasets::{generate, generate_pair, Dataset, GeneratorConfig};
use edgesim::{CostProfile, Device, DeviceModel};
use models::BranchyNet;
use nn::Network;
use runtime::{BranchyNetModel, ClassifierModel};
use tensor::Tensor;
use tensorstore::{SerializeTensors, TensorFile};

use crate::stats::Ledger;
use crate::workload::{Workload, BATCH, EPOCHS, MODELS, N_INPUTS, N_STREAM, N_TEST, N_TRAIN};

/// Devices of the fleet's three tiers: edge, cloud CPU, cloud GPU.
pub const TIER_DEVICES: [Device; 3] = [Device::RaspberryPi4, Device::GciCpu, Device::GciGpu];

/// The two comparators the fleet phase deploys, in metric order.
pub const FLEET_MODELS: [ModelKind; 2] = [ModelKind::Cbnet, ModelKind::BranchyNet];

/// Per-tier prices of one fleet model: as trained, and as loaded back from
/// the model store (what a rolling deploy swaps in).
#[derive(Debug, Clone)]
pub struct FleetPricing {
    /// Tier profiles of the trained model.
    pub profiles: Vec<CostProfile>,
    /// Tier profiles of the checkpoint loaded from the store.
    pub loaded_profiles: Vec<CostProfile>,
    /// Store version of that checkpoint.
    pub version: u64,
}

/// Everything the measured phases run on.
pub struct Deployment {
    /// The trained comparators.
    pub registry: ModelRegistry,
    /// The run's generated request inputs.
    pub inputs: Dataset,
    /// The first [`N_STREAM`] inputs as batch-1 requests.
    pub singles: Vec<Tensor>,
    /// All inputs as batches of [`BATCH`].
    pub batches: Vec<Tensor>,
    /// Batch-64 predictions of each model in [`MODELS`] over all inputs:
    /// the reference every later prediction is checked against.
    pub reference: Vec<Vec<usize>>,
    /// Fleet pricing of each model in [`FLEET_MODELS`].
    pub fleet: Vec<FleetPricing>,
    /// Checksum of the request inputs.
    pub inputs_checksum: u64,
    /// Checksum of the training images.
    pub train_checksum: u64,
}

/// Wall times of one set-up's stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Training split and request-input generation.
    pub datagen_s: f64,
    /// Training of every comparator.
    pub train_s: f64,
    /// Mean `ModelStore::publish_from` time over the fleet models.
    pub publish_us: f64,
    /// Mean time to fetch, parse and rebuild a published checkpoint.
    pub load_us: f64,
    /// Whole set-up.
    pub total_s: f64,
}

/// FNV-1a over the images' f32 bits and the labels.
pub fn checksum(d: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &v in d.images.data() {
        eat(u64::from(v.to_bits()));
    }
    for &l in &d.labels {
        eat(l as u64);
    }
    h
}

/// Seed of the training data and weights. It is fixed, not taken from
/// `--seed`: the deployed models are the system under test, and `--seed`
/// varies the requests they serve. Models trained from different seeds
/// differ in their BranchyNet exit threshold, which moves its latency
/// between its easy and hard modes and would swamp every other change.
pub const TRAIN_SEED: u64 = 0xCBAE;

/// Seed of the run's request inputs.
fn inputs_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1D5
}

/// Batch-`BATCH` predictions of one comparator over every batch.
pub fn predict_batches(model: &mut dyn InferenceModel, batches: &[Tensor]) -> Vec<usize> {
    batches
        .iter()
        .flat_map(|b| model.predict_batch(b))
        .collect()
}

/// Price `model` on every fleet tier from its per-input service times on
/// `x` — the same measurement `ModelRegistry::tier_profiles` makes.
fn tier_profiles(model: &mut dyn InferenceModel, x: &Tensor) -> Vec<CostProfile> {
    TIER_DEVICES
        .iter()
        .map(|&d| CostProfile::empirical(model.sample_costs(x, &DeviceModel::preset(d))))
        .collect()
}

/// Generate, train, warm up, publish and load; records the set-up checks
/// (store round trips predict identically) in `ledger`.
pub fn setup(w: &Workload, seed: u64, ledger: &mut Ledger) -> (Deployment, SetupTimes) {
    let t_start = Instant::now();
    let scale = ExperimentScale {
        n_train: N_TRAIN,
        n_test: N_TEST,
        epochs: EPOCHS,
        seed: TRAIN_SEED,
    };

    // Data: the training split and the run's request inputs.
    let t = Instant::now();
    let split = generate_pair(w.family, scale.n_train, scale.n_test, scale.seed);
    let inputs = generate(&GeneratorConfig {
        family: w.family,
        n: N_INPUTS,
        hard_fraction: w.hard_fraction,
        seed: inputs_seed(seed),
    });
    let datagen_s = t.elapsed().as_secs_f64();

    // Training, exactly as `cbnet::experiments::prepare_family` does it.
    let t = Instant::now();
    let mut cfg = PipelineConfig::for_family(w.family);
    cfg.branchy_train = scale.train_config();
    cfg.ae_train = scale.train_config();
    cfg.seed = scale.seed ^ w.family.seed_offset();
    let artifacts = train_pipeline(&split.train, &cfg);
    let mut rng = tensor::random::rng_from_seed(cfg.seed ^ 0x1E4E7);
    let mut lenet = models::build_lenet(&mut rng);
    let _ = models::training::train_classifier(&mut lenet, &split.train, &scale.train_config());
    let train_checksum = checksum(&split.train);
    let mut registry = ModelRegistry::from_trained(
        TrainedFamily {
            family: w.family,
            split,
            artifacts,
            lenet,
        },
        scale,
    );
    let train_s = t.elapsed().as_secs_f64();

    // Requests, plan warm-up at both batch sizes, reference predictions.
    let singles: Vec<Tensor> = (0..N_STREAM)
        .map(|i| inputs.images.gather_rows(&[i]))
        .collect();
    let batches: Vec<Tensor> = (0..N_INPUTS / BATCH)
        .map(|b| {
            let rows: Vec<usize> = (b * BATCH..(b + 1) * BATCH).collect();
            inputs.images.gather_rows(&rows)
        })
        .collect();
    let mut reference = Vec::with_capacity(MODELS.len());
    for kind in MODELS {
        let mut m = registry.model(kind);
        for x in singles.iter().take(32) {
            std::hint::black_box(m.predict_batch(x));
        }
        reference.push(predict_batches(m.as_mut(), &batches));
    }

    // Model store: publish each fleet model, load it back, and price both
    // on the fleet's tiers.
    let mut store = ModelStore::new(TIER_DEVICES.len());
    let (mut publish_us, mut load_us) = (0.0, 0.0);
    let mut fleet = Vec::with_capacity(FLEET_MODELS.len());
    for kind in FLEET_MODELS {
        let profiles = tier_profiles(registry.model(kind).as_mut(), &inputs.images);
        let t = Instant::now();
        let published = store.publish_from(&mut registry, kind);
        publish_us += t.elapsed().as_secs_f64() * 1e6 / FLEET_MODELS.len() as f64;
        let t = Instant::now();
        let loaded = published
            .map_err(|e| format!("publish {kind}: {e}"))
            .and_then(|v| load(&store, v).map(|m| (v, m)));
        load_us += t.elapsed().as_secs_f64() * 1e6 / FLEET_MODELS.len() as f64;
        let pricing = match loaded {
            Ok((version, mut loaded)) => {
                let source = MODELS.iter().position(|&k| k == kind).unwrap_or(0);
                let preds = loaded.with_model(|m| predict_batches(m, &batches));
                ledger.record(preds == reference[source], || {
                    format!("{version} loaded from the store predicts differently from its source")
                });
                FleetPricing {
                    loaded_profiles: loaded.with_model(|m| tier_profiles(m, &inputs.images)),
                    profiles,
                    version: version.version,
                }
            }
            Err(e) => {
                ledger.record(false, || e);
                FleetPricing {
                    loaded_profiles: profiles.clone(),
                    profiles,
                    version: 0,
                }
            }
        };
        fleet.push(pricing);
    }
    let inputs_checksum = checksum(&inputs);
    let times = SetupTimes {
        datagen_s,
        train_s,
        publish_us,
        load_us,
        total_s: t_start.elapsed().as_secs_f64(),
    };
    let deployment = Deployment {
        registry,
        inputs,
        singles,
        batches,
        reference,
        fleet,
        inputs_checksum,
        train_checksum,
    };
    (deployment, times)
}

/// A comparator rebuilt from a store checkpoint.
enum Loaded {
    Cbnet(CbnetModel),
    BranchyNet(BranchyNet),
}

impl Loaded {
    /// Run `f` on the checkpoint behind the model interface.
    fn with_model<R>(&mut self, f: impl FnOnce(&mut dyn InferenceModel) -> R) -> R {
        match self {
            Loaded::Cbnet(m) => f(m),
            Loaded::BranchyNet(net) => f(&mut BranchyNetModel::new(net)),
        }
    }
}

/// Fetch, parse and rebuild a published checkpoint.
fn load(store: &ModelStore, version: cbnet::ModelVersion) -> Result<Loaded, String> {
    let published = store
        .get(version)
        .ok_or_else(|| format!("{version} is not in the store"))?;
    let file = published.file().map_err(|e| e.to_string())?;
    match version.kind {
        ModelKind::Cbnet => CbnetModel::from_tensor_file(&file, "")
            .map(Loaded::Cbnet)
            .map_err(|e| e.to_string()),
        ModelKind::BranchyNet => BranchyNet::from_tensor_file(&file, "")
            .map(Loaded::BranchyNet)
            .map_err(|e| e.to_string()),
        other => Err(format!("{other} is not a fleet model")),
    }
}

/// Copies of the deployed comparators that the stream and batch rounds take
/// turns on.
pub const REPLICAS: usize = 4;

/// One copy of the three comparators and of the batch-1 requests, rebuilt
/// from checkpoints into memory of its own.
///
/// How fast the same model runs depends on where its buffers landed in
/// memory: copies of a model in one process differ by up to 10% in their
/// fastest batch-1 latency, and a process holding a single copy draws one
/// of those layouts. Rounds that take turns over several copies measure the
/// model at its best layout among them, which repeats from run to run.
pub struct Replica {
    lenet: Network,
    branchynet: BranchyNet,
    cbnet: CbnetModel,
    /// Copies of [`Deployment::singles`].
    pub singles: Vec<Tensor>,
}

impl Replica {
    /// Rebuild every comparator of `dep` from its checkpoint bytes and
    /// copy the requests.
    pub fn of(dep: &Deployment) -> Result<Replica, String> {
        fn rebuild<T: SerializeTensors, U>(
            model: &T,
            load: fn(&TensorFile<'_>, &str) -> tensorstore::Result<U>,
        ) -> Result<U, String> {
            let bytes = model.save_tensors().map_err(|e| e.to_string())?;
            let file = TensorFile::parse(&bytes).map_err(|e| e.to_string())?;
            load(&file, "").map_err(|e| e.to_string())
        }
        let tf = dep.registry.trained();
        Ok(Replica {
            lenet: rebuild(&tf.lenet, Network::from_tensor_file)?,
            branchynet: rebuild(&tf.artifacts.branchynet, BranchyNet::from_tensor_file)?,
            cbnet: rebuild(&tf.artifacts.cbnet, CbnetModel::from_tensor_file)?,
            singles: dep.singles.clone(),
        })
    }

    /// Run `f` on the comparators behind the model interface, in
    /// [`MODELS`] order, and this copy's requests.
    pub fn serve<R>(
        &mut self,
        f: impl FnOnce(&mut [&mut dyn InferenceModel; 3], &[Tensor]) -> R,
    ) -> R {
        let mut lenet = ClassifierModel::new("LeNet", &mut self.lenet);
        let mut branchy = BranchyNetModel::new(&mut self.branchynet);
        let mut models: [&mut dyn InferenceModel; 3] = [&mut lenet, &mut branchy, &mut self.cbnet];
        f(&mut models, &self.singles)
    }

    /// Serve a batch and a few single requests per model, so that plans
    /// are built (again, after a probe change) before anything is timed;
    /// the batch predictions are checked against `dep`'s reference.
    pub fn warm_up(&mut self, dep: &Deployment, ledger: &mut Ledger) {
        self.serve(|models, singles| {
            for (i, model) in models.iter_mut().enumerate() {
                let pred = predict_batches(&mut **model, &dep.batches[..1]);
                ledger.record(pred[..] == dep.reference[i][..pred.len()], || {
                    format!("{}: warm-up predictions differ", MODELS[i])
                });
                for x in &singles[..16] {
                    std::hint::black_box(model.predict_batch(x));
                }
            }
        });
    }
}

/// [`REPLICAS`] copies of `dep`'s comparators, each warmed up.
pub fn replicas(dep: &Deployment, ledger: &mut Ledger) -> Result<Vec<Replica>, String> {
    let mut out = Vec::with_capacity(REPLICAS);
    for _ in 0..REPLICAS {
        let mut r = Replica::of(dep)?;
        r.warm_up(dep, ledger);
        out.push(r);
    }
    Ok(out)
}
