//! Dynamic allocation guard: the zero-alloc claims of the planned forward
//! path and the visitor-driven optimizer step, measured with a counting
//! global allocator instead of asserted in prose.
//!
//! Each guard warms the code path up once (first calls may lazily build
//! plan buffers or optimizer state — that is part of the contract) and then
//! asserts that **steady-state** repetitions perform exactly zero heap
//! allocations on the calling thread. `TENSOR_NUM_THREADS=1` is pinned
//! before the first tensor op so kernels stay on their serial paths: the
//! counters here are per thread, so work handed to the tensor worker pool
//! would escape them. The pooled path has its own guard,
//! `tests/alloc_guard_pooled.rs`, which pins two threads and counts
//! allocations on every thread.
//!
//! The models are the paper's comparators (LeNet, the Table-I dense MLP,
//! AdaDeep's scaled candidate, SubFlow's subnetwork, BranchyNet's stages,
//! CBNet's lightweight classifier + converting autoencoder), at batch 32.
//!
//! The observability layer rides the same contract: a `ForwardPlan` run
//! with an **active probe**, the simulator observer's full recording
//! surface, and the span ring's overwrite path must all stay allocation-free
//! in steady state (construction/registration is the warm-up).

use std::sync::Arc;

use cbnet::registry::ModelKind;
use cbnet::ModelStore;
use edgesim::engine::{AdmissionPolicy, Request, SchedulerKind};
use edgesim::fleet::{FleetConfig, NetworkLink, SloSojourn, SwapPolicy, Tier, TierSwap};
use edgesim::{
    ArrivalProcess, CostProfile, DeviceModel, EngineSim, FleetSim, RecordMode, SimObserver,
};
use models::autoencoder::{AutoencoderConfig, ConvertingAutoencoder};
use models::branchynet::{BranchyNet, BranchyNetConfig};
use models::lenet::{build_lenet, build_lenet_scaled};
use models::lightweight::extract_lightweight;
use models::subflow::SubFlow;
use nn::{step_with, Adam, ForwardPlan, Momentum, Network, Optimizer, Sgd};
use obs::{LayerProfile, ObsMode, SpanKind, TraceSink};
use tensor::random::rng_from_seed;
use tensor::Tensor;
use tensorstore::{AlignedBytes, SerializeTensors, TensorFile, TensorWriter};

#[global_allocator]
static ALLOC: testkit::CountingAlloc = testkit::CountingAlloc::new();

const BATCH: usize = 32;

/// Pin tensor kernels to their single-threaded paths. Must run before the
/// first tensor op in the process thread (`tensor::parallel` caches the
/// thread count on first use).
fn pin_single_thread() {
    std::env::set_var("TENSOR_NUM_THREADS", "1");
}

fn batch_input(pixels: usize, seed: u64) -> Tensor {
    let mut rng = rng_from_seed(seed);
    Tensor::rand_uniform(&[BATCH, pixels], 0.0, 1.0, &mut rng)
}

/// Assert steady-state `ForwardPlan::run` performs zero heap allocations —
/// under **both** compute backends. Backend dispatch is a resolved-once enum
/// handle; if it ever grew a boxed vtable or per-call buffer, this guard is
/// what catches it. On hosts without AVX2+FMA only the scalar backend runs
/// (the SIMD handle is unavailable, not silently scalar).
fn assert_planned_run_zero_alloc(label: &str, net: &mut Network, x: &Tensor) {
    let backends = [
        Some(tensor::backend::Backend::scalar()),
        tensor::backend::Backend::simd(),
    ];
    for be in backends.into_iter().flatten() {
        let tagged = format!("{label} [{}]", be.name());
        let mut plan = ForwardPlan::with_backend(net, BATCH, be);
        // Warmup: the first run settles any lazily-sized internals.
        let _ = plan.run(net.layers_mut(), x);
        let acc = testkit::assert_no_alloc(&tagged, || {
            let mut acc = 0.0f32;
            for _ in 0..3 {
                let y = plan.run(net.layers_mut(), x);
                acc += y[0] + y[y.len() - 1];
            }
            acc
        });
        assert!(acc.is_finite(), "{tagged}: non-finite planned output");
    }
}

/// Assert steady-state `step_with` on `opt` over a network's parameters
/// performs zero heap allocations (the first step may allocate per-parameter
/// optimizer state — warmup covers it).
fn assert_step_zero_alloc(label: &str, opt: &mut dyn Optimizer, net: &mut Network) {
    step_with(opt, |f| net.visit_params_and_grads(f));
    testkit::assert_no_alloc(label, || {
        for _ in 0..3 {
            step_with(opt, |f| net.visit_params_and_grads(f));
        }
    });
}

#[test]
fn lenet_planned_forward_is_alloc_free() {
    pin_single_thread();
    let mut rng = rng_from_seed(21);
    let mut net = build_lenet(&mut rng);
    let x = batch_input(784, 1);
    assert_planned_run_zero_alloc("LeNet ForwardPlan::run", &mut net, &x);
}

#[test]
fn dense_mlp_planned_forward_is_alloc_free() {
    pin_single_thread();
    let mut net = bench::dense_mlp(22);
    let x = batch_input(784, 2);
    assert_planned_run_zero_alloc("DenseMLP ForwardPlan::run", &mut net, &x);
}

#[test]
fn adadeep_candidate_planned_forward_is_alloc_free() {
    pin_single_thread();
    let mut rng = rng_from_seed(23);
    let mut net = build_lenet_scaled([3, 6, 12], 42, &mut rng);
    let x = batch_input(784, 3);
    assert_planned_run_zero_alloc("AdaDeep candidate ForwardPlan::run", &mut net, &x);
}

#[test]
fn subflow_subnetwork_planned_forward_is_alloc_free() {
    pin_single_thread();
    let mut rng = rng_from_seed(24);
    let sf = SubFlow::new(build_lenet(&mut rng));
    let mut sub = sf.subnetwork(0.75);
    let x = batch_input(784, 4);
    assert_planned_run_zero_alloc("SubFlow@0.75 ForwardPlan::run", &mut sub, &x);
}

#[test]
fn branchynet_stage_planned_forwards_are_alloc_free() {
    pin_single_thread();
    let mut rng = rng_from_seed(25);
    let bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    let (trunk, branch, tail) = bn.stages();
    let (mut trunk, mut branch, mut tail) =
        (trunk.duplicate(), branch.duplicate(), tail.duplicate());
    let x = batch_input(784, 5);
    assert_planned_run_zero_alloc("BranchyNet trunk ForwardPlan::run", &mut trunk, &x);
    let h = trunk.forward(&x, false);
    assert_planned_run_zero_alloc("BranchyNet branch ForwardPlan::run", &mut branch, &h);
    assert_planned_run_zero_alloc("BranchyNet tail ForwardPlan::run", &mut tail, &h);
}

#[test]
fn cbnet_lightweight_planned_forward_is_alloc_free() {
    pin_single_thread();
    let mut rng = rng_from_seed(26);
    let bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    let mut lightweight = extract_lightweight(&bn);
    let x = batch_input(784, 6);
    assert_planned_run_zero_alloc("CBNet lightweight ForwardPlan::run", &mut lightweight, &x);
}

#[test]
fn optimizer_steps_are_alloc_free_across_comparators() {
    pin_single_thread();
    let mut rng = rng_from_seed(27);

    // LeNet × all three optimizer families.
    let mut lenet = build_lenet(&mut rng);
    assert_step_zero_alloc("LeNet Sgd::step_with", &mut Sgd::new(0.01), &mut lenet);
    assert_step_zero_alloc(
        "LeNet Momentum::step_with",
        &mut Momentum::new(0.01, 0.9),
        &mut lenet,
    );
    assert_step_zero_alloc(
        "LeNet Adam::step_with",
        &mut Adam::with_defaults(0.001),
        &mut lenet,
    );

    // AdaDeep candidate (scaled LeNet).
    let mut candidate = build_lenet_scaled([3, 6, 12], 42, &mut rng);
    assert_step_zero_alloc(
        "AdaDeep Adam::step_with",
        &mut Adam::with_defaults(0.001),
        &mut candidate,
    );

    // SubFlow subnetwork.
    let mut sub = SubFlow::new(build_lenet(&mut rng)).subnetwork(0.75);
    assert_step_zero_alloc(
        "SubFlow Adam::step_with",
        &mut Adam::with_defaults(0.001),
        &mut sub,
    );
}

#[test]
fn branchynet_optimizer_step_is_alloc_free() {
    pin_single_thread();
    let mut rng = rng_from_seed(28);
    let mut bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    let mut opt = Adam::with_defaults(0.001);
    step_with(&mut opt, |f| bn.visit_params_and_grads(f));
    testkit::assert_no_alloc("BranchyNet Adam::step_with", || {
        for _ in 0..3 {
            step_with(&mut opt, |f| bn.visit_params_and_grads(f));
        }
    });
}

#[test]
fn planned_forward_with_active_probe_is_alloc_free() {
    pin_single_thread();
    let mut rng = rng_from_seed(30);
    let mut net = build_lenet(&mut rng);
    let x = batch_input(784, 7);
    // An explicit probe: per-layer timing lands in the profile's fixed
    // atomic cells, so observation must cost zero heap traffic per run.
    let profile = Arc::new(LayerProfile::new());
    let mut plan = ForwardPlan::with_probe(
        &net,
        BATCH,
        tensor::backend::Backend::scalar(),
        Some(profile.clone()),
    );
    let _ = plan.run(net.layers_mut(), &x);
    profile.reset();
    let acc = testkit::assert_no_alloc("LeNet ForwardPlan::run [probed]", || {
        let mut acc = 0.0f32;
        for _ in 0..3 {
            let y = plan.run(net.layers_mut(), &x);
            acc += y[0] + y[y.len() - 1];
        }
        acc
    });
    assert!(acc.is_finite(), "probed run: non-finite planned output");
    let (calls, samples, ns) = profile.layer(0).expect("layer 0 was profiled");
    assert_eq!(calls, 3, "three steady-state runs were profiled");
    assert_eq!(samples, 3 * BATCH as u64);
    assert!(ns > 0, "probe recorded wall time");
}

#[test]
fn sim_observer_recording_is_alloc_free() {
    // Trace mode exercises every branch of the recording surface: counters,
    // gauges, histograms *and* span-ring writes. 64 iterations × 9 events
    // laps the 128-slot ring several times, so the overwrite path is under
    // the allocator guard too.
    let mut o = SimObserver::with_mode(ObsMode::Trace, &["edge", "cloud"], "exit_conf", 128);
    o.on_arrival(0.0, 0); // warm-up (nothing lazy today; contract for tomorrow)
    testkit::assert_no_alloc("SimObserver on_* recording surface", || {
        for i in 0..64usize {
            let t = i as f64;
            o.on_arrival(t, i);
            o.on_route(t, i, 1, 2.5);
            o.on_admit(t, i, 1);
            o.on_queue_enter(t, i, 1);
            o.on_queue_leave(t + 0.5, i, 1);
            o.on_service_start(t + 0.5, i, 1, 0, 4);
            o.on_service_end(t + 1.5, i, 1, 0, 1.0);
            o.on_complete(t + 1.5, i, 1, 1.5);
            o.on_drop(t, i, 0, 32.0);
        }
    });
    assert!(o.trace().overwritten() > 0, "the ring lapped at least once");
    assert_eq!(o.trace().len(), 128, "ring stays at capacity");
}

#[test]
fn trace_ring_overwrite_is_alloc_free() {
    let mut sink = TraceSink::new(8);
    sink.record(0.0, 0, SpanKind::Arrival, 0, 0, 0.0); // warm-up
    testkit::assert_no_alloc("TraceSink::record at capacity", || {
        for i in 0..100u64 {
            sink.record(i as f64, i, SpanKind::QueueEnter, 0, 0, i as f64);
        }
    });
    assert_eq!(sink.len(), 8);
    assert_eq!(
        sink.overwritten(),
        93,
        "1 warm-up + 100 records over 8 slots"
    );
}

#[test]
fn engine_event_loop_is_alloc_free() {
    // Every discipline family: FIFO singleton serves, shortest-expected
    // min-scans, and batch-accumulate with its deadline timers. The first
    // run grows the event heap and sojourn storage to their high-water
    // marks (that is the contract's warm-up); after `reset` the loop must
    // replay the entire workload — arrivals, admission drops, dispatch,
    // completions — without a single heap allocation.
    let kinds = [
        ("fifo", SchedulerKind::Fifo),
        ("ses", SchedulerKind::ShortestService),
        (
            "batch",
            SchedulerKind::Batch {
                max_batch: 8,
                max_wait_ms: 2.0,
            },
        ),
    ];
    for (label, kind) in kinds {
        let requests: Vec<Request> = (0..2000)
            .map(|i| Request {
                id: i,
                arrival_ms: i as f64 * 0.35,
                service_ms: 1.0 + (i % 7) as f64 * 0.4,
            })
            .collect();
        let admission = AdmissionPolicy::Bounded { max_queue: 24 };
        let mut sim = EngineSim::new(4, kind, admission, requests, RecordMode::Full)
            .expect("valid engine config");
        sim.run(None);
        let events = sim.events_processed();
        assert!(events >= 2000, "{label}: loop processed the workload");
        testkit::assert_no_alloc(&format!("EngineSim reset+run [{label}]"), || {
            for _ in 0..3 {
                sim.reset();
                sim.run(None);
            }
        });
        assert_eq!(
            sim.events_processed(),
            events,
            "{label}: replay is deterministic"
        );
    }
}

#[test]
fn fleet_event_loop_is_alloc_free() {
    // A 3-tier topology under the snapshot-reading SLO policy: gateway
    // routing fills the congestion-snapshot scratch in place, offloads pay
    // transfer and re-enter as tier arrivals, and Lean mode streams
    // sojourn/service/queue-depth into preallocated histograms instead of
    // per-request records. Steady state must be allocation-free end to end.
    let cfg = FleetConfig {
        tiers: vec![
            Tier {
                name: "edge".into(),
                device: DeviceModel::raspberry_pi4(),
                servers: 2,
                profile: CostProfile::bimodal(4.0, 14.0, 0.7),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 16 },
                link: None,
            },
            Tier {
                name: "cloud-cpu".into(),
                device: DeviceModel::gci_cpu(),
                servers: 4,
                profile: CostProfile::bimodal(1.0, 3.5, 0.7),
                scheduler: SchedulerKind::Batch {
                    max_batch: 4,
                    max_wait_ms: 1.5,
                },
                admission: AdmissionPolicy::Unbounded,
                link: Some(NetworkLink::wifi(16 * 1024)),
            },
            Tier {
                name: "cloud-gpu".into(),
                device: DeviceModel::gci_gpu(),
                servers: 1,
                profile: CostProfile::constant(0.8),
                scheduler: SchedulerKind::ShortestService,
                admission: AdmissionPolicy::Unbounded,
                link: Some(NetworkLink::wan(16 * 1024)),
            },
        ],
        arrivals: ArrivalProcess::poisson(220.0),
        requests: 2000,
        seed: 7,
        slo_ms: 30.0,
    };
    let mut policy = SloSojourn { slo_ms: 20.0 };
    let mut sim = FleetSim::new(&cfg, RecordMode::Lean).expect("valid fleet config");
    sim.run(&mut policy, None).expect("routing stays in range");
    let events = sim.events_processed();
    assert!(events >= 2000, "loop processed the workload");
    testkit::assert_no_alloc("FleetSim reset+run [3-tier, slo policy]", || {
        for _ in 0..3 {
            sim.reset();
            sim.run(&mut policy, None).expect("routing stays in range");
        }
    });
    assert_eq!(sim.events_processed(), events, "replay is deterministic");
    let lean = sim.lean_stats().expect("lean mode carries histograms");
    assert_eq!(
        lean.end_to_end_ms.count() as usize + sim.report().dropped,
        cfg.requests,
        "conservation: completed + dropped == offered"
    );
}

#[test]
fn registry_slot_import_is_alloc_free_and_zero_copy() {
    // The rolling-deploy refill route: a checkpoint is published once into
    // the versioned model store, its header parsed once, and steady-state
    // serving refills a preallocated same-architecture slot from the active
    // handle. Reading the handle (`ModelStore::active`) and the in-place
    // `import_tensors` refill must both be allocation-free, and the
    // 64-byte-aligned blob must take the zero-copy reinterpretation path —
    // no per-tensor decode copies, counted by `tensorstore::copy_fallbacks`.
    pin_single_thread();
    let mut rng = rng_from_seed(31);
    let mut src = build_lenet(&mut rng);
    let mut w = TensorWriter::new();
    w.set_metadata("kind", "LeNet");
    src.export_tensors(&mut w, "").expect("LeNet exports");
    let blob = w.finish();

    let mut store = ModelStore::new(1);
    let v = store
        .publish(ModelKind::LeNet, &blob)
        .expect("checkpoint publishes");
    store.activate(0, v).expect("tier 0 activates");
    let active = store.active(0).expect("tier 0 holds a version");
    // Parse once (cold); every steady-state refill reuses this parse.
    let file = TensorFile::parse(active.bytes()).expect("published blob parses");

    let mut rng2 = rng_from_seed(32);
    let mut slot = build_lenet(&mut rng2); // preallocated same-arch slot
    slot.import_tensors(&file, "").expect("warm-up import");

    let fallbacks_before = tensorstore::copy_fallbacks();
    let ok = testkit::assert_no_alloc("ModelStore::active + slot import [LeNet]", || {
        let mut ok = true;
        for _ in 0..3 {
            let handle = store.active(0);
            ok &= handle.is_some();
            ok &= slot.import_tensors(&file, "").is_ok();
        }
        ok
    });
    assert!(ok, "steady-state handle reads and slot imports succeed");
    assert_eq!(
        tensorstore::copy_fallbacks(),
        fallbacks_before,
        "aligned LeNet checkpoint loads zero-copy (no per-tensor decode copies)"
    );
    let x = batch_input(784, 8);
    assert_eq!(
        slot.predict(&x).data(),
        src.predict(&x).data(),
        "refilled slot serves the published weights bit-for-bit"
    );

    // Same contract for the Table-I dense MLP, straight off a tensor file.
    let mut mlp = bench::dense_mlp(33);
    let bytes = mlp.save_tensors().expect("DenseMLP saves");
    let buf = AlignedBytes::from_slice(&bytes);
    let file = TensorFile::parse(buf.as_slice()).expect("DenseMLP blob parses");
    let mut slot = bench::dense_mlp(34);
    slot.import_tensors(&file, "").expect("warm-up import");
    let fallbacks_before = tensorstore::copy_fallbacks();
    let ok = testkit::assert_no_alloc("slot import [DenseMLP]", || {
        let mut ok = true;
        for _ in 0..3 {
            ok &= slot.import_tensors(&file, "").is_ok();
        }
        ok
    });
    assert!(ok, "steady-state DenseMLP imports succeed");
    assert_eq!(
        tensorstore::copy_fallbacks(),
        fallbacks_before,
        "aligned DenseMLP checkpoint loads zero-copy"
    );
    assert_eq!(
        slot.predict(&x).data(),
        mlp.predict(&x).data(),
        "refilled DenseMLP slot matches the saved weights bit-for-bit"
    );
}

#[test]
fn fleet_hot_swap_steady_state_is_alloc_free() {
    // A rolling deploy mid-run: one Immediate swap on the edge tier and one
    // DrainFirst swap on the cloud tier. Scheduling preallocates the swap
    // events (that is the documented cold path); after the warm-up run,
    // replaying the whole workload — including dispatching both swaps and
    // un-applying them on reset — must not allocate.
    let cfg = FleetConfig {
        tiers: vec![
            Tier {
                name: "edge".into(),
                device: DeviceModel::raspberry_pi4(),
                servers: 2,
                profile: CostProfile::bimodal(4.0, 14.0, 0.7),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 16 },
                link: None,
            },
            Tier {
                name: "cloud".into(),
                device: DeviceModel::gci_cpu(),
                servers: 4,
                profile: CostProfile::constant(1.5),
                scheduler: SchedulerKind::ShortestService,
                admission: AdmissionPolicy::Unbounded,
                link: Some(NetworkLink::wifi(16 * 1024)),
            },
        ],
        arrivals: ArrivalProcess::poisson(200.0),
        requests: 1500,
        seed: 13,
        slo_ms: 30.0,
    };
    let mut policy = SloSojourn { slo_ms: 20.0 };
    let mut sim = FleetSim::new(&cfg, RecordMode::Lean).expect("valid fleet config");
    sim.schedule_swap(TierSwap {
        tier: 0,
        at_ms: 1_000.0,
        profile: CostProfile::bimodal(3.0, 10.0, 0.7),
        version: 1,
        policy: SwapPolicy::Immediate,
    })
    .expect("edge swap schedules");
    sim.schedule_swap(TierSwap {
        tier: 1,
        at_ms: 2_500.0,
        profile: CostProfile::constant(1.2),
        version: 2,
        policy: SwapPolicy::DrainFirst,
    })
    .expect("cloud swap schedules");

    sim.run(&mut policy, None).expect("routing stays in range");
    let events = sim.events_processed();
    let applied = sim.swaps_applied();
    assert!(applied >= 1, "at least the immediate swap applied");
    assert_eq!(sim.active_version(0), 1, "edge tier rolled to version 1");

    testkit::assert_no_alloc("FleetSim reset+run [2-tier, hot-swaps]", || {
        for _ in 0..3 {
            sim.reset();
            sim.run(&mut policy, None).expect("routing stays in range");
        }
    });
    assert_eq!(sim.events_processed(), events, "replay is deterministic");
    assert_eq!(sim.swaps_applied(), applied, "swap replay is deterministic");
    let lean = sim.lean_stats().expect("lean mode carries histograms");
    assert_eq!(
        lean.end_to_end_ms.count() as usize + sim.report().dropped,
        cfg.requests,
        "conservation across the swap: completed + dropped == offered"
    );
}

#[test]
fn converting_autoencoder_optimizer_step_is_alloc_free() {
    pin_single_thread();
    let mut rng = rng_from_seed(29);
    let mut cfg = AutoencoderConfig::mnist();
    cfg.hidden[0].width = 96;
    cfg.hidden[1].width = 48;
    let mut ae = ConvertingAutoencoder::new(cfg, &mut rng);
    let mut opt = Adam::with_defaults(0.001);
    step_with(&mut opt, |f| ae.visit_params_and_grads(f));
    testkit::assert_no_alloc("CBNet autoencoder Adam::step_with", || {
        for _ in 0..3 {
            step_with(&mut opt, |f| ae.visit_params_and_grads(f));
        }
    });
}
