//! Allocation guard for the pooled parallel path: steady-state
//! `ForwardPlan::run` at two threads allocates nothing on the calling
//! thread **or on the tensor worker pool's threads**.
//!
//! `tests/alloc_guard.rs` pins one thread and counts per thread; here
//! `TENSOR_NUM_THREADS=2` is pinned and the process-wide counter
//! (`testkit::assert_no_process_alloc`) is used, so allocations a worker
//! makes while running its chunk count too. The process-wide counter sees
//! every thread, so this binary holds a single test.
//!
//! Shapes cover both parallel paths: batch 1 through CBNet's KMNIST
//! autoencoder (its wide layers split their output features across the
//! pool) and batch 32 through the autoencoder, CBNet's lightweight
//! classifier and LeNet (rows and conv images split across the pool).

use models::autoencoder::AutoencoderConfig;
use models::branchynet::{BranchyNet, BranchyNetConfig};
use models::lenet::build_lenet;
use models::lightweight::extract_lightweight;
use nn::{Activation, Dense, ForwardPlan, Network};
use tensor::random::rng_from_seed;
use tensor::Tensor;

#[global_allocator]
static ALLOC: testkit::CountingAlloc = testkit::CountingAlloc::new();

/// The converting autoencoder's layer stack (Table I, KMNIST column) as one
/// network, so its planned forward can run on a caller-owned plan.
fn kmnist_autoencoder(rng: &mut impl rand::Rng) -> Network {
    let cfg = AutoencoderConfig::kmnist();
    let mut net = Network::new();
    let mut prev = cfg.input;
    for h in &cfg.hidden {
        net.push_boxed(Box::new(Dense::new(prev, h.width, rng)));
        net.push_boxed(Box::new(Activation::new(h.activation, h.width)));
        prev = h.width;
    }
    net.push(Dense::new(prev, cfg.input, rng))
}

/// Names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.flatten()
                .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
                .map(|s| s.trim().to_owned())
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn pooled_planned_forward_is_alloc_free_on_every_thread() {
    std::env::set_var("TENSOR_NUM_THREADS", "2");
    assert_eq!(tensor::parallel::max_threads(), 2);

    let mut rng = rng_from_seed(77);
    let branchy = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    let mut nets = [
        ("autoencoder", kmnist_autoencoder(&mut rng)),
        ("lightweight", extract_lightweight(&branchy)),
        ("lenet", build_lenet(&mut rng)),
    ];
    let x = Tensor::rand_uniform(&[32, 784], 0.0, 1.0, &mut rng);
    let x1 = x.gather_rows(&[0]);

    let backends = [
        Some(tensor::backend::Backend::scalar()),
        tensor::backend::Backend::simd(),
    ];
    for be in backends.into_iter().flatten() {
        for (name, net) in nets.iter_mut() {
            for input in [&x1, &x] {
                let batch = input.dims()[0];
                let mut plan = ForwardPlan::with_backend(net, batch, be);
                // Warm-up: the first pooled call starts the pool.
                let _ = plan.run(net.layers_mut(), input);
                let what = format!("{name} [{}] batch {batch}", be.name());
                let acc = testkit::assert_no_process_alloc(&what, || {
                    let mut acc = 0.0f32;
                    for _ in 0..5 {
                        let y = plan.run(net.layers_mut(), input);
                        acc += y[0] + y[y.len() - 1];
                    }
                    acc
                });
                assert!(acc.is_finite(), "{what}");
            }
        }
    }

    // The guarded runs did go through the pool: its worker exists.
    let names = thread_names();
    if !names.is_empty() {
        assert!(
            names.iter().any(|n| n == "tensor-pool-1"),
            "no pool worker among {names:?}"
        );
    }
}
