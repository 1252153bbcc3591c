//! Thread-count determinism matrix: data generation and planned inference
//! must give the same bits whatever `TENSOR_NUM_THREADS` is.
//!
//! The thread budget is read once per process, so the matrix re-executes
//! this test binary once per thread count, running only
//! [`determinism_child`], which prints a digest line per computation. The
//! parent asserts every digest is identical across thread counts.
//!
//! The child covers the parallel paths of the kernels:
//! * `datasets::generate` of 1001 images (an odd count, so a split by
//!   element count would land mid-image);
//! * under both backends, `ForwardPlan::run` of CBNet's KMNIST converting
//!   autoencoder and its lightweight classifier at batch 1 (the autoencoder's
//!   wide layers split their output features across the worker pool) and
//!   at batch 64 (rows split across the pool, conv images split across it);
//! * BranchyNet's staged early exit (trunk, exit head, compacted tail) at
//!   batch 64.
//!
//! Training is not in the matrix: conv backward sums per-thread weight
//! gradient partials, so its rounding depends on the thread count.

use std::process::Command;

use datasets::{generate, Family, GeneratorConfig};
use models::autoencoder::{AutoencoderConfig, ConvertingAutoencoder};
use models::branchynet::{BranchyNet, BranchyNetConfig};
use models::lightweight::extract_lightweight;
use nn::{ForwardPlan, Network};
use tensor::backend::{set_override, Backend, BackendKind};
use tensor::random::rng_from_seed;
use tensor::Tensor;

const THREADS: [usize; 5] = [1, 2, 3, 5, 8];
const BATCH: usize = 64;

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_f32(v: &[f32]) -> u64 {
    digest(v.iter().map(|x| u64::from(x.to_bits())))
}

/// Digests of the planned output of `net` over the `BATCH` rows of `x`,
/// and over rows 0, 1 and `BATCH - 1` one at a time through the same plan.
fn planned_digests(net: &mut Network, x: &Tensor, backend: Backend) -> (u64, u64) {
    let mut plan = ForwardPlan::with_backend(net, BATCH, backend);
    let batched = digest_f32(plan.run(net.layers_mut(), x));
    let singles = [0, 1, BATCH - 1].map(|r| {
        let row = x.gather_rows(&[r]);
        digest_f32(plan.run(net.layers_mut(), &row))
    });
    (batched, digest(singles))
}

#[test]
#[ignore = "run once per thread count by thread_count_matrix_is_bit_identical"]
fn determinism_child() {
    let data = generate(&GeneratorConfig::new(Family::MnistLike, 1001, 7));
    let labels = data.labels.iter().map(|&l| l as u64);
    let hard = data.gen_hard.iter().map(|&h| u64::from(h));
    println!(
        "DIGEST generate {:016x}",
        digest(
            data.images
                .data()
                .iter()
                .map(|x| u64::from(x.to_bits()))
                .chain(labels)
                .chain(hard)
        )
    );
    let x = data.images.gather_rows(&(0..BATCH).collect::<Vec<_>>());

    let mut rng = rng_from_seed(41);
    let mut branchy = BranchyNet::new(
        BranchyNetConfig {
            entropy_threshold: 1.0, // mixed exits on untrained weights
            ..Default::default()
        },
        &mut rng,
    );
    let mut lightweight = extract_lightweight(&branchy);
    let mut ae = ConvertingAutoencoder::new(AutoencoderConfig::kmnist(), &mut rng);

    let backends = [Some(Backend::scalar()), Backend::simd()];
    for backend in backends.into_iter().flatten() {
        let name = backend.name();
        let (batched, singles) = planned_digests(&mut lightweight, &x, backend);
        println!("DIGEST lightweight/{name}/batch{BATCH} {batched:016x}");
        println!("DIGEST lightweight/{name}/batch1 {singles:016x}");

        // The autoencoder and BranchyNet run their cached plans on the
        // process-resolved backend.
        set_override(if name == "scalar" {
            BackendKind::Scalar
        } else {
            BackendKind::Simd
        });
        assert_eq!(Backend::resolve(), backend);
        let converted = digest_f32(ae.forward(&x).data());
        println!("DIGEST autoencoder/{name}/batch{BATCH} {converted:016x}");
        let singles =
            [0, 1, BATCH - 1].map(|r| digest_f32(ae.forward(&x.gather_rows(&[r])).data()));
        println!("DIGEST autoencoder/{name}/batch1 {:016x}", digest(singles));

        let exits = branchy.infer(&x).into_iter().flat_map(|o| {
            [
                o.prediction as u64,
                o.exit as u64,
                u64::from(o.exit1_entropy.to_bits()),
            ]
        });
        println!(
            "DIGEST branchynet/{name}/batch{BATCH} {:016x}",
            digest(exits)
        );
    }
}

/// Run [`determinism_child`] under `threads` and collect its digest lines.
fn child_digests(threads: usize) -> Vec<String> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "determinism_child",
            "--exact",
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("TENSOR_NUM_THREADS", threads.to_string())
        .output()
        .expect("re-execute the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child at {threads} threads failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness prints `test determinism_child ... ` without a newline
    // before the first digest, so digests are found anywhere in a line.
    stdout
        .lines()
        .filter_map(|l| l.find("DIGEST ").map(|i| l[i..].to_owned()))
        .collect()
}

#[test]
fn thread_count_matrix_is_bit_identical() {
    let reference = child_digests(THREADS[0]);
    assert!(
        reference
            .first()
            .is_some_and(|d| d.starts_with("DIGEST generate "))
            && reference.len() >= 6,
        "child printed too few digests: {reference:?}"
    );
    for &threads in &THREADS[1..] {
        let got = child_digests(threads);
        assert_eq!(
            got, reference,
            "outputs at TENSOR_NUM_THREADS={threads} differ from 1 thread"
        );
    }
}
