//! Cache-blocked matrix multiplication kernels.
//!
//! Dense layers and im2col-lowered convolutions reduce the entire training
//! stack to these kernels, so they carry nearly all of the workspace's FLOPs.
//! The implementation follows the classic ikj loop order (B's row reused
//! across the inner loop, unit-stride writes into C), with the M dimension
//! split across the worker pool when the problem is large enough to
//! amortise the hand-off. Small-batch dense products against a large weight
//! matrix split their output features across the pool instead (see
//! `split_outputs_bt`).

use crate::parallel::par_row_chunks_mut;
use crate::Tensor;

/// Minimum number of output elements before the row-parallel path engages.
/// Below this, the hand-off to the pool dominates; the constant was chosen so
/// LeNet-scale per-image inference always stays on the single-threaded path
/// while batched training matrices go parallel. Shared with the SIMD backend
/// so both backends split work identically.
pub(crate) const PAR_THRESHOLD: usize = 64 * 64;

/// Streamed-operand budget in f32s (512 KiB): in [`matmul_bt_bias_into`]'s
/// j-outer schedule the A slice must stay resident in a typical ≥ 512 KiB L2
/// across the j sweep to win (see [`resident_schedule`]).
const RESIDENT_BUDGET: usize = 1 << 17;

/// Rows below which a `bt` chunk runs i-outer: with fewer than four rows
/// the j-outer schedule cannot fill its four FMA chains, while i-outer runs
/// four output features per pass. Shared with the SIMD backend.
const SMALL_ROWS: usize = 4;

/// Weight elements (`n·k`) from which a product of fewer than
/// [`SMALL_ROWS`] rows splits its output features across the pool. Measured
/// at batch 1 on two cores: a 256×128 layer gains nothing from the split,
/// a 256×256 one runs a third faster. Of the paper's models only the
/// autoencoder's wide layers reach it.
const SPLIT_MIN_WEIGHTS: usize = 1 << 16;

/// Output features per block granule of the output split: one 64-byte
/// line of `f32`, so no two threads write the same line.
const SPLIT_GRANULE: usize = 16;

/// The `bt` schedule for a chunk of `rows` output rows against `n` weight
/// rows of length `k`: `true` for the B-row-resident j-outer order, `false`
/// for i-outer. Both orders give every output the same reduction, so the
/// choice changes speed only. Shared with the SIMD backend so both backends
/// make the same choice on every shape.
pub(crate) fn resident_schedule(rows: usize, k: usize, n: usize) -> bool {
    rows >= SMALL_ROWS && rows * k <= RESIDENT_BUDGET && rows * k < n * k
}

/// Small-batch `C = A·Bᵀ (+ bias)` against a large weight matrix: each of
/// the `m` output rows is split into contiguous blocks of output features,
/// one per pool thread, and `kernel(a_row, b_block, bias_block, c_block)`
/// computes one block — block `t` always goes to the same thread, so its
/// weight rows stay in that core's cache from call to call. Each output is
/// still one full-length reduction, so the result is the same at every
/// thread count. Returns `false`, having done nothing, when the shape is
/// not small-batch (`m ≥ SMALL_ROWS`) or the weights are below
/// [`SPLIT_MIN_WEIGHTS`]. Shared with the SIMD backend.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_outputs_bt<K>(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    kernel: K,
) -> bool
where
    K: Fn(&[f32], &[f32], Option<&[f32]>, &mut [f32]) + Sync,
{
    if m >= SMALL_ROWS || n * k < SPLIT_MIN_WEIGHTS {
        return false;
    }
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        par_row_chunks_mut(c_row, SPLIT_GRANULE, |g0, block| {
            let j0 = g0 * SPLIT_GRANULE;
            let j1 = j0 + block.len();
            kernel(a_row, &b[j0 * k..j1 * k], bias.map(|bv| &bv[j0..j1]), block);
        });
    }
    true
}

/// `C = A · B` for row-major `A (m×k)` and `B (k×n)`, writing into `c`.
///
/// `c` must have length `m·n` and is fully overwritten.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "A dimensions mismatch");
    debug_assert_eq!(b.len(), k * n, "B dimensions mismatch");
    debug_assert_eq!(c.len(), m * n, "C dimensions mismatch");
    if m * n >= PAR_THRESHOLD && crate::parallel::max_threads() > 1 {
        // Row-aligned split: a worker never sees a partial output row.
        par_row_chunks_mut(c, n, |row0, chunk| {
            let rows = chunk.len() / n;
            matmul_rows(a, b, chunk, row0, rows, k, n);
        });
    } else {
        matmul_rows(a, b, c, 0, m, k, n);
    }
}

/// Serial ikj kernel over rows `[row0, row0+rows)` of the output.
#[inline]
fn matmul_rows(a: &[f32], b: &[f32], c: &mut [f32], row0: usize, rows: usize, k: usize, n: usize) {
    c.fill(0.0);
    for i in 0..rows {
        let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue; // sparse rows appear after ReLU; skipping is a cheap win
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// `C = A · Bᵀ` for row-major `A (m×k)` and `B (n×k)`, writing into `c`.
///
/// Both operands are traversed along contiguous rows, so no transpose copy is
/// needed. This is the natural kernel for the dense-layer forward pass with
/// weights stored as `(out, in)`.
pub fn matmul_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let body = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        for i in 0..rows {
            let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
            for j in 0..n {
                let b_row = &b[j * k..j * k + k];
                chunk[i * n + j] = dot(a_row, b_row);
            }
        }
    };
    if m * n >= PAR_THRESHOLD && crate::parallel::max_threads() > 1 {
        par_row_chunks_mut(c, n, |row0, chunk| body(row0, chunk));
    } else {
        body(0, c);
    }
}

/// `C = A · Bᵀ` on a **B-row-resident schedule**, with an optional bias
/// row-broadcast fused into the epilogue — the planned dense-layer kernel.
///
/// Every output element is the same [`dot`] call as [`matmul_bt_into`]
/// (plus `+ bias[j]`, the exact addition a separate broadcast pass would
/// perform), so results are bit-identical to the allocating layer path —
/// but the loop nest runs `j` outer / `i` inner, keeping one row of `B` hot
/// in L1 while streaming the (smaller) `A` operand.
///
/// Profitable exactly on the planned-inference shape: a moderate batch `A`
/// (m×k) that fits in L2 against a wide weight matrix `B` (n×k) that does
/// not — there the classic i-outer order re-streams all of `B` from DRAM `m`
/// times, while this order streams the cache-resident `A` instead (measured
/// ≈ 1.6× on a 128×784 · 784×784ᵀ product). For shapes where `A` is not the
/// smaller operand, or a chunk has too few rows to fill the j-outer
/// schedule, it falls back to the i-outer order, and the parallel path
/// splits output rows first (each worker's `A` slice is smaller still, so
/// the j-outer choice gets *more* profitable under threading). Batches of
/// fewer than four rows against a large weight matrix split output
/// features across the pool instead (`split_outputs_bt`).
pub fn matmul_bt_bias_into(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), n);
    }
    if split_outputs_bt(a, b, bias, c, m, k, n, |a_row, b, bias, out| {
        bt_row(a_row, b, bias, out, k)
    }) {
        return;
    }
    let body = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        if resident_schedule(rows, k, n) {
            for j in 0..n {
                let b_row = &b[j * k..j * k + k];
                let bj = bias.map_or(0.0, |bv| bv[j]);
                for i in 0..rows {
                    let v = dot(&a[(row0 + i) * k..(row0 + i) * k + k], b_row);
                    chunk[i * n + j] = if bias.is_some() { v + bj } else { v };
                }
            }
        } else {
            for (i, out_row) in chunk.chunks_exact_mut(n).enumerate() {
                bt_row(&a[(row0 + i) * k..(row0 + i) * k + k], b, bias, out_row, k);
            }
        }
    };
    if m * n >= PAR_THRESHOLD && crate::parallel::max_threads() > 1 {
        par_row_chunks_mut(c, n, |row0, chunk| body(row0, chunk));
    } else {
        body(0, c);
    }
}

/// One output row of `A·Bᵀ (+ bias)`: `out_row[j] = dot(a_row, b_j) (+
/// bias[j])` for the `out_row.len()` rows `b_j` of length `k` in `b`.
fn bt_row(a_row: &[f32], b: &[f32], bias: Option<&[f32]>, out_row: &mut [f32], k: usize) {
    match bias {
        Some(bv) => {
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, &b[j * k..j * k + k]) + bv[j];
            }
        }
        None => {
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, &b[j * k..j * k + k]);
            }
        }
    }
}

/// `C = Aᵀ · B` for row-major `A (k×m)` and `B (k×n)`.
///
/// The caller-owned output `c` must have length `m·n` and is fully
/// overwritten; no scratch is needed. Used by dense-layer weight gradients
/// (`dW = Xᵀ · dY`). Implemented as an accumulating rank-1 update sweep,
/// which keeps both operand accesses unit-stride.
pub fn matmul_at_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_v) in a_row.iter().enumerate() {
            if a_v == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_v * b_v;
            }
        }
    }
}

/// Dot product of two equal-length slices.
///
/// Written with a 4-lane manual unroll that LLVM reliably turns into SIMD.
///
/// # Reduction-order contract
///
/// The accumulation order is part of this function's API — conformance
/// tolerances between backends are derived from it, and
/// `crates/tensor/tests/backend_conformance.rs` pins it **bitwise**:
///
/// 1. Lane `l ∈ {0,1,2,3}` accumulates elements `l, l+4, l+8, …` of the
///    first `4⌊len/4⌋` elements, each as a *separate* `f32` multiply then
///    add (`acc[l] += a[i]*b[i]` — two roundings, no FMA).
/// 2. Lanes combine left-to-right: `((acc0 + acc1) + acc2) + acc3`.
/// 3. Tail elements (`len % 4`) are multiplied and added sequentially, in
///    index order, onto that sum.
///
/// The SIMD backend's `dot` uses 8 FMA lanes and a different combine tree —
/// see `tensor::backend::simd` — which is why dot-family kernels agree
/// across backends only to a documented tolerance, not bitwise.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let ai = &a[i * 4..i * 4 + 4];
        let bi = &b[i * 4..i * 4 + 4];
        acc[0] += ai[0] * bi[0];
        acc[1] += ai[1] * bi[1];
        acc[2] += ai[2] * bi[2];
        acc[3] += ai[3] * bi[3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// Matrix-vector product `y = A·x` for row-major `A (m×n)`.
///
/// The caller-owned output `y` must have length `m` and is fully
/// overwritten; no scratch is needed. Each element is one [`dot`] call, so
/// results are bit-identical to [`matmul_bt_into`] with a single B row.
pub fn matvec_into(a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    for (i, y_v) in y.iter_mut().enumerate() {
        *y_v = dot(&a[i * n..(i + 1) * n], x);
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// # Panics
    /// Panics unless `self` is `(m×k)` and `rhs` is `(k×n)`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul inner dimensions must agree");
        let mut out = Tensor::zeros(&[m, n]);
        matmul_into(self.data(), rhs.data(), out.data_mut(), m, k, n);
        out
    }

    /// `self · rhsᵀ` where `rhs` is `(n×k)`.
    pub fn matmul_bt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(rhs.rank(), 2);
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul_bt inner dimensions must agree");
        let mut out = Tensor::zeros(&[m, n]);
        matmul_bt_into(self.data(), rhs.data(), out.data_mut(), m, k, n);
        out
    }

    /// `selfᵀ · rhs` where `self` is `(k×m)` and `rhs` is `(k×n)`.
    pub fn matmul_at(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(rhs.rank(), 2);
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul_at inner dimensions must agree");
        let mut out = Tensor::zeros(&[m, n]);
        matmul_at_into(self.data(), rhs.data(), out.data_mut(), m, k, n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive triple loop used as the test oracle.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        // Tiny xorshift so the test does not depend on `rand` internals.
        let mut s = seed.max(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 1000) as f32 / 500.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_matches_naive_on_odd_sizes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 13, 9), (64, 32, 48)] {
            let a = rand_vec(m * k, 42);
            let b = rand_vec(k * n, 7);
            let mut c = vec![0.0; m * n];
            matmul_into(&a, &b, &mut c, m, k, n);
            let expect = naive(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-3, "mismatch {x} vs {y} at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_parallel_path_matches_naive() {
        // 128×128 crosses PAR_THRESHOLD so the scoped-thread path runs.
        let (m, k, n) = (128, 40, 128);
        let a = rand_vec(m * k, 3);
        let b = rand_vec(k * n, 11);
        let mut c = vec![0.0; m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = Tensor::from_vec(rand_vec(6 * 4, 5), &[6, 4]);
        let b = Tensor::from_vec(rand_vec(3 * 4, 9), &[3, 4]);
        let via_bt = a.matmul_bt(&b);
        let via_t = a.matmul(&b.transpose());
        assert!(via_bt.allclose(&via_t, 1e-4));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = Tensor::from_vec(rand_vec(4 * 6, 5), &[4, 6]);
        let b = Tensor::from_vec(rand_vec(4 * 3, 9), &[4, 3]);
        let via_at = a.matmul_at(&b);
        let via_t = a.transpose().matmul(&b);
        assert!(via_at.allclose(&via_t, 1e-4));
    }

    #[test]
    fn bt_bias_resident_branch_is_bit_identical_to_bt() {
        // rows·k well under the resident budget → j-outer schedule.
        let (m, k, n) = (12, 40, 96);
        let a = rand_vec(m * k, 21);
        let b = rand_vec(n * k, 22);
        let bias = rand_vec(n, 23);
        let mut base = vec![0.0; m * n];
        matmul_bt_into(&a, &b, &mut base, m, k, n);

        let mut no_bias = vec![0.0; m * n];
        matmul_bt_bias_into(&a, &b, None, &mut no_bias, m, k, n);
        assert_eq!(base, no_bias, "resident schedule must be bit-identical");

        let mut biased = vec![0.0; m * n];
        matmul_bt_bias_into(&a, &b, Some(&bias), &mut biased, m, k, n);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(biased[i * n + j], base[i * n + j] + bias[j]);
            }
        }
    }

    #[test]
    fn bt_bias_fallback_branch_is_bit_identical_to_bt() {
        // rows·k = 140_000 exceeds the 2^17 resident budget → the i-outer
        // fallback runs (the branch carrying large-batch planned inference).
        // m·n stays under PAR_THRESHOLD so the shape is a single chunk and
        // the fallback is exercised at any thread count.
        let (m, k, n) = (200, 700, 16);
        let a = rand_vec(m * k, 31);
        let b = rand_vec(n * k, 32);
        let bias = rand_vec(n, 33);
        let mut base = vec![0.0; m * n];
        matmul_bt_into(&a, &b, &mut base, m, k, n);

        let mut no_bias = vec![0.0; m * n];
        matmul_bt_bias_into(&a, &b, None, &mut no_bias, m, k, n);
        assert_eq!(base, no_bias, "fallback schedule must be bit-identical");

        let mut biased = vec![0.0; m * n];
        matmul_bt_bias_into(&a, &b, Some(&bias), &mut biased, m, k, n);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(biased[i * n + j], base[i * n + j] + bias[j]);
            }
        }
    }

    #[test]
    fn dot_handles_remainders() {
        for len in 0..10 {
            let a: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let b = vec![2.0; len];
            let expect: f32 = a.iter().sum::<f32>() * 2.0;
            assert_eq!(dot(&a, &b), expect);
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = rand_vec(5 * 7, 21);
        let x = rand_vec(7, 33);
        let mut y = vec![0.0; 5];
        matvec_into(&a, &x, &mut y, 5, 7);
        let expect = naive(&a, &x, 5, 7, 1);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn zero_rows_in_a_are_skipped_correctly() {
        // Exercises the `a_ip == 0.0` fast path.
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[0.0, 0.0, 13.0, 16.0]);
    }
}
