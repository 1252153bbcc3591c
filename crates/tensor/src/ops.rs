//! Elementwise operations, reductions, and numeric utilities.
//!
//! All binary elementwise kernels require exact shape agreement (checked with
//! `debug_assert!`); the one sanctioned broadcast in this workspace —
//! adding a bias row-vector to every row of a matrix — has its own dedicated
//! kernel ([`Tensor::add_row_broadcast`]), which keeps the hot loops free of
//! general broadcasting machinery.

use crate::Tensor;

impl Tensor {
    // ------------------------------------------------------------ unary map

    /// Apply `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(data, self.dims())
    }

    /// Apply `f` elementwise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    // -------------------------------------------------------- binary zips

    /// Elementwise sum. Shapes must match exactly.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }

    /// Elementwise difference. Shapes must match exactly.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. Shapes must match exactly.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b)
    }

    /// Elementwise quotient. Shapes must match exactly.
    pub fn div(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a / b)
    }

    /// Generic elementwise combination of two same-shape tensors.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        debug_assert_eq!(self.dims(), rhs.dims(), "zip: shape mismatch");
        let data = self
            .data()
            .iter()
            .zip(rhs.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.dims())
    }

    /// In-place `self += rhs`. Shapes must match exactly.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        debug_assert_eq!(self.dims(), rhs.dims(), "add_assign: shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += b;
        }
    }

    /// In-place `self -= rhs`. Shapes must match exactly.
    pub fn sub_assign(&mut self, rhs: &Tensor) {
        debug_assert_eq!(self.dims(), rhs.dims(), "sub_assign: shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a -= b;
        }
    }

    /// In-place fused multiply-add: `self += alpha * rhs`.
    ///
    /// This is the workhorse of every optimizer step; keeping it a single
    /// kernel lets LLVM vectorise the loop.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        debug_assert_eq!(self.dims(), rhs.dims(), "axpy: shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += alpha * b;
        }
    }

    // ------------------------------------------------------- scalar ops

    /// Multiply every element by a scalar, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Multiply every element by a scalar in place.
    pub fn scale_in_place(&mut self, s: f32) {
        self.map_in_place(|v| v * s);
    }

    /// Add a scalar to every element, returning a new tensor.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Set every element to zero without reallocating.
    pub fn fill(&mut self, v: f32) {
        for x in self.data_mut() {
            *x = v;
        }
    }

    // ---------------------------------------------------------- broadcast

    /// Add a 1-D bias of length `cols` to every row of a rank-2 tensor.
    ///
    /// # Panics
    /// Debug-panics unless `self` is rank 2 and `bias.len() == cols`.
    pub fn add_row_broadcast(&mut self, bias: &Tensor) {
        debug_assert_eq!(self.rank(), 2, "add_row_broadcast requires rank-2 tensor");
        let cols = self.dims()[1];
        debug_assert_eq!(bias.len(), cols, "bias length must equal column count");
        let b = bias.data();
        for row in self.data_mut().chunks_exact_mut(cols) {
            for (x, &bv) in row.iter_mut().zip(b) {
                *x += bv;
            }
        }
    }

    // --------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        // Pairwise-ish accumulation in f64 keeps the reduction stable for the
        // million-element activation maps seen during batch training.
        self.data().iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence; 0 for empty tensors).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut bestv = f32::NEG_INFINITY;
        for (i, &v) in self.data().iter().enumerate() {
            if v > bestv {
                bestv = v;
                best = i;
            }
        }
        best
    }

    /// Sum of absolute values (L1 norm).
    pub fn l1_norm(&self) -> f32 {
        self.data().iter().map(|v| v.abs() as f64).sum::<f64>() as f32
    }

    /// Euclidean (L2) norm.
    pub fn l2_norm(&self) -> f32 {
        (self
            .data()
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>())
        .sqrt() as f32
    }

    /// Sum along rows of a rank-2 tensor, producing a 1-D tensor of length
    /// `cols`. This is the reduction used for bias gradients.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_rows requires rank-2 tensor");
        let cols = self.dims()[1];
        let mut out = vec![0.0f32; cols];
        for row in self.data().chunks_exact(cols) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Per-row argmax of a rank-2 tensor (class prediction per sample).
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires rank-2 tensor");
        let cols = self.dims()[1];
        self.data()
            .chunks_exact(cols)
            .map(|row| {
                let mut best = 0;
                let mut bestv = f32::NEG_INFINITY;
                for (i, &v) in row.iter().enumerate() {
                    if v > bestv {
                        bestv = v;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    // --------------------------------------------------------- comparisons

    /// Largest absolute elementwise difference between two same-shape tensors.
    pub fn max_abs_diff(&self, rhs: &Tensor) -> f32 {
        debug_assert_eq!(self.dims(), rhs.dims());
        self.data()
            .iter()
            .zip(rhs.data())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True when all elements are within `tol` of `rhs`.
    pub fn allclose(&self, rhs: &Tensor, tol: f32) -> bool {
        self.dims() == rhs.dims() && self.max_abs_diff(rhs) <= tol
    }

    /// True when every element is finite (no NaN/±∞). Used by training-loop
    /// invariant checks and failure-injection tests.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|v| v.is_finite())
    }

    /// Clamp every element into `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        self.map_in_place(|v| v.clamp(lo, hi));
    }
}

/// Minimum element count before elementwise `_into` kernels go parallel.
/// Elementwise maps are memory-bound; below this, the hand-off to the
/// worker pool costs more than the bandwidth it wins. Shared with the SIMD
/// backend so both backends split work identically.
pub(crate) const ELEMWISE_PAR_THRESHOLD: usize = 1 << 15;

/// Elements per "row" when elementwise kernels split work across threads:
/// chunk boundaries fall on multiples of it. Shared with the SIMD backend.
pub(crate) const ELEMWISE_GRANULE: usize = 4096;

/// Apply `f` elementwise from `input` into `out` (same length), splitting
/// across threads for large buffers.
///
/// Because `f` is applied independently per element, the result is
/// bit-identical regardless of thread count — the property the planned
/// forward path's conformance tests rely on.
pub fn unary_map_into(input: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    debug_assert_eq!(input.len(), out.len(), "unary_map_into length mismatch");
    if input.len() >= ELEMWISE_PAR_THRESHOLD && crate::parallel::max_threads() > 1 {
        crate::parallel::par_row_chunks_mut(out, ELEMWISE_GRANULE, |g0, chunk| {
            let start = g0 * ELEMWISE_GRANULE;
            let src = &input[start..start + chunk.len()];
            for (o, &x) in chunk.iter_mut().zip(src) {
                *o = f(x);
            }
        });
    } else {
        for (o, &x) in out.iter_mut().zip(input) {
            *o = f(x);
        }
    }
}

/// `out = max(input, 0)` elementwise.
pub fn relu_into(input: &[f32], out: &mut [f32]) {
    unary_map_into(input, out, |v| v.max(0.0));
}

/// `out = 1/(1+e^(−input))` elementwise.
pub fn sigmoid_into(input: &[f32], out: &mut [f32]) {
    unary_map_into(input, out, |v| 1.0 / (1.0 + (-v).exp()));
}

/// `out = tanh(input)` elementwise.
pub fn tanh_into(input: &[f32], out: &mut [f32]) {
    unary_map_into(input, out, |v| v.tanh());
}

/// Row-wise [`softmax_slice`] over a `(rows, cols)` matrix stored flat in
/// `input`, written into `out`. Rows are distributed across threads with
/// row-aligned chunks; each row's arithmetic is unchanged, so the result is
/// bit-identical to a serial loop.
pub fn softmax_rows_into(input: &[f32], out: &mut [f32], cols: usize) {
    debug_assert_eq!(input.len(), out.len());
    debug_assert_eq!(input.len() % cols.max(1), 0);
    if input.len() >= ELEMWISE_PAR_THRESHOLD && crate::parallel::max_threads() > 1 {
        crate::parallel::par_row_chunks_mut(out, cols, |row0, chunk| {
            for (i, orow) in chunk.chunks_exact_mut(cols).enumerate() {
                let r = row0 + i;
                softmax_slice(&input[r * cols..(r + 1) * cols], orow);
            }
        });
    } else {
        for (orow, irow) in out.chunks_exact_mut(cols).zip(input.chunks_exact(cols)) {
            softmax_slice(irow, orow);
        }
    }
}

/// Numerically stable softmax over a slice, written into `out`.
///
/// Exposed as a free function because both the `nn` activation layer and the
/// entropy-based exit criterion in `models` need it on bare slices without
/// tensor wrappers.
pub fn softmax_slice(input: &[f32], out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len());
    let max = input.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut denom = 0.0f32;
    for (o, &x) in out.iter_mut().zip(input) {
        let e = (x - max).exp();
        *o = e;
        denom += e;
    }
    let inv = 1.0 / denom;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Shannon entropy (nats) of a probability vector.
///
/// This is BranchyNet's exit-confidence measure: low entropy ⇒ confident ⇒
/// take the early exit. Zero-probability entries contribute zero.
pub fn entropy(probs: &[f32]) -> f32 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -(p as f64) * (p as f64).ln())
        .sum::<f64>() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn map_and_map_in_place() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.map(|v| v * 2.0).data(), &[2.0, -4.0]);
        let mut b = a.clone();
        b.map_in_place(f32::abs);
        assert_eq!(b.data(), &[1.0, 2.0]);
    }

    #[test]
    fn arithmetic_elementwise() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, 5.0]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(b.div(&a).data(), &[3.0, 2.5]);
    }

    #[test]
    fn in_place_accumulation() {
        let mut a = t(&[1.0, 1.0]);
        a.add_assign(&t(&[2.0, 3.0]));
        assert_eq!(a.data(), &[3.0, 4.0]);
        a.sub_assign(&t(&[1.0, 1.0]));
        assert_eq!(a.data(), &[2.0, 3.0]);
        a.axpy(2.0, &t(&[1.0, 1.0]));
        assert_eq!(a.data(), &[4.0, 5.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, 2.0]);
        assert_eq!(a.scale(3.0).data(), &[3.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0]);
        let mut b = a.clone();
        b.scale_in_place(0.5);
        assert_eq!(b.data(), &[0.5, 1.0]);
        b.fill(9.0);
        assert_eq!(b.data(), &[9.0, 9.0]);
    }

    #[test]
    fn row_broadcast_bias() {
        let mut m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        m.add_row_broadcast(&t(&[10.0, 20.0]));
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -2.0, 3.0]);
        assert_eq!(a.sum(), 2.0);
        assert!((a.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax(), 2);
        assert_eq!(a.l1_norm(), 6.0);
        assert!((a.l2_norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_tensor_reductions() {
        let e = Tensor::zeros(&[0]);
        assert_eq!(e.sum(), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max(), f32::NEG_INFINITY);
        assert_eq!(e.argmax(), 0);
    }

    #[test]
    fn sum_rows_matches_manual() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        assert_eq!(m.sum_rows().data(), &[9.0, 12.0]);
    }

    #[test]
    fn argmax_rows_per_sample() {
        let m = Tensor::from_vec(vec![0.1, 0.9, 0.8, 0.2], &[2, 2]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn closeness_helpers() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.001]);
        assert!(a.allclose(&b, 0.01));
        assert!(!a.allclose(&b, 0.0001));
        assert!((a.max_abs_diff(&b) - 0.001).abs() < 1e-6);
    }

    #[test]
    fn finiteness_and_clamp() {
        let mut a = t(&[f32::NAN, 1.0]);
        assert!(!a.all_finite());
        a.fill(5.0);
        assert!(a.all_finite());
        a.clamp_in_place(0.0, 2.0);
        assert_eq!(a.data(), &[2.0, 2.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let x = [1000.0, 1001.0, 1002.0]; // would overflow a naive exp
        let mut out = [0.0; 3];
        softmax_slice(&x, &mut out);
        let s: f32 = out.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(out[2] > out[1] && out[1] > out[0]);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_uniform_input() {
        let x = [0.5; 4];
        let mut out = [0.0; 4];
        softmax_slice(&x, &mut out);
        for v in out {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn entropy_extremes() {
        // Deterministic distribution: zero entropy.
        assert_eq!(entropy(&[1.0, 0.0, 0.0]), 0.0);
        // Uniform over 4: ln(4).
        let h = entropy(&[0.25; 4]);
        assert!((h - 4.0f32.ln()).abs() < 1e-5);
        // Peaked beats uniform.
        assert!(entropy(&[0.9, 0.05, 0.05]) < entropy(&[1.0 / 3.0; 3]));
    }
}
