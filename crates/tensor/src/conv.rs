//! `im2col` / `col2im` lowering for 2-D convolutions, plus pooling index
//! helpers.
//!
//! Convolutions in the `nn` crate are computed as a matrix product over the
//! im2col patch matrix — the same lowering Caffe/Chainer (the paper's
//! BranchyNet substrate) used. Layout is NCHW throughout.

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeom {
    /// Output height after convolution.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k_h) / self.stride + 1
    }

    /// Output width after convolution.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k_w) / self.stride + 1
    }

    /// Rows of the im2col patch matrix (= output spatial positions).
    #[inline]
    pub fn patch_rows(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Columns of the im2col patch matrix (= kernel volume).
    #[inline]
    pub fn patch_cols(&self) -> usize {
        self.in_channels * self.k_h * self.k_w
    }

    /// Validate that the geometry produces a non-degenerate output.
    pub fn validate(&self) -> Result<(), crate::TensorError> {
        if self.k_h == 0 || self.k_w == 0 || self.stride == 0 {
            return Err(crate::TensorError::InvalidArgument(
                "kernel and stride must be nonzero".into(),
            ));
        }
        if self.in_h + 2 * self.pad < self.k_h || self.in_w + 2 * self.pad < self.k_w {
            return Err(crate::TensorError::InvalidArgument(format!(
                "kernel {}×{} larger than padded input {}×{}",
                self.k_h,
                self.k_w,
                self.in_h + 2 * self.pad,
                self.in_w + 2 * self.pad
            )));
        }
        Ok(())
    }
}

/// Lower one image (CHW, contiguous) into the im2col patch matrix.
///
/// `out` must have length `patch_rows() * patch_cols()` and is laid out so
/// row `r` holds the flattened receptive field of output position `r`
/// (channel-major within the row). Padding positions contribute zeros.
pub fn im2col(input: &[f32], g: &Conv2dGeom, out: &mut [f32]) {
    debug_assert_eq!(input.len(), g.in_channels * g.in_h * g.in_w);
    debug_assert_eq!(out.len(), g.patch_rows() * g.patch_cols());
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = g.patch_cols();
    out.fill(0.0);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let row_base = row * cols;
            let iy0 = (oy * g.stride) as isize - g.pad as isize;
            let ix0 = (ox * g.stride) as isize - g.pad as isize;
            for c in 0..g.in_channels {
                let chan_base = c * g.in_h * g.in_w;
                let col_base = row_base + c * g.k_h * g.k_w;
                for ky in 0..g.k_h {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue; // zero padding, already filled
                    }
                    let in_row = chan_base + iy as usize * g.in_w;
                    let out_row = col_base + ky * g.k_w;
                    for kx in 0..g.k_w {
                        let ix = ix0 + kx as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        out[out_row + kx] = input[in_row + ix as usize];
                    }
                }
            }
        }
    }
}

/// Scatter-accumulate an im2col patch matrix back into image space (CHW).
///
/// This is the adjoint of [`im2col`]; it is the convolution backward pass
/// with respect to the input. `grad_input` is accumulated into (callers zero
/// it first when appropriate).
pub fn col2im(cols_mat: &[f32], g: &Conv2dGeom, grad_input: &mut [f32]) {
    debug_assert_eq!(grad_input.len(), g.in_channels * g.in_h * g.in_w);
    debug_assert_eq!(cols_mat.len(), g.patch_rows() * g.patch_cols());
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = g.patch_cols();
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let row_base = row * cols;
            let iy0 = (oy * g.stride) as isize - g.pad as isize;
            let ix0 = (ox * g.stride) as isize - g.pad as isize;
            for c in 0..g.in_channels {
                let chan_base = c * g.in_h * g.in_w;
                let col_base = row_base + c * g.k_h * g.k_w;
                for ky in 0..g.k_h {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    let in_row = chan_base + iy as usize * g.in_w;
                    let src_row = col_base + ky * g.k_w;
                    for kx in 0..g.k_w {
                        let ix = ix0 + kx as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        grad_input[in_row + ix as usize] += cols_mat[src_row + kx];
                    }
                }
            }
        }
    }
}

/// Scratch floats [`conv2d_batch_into`] needs for a batch of `batch` images:
/// one im2col patch matrix per worker thread.
pub fn conv2d_scratch_floats(g: &Conv2dGeom, batch: usize) -> usize {
    let workers = crate::parallel::max_threads().min(batch.max(1)).max(1);
    workers * g.patch_rows() * g.patch_cols()
}

/// Batched 2-D convolution into a caller-owned output buffer.
///
/// * `input` — `batch` contiguous CHW volumes matching `g`.
/// * `weights` — `(out_channels, patch_cols)` row-major.
/// * `bias` — `out_channels` values, added per channel.
/// * `out` — `batch · out_channels · patch_rows` floats, fully overwritten,
///   each sample row laid out channel-major `(O × P)`.
/// * `scratch` — at least [`conv2d_scratch_floats`] floats; holds the
///   per-worker im2col patch matrices so the hot path allocates nothing.
///
/// Samples are split across the worker pool in whole-image chunks, each
/// chunk owning a disjoint slice of `out` and its own patch buffer. Every
/// sample is lowered and multiplied with exactly the same operations
/// regardless of the split, so the output is bit-identical for any thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_batch_into(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: &Conv2dGeom,
    out_channels: usize,
    batch: usize,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    conv2d_batch_into_with(
        input,
        weights,
        bias,
        g,
        out_channels,
        batch,
        out,
        scratch,
        crate::matmul::matmul_bt_into,
    );
}

/// The `A · Bᵀ` kernel signature [`conv2d_batch_into_with`] is parameterised
/// over: `(a, b, c, m, k, n)` with `c` fully overwritten. Both
/// `matmul::matmul_bt_into` and the SIMD backend's variant satisfy it, which
/// is how [`crate::backend::Backend`] routes the im2col product through
/// whichever kernel set is active without duplicating the batching/threading
/// shell.
pub type MatmulBtKernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// [`conv2d_batch_into`] with the inner im2col matrix product supplied by the
/// caller. Same buffer contract: `out` is fully overwritten, `scratch` holds
/// the per-worker patch matrices, nothing allocates.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_batch_into_with(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    g: &Conv2dGeom,
    out_channels: usize,
    batch: usize,
    out: &mut [f32],
    scratch: &mut [f32],
    bt_kernel: MatmulBtKernel,
) {
    let in_f = g.in_channels * g.in_h * g.in_w;
    let p = g.patch_rows();
    let k = g.patch_cols();
    let out_f = out_channels * p;
    debug_assert_eq!(input.len(), batch * in_f, "conv input size mismatch");
    debug_assert_eq!(weights.len(), out_channels * k);
    debug_assert_eq!(bias.len(), out_channels);
    debug_assert_eq!(out.len(), batch * out_f, "conv output size mismatch");
    debug_assert!(scratch.len() >= conv2d_scratch_floats(g, batch));
    if batch == 0 {
        return;
    }

    let run_rows = |s0: usize, chunk: &mut [f32], patches: &mut [f32]| {
        for (si, orow) in chunk.chunks_exact_mut(out_f).enumerate() {
            let s = s0 + si;
            im2col(&input[s * in_f..(s + 1) * in_f], g, patches);
            // orow as (O × P) = W (O×K) · patchesᵀ (K×P)
            bt_kernel(weights, patches, orow, out_channels, k, p);
            for (ch, seg) in orow.chunks_exact_mut(p).enumerate() {
                let b = bias[ch];
                for v in seg {
                    *v += b;
                }
            }
        }
    };

    crate::parallel::par_row_chunks_scratch_mut(out, out_f, scratch, p * k, run_rows);
}

/// Batched square non-overlapping max pooling into a caller-owned buffer.
///
/// `input` holds `batch` CHW volumes; `out` receives the pooled volumes
/// (spatial dims floor-divided by `window`). When `argmax` is provided it is
/// filled with the flat within-sample input index of every pooled maximum
/// (ties resolve to the first occurrence, matching the training-path layer).
#[allow(clippy::too_many_arguments)]
pub fn maxpool2_batch_into(
    input: &[f32],
    out: &mut [f32],
    mut argmax: Option<&mut [u32]>,
    channels: usize,
    in_h: usize,
    in_w: usize,
    window: usize,
    batch: usize,
) {
    let (oh, ow) = (in_h / window, in_w / window);
    let in_f = channels * in_h * in_w;
    let out_f = channels * oh * ow;
    debug_assert_eq!(input.len(), batch * in_f, "pool input size mismatch");
    debug_assert_eq!(out.len(), batch * out_f, "pool output size mismatch");
    if let Some(am) = &argmax {
        debug_assert_eq!(am.len(), batch * out_f);
    }
    for s in 0..batch {
        let x = &input[s * in_f..(s + 1) * in_f];
        let o = &mut out[s * out_f..(s + 1) * out_f];
        let mut am = argmax.as_mut().map(|a| &mut a[s * out_f..(s + 1) * out_f]);
        for c in 0..channels {
            let chan = c * in_h * in_w;
            let ochan = c * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for ky in 0..window {
                        let iy = oy * window + ky;
                        let row = chan + iy * in_w + ox * window;
                        for kx in 0..window {
                            let v = x[row + kx];
                            if v > best {
                                best = v;
                                best_i = row + kx;
                            }
                        }
                    }
                    o[ochan + oy * ow + ox] = best;
                    if let Some(am) = am.as_mut() {
                        am[ochan + oy * ow + ox] = best_i as u32;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_channels: c,
            in_h: h,
            in_w: w,
            k_h: k,
            k_w: k,
            stride,
            pad,
        }
    }

    #[test]
    fn output_dims() {
        let g = geom(1, 28, 28, 5, 1, 0);
        assert_eq!(g.out_h(), 24);
        assert_eq!(g.out_w(), 24);
        let g = geom(1, 28, 28, 5, 1, 2);
        assert_eq!(g.out_h(), 28);
        let g = geom(1, 28, 28, 2, 2, 0);
        assert_eq!(g.out_h(), 14);
    }

    #[test]
    fn validate_rejects_degenerate() {
        assert!(geom(1, 4, 4, 0, 1, 0).validate().is_err());
        assert!(geom(1, 4, 4, 3, 0, 0).validate().is_err());
        assert!(geom(1, 2, 2, 5, 1, 0).validate().is_err());
        assert!(geom(1, 2, 2, 5, 1, 2).validate().is_ok());
        assert!(geom(1, 28, 28, 5, 1, 0).validate().is_ok());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, stride 1: patch matrix is the image itself, one pixel
        // per row.
        let g = geom(1, 2, 3, 1, 1, 0);
        let img: Vec<f32> = (1..=6).map(|v| v as f32).collect();
        let mut out = vec![0.0; g.patch_rows() * g.patch_cols()];
        im2col(&img, &g, &mut out);
        assert_eq!(out, img);
    }

    #[test]
    fn im2col_known_3x3() {
        // 3×3 image, 2×2 kernel, stride 1: four patches.
        let g = Conv2dGeom {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 2,
            k_w: 2,
            stride: 1,
            pad: 0,
        };
        let img: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut out = vec![0.0; g.patch_rows() * g.patch_cols()];
        im2col(&img, &g, &mut out);
        assert_eq!(
            out,
            vec![
                1.0, 2.0, 4.0, 5.0, // patch at (0,0)
                2.0, 3.0, 5.0, 6.0, // (0,1)
                4.0, 5.0, 7.0, 8.0, // (1,0)
                5.0, 6.0, 8.0, 9.0, // (1,1)
            ]
        );
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let g = Conv2dGeom {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let mut out = vec![0.0; g.patch_rows() * g.patch_cols()];
        im2col(&img, &g, &mut out);
        // First patch is the 3×3 window centred at (0,0): top row and left
        // column are padding.
        assert_eq!(&out[..9], &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn im2col_multichannel_layout() {
        // 2 channels, 2×2 image, 2×2 kernel: single patch, channel-major.
        let g = Conv2dGeom {
            in_channels: 2,
            in_h: 2,
            in_w: 2,
            k_h: 2,
            k_w: 2,
            stride: 1,
            pad: 0,
        };
        let img: Vec<f32> = (1..=8).map(|v| v as f32).collect();
        let mut out = vec![0.0; g.patch_rows() * g.patch_cols()];
        im2col(&img, &g, &mut out);
        assert_eq!(out, img); // channel 0 patch then channel 1 patch
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // verified on a non-trivial geometry with padding and stride.
        let g = Conv2dGeom {
            in_channels: 2,
            in_h: 5,
            in_w: 4,
            k_h: 3,
            k_w: 3,
            stride: 2,
            pad: 1,
        };
        let n_in = g.in_channels * g.in_h * g.in_w;
        let n_cols = g.patch_rows() * g.patch_cols();
        let x: Vec<f32> = (0..n_in).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..n_cols).map(|i| (i as f32 * 0.11).cos()).collect();

        let mut ax = vec![0.0; n_cols];
        im2col(&x, &g, &mut ax);
        let lhs: f32 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();

        let mut aty = vec![0.0; n_in];
        col2im(&y, &g, &mut aty);
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();

        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates() {
        let g = geom(1, 2, 2, 1, 1, 0);
        let cols_m = vec![1.0, 2.0, 3.0, 4.0];
        let mut grad = vec![10.0; 4];
        col2im(&cols_m, &g, &mut grad);
        assert_eq!(grad, vec![11.0, 12.0, 13.0, 14.0]);
    }
}
