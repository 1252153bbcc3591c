//! Explicit AVX2+FMA kernels — the workspace's one sanctioned `unsafe`
//! island (see `crates/tensor/src/lib.rs` for the demotion from
//! `forbid(unsafe_code)` and the `unsafe-audit` lint rule that polices it).
//!
//! Every function here is either a safe wrapper (feature-detects, falls back
//! to the scalar kernel when AVX2/FMA is absent, splits work across threads)
//! or a `#[target_feature(enable = "avx2,fma")] unsafe fn` microkernel. The
//! unsafety is narrow: executing AVX2/FMA instructions, which is undefined
//! behaviour only on CPUs without those features — so every wrapper gates on
//! [`available`] before entering an `unsafe` block, and every `unsafe` block
//! carries a `// SAFETY:` justification (enforced by `cbnet-lint`).
//! No raw-pointer arithmetic escapes a kernel: tails shorter than one
//! 8-lane vector go through `_mm256_maskload_ps`/`_mm256_maskstore_ps`,
//! which touch exactly the masked lanes, so all memory access stays inside
//! the argument slices.
//!
//! # Reduction-order contract (what is and isn't bit-identical)
//!
//! * [`dot`] — lane `l` of an 8-lane accumulator sums elements
//!   `l, l+8, l+16, …` with one **fused** multiply-add per element
//!   (`f32::mul_add` semantics: a single rounding). When `len % 8 != 0`, one
//!   final masked step adds `mul_add(0, 0, lane)` to every lane. Lanes then
//!   combine in the fixed tree
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
//!   This is a *different* rounding sequence from the scalar dot (4-lane,
//!   separate multiply and add), so dot-family kernels (`matmul_bt_into`,
//!   `matmul_bt_bias_into`, `matvec_into`) agree with scalar only to
//!   documented tolerance. `crates/tensor/tests/backend_conformance.rs`
//!   pins this contract **bitwise** against a safe `f32::mul_add` model.
//! * [`matmul_into`] / [`matmul_at_into`] — vectorised over the unit-stride
//!   output dimension with *separate* multiply and add (no FMA), preserving
//!   the scalar kernels' per-element operation sequence exactly, including
//!   the `a == 0.0` row-skip: **bit-identical** to scalar.
//! * [`relu_into`] — `_mm256_max_ps(x, 0)`: bit-identical to scalar except
//!   that a `-0.0` input maps to `+0.0` (the scalar `f32::max` may keep the
//!   sign); conformance tests compare zeros sign-insensitively.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_loadu_si256,
    _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_max_ps, _mm256_mul_ps, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_storeu_ps,
};
use std::sync::OnceLock;

use crate::matmul::{resident_schedule, split_outputs_bt, PAR_THRESHOLD};
use crate::ops::{ELEMWISE_GRANULE, ELEMWISE_PAR_THRESHOLD};
use crate::parallel::{max_threads, par_row_chunks_mut};

/// True when the running CPU supports AVX2 and FMA (cached after the first
/// call). Every safe wrapper in this module consults this before touching an
/// intrinsic; when it is false they delegate to the scalar kernels.
pub fn available() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// `MASK_TABLE[r]` enables the first `r` of 8 lanes (sign bit set) — the
/// mask operand `_mm256_maskload_ps`/`_mm256_maskstore_ps` use so tail
/// loads/stores touch exactly `len % 8` elements and never go out of bounds.
static MASK_TABLE: [[i32; 8]; 8] = {
    let mut table = [[0i32; 8]; 8];
    let mut r = 0;
    while r < 8 {
        let mut lane = 0;
        while lane < r {
            table[r][lane] = -1;
            lane += 1;
        }
        r += 1;
    }
    table
};

/// Load the lane mask for a tail of `rem` (1..=7) elements.
///
/// # Safety
/// Requires AVX2 — the safe wrappers check [`available`] first.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tail_mask(rem: usize) -> __m256i {
    debug_assert!(rem < 8);
    // SAFETY: `MASK_TABLE[rem]` is a 32-byte row and `loadu` has no
    // alignment requirement.
    unsafe { _mm256_loadu_si256(MASK_TABLE[rem].as_ptr().cast()) }
}

/// Horizontal sum of an 8-lane accumulator in the **fixed tree order**
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — part of the documented
/// reduction contract, pinned bitwise by the backend conformance tests.
///
/// # Safety
/// Requires AVX2 — the safe wrappers check [`available`] first.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum8(v: __m256) -> f32 {
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is a 32-byte buffer and `storeu` has no alignment
    // requirement.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
    ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
}

/// One 8-lane FMA dot product (see the module docs for the exact reduction
/// order).
///
/// # Safety
/// Requires AVX2+FMA; `a` and `b` must have equal lengths.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let len = a.len();
    let chunks = len / 8;
    let rem = len % 8;
    // SAFETY: full-vector loads read lanes `8i..8i+8 <= len`; the tail uses
    // a masked load that touches only the first `rem` lanes past `8*chunks`.
    // AVX2+FMA execution is guaranteed by this fn's safety contract.
    unsafe {
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let av = _mm256_loadu_ps(a.as_ptr().add(i * 8));
            let bv = _mm256_loadu_ps(b.as_ptr().add(i * 8));
            acc = _mm256_fmadd_ps(av, bv, acc);
        }
        if rem > 0 {
            let mask = tail_mask(rem);
            let av = _mm256_maskload_ps(a.as_ptr().add(chunks * 8), mask);
            let bv = _mm256_maskload_ps(b.as_ptr().add(chunks * 8), mask);
            acc = _mm256_fmadd_ps(av, bv, acc);
        }
        hsum8(acc)
    }
}

/// Four dot products against a shared right operand, each on its own
/// accumulator chain — bit-identical per output to [`dot_avx2`], but the
/// shared operand is loaded once per 8 elements and the four independent
/// FMA chains hide the FMA latency (the main throughput win over scalar).
///
/// # Safety
/// Requires AVX2+FMA; all five slices must have equal lengths.
#[target_feature(enable = "avx2,fma")]
unsafe fn dot4_avx2(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f32; 4] {
    let len = b.len();
    debug_assert!(a0.len() == len && a1.len() == len && a2.len() == len && a3.len() == len);
    let chunks = len / 8;
    let rem = len % 8;
    // SAFETY: same bounds argument as `dot_avx2`, applied to each of the
    // four equal-length left operands; AVX2+FMA guaranteed by the caller.
    unsafe {
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        for i in 0..chunks {
            let bv = _mm256_loadu_ps(b.as_ptr().add(i * 8));
            c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0.as_ptr().add(i * 8)), bv, c0);
            c1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1.as_ptr().add(i * 8)), bv, c1);
            c2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2.as_ptr().add(i * 8)), bv, c2);
            c3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3.as_ptr().add(i * 8)), bv, c3);
        }
        if rem > 0 {
            let mask = tail_mask(rem);
            let base = chunks * 8;
            let bv = _mm256_maskload_ps(b.as_ptr().add(base), mask);
            c0 = _mm256_fmadd_ps(_mm256_maskload_ps(a0.as_ptr().add(base), mask), bv, c0);
            c1 = _mm256_fmadd_ps(_mm256_maskload_ps(a1.as_ptr().add(base), mask), bv, c1);
            c2 = _mm256_fmadd_ps(_mm256_maskload_ps(a2.as_ptr().add(base), mask), bv, c2);
            c3 = _mm256_fmadd_ps(_mm256_maskload_ps(a3.as_ptr().add(base), mask), bv, c3);
        }
        [hsum8(c0), hsum8(c1), hsum8(c2), hsum8(c3)]
    }
}

/// `c_row[j] += s * b_row[j]` vectorised with *separate* multiply and add
/// (no FMA) — the exact operation sequence of the scalar ikj kernel, so
/// results stay bit-identical.
///
/// # Safety
/// Requires AVX2; `c_row` and `b_row` must have equal lengths.
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(c_row: &mut [f32], b_row: &[f32], s: f32) {
    debug_assert_eq!(c_row.len(), b_row.len());
    let len = c_row.len();
    let chunks = len / 8;
    let rem = len % 8;
    // SAFETY: full-vector accesses stay within `8*chunks <= len`; the tail
    // masked load/store touches only the first `rem` lanes past that. AVX2
    // execution is guaranteed by this fn's safety contract.
    unsafe {
        let sv = _mm256_set1_ps(s);
        for i in 0..chunks {
            let cp = c_row.as_mut_ptr().add(i * 8);
            let bv = _mm256_loadu_ps(b_row.as_ptr().add(i * 8));
            let cv = _mm256_loadu_ps(cp);
            _mm256_storeu_ps(cp, _mm256_add_ps(cv, _mm256_mul_ps(sv, bv)));
        }
        if rem > 0 {
            let mask = tail_mask(rem);
            let base = chunks * 8;
            let cp = c_row.as_mut_ptr().add(base);
            let bv = _mm256_maskload_ps(b_row.as_ptr().add(base), mask);
            let cv = _mm256_maskload_ps(cp, mask);
            _mm256_maskstore_ps(cp, mask, _mm256_add_ps(cv, _mm256_mul_ps(sv, bv)));
        }
    }
}

/// Serial ikj kernel over output rows `[row0, row0+rows)` — the AVX2 twin of
/// the scalar `matmul_rows`, bit-identical including the zero-row skip.
///
/// # Safety
/// Requires AVX2; slice dimensions must agree with `(row0, rows, k, n)`.
#[target_feature(enable = "avx2")]
unsafe fn matmul_rows_avx2(
    a: &[f32],
    b: &[f32],
    chunk: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    chunk.fill(0.0);
    for i in 0..rows {
        let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
        let c_row = &mut chunk[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue; // same sparse-row skip as the scalar kernel
            }
            // SAFETY: AVX2 is guaranteed by this fn's safety contract;
            // `axpy_avx2` performs only in-bounds masked/unmasked accesses.
            unsafe { axpy_avx2(c_row, &b[p * n..(p + 1) * n], a_ip) };
        }
    }
}

/// `C = A·Bᵀ` over output rows `[row0, row0+rows)`, i-outer with the j loop
/// blocked by 4 so each `A` row is streamed once per 4 outputs. Every output
/// element is one [`dot_avx2`]-ordered reduction (plus `+ bias[j]` when
/// present).
///
/// # Safety
/// Requires AVX2+FMA; slice dimensions must agree with `(row0, rows, k, n)`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn bt_iouter_avx2(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    chunk: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    for i in 0..rows {
        let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
        let out_row = &mut chunk[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            // SAFETY: the four B rows and `a_row` all have length `k`;
            // AVX2+FMA guaranteed by this fn's safety contract. Operand
            // order is irrelevant to the bits (multiplication commutes).
            let d = unsafe {
                dot4_avx2(
                    &b[j * k..(j + 1) * k],
                    &b[(j + 1) * k..(j + 2) * k],
                    &b[(j + 2) * k..(j + 3) * k],
                    &b[(j + 3) * k..(j + 4) * k],
                    a_row,
                )
            };
            match bias {
                Some(bv) => {
                    out_row[j] = d[0] + bv[j];
                    out_row[j + 1] = d[1] + bv[j + 1];
                    out_row[j + 2] = d[2] + bv[j + 2];
                    out_row[j + 3] = d[3] + bv[j + 3];
                }
                None => out_row[j..j + 4].copy_from_slice(&d),
            }
            j += 4;
        }
        while j < n {
            // SAFETY: both operands have length `k`; AVX2+FMA guaranteed by
            // this fn's safety contract.
            let v = unsafe { dot_avx2(a_row, &b[j * k..(j + 1) * k]) };
            out_row[j] = match bias {
                Some(bv) => v + bv[j],
                None => v,
            };
            j += 1;
        }
    }
}

/// `C = A·Bᵀ` on the cache-resident j-outer schedule (one `B` row hot in L1
/// across the whole i sweep), with the i loop blocked by 4 independent FMA
/// chains. Bit-identical per output to [`bt_iouter_avx2`] — the schedule
/// only changes traversal order, never an output's reduction sequence.
///
/// # Safety
/// Requires AVX2+FMA; slice dimensions must agree with `(row0, rows, k, n)`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn bt_jouter_avx2(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    chunk: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    for j in 0..n {
        let b_row = &b[j * k..(j + 1) * k];
        let bj = bias.map_or(0.0, |bv| bv[j]);
        let add_bias = bias.is_some();
        let mut i = 0;
        while i + 4 <= rows {
            let base = (row0 + i) * k;
            // SAFETY: the four A rows and `b_row` all have length `k`;
            // AVX2+FMA guaranteed by this fn's safety contract.
            let d = unsafe {
                dot4_avx2(
                    &a[base..base + k],
                    &a[base + k..base + 2 * k],
                    &a[base + 2 * k..base + 3 * k],
                    &a[base + 3 * k..base + 4 * k],
                    b_row,
                )
            };
            for (t, &v) in d.iter().enumerate() {
                chunk[(i + t) * n + j] = if add_bias { v + bj } else { v };
            }
            i += 4;
        }
        while i < rows {
            // SAFETY: both operands have length `k`; AVX2+FMA guaranteed by
            // this fn's safety contract.
            let v = unsafe { dot_avx2(&a[(row0 + i) * k..(row0 + i) * k + k], b_row) };
            chunk[i * n + j] = if add_bias { v + bj } else { v };
            i += 1;
        }
    }
}

/// `y = A·x` with the row loop blocked by 4 so the shared `x` operand is
/// loaded once per 4 outputs; each output is one [`dot_avx2`]-ordered
/// reduction.
///
/// # Safety
/// Requires AVX2+FMA; `a` is `(m × n)` row-major, `x` is `n`, `y` is `m`.
#[target_feature(enable = "avx2,fma")]
unsafe fn matvec_avx2(a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
    let mut i = 0;
    while i + 4 <= m {
        // SAFETY: the four A rows and `x` all have length `n`; AVX2+FMA
        // guaranteed by this fn's safety contract.
        let d = unsafe {
            dot4_avx2(
                &a[i * n..(i + 1) * n],
                &a[(i + 1) * n..(i + 2) * n],
                &a[(i + 2) * n..(i + 3) * n],
                &a[(i + 3) * n..(i + 4) * n],
                x,
            )
        };
        y[i..i + 4].copy_from_slice(&d);
        i += 4;
    }
    while i < m {
        // SAFETY: both operands have length `n`; AVX2+FMA guaranteed by
        // this fn's safety contract.
        y[i] = unsafe { dot_avx2(&a[i * n..(i + 1) * n], x) };
        i += 1;
    }
}

/// `out[i] = max(input[i], 0)` 8 lanes at a time.
///
/// # Safety
/// Requires AVX2; `input` and `out` must have equal lengths.
#[target_feature(enable = "avx2")]
unsafe fn relu_avx2(input: &[f32], out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len());
    let len = input.len();
    let chunks = len / 8;
    let rem = len % 8;
    // SAFETY: full-vector accesses stay within `8*chunks <= len`; the tail
    // masked load/store touches only the first `rem` lanes past that. AVX2
    // execution is guaranteed by this fn's safety contract.
    unsafe {
        let zero = _mm256_setzero_ps();
        for i in 0..chunks {
            let v = _mm256_loadu_ps(input.as_ptr().add(i * 8));
            _mm256_storeu_ps(out.as_mut_ptr().add(i * 8), _mm256_max_ps(v, zero));
        }
        if rem > 0 {
            let mask = tail_mask(rem);
            let base = chunks * 8;
            let v = _mm256_maskload_ps(input.as_ptr().add(base), mask);
            _mm256_maskstore_ps(out.as_mut_ptr().add(base), mask, _mm256_max_ps(v, zero));
        }
    }
}

// --------------------------------------------------------------------------
// Safe wrappers: feature-gate, scalar fallback, thread splitting. These are
// what `SimdBackend` dispatches to; none of them allocate.
// --------------------------------------------------------------------------

/// FMA dot product of two equal-length slices (see the module docs for the
/// exact reduction order). Falls back to the scalar [`crate::matmul::dot`]
/// when AVX2/FMA is unavailable.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    if !available() {
        return crate::matmul::dot(a, b);
    }
    // SAFETY: AVX2+FMA availability checked on the line above.
    unsafe { dot_avx2(a, b) }
}

/// `C = A · B`, written into the caller-owned `c` (fully overwritten) —
/// bit-identical to [`crate::matmul::matmul_into`] (separate multiply/add,
/// same zero-skip), 8 lanes wide, same row-parallel split.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if !available() {
        return crate::matmul::matmul_into(a, b, c, m, k, n);
    }
    let body = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        // SAFETY: AVX2 availability checked at function entry; the kernel
        // performs only in-bounds masked/unmasked accesses.
        unsafe { matmul_rows_avx2(a, b, chunk, row0, rows, k, n) };
    };
    if m * n >= PAR_THRESHOLD && max_threads() > 1 {
        par_row_chunks_mut(c, n, body);
    } else {
        body(0, c);
    }
}

/// `C = A · Bᵀ`, written into the caller-owned `c` (fully overwritten).
/// Each output element is one FMA [`dot`]; agrees with the scalar kernel to
/// the documented tolerance, not bitwise.
pub fn matmul_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if !available() {
        return crate::matmul::matmul_bt_into(a, b, c, m, k, n);
    }
    let body = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        // SAFETY: AVX2+FMA availability checked at function entry.
        unsafe { bt_iouter_avx2(a, b, None, chunk, row0, rows, k, n) };
    };
    if m * n >= PAR_THRESHOLD && max_threads() > 1 {
        par_row_chunks_mut(c, n, body);
    } else {
        body(0, c);
    }
}

/// `C = A · Bᵀ` with an optionally fused bias row-broadcast, written into
/// the caller-owned `c` (fully overwritten) — the planned dense-layer
/// kernel, on the same schedule choices and thread splits as the scalar
/// [`crate::matmul::matmul_bt_bias_into`] (including the small-batch split
/// of output features across the pool). Every schedule produces the same
/// bits here (every output is one FMA [`dot`] + bias add).
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
    if !available() {
        return crate::matmul::matmul_bt_bias_into(a, b, bias, c, m, k, n);
    }
    if split_outputs_bt(a, b, bias, c, m, k, n, |a_row, b, bias, out| {
        // SAFETY: AVX2+FMA availability checked at function entry; `b`
        // holds `out.len()` rows of length `k`.
        unsafe { bt_iouter_avx2(a_row, b, bias, out, 0, 1, k, out.len()) }
    }) {
        return;
    }
    let body = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        if resident_schedule(rows, k, n) {
            // SAFETY: AVX2+FMA availability checked at function entry.
            unsafe { bt_jouter_avx2(a, b, bias, chunk, row0, rows, k, n) };
        } else {
            // SAFETY: AVX2+FMA availability checked at function entry.
            unsafe { bt_iouter_avx2(a, b, bias, chunk, row0, rows, k, n) };
        }
    };
    if m * n >= PAR_THRESHOLD && max_threads() > 1 {
        par_row_chunks_mut(c, n, body);
    } else {
        body(0, c);
    }
}

/// `C = Aᵀ · B`, written into the caller-owned `c` (fully overwritten) —
/// bit-identical to [`crate::matmul::matmul_at_into`] (separate
/// multiply/add rank-1 sweeps, same zero-skip), 8 lanes wide.
pub fn matmul_at_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if !available() {
        return crate::matmul::matmul_at_into(a, b, c, m, k, n);
    }
    c.fill(0.0);
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_v) in a_row.iter().enumerate() {
            if a_v == 0.0 {
                continue;
            }
            // SAFETY: AVX2 availability checked at function entry; the
            // kernel performs only in-bounds masked/unmasked accesses.
            unsafe { axpy_avx2(&mut c[i * n..(i + 1) * n], b_row, a_v) };
        }
    }
}

/// `y = A·x`, written into the caller-owned `y` (fully overwritten). Each
/// output is one FMA [`dot`], so it agrees with [`matmul_bt_into`] bitwise
/// and with the scalar kernel to the documented tolerance.
pub fn matvec_into(a: &[f32], x: &[f32], y: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    if !available() {
        return crate::matmul::matvec_into(a, x, y, m, n);
    }
    // SAFETY: AVX2+FMA availability checked on the line above.
    unsafe { matvec_avx2(a, x, y, m, n) };
}

/// `out = max(input, 0)` elementwise, written into the caller-owned `out`
/// (same thread-splitting policy as the scalar elementwise kernels;
/// bit-identical except `-0.0` inputs map to `+0.0`).
pub fn relu_into(input: &[f32], out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len());
    if !available() {
        return crate::ops::relu_into(input, out);
    }
    if input.len() >= ELEMWISE_PAR_THRESHOLD && max_threads() > 1 {
        par_row_chunks_mut(out, ELEMWISE_GRANULE, |g0, chunk| {
            let start = g0 * ELEMWISE_GRANULE;
            // SAFETY: AVX2 availability checked at function entry; the
            // kernel performs only in-bounds masked/unmasked accesses.
            unsafe { relu_avx2(&input[start..start + chunk.len()], chunk) };
        });
    } else {
        // SAFETY: AVX2 availability checked at function entry.
        unsafe { relu_avx2(input, out) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32) * 0.37 - 1.0) * scale)
            .collect()
    }

    /// Safe scalar model of the SIMD dot contract: 8 `mul_add` lanes, the
    /// masked-tail `mul_add(0, 0, lane)` step, and the fixed combine tree.
    fn model_dot(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 8];
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            lanes[i % 8] = x.mul_add(y, lanes[i % 8]);
        }
        if !a.len().is_multiple_of(8) {
            for lane in lanes.iter_mut() {
                *lane = 0.0f32.mul_add(0.0, *lane);
            }
        }
        ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
    }

    #[test]
    fn dot_matches_documented_reduction_order_bitwise() {
        if !available() {
            return;
        }
        for len in [0, 1, 5, 7, 8, 9, 15, 16, 17, 64, 100, 783, 784] {
            let a = seq(len, 1.3);
            let b = seq(len, -0.7);
            assert_eq!(
                dot(&a, &b).to_bits(),
                model_dot(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn matmul_is_bit_identical_to_scalar() {
        if !available() {
            return;
        }
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 13, 9), (4, 8, 16)] {
            let a = seq(m * k, 0.9);
            let b = seq(k * n, 1.1);
            let mut simd_c = vec![0.0; m * n];
            let mut scalar_c = vec![0.0; m * n];
            matmul_into(&a, &b, &mut simd_c, m, k, n);
            crate::matmul::matmul_into(&a, &b, &mut scalar_c, m, k, n);
            assert_eq!(simd_c, scalar_c, "({m},{k},{n})");
        }
    }
}
