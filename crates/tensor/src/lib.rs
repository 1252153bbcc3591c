//! # tensor — dense n-dimensional tensor substrate
//!
//! A small, fast, dependency-light tensor library built for the CBNet
//! reproduction. It provides exactly what a LeNet/BranchyNet-scale training
//! stack needs:
//!
//! * contiguous `f32` storage with shape/stride bookkeeping ([`Tensor`]),
//! * elementwise and reduction kernels ([`ops`]),
//! * cache-blocked, optionally multi-threaded matrix multiplication
//!   ([`matmul`]) on a persistent worker pool ([`parallel`]),
//! * `im2col`/`col2im` lowering for convolutions ([`conv`]),
//! * pluggable compute backends ([`backend`]): the portable scalar kernels
//!   plus an explicit AVX2+FMA SIMD set, selected at runtime,
//! * seeded random initialisation ([`random`]),
//! * a compact binary serialisation format ([`serialize`]).
//!
//! The design follows the Rust performance-book guidance used throughout this
//! workspace: no allocation inside hot loops, flat `Vec<f32>` storage, index
//! arithmetic hoisted out of inner loops, and data-parallel outer loops on a
//! worker pool (data-race freedom by construction — each thread gets a
//! disjoint `&mut` chunk).
//!
//! ```
//! use tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

// `deny`, not `forbid`: the two sanctioned exceptions are the explicit-SIMD
// module (`backend::simd`) and the worker pool (`parallel::pool`, whose jobs
// are borrowed closures with their lifetime erased for one call). Each opts
// back in with a scoped `#![allow(unsafe_code)]` and carries a `// SAFETY:`
// justification on every unsafe block — both policed by the `unsafe-audit`
// cbnet-lint rule. All other modules remain unsafe-free.
#![deny(unsafe_code)]

pub mod axis;
pub mod backend;
pub mod conv;
pub mod error;
pub mod matmul;
pub mod ops;
pub mod parallel;
pub mod random;
pub mod serialize;
pub mod shape;
#[allow(clippy::module_inception)]
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
