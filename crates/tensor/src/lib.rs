//! Dense `f32` tensor substrate for the FT-ClipAct reproduction.
//!
//! This crate provides the numeric foundation on which the rest of the
//! workspace (the CNN engine in `ftclip-nn`, the fault-injection framework in
//! `ftclip-fault` and the FT-ClipAct methodology in `ftclip-core`) is built:
//!
//! * [`Tensor`] — an owned, contiguous, row-major `f32` tensor with an
//!   arbitrary number of dimensions (networks use NCHW).
//! * [`Shape`] — a lightweight dimension list with explicit validation.
//! * [`matmul()`], [`matmul_tn`], [`matmul_nt`] — multi-threaded matrix
//!   products (the only compute-heavy primitives the workspace needs): on
//!   x86-64, runtime-dispatched AVX-512/AVX2 register-blocked bodies; the
//!   cache-blocked, four-coefficient-unrolled scalar kernel is their twin on
//!   every other host and the reference they are tested against bit for bit.
//! * [`im2col()`]/[`col2im`] — the standard convolution lowering used by
//!   `ftclip-nn`'s `Conv2d` forward and backward passes.
//! * [`im2col_image_overwrite`] and [`max_pool_planes`] — the per-image
//!   gather and the fused pool pass that the `f32` and int8 inference plans
//!   share.
//!
//! # Example
//!
//! ```
//! use ftclip_tensor::{Tensor, matmul};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```
//!
//! # Design notes
//!
//! * Everything is `f32`: the paper injects bit flips into IEEE-754
//!   single-precision weight words, so the memory representation of
//!   parameters must be exactly `f32`.
//! * `unsafe` is denied workspace-wide with one sanctioned exception: the
//!   runtime-dispatched x86-64 SIMD bodies of the `f32` and int8 kernels
//!   (the private `simd` module), which `core::arch` makes unavoidably
//!   unsafe. Every other crate still forbids it outright.
//! * SIMD never changes a result bit: `f32` lanes are distinct output
//!   elements, each replaying the scalar ascending-`k` chain with a separate
//!   multiply and add (never FMA), and int8 accumulation is exact.
//! * Threading uses `std::thread::scope`; no runtime dependency is needed.
//!   [`fan_out`] is the one way the workspace splits a thread budget over
//!   independent items (each worker takes its [`budget_share`]), and
//!   [`par_row_bands`] the kernels' split of an output into row bands.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod failpoint;
mod im2col;
mod init;
mod int8;
mod matmul;
mod par;
mod pool;
mod shape;
#[cfg(target_arch = "x86_64")]
mod simd;
mod tensor;

pub use error::TensorError;
pub use im2col::{
    col2im, conv_output_size, im2col, im2col_batch, im2col_batch_into, im2col_image_overwrite, Conv2dGeometry,
};
pub use init::{he_normal, uniform_init, xavier_uniform};
pub use int8::{interleave_widen_pairs, matmul_i16_pairs_into, matmul_i8_nt_into};
pub use matmul::{gemm_accumulate, matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn};
pub use par::{budget_share, fan_out, num_threads, par_row_bands, with_thread_limit};
pub use pool::max_pool_planes;
pub use shape::Shape;
pub use tensor::Tensor;
