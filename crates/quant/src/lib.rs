//! Post-training int8 quantization for the FT-ClipAct reproduction.
//!
//! The paper's entire resilience analysis runs in `f32`; this crate adds the
//! second precision of the study: a **post-training quantized int8 inference
//! engine** plus byte-level fault injection over the quantized weight
//! memory. The pieces:
//!
//! * [`Precision`] — the `f32` / `int8` axis experiments select on.
//! * [`QuantizedPlan`] — a trained [`ftclip_nn::Sequential`] lowered through
//!   the graph-IR fusion decisions ([`ftclip_nn::ForwardPlan::node_descs`])
//!   into int8 nodes: per-tensor symmetric scales (zero-point 0) for weights
//!   and activations, calibrated over a held-out batch
//!   ([`QuantizedPlan::quantize`]).
//! * [`QuantInjection`] — [`ftclip_fault::FaultModel`] faults sampled over
//!   the int8 weight bytes, including [`ftclip_fault::BitPosition`]
//!   strata resolved against the 8-bit encoding (where `Exponent` is the
//!   empty stratum — int8 has no exponent field, which is exactly the
//!   structural difference the `fig_bitpos` experiment measures).
//! * Campaigns — [`QuantizedPlan`] implements
//!   [`ftclip_fault::FaultSubstrate`], so the one campaign executor,
//!   [`ftclip_fault::Campaign::run`], sweeps the rate × repetition grid over
//!   a quantized plan with the f32 path's seeds, cell cache protocol,
//!   adaptive stopping, thread fan-out, progress events and cancellation.
//!   The evaluator is a plain closure:
//!   `|p: &QuantizedPlan| p.accuracy(images, labels, batch)`.
//!
//! # Arithmetic contract
//!
//! Matrix products accumulate in `i32` (convolutions:
//! [`ftclip_tensor::matmul_i16_pairs_into`] over the pair-interleaved
//! gather; linear layers: [`ftclip_tensor::matmul_i8_nt_into`]); integer
//! addition is exact and associative, so the kernels re-associate freely for
//! speed and are still deterministic — the same plan and input always
//! produce the same logits. Dequantization, bias, activation and pooling
//! run in `f32` per node through the passes the `f32` engine runs
//! ([`ftclip_nn::Activation::bias_act`], [`ftclip_tensor::max_pool_planes`]),
//! then requantize for the next node; the final compute node emits `f32`
//! logits.
//!
//! The `f32` path is untouched by everything in this crate: quantization
//! reads the trained network immutably, and all int8 state lives in the
//! [`QuantizedPlan`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inject;
mod plan;
mod precision;
mod qtensor;

pub use inject::{AppliedQuantInjection, QuantInjection};
pub use plan::{QuantError, QuantizedPlan};
pub use precision::Precision;
pub use qtensor::{dequantize_value, quantize_slice, quantize_value, scale_for};
