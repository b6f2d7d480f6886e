//! Bit-exact weight-memory fault injection for the FT-ClipAct reproduction.
//!
//! The paper's resilience analysis (§III) injects random bit flips into the
//! memory blocks storing a DNN's parameters and measures the classification
//! accuracy that survives. This crate reproduces that framework on top of
//! `ftclip-nn` networks:
//!
//! * [`FaultModel`] — transient bit flips and permanent stuck-at-0/1 faults
//!   on IEEE-754 `f32` weight words, optionally stratified by
//!   [`BitPosition`] (exact bit, quadrant, exponent, mantissa, sign) over
//!   both f32 and int8 encodings.
//! * [`MemoryMap`]/[`InjectionTarget`] — a linear address space over the
//!   parameters selected for injection (whole network, single layer — the
//!   per-layer analysis of Fig. 3 — weights only, or biases).
//! * [`sample_bit_positions`] — exact independent `Bernoulli(rate)` sampling
//!   over every bit of the selected memory, implemented with geometric
//!   skipping so cost scales with the number of *faults*, not the number of
//!   bits.
//! * [`Injection`] — applies a sampled fault set and can undo it exactly,
//!   so one trained network serves an entire campaign.
//! * [`Campaign`] — the paper's experiment shape: a grid of fault rates ×
//!   repetitions with derived seeds, returning per-rate accuracy
//!   distributions ([`Summary`]: mean, min, quartiles, max — the Fig. 7/8
//!   box plots). One executor runs it over any [`FaultSubstrate`]: the f32
//!   network here, the int8 plan in `ftclip_quant`.
//!
//! # Example
//!
//! ```
//! use ftclip_fault::{FaultModel, InjectionTarget, Injection};
//! use ftclip_nn::{Layer, Sequential};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut net = Sequential::new(vec![Layer::linear(8, 4, 0)]);
//! let mut rng = StdRng::seed_from_u64(1);
//! let inj = Injection::sample(&net, InjectionTarget::AllWeights, FaultModel::BitFlip, 1e-2, &mut rng);
//! let n_faults = inj.fault_count();
//! inj.apply(&mut net).undo(&mut net); // network restored bit-exactly
//! assert!(n_faults < 8 * 4 * 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod inject;
mod memory;
mod model;
mod progress;
mod protection;
mod sampler;
mod stats;

pub use campaign::{
    paper_fault_rates, Campaign, CampaignCache, CampaignConfig, CampaignError, CampaignResult, CellEval,
    FaultSubstrate, NoCache, RateConvergence, RunRecord, StoppingRule, SuffixHint,
};
pub use inject::{AppliedInjection, Injection};
pub use memory::{InjectionTarget, MemoryMap, Region};
pub use model::{BitLocation, BitPosition, FaultModel, Quadrant};
pub use progress::{current_observer, with_observer, CampaignObserver, CancelledCampaign};
pub use protection::{
    apply_tmr, inject_with_protection, DecodeStatus, DoubleErrorPolicy, ProtectedInjection, ProtectionScheme,
    SecDed,
};
pub use sampler::{derive_seed, expected_fault_count, sample_bit_positions};
pub use stats::{bootstrap_interval, wilson_interval, ConfidenceInterval, Summary};
