//! The FT-ClipAct methodology (the paper's primary contribution).
//!
//! FT-ClipAct improves the fault tolerance of a *pre-trained* DNN without
//! the training dataset, without retraining and without hardware redundancy,
//! by replacing unbounded activation functions with clipped variants whose
//! thresholds are tuned for resilience. The three steps of the methodology
//! (paper §IV, Fig. 4) map onto this crate as:
//!
//! 1. **Profiling** ([`profile_network`]) — run a subset of the validation
//!    set through the network and record the maximum activation
//!    (`ACT_max`) and value distribution at every activation site.
//! 2. **Conversion** ([`ftclip_nn::Sequential::convert_to_clipped`]) —
//!    replace every unbounded activation with its clipped counterpart,
//!    thresholds initialized to the profiled `ACT_max`.
//! 3. **Threshold fine-tuning** ([`ThresholdTuner`]) — per layer, search
//!    `[0, ACT_max]` for the threshold that maximizes the **AUC resilience
//!    metric** ([`auc_normalized`]): the area under the accuracy-vs-
//!    normalized-fault-rate curve, measured by fault-injection campaigns.
//!    The search is the paper's Algorithm 1 — iterative three-way interval
//!    refinement around the best boundary.
//!
//! [`ProfileConfig::clip`] runs Steps 1–2 in one call; [`Methodology`]
//! chains it with Step 3; [`Comparison`] computes the
//! paper's §V-B improvement numbers between a hardened and an unprotected
//! network.
//!
//! # Example
//!
//! ```no_run
//! use ftclip_core::{EvalSet, Methodology};
//! use ftclip_data::SynthCifar;
//! use ftclip_models::alexnet_cifar;
//!
//! let data = SynthCifar::builder().seed(1).build();
//! let mut net = alexnet_cifar(0.25, 10, 42); // pretend it is trained
//! let methodology = Methodology::default();
//! let report = methodology.harden(&mut net, data.val());
//! println!("tuned thresholds: {:?}", report.tuned_thresholds);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auc;
mod evalset;
mod methodology;
mod profile;
mod report;
mod table;
mod tuner;

pub use auc::{auc_normalized, campaign_auc, AucConfig, SiteEvaluator};
pub use evalset::{EvalSet, EvalSettings, PrefixCache, PrefixCacheStats, SuffixAccuracy};
/// Deterministic failpoint harness (`FTCLIP_FAILPOINTS`) for chaos testing.
///
/// Implemented in `ftclip_tensor` so every layer of the stack (store, nn
/// caches, the service) can host sites; re-exported here as the canonical
/// path.
pub use ftclip_tensor::failpoint;
pub use methodology::{HardenReport, LayerTuneReport, Methodology, ProfileConfig};
pub use profile::{profile_network, ActivationHistogram, SiteProfile};
pub use report::{improvement_percent, Comparison};
pub use table::{CellValue, ResultTable};
pub use tuner::{grid_search_site, IterationTrace, ThresholdTuner, TuneOutcome, TunerConfig};
