//! # ftclipact — FT-ClipAct (DATE 2020) reproduction
//!
//! Facade crate re-exporting the whole workspace:
//!
//! * [`tensor`] — dense `f32` tensors, matmul, im2col.
//! * [`nn`] — CNN layers (incl. **clipped activations**), backprop, optimizers.
//! * [`data`] — CIFAR-10 loader and the synthetic CIFAR-class generator.
//! * [`fault`] — bit-exact weight-memory fault injection and campaigns.
//! * [`models`] — AlexNet / VGG-16 / LeNet-5 CIFAR model zoo.
//! * [`store`] — persistent, resumable campaign result cache.
//! * [`core`] — the FT-ClipAct methodology: profiling, AUC, threshold tuning.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ftclipact::prelude::*;
//!
//! // Build + train a small model on the synthetic dataset, then harden it.
//! let dataset = SynthCifar::builder().seed(42).train_size(512).test_size(256).build();
//! let mut model = ftclipact::models::alexnet_cifar(0.125, 10, 42);
//! let trainer = Trainer::builder().epochs(2).batch_size(32).build();
//! trainer.fit(&mut model, dataset.train().images(), dataset.train().labels(), None);
//! // Harden it with the FT-ClipAct methodology (profile → clip → tune).
//! let report = Methodology::default().harden(&mut model, dataset.val());
//! println!("tuned thresholds: {:?}", report.tuned_thresholds);
//! ```
//!
//! See `examples/` for complete, runnable scenarios.

pub use ftclip_core as core;
pub use ftclip_data as data;
pub use ftclip_fault as fault;
pub use ftclip_models as models;
pub use ftclip_nn as nn;
pub use ftclip_store as store;
pub use ftclip_tensor as tensor;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use ftclip_core::{
        auc_normalized, AucConfig, HardenReport, Methodology, PrefixCache, ProfileConfig, SuffixAccuracy,
        ThresholdTuner, TunerConfig,
    };
    pub use ftclip_data::{Dataset, SynthCifar};
    pub use ftclip_fault::{
        Campaign, CampaignConfig, CellEval, FaultModel, InjectionTarget, NoCache, SuffixHint, Summary,
    };
    pub use ftclip_nn::{Activation, Layer, Sequential, Trainer};
    pub use ftclip_store::{campaign_fingerprint, Fingerprint, ResultStore};
    pub use ftclip_tensor::Tensor;
}
