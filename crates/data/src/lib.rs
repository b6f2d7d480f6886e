//! Dataset substrate for the FT-ClipAct reproduction.
//!
//! The paper evaluates on CIFAR-10. This environment has no dataset access,
//! so the crate provides two interchangeable sources (see
//! `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`):
//!
//! * [`SynthCifar`] — a **deterministic synthetic generator** of CIFAR-shaped
//!   (32×32×3, 10-class) images used by all experiments. Classes are defined
//!   by sinusoidal gratings, Gaussian blobs and colour priors; samples are
//!   corrupted with translation/flip/contrast jitter and pixel noise so
//!   trained baselines land in the paper's 70–85 % accuracy band.
//! * [`load_cifar10`] — a loader for the **real CIFAR-10 binary format**
//!   (`data_batch_*.bin` / `test_batch.bin`), unit-tested against files
//!   synthesized in that exact format, so users with the dataset can swap it
//!   in without touching experiment code.
//!
//! Both produce [`Dataset`] values: NCHW image tensors in `[-1, 1]` plus
//! integer labels.
//!
//! # Example
//!
//! ```
//! use ftclip_data::{Dataset, SynthCifar};
//!
//! let data = SynthCifar::builder().seed(7).train_size(64).test_size(32).build();
//! assert_eq!(data.train().len(), 64);
//! assert_eq!(data.test().images().shape().dims(), &[32, 3, 32, 32]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cifar;
mod dataset;
mod synth;

pub use cifar::{load_cifar10, load_cifar10_batch, write_cifar10_batch, DataError};
pub use dataset::Dataset;
pub use synth::{SynthCifar, SynthCifarBuilder};
