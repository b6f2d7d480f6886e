//! CNN inference and training engine for the FT-ClipAct reproduction.
//!
//! This crate is the workspace's stand-in for the PyTorch substrate the paper
//! used. It provides:
//!
//! * [`Layer`] — a closed set of layer types: [`Conv2d`], [`Linear`],
//!   [`MaxPool2d`], [`AvgPool2d`], [`Layer::Flatten`], [`Dropout`] and
//!   [`Activation`] — including the paper's **clipped ReLU**
//!   ([`Activation::ClippedRelu`]), which maps values outside `[0, T]` to
//!   zero.
//! * [`Sequential`] — a feed-forward network with immutable inference
//!   through compiled fused plans ([`Sequential::execute`] /
//!   [`ForwardPlan::execute`], see the [`graph`] module) — the one forward
//!   API, whose [`Span`]s also serve Step 1 profiling — training-mode
//!   forward and backprop, and raw parameter access for the fault injector
//!   ([`Sequential::visit_params_mut`]).
//! * [`loss::SoftmaxCrossEntropy`], optimizers ([`opt::Sgd`], [`opt::Adam`]),
//!   learning-rate schedules ([`sched::LrSchedule`]) and a batteries-included
//!   [`Trainer`].
//! * Versioned binary (de)serialization of whole networks
//!   ([`save_network`]/[`load_network`]) so trained models can be cached.
//!
//! # Example
//!
//! ```
//! use ftclip_nn::{Activation, Layer, Scratch, Sequential, Span};
//! use ftclip_tensor::Tensor;
//!
//! let mut net = Sequential::new(vec![
//!     Layer::linear(4, 8, 0),
//!     Layer::relu(),
//!     Layer::linear(8, 2, 1),
//! ]);
//! let x = Tensor::ones(&[1, 4]);
//! let logits = net.execute(&x, Span::full(), &mut Scratch::new());
//! assert_eq!(logits.shape().dims(), &[1, 2]);
//! // Convert the ReLU to the paper's clipped variant with threshold 6.0:
//! net.convert_to_clipped(&[6.0]);
//! assert_eq!(net.clip_thresholds(), vec![Some(6.0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod batchnorm;
mod conv;
mod dropout;
mod error;
pub mod graph;
mod layer;
mod linear;
pub mod loss;
pub mod opt;
mod param;
mod pool;
pub mod sched;
mod scratch;
mod sequential;
mod serialize;
mod train;

pub use activation::Activation;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use error::NnError;
pub use graph::{live_activation, live_pool, ForwardPlan, PlanNode, Span};
pub use layer::{ActivationLayer, Layer, LayerKind};
pub use linear::Linear;
pub use param::{ParamKind, ParamRef};
pub use pool::{AvgPool2d, MaxPool2d};
pub use scratch::Scratch;
pub use sequential::Sequential;
pub use serialize::{load_network, read_network, save_network, write_network, FORMAT_VERSION};
pub use train::{evaluate, evaluate_with_threads, EpochStats, OptimizerKind, Trainer, TrainerBuilder};
