//! Model zoo for the FT-ClipAct reproduction.
//!
//! Provides the three architectures the paper uses:
//!
//! * [`alexnet_cifar`] — the CIFAR-input AlexNet evaluated in §V
//!   (5 convolutional + 3 fully-connected layers, baseline 72.8 %);
//! * [`vgg16_cifar`] — the CIFAR-input VGG-16 evaluated in §V
//!   (13 convolutional + 1 fully-connected layer, baseline 82.8 %);
//! * [`lenet5`] — the LeNet-5 shown as background in Fig. 2.
//!
//! All constructors take a **width multiplier** that scales channel and
//! feature counts while preserving depth, layer kinds and weight
//! distributions. Experiments use scaled variants (AlexNet ×0.25,
//! VGG-16 ×0.125 by default) so CPU training fits the time budget; `1.0`
//! builds the full-size networks (see `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`).
//!
//! [`Zoo`] caches trained networks on disk keyed by their full
//! specification, so experiment binaries train once and reload thereafter.
//!
//! # Example
//!
//! ```
//! use ftclip_models::alexnet_cifar;
//!
//! let net = alexnet_cifar(0.25, 10, 42);
//! // 5 conv + 3 fc, as the paper describes
//! let names = net.computational_names();
//! assert_eq!(names.first().unwrap(), "CONV-1");
//! assert_eq!(names.last().unwrap(), "FC-3");
//! assert_eq!(names.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archs;
mod zoo;

pub use archs::{
    alexnet_cifar, alexnet_cifar_with_activation, lenet5, model_size_report, scale_dim, vgg16_bn_cifar,
    vgg16_cifar, ModelSizeRow,
};
pub use zoo::{ModelSpec, TrainedModel, Zoo, ZooArch};
