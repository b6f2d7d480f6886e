//! Shared experiment workloads: the dataset and the trained network a spec
//! describes.
//!
//! Training happens once per [`ModelSpec`](ftclip_models::ModelSpec) and is
//! cached on disk (see [`ftclip_models::Zoo`]); subsequent runs load in
//! milliseconds. The `Runner` additionally memoizes loaded workloads in
//! memory so a batch of specs sharing one model trains (or loads) it once.

use std::path::Path;

use ftclip_data::SynthCifar;
use ftclip_models::{TrainedModel, Zoo, ZooArch};

use crate::spec::ExperimentSpec;

/// A ready experiment workload: dataset plus a trained network.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The dataset (train/val/test splits).
    pub data: SynthCifar,
    /// The trained model and its test accuracy.
    pub model: TrainedModel,
    /// Human-readable model name for logs and CSV.
    pub name: String,
    /// Parameter count of the *full-width* counterpart architecture — the
    /// stand-in for the paper's memory size when mapping fault rates.
    pub full_width_params: usize,
}

impl Workload {
    /// The factor by which the paper's fault rates are scaled so the
    /// *expected number of faults* in this width-scaled network matches the
    /// full-width one: `full_width_bits / our_bits`.
    ///
    /// The AUC metric normalizes the rate axis (scale-free by the
    /// `auc_invariant_under_rate_scaling` property), so this mapping changes
    /// axis labels, not curve shapes.
    pub fn rate_scale(&self) -> f64 {
        self.full_width_params as f64 / self.model.network.param_count() as f64
    }

    /// The paper's fault-rate grid mapped to this workload's memory size.
    pub fn scaled_paper_rates(&self) -> Vec<f64> {
        let s = self.rate_scale();
        ftclip_fault::paper_fault_rates()
            .into_iter()
            .map(|r| (r * s).min(1.0))
            .collect()
    }

    /// Maps one of the paper's quoted fault rates onto this workload.
    pub fn scaled_rate(&self, paper_rate: f64) -> f64 {
        (paper_rate * self.rate_scale()).min(1.0)
    }
}

/// The dataset a spec describes. All figure presets share one generator
/// seed (the spec seed, default 42) so models and campaigns see the same
/// data; difficulty knobs default to the `calibrate-dataset` sweep's pick
/// (see `DataSpec`).
pub fn spec_data(spec: &ExperimentSpec) -> SynthCifar {
    spec.data.build(spec.seed)
}

/// Display name and full-width parameter count for a zoo architecture.
pub(crate) fn arch_profile(arch: ZooArch) -> (&'static str, usize) {
    match arch {
        ZooArch::AlexNet => ("AlexNet", ftclip_models::alexnet_cifar(1.0, 10, 0).param_count()),
        // an activation has no parameters: both AlexNets have one memory size
        ZooArch::AlexNetLeaky => ("Leaky-ReLU AlexNet", arch_profile(ZooArch::AlexNet).1),
        // the BN variant is the trainable stand-in for VGG-16 (see
        // docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset);
        // both map rates through the plain full-width VGG-16 memory
        ZooArch::Vgg16 | ZooArch::Vgg16Bn => ("VGG-16", ftclip_models::vgg16_cifar(1.0, 10, 0).param_count()),
        ZooArch::LeNet5 => ("LeNet-5", ftclip_models::lenet5(10, 0).param_count()),
    }
}

/// Trains (or loads from the zoo cache under `assets_dir`) the workload a
/// spec describes.
///
/// # Panics
///
/// Panics if the cache directory is unwritable or a cached file is corrupt —
/// both unrecoverable for an experiment run.
pub fn load_workload(spec: &ExperimentSpec, data: &SynthCifar, assets_dir: &Path) -> Workload {
    let model_spec = spec.workload.model_spec(spec.seed);
    let (name, full_width_params) = arch_profile(spec.workload.arch);
    let zoo = Zoo::new(assets_dir);
    let model = zoo
        .train_or_load(&model_spec, data)
        .unwrap_or_else(|e| panic!("failed to train/load {name}: {e}"));
    eprintln!(
        "[workload] {name}: {}; {} params; rate scale ×{:.1}",
        if model.from_cache { "cached" } else { "freshly trained" },
        model.network.param_count(),
        full_width_params as f64 / model.network.param_count() as f64,
    );
    Workload {
        data: data.clone(),
        model,
        name: name.to_string(),
        full_width_params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Procedure;

    #[test]
    fn spec_data_is_deterministic() {
        let spec = ExperimentSpec::builder(Procedure::CampaignSummary, "t").build().unwrap();
        let a = spec_data(&spec);
        let b = spec_data(&spec);
        assert_eq!(a.test().labels(), b.test().labels());
    }

    /// FNV-1a-64 over one split: every image f32's little-endian bits, then
    /// every label as a little-endian `u64`.
    fn digest(d: &ftclip_data::Dataset) -> u64 {
        let bytes = d.images().data().iter().flat_map(|v| v.to_bits().to_le_bytes());
        let labels = d.labels().iter().flat_map(|&l| (l as u64).to_le_bytes());
        bytes
            .chain(labels)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn spec_data_splits_match_their_pinned_digests() {
        // store cell keys chain the dataset *settings*, never its pixels, so
        // a generator change that moves one bit would silently alias every
        // cached cell; these digests were taken from the eager serial
        // generator and must hold at any FTCLIP_THREADS
        let spec = ExperimentSpec::builder(Procedure::CampaignSummary, "t").build().unwrap();
        let d = &spec.data;
        assert_eq!(
            (spec.seed, d.train_size, d.val_size, d.test_size, d.noise_std, d.class_sep),
            (42, 3000, 768, 1024, 0.40, 0.25),
            "the pinned digests are for the default spec"
        );
        type Split = fn(&SynthCifar) -> &ftclip_data::Dataset;
        let pinned: [(&str, Split, u64); 3] = [
            ("train", SynthCifar::train, 0xbbe5_3da5_b3ee_490f),
            ("val", SynthCifar::val, 0x313d_9a9d_a575_6dd7),
            ("test", SynthCifar::test, 0x8221_7129_ce93_01d7),
        ];
        // both first-access orders: a split's bits must not depend on which
        // split was generated before it
        for order in [[0, 1, 2], [2, 1, 0]] {
            let data = spec_data(&spec);
            for (name, split, want) in order.map(|i| pinned[i]) {
                let got = digest(split(&data));
                assert_eq!(got, want, "{name} digest {got:016x} (first-access order {order:?})");
            }
        }
    }

    #[test]
    fn arch_profiles_reproduce_the_paper_ordering() {
        let (_, alex) = arch_profile(ZooArch::AlexNet);
        let (_, vgg) = arch_profile(ZooArch::Vgg16Bn);
        let (_, lenet) = arch_profile(ZooArch::LeNet5);
        assert!(vgg > alex && alex > lenet, "VGG-16 ≫ AlexNet ≫ LeNet-5");
        assert_eq!(arch_profile(ZooArch::Vgg16).1, vgg, "BN variant maps through the same memory");
        assert_eq!(
            arch_profile(ZooArch::AlexNetLeaky).1,
            alex,
            "Leaky-ReLU twin maps through the same memory"
        );
    }
}
