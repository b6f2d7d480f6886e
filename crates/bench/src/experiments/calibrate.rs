//! Calibration utility: sweeps the synthetic dataset's primary difficulty
//! knob (`class_sep`, with `noise_std` fixed) and reports the trained
//! AlexNet/VGG-16 test accuracies at each setting, so the experiment
//! dataset can be pinned to the paper's baseline band (AlexNet 72.8 %,
//! VGG-16 82.8 %).
//!
//! Not a paper figure — a reproducibility tool (its pick is the `DataSpec`
//! default; see `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`).

use ftclip_core::ResultTable;
use ftclip_data::SynthCifar;
use ftclip_models::{Zoo, ZooArch};

use crate::experiments::{outln, RunContext};
use crate::spec::{SpecError, WorkloadSpec};

/// Sweeps `class_sep` ∈ {0.2, 0.25, 0.3, 0.4} at the spec's `noise_std`,
/// training both workloads per point (cached in a throwaway zoo directory,
/// not the experiment assets).
pub fn dataset_sweep(ctx: &mut RunContext) -> Result<(), SpecError> {
    let noise = ctx.spec.data.noise_std;
    outln!(ctx, "noise_std fixed at {noise} (VGG-16 = BN variant)");
    outln!(ctx, "{:<10} {:>10} {:>10}", "class_sep", "alex_acc", "vgg_acc");
    let mut table = ResultTable::new(&ctx.spec.name, &["class_sep", "alex_acc", "vgg_acc"]);
    for sep in [0.2f32, 0.25, 0.3, 0.4] {
        let data = SynthCifar::builder()
            .seed(ctx.spec.seed)
            .train_size(ctx.spec.data.train_size)
            .val_size(ctx.spec.data.val_size)
            .test_size(ctx.spec.data.test_size)
            .noise_std(noise)
            .class_sep(sep)
            .build();
        let zoo = Zoo::new(std::env::temp_dir().join("ftclip-calibration"));
        let key = (sep.to_bits() as u64) << 32 | noise.to_bits() as u64;
        let alex = zoo
            .train_or_load(
                &WorkloadSpec::default_for(ZooArch::AlexNet).model_spec(ctx.spec.seed ^ key),
                &data,
            )
            .expect("train alexnet");
        let vgg = zoo
            .train_or_load(
                &WorkloadSpec::default_for(ZooArch::Vgg16Bn).model_spec(ctx.spec.seed ^ key),
                &data,
            )
            .expect("train vgg");
        outln!(ctx, "{:<10.2} {:>10.3} {:>10.3}", sep, alex.test_accuracy, vgg.test_accuracy);
        table.row([sep.into(), alex.test_accuracy.into(), vgg.test_accuracy.into()]);
    }
    ctx.emit(&table);
    Ok(())
}
