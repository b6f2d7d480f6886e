//! The complete FT-ClipAct hardening pipeline on a trained model:
//! Step 1 profiling → Step 2 clipped conversion → Step 3 Algorithm 1
//! threshold fine-tuning, then a before/after resilience comparison.
//!
//! ```sh
//! cargo run --release --example harden_pipeline
//! ```

use ftclipact::core::{
    campaign_auc, AucConfig, Comparison, EvalSet, Methodology, ProfileConfig, TunerConfig,
};
use ftclipact::fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget};
use ftclipact::nn::{OptimizerKind, Trainer};
use ftclipact::prelude::*;

fn main() {
    let data = SynthCifar::builder()
        .seed(23)
        .train_size(600)
        .val_size(300)
        .test_size(300)
        .noise_std(0.3)
        .build();

    let mut net = ftclipact::models::alexnet_cifar(0.0625, 10, 17);
    println!("training {} …", net.summary());
    Trainer::builder()
        .epochs(6)
        .batch_size(32)
        .optimizer(OptimizerKind::Sgd { momentum: 0.9, weight_decay: 5e-4 })
        .verbose(true)
        .build()
        .fit(&mut net, data.train().images(), data.train().labels(), None);

    let unprotected = net.clone();

    // ---- the methodology --------------------------------------------
    let methodology = Methodology::new(
        ProfileConfig { subset_size: 128, seed: 3, batch_size: 64, bins: 32 },
        TunerConfig {
            max_iterations: 2,
            min_iterations: 1,
            delta: 0.01,
            auc: AucConfig {
                fault_rates: vec![1e-6, 1e-5, 1e-4],
                repetitions: 2,
                seed: 5,
                model: FaultModel::BitFlip,
                target: InjectionTarget::AllWeights,
            },
        },
    );
    println!("\nhardening (profile → clip → tune) …");
    let report = methodology.harden(&mut net, data.val());
    println!("\n{:<10} {:>12} {:>12}", "site", "ACT_max", "tuned T");
    for layer in &report.per_layer {
        println!("{:<10} {:>12.4} {:>12.4}", layer.feeds_from, layer.act_max, layer.outcome.threshold);
    }

    // ---- before/after comparison on the test split -------------------
    let eval = EvalSet::from_dataset(data.test(), 64);
    let campaign = Campaign::new(CampaignConfig {
        fault_rates: vec![1e-6, 5e-6, 1e-5, 5e-5, 1e-4],
        repetitions: 6,
        seed: 77,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    });
    println!("\nevaluating resilience (clipped vs unprotected) …");
    let protected_result =
        campaign.run(&net, ftclipact::tensor::num_threads(), &NoCache, |n: &Sequential| eval.accuracy(n));
    let unprotected_result =
        campaign.run(&unprotected, ftclipact::tensor::num_threads(), &NoCache, |n: &Sequential| {
            eval.accuracy(n)
        });

    let cmp = Comparison::new(&protected_result, &unprotected_result);
    println!("\n{}", cmp.to_table());
    println!(
        "AUC improvement: {:+.1}% (clipped {:.3} vs unprotected {:.3})",
        cmp.auc_improvement_percent(),
        campaign_auc(&protected_result),
        campaign_auc(&unprotected_result)
    );
}
