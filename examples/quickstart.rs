//! Quickstart: train a small CNN, corrupt its weight memory, and watch
//! clipped activations absorb the damage.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ftclipact::core::{EvalSet, ProfileConfig};
use ftclipact::fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget};
use ftclipact::nn::{Layer, OptimizerKind, Sequential, Trainer};
use ftclipact::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. A small synthetic CIFAR-style dataset and a small CNN.
    // ------------------------------------------------------------------
    let data = SynthCifar::builder()
        .seed(7)
        .train_size(800)
        .val_size(200)
        .test_size(400)
        .noise_std(0.3)
        .build();

    let mut net = Sequential::new(vec![
        Layer::conv2d(3, 12, 3, 1, 1, 1),
        Layer::relu(),
        Layer::MaxPool2d(ftclipact::nn::MaxPool2d::new(2, 2)),
        Layer::conv2d(12, 24, 3, 1, 1, 2),
        Layer::relu(),
        Layer::MaxPool2d(ftclipact::nn::MaxPool2d::new(2, 2)),
        Layer::flatten(),
        Layer::linear(24 * 8 * 8, 64, 3),
        Layer::relu(),
        Layer::linear(64, 10, 4),
    ]);
    println!("{}", net.summary());

    println!("\ntraining …");
    let trainer = Trainer::builder()
        .epochs(6)
        .batch_size(32)
        .optimizer(OptimizerKind::Sgd { momentum: 0.9, weight_decay: 5e-4 })
        .seed(1)
        .verbose(true)
        .build();
    trainer.fit(
        &mut net,
        data.train().images(),
        data.train().labels(),
        Some((data.val().images(), data.val().labels())),
    );

    let eval = EvalSet::from_dataset(data.test(), 64);
    let clean = eval.accuracy(&net);
    println!("\nclean test accuracy: {clean:.3}");

    // ------------------------------------------------------------------
    // 2. Corrupt the weight memory: random bit flips at growing rates.
    // ------------------------------------------------------------------
    let rates = vec![1e-6, 1e-5, 1e-4];
    let campaign = Campaign::new(CampaignConfig {
        fault_rates: rates.clone(),
        repetitions: 5,
        seed: 99,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    });
    let unprotected =
        campaign.run(&net, ftclipact::tensor::num_threads(), &NoCache, |n: &Sequential| eval.accuracy(n));

    // ------------------------------------------------------------------
    // 3. FT-ClipAct Step 1+2: profile ACT_max, clip every activation.
    // ------------------------------------------------------------------
    let mut clipped = net.clone();
    let profile = ProfileConfig { subset_size: data.val().len(), ..ProfileConfig::default() };
    let act_max: Vec<f32> = profile.clip(&mut clipped, data.val()).iter().map(|p| p.act_max).collect();
    println!("\nprofiled ACT_max per activation site: {act_max:?}");
    let protected =
        campaign.run(&clipped, ftclipact::tensor::num_threads(), &NoCache, |n: &Sequential| eval.accuracy(n));

    // ------------------------------------------------------------------
    // 4. Compare.
    // ------------------------------------------------------------------
    println!("\n{:<12} {:>12} {:>12}", "fault_rate", "unprotected", "clipped");
    for (i, rate) in rates.iter().enumerate() {
        println!(
            "{:<12.0e} {:>12.3} {:>12.3}",
            rate,
            unprotected.mean_accuracies()[i],
            protected.mean_accuracies()[i]
        );
    }
    let auc_u = ftclipact::core::campaign_auc(&unprotected);
    let auc_p = ftclipact::core::campaign_auc(&protected);
    println!(
        "\nAUC: unprotected {auc_u:.3}, clipped {auc_p:.3} ({:+.1}%)",
        (auc_p - auc_u) / auc_u * 100.0
    );
}
