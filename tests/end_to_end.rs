//! End-to-end integration: train → inject → harden → compare, across all
//! workspace crates through the facade.

use ftclipact::core::{campaign_auc, AucConfig, EvalSet, Methodology, ProfileConfig, TunerConfig};
use ftclipact::fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget};
use ftclipact::nn::{Layer, OptimizerKind, Sequential, Trainer};
use ftclipact::prelude::*;

fn dataset() -> SynthCifar {
    SynthCifar::builder()
        .seed(2024)
        .train_size(400)
        .val_size(120)
        .test_size(200)
        .image_size(16)
        .noise_std(0.25)
        .build()
}

fn small_cnn() -> Sequential {
    Sequential::new(vec![
        Layer::conv2d(3, 8, 3, 1, 1, 1),
        Layer::relu(),
        Layer::MaxPool2d(ftclipact::nn::MaxPool2d::new(2, 2)),
        Layer::conv2d(8, 16, 3, 1, 1, 2),
        Layer::relu(),
        Layer::MaxPool2d(ftclipact::nn::MaxPool2d::new(2, 2)),
        Layer::flatten(),
        Layer::linear(16 * 4 * 4, 10, 3),
    ])
}

fn trained_cnn(data: &SynthCifar) -> Sequential {
    let mut net = small_cnn();
    Trainer::builder()
        .epochs(5)
        .batch_size(32)
        .optimizer(OptimizerKind::Sgd { momentum: 0.9, weight_decay: 1e-4 })
        .seed(7)
        .build()
        .fit(&mut net, data.train().images(), data.train().labels(), None);
    net
}

#[test]
fn training_beats_chance_substantially() {
    let data = dataset();
    let net = trained_cnn(&data);
    let eval = EvalSet::from_dataset(data.test(), 64);
    let acc = eval.accuracy(&net);
    assert!(acc > 0.45, "trained accuracy {acc} should be far above the 0.1 chance level");
}

#[test]
fn high_fault_rates_destroy_unprotected_accuracy() {
    let data = dataset();
    let net = trained_cnn(&data);
    let eval = EvalSet::from_dataset(data.test(), 64);
    let clean = eval.accuracy(&net);
    let campaign = Campaign::new(CampaignConfig {
        fault_rates: vec![1e-3],
        repetitions: 5,
        seed: 55,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    });
    let result = campaign.run(&net, 1, &NoCache, |n: &Sequential| eval.accuracy(n));
    let faulted = result.mean_accuracies()[0];
    assert!(
        faulted < clean - 0.15,
        "1e-3 bit-flip rate should visibly damage accuracy: clean {clean}, faulted {faulted}"
    );
}

#[test]
fn profiled_clipping_recovers_resilience() {
    // The paper's central claim at integration scale: ACT_max-initialized
    // clipping recovers a large share of the accuracy the faults destroy.
    let data = dataset();
    let unprotected = trained_cnn(&data);
    let eval = EvalSet::from_dataset(data.test(), 64);

    let mut clipped = unprotected.clone();
    ProfileConfig {
        subset_size: data.val().len(),
        seed: 0,
        batch_size: 64,
        bins: 16,
    }
    .clip(&mut clipped, data.val());

    let campaign = Campaign::new(CampaignConfig {
        fault_rates: vec![1e-5, 1e-4, 1e-3],
        repetitions: 8,
        seed: 99,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    });
    let res_unprotected = campaign.run(&unprotected, 1, &NoCache, |n: &Sequential| eval.accuracy(n));
    let res_clipped = campaign.run(&clipped, 1, &NoCache, |n: &Sequential| eval.accuracy(n));

    let auc_u = campaign_auc(&res_unprotected);
    let auc_c = campaign_auc(&res_clipped);
    assert!(auc_c > auc_u, "clipped AUC {auc_c:.4} must beat unprotected {auc_u:.4}");
    // clipping must not hurt the clean accuracy measurably
    assert!(res_clipped.clean_accuracy >= res_unprotected.clean_accuracy - 0.03);
}

#[test]
fn full_methodology_pipeline_runs_and_respects_invariants() {
    let data = dataset();
    let mut net = trained_cnn(&data);
    let weights_before: Vec<u32> = {
        let mut v = Vec::new();
        net.visit_params(&mut |_, _, t, _| v.extend(t.data().iter().map(|x| x.to_bits())));
        v
    };

    let methodology = Methodology::new(
        ProfileConfig { subset_size: 64, seed: 1, batch_size: 32, bins: 16 },
        TunerConfig {
            max_iterations: 2,
            min_iterations: 1,
            delta: 0.01,
            auc: AucConfig {
                fault_rates: vec![1e-4, 1e-3],
                repetitions: 2,
                seed: 2,
                model: FaultModel::BitFlip,
                target: InjectionTarget::AllWeights,
            },
        },
    );
    let report = methodology.harden(&mut net, data.val());

    // every activation site is clipped with the tuned threshold
    let thresholds = net.clip_thresholds();
    assert_eq!(thresholds.len(), report.tuned_thresholds.len());
    for (t, &tuned) in thresholds.iter().zip(&report.tuned_thresholds) {
        assert_eq!(t.unwrap(), tuned);
        assert!(tuned > 0.0);
    }
    // tuned thresholds never exceed profiled ACT_max
    for layer in &report.per_layer {
        assert!(layer.outcome.threshold <= layer.act_max + 1e-6);
    }
    // weights were never touched (the paper's deployment constraint)
    let weights_after: Vec<u32> = {
        let mut v = Vec::new();
        net.visit_params(&mut |_, _, t, _| v.extend(t.data().iter().map(|x| x.to_bits())));
        v
    };
    assert_eq!(weights_before, weights_after);
}
