//! Per-layer resilience analysis (the paper's §III study at example scale).
//!
//! Injects faults into one layer at a time and reports (a) the fault rate at
//! which each layer's accuracy collapses and (b) how the maximum activation
//! value explodes when exponent bits flip — the two observations that
//! motivate clipped activations.
//!
//! ```sh
//! cargo run --release --example resilience_analysis
//! ```

use ftclipact::core::EvalSet;
use ftclipact::fault::{Campaign, CampaignConfig, FaultModel, Injection, InjectionTarget, MemoryMap};
use ftclipact::nn::{OptimizerKind, Scratch, Span, Trainer};
use ftclipact::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let data = SynthCifar::builder()
        .seed(11)
        .train_size(600)
        .val_size(150)
        .test_size(300)
        .noise_std(0.3)
        .build();

    // A miniature AlexNet keeps the example fast while preserving depth.
    let mut net = ftclipact::models::alexnet_cifar(0.0625, 10, 5);
    println!("{}", net.summary());
    println!("\ntraining …");
    Trainer::builder()
        .epochs(6)
        .batch_size(32)
        .optimizer(OptimizerKind::Sgd { momentum: 0.9, weight_decay: 5e-4 })
        .verbose(true)
        .build()
        .fit(&mut net, data.train().images(), data.train().labels(), None);

    let eval = EvalSet::from_dataset(data.test(), 64);
    println!("\nclean accuracy: {:.3}", eval.accuracy(&net));

    // ---- per-layer fault sensitivity --------------------------------
    let names = net.computational_names();
    let indices = net.computational_indices();
    let rates = vec![1e-6, 1e-5, 1e-4, 1e-3];
    println!("\nper-layer mean accuracy under single-layer bit flips:");
    print!("{:<10} {:>10}", "layer", "bits");
    for r in &rates {
        print!(" {:>9.0e}", r);
    }
    println!();
    for (name, &layer) in names.iter().zip(&indices) {
        let map = MemoryMap::build(&net, InjectionTarget::Layer(layer));
        let campaign = Campaign::new(CampaignConfig {
            fault_rates: rates.clone(),
            repetitions: 4,
            seed: 1000 + layer as u64,
            model: FaultModel::BitFlip,
            target: InjectionTarget::Layer(layer),
            stopping: None,
        });
        let result =
            campaign.run(&net, ftclipact::tensor::num_threads(), &NoCache, |n: &Sequential| eval.accuracy(n));
        print!("{:<10} {:>10}", name, map.total_bits());
        for m in result.mean_accuracies() {
            print!(" {:>9.3}", m);
        }
        println!();
    }

    // ---- activation explosion under a targeted MSB flip -------------
    println!("\ntargeted exponent-MSB flip in CONV-1, observed ACT_max downstream:");
    let conv1 = net.layer_index_by_name("CONV-1").expect("CONV-1 exists");
    let x = data.test().images().slice_batch(0..16);
    // ACT_max of the first six layers' outputs, one `Span::range` step each
    let layer_maxima = |net: &Sequential| -> Vec<f32> {
        let mut scratch = Scratch::new();
        let mut cur = x.clone();
        (0..6)
            .map(|i| {
                cur = net.execute(&cur, Span::range(i, i + 1), &mut scratch);
                cur.max()
            })
            .collect()
    };
    let clean_maxima = layer_maxima(&net);
    let injection = Injection::sample(
        &net,
        InjectionTarget::Layer(conv1),
        FaultModel::StuckAt1,
        0.0,
        &mut StdRng::seed_from_u64(0),
    );
    drop(injection); // rate 0: sample() kept for API symmetry; use explicit fault below
    let explicit =
        Injection::from_faults(FaultModel::StuckAt1, vec![(conv1, ftclipact::nn::ParamKind::Weight, 0, 30)]);
    let handle = explicit.apply(&mut net);
    let faulty_maxima = layer_maxima(&net);
    handle.undo(&mut net);
    println!("{:<8} {:>14} {:>14}", "layer", "clean ACT_max", "faulty ACT_max");
    for (i, (c, f)) in clean_maxima.iter().zip(&faulty_maxima).enumerate() {
        println!("{:<8} {:>14.3e} {:>14.3e}", i, c, f);
    }
    println!("\nthe fault multiplies activations by ~1e38 — exactly what clipping intercepts");
}
