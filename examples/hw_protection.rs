//! Hardware memory-protection baselines: SEC-DED ECC and TMR, compared with
//! clipped activations on a small trained CNN.
//!
//! The paper's introduction argues ECC and modular redundancy are too
//! expensive for DNN memories. This example makes the trade-off concrete:
//! it measures accuracy under fault for each scheme *and* prints what each
//! costs in stored memory.
//!
//! ```sh
//! cargo run --release --example hw_protection
//! ```

use ftclipact::core::{EvalSet, ProfileConfig};
use ftclipact::fault::{
    derive_seed, inject_with_protection, DoubleErrorPolicy, FaultModel, InjectionTarget, ProtectionScheme,
    SecDed,
};
use ftclipact::nn::{OptimizerKind, Trainer};
use ftclipact::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // ---- SEC-DED on a single word, step by step ----------------------
    println!("SEC-DED walkthrough on one weight word (0.0625f32):");
    let word = 0.0625f32.to_bits();
    let code = SecDed::encode(word);
    println!("  data 0x{word:08X} encodes to 39-bit codeword 0x{code:010X}");
    let hit = code ^ (1 << 30); // exponent MSB of the embedded data
    let (decoded, status) = SecDed::decode(hit);
    println!("  after an exponent-MSB flip the decoder reports {status:?} and returns 0x{decoded:08X}");
    assert_eq!(decoded, word);

    // ---- train a small model -----------------------------------------
    let data = SynthCifar::builder()
        .seed(31)
        .train_size(600)
        .val_size(150)
        .test_size(300)
        .noise_std(0.3)
        .build();
    let mut net = ftclipact::models::alexnet_cifar(0.0625, 10, 77);
    println!("\ntraining {} …", net.summary());
    Trainer::builder()
        .epochs(6)
        .batch_size(32)
        .optimizer(OptimizerKind::Sgd { momentum: 0.9, weight_decay: 5e-4 })
        .verbose(true)
        .build()
        .fit(&mut net, data.train().images(), data.train().labels(), None);

    let eval = EvalSet::from_dataset(data.test(), 64);
    println!("clean accuracy: {:.3}\n", eval.accuracy(&net));

    // clipped variant (thresholds = profiled ACT_max)
    let mut clipped = net.clone();
    ProfileConfig { subset_size: data.val().len(), ..ProfileConfig::default() }
        .clip(&mut clipped, data.val());

    // ---- compare schemes at growing fault rates -----------------------
    let rates = [1e-5f64, 1e-4, 1e-3];
    let reps = 5usize;
    let schemes: [(&str, ProtectionScheme, bool); 4] = [
        ("unprotected", ProtectionScheme::None, false),
        ("clipped", ProtectionScheme::None, true),
        ("sec-ded", ProtectionScheme::SecDed(DoubleErrorPolicy::ZeroWord), false),
        ("tmr", ProtectionScheme::Tmr, false),
    ];
    println!("{:<12} {:>7} {:>9} {:>9} {:>9}", "scheme", "mem+%", "1e-5", "1e-4", "1e-3");
    for (name, scheme, use_clipped) in schemes {
        let base = if use_clipped { &clipped } else { &net };
        let mut target = base.clone();
        let mut row = Vec::new();
        for (i, &rate) in rates.iter().enumerate() {
            let mut acc = 0.0;
            for rep in 0..reps {
                let mut rng = StdRng::seed_from_u64(derive_seed(7, i, rep));
                let handle = inject_with_protection(
                    &mut target,
                    InjectionTarget::AllWeights,
                    FaultModel::BitFlip,
                    rate,
                    scheme,
                    &mut rng,
                );
                acc += eval.accuracy(&target);
                handle.undo(&mut target);
            }
            row.push(acc / reps as f64);
        }
        println!(
            "{:<12} {:>7.1} {:>9.3} {:>9.3} {:>9.3}",
            name,
            scheme.memory_overhead_percent(),
            row[0],
            row[1],
            row[2]
        );
    }
    println!("\nclipping needs no extra memory; ECC pays 21.9% and TMR 200% for their correction");
}
