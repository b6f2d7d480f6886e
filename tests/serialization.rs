//! Cross-crate serialization: trained and hardened networks survive a disk
//! roundtrip with behaviour intact — including the tuned clip thresholds.

use ftclipact::core::ProfileConfig;
use ftclipact::nn::{load_network, save_network, Layer, Scratch, Sequential, Span, Trainer};
use ftclipact::prelude::*;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join("ftclip-integration").join(name)
}

#[test]
fn hardened_network_roundtrips_with_thresholds() {
    let data = SynthCifar::builder()
        .seed(41)
        .train_size(64)
        .val_size(32)
        .test_size(32)
        .image_size(8)
        .build();
    let mut net = Sequential::new(vec![
        Layer::conv2d(3, 4, 3, 1, 1, 21),
        Layer::relu(),
        Layer::flatten(),
        Layer::linear(4 * 64, 10, 22),
        Layer::relu(),
        Layer::linear(10, 10, 23),
    ]);
    Trainer::builder().epochs(1).batch_size(16).build().fit(
        &mut net,
        data.train().images(),
        data.train().labels(),
        None,
    );
    // clip with profiled thresholds
    ProfileConfig {
        subset_size: data.val().len(),
        seed: 0,
        batch_size: 32,
        bins: 8,
    }
    .clip(&mut net, data.val());

    let path = temp_path("hardened.ftcw");
    save_network(&net, &path).expect("save");
    let loaded = load_network(&path).expect("load");

    assert_eq!(loaded.clip_thresholds(), net.clip_thresholds());
    let x = data.test().images().slice_batch(0..8);
    let mut scratch = Scratch::new();
    let ya = loaded.execute(&x, Span::full(), &mut scratch);
    let yb = net.execute(&x, Span::full(), &mut scratch);
    assert!(ya.approx_eq(&yb, 0.0), "outputs must be bit-identical");
    std::fs::remove_dir_all(std::env::temp_dir().join("ftclip-integration")).ok();
}

#[test]
fn zoo_cache_through_facade() {
    use ftclipact::models::{ModelSpec, Zoo, ZooArch};
    let data = SynthCifar::builder()
        .seed(43)
        .train_size(60)
        .val_size(20)
        .test_size(20)
        .noise_std(0.2)
        .build();
    let dir = std::env::temp_dir().join("ftclip-integration-zoo");
    std::fs::remove_dir_all(&dir).ok();
    let zoo = Zoo::new(&dir);
    let spec = ModelSpec {
        arch: ZooArch::LeNet5,
        width_mult: 1.0,
        classes: 10,
        seed: 1,
        epochs: 1,
        batch_size: 16,
        lr: 0.05,
        augment: false,
    };
    // LeNet-5 takes single-channel input; SynthCifar is 3-channel, so build
    // an AlexNet spec instead for the data at hand.
    let spec = ModelSpec { arch: ZooArch::AlexNet, width_mult: 0.05, ..spec };
    let first = zoo.train_or_load(&spec, &data).expect("train");
    let second = zoo.train_or_load(&spec, &data).expect("load");
    assert!(!first.from_cache && second.from_cache);
    std::fs::remove_dir_all(&dir).ok();
}
