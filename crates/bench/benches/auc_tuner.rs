//! Micro-benchmark: one AUC measurement and one Algorithm 1 iteration on a
//! micro network — the unit of work Step 3 spends its budget on.

use criterion::{criterion_group, criterion_main, Criterion};
use ftclip_core::{AucConfig, EvalSet, ThresholdTuner, TunerConfig};
use ftclip_data::SynthCifar;
use ftclip_fault::{FaultModel, InjectionTarget};
use ftclip_nn::{Layer, Sequential};
use std::hint::black_box;

fn micro_setup() -> (Sequential, EvalSet) {
    let data = SynthCifar::builder()
        .seed(77)
        .train_size(16)
        .val_size(64)
        .test_size(16)
        .image_size(8)
        .build();
    let net = Sequential::new(vec![
        Layer::conv2d(3, 4, 3, 1, 1, 60),
        Layer::relu(),
        Layer::flatten(),
        Layer::linear(4 * 64, 10, 61),
    ]);
    let eval = EvalSet::from_dataset(data.val(), 32);
    (net, eval)
}

fn auc_cfg() -> AucConfig {
    AucConfig {
        fault_rates: vec![1e-4, 1e-3],
        repetitions: 2,
        seed: 3,
        model: FaultModel::BitFlip,
        target: InjectionTarget::Layer(0),
    }
}

fn bench_auc_and_tuner(c: &mut Criterion) {
    let (net, eval) = micro_setup();

    let mut group = c.benchmark_group("auc_tuner");
    group.sample_size(10);
    group.bench_function("auc measurement (2 rates × 2 reps, 64 imgs)", |b| {
        let mut net = net.clone();
        let cfg = auc_cfg();
        b.iter(|| black_box(cfg.measure(black_box(&mut net), &eval.suffix_eval())));
    });
    group.bench_function("algorithm1 single iteration", |b| {
        let tuner = ThresholdTuner::new(TunerConfig {
            max_iterations: 1,
            min_iterations: 1,
            delta: 0.0,
            auc: auc_cfg(),
        });
        b.iter(|| {
            let mut net = net.clone();
            net.convert_to_clipped(&[5.0]);
            black_box(tuner.tune_site(&mut net, 1, 5.0, &eval).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_auc_and_tuner);
criterion_main!(benches);
