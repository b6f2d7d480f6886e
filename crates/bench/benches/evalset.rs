//! End-to-end benchmarks of the campaign hot path: one `EvalSet::accuracy`
//! evaluation (the inner loop every figure binary multiplies by thousands)
//! and one full campaign cell (inject → evaluate → restore).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftclip_core::EvalSet;
use ftclip_fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget, NoCache};
use ftclip_nn::Sequential;
use std::hint::black_box;

fn workload() -> (ftclip_nn::Sequential, EvalSet) {
    let data = ftclip_data::SynthCifar::builder()
        .seed(3)
        .train_size(8)
        .val_size(8)
        .test_size(64)
        .build();
    let net = ftclip_models::alexnet_cifar(0.125, 10, 7);
    let eval = EvalSet::from_dataset(data.test(), 32);
    (net, eval)
}

fn bench_accuracy(c: &mut Criterion) {
    let (net, eval) = workload();
    let mut group = c.benchmark_group("evalset");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("accuracy/alexnet-w0.125/64imgs", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| black_box(eval.accuracy_with_threads(black_box(&net), threads)));
            },
        );
    }
    group.finish();
}

fn bench_campaign_cell(c: &mut Criterion) {
    let (net, eval) = workload();
    let campaign = Campaign::new(CampaignConfig {
        fault_rates: vec![1e-4],
        repetitions: 1,
        seed: 17,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    });
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_function("cell/alexnet-w0.125/64imgs", |bench| {
        bench.iter(|| {
            black_box(
                campaign.run(&net, ftclip_tensor::num_threads(), &NoCache, |m: &Sequential| eval.accuracy(m)),
            )
        });
    });
    group.finish();
}

/// Full-forward vs suffix-only re-execution of a per-layer campaign at an
/// early, middle and late cut, 1 and 4 campaign threads. The suffix rows
/// share one warm prefix cache across iterations — the steady state the
/// figure campaigns run in.
fn bench_suffix_cell(c: &mut Criterion) {
    let (net, eval) = workload();
    let cuts = [("early", "CONV-1"), ("middle", "FC-1"), ("late", "FC-3")];
    let mut group = c.benchmark_group("suffix");
    group.sample_size(10);
    for (label, layer) in cuts {
        let layer_index = net.layer_index_by_name(layer).expect("alexnet layer");
        let campaign = Campaign::new(CampaignConfig {
            fault_rates: vec![1e-3],
            repetitions: 1,
            seed: 17,
            model: FaultModel::BitFlip,
            target: InjectionTarget::Layer(layer_index),
            stopping: None,
        });
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("full/{label}-{layer}"), threads),
                &threads,
                |bench, &threads| {
                    bench.iter(|| {
                        black_box(campaign.run(&net, threads, &NoCache, |m: &Sequential| eval.accuracy(m)))
                    });
                },
            );
            let suffix = eval.suffix_eval();
            group.bench_with_input(
                BenchmarkId::new(format!("suffix/{label}-{layer}"), threads),
                &threads,
                |bench, &threads| {
                    bench.iter(|| black_box(campaign.run(&net, threads, &NoCache, suffix.clone())));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_accuracy, bench_campaign_cell, bench_suffix_cell);
criterion_main!(benches);
