//! Micro-benchmark: the matmul kernels that dominate inference cost —
//! square shapes, the rectangular im2col products the conv layers issue, and
//! the exact per-image GEMMs and linear product of the AlexNet forward plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftclip_tensor::{
    gemm_accumulate, matmul, matmul_nt, matmul_nt_into, matmul_tn, with_thread_limit, Tensor,
};
use std::hint::black_box;

fn filled(dims: &[usize], seed: f32) -> Tensor {
    let vol: usize = dims.iter().product();
    Tensor::from_vec((0..vol).map(|i| ((i as f32 + seed) * 0.37).sin()).collect(), dims).unwrap()
}

fn square(n: usize, seed: f32) -> Tensor {
    filled(&[n, n], seed)
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    for &n in &[32usize, 64, 128] {
        let a = square(n, 0.0);
        let b = square(n, 1.0);
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, _| {
            bench.iter(|| black_box(matmul(black_box(&a), black_box(&b))));
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bench, _| {
            bench.iter(|| black_box(matmul_tn(black_box(&a), black_box(&b))));
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bench, _| {
            bench.iter(|| black_box(matmul_nt(black_box(&a), black_box(&b))));
        });
    }
    group.finish();
}

/// The wide-and-short im2col products behind the conv layers: `W · cols`
/// where `W` is `[oc, c·k·k]` and `cols` is `[c·k·k, batch·oh·ow]`. The
/// `[96, 363] × [363, 4096]` shape is the blocked-kernel acceptance target;
/// single-threaded so the kernel, not the fan-out, is measured.
fn bench_conv_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_conv_shape");
    group.sample_size(10);
    for &(m, k, n) in &[(96usize, 363usize, 4096usize), (12, 75, 4096)] {
        let a = filled(&[m, k], 0.0);
        let b = filled(&[k, n], 1.0);
        group.bench_with_input(BenchmarkId::new("nn_1thread", format!("{m}x{k}x{n}")), &n, |bench, _| {
            bench.iter(|| with_thread_limit(1, || black_box(matmul(black_box(&a), black_box(&b)))));
        });
    }
    group.finish();
}

/// The kernels behind AlexNet w=0.125's fused plan nodes, single-threaded:
/// each `ConvAct` node issues one `[oc, c·k·k] × [c·k·k, oh·ow]`
/// `gemm_accumulate` per image (CONV-1 … CONV-5 below), and `FC-1` one
/// batch-64 `matmul_nt_into` against its `[64, 512]` weight.
fn bench_alexnet_plan_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("alexnet_plan");
    group.sample_size(20);
    for (layer, (m, k, n)) in
        [(8usize, 27usize, 1024usize), (24, 72, 256), (48, 216, 64), (32, 432, 64), (32, 288, 64)]
            .into_iter()
            .enumerate()
    {
        let a = filled(&[m, k], 0.0);
        let b = filled(&[k, n], 1.0);
        let mut out = vec![0.0f32; m * n];
        let id =
            BenchmarkId::new(format!("conv{}_gemm_accumulate_1thread", layer + 1), format!("{m}x{k}x{n}"));
        group.bench_with_input(id, &n, |bench, _| {
            bench.iter(|| {
                out.fill(0.0);
                with_thread_limit(1, || {
                    gemm_accumulate(black_box(a.data()), black_box(b.data()), &mut out, k, n)
                });
                black_box(&out);
            });
        });
    }
    let x = filled(&[64, 512], 0.0);
    let w = filled(&[64, 512], 1.0);
    let mut y = Tensor::zeros(&[64, 64]);
    group.bench_with_input(BenchmarkId::new("fc1_matmul_nt_into_1thread", "64x512x64"), &64, |bench, _| {
        bench.iter(|| with_thread_limit(1, || matmul_nt_into(black_box(&x), black_box(&w), &mut y)));
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_conv_shapes, bench_alexnet_plan_shapes);
criterion_main!(benches);
