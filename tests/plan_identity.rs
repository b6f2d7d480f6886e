//! The fused forward plan is bit-identical to the per-layer engine on the
//! experiment-scale AlexNet, with ReLU and with clipped activations, at
//! one and two threads — and so is Step 1 profiling, which walks the
//! activation sites through the plan, and so are spans that split a fused
//! node at its activation, as threshold tuning cuts them. The nn property tests pin the same
//! contract on small random networks; this check covers the real conv
//! widths, pooling and linear tail the figures run through.

use ftclipact::core::{profile_network, ActivationHistogram};
use ftclipact::models::alexnet_cifar;
use ftclipact::nn::{PlanNode, Scratch, Sequential, Span};
use ftclipact::tensor::{uniform_init, with_thread_limit, Tensor};
use rand::SeedableRng;

/// The reference: every layer through its own `Layer::forward_scratch`
/// kernel, no fusion. `visit` sees each layer's index and output.
fn per_layer(net: &Sequential, x: &Tensor, mut visit: impl FnMut(usize, &Tensor)) -> Tensor {
    let mut scratch = Scratch::new();
    let mut cur = x.clone();
    for (i, layer) in net.layers().iter().enumerate() {
        cur = layer.forward_scratch(&cur, &mut scratch);
        visit(i, &cur);
    }
    cur
}

fn per_layer_bits(net: &Sequential, x: &Tensor) -> Vec<u32> {
    per_layer(net, x, |_, _| {}).data().iter().map(|v| v.to_bits()).collect()
}

/// `(act_max, act_min, mean, histogram)` of every activation site, from
/// site inputs recorded by the per-layer engine. Batching and the f64 sum
/// chain of the mean follow `profile_network`'s documented procedure.
fn per_layer_profile(
    net: &Sequential,
    images: &Tensor,
    batch_size: usize,
    bins: usize,
) -> Vec<(f32, f32, f32, ActivationHistogram)> {
    let sites = net.activation_sites();
    // inputs[site][batch]: the output of layer `site - 1`
    let mut inputs: Vec<Vec<Tensor>> = vec![Vec::new(); sites.len()];
    let n = images.shape()[0];
    for start in (0..n).step_by(batch_size) {
        let batch = images.slice_batch(start..(start + batch_size).min(n));
        per_layer(net, &batch, |i, out| {
            if let Some(si) = sites.iter().position(|&s| s == i + 1) {
                inputs[si].push(out.clone());
            }
        });
    }
    inputs
        .iter()
        .map(|batches| {
            let values = || batches.iter().flat_map(|t| t.data().iter().copied());
            let min = values().fold(f32::INFINITY, f32::min);
            let max = values().fold(f32::NEG_INFINITY, f32::max);
            let sum = batches
                .iter()
                .fold(0.0f64, |acc, t| acc + t.iter().map(|&v| v as f64).sum::<f64>());
            let count = values().count();
            assert!(min < max, "degenerate site range [{min}, {max}]");
            (
                max,
                min,
                (sum / count as f64) as f32,
                ActivationHistogram::build(values(), min, max, bins),
            )
        })
        .collect()
}

#[test]
fn alexnet_plan_is_bitwise_identical_to_the_per_layer_engine() {
    let relu = alexnet_cifar(0.125, 10, 1);
    let mut clipped = relu.clone();
    let sites = clipped.activation_sites().len();
    clipped.convert_to_clipped(&vec![4.0; sites]);

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let x = uniform_init(&[4, 3, 32, 32], -2.0, 2.0, &mut rng);
    for (label, net) in [("relu", &relu), ("clipped", &clipped)] {
        let expected = with_thread_limit(1, || per_layer_bits(net, &x));
        let plan = net.plan(x.shape().dims());
        for threads in [1, 2] {
            let y = with_thread_limit(threads, || plan.execute(net, &x, Span::full(), &mut Scratch::new()));
            let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(y.shape().dims(), &[4, 10], "{label}");
            assert!(bits == expected, "{label}: plan differs from the per-layer engine at {threads} threads");
        }
    }
}

#[test]
fn alexnet_profile_is_bitwise_identical_to_the_per_layer_engine() {
    let relu = alexnet_cifar(0.125, 10, 1);
    let mut clipped = relu.clone();
    let sites = clipped.activation_sites().len();
    clipped.convert_to_clipped(&vec![4.0; sites]);

    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let images = uniform_init(&[6, 3, 32, 32], -2.0, 2.0, &mut rng);
    for (label, net) in [("relu", &relu), ("clipped", &clipped)] {
        // 3 divides the 6 images, 4 leaves a short last batch
        for batch_size in [3, 4] {
            let expected = with_thread_limit(1, || per_layer_profile(net, &images, batch_size, 16));
            let profiles = profile_network(net, &images, batch_size, 16);
            assert_eq!(profiles.len(), expected.len(), "{label}");
            for (p, (max, min, mean, hist)) in profiles.iter().zip(&expected) {
                let at = format!("{label}, batch {batch_size}, site {}", p.site);
                assert_eq!(p.act_max.to_bits(), max.to_bits(), "act_max: {at}");
                assert_eq!(p.act_min.to_bits(), min.to_bits(), "act_min: {at}");
                assert_eq!(p.mean.to_bits(), mean.to_bits(), "mean: {at}");
                assert_eq!(p.histogram.counts(), hist.counts(), "histogram: {at}");
            }
        }
    }
}

#[test]
fn alexnet_spans_that_split_a_fused_node_match_the_per_layer_engine() {
    let relu = alexnet_cifar(0.125, 10, 1);
    let mut clipped = relu.clone();
    let sites = clipped.activation_sites().len();
    clipped.convert_to_clipped(&vec![4.0; sites]);

    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let x = uniform_init(&[4, 3, 32, 32], -2.0, 2.0, &mut rng);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for (label, net) in [("relu", &relu), ("clipped", &clipped)] {
        // entering[i]: the per-layer activation entering layer i
        let mut entering = vec![x.clone()];
        with_thread_limit(1, || per_layer(net, &x, |_, out| entering.push(out.clone())));
        let output = bits(entering.last().expect("the network output"));
        let plan = net.plan(x.shape().dims());
        let mut split = 0;
        for node in plan.node_descs() {
            let (head, act) = match node {
                PlanNode::ConvAct { conv, act: Some(act), .. } => (conv, act),
                PlanNode::LinearAct { lin, act: Some(act) } => (lin, act),
                _ => continue,
            };
            for threads in [1, 2, 4] {
                let at = format!("{label}, node at layer {head}, {threads} threads");
                let run = |input: &Tensor, span: Span| {
                    with_thread_limit(threads, || plan.execute(net, input, span, &mut Scratch::new()))
                };
                let y = run(&entering[head], Span::range(head, head + 1));
                assert!(bits(&y) == bits(&entering[head + 1]), "head span differs: {at}");
                let y = run(&entering[act], Span::suffix(act));
                assert!(bits(&y) == output, "suffix from the activation differs: {at}");
            }
            split += 1;
        }
        assert_eq!(split, sites, "{label}: every activation site is fused into a node");
    }
}
