//! The fused forward plan is bit-identical to the per-layer engine on the
//! experiment-scale AlexNet, with ReLU and with clipped activations, at
//! one and two threads. The nn property tests pin the same contract on
//! small random networks; this check covers the real conv widths, pooling
//! and linear tail the figures run through.

use ftclipact::models::alexnet_cifar;
use ftclipact::nn::{Scratch, Sequential, Span};
use ftclipact::tensor::{uniform_init, with_thread_limit, Tensor};
use rand::SeedableRng;

/// The reference: every layer through its own `Layer::forward_scratch`
/// kernel, no fusion.
fn per_layer_bits(net: &Sequential, x: &Tensor) -> Vec<u32> {
    let mut scratch = Scratch::new();
    let mut cur = x.clone();
    for layer in net.layers() {
        cur = layer.forward_scratch(&cur, &mut scratch);
    }
    cur.data().iter().map(|v| v.to_bits()).collect()
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
