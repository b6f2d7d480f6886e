//! Property-based tests for the CNN engine: activation invariants,
//! serialization roundtrips, loss-function laws, and the bit identity of the
//! shared inference passes (bias + activation, max-pool) with their
//! per-element and per-layer references.

use ftclip_nn::{
    read_network, write_network, Activation, AvgPool2d, BatchNorm2d, Dropout, Layer, MaxPool2d, Sequential,
};
use ftclip_tensor::Tensor;
use proptest::prelude::*;

fn activation_strategy() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Identity),
        Just(Activation::Relu),
        (0.1f32..100.0).prop_map(|threshold| Activation::ClippedRelu { threshold }),
        (0.1f32..100.0).prop_map(|threshold| Activation::SaturatedRelu { threshold }),
        (0.001f32..0.5).prop_map(|slope| Activation::LeakyRelu { slope }),
        (0.001f32..0.5, 0.1f32..100.0)
            .prop_map(|(slope, threshold)| Activation::ClippedLeakyRelu { slope, threshold }),
    ]
}

proptest! {
    #[test]
    fn clipped_relu_output_always_in_range(threshold in 0.1f32..50.0, x in -1e9f32..1e9) {
        let a = Activation::ClippedRelu { threshold };
        let y = a.apply_scalar(x);
        prop_assert!((0.0..=threshold).contains(&y), "f({x}) = {y} outside [0, {threshold}]");
    }

    #[test]
    fn clipped_relu_squashes_everything_above_threshold(threshold in 0.1f32..50.0, excess in 0.001f32..1e6) {
        let a = Activation::ClippedRelu { threshold };
        prop_assert_eq!(a.apply_scalar(threshold + excess), 0.0);
    }

    #[test]
    fn saturated_relu_output_always_in_range(threshold in 0.1f32..50.0, x in -1e9f32..1e9) {
        let a = Activation::SaturatedRelu { threshold };
        let y = a.apply_scalar(x);
        prop_assert!((0.0..=threshold).contains(&y));
    }

    #[test]
    fn relu_family_is_idempotent(act in activation_strategy(), x in -100.0f32..100.0) {
        // applying any of these activations twice equals applying once
        // (their ranges are fixed points), except leaky variants on
        // negative values — restrict to the non-negative case there.
        let once = act.apply_scalar(x);
        let twice = act.apply_scalar(once);
        match act {
            Activation::LeakyRelu { .. } | Activation::ClippedLeakyRelu { .. } if once < 0.0 => {}
            _ => prop_assert_eq!(once, twice, "activation {} not idempotent at {}", act, x),
        }
    }

    #[test]
    fn derivative_is_zero_where_clipped(threshold in 0.5f32..50.0, excess in 0.01f32..1e3) {
        let a = Activation::ClippedRelu { threshold };
        prop_assert_eq!(a.derivative(threshold + excess), 0.0);
        prop_assert_eq!(a.derivative(-excess), 0.0);
    }

    #[test]
    fn threshold_update_roundtrip(act in activation_strategy(), t in 0.1f32..100.0) {
        if let Some(updated) = act.with_threshold(t) {
            prop_assert_eq!(updated.threshold(), Some(t));
        } else {
            prop_assert!(act.threshold().is_none());
        }
    }

    #[test]
    fn softmax_rows_sum_to_one(
        rows in 1usize..5,
        cols in 2usize..8,
        seed in 0u64..1000,
    ) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as u64 * 2654435761 + seed) % 2000) as f32 / 100.0 - 10.0)
            .collect();
        let logits = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let probs = ftclip_nn::loss::SoftmaxCrossEntropy::new().softmax(&logits);
        for r in 0..rows {
            let s: f32 = (0..cols).map(|c| probs.at2(r, c)).sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row {} sums to {}", r, s);
        }
    }

    #[test]
    fn loss_grad_rows_sum_to_zero(
        rows in 1usize..5,
        cols in 2usize..6,
        seed in 0u64..1000,
    ) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as u64 * 1099511628211 + seed) % 600) as f32 / 100.0 - 3.0)
            .collect();
        let logits = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let labels: Vec<usize> = (0..rows).map(|r| (r + seed as usize) % cols).collect();
        let (_, grad) = ftclip_nn::loss::SoftmaxCrossEntropy::new().loss_and_grad(&logits, &labels);
        for r in 0..rows {
            let s: f32 = (0..cols).map(|c| grad.at2(r, c)).sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }
}

fn layer_strategy(seed: u64) -> impl Strategy<Value = Layer> {
    prop_oneof![
        (1usize..4, 1usize..4).prop_map(move |(i, o)| Layer::conv2d(i, o, 3, 1, 1, seed)),
        activation_strategy().prop_map(Layer::activation),
        Just(Layer::MaxPool2d(MaxPool2d::new(2, 2))),
        Just(Layer::AvgPool2d(AvgPool2d::new(2, 2))),
        Just(Layer::flatten()),
        (1usize..8).prop_map(|c| Layer::BatchNorm2d(BatchNorm2d::new(c))),
        (0.0f32..0.9).prop_map(|p| Layer::Dropout(Dropout::new(p))),
        (1usize..20, 1usize..20).prop_map(move |(i, o)| Layer::linear(i, o, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn arbitrary_networks_roundtrip_through_serialization(
        layers in proptest::collection::vec(layer_strategy(99), 1..6)
    ) {
        let net = Sequential::new(layers);
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let loaded = read_network(buf.as_slice()).unwrap();
        prop_assert_eq!(loaded.len(), net.len());
        prop_assert_eq!(loaded.param_count(), net.param_count());
        prop_assert_eq!(loaded.clip_thresholds(), net.clip_thresholds());
        // parameter data is bit-identical
        let mut a = Vec::new();
        net.visit_params(&mut |_, _, t, _| a.extend(t.data().iter().map(|x| x.to_bits())));
        let mut b = Vec::new();
        loaded.visit_params(&mut |_, _, t, _| b.extend(t.data().iter().map(|x| x.to_bits())));
        prop_assert_eq!(a, b);
    }

    // Splitting a full pass into prefix + suffix spans at any cut, or into
    // three spans at two cuts, is bitwise identical to one full pass.
    #[test]
    fn prefix_suffix_split_is_bitwise_forward_at_every_cut(
        seed in 0u64..1000,
        c1 in 1usize..4,
        c2 in 1usize..4,
        hidden in 1usize..12,
        batch in 1usize..4,
        act in activation_strategy(),
    ) {
        use ftclip_nn::{Scratch, Span};
        use rand::SeedableRng;
        let net = Sequential::new(vec![
            Layer::conv2d(1, c1, 3, 1, 1, seed),
            Layer::activation(act),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::conv2d(c1, c2, 3, 1, 1, seed ^ 1),
            Layer::relu(),
            Layer::flatten(),
            Layer::linear(c2 * 4 * 4, hidden, seed ^ 2),
            Layer::relu(),
            Layer::linear(hidden, 3, seed ^ 3),
        ]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
        let x = ftclip_tensor::uniform_init(&[batch, 1, 8, 8], -2.0, 2.0, &mut rng);
        let mut scratch = Scratch::new();
        let full = net.execute(&x, Span::full(), &mut scratch);
        let full_bits: Vec<u32> = full.data().iter().map(|v| v.to_bits()).collect();
        for cut in 0..=net.len() {
            let prefix = net.execute(&x, Span::prefix(cut), &mut scratch);
            let resumed = net.execute(&prefix, Span::suffix(cut), &mut scratch);
            let bits: Vec<u32> = resumed.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits, full_bits.clone(), "cut {}", cut);
            prop_assert_eq!(resumed.shape().dims(), full.shape().dims());
        }
        // a three-way span composition (prefix → middle span → suffix)
        // at two derived cuts is bitwise identical too
        let a = (seed as usize) % (net.len() + 1);
        let b = a + (seed as usize / 7) % (net.len() + 1 - a);
        let first = net.execute(&x, Span::prefix(a), &mut scratch);
        let middle = net.execute(&first, Span::range(a, b), &mut scratch);
        let tail = net.execute(&middle, Span::suffix(b), &mut scratch);
        let bits: Vec<u32> = tail.data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits, full_bits, "spans {}..{}..{}", a, b, net.len());
    }

    #[test]
    fn plan_execute_is_bitwise_identical_to_the_per_layer_engine(
        seed in 0u64..1000,
        c1 in 1usize..4,
        c2 in 1usize..4,
        hidden in 1usize..12,
        batch in 1usize..4,
        act in activation_strategy(),
        with_pool in any::<bool>(),
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        use ftclip_nn::{Scratch, Span};
        use ftclip_tensor::with_thread_limit;
        use rand::SeedableRng;
        // random-but-shape-valid stack: fused conv→act(→pool) chains plus
        // the straight-line tail, so the plan exercises fusion, im2col
        // elision and buffer reuse on every case
        let mut layers = vec![Layer::conv2d(1, c1, 3, 1, 1, seed), Layer::activation(act)];
        if with_pool {
            layers.push(Layer::MaxPool2d(MaxPool2d::new(2, 2)));
        }
        layers.extend([
            Layer::conv2d(c1, c2, 3, 1, 1, seed ^ 1),
            Layer::relu(),
            Layer::flatten(),
            Layer::linear(c2 * if with_pool { 16 } else { 64 }, hidden, seed ^ 2),
            Layer::relu(),
            Layer::linear(hidden, 3, seed ^ 3),
        ]);
        let net = Sequential::new(layers);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
        let x = ftclip_tensor::uniform_init(&[batch, 1, 8, 8], -2.0, 2.0, &mut rng);

        // the pre-plan reference: every layer standalone, no fusion
        let mut scratch = Scratch::new();
        let mut cur = x.clone();
        for layer in net.layers() {
            let next = layer.forward_scratch(&cur, &mut scratch);
            scratch.recycle(cur.into_vec());
            cur = next;
        }
        let full_bits: Vec<u32> = cur.data().iter().map(|v| v.to_bits()).collect();

        let plan = net.plan(x.shape().dims());
        with_thread_limit(threads, || -> Result<(), TestCaseError> {
            let y = plan.execute(&net, &x, Span::full(), &mut scratch);
            let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&bits, &full_bits, "full pass, {} threads", threads);
            prop_assert_eq!(y.shape().dims(), cur.shape().dims());
            // every cut: prefix span then suffix span against the SAME plan
            for cut in 0..=net.len() {
                let mid = plan.execute(&net, &x, Span::prefix(cut), &mut scratch);
                let out = plan.execute(&net, &mid, Span::suffix(cut), &mut scratch);
                let bits: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&bits, &full_bits, "cut {}, {} threads", cut, threads);
            }
            Ok(())
        })?;
    }

    #[test]
    fn convert_to_clipped_preserves_behaviour_below_thresholds(
        threshold in 1.0f32..10.0,
        seed in 0u64..100,
    ) {
        // inputs small enough that no activation exceeds the threshold →
        // the clipped network computes exactly the same function
        let mut net = Sequential::new(vec![
            Layer::linear(4, 4, seed),
            Layer::relu(),
            Layer::linear(4, 2, seed ^ 1),
        ]);
        let x = Tensor::from_vec(
            (0..8).map(|i| ((i as f32) * 0.01) - 0.04).collect(),
            &[2, 4],
        ).unwrap();
        use ftclip_nn::{Scratch, Span};
        let mut scratch = Scratch::new();
        let before = net.execute(&x, Span::full(), &mut scratch);
        // weights are He-initialized (|w| < 1.5 with overwhelming margin),
        // inputs tiny, so pre-activations stay well below threshold ≥ 1.0
        net.convert_to_clipped(&[threshold]);
        let after = net.execute(&x, Span::full(), &mut scratch);
        prop_assert!(before.approx_eq(&after, 1e-6));
    }
}

/// Deterministic hash of `(seed, i)` for the special-value fills below.
fn mix(seed: u64, i: usize) -> u64 {
    (seed ^ 0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(i as u64 * 2 + 1)
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        >> 33
}

/// Pre-activations and biases that probe every branch edge of the
/// activation rules: NaN, ±0, ±∞, subnormals, the extremes, and (for a
/// clipped variant) the threshold and its neighbours.
fn epilogue_specials(act: Option<Activation>) -> Vec<f32> {
    let mut v = vec![
        f32::NAN,
        -f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::MAX,
        f32::MIN,
        1.0,
        -1.0,
    ];
    if let Some(t) = act.and_then(|a| a.threshold()) {
        v.extend([t, t.next_up(), t.next_down(), -t]);
    }
    v
}

proptest! {
    #[test]
    fn bias_act_matches_apply_scalar_bit_for_bit(
        act in prop_oneof![Just(None), activation_strategy().prop_map(Some)],
        extra in proptest::collection::vec(-8.0f32..8.0, 0..40),
    ) {
        // rows long enough for the vectorized body and its tail: the
        // specials, then random values
        let specials = epilogue_specials(act);
        let mut xs = specials.clone();
        xs.extend(&extra);
        let want = |x: f32, b: f32| act.map_or(x + b, |a| a.apply_scalar(x + b)).to_bits();
        // a broadcast bias per row (the conv epilogue) ...
        for &b in specials.iter().chain(&[0.25, -3.0]) {
            let mut row = xs.clone();
            Activation::bias_act(act, &mut row, std::iter::repeat(b));
            for (&x, &y) in xs.iter().zip(&row) {
                prop_assert_eq!(y.to_bits(), want(x, b), "{:?}: act({} + {}) = {}", act, x, b, y);
            }
        }
        // ... and one bias per element (the linear epilogue)
        let biases: Vec<f32> = (0..xs.len()).map(|i| specials[(i * 7 + 3) % specials.len()]).collect();
        let mut row = xs.clone();
        Activation::bias_act(act, &mut row, biases.iter().copied());
        for ((&x, &b), &y) in xs.iter().zip(&biases).zip(&row) {
            prop_assert_eq!(y.to_bits(), want(x, b), "{:?}: act({} + {}) = {}", act, x, b, y);
        }
    }

    #[test]
    fn shared_max_pool_matches_the_layer_bit_for_bit(
        c in 1usize..4,
        h in 2usize..9,
        w in 2usize..9,
        kernel in prop_oneof![Just(2usize), Just(3usize)],
        stride in 1usize..3,
        nan_share in 0u64..8,
        seed in 0u64..1000,
    ) {
        // the pass both inference plans fuse behind a conv, against the
        // standalone `MaxPool2d` scan: NaN (at a seed-chosen density, so
        // all-NaN windows occur), ±0 and ±∞ ties, small-integer ties, odd
        // extents that leave a trailing row or column unread
        prop_assume!(h >= kernel && w >= kernel);
        let n = 2;
        let data: Vec<f32> = (0..n * c * h * w)
            .map(|i| {
                let r = mix(seed, i);
                if r % 8 < nan_share {
                    return if r % 16 < 8 { f32::NAN } else { -f32::NAN };
                }
                match (r >> 4) % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    k => k as f32 - 5.0,
                }
            })
            .collect();
        let x = Tensor::from_vec(data, &[n, c, h, w]).unwrap();
        let want = MaxPool2d::new(kernel, stride).forward(&x);
        let mut got = vec![1.5f32; want.len()];
        ftclip_tensor::max_pool_planes(x.data(), n * c, h, w, kernel, stride, &mut got);
        let want_bits: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got_bits, want_bits, "{}x{} pool, stride {}, {}x{} planes", kernel, kernel, stride, h, w);
    }
}
