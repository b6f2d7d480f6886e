//! Architecture constructors.

use ftclip_nn::{Activation, BatchNorm2d, Dropout, Layer, MaxPool2d, Sequential};

/// Scales a base dimension by the width multiplier, never below 1.
///
/// # Panics
///
/// Panics if `width_mult` is not finite and positive.
pub fn scale_dim(base: usize, width_mult: f64) -> usize {
    assert!(
        width_mult.is_finite() && width_mult > 0.0,
        "width multiplier must be positive, got {width_mult}"
    );
    ((base as f64 * width_mult).round() as usize).max(1)
}

/// CIFAR-input AlexNet: 5 conv layers + 3 FC layers (paper §V-A).
///
/// Channel progression at `width_mult = 1.0` follows the common
/// CIFAR adaptation of AlexNet: 64-192-384-256-256 conv channels, 512/256
/// FC features, 3×3 kernels, three 2×2 max-pool stages (32→16→8→4).
/// Dropout (p = 0.25) guards the two hidden FC layers during training.
///
/// Every computational layer is followed by a ReLU activation site except
/// the logits layer, giving 8 computational layers ("CONV-1" … "FC-3") and
/// 7 activation sites.
///
/// # Panics
///
/// Panics if `width_mult` is not positive or `classes == 0`.
pub fn alexnet_cifar(width_mult: f64, classes: usize, seed: u64) -> Sequential {
    alexnet_cifar_with_activation(width_mult, classes, seed, Activation::Relu)
}

/// [`alexnet_cifar`] with a custom activation function at every site —
/// used by the clipped **Leaky-ReLU** generalization the paper mentions in
/// §IV-A.
///
/// # Panics
///
/// Panics if `width_mult` is not positive or `classes == 0`.
pub fn alexnet_cifar_with_activation(
    width_mult: f64,
    classes: usize,
    seed: u64,
    act: Activation,
) -> Sequential {
    assert!(classes > 0, "need at least one class");
    let w = |base| scale_dim(base, width_mult);
    let (c1, c2, c3, c4, c5) = (w(64), w(192), w(384), w(256), w(256));
    let (f1, f2) = (w(512), w(256));
    Sequential::new(vec![
        Layer::conv2d(3, c1, 3, 1, 1, seed ^ 0x01),
        Layer::activation(act),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)), // 32 → 16
        Layer::conv2d(c1, c2, 3, 1, 1, seed ^ 0x02),
        Layer::activation(act),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)), // 16 → 8
        Layer::conv2d(c2, c3, 3, 1, 1, seed ^ 0x03),
        Layer::activation(act),
        Layer::conv2d(c3, c4, 3, 1, 1, seed ^ 0x04),
        Layer::activation(act),
        Layer::conv2d(c4, c5, 3, 1, 1, seed ^ 0x05),
        Layer::activation(act),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)), // 8 → 4
        Layer::flatten(),
        Layer::Dropout(Dropout::new(0.25)),
        Layer::linear(c5 * 4 * 4, f1, seed ^ 0x06),
        Layer::activation(act),
        Layer::Dropout(Dropout::new(0.25)),
        Layer::linear(f1, f2, seed ^ 0x07),
        Layer::activation(act),
        Layer::linear(f2, classes, seed ^ 0x08),
    ])
}

/// VGG-16 channel plan: 13 convs with max-pool after each block.
const VGG16_PLAN: &[&[usize]] =
    &[&[64, 64], &[128, 128], &[256, 256, 256], &[512, 512, 512], &[512, 512, 512]];

/// CIFAR-input VGG-16: 13 conv layers + 1 FC layer (paper §V-A: "the base
/// VGG-16 contains 13 CONV layer and 1 FC layer").
///
/// Standard configuration-D channel plan (64,64 | 128,128 | 256,256,256 |
/// 512,512,512 | 512,512,512), 3×3 "same" kernels, 2×2 max-pool after each
/// block (32→16→8→4→2→1), then a single FC layer to the logits.
///
/// # Panics
///
/// Panics if `width_mult` is not positive or `classes == 0`.
pub fn vgg16_cifar(width_mult: f64, classes: usize, seed: u64) -> Sequential {
    vgg16_impl(width_mult, classes, seed, false)
}

/// VGG-16 with batch normalization after every convolution ("VGG-16-BN").
///
/// Not one of the paper's models, but the BN variant trains far more
/// reliably at the narrow widths this reproduction uses, and its γ/β
/// parameters give the fault injector an extra memory to corrupt.
///
/// # Panics
///
/// Panics if `width_mult` is not positive or `classes == 0`.
pub fn vgg16_bn_cifar(width_mult: f64, classes: usize, seed: u64) -> Sequential {
    vgg16_impl(width_mult, classes, seed, true)
}

fn vgg16_impl(width_mult: f64, classes: usize, seed: u64, batch_norm: bool) -> Sequential {
    assert!(classes > 0, "need at least one class");
    let mut layers = Vec::new();
    let mut in_c = 3usize;
    let mut layer_seed = seed;
    for block in VGG16_PLAN {
        for &base in *block {
            let out_c = scale_dim(base, width_mult);
            layer_seed = layer_seed.wrapping_add(0x9E37_79B9);
            layers.push(Layer::conv2d(in_c, out_c, 3, 1, 1, layer_seed));
            if batch_norm {
                layers.push(Layer::BatchNorm2d(BatchNorm2d::new(out_c)));
            }
            layers.push(Layer::relu());
            in_c = out_c;
        }
        layers.push(Layer::MaxPool2d(MaxPool2d::new(2, 2)));
    }
    layers.push(Layer::flatten()); // 512w × 1 × 1 after five pools of 32
    layers.push(Layer::linear(in_c, classes, seed ^ 0xFC));
    Sequential::new(layers)
}

/// LeNet-5 (paper Fig. 2 background): 2 conv + 3 FC layers on a 32×32
/// single-channel input.
///
/// # Panics
///
/// Panics if `classes == 0`.
pub fn lenet5(classes: usize, seed: u64) -> Sequential {
    assert!(classes > 0, "need at least one class");
    Sequential::new(vec![
        Layer::conv2d(1, 6, 5, 1, 0, seed ^ 0x11), // 32 → 28
        Layer::relu(),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),     // 28 → 14
        Layer::conv2d(6, 16, 5, 1, 0, seed ^ 0x12), // 14 → 10
        Layer::relu(),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)), // 10 → 5
        Layer::flatten(),
        Layer::linear(16 * 5 * 5, 120, seed ^ 0x13),
        Layer::relu(),
        Layer::linear(120, 84, seed ^ 0x14),
        Layer::relu(),
        Layer::linear(84, classes, seed ^ 0x15),
    ])
}

/// One row of the Fig. 1a model-size report.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSizeRow {
    /// Model name.
    pub name: String,
    /// Trainable parameter count.
    pub params: usize,
    /// Parameter memory in megabytes (f32 storage).
    pub megabytes: f64,
}

/// Parameter-memory report over the model zoo at full width — the data
/// behind the paper's Fig. 1a motivation plot ("the size of deeper networks
/// is more than 100 MB" for ImageNet-scale models; our CIFAR-input variants
/// show the same ordering at CIFAR scale).
pub fn model_size_report() -> Vec<ModelSizeRow> {
    let entries: Vec<(&str, Sequential)> = vec![
        ("LeNet-5", lenet5(10, 0)),
        ("AlexNet-CIFAR", alexnet_cifar(1.0, 10, 0)),
        ("VGG-16-CIFAR", vgg16_cifar(1.0, 10, 0)),
    ];
    entries
        .into_iter()
        .map(|(name, net)| ModelSizeRow {
            name: name.to_string(),
            params: net.param_count(),
            megabytes: net.param_bytes() as f64 / (1024.0 * 1024.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_nn::{Scratch, Sequential, Span};
    use ftclip_tensor::Tensor;

    fn fwd(net: &Sequential, x: &Tensor) -> Tensor {
        net.execute(x, Span::full(), &mut Scratch::new())
    }

    #[test]
    fn alexnet_layer_structure_matches_paper() {
        let net = alexnet_cifar(0.25, 10, 1);
        let names = net.computational_names();
        assert_eq!(names, vec!["CONV-1", "CONV-2", "CONV-3", "CONV-4", "CONV-5", "FC-1", "FC-2", "FC-3"]);
        assert_eq!(net.activation_sites().len(), 7);
    }

    #[test]
    fn alexnet_forward_shape() {
        let net = alexnet_cifar(0.125, 10, 2);
        let y = fwd(&net, &Tensor::zeros(&[2, 3, 32, 32]));
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn vgg16_layer_structure_matches_paper() {
        let net = vgg16_cifar(0.125, 10, 3);
        let names = net.computational_names();
        assert_eq!(names.len(), 14); // 13 conv + 1 fc
        assert_eq!(names[12], "CONV-13");
        assert_eq!(names[13], "FC-1");
        assert_eq!(net.activation_sites().len(), 13);
    }

    #[test]
    fn vgg16_forward_shape() {
        let net = vgg16_cifar(0.0625, 10, 4);
        let y = fwd(&net, &Tensor::zeros(&[1, 3, 32, 32]));
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn lenet5_matches_fig2_feature_maps() {
        let net = lenet5(10, 5);
        let plan = net.plan(&[1, 1, 32, 32]);
        // Fig. 2: 6×28×28 after CONV-1, 16×10×10 after CONV-2
        assert_eq!(plan.shape_at(1), Some(&[1, 6, 28, 28][..]));
        assert_eq!(plan.shape_at(4), Some(&[1, 16, 10, 10][..]));
        let y = fwd(&net, &Tensor::zeros(&[1, 1, 32, 32]));
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn width_scaling_shrinks_params() {
        let full = alexnet_cifar(1.0, 10, 6).param_count();
        let half = alexnet_cifar(0.5, 10, 6).param_count();
        let quarter = alexnet_cifar(0.25, 10, 6).param_count();
        assert!(full > half && half > quarter);
        // conv params scale ~quadratically in width
        assert!(full as f64 / half as f64 > 3.0);
    }

    #[test]
    fn scale_dim_floor_is_one() {
        assert_eq!(scale_dim(4, 0.01), 1);
        assert_eq!(scale_dim(64, 0.25), 16);
        assert_eq!(scale_dim(64, 1.0), 64);
    }

    #[test]
    fn size_report_ordering_matches_fig1a() {
        let report = model_size_report();
        let get = |name: &str| report.iter().find(|r| r.name.contains(name)).unwrap().params;
        assert!(get("VGG-16") > get("AlexNet"), "VGG-16 must dwarf AlexNet");
        assert!(get("AlexNet") > get("LeNet-5"));
        // full VGG-16-CIFAR has ~15M params (paper's MB-scale motivation)
        assert!(get("VGG-16") > 10_000_000);
    }

    #[test]
    fn deterministic_constructors() {
        let a = alexnet_cifar(0.25, 10, 7);
        let b = alexnet_cifar(0.25, 10, 7);
        let x = Tensor::ones(&[1, 3, 32, 32]);
        assert!(fwd(&a, &x).approx_eq(&fwd(&b, &x), 0.0));
        let c = alexnet_cifar(0.25, 10, 8);
        assert!(!fwd(&a, &x).approx_eq(&fwd(&c, &x), 1e-6));
    }

    #[test]
    #[should_panic(expected = "width multiplier")]
    fn rejects_zero_width() {
        alexnet_cifar(0.0, 10, 0);
    }

    #[test]
    fn vgg16_bn_inserts_batchnorm_after_every_conv() {
        let net = vgg16_bn_cifar(0.125, 10, 4);
        let bn_count = net
            .layers()
            .iter()
            .filter(|l| l.kind() == ftclip_nn::LayerKind::BatchNorm2d)
            .count();
        assert_eq!(bn_count, 13);
        // computational naming unchanged: 13 conv + 1 fc
        assert_eq!(net.computational_names().len(), 14);
        let y = fwd(&net, &Tensor::zeros(&[1, 3, 32, 32]));
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn leaky_variant_has_same_structure_and_params() {
        let relu = alexnet_cifar(0.125, 10, 9);
        let leaky = alexnet_cifar_with_activation(0.125, 10, 9, Activation::LeakyRelu { slope: 0.01 });
        assert_eq!(relu.param_count(), leaky.param_count());
        assert_eq!(relu.computational_names(), leaky.computational_names());
        // same seed → identical weights; only the activations differ
        let x = Tensor::ones(&[1, 3, 32, 32]);
        let a = fwd(&relu, &x);
        let b = fwd(&leaky, &x);
        assert_eq!(a.shape().dims(), b.shape().dims());
    }

    #[test]
    fn leaky_variant_clips_to_clipped_leaky() {
        let mut net = alexnet_cifar_with_activation(0.05, 10, 9, Activation::LeakyRelu { slope: 0.01 });
        let n = net.activation_sites().len();
        net.convert_to_clipped(&vec![2.0; n]);
        assert!(matches!(
            net.activation_at(net.activation_sites()[0]),
            Some(Activation::ClippedLeakyRelu { .. })
        ));
    }
}
