//! The closed set of network layers.

use ftclip_tensor::Tensor;
use rand::Rng;

use crate::{Activation, AvgPool2d, BatchNorm2d, Conv2d, Dropout, Linear, MaxPool2d, ParamKind, Scratch};

/// An [`Activation`] function together with its training-time cache.
///
/// The cache stores the pre-activation input of the latest
/// `forward_train`, which the backward pass needs to evaluate the
/// activation derivative.
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    /// The activation function applied elementwise.
    pub func: Activation,
    cache: Option<Tensor>,
}

impl ActivationLayer {
    /// Wraps an activation function as a layer.
    pub fn new(func: Activation) -> Self {
        ActivationLayer { func, cache: None }
    }
}

impl From<Activation> for ActivationLayer {
    fn from(func: Activation) -> Self {
        ActivationLayer::new(func)
    }
}

/// One layer of a [`crate::Sequential`] network.
///
/// `Layer` is a closed enum rather than a trait object: the FT-ClipAct
/// methodology needs to *inspect and mutate* layers — swap activations for
/// their clipped variants, walk parameter memories for fault injection,
/// serialize whole architectures — and a closed set makes those operations
/// total and explicit.
#[derive(Debug, Clone)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully-connected layer.
    Linear(Linear),
    /// Elementwise activation function.
    Activation(ActivationLayer),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// Reshapes `[n, c, h, w]` to `[n, c·h·w]` (cached for backward).
    Flatten {
        /// Input shape cached by the training forward pass.
        cached_dims: Option<Vec<usize>>,
    },
    /// Inverted dropout (identity at inference).
    Dropout(Dropout),
    /// Per-channel batch normalization.
    BatchNorm2d(BatchNorm2d),
}

/// Discriminant of [`Layer`], used in reports and layer naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv2d,
    /// Fully-connected layer.
    Linear,
    /// Activation function.
    Activation,
    /// Max pooling.
    MaxPool2d,
    /// Average pooling.
    AvgPool2d,
    /// Flatten.
    Flatten,
    /// Dropout.
    Dropout,
    /// Batch normalization.
    BatchNorm2d,
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LayerKind::Conv2d => "conv2d",
            LayerKind::Linear => "linear",
            LayerKind::Activation => "activation",
            LayerKind::MaxPool2d => "maxpool2d",
            LayerKind::AvgPool2d => "avgpool2d",
            LayerKind::Flatten => "flatten",
            LayerKind::Dropout => "dropout",
            LayerKind::BatchNorm2d => "batchnorm2d",
        };
        write!(f, "{s}")
    }
}

impl Layer {
    /// Convenience constructor for a [`Conv2d`] layer with a deterministic
    /// per-layer seed (useful in tests and model builders).
    pub fn conv2d(in_c: usize, out_c: usize, kernel: usize, stride: usize, pad: usize, seed: u64) -> Layer {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Layer::Conv2d(Conv2d::new(in_c, out_c, kernel, stride, pad, &mut rng))
    }

    /// Convenience constructor for a [`Linear`] layer with a deterministic
    /// per-layer seed.
    pub fn linear(in_f: usize, out_f: usize, seed: u64) -> Layer {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Layer::Linear(Linear::new(in_f, out_f, &mut rng))
    }

    /// Convenience constructor for an activation layer.
    pub fn activation(func: Activation) -> Layer {
        Layer::Activation(ActivationLayer::new(func))
    }

    /// Convenience constructor for a ReLU activation layer (the baseline
    /// activation of every model in the paper).
    pub fn relu() -> Layer {
        Layer::activation(Activation::Relu)
    }

    /// Convenience constructor for a flatten layer.
    pub fn flatten() -> Layer {
        Layer::Flatten { cached_dims: None }
    }

    /// The discriminant of this layer.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::Conv2d(_) => LayerKind::Conv2d,
            Layer::Linear(_) => LayerKind::Linear,
            Layer::Activation(_) => LayerKind::Activation,
            Layer::MaxPool2d(_) => LayerKind::MaxPool2d,
            Layer::AvgPool2d(_) => LayerKind::AvgPool2d,
            Layer::Flatten { .. } => LayerKind::Flatten,
            Layer::Dropout(_) => LayerKind::Dropout,
            Layer::BatchNorm2d(_) => LayerKind::BatchNorm2d,
        }
    }

    /// `true` for layers with trainable parameters (conv and linear) — the
    /// paper's "computational layers".
    pub fn is_computational(&self) -> bool {
        matches!(self, Layer::Conv2d(_) | Layer::Linear(_))
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Conv2d(c) => c.param_count(),
            Layer::Linear(l) => l.param_count(),
            Layer::BatchNorm2d(b) => b.param_count(),
            _ => 0,
        }
    }

    /// Inference forward pass of this one layer, drawing output (and, for
    /// convolutions, im2col) storage from a reusable [`Scratch`] arena. Does
    /// not mutate the layer. The plan runs this for `Opaque` nodes and for
    /// the activation and pool of a span that starts inside a fused node;
    /// it is also the per-layer reference the fused kernels are
    /// bit-identical to.
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatches (see the individual layer docs).
    pub fn forward_scratch(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        match self {
            Layer::Conv2d(c) => c.forward_scratch(x, scratch),
            Layer::Linear(l) => l.forward_scratch(x, scratch),
            Layer::Activation(a) => {
                let mut buf = scratch.buffer(x.len());
                buf.copy_from_slice(x.data());
                // `v + -0.0` is `v` bit for bit (signed zeros included), so
                // this is `apply_scalar(v)` per element
                Activation::bias_act(Some(a.func), &mut buf, std::iter::repeat(-0.0));
                Tensor::from_vec(buf, x.shape().dims()).expect("activation preserves shape")
            }
            Layer::Flatten { .. } => {
                // reshape clones the full activation; copy into recycled
                // storage instead (same bits, no allocation)
                let n = x.shape()[0];
                let rest: usize = x.shape().dims()[1..].iter().product();
                let mut buf = scratch.buffer(x.len());
                buf.copy_from_slice(x.data());
                Tensor::from_vec(buf, &[n, rest]).expect("flatten preserves volume")
            }
            Layer::MaxPool2d(p) => p.forward(x),
            Layer::AvgPool2d(p) => p.forward(x),
            Layer::Dropout(d) => d.forward(x),
            Layer::BatchNorm2d(b) => b.forward(x),
        }
    }

    /// Training forward pass: caches whatever the backward pass needs.
    pub fn forward_train<R: Rng + ?Sized>(&mut self, x: &Tensor, rng: &mut R) -> Tensor {
        match self {
            Layer::Conv2d(c) => c.forward_train(x),
            Layer::Linear(l) => l.forward_train(x),
            Layer::Activation(a) => {
                let y = a.func.apply(x);
                a.cache = Some(x.clone());
                y
            }
            Layer::MaxPool2d(p) => p.forward_train(x),
            Layer::AvgPool2d(p) => p.forward_train(x),
            Layer::Flatten { cached_dims } => {
                *cached_dims = Some(x.shape().dims().to_vec());
                flatten_forward(x)
            }
            Layer::Dropout(d) => d.forward_train(x, rng),
            Layer::BatchNorm2d(b) => b.forward_train(x),
        }
    }

    /// Backward pass: returns the gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Panics if the matching training forward pass was not run first.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            Layer::Conv2d(c) => c.backward(grad_out),
            Layer::Linear(l) => l.backward(grad_out),
            Layer::Activation(a) => {
                let pre = a.cache.take().expect("backward called before forward_train");
                assert_eq!(pre.len(), grad_out.len(), "grad shape mismatch");
                let mut g = grad_out.clone();
                for (gv, &xv) in g.data_mut().iter_mut().zip(pre.data()) {
                    *gv *= a.func.derivative(xv);
                }
                g
            }
            Layer::MaxPool2d(p) => p.backward(grad_out),
            Layer::AvgPool2d(p) => p.backward(grad_out),
            Layer::Flatten { cached_dims } => {
                let dims = cached_dims.take().expect("backward called before forward_train");
                grad_out.reshape(&dims).expect("flatten preserves volume")
            }
            Layer::Dropout(d) => d.backward(grad_out),
            Layer::BatchNorm2d(b) => b.backward(grad_out),
        }
    }

    /// Visits the layer's parameter tensors immutably as
    /// `(kind, values, grad)`.
    pub fn visit_params(&self, f: &mut dyn FnMut(ParamKind, &Tensor, &Tensor)) {
        match self {
            Layer::Conv2d(c) => {
                f(ParamKind::Weight, &c.weight, &c.grad_weight);
                f(ParamKind::Bias, &c.bias, &c.grad_bias);
            }
            Layer::Linear(l) => {
                f(ParamKind::Weight, &l.weight, &l.grad_weight);
                f(ParamKind::Bias, &l.bias, &l.grad_bias);
            }
            Layer::BatchNorm2d(b) => {
                f(ParamKind::Weight, &b.gamma, &b.grad_gamma);
                f(ParamKind::Bias, &b.beta, &b.grad_beta);
            }
            _ => {}
        }
    }

    /// Visits the layer's parameter tensors mutably.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(ParamKind, &mut Tensor, &mut Tensor)) {
        match self {
            Layer::Conv2d(c) => {
                f(ParamKind::Weight, &mut c.weight, &mut c.grad_weight);
                f(ParamKind::Bias, &mut c.bias, &mut c.grad_bias);
            }
            Layer::Linear(l) => {
                f(ParamKind::Weight, &mut l.weight, &mut l.grad_weight);
                f(ParamKind::Bias, &mut l.bias, &mut l.grad_bias);
            }
            Layer::BatchNorm2d(b) => {
                f(ParamKind::Weight, &mut b.gamma, &mut b.grad_gamma);
                f(ParamKind::Bias, &mut b.beta, &mut b.grad_beta);
            }
            _ => {}
        }
    }

    /// Zeroes the gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |_, _, grad| grad.fill(0.0));
    }

    /// Drops all cached training state.
    pub fn clear_cache(&mut self) {
        match self {
            Layer::Conv2d(c) => c.clear_cache(),
            Layer::Linear(l) => l.clear_cache(),
            Layer::Activation(a) => a.cache = None,
            Layer::MaxPool2d(p) => p.clear_cache(),
            Layer::AvgPool2d(p) => p.clear_cache(),
            Layer::Flatten { cached_dims } => *cached_dims = None,
            Layer::Dropout(d) => d.clear_cache(),
            Layer::BatchNorm2d(b) => b.clear_cache(),
        }
    }
}

fn flatten_forward(x: &Tensor) -> Tensor {
    let n = x.shape()[0];
    let rest: usize = x.shape().dims()[1..].iter().product();
    x.reshape(&[n, rest]).expect("flatten preserves volume")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let mut l = Layer::flatten();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let y = l.forward_train(&x, &mut rng);
        assert_eq!(y.shape().dims(), &[2, 48]);
        let g = l.backward(&Tensor::ones(&[2, 48]));
        assert_eq!(g.shape().dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn activation_backward_uses_preactivation() {
        let mut l = Layer::relu();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        let y = l.forward_train(&x, &mut rng);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = l.backward(&Tensor::from_slice(&[10.0, 10.0]));
        assert_eq!(g.data(), &[0.0, 10.0]);
    }

    #[test]
    fn clipped_activation_blocks_gradient_above_threshold() {
        let mut l = Layer::activation(Activation::ClippedRelu { threshold: 1.0 });
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let x = Tensor::from_slice(&[0.5, 5.0]);
        l.forward_train(&x, &mut rng);
        let g = l.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert_eq!(g.data(), &[1.0, 0.0]);
    }

    #[test]
    fn param_visiting_only_computational() {
        let conv = Layer::conv2d(1, 2, 3, 1, 1, 0);
        let mut count = 0;
        conv.visit_params(&mut |_, _, _| count += 1);
        assert_eq!(count, 2); // weight + bias
        let mut count = 0;
        Layer::flatten().visit_params(&mut |_, _, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn zero_grad_clears() {
        let mut fc = Layer::linear(2, 2, 0);
        fc.visit_params_mut(&mut |_, _, g| g.fill(3.0));
        fc.zero_grad();
        fc.visit_params(&mut |_, _, g| assert_eq!(g.sum(), 0.0));
    }

    #[test]
    fn kind_reporting() {
        assert_eq!(Layer::flatten().kind(), LayerKind::Flatten);
        assert_eq!(Layer::linear(1, 1, 0).kind(), LayerKind::Linear);
        assert!(Layer::linear(1, 1, 0).is_computational());
        assert!(!Layer::relu().is_computational());
    }

    #[test]
    fn layer_survives_moving_between_forward_and_backward() {
        // Caches live inside the layer, so moving the Vec that owns it must
        // not lose them.
        let mut layers = vec![Layer::relu()];
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        layers[0].forward_train(&x, &mut rng);
        layers.reserve(100); // force reallocation
        let g = layers[0].backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 1.0]);
    }
}
