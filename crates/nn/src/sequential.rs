//! Feed-forward network container.

use std::sync::Arc;

use ftclip_tensor::Tensor;
use rand::Rng;

use crate::graph::{plan_for, ForwardPlan, Span};
use crate::{Activation, Layer, LayerKind, NnError, ParamKind, ParamRef, Scratch};

/// A feed-forward stack of [`Layer`]s.
///
/// `Sequential` is the network type used for every model in the paper
/// (AlexNet, VGG-16, LeNet-5 are all linear chains). Beyond forward/backward
/// it exposes the three capabilities the FT-ClipAct methodology needs:
///
/// 1. **Span execution** ([`Sequential::execute`]) — Step 1 of the
///    methodology profiles every activation site's input by running the
///    network one [`Span`] at a time.
/// 2. **Clipping control** ([`Sequential::convert_to_clipped`],
///    [`Sequential::set_clip_threshold`]) — Step 2 replaces unbounded
///    activations with clipped ones; Step 3 fine-tunes the thresholds.
/// 3. **Raw parameter access** ([`Sequential::visit_params_mut`]) — the
///    fault injector flips bits directly in the weight memories.
///
/// # Example
///
/// ```
/// use ftclip_nn::{Layer, Sequential};
/// use ftclip_tensor::Tensor;
///
/// let net = Sequential::new(vec![
///     Layer::conv2d(1, 4, 3, 1, 1, 0),
///     Layer::relu(),
///     Layer::flatten(),
///     Layer::linear(4 * 8 * 8, 10, 1),
/// ]);
/// use ftclip_nn::{Scratch, Span};
/// let logits = net.execute(&Tensor::zeros(&[2, 1, 8, 8]), Span::full(), &mut Scratch::new());
/// assert_eq!(logits.shape().dims(), &[2, 10]);
/// assert_eq!(net.computational_names(), vec!["CONV-1", "FC-1"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Creates a network from a layer list.
    pub fn new(layers: Vec<Layer>) -> Self {
        Sequential { layers }
    }

    /// Appends a layer (builder-style plumbing for the model zoo).
    pub fn push(&mut self, layer: Layer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    // ------------------------------------------------------------------
    // Inference and training
    // ------------------------------------------------------------------

    /// **The** inference entry point: executes the layers selected by `span`
    /// through the compiled, fused, run-wide-cached [`ForwardPlan`] for this
    /// architecture (see [`crate::graph`]). The full pass is
    /// `Span::full()`, the clean-prefix / faulted-suffix split of the reuse
    /// path is `Span::prefix(cut)` / `Span::suffix(cut)`, and cache
    /// extensions are `Span::range(a, b)` — all bit-identical to the legacy
    /// per-layer loop at any thread count.
    ///
    /// Immutable, so fault campaigns share a network across evaluation
    /// batches without cloning; plans are pure structure, so parameter
    /// mutations (fault injection, threshold tuning) are always visible.
    ///
    /// # Panics
    ///
    /// Panics if the span is outside the network or shapes mismatch.
    pub fn execute(&self, x: &Tensor, span: Span, scratch: &mut Scratch) -> Tensor {
        plan_for(self, span.start(), x.shape().dims()).execute(self, x, span, scratch)
    }

    /// The memoized [`ForwardPlan`] for this architecture and input shape —
    /// compile once per (arch, batch-shape), reuse run-wide. Callers that
    /// execute many spans against one batch shape (the eval and suffix-reuse
    /// paths) fetch the plan once and call [`ForwardPlan::execute`] with
    /// different [`Span`]s.
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` is inconsistent with the layer stack.
    pub fn plan(&self, input_dims: &[usize]) -> Arc<ForwardPlan> {
        plan_for(self, 0, input_dims)
    }

    /// Training forward pass: layers cache what their backward passes need.
    pub fn forward_train<R: Rng + ?Sized>(&mut self, x: &Tensor, rng: &mut R) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward_train(&cur, rng);
        }
        cur
    }

    /// Backward pass through all layers; gradients accumulate into the
    /// parameter `grad` tensors.
    ///
    /// # Panics
    ///
    /// Panics if [`Sequential::forward_train`] was not run first.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Drops all cached training state (e.g. before serialization).
    pub fn clear_caches(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    // ------------------------------------------------------------------
    // Parameter access
    // ------------------------------------------------------------------

    /// Visits every parameter tensor immutably as
    /// `(layer_index, kind, values, grad)`.
    pub fn visit_params(&self, f: &mut dyn FnMut(usize, ParamKind, &Tensor, &Tensor)) {
        for (i, layer) in self.layers.iter().enumerate() {
            layer.visit_params(&mut |kind, v, g| f(i, kind, v, g));
        }
    }

    /// Visits every parameter tensor mutably — the fault injector's entry
    /// point into the weight memory.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(usize, ParamKind, &mut Tensor, &mut Tensor)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_params_mut(&mut |kind, v, g| f(i, kind, v, g));
        }
    }

    /// Collects mutable parameter references for the optimizers.
    pub fn params_mut(&mut self) -> Vec<ParamRef<'_>> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            match layer {
                Layer::Conv2d(c) => {
                    out.push(ParamRef {
                        layer: i,
                        kind: ParamKind::Weight,
                        values: &mut c.weight,
                        grad: &mut c.grad_weight,
                    });
                    out.push(ParamRef {
                        layer: i,
                        kind: ParamKind::Bias,
                        values: &mut c.bias,
                        grad: &mut c.grad_bias,
                    });
                }
                Layer::Linear(l) => {
                    out.push(ParamRef {
                        layer: i,
                        kind: ParamKind::Weight,
                        values: &mut l.weight,
                        grad: &mut l.grad_weight,
                    });
                    out.push(ParamRef {
                        layer: i,
                        kind: ParamKind::Bias,
                        values: &mut l.bias,
                        grad: &mut l.grad_bias,
                    });
                }
                Layer::BatchNorm2d(b) => {
                    out.push(ParamRef {
                        layer: i,
                        kind: ParamKind::Weight,
                        values: &mut b.gamma,
                        grad: &mut b.grad_gamma,
                    });
                    out.push(ParamRef {
                        layer: i,
                        kind: ParamKind::Bias,
                        values: &mut b.beta,
                        grad: &mut b.grad_beta,
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Size of the parameter memory in bytes (`f32` words), the quantity
    /// plotted in the paper's Fig. 1a.
    pub fn param_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    // ------------------------------------------------------------------
    // Layer naming and lookup
    // ------------------------------------------------------------------

    /// Indices of the computational (conv / linear) layers.
    pub fn computational_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_computational())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the layers holding trainable parameters (conv, linear,
    /// batch-norm), in network order — the **stable layer-index ↔
    /// parameter-memory mapping** the fault side uses to name suffix cuts.
    ///
    /// The contract: the `layer` index reported by
    /// [`Sequential::visit_params`] (and therefore by every sampled fault)
    /// is the layer's position in [`Sequential::layers`], so a fault set
    /// whose earliest faulted layer is `ℓ` leaves the activation returned
    /// by [`Sequential::execute`] over `Span::prefix(ℓ)` bit-identical to
    /// the clean network's.
    pub fn param_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.param_count() > 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Paper-style names for the computational layers: `CONV-1`, `CONV-2`,
    /// …, `FC-1`, … in network order.
    pub fn computational_names(&self) -> Vec<String> {
        let mut conv = 0usize;
        let mut fc = 0usize;
        let mut names = Vec::new();
        for layer in &self.layers {
            match layer.kind() {
                LayerKind::Conv2d => {
                    conv += 1;
                    names.push(format!("CONV-{conv}"));
                }
                LayerKind::Linear => {
                    fc += 1;
                    names.push(format!("FC-{fc}"));
                }
                _ => {}
            }
        }
        names
    }

    /// Resolves a paper-style layer name (`"CONV-5"`, `"FC-1"`) to the layer
    /// index, or `None` when absent.
    pub fn layer_index_by_name(&self, name: &str) -> Option<usize> {
        let names = self.computational_names();
        let indices = self.computational_indices();
        names.iter().position(|n| n == name).map(|p| indices[p])
    }

    // ------------------------------------------------------------------
    // Clipped-activation control (paper Steps 2 and 3)
    // ------------------------------------------------------------------

    /// Indices of the activation layers — the paper's "activation sites",
    /// one per computational layer in the standard models.
    pub fn activation_sites(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, Layer::Activation(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Replaces every unbounded activation with its clipped counterpart,
    /// initializing the thresholds site-by-site (Step 2 of the methodology).
    ///
    /// # Panics
    ///
    /// Panics if `thresholds.len()` differs from the number of activation
    /// sites. Use [`Sequential::try_convert_to_clipped`] for a fallible
    /// variant.
    pub fn convert_to_clipped(&mut self, thresholds: &[f32]) {
        self.try_convert_to_clipped(thresholds)
            .expect("threshold count must match activation sites");
    }

    /// Fallible variant of [`Sequential::convert_to_clipped`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ThresholdCountMismatch`] when the threshold count
    /// is wrong and [`NnError::InvalidThreshold`] for non-finite or
    /// non-positive thresholds.
    pub fn try_convert_to_clipped(&mut self, thresholds: &[f32]) -> Result<(), NnError> {
        let sites = self.activation_sites();
        if sites.len() != thresholds.len() {
            return Err(NnError::ThresholdCountMismatch { expected: sites.len(), got: thresholds.len() });
        }
        for &t in thresholds {
            if !(t.is_finite() && t > 0.0) {
                return Err(NnError::InvalidThreshold { value: t });
            }
        }
        for (&site, &t) in sites.iter().zip(thresholds) {
            if let Layer::Activation(a) = &mut self.layers[site] {
                a.func = a.func.clipped(t);
            }
        }
        Ok(())
    }

    /// The clipping threshold of every activation site (`None` for
    /// unbounded activations), in network order.
    pub fn clip_thresholds(&self) -> Vec<Option<f32>> {
        self.activation_sites()
            .into_iter()
            .map(|i| match &self.layers[i] {
                Layer::Activation(a) => a.func.threshold(),
                _ => None,
            })
            .collect()
    }

    /// Sets the clipping threshold of the activation layer at `layer_index`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] for a bad index,
    /// [`NnError::NotAClippedActivation`] if the layer is not a clipped
    /// activation, and [`NnError::InvalidThreshold`] for a bad value.
    pub fn set_clip_threshold(&mut self, layer_index: usize, threshold: f32) -> Result<(), NnError> {
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(NnError::InvalidThreshold { value: threshold });
        }
        let len = self.layers.len();
        let layer = self
            .layers
            .get_mut(layer_index)
            .ok_or(NnError::NoSuchLayer { index: layer_index, len })?;
        match layer {
            Layer::Activation(a) => match a.func.with_threshold(threshold) {
                Some(func) => {
                    a.func = func;
                    Ok(())
                }
                None => Err(NnError::NotAClippedActivation { index: layer_index }),
            },
            _ => Err(NnError::NotAClippedActivation { index: layer_index }),
        }
    }

    /// The activation function at `layer_index`, when that layer is an
    /// activation.
    pub fn activation_at(&self, layer_index: usize) -> Option<Activation> {
        match self.layers.get(layer_index) {
            Some(Layer::Activation(a)) => Some(a.func),
            _ => None,
        }
    }

    /// One-line architecture summary (layer kinds and parameter counts).
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for (name, idx) in self.computational_names().iter().zip(self.computational_indices()) {
            parts.push(format!("{name}({} params)", self.layers[idx].param_count()));
        }
        format!(
            "Sequential: {} layers, {} params ({:.2} MB) [{}]",
            self.layers.len(),
            self.param_count(),
            self.param_bytes() as f64 / (1024.0 * 1024.0),
            parts.join(" → ")
        )
    }
}

impl FromIterator<Layer> for Sequential {
    fn from_iter<I: IntoIterator<Item = Layer>>(iter: I) -> Self {
        Sequential::new(iter.into_iter().collect())
    }
}

impl Extend<Layer> for Sequential {
    fn extend<I: IntoIterator<Item = Layer>>(&mut self, iter: I) {
        self.layers.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> Sequential {
        Sequential::new(vec![
            Layer::conv2d(1, 2, 3, 1, 1, 10),
            Layer::relu(),
            Layer::MaxPool2d(crate::MaxPool2d::new(2, 2)),
            Layer::flatten(),
            Layer::linear(2 * 4 * 4, 10, 11),
            Layer::relu(),
            Layer::linear(10, 4, 12),
        ])
    }

    #[test]
    fn forward_shapes() {
        let net = tiny_net();
        let y = net.execute(&Tensor::zeros(&[3, 1, 8, 8]), Span::full(), &mut Scratch::new());
        assert_eq!(y.shape().dims(), &[3, 4]);
    }

    #[test]
    fn computational_names_follow_paper_convention() {
        let net = tiny_net();
        assert_eq!(net.computational_names(), vec!["CONV-1", "FC-1", "FC-2"]);
        assert_eq!(net.layer_index_by_name("FC-2"), Some(6));
        assert_eq!(net.layer_index_by_name("CONV-9"), None);
    }

    #[test]
    fn convert_to_clipped_sets_all_sites() {
        let mut net = tiny_net();
        assert_eq!(net.clip_thresholds(), vec![None, None]);
        net.convert_to_clipped(&[3.0, 5.0]);
        assert_eq!(net.clip_thresholds(), vec![Some(3.0), Some(5.0)]);
    }

    #[test]
    fn convert_to_clipped_validates() {
        let mut net = tiny_net();
        assert!(matches!(
            net.try_convert_to_clipped(&[1.0]),
            Err(NnError::ThresholdCountMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            net.try_convert_to_clipped(&[1.0, f32::NAN]),
            Err(NnError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn set_clip_threshold_errors() {
        let mut net = tiny_net();
        assert!(matches!(net.set_clip_threshold(99, 1.0), Err(NnError::NoSuchLayer { .. })));
        // layer 0 is a conv, not an activation
        assert!(matches!(net.set_clip_threshold(0, 1.0), Err(NnError::NotAClippedActivation { .. })));
        // unclipped relu cannot take a threshold
        assert!(matches!(net.set_clip_threshold(1, 1.0), Err(NnError::NotAClippedActivation { .. })));
        net.convert_to_clipped(&[3.0, 5.0]);
        assert!(net.set_clip_threshold(1, 7.0).is_ok());
        assert_eq!(net.clip_thresholds()[0], Some(7.0));
    }

    #[test]
    fn clipping_bounds_forward_outputs() {
        let mut net = tiny_net();
        // blow up one weight to emulate a fault
        net.visit_params_mut(&mut |i, kind, v, _| {
            if i == 0 && kind == ParamKind::Weight {
                v.data_mut()[0] = 1e20;
            }
        });
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let mut scratch = Scratch::new();
        let unprotected_max = net.execute(&x, Span::full(), &mut scratch).max().abs();
        assert!(unprotected_max > 1e10, "fault should dominate, got {unprotected_max}");
        net.convert_to_clipped(&[2.0, 2.0]);
        let protected = net.execute(&x, Span::full(), &mut scratch);
        assert!(protected.max().abs() < 1e10, "clipping must squash the faulty activation");
    }

    #[test]
    fn param_count_and_bytes() {
        let net = tiny_net();
        let expect = (2 * 9 + 2) + (32 * 10 + 10) + (10 * 4 + 4);
        assert_eq!(net.param_count(), expect);
        assert_eq!(net.param_bytes(), expect * 4);
    }

    #[test]
    fn params_mut_matches_visit() {
        let mut net = tiny_net();
        let n_params = net.params_mut().len();
        let mut visited = 0;
        net.visit_params(&mut |_, _, _, _| visited += 1);
        assert_eq!(n_params, visited);
        assert_eq!(n_params, 6); // 3 computational layers × (weight, bias)
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // overfit 8 random samples with 2 classes
        let mut rng = StdRng::seed_from_u64(99);
        let x = ftclip_tensor::uniform_init(&[8, 1, 8, 8], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let mut net = Sequential::new(vec![
            Layer::conv2d(1, 4, 3, 1, 1, 1),
            Layer::relu(),
            Layer::flatten(),
            Layer::linear(4 * 8 * 8, 2, 2),
        ]);
        let loss0 = {
            let logits = net.execute(&x, Span::full(), &mut Scratch::new());
            crate::loss::SoftmaxCrossEntropy::new().loss(&logits, &labels)
        };
        for _ in 0..30 {
            net.zero_grad();
            let logits = net.forward_train(&x, &mut rng);
            let (_, grad) = crate::loss::SoftmaxCrossEntropy::new().loss_and_grad(&logits, &labels);
            net.backward(&grad);
            for p in net.params_mut() {
                let g = p.grad.clone();
                p.values.axpy(-0.05, &g);
            }
        }
        let loss1 = {
            let logits = net.execute(&x, Span::full(), &mut Scratch::new());
            crate::loss::SoftmaxCrossEntropy::new().loss(&logits, &labels)
        };
        assert!(loss1 < loss0 * 0.7, "loss should drop: {loss0} → {loss1}");
    }

    #[test]
    fn prefix_plus_suffix_is_bitwise_forward_at_every_cut() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let net = tiny_net();
        let mut rng = StdRng::seed_from_u64(41);
        let x = ftclip_tensor::uniform_init(&[2, 1, 8, 8], -1.0, 1.0, &mut rng);
        let full = net.execute(&x, Span::full(), &mut Scratch::new());
        let full_bits: Vec<u32> = full.data().iter().map(|v| v.to_bits()).collect();
        for cut in 0..=net.len() {
            let mut scratch = Scratch::new();
            let act = net.execute(&x, Span::prefix(cut), &mut scratch);
            let resumed = net.execute(&act, Span::suffix(cut), &mut scratch);
            let bits: Vec<u32> = resumed.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, full_bits, "cut {cut}");
            assert_eq!(resumed.shape().dims(), full.shape().dims(), "cut {cut}");
        }
    }

    #[test]
    fn prefix_at_zero_is_input_and_at_len_is_output() {
        let net = tiny_net();
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let mut scratch = Scratch::new();
        assert!(net.execute(&x, Span::prefix(0), &mut scratch).approx_eq(&x, 0.0));
        let full = net.execute(&x, Span::full(), &mut scratch);
        assert!(net.execute(&x, Span::prefix(net.len()), &mut scratch).approx_eq(&full, 0.0));
    }

    #[test]
    #[should_panic(expected = "outside network")]
    fn span_rejects_out_of_range_cut() {
        let net = tiny_net();
        net.execute(&Tensor::ones(&[1, 1, 8, 8]), Span::prefix(net.len() + 1), &mut Scratch::new());
    }

    #[test]
    fn param_layer_indices_name_every_fault_site() {
        let net = tiny_net();
        // conv at 0, linear at 4 and 6 — exactly the layers visit_params visits
        assert_eq!(net.param_layer_indices(), vec![0, 4, 6]);
        let mut visited = std::collections::BTreeSet::new();
        net.visit_params(&mut |i, _, _, _| {
            visited.insert(i);
        });
        assert_eq!(net.param_layer_indices(), visited.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn from_iterator_collects() {
        let net: Sequential = vec![Layer::flatten(), Layer::relu()].into_iter().collect();
        assert_eq!(net.len(), 2);
    }
}
