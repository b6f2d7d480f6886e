//! Lowering a trained network into an int8 plan, and executing it.

use ftclip_nn::{live_activation, live_pool, Activation, Layer, PlanNode, Scratch, Sequential, Span};
use ftclip_tensor::{
    conv_output_size, im2col_image_overwrite, interleave_widen_pairs, matmul_i16_pairs_into,
    matmul_i8_nt_into, max_pool_planes, Conv2dGeometry, Tensor,
};

use crate::qtensor::{absmax, quantize_slice, quantize_value, scale_for};

/// Why a network cannot be lowered to int8.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// The plan contains a layer kind the int8 executor has no kernel for.
    Unsupported {
        /// Index of the offending layer.
        layer: usize,
        /// Its kind, for the error message.
        kind: String,
    },
    /// The network has no compute (conv / linear) nodes to quantize.
    NoComputeNodes,
    /// The calibration batch produced a non-finite activation.
    BadCalibration {
        /// Index of the layer whose output was non-finite.
        layer: usize,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Unsupported { layer, kind } => {
                write!(f, "layer {layer} ({kind}) has no int8 lowering")
            }
            QuantError::NoComputeNodes => write!(f, "network has no conv/linear nodes to quantize"),
            QuantError::BadCalibration { layer } => {
                write!(f, "calibration produced a non-finite activation at layer {layer}")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// One lowered node. Weights are stored quantized; biases stay `f32` and are
/// added after dequantization (the standard post-training scheme — bias
/// precision is never the bottleneck and keeps the accumulator path simple).
#[derive(Debug, Clone)]
enum QNode {
    Conv {
        /// `[oc, ic·k·k]` row-major quantized filter matrix.
        weight: Vec<i8>,
        w_scale: f32,
        bias: Vec<f32>,
        ic: usize,
        oc: usize,
        geom: Conv2dGeometry,
        act: Option<Activation>,
        /// Fused trailing max-pool `(kernel, stride)`.
        pool: Option<(usize, usize)>,
        in_scale: f32,
        /// `None` → this node emits the plan's `f32` output.
        out_scale: Option<f32>,
    },
    Linear {
        /// `[out_f, in_f]` row-major quantized weight matrix.
        weight: Vec<i8>,
        w_scale: f32,
        bias: Vec<f32>,
        in_f: usize,
        out_f: usize,
        act: Option<Activation>,
        in_scale: f32,
        out_scale: Option<f32>,
    },
    /// Flatten: dims-only, the quantized buffer is already contiguous.
    Flatten,
}

/// A trained [`Sequential`] lowered to int8: quantized weights, calibrated
/// activation scales, and the graph-IR fusion structure
/// ([`ftclip_nn::ForwardPlan::node_descs`]) baked into executable nodes.
///
/// Unlike the f32 [`ftclip_nn::ForwardPlan`] (pure structure, parameters
/// read live), a quantized plan **owns** its weight bytes — they are the
/// int8 weight memory the byte-level fault injector corrupts.
#[derive(Debug, Clone)]
pub struct QuantizedPlan {
    nodes: Vec<QNode>,
    input_scale: f32,
}

impl QuantizedPlan {
    /// Post-training quantization: lowers `net` through its compiled forward
    /// plan, calibrating every activation scale over `calib` (a held-out
    /// `[n, c, h, w]` batch run once through the `f32` engine).
    ///
    /// Per-tensor symmetric scheme: weight scale = `absmax / 127` per node,
    /// activation scale likewise from the calibration batch; zero-points are
    /// all 0. The final compute node keeps its output in `f32` (logits).
    ///
    /// # Errors
    ///
    /// [`QuantError::Unsupported`] for layers without an int8 kernel,
    /// [`QuantError::NoComputeNodes`] for a network with nothing to
    /// quantize, [`QuantError::BadCalibration`] if the batch produces
    /// non-finite activations.
    pub fn quantize(net: &Sequential, calib: &Tensor) -> Result<Self, QuantError> {
        let descs = net.plan(calib.shape().dims()).node_descs();
        let last_compute = descs
            .iter()
            .rposition(|d| matches!(d, PlanNode::ConvAct { .. } | PlanNode::LinearAct { .. }))
            .ok_or(QuantError::NoComputeNodes)?;
        let mut scratch = Scratch::new();
        let mut cur = calib.clone();
        let mut act_scale = scale_for(absmax(cur.data()));
        let input_scale = act_scale;
        let mut nodes = Vec::new();
        for (di, desc) in descs.iter().enumerate() {
            let r = desc.layers();
            let next = net.execute(&cur, Span::range(r.start, r.end), &mut scratch);
            match *desc {
                PlanNode::Elided { .. } => {}
                PlanNode::Reshape { .. } => nodes.push(QNode::Flatten),
                PlanNode::ConvAct { conv, act, pool } => {
                    let Layer::Conv2d(c) = &net.layers()[conv] else {
                        unreachable!("plan node mislabeled layer {conv}")
                    };
                    let m = absmax(next.data());
                    if !m.is_finite() {
                        return Err(QuantError::BadCalibration { layer: conv });
                    }
                    let out_scale = (di != last_compute).then(|| scale_for(m));
                    let w_scale = scale_for(absmax(c.weight().data()));
                    nodes.push(QNode::Conv {
                        weight: quantize_slice(c.weight().data(), w_scale),
                        w_scale,
                        bias: c.bias().data().to_vec(),
                        ic: c.in_channels(),
                        oc: c.out_channels(),
                        geom: c.geometry(),
                        act: live_activation(net.layers(), act),
                        pool: live_pool(net.layers(), pool),
                        in_scale: act_scale,
                        out_scale,
                    });
                    act_scale = out_scale.unwrap_or(1.0);
                }
                PlanNode::LinearAct { lin, act } => {
                    let Layer::Linear(l) = &net.layers()[lin] else {
                        unreachable!("plan node mislabeled layer {lin}")
                    };
                    let m = absmax(next.data());
                    if !m.is_finite() {
                        return Err(QuantError::BadCalibration { layer: lin });
                    }
                    let out_scale = (di != last_compute).then(|| scale_for(m));
                    let w_scale = scale_for(absmax(l.weight().data()));
                    nodes.push(QNode::Linear {
                        weight: quantize_slice(l.weight().data(), w_scale),
                        w_scale,
                        bias: l.bias().data().to_vec(),
                        in_f: l.in_features(),
                        out_f: l.out_features(),
                        act: live_activation(net.layers(), act),
                        in_scale: act_scale,
                        out_scale,
                    });
                    act_scale = out_scale.unwrap_or(1.0);
                }
                PlanNode::Opaque { layer } => {
                    return Err(QuantError::Unsupported {
                        layer,
                        kind: net.layers()[layer].kind().to_string(),
                    });
                }
            }
            cur = next;
        }
        Ok(QuantizedPlan { nodes, input_scale })
    }

    /// The calibrated scale the network input is quantized with.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Total number of int8 weight words across all nodes — the address
    /// space of the byte-level fault injector.
    pub fn weight_words(&self) -> usize {
        self.node_weight_lens().iter().sum()
    }

    /// Per-node weight word counts, in node order (prefix sums give the
    /// injector's word → node mapping).
    pub(crate) fn node_weight_lens(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .map(|n| match n {
                QNode::Conv { weight, .. } | QNode::Linear { weight, .. } => weight.len(),
                QNode::Flatten => 0,
            })
            .collect()
    }

    /// Mutable access to one node's weight bytes (fault injection).
    pub(crate) fn weights_mut(&mut self, node: usize) -> &mut [i8] {
        match &mut self.nodes[node] {
            QNode::Conv { weight, .. } | QNode::Linear { weight, .. } => weight,
            QNode::Flatten => &mut [],
        }
    }

    /// Runs the int8 engine on a `[n, c, h, w]` batch, returning `f32`
    /// logits `[n, classes]`.
    ///
    /// Deterministic: `i32` accumulation is exact, so the result never
    /// depends on evaluation order. Activations are quantized per node with
    /// the calibrated scales; the last compute node emits `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s shape is inconsistent with the lowered network.
    pub fn execute(&self, x: &Tensor) -> Tensor {
        let mut dims = x.shape().dims().to_vec();
        let n = dims[0];
        let mut q = quantize_slice(x.data(), self.input_scale);
        let mut logits: Option<(Vec<f32>, usize)> = None;
        for node in &self.nodes {
            match node {
                QNode::Flatten => {
                    let rest: usize = dims[1..].iter().product();
                    dims = vec![n, rest];
                }
                QNode::Conv {
                    weight,
                    w_scale,
                    bias,
                    ic,
                    oc,
                    geom,
                    act,
                    pool,
                    in_scale,
                    out_scale,
                } => {
                    assert_eq!(dims.len(), 4, "conv node expects rank-4 input, got {dims:?}");
                    assert_eq!(dims[1], *ic, "conv input channel mismatch");
                    let (h, w) = (dims[2], dims[3]);
                    let (oh, ow) = geom.output_size(h, w);
                    let l = oh * ow;
                    let kk = ic * geom.kernel * geom.kernel;
                    let chw = ic * h * w;
                    let (out_h, out_w) = match pool {
                        Some((pk, ps)) => {
                            (conv_output_size(oh, *pk, *ps, 0), conv_output_size(ow, *pk, *ps, 0))
                        }
                        None => (oh, ow),
                    };
                    let out_l = out_h * out_w;
                    let dq = in_scale * w_scale;
                    // widen the (possibly fault-corrupted) i8 filter rows to
                    // i16 once per batch, padded to an even tap count, so the
                    // pair-interleaved matmul runs conversion-free
                    let kk_pad = kk + (kk & 1);
                    let mut wide = vec![0i16; oc * kk_pad];
                    for (dst, src) in wide.chunks_exact_mut(kk_pad).zip(weight.chunks_exact(kk)) {
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d = v as i16;
                        }
                    }
                    let mut cols8 = vec![0i8; kk * l];
                    let mut cols = vec![0i16; kk_pad * l];
                    let mut acc = vec![0i32; oc * l];
                    let mut stage = vec![0f32; oc * l];
                    let mut pooled = vec![0f32; oc * out_l];
                    let mut q_out = vec![0i8; if out_scale.is_some() { n * oc * out_l } else { 0 }];
                    let mut f_out = vec![0f32; if out_scale.is_none() { n * oc * out_l } else { 0 }];
                    for i in 0..n {
                        im2col_image_overwrite(&q[i * chw..(i + 1) * chw], *ic, h, w, *geom, &mut cols8);
                        interleave_widen_pairs(&cols8, kk, l, &mut cols);
                        matmul_i16_pairs_into(&wide, &cols, &mut acc, kk_pad, l);
                        for (s, &v) in stage.iter_mut().zip(&acc) {
                            *s = v as f32 * dq;
                        }
                        for (seg, &b) in stage.chunks_mut(l).zip(bias) {
                            Activation::bias_act(*act, seg, std::iter::repeat(b));
                        }
                        let planes: &[f32] = match pool {
                            Some((pk, ps)) => {
                                max_pool_planes(&stage, *oc, oh, ow, *pk, *ps, &mut pooled);
                                &pooled
                            }
                            None => &stage,
                        };
                        match out_scale {
                            Some(s) => {
                                for (dst, &v) in
                                    q_out[i * oc * out_l..(i + 1) * oc * out_l].iter_mut().zip(planes)
                                {
                                    *dst = quantize_value(v, *s);
                                }
                            }
                            None => f_out[i * oc * out_l..(i + 1) * oc * out_l].copy_from_slice(planes),
                        }
                    }
                    dims = vec![n, *oc, out_h, out_w];
                    match out_scale {
                        Some(_) => q = q_out,
                        None => logits = Some((f_out, oc * out_l)),
                    }
                }
                QNode::Linear { weight, w_scale, bias, in_f, out_f, act, in_scale, out_scale } => {
                    assert_eq!(dims.len(), 2, "linear node expects rank-2 input, got {dims:?}");
                    assert_eq!(dims[1], *in_f, "linear input feature mismatch");
                    let mut acc = vec![0i32; n * out_f];
                    matmul_i8_nt_into(&q, weight, &mut acc, *in_f, *out_f);
                    let dq = in_scale * w_scale;
                    dims = vec![n, *out_f];
                    let mut f_out: Vec<f32> = acc.iter().map(|&v| v as f32 * dq).collect();
                    for row in f_out.chunks_mut(*out_f) {
                        Activation::bias_act(*act, row, bias.iter().copied());
                    }
                    match out_scale {
                        Some(s) => q = f_out.iter().map(|&v| quantize_value(v, *s)).collect(),
                        None => logits = Some((f_out, *out_f)),
                    }
                }
            }
        }
        let (data, per_image) = logits.expect("plan has a final f32 compute node");
        Tensor::from_vec(data, &[n, per_image]).expect("logit volume matches")
    }

    /// Top-1 classification accuracy over `(images, labels)`, evaluated in
    /// batches of `batch` images.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not rank 4 or `labels` is shorter than the
    /// batch dimension.
    pub fn accuracy(&self, images: &Tensor, labels: &[usize], batch: usize) -> f64 {
        let n = images.shape()[0];
        assert!(labels.len() >= n, "labels shorter than the image batch");
        if n == 0 {
            return 0.0;
        }
        let batch = batch.max(1);
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + batch).min(n);
            let logits = self.execute(&images.slice_batch(start..end));
            for (pred, &label) in logits.argmax_rows().iter().zip(&labels[start..end]) {
                correct += usize::from(*pred == label);
            }
            start = end;
        }
        correct as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_nn::MaxPool2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net() -> Sequential {
        Sequential::new(vec![
            Layer::conv2d(1, 4, 3, 1, 1, 7),
            Layer::relu(),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::flatten(),
            Layer::linear(4 * 4 * 4, 12, 8),
            Layer::relu(),
            Layer::linear(12, 4, 9),
        ])
    }

    fn batch(seed: u64, n: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        ftclip_tensor::uniform_init(&[n, 1, 8, 8], -1.0, 1.0, &mut rng)
    }

    #[test]
    fn quantized_logits_track_f32_logits() {
        let net = tiny_net();
        let calib = batch(1, 16);
        let qp = QuantizedPlan::quantize(&net, &calib).unwrap();
        let x = batch(2, 8);
        let f_logits = net.execute(&x, Span::full(), &mut Scratch::new());
        let q_logits = qp.execute(&x);
        assert_eq!(q_logits.shape().dims(), f_logits.shape().dims());
        let scale = absmax(f_logits.data()).max(1e-6);
        for (q, f) in q_logits.data().iter().zip(f_logits.data()) {
            let rel = (q - f).abs() / scale;
            assert!(rel < 0.25, "quantized logit {q} far from f32 {f} (rel {rel})");
        }
    }

    #[test]
    fn quantized_predictions_mostly_agree_with_f32() {
        let net = tiny_net();
        let calib = batch(1, 16);
        let qp = QuantizedPlan::quantize(&net, &calib).unwrap();
        let x = batch(3, 32);
        let f_pred = net.execute(&x, Span::full(), &mut Scratch::new()).argmax_rows();
        let q_pred = qp.execute(&x).argmax_rows();
        let agree = f_pred.iter().zip(&q_pred).filter(|(a, b)| a == b).count();
        // untrained logits sit near zero, so quantization noise flips some
        // argmaxes — but agreement must still be far above the 25% chance
        // level of a 4-class head
        assert!(agree * 2 >= 32, "only {agree}/32 predictions agree");
    }

    #[test]
    fn execute_is_deterministic() {
        let net = tiny_net();
        let qp = QuantizedPlan::quantize(&net, &batch(1, 8)).unwrap();
        let x = batch(4, 4);
        let a: Vec<u32> = qp.execute(&x).data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = qp.execute(&x).data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let net = tiny_net();
        let qp = QuantizedPlan::quantize(&net, &batch(1, 8)).unwrap();
        let x = batch(5, 10);
        let preds = qp.execute(&x).argmax_rows();
        // batched evaluation (batch 3, uneven tail) must agree with one pass
        assert_eq!(qp.accuracy(&x, &preds, 3), 1.0);
        let wrong: Vec<usize> = preds.iter().map(|p| (p + 1) % 4).collect();
        assert_eq!(qp.accuracy(&x, &wrong, 4), 0.0);
    }

    #[test]
    fn weight_words_count_every_quantized_parameter() {
        let net = tiny_net();
        let qp = QuantizedPlan::quantize(&net, &batch(1, 4)).unwrap();
        // conv 4·1·3·3 + fc1 12·64 + fc2 4·12 weights (biases stay f32)
        assert_eq!(qp.weight_words(), 36 + 768 + 48);
    }

    #[test]
    fn unsupported_layer_is_reported() {
        let net = Sequential::new(vec![
            Layer::conv2d(2, 2, 3, 1, 1, 4),
            Layer::BatchNorm2d(ftclip_nn::BatchNorm2d::new(2)),
        ]);
        let calib = Tensor::zeros(&[1, 2, 4, 4]);
        match QuantizedPlan::quantize(&net, &calib) {
            Err(QuantError::Unsupported { layer: 1, .. }) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn empty_network_is_rejected() {
        let net = Sequential::new(vec![Layer::flatten()]);
        let calib = Tensor::zeros(&[1, 2, 2, 2]);
        assert!(matches!(QuantizedPlan::quantize(&net, &calib), Err(QuantError::NoComputeNodes)));
    }
}
