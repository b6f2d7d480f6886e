//! Graph-IR execution engine: compile-once fused forward plans.
//!
//! [`Sequential`] stores the network as a flat layer list; this module
//! compiles that list into a small computation-graph IR and executes it
//! through **one** entry point, [`ForwardPlan::execute`]: a full pass, a
//! prefix, a suffix and an arbitrary `[from, to)` slice are all just
//! [`Span`] values against the same plan.
//!
//! # Compilation
//!
//! [`ForwardPlan::compile`] walks the layer stack once and
//!
//! * **shape-checks** every op node against the declared input shape, so a
//!   mis-wired architecture fails at compile time with a layer-indexed
//!   message instead of deep inside a kernel;
//! * **fuses** `conv → activation` and `linear → activation` chains into
//!   single nodes whose kernels apply bias and activation in one in-place
//!   pass over the output;
//! * **elides im2col materialization**: the fused convolution gathers each
//!   image's column matrix into a small cache-resident buffer
//!   ([`ftclip_tensor::im2col_image_overwrite`]) and accumulates the blocked
//!   matmul directly into the batched NCHW output
//!   ([`ftclip_tensor::gemm_accumulate`]) — no batch-wide column matrix, no
//!   separate scatter or activation passes. The gather, the bias +
//!   activation pass ([`Activation::bias_act`]) and the fused pool
//!   ([`ftclip_tensor::max_pool_planes`]) are the same functions the int8
//!   plan runs;
//! * **elides** inference no-ops (`Dropout`) and turns `Flatten` into a
//!   zero-copy reshape when the executor owns the buffer;
//! * **splits fused nodes at span bounds**: a span that ends inside a
//!   fused node (profiling's `Span::range(at, site)`, the tuner's cut at a
//!   clipping site) runs the node's head through the same fused kernel,
//!   leaving out the activation or pool beyond the span; a span that starts
//!   inside one runs the covered activation and pool through their own
//!   kernels;
//! * **plans buffer liveness**: at execution, each node's consumed input is
//!   recycled into the [`Scratch`] arena the moment its output exists, so
//!   the arena's high-water mark is the largest adjacent (input + output +
//!   gather) working set, not the sum over the network.
//!
//! Plans are **pure structure**: nodes hold layer *indices*, never copies of
//! weights or thresholds. Every execution reads the live parameters from the
//! [`Sequential`] it is given, so fault injections and threshold tuning are
//! visible immediately and never invalidate a cached plan.
//!
//! # Bit-identity contract
//!
//! Fusion preserves the per-element accumulation order of the legacy layer
//! kernels exactly: convolutions accumulate ascending-`k` with zero weight
//! coefficients skipped (the [`ftclip_tensor::matmul_into`] contract, padding
//! taps multiplied as explicit zeros), linear layers keep their single
//! ascending-`k` dot-product chain, and bias + activation are applied as
//! `act(acc + b)` — the same value chain as the unfused
//! `scatter-bias-then-activate` sequence. Every output element is produced
//! by exactly one thread, so results are bitwise identical to the legacy
//! path at any thread count, for any span cut. The property tests in
//! `crates/nn/tests/properties.rs` pin this across random nets, shapes,
//! cuts and 1/2/4 threads.
//!
//! # Plan cache
//!
//! [`Sequential::plan`] memoizes compiled plans run-wide, keyed by the
//! network's structural fingerprint plus the (span-entry, input-shape) pair.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use ftclip_tensor::{
    conv_output_size, gemm_accumulate, im2col_image_overwrite, matmul_nt_into, max_pool_planes, num_threads,
    par_row_bands, Tensor,
};

use crate::activation::Activation;
use crate::layer::Layer;
use crate::scratch::Scratch;
use crate::sequential::Sequential;

/// A half-open range `[from, to)` of layer indices to execute — the single
/// argument that selects a full pass, a clean prefix, a faulted suffix or a
/// cache extension in [`Sequential::execute`].
///
/// `to == None` means "to the end of the network", so [`Span::full`] and
/// [`Span::suffix`] need no layer count at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    from: usize,
    to: Option<usize>,
}

impl Span {
    /// The whole network: layers `[0, len)`.
    pub fn full() -> Self {
        Span { from: 0, to: None }
    }

    /// The clean prefix entering layer `cut`: layers `[0, cut)`.
    pub fn prefix(cut: usize) -> Self {
        Span { from: 0, to: Some(cut) }
    }

    /// The suffix resuming at layer `cut`: layers `[cut, len)`.
    pub fn suffix(cut: usize) -> Self {
        Span { from: cut, to: None }
    }

    /// An explicit `[from, to)` range of layers.
    pub fn range(from: usize, to: usize) -> Self {
        Span { from, to: Some(to) }
    }

    /// First layer index of the span.
    pub fn start(&self) -> usize {
        self.from
    }

    /// Resolves the half-open bounds against a network of `len` layers.
    pub fn resolve(&self, len: usize) -> (usize, usize) {
        (self.from, self.to.unwrap_or(len))
    }
}

/// One op node of the compiled plan — a fusion decision of
/// [`ForwardPlan::compile`]. The executor runs these nodes, and passes that
/// lower the plan into another representation (the int8 quantizer) consume
/// them instead of re-deriving the fusion rules from the raw layer list.
///
/// Nodes hold layer *indices* only; all parameters are read live from the
/// [`Sequential`] at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanNode {
    /// Fused convolution (+ bias), optional trailing activation, optional
    /// trailing max-pool, executed by the gather-direct (im2col-elided)
    /// kernel. A fused pool consumes each image's conv output while it is
    /// still cache-hot, so the full-resolution feature map never streams to
    /// memory.
    ConvAct {
        /// Layer index of the convolution.
        conv: usize,
        /// Layer index of the fused activation, if any.
        act: Option<usize>,
        /// Layer index of the fused max-pool, if any.
        pool: Option<usize>,
    },
    /// Fused linear (+ bias) with an optional trailing activation.
    LinearAct {
        /// Layer index of the linear layer.
        lin: usize,
        /// Layer index of the fused activation, if any.
        act: Option<usize>,
    },
    /// `Flatten`: a pure reshape — zero-copy when the buffer is owned.
    Reshape {
        /// Layer index of the flatten.
        layer: usize,
    },
    /// An inference no-op (`Dropout`), elided entirely.
    Elided {
        /// Layer index of the elided layer.
        layer: usize,
    },
    /// Any other layer, executed through its legacy kernel.
    Opaque {
        /// Layer index of the opaque layer.
        layer: usize,
    },
}

impl PlanNode {
    /// The half-open range of legacy layer indices this node covers.
    pub fn layers(&self) -> Range<usize> {
        match *self {
            PlanNode::ConvAct { conv, act, pool } => conv..pool.or(act).map_or(conv + 1, |l| l + 1),
            PlanNode::LinearAct { lin, act } => lin..act.map_or(lin + 1, |a| a + 1),
            PlanNode::Reshape { layer } | PlanNode::Elided { layer } | PlanNode::Opaque { layer } => {
                layer..layer + 1
            }
        }
    }

    /// The node without its fused layers at or beyond layer `to`: what a
    /// span ending at `to` executes of it. A convolution cut at its
    /// activation keeps neither the activation nor the pool behind it.
    fn head(self, to: usize) -> PlanNode {
        let before = |l: Option<usize>| l.filter(|&l| l < to);
        match self {
            PlanNode::ConvAct { conv, act, pool } => {
                PlanNode::ConvAct { conv, act: before(act), pool: before(pool) }
            }
            PlanNode::LinearAct { lin, act } => PlanNode::LinearAct { lin, act: before(act) },
            other => other,
        }
    }
}

/// A compiled, shape-checked, fused forward plan over a [`Sequential`].
///
/// Compile once per (architecture, span-entry, input-shape) — or let
/// [`Sequential::plan`] / [`Sequential::execute`] do it through the run-wide
/// cache — then call [`ForwardPlan::execute`] for every batch. See the
/// [module docs](self) for the fusion rules and the bit-identity contract.
#[derive(Debug, Clone)]
pub struct ForwardPlan {
    nodes: Vec<PlanNode>,
    len: usize,
    fingerprint: u64,
    /// `shapes[i]` = dims entering layer `i` (slot `len` = output dims);
    /// `None` for layers before the compile entry point.
    shapes: Vec<Option<Vec<usize>>>,
}

impl ForwardPlan {
    /// Compiles a plan for the whole network given its input shape.
    ///
    /// # Panics
    ///
    /// Panics if `input_dims` is inconsistent with the layer stack (the
    /// shape check runs at compile time, with layer-indexed messages).
    pub fn compile(net: &Sequential, input_dims: &[usize]) -> Self {
        Self::compile_from(net, 0, input_dims)
    }

    /// Compiles a plan whose shape check starts at layer `entry` with
    /// `entry_dims` entering it — used when only a suffix activation shape
    /// is known. The node graph always covers the whole network.
    ///
    /// # Panics
    ///
    /// Panics if `entry` exceeds the layer count or the shapes are
    /// inconsistent from `entry` onward.
    pub fn compile_from(net: &Sequential, entry: usize, entry_dims: &[usize]) -> Self {
        let layers = net.layers();
        assert!(entry <= layers.len(), "plan entry {entry} outside network of {} layers", layers.len());
        let mut nodes = Vec::new();
        let mut i = 0;
        while i < layers.len() {
            let node = match &layers[i] {
                Layer::Conv2d(_) => {
                    let act = matches!(layers.get(i + 1), Some(Layer::Activation(_))).then_some(i + 1);
                    let next = act.map_or(i + 1, |a| a + 1);
                    let pool = matches!(layers.get(next), Some(Layer::MaxPool2d(_))).then_some(next);
                    PlanNode::ConvAct { conv: i, act, pool }
                }
                Layer::Linear(_) => {
                    let act = matches!(layers.get(i + 1), Some(Layer::Activation(_))).then_some(i + 1);
                    PlanNode::LinearAct { lin: i, act }
                }
                Layer::Flatten { .. } => PlanNode::Reshape { layer: i },
                Layer::Dropout(_) => PlanNode::Elided { layer: i },
                _ => PlanNode::Opaque { layer: i },
            };
            i = node.layers().end;
            nodes.push(node);
        }
        ForwardPlan {
            nodes,
            len: layers.len(),
            fingerprint: structural_fingerprint(net),
            shapes: infer_shapes(layers, entry, entry_dims),
        }
    }

    /// Number of legacy layers the plan covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a plan over an empty network.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The structural fingerprint of the network this plan was compiled
    /// from — layer kinds and dimensions, never parameter values.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The dims entering layer `index` (`len` = the network output), when
    /// known to the compile-time shape check. The batch dimension is the one
    /// the plan was compiled for; executions may use any batch size.
    pub fn shape_at(&self, index: usize) -> Option<&[usize]> {
        self.shapes.get(index).and_then(|s| s.as_deref())
    }

    /// The fusion decisions of this plan, as public [`PlanNode`]
    /// descriptions in execution order. Together the nodes cover layers
    /// `[0, len)` exactly once; [`PlanNode::layers`] gives each node's span
    /// for use with [`Sequential::execute`] + [`Span::range`].
    pub fn node_descs(&self) -> Vec<PlanNode> {
        self.nodes.clone()
    }

    /// Executes the layers selected by `span` on `x`, drawing buffers from
    /// `scratch` and reading all parameters live from `net`.
    ///
    /// This is the **single forward entry point** of the workspace: the full
    /// pass is `Span::full()`, the PR 5 prefix/suffix reuse paths are
    /// `Span::prefix(cut)` / `Span::suffix(cut)`, and cache extensions are
    /// `Span::range(a, b)` — all against the same plan, all bit-identical to
    /// the legacy per-layer loop. An empty span returns `x` unchanged.
    ///
    /// A span that ends inside a fused node runs the node's head (the node
    /// without its fused layers beyond the span) through the fused kernel:
    /// a conv cut at its activation is still gathered per image, without
    /// the batch-wide column matrix of the per-layer conv kernel. A span
    /// that starts inside a fused node runs the covered tail (activation,
    /// pool) through the layers' own kernels. Both are bit-identical by the
    /// fusion contract.
    ///
    /// # Panics
    ///
    /// Panics if the span is outside the network, `net` is not structurally
    /// the network this plan was compiled from, or shapes mismatch.
    pub fn execute(&self, net: &Sequential, x: &Tensor, span: Span, scratch: &mut Scratch) -> Tensor {
        let (from, to) = span.resolve(self.len);
        assert!(from <= to && to <= self.len, "span {from}..{to} outside network of {} layers", self.len);
        assert_eq!(
            net.len(),
            self.len,
            "plan/network layer count mismatch: plan has {}, network has {}",
            self.len,
            net.len()
        );
        if let Some(Some(expected)) = self.shapes.get(from) {
            let got = x.shape().dims();
            assert!(
                got.len() == expected.len() && got[1..] == expected[1..],
                "span entry {from}: input shape {got:?} incompatible with planned {expected:?} \
                 (batch size may differ, trailing dims may not)"
            );
        }
        let layers = net.layers();
        let mut cur: Option<Tensor> = None;
        for node in &self.nodes {
            let r = node.layers();
            if r.end <= from {
                continue;
            }
            if r.start >= to {
                break;
            }
            if r.start < from {
                // span starts inside a fused node: its covered tail (an
                // activation, a pool) runs through the layers' own kernels
                for li in from..r.end.min(to) {
                    let y = layers[li].forward_scratch(cur.as_ref().unwrap_or(x), scratch);
                    recycle_into(&mut cur, y, scratch);
                }
                continue;
            }
            // a span ending inside a fused node runs the node's covered head
            // through the same fused kernel, minus the parts beyond the span
            match node.head(to) {
                PlanNode::Elided { .. } => {} // inference identity: skip
                PlanNode::Reshape { .. } => {
                    let src = cur.take();
                    cur = Some(reshape_flat(src, x, scratch));
                }
                PlanNode::ConvAct { conv, act, pool } => {
                    let y = exec_conv(layers, conv, act, pool, cur.as_ref().unwrap_or(x), scratch);
                    recycle_into(&mut cur, y, scratch);
                }
                PlanNode::LinearAct { lin, act } => {
                    let y = exec_linear(layers, lin, act, cur.as_ref().unwrap_or(x), scratch);
                    recycle_into(&mut cur, y, scratch);
                }
                PlanNode::Opaque { layer } => {
                    let y = layers[layer].forward_scratch(cur.as_ref().unwrap_or(x), scratch);
                    recycle_into(&mut cur, y, scratch);
                }
            }
        }
        cur.unwrap_or_else(|| x.clone())
    }
}

/// Replaces `cur` with `y`, recycling the consumed owned input (if any) into
/// the arena — the liveness discipline that keeps the scratch high-water
/// mark at one adjacent working set.
fn recycle_into(cur: &mut Option<Tensor>, y: Tensor, scratch: &mut Scratch) {
    if let Some(prev) = cur.replace(y) {
        scratch.recycle(prev.into_vec());
    }
}

/// Executes a `Flatten` node: zero-copy reshape when the buffer is owned,
/// a scratch copy (the legacy kernel) when it is still the borrowed input.
fn reshape_flat(owned: Option<Tensor>, x: &Tensor, scratch: &mut Scratch) -> Tensor {
    match owned {
        Some(t) => {
            let n = t.shape()[0];
            let rest: usize = t.shape().dims()[1..].iter().product();
            Tensor::from_vec(t.into_vec(), &[n, rest]).expect("flatten preserves volume")
        }
        None => {
            let n = x.shape()[0];
            let rest: usize = x.shape().dims()[1..].iter().product();
            let mut buf = scratch.buffer(x.len());
            buf.copy_from_slice(x.data());
            Tensor::from_vec(buf, &[n, rest]).expect("flatten preserves volume")
        }
    }
}

/// The fused activation function of a plan node (`act` = its layer index,
/// as in [`PlanNode::ConvAct`] / [`PlanNode::LinearAct`]), read live from
/// the network's layers — the one lookup both inference engines use.
///
/// # Panics
///
/// Panics if layer `act` is not an activation.
pub fn live_activation(layers: &[Layer], act: Option<usize>) -> Option<Activation> {
    act.map(|ai| match &layers[ai] {
        Layer::Activation(a) => a.func,
        other => panic!("plan node expects an activation at layer {ai}, found {}", other.kind()),
    })
}

/// The fused max-pool of a [`PlanNode::ConvAct`] (`pool` = its layer index)
/// as `(kernel, stride)`, read from the network's layers — the one lookup
/// both inference engines use.
///
/// # Panics
///
/// Panics if layer `pool` is not a max-pool.
pub fn live_pool(layers: &[Layer], pool: Option<usize>) -> Option<(usize, usize)> {
    pool.map(|pi| match &layers[pi] {
        Layer::MaxPool2d(p) => (p.kernel(), p.stride()),
        other => panic!("plan node expects a max-pool at layer {pi}, found {}", other.kind()),
    })
}

/// Gather-direct fused convolution: per image, unroll the column matrix into
/// a cache-resident buffer, accumulate the blocked product straight into the
/// image's `[out_channels, oh·ow]` rows of the batched NCHW output, then
/// apply `act(out + bias)` in place. Value chains are identical to the
/// legacy im2col → matmul → scatter-bias → activate pipeline; images are
/// distributed over threads whole, so every element keeps a single producer.
fn exec_conv(
    layers: &[Layer],
    conv: usize,
    act: Option<usize>,
    pool: Option<usize>,
    src: &Tensor,
    scratch: &mut Scratch,
) -> Tensor {
    let Layer::Conv2d(c) = &layers[conv] else {
        panic!("plan node expects a convolution at layer {conv}, found {}", layers[conv].kind())
    };
    let act = live_activation(layers, act);
    let pool = live_pool(layers, pool);
    let (n, ic, h, w) = src.shape().as_nchw();
    assert_eq!(ic, c.in_channels(), "conv input channel mismatch at layer {conv}");
    let geom = c.geometry();
    let (oh, ow) = geom.output_size(h, w);
    let l = oh * ow;
    let oc = c.out_channels();
    let kk = ic * geom.kernel * geom.kernel;
    let chw = ic * h * w;
    let w_data = c.weight().data();
    let b_data = c.bias().data();
    let src_data = src.data();
    // With a fused pool, each image's full-resolution conv output lives only
    // in a per-worker staging buffer that the pool consumes while cache-hot;
    // only the pooled planes land in the batch output.
    let (out_h, out_w) = match pool {
        Some((pk, ps)) => (conv_output_size(oh, pk, ps, 0), conv_output_size(ow, pk, ps, 0)),
        None => (oh, ow),
    };
    let out_l = out_h * out_w;
    // Uninitialized batch buffer: each image zeroes its own conv slice right
    // before accumulating into it (see `conv_image`), so the freshly zeroed
    // region is still cache-hot when the gemm reads it back — bitwise the
    // same accumulation chain as one up-front whole-buffer zero pass.
    let mut out_buf = scratch.buffer(n * oc * out_l);
    if num_threads().min(n) <= 1 {
        let mut cols = scratch.buffer(kk * l);
        let mut staging = scratch.buffer(if pool.is_some() { oc * l } else { 0 });
        for (i, img_out) in out_buf.chunks_mut(oc * out_l).enumerate() {
            let img = &src_data[i * chw..(i + 1) * chw];
            match pool {
                Some((pk, ps)) => {
                    conv_image(img, w_data, b_data, geom, ic, h, w, act, &mut cols, &mut staging);
                    max_pool_planes(&staging, oc, oh, ow, pk, ps, img_out);
                }
                None => conv_image(img, w_data, b_data, geom, ic, h, w, act, &mut cols, img_out),
            }
        }
        scratch.recycle(cols);
        scratch.recycle(staging);
    } else {
        par_row_bands(&mut out_buf, oc * out_l, |first_img, band| {
            let mut cols = vec![0.0f32; kk * l];
            let mut staging = vec![0.0f32; if pool.is_some() { oc * l } else { 0 }];
            for (bi, img_out) in band.chunks_mut(oc * out_l).enumerate() {
                let i = first_img + bi;
                let img = &src_data[i * chw..(i + 1) * chw];
                match pool {
                    Some((pk, ps)) => {
                        conv_image(img, w_data, b_data, geom, ic, h, w, act, &mut cols, &mut staging);
                        max_pool_planes(&staging, oc, oh, ow, pk, ps, img_out);
                    }
                    None => conv_image(img, w_data, b_data, geom, ic, h, w, act, &mut cols, img_out),
                }
            }
        });
    }
    Tensor::from_vec(out_buf, &[n, oc, out_h, out_w]).expect("conv output volume matches")
}

/// One image of the fused convolution: gather, accumulate, bias + activate.
#[allow(clippy::too_many_arguments)]
fn conv_image(
    img: &[f32],
    w_data: &[f32],
    b_data: &[f32],
    geom: ftclip_tensor::Conv2dGeometry,
    ic: usize,
    h: usize,
    w: usize,
    act: Option<Activation>,
    cols: &mut [f32],
    img_out: &mut [f32],
) {
    let l = img_out.len() / b_data.len();
    img_out.fill(0.0);
    im2col_image_overwrite(img, ic, h, w, geom, cols);
    gemm_accumulate(w_data, cols, img_out, cols.len() / l, l);
    for (seg, &b) in img_out.chunks_mut(l).zip(b_data) {
        Activation::bias_act(act, seg, std::iter::repeat(b));
    }
}

/// Fused linear: the legacy `matmul_nt` kernel (one ascending-`k` chain per
/// element) with bias and activation folded into a single in-place pass.
fn exec_linear(
    layers: &[Layer],
    lin: usize,
    act: Option<usize>,
    src: &Tensor,
    scratch: &mut Scratch,
) -> Tensor {
    let Layer::Linear(linear) = &layers[lin] else {
        panic!("plan node expects a linear at layer {lin}, found {}", layers[lin].kind())
    };
    let act = live_activation(layers, act);
    let (n, f) = src.shape().as_matrix();
    assert_eq!(f, linear.in_features(), "linear input feature mismatch");
    let out_f = linear.out_features();
    let mut y = Tensor::from_vec(scratch.buffer(n * out_f), &[n, out_f]).expect("output volume matches");
    matmul_nt_into(src, linear.weight(), &mut y);
    let bias = linear.bias().data();
    for row in y.data_mut().chunks_mut(out_f) {
        Activation::bias_act(act, row, bias.iter().copied());
    }
    y
}

/// Shape inference from layer `entry` onward; `shapes[i]` = dims entering
/// layer `i`, slot `len` = output dims. Panics with layer-indexed messages
/// on any inconsistency — the compile-time shape check.
fn infer_shapes(layers: &[Layer], entry: usize, entry_dims: &[usize]) -> Vec<Option<Vec<usize>>> {
    let mut shapes: Vec<Option<Vec<usize>>> = vec![None; layers.len() + 1];
    let mut cur = entry_dims.to_vec();
    shapes[entry] = Some(cur.clone());
    for (i, layer) in layers.iter().enumerate().skip(entry) {
        cur = match layer {
            Layer::Conv2d(c) => {
                assert!(cur.len() == 4, "layer {i} ({}): expected rank-4 input, got {cur:?}", layer.kind());
                assert_eq!(
                    cur[1],
                    c.in_channels(),
                    "layer {i} ({}): input has {} channels, conv expects {}",
                    layer.kind(),
                    cur[1],
                    c.in_channels()
                );
                let (oh, ow) = c.geometry().output_size(cur[2], cur[3]);
                vec![cur[0], c.out_channels(), oh, ow]
            }
            Layer::Linear(l) => {
                assert!(
                    cur.len() == 2 && cur[1] == l.in_features(),
                    "layer {i} ({}): input {cur:?} incompatible with linear [{} → {}]",
                    layer.kind(),
                    l.in_features(),
                    l.out_features()
                );
                vec![cur[0], l.out_features()]
            }
            Layer::MaxPool2d(p) => pooled_dims(&cur, p.kernel(), p.stride(), i),
            Layer::AvgPool2d(p) => pooled_dims(&cur, p.kernel(), p.stride(), i),
            Layer::Flatten { .. } => {
                assert!(!cur.is_empty(), "layer {i} (FLATTEN): scalar input");
                vec![cur[0], cur[1..].iter().product()]
            }
            Layer::Activation(_) | Layer::Dropout(_) | Layer::BatchNorm2d(_) => cur,
        };
        shapes[i + 1] = Some(cur.clone());
    }
    shapes
}

/// Output dims of a `kernel × kernel` stride-`stride` pooling layer.
fn pooled_dims(cur: &[usize], kernel: usize, stride: usize, i: usize) -> Vec<usize> {
    assert!(cur.len() == 4, "layer {i} (pool): expected rank-4 input, got {cur:?}");
    vec![
        cur[0],
        cur[1],
        conv_output_size(cur[2], kernel, stride, 0),
        conv_output_size(cur[3], kernel, stride, 0),
    ]
}

/// Hashes the network's *structure* — layer kinds and dimensions, never
/// parameter values — so fault injections and threshold tuning hit the same
/// cached plan while any architectural change misses.
pub fn structural_fingerprint(net: &Sequential) -> u64 {
    let mut hasher = DefaultHasher::new();
    net.len().hash(&mut hasher);
    for layer in net.layers() {
        match layer {
            Layer::Conv2d(c) => {
                let g = c.geometry();
                (0u8, c.in_channels(), c.out_channels(), g.kernel, g.stride, g.pad).hash(&mut hasher);
            }
            Layer::Linear(l) => (1u8, l.in_features(), l.out_features()).hash(&mut hasher),
            Layer::Activation(_) => 2u8.hash(&mut hasher),
            Layer::MaxPool2d(p) => (3u8, p.kernel(), p.stride()).hash(&mut hasher),
            Layer::AvgPool2d(p) => (4u8, p.kernel(), p.stride()).hash(&mut hasher),
            Layer::Flatten { .. } => 5u8.hash(&mut hasher),
            Layer::Dropout(_) => 6u8.hash(&mut hasher),
            Layer::BatchNorm2d(_) => 7u8.hash(&mut hasher),
        }
    }
    hasher.finish()
}

/// Run-wide plan cache: (structural fingerprint, span entry, entry dims) →
/// compiled plan.
type PlanKey = (u64, usize, Vec<usize>);

static PLAN_CACHE: OnceLock<Mutex<HashMap<PlanKey, Arc<ForwardPlan>>>> = OnceLock::new();

/// Entry cap before the cache is wholesale cleared — far above any realistic
/// (arch × batch-shape × cut) population, present only to bound a pathological
/// workload that churns architectures.
const PLAN_CACHE_CAP: usize = 256;

/// The cached compile behind [`Sequential::plan`]: returns the memoized plan
/// for this (structure, entry, shape) or compiles and inserts one.
pub fn plan_for(net: &Sequential, entry: usize, entry_dims: &[usize]) -> Arc<ForwardPlan> {
    // chaos drill: an injected bypass recompiles this plan from scratch —
    // plans are pure functions of (structure, entry, shape), so execution
    // stays bit-identical, just slower
    if ftclip_tensor::failpoint::fires("nn.plan_cache") {
        return Arc::new(ForwardPlan::compile_from(net, entry, entry_dims));
    }
    let key = (structural_fingerprint(net), entry, entry_dims.to_vec());
    let cache = PLAN_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = match cache.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    };
    if let Some(plan) = map.get(&key) {
        return Arc::clone(plan);
    }
    let plan = Arc::new(ForwardPlan::compile_from(net, entry, entry_dims));
    if map.len() >= PLAN_CACHE_CAP {
        map.clear();
    }
    map.insert(key, Arc::clone(&plan));
    plan
}
