//! A batteries-included training loop.

use std::time::Instant;

use ftclip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::loss::SoftmaxCrossEntropy;
use crate::opt::{Adam, Optimizer, Sgd};
use crate::sched::LrSchedule;
use crate::{Sequential, Span};

/// Which optimizer the [`Trainer`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with the given momentum and weight decay.
    Sgd {
        /// Momentum coefficient.
        momentum: f32,
        /// Decoupled weight decay.
        weight_decay: f32,
    },
    /// Adam with canonical betas.
    Adam,
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Learning rate used this epoch.
    pub lr: f32,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Training accuracy over the epoch (computed on the training batches).
    pub train_accuracy: f64,
    /// Validation accuracy, when a validation set was supplied.
    pub val_accuracy: Option<f64>,
    /// Wall-clock seconds spent in the epoch.
    pub seconds: f64,
}

/// Configurable mini-batch trainer for [`Sequential`] networks.
///
/// # Example
///
/// ```
/// use ftclip_nn::{Layer, Sequential, Trainer};
/// use ftclip_tensor::Tensor;
///
/// let mut net = Sequential::new(vec![
///     Layer::flatten(),
///     Layer::linear(4, 2, 0),
/// ]);
/// let images = Tensor::zeros(&[8, 1, 2, 2]);
/// let labels = vec![0usize, 1, 0, 1, 0, 1, 0, 1];
/// let trainer = Trainer::builder().epochs(1).batch_size(4).build();
/// let stats = trainer.fit(&mut net, &images, &labels, None);
/// assert_eq!(stats.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    epochs: usize,
    batch_size: usize,
    schedule: LrSchedule,
    optimizer: OptimizerKind,
    seed: u64,
    augment: bool,
    verbose: bool,
}

impl Trainer {
    /// Starts building a trainer.
    pub fn builder() -> TrainerBuilder {
        TrainerBuilder::default()
    }

    /// Trains `net` on `(images, labels)`; evaluates on `val` after each
    /// epoch when provided. Returns per-epoch statistics.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the leading dimension of
    /// `images`, or shapes are incompatible with the network.
    pub fn fit(
        &self,
        net: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
        val: Option<(&Tensor, &[usize])>,
    ) -> Vec<EpochStats> {
        let n = images.shape()[0];
        assert_eq!(labels.len(), n, "label count must match image count");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut opt: Box<dyn Optimizer> = match self.optimizer {
            OptimizerKind::Sgd { momentum, weight_decay } => Box::new(Sgd::new(momentum, weight_decay)),
            OptimizerKind::Adam => Box::new(Adam::new()),
        };
        let ce = SoftmaxCrossEntropy::new();
        let mut order: Vec<usize> = (0..n).collect();
        let mut stats = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            let start = Instant::now();
            let lr = self.schedule.lr_at(epoch);
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut correct = 0usize;
            let mut batches = 0usize;
            for chunk in order.chunks(self.batch_size) {
                let (bx, by) = gather_batch(images, labels, chunk);
                let bx = if self.augment { augment_batch(&bx, &mut rng) } else { bx };
                net.zero_grad();
                let logits = net.forward_train(&bx, &mut rng);
                let (loss, grad) = ce.loss_and_grad(&logits, &by);
                net.backward(&grad);
                opt.step(&mut net.params_mut(), lr);
                loss_sum += loss as f64;
                correct += logits.argmax_rows().iter().zip(&by).filter(|(p, l)| p == l).count();
                batches += 1;
            }
            let val_accuracy = val.map(|(vx, vy)| evaluate(net, vx, vy, self.batch_size));
            let stat = EpochStats {
                epoch,
                lr,
                train_loss: (loss_sum / batches.max(1) as f64) as f32,
                train_accuracy: correct as f64 / n as f64,
                val_accuracy,
                seconds: start.elapsed().as_secs_f64(),
            };
            if self.verbose {
                match stat.val_accuracy {
                    Some(va) => eprintln!(
                        "epoch {:>3}: lr {:.4} loss {:.4} train-acc {:.3} val-acc {:.3} ({:.1}s)",
                        stat.epoch, stat.lr, stat.train_loss, stat.train_accuracy, va, stat.seconds
                    ),
                    None => eprintln!(
                        "epoch {:>3}: lr {:.4} loss {:.4} train-acc {:.3} ({:.1}s)",
                        stat.epoch, stat.lr, stat.train_loss, stat.train_accuracy, stat.seconds
                    ),
                }
            }
            stats.push(stat);
        }
        net.clear_caches();
        stats
    }
}

/// Builder for [`Trainer`] (see [`Trainer::builder`]).
#[derive(Debug, Clone)]
pub struct TrainerBuilder {
    epochs: usize,
    batch_size: usize,
    schedule: LrSchedule,
    optimizer: OptimizerKind,
    seed: u64,
    augment: bool,
    verbose: bool,
}

impl Default for TrainerBuilder {
    fn default() -> Self {
        TrainerBuilder {
            epochs: 10,
            batch_size: 64,
            schedule: LrSchedule::Constant { lr: 0.01 },
            optimizer: OptimizerKind::Sgd { momentum: 0.9, weight_decay: 5e-4 },
            seed: 0,
            augment: false,
            verbose: false,
        }
    }
}

impl TrainerBuilder {
    /// Number of passes over the training set.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Mini-batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` (at [`TrainerBuilder::build`]).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Learning-rate schedule.
    pub fn schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Optimizer choice.
    pub fn optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// RNG seed controlling shuffling, dropout and augmentation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables random horizontal flips and ±2 px translations on NCHW
    /// batches.
    pub fn augment(mut self, augment: bool) -> Self {
        self.augment = augment;
        self
    }

    /// Prints per-epoch progress to stderr.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Finalizes the trainer.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `epochs == 0`.
    pub fn build(self) -> Trainer {
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.epochs > 0, "epoch count must be positive");
        Trainer {
            epochs: self.epochs,
            batch_size: self.batch_size,
            schedule: self.schedule,
            optimizer: self.optimizer,
            seed: self.seed,
            augment: self.augment,
            verbose: self.verbose,
        }
    }
}

/// Batched evaluation: classification accuracy of `net` on `(images, labels)`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the leading dimension of `images`.
pub fn evaluate(net: &Sequential, images: &Tensor, labels: &[usize], batch_size: usize) -> f64 {
    evaluate_with_threads(net, images, labels, batch_size, ftclip_tensor::num_threads())
}

/// [`evaluate`] with an explicit worker budget (`FTCLIP_THREADS` is
/// process-global and cached, so tests and probes comparing thread counts
/// inside one process use this entry point; 0 counts as 1).
///
/// The evaluation batches go through [`ftclip_tensor::fan_out`], one batch
/// per queue item: each worker runs its forward passes under its share of
/// the budget — so when there are fewer batches than threads, the matmul
/// kernels underneath soak up the leftover parallelism instead of idling —
/// and reuses one [`crate::Scratch`] arena across the batches it pulls,
/// eliminating steady-state allocation.
///
/// Results are **bit-identical at any thread count**: every batch's forward
/// pass is banding-invariant, each batch is scored by exactly one worker,
/// and the per-batch correct counts are integers whose sum is
/// order-independent.
pub fn evaluate_with_threads(
    net: &Sequential,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    threads: usize,
) -> f64 {
    let n = images.shape()[0];
    assert_eq!(labels.len(), n, "label count must match image count");
    let bs = batch_size.max(1);
    let correct: usize =
        ftclip_tensor::fan_out(threads.max(1), n.div_ceil(bs), crate::Scratch::new, |scratch, b| {
            correct_in_batch(net, images, labels, bs, b, scratch)
        })
        .into_iter()
        .sum();
    correct as f64 / n as f64
}

/// Correct-classification count of batch `b` (images `[b·bs, (b+1)·bs)`).
fn correct_in_batch(
    net: &Sequential,
    images: &Tensor,
    labels: &[usize],
    bs: usize,
    b: usize,
    scratch: &mut crate::Scratch,
) -> usize {
    let n = images.shape()[0];
    let stride: usize = images.shape().dims()[1..].iter().product();
    let start = b * bs;
    let end = (start + bs).min(n);
    // copy the batch into recycled storage (what slice_batch does, minus
    // the per-batch allocation of the image data)
    let mut buf = scratch.buffer((end - start) * stride);
    buf.copy_from_slice(&images.data()[start * stride..end * stride]);
    let mut dims = images.shape().dims().to_vec();
    dims[0] = end - start;
    let bx = Tensor::from_vec(buf, &dims).expect("batch volume matches");
    let logits = net.execute(&bx, Span::full(), scratch);
    let correct = logits
        .argmax_rows()
        .iter()
        .zip(&labels[start..end])
        .filter(|(p, l)| p == l)
        .count();
    scratch.recycle(logits.into_vec());
    scratch.recycle(bx.into_vec());
    correct
}

fn gather_batch(images: &Tensor, labels: &[usize], idxs: &[usize]) -> (Tensor, Vec<usize>) {
    let mut dims = images.shape().dims().to_vec();
    dims[0] = idxs.len();
    let stride: usize = images.shape().dims()[1..].iter().product();
    let mut data = Vec::with_capacity(idxs.len() * stride);
    let mut ls = Vec::with_capacity(idxs.len());
    for &i in idxs {
        data.extend_from_slice(&images.data()[i * stride..(i + 1) * stride]);
        ls.push(labels[i]);
    }
    (Tensor::from_vec(data, &dims).expect("batch volume matches"), ls)
}

/// Random horizontal flip (p = 0.5) and ±2 px translation per image.
fn augment_batch<R: Rng + ?Sized>(batch: &Tensor, rng: &mut R) -> Tensor {
    if batch.shape().rank() != 4 {
        return batch.clone();
    }
    let (n, c, h, w) = batch.shape().as_nchw();
    let mut out = batch.clone();
    for i in 0..n {
        let flip = rng.gen_bool(0.5);
        let dy = rng.gen_range(-2i32..=2);
        let dx = rng.gen_range(-2i32..=2);
        if !flip && dy == 0 && dx == 0 {
            continue;
        }
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let sy = y as i32 - dy;
                    let sx0 = if flip { (w - 1 - x) as i32 } else { x as i32 };
                    let sx = sx0 - dx;
                    let v = if sy >= 0 && sy < h as i32 && sx >= 0 && sx < w as i32 {
                        batch.at4(i, ci, sy as usize, sx as usize)
                    } else {
                        0.0
                    };
                    out.set4(i, ci, y, x, v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    fn toy_problem(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        // linearly separable: class = (mean of image > 0)
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 16);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let offset: f32 = if i % 2 == 0 { 0.5 } else { -0.5 };
            for _ in 0..16 {
                data.push(offset + rng.gen_range(-0.3f32..0.3));
            }
            labels.push(usize::from(i % 2 == 0));
        }
        (Tensor::from_vec(data, &[n, 1, 4, 4]).unwrap(), labels)
    }

    #[test]
    fn trainer_learns_separable_problem() {
        let (x, y) = toy_problem(64, 5);
        let mut net = Sequential::new(vec![Layer::flatten(), Layer::linear(16, 2, 1)]);
        let trainer = Trainer::builder()
            .epochs(20)
            .batch_size(16)
            .schedule(LrSchedule::Constant { lr: 0.1 })
            .optimizer(OptimizerKind::Sgd { momentum: 0.9, weight_decay: 0.0 })
            .build();
        let stats = trainer.fit(&mut net, &x, &y, Some((&x, &y)));
        let last = stats.last().unwrap();
        assert!(last.val_accuracy.unwrap() > 0.95, "should fit separable data: {last:?}");
        assert!(last.train_loss < stats[0].train_loss);
    }

    #[test]
    fn adam_also_learns() {
        let (x, y) = toy_problem(64, 6);
        let mut net = Sequential::new(vec![Layer::flatten(), Layer::linear(16, 2, 2)]);
        let trainer = Trainer::builder()
            .epochs(15)
            .batch_size(16)
            .schedule(LrSchedule::Constant { lr: 0.01 })
            .optimizer(OptimizerKind::Adam)
            .build();
        let stats = trainer.fit(&mut net, &x, &y, Some((&x, &y)));
        assert!(stats.last().unwrap().val_accuracy.unwrap() > 0.9);
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let (x, y) = toy_problem(32, 7);
        let run = |seed| {
            let mut net = Sequential::new(vec![Layer::flatten(), Layer::linear(16, 2, 3)]);
            let trainer = Trainer::builder().epochs(3).batch_size(8).seed(seed).build();
            trainer.fit(&mut net, &x, &y, None);
            net.execute(&x, Span::full(), &mut crate::Scratch::new()).data().to_vec()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn evaluate_batches_cover_everything() {
        let (x, y) = toy_problem(10, 8);
        let net = Sequential::new(vec![Layer::flatten(), Layer::linear(16, 2, 4)]);
        // batch size larger than n, equal to n, and ragged
        let a = evaluate(&net, &x, &y, 100);
        let b = evaluate(&net, &x, &y, 10);
        let c = evaluate(&net, &x, &y, 3);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn augment_preserves_shape_and_range() {
        let (x, _) = toy_problem(4, 9);
        let mut rng = StdRng::seed_from_u64(1);
        let a = augment_batch(&x, &mut rng);
        assert_eq!(a.shape().dims(), x.shape().dims());
        assert!(a.max() <= x.max() + 1e-6);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn builder_rejects_zero_batch() {
        Trainer::builder().batch_size(0).build();
    }
}
