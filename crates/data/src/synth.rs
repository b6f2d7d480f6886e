//! Deterministic synthetic CIFAR-class image generator.
//!
//! **Substitution note** (`docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`). The paper trains on CIFAR-10, which
//! is not available in this environment. `SynthCifar` generates a 10-class,
//! 32×32×3 image-classification task with the properties the FT-ClipAct
//! experiments actually depend on:
//!
//! * images are learnable but not trivially so — trained AlexNet/VGG-style
//!   models land in the paper's 70–85 % accuracy band (tunable via
//!   [`SynthCifarBuilder::noise_std`]);
//! * pixel values live in `[-1, 1]` like normalized CIFAR images;
//! * class structure is spatial (gratings + blobs), so convolutions matter.
//!
//! Every image is a pure function of `(seed, split, index)`, so datasets are
//! bit-reproducible across runs and machines. That also makes the splits
//! cheap to share and defer:
//!
//! * each split is generated on its first read — a post-training run that
//!   only profiles on validation data and measures on test data never pays
//!   for the training split;
//! * the images of a split are generated in parallel, one image per row of
//!   [`par_row_bands`], and the result is bit-identical at any thread count;
//! * clones share the generated splits through one `Arc`.

use std::sync::{Arc, OnceLock};

use ftclip_tensor::{par_row_bands, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Dataset;

/// Number of sinusoidal gratings per class prototype.
const GRATINGS: usize = 2;
/// Number of Gaussian blobs per class prototype.
const BLOBS: usize = 2;
/// Channel-invariant terms per pixel: one `sin` per grating, one `exp` per
/// blob and one `exp` for the distractor blob.
const TERMS: usize = GRATINGS + BLOBS + 1;

/// Split ids: the index into [`Inner::splits`] and the split component of
/// every per-image seed.
const TRAIN: usize = 0;
const VAL: usize = 1;
const TEST: usize = 2;

/// Class-defining pattern parameters (one per class, drawn from the
/// generator seed).
#[derive(Debug, Clone)]
struct ClassProto {
    /// Base colour per channel.
    base: [f32; 3],
    /// Per grating: (fx, fy, phase, amplitude, channel weights).
    gratings: Vec<(f32, f32, f32, f32, [f32; 3])>,
    /// Per blob: (cx, cy, inv_sigma_sq, amplitude, channel weights).
    blobs: Vec<(f32, f32, f32, f32, [f32; 3])>,
}

impl ClassProto {
    /// Linear interpolation toward `other`: `self + t·(other − self)` on
    /// every parameter. Used to pull class prototypes toward a shared base
    /// pattern, which controls inter-class confusability.
    fn lerp_toward(&self, other: &ClassProto, t: f32) -> ClassProto {
        let l = |a: f32, b: f32| a + t * (b - a);
        let lw = |a: &[f32; 3], b: &[f32; 3]| [l(a[0], b[0]), l(a[1], b[1]), l(a[2], b[2])];
        ClassProto {
            base: lw(&self.base, &other.base),
            gratings: self
                .gratings
                .iter()
                .zip(&other.gratings)
                .map(|(&(fx, fy, ph, amp, w), &(fx2, fy2, ph2, amp2, w2))| {
                    (l(fx, fx2), l(fy, fy2), l(ph, ph2), l(amp, amp2), lw(&w, &w2))
                })
                .collect(),
            blobs: self
                .blobs
                .iter()
                .zip(&other.blobs)
                .map(|(&(cx, cy, s, amp, w), &(cx2, cy2, s2, amp2, w2))| {
                    (l(cx, cx2), l(cy, cy2), l(s, s2), l(amp, amp2), lw(&w, &w2))
                })
                .collect(),
        }
    }

    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut base = [0.0f32; 3];
        for b in &mut base {
            *b = rng.gen_range(-0.4..0.4);
        }
        let gratings = (0..GRATINGS)
            .map(|_| {
                let fx = rng.gen_range(0.5f32..3.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let fy = rng.gen_range(0.5f32..3.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let phase = rng.gen_range(0.0..std::f32::consts::TAU);
                let amp = rng.gen_range(0.2..0.45);
                let mut w = [0.0f32; 3];
                for v in &mut w {
                    *v = rng.gen_range(-1.0..1.0);
                }
                (fx, fy, phase, amp, w)
            })
            .collect();
        let blobs = (0..BLOBS)
            .map(|_| {
                let cx = rng.gen_range(0.2..0.8);
                let cy = rng.gen_range(0.2..0.8);
                let sigma = rng.gen_range(0.08f32..0.2);
                let amp = rng.gen_range(0.3f32..0.6) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let mut w = [0.0f32; 3];
                for v in &mut w {
                    *v = rng.gen_range(0.0..1.0);
                }
                (cx, cy, 1.0 / (2.0 * sigma * sigma), amp, w)
            })
            .collect();
        ClassProto { base, gratings, blobs }
    }
}

/// Per-sample distortion of the class pattern: grating phase/amplitude
/// jitter and blob displacement. This is the *structural* difficulty knob —
/// it raises intra-class variance the way viewpoint/instance variation does
/// in natural images, which pixel noise alone cannot emulate.
#[derive(Debug, Clone)]
struct SampleJitter {
    grating_phase: [f32; GRATINGS],
    grating_amp: [f32; GRATINGS],
    blob_offset: [(f32, f32); BLOBS],
}

impl SampleJitter {
    fn sample<R: Rng + ?Sized>(rng: &mut R, distortion: f32) -> Self {
        let mut grating_phase = [0.0f32; GRATINGS];
        let mut grating_amp = [1.0f32; GRATINGS];
        let mut blob_offset = [(0.0f32, 0.0f32); BLOBS];
        for p in &mut grating_phase {
            *p = rng.gen_range(-1.0f32..1.0) * distortion * std::f32::consts::PI;
        }
        for a in &mut grating_amp {
            *a = 1.0 + rng.gen_range(-0.5f32..0.5) * distortion;
        }
        for o in &mut blob_offset {
            *o = (rng.gen_range(-0.2f32..0.2) * distortion, rng.gen_range(-0.2f32..0.2) * distortion);
        }
        SampleJitter { grating_phase, grating_amp, blob_offset }
    }
}

/// The synthetic CIFAR-substitute dataset: train / validation / test splits.
///
/// Each split is generated on its first read, in parallel, and is
/// bit-identical at any thread count. Clones share the generated splits
/// through one `Arc`, so cloning is a refcount bump.
///
/// # Example
///
/// ```
/// use ftclip_data::SynthCifar;
///
/// let data = SynthCifar::builder()
///     .seed(1)
///     .train_size(128)
///     .val_size(64)
///     .test_size(64)
///     .build();
/// assert_eq!(data.train().len(), 128);
/// assert_eq!(data.val().len(), 64);
/// assert_eq!(data.test().num_classes(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct SynthCifar {
    inner: Arc<Inner>,
}

/// What every clone of one [`SynthCifar`] shares.
#[derive(Debug)]
struct Inner {
    /// The validated settings.
    config: SynthCifarBuilder,
    /// Class prototypes, drawn eagerly by [`SynthCifarBuilder::build`].
    protos: Vec<ClassProto>,
    /// The splits, indexed by split id ([`TRAIN`], [`VAL`], [`TEST`]).
    splits: [OnceLock<Dataset>; 3],
}

impl SynthCifar {
    /// Starts building a generator.
    pub fn builder() -> SynthCifarBuilder {
        SynthCifarBuilder::default()
    }

    /// The training split (what the model owner used; the methodology itself
    /// never touches it, matching the paper's no-training-data constraint).
    /// Generated on first call.
    pub fn train(&self) -> &Dataset {
        self.split(TRAIN)
    }

    /// The validation split (threshold profiling and tuning draw subsets of
    /// this). Generated on first call.
    pub fn val(&self) -> &Dataset {
        self.split(VAL)
    }

    /// The held-out test split (final resilience evaluation). Generated on
    /// first call.
    pub fn test(&self) -> &Dataset {
        self.split(TEST)
    }

    /// The split with id `split`, generating it if no clone has yet.
    /// Concurrent first readers block until the one generating it is done.
    fn split(&self, split: usize) -> &Dataset {
        let inner = &*self.inner;
        inner.splits[split].get_or_init(|| inner.config.generate_split(&inner.protos, split))
    }
}

/// Builder for [`SynthCifar`].
#[derive(Debug, Clone)]
pub struct SynthCifarBuilder {
    seed: u64,
    classes: usize,
    image_size: usize,
    channels: usize,
    train_size: usize,
    val_size: usize,
    test_size: usize,
    noise_std: f32,
    distortion: f32,
    class_sep: f32,
    max_shift: i32,
}

impl Default for SynthCifarBuilder {
    fn default() -> Self {
        SynthCifarBuilder {
            seed: 0,
            classes: 10,
            image_size: 32,
            channels: 3,
            train_size: 4096,
            val_size: 1024,
            test_size: 1024,
            noise_std: 0.35,
            distortion: 0.5,
            class_sep: 0.5,
            max_shift: 3,
        }
    }
}

impl SynthCifarBuilder {
    /// Master seed: fixes class prototypes and every sample.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of classes (default 10, like CIFAR-10).
    pub fn classes(mut self, classes: usize) -> Self {
        self.classes = classes;
        self
    }

    /// Square image side (default 32).
    pub fn image_size(mut self, image_size: usize) -> Self {
        self.image_size = image_size;
        self
    }

    /// Image channels, 1–3 (default 3). Use 1 for single-channel models
    /// like LeNet-5.
    pub fn channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Training-split size (default 4096).
    pub fn train_size(mut self, n: usize) -> Self {
        self.train_size = n;
        self
    }

    /// Validation-split size (default 1024).
    pub fn val_size(mut self, n: usize) -> Self {
        self.val_size = n;
        self
    }

    /// Test-split size (default 1024).
    pub fn test_size(mut self, n: usize) -> Self {
        self.test_size = n;
        self
    }

    /// Per-pixel Gaussian noise σ (default 0.35; finite and ≥ 0) — the
    /// *pixel-level* difficulty knob.
    pub fn noise_std(mut self, noise_std: f32) -> Self {
        self.noise_std = noise_std;
        self
    }

    /// Per-sample pattern distortion in `[0, 1]` (default 0.5): jitters
    /// grating phases/amplitudes and blob positions per sample, raising
    /// intra-class variance the way instance variation does in natural
    /// images.
    pub fn distortion(mut self, distortion: f32) -> Self {
        self.distortion = distortion;
        self
    }

    /// Inter-class separation in `(0, 1]` (default 0.5) — the primary
    /// difficulty knob. Class prototypes are interpolated between one shared
    /// base pattern (`0`: all classes identical) and fully independent
    /// patterns (`1`). Lower values make classes genuinely confusable, the
    /// property that puts trained baselines in the paper's 70–85 % band
    /// (calibrated with the `calibrate` preset; see
    /// `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`).
    pub fn class_sep(mut self, class_sep: f32) -> Self {
        self.class_sep = class_sep;
        self
    }

    /// Maximum translation jitter in pixels (default 3; must be ≥ 0).
    pub fn max_shift(mut self, max_shift: i32) -> Self {
        self.max_shift = max_shift;
        self
    }

    /// Validates the settings and draws the class prototypes. No image is
    /// generated here: each split is generated on its first read (see
    /// [`SynthCifar`]), so every setting a split depends on is checked now
    /// rather than on whichever thread reads the split first.
    ///
    /// # Panics
    ///
    /// Panics if any split size or the class count is zero,
    /// `image_size < 8`, `channels` is outside 1–3, `distortion` is outside
    /// `[0, 1]`, `class_sep` is outside `(0, 1]`, `max_shift` is negative, or
    /// `noise_std` is negative or not finite.
    pub fn build(self) -> SynthCifar {
        assert!(self.classes > 0, "need at least one class");
        assert!(
            self.train_size > 0 && self.val_size > 0 && self.test_size > 0,
            "split sizes must be positive"
        );
        assert!(self.image_size >= 8, "image size must be at least 8");
        assert!((1..=3).contains(&self.channels), "channels must be 1–3, got {}", self.channels);
        assert!(
            (0.0..=1.0).contains(&self.distortion),
            "distortion must be in [0, 1], got {}",
            self.distortion
        );
        assert!(
            self.class_sep > 0.0 && self.class_sep <= 1.0,
            "class_sep must be in (0, 1], got {}",
            self.class_sep
        );
        assert!(self.max_shift >= 0, "max_shift must be non-negative, got {}", self.max_shift);
        assert!(
            self.noise_std.is_finite() && self.noise_std >= 0.0,
            "noise_std must be finite and non-negative, got {}",
            self.noise_std
        );
        let mut proto_rng =
            StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
        let shared = ClassProto::sample(&mut proto_rng);
        let protos: Vec<ClassProto> = (0..self.classes)
            .map(|_| {
                let own = ClassProto::sample(&mut proto_rng);
                shared.lerp_toward(&own, self.class_sep)
            })
            .collect();
        SynthCifar {
            inner: Arc::new(Inner { config: self, protos, splits: Default::default() }),
        }
    }

    /// Generates split `split` ([`TRAIN`], [`VAL`] or [`TEST`]). Each image
    /// is one row of the image buffer, rendered from its own
    /// `(seed, split, index)` RNG by exactly one worker, so the result does
    /// not depend on how [`par_row_bands`] bands the rows.
    fn generate_split(&self, protos: &[ClassProto], split: usize) -> Dataset {
        let n = [self.train_size, self.val_size, self.test_size][split];
        let (s, ch) = (self.image_size, self.channels);
        let row = ch * s * s;
        let mut data = vec![0.0f32; n * row];
        par_row_bands(&mut data, row, |first, band| {
            let mut terms = vec![0.0f32; s * s * TERMS];
            for (k, image) in band.chunks_exact_mut(row).enumerate() {
                self.render(protos, split, first + k, image, &mut terms);
            }
        });
        // balanced labels: round-robin over the classes
        let labels = (0..n).map(|i| i % self.classes).collect();
        let images = Tensor::from_vec(data, &[n, ch, s, s]).expect("volume matches");
        Dataset::new(images, labels, self.classes).expect("labels in range by construction")
    }

    /// Renders image `index` of split `split` into `image` (`c·s·s` floats,
    /// CHW). `terms` is scratch for the channel-invariant per-pixel terms
    /// (`s·s·TERMS` floats).
    fn render(
        &self,
        protos: &[ClassProto],
        split: usize,
        index: usize,
        image: &mut [f32],
        terms: &mut [f32],
    ) {
        let s = self.image_size;
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ splitmix((split as u64).wrapping_mul(1_000_003).wrapping_add(index as u64)),
        );
        let proto = &protos[index % self.classes];
        let dx = rng.gen_range(-self.max_shift..=self.max_shift) as f32 / s as f32;
        let dy = rng.gen_range(-self.max_shift..=self.max_shift) as f32 / s as f32;
        let flip = rng.gen_bool(0.5);
        let contrast = rng.gen_range(0.8..1.2f32);
        let brightness = rng.gen_range(-0.1..0.1f32);
        // distractor blob: a non-class-informative bright spot
        let (bx, by) = (rng.gen_range(0.0..1.0f32), rng.gen_range(0.0..1.0f32));
        let bamp = rng.gen_range(-0.3..0.3f32);
        let jitter = SampleJitter::sample(&mut rng, self.distortion);
        // the grating sines and the blob exponentials depend on the pixel
        // only: compute them once, not once per channel
        for (p, t) in terms.chunks_exact_mut(TERMS).enumerate() {
            let (y, x) = (p / s, p % s);
            let mut u = x as f32 / s as f32;
            if flip {
                u = 1.0 - u;
            }
            let v = y as f32 / s as f32;
            // the class pattern is sampled at the translated coordinates
            let (pu, pv) = (u + dx, v + dy);
            for (g, &(fx, fy, phase, _, _)) in proto.gratings.iter().enumerate() {
                let ph = phase + jitter.grating_phase[g];
                t[g] = (std::f32::consts::TAU * (fx * pu + fy * pv) + ph).sin();
            }
            for (b, &(cx, cy, inv2s2, _, _)) in proto.blobs.iter().enumerate() {
                let (ox, oy) = jitter.blob_offset[b];
                let d2 = (pu - cx - ox) * (pu - cx - ox) + (pv - cy - oy) * (pv - cy - oy);
                t[GRATINGS + b] = (-d2 * inv2s2).exp();
            }
            let d2 = (u - bx) * (u - bx) + (v - by) * (v - by);
            t[GRATINGS + BLOBS] = (-d2 * 60.0).exp();
        }
        for (c, plane) in image.chunks_exact_mut(s * s).enumerate() {
            // each term's channel weight, the product the per-pixel sum used
            let mut weight = [0.0f32; GRATINGS + BLOBS];
            for (g, &(_, _, _, amp, w)) in proto.gratings.iter().enumerate() {
                weight[g] = amp * jitter.grating_amp[g] * w[c];
            }
            for (b, &(_, _, _, amp, w)) in proto.blobs.iter().enumerate() {
                weight[GRATINGS + b] = amp * w[c];
            }
            for (px, t) in plane.iter_mut().zip(terms.chunks_exact(TERMS)) {
                let mut val = proto.base[c];
                for (&w, &term) in weight.iter().zip(t) {
                    val += w * term;
                }
                val += bamp * t[GRATINGS + BLOBS];
                val = val * contrast + brightness + self.noise_std * gauss(&mut rng);
                *px = val.clamp(-1.0, 1.0);
            }
        }
    }
}

/// One standard normal sample via Box–Muller.
fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// SplitMix64 finalizer — decorrelates per-sample seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynthCifar {
        SynthCifar::builder().seed(3).train_size(100).val_size(50).test_size(50).build()
    }

    #[test]
    fn shapes_and_ranges() {
        let d = small();
        assert_eq!(d.train().images().shape().dims(), &[100, 3, 32, 32]);
        assert!(d.train().images().max() <= 1.0);
        assert!(d.train().images().min() >= -1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.train().images().data(), b.train().images().data());
        assert_eq!(a.test().labels(), b.test().labels());
        let c = SynthCifar::builder().seed(4).train_size(100).val_size(50).test_size(50).build();
        assert_ne!(a.train().images().data(), c.train().images().data());
    }

    #[test]
    fn splits_differ() {
        let d = small();
        assert_ne!(d.train().images().data()[..100], d.val().images().data()[..100]);
        assert_ne!(d.val().images().data()[..100], d.test().images().data()[..100]);
    }

    #[test]
    fn labels_balanced() {
        let d = small();
        let hist = d.train().class_histogram();
        assert_eq!(hist.len(), 10);
        assert!(hist.iter().all(|&c| c == 10));
    }

    #[test]
    fn classes_are_separable_by_nearest_mean() {
        // A nearest-class-mean classifier on raw pixels must beat chance by a
        // wide margin, otherwise no CNN could learn the task.
        let d = SynthCifar::builder()
            .seed(9)
            .train_size(400)
            .val_size(50)
            .test_size(200)
            .build();
        let (n, _, h, w) = d.train().images().shape().as_nchw();
        let dim = 3 * h * w;
        let mut means = vec![vec![0.0f32; dim]; 10];
        let mut counts = vec![0usize; 10];
        for i in 0..n {
            let l = d.train().labels()[i];
            counts[l] += 1;
            for (j, m) in means[l].iter_mut().enumerate() {
                *m += d.train().images().data()[i * dim + j];
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let tn = d.test().len();
        let mut correct = 0usize;
        for i in 0..tn {
            let img = &d.test().images().data()[i * dim..(i + 1) * dim];
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (k, m) in means.iter().enumerate() {
                let dist: f32 = img.iter().zip(m).map(|(&a, &b)| (a - b) * (a - b)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = k;
                }
            }
            if best == d.test().labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / tn as f64;
        assert!(acc > 0.4, "nearest-mean accuracy {acc} should be well above chance (0.1)");
        assert!(acc < 1.0, "task should not be trivial");
    }

    #[test]
    fn noise_controls_difficulty() {
        // higher noise → lower nearest-mean accuracy
        let acc = |noise: f32| {
            let d = SynthCifar::builder()
                .seed(5)
                .train_size(200)
                .val_size(50)
                .test_size(100)
                .noise_std(noise)
                .build();
            let dim = 3 * 32 * 32;
            let mut means = vec![vec![0.0f32; dim]; 10];
            let mut counts = vec![0usize; 10];
            for i in 0..d.train().len() {
                let l = d.train().labels()[i];
                counts[l] += 1;
                for (j, m) in means[l].iter_mut().enumerate() {
                    *m += d.train().images().data()[i * dim + j];
                }
            }
            for (m, &c) in means.iter_mut().zip(&counts) {
                for v in m.iter_mut() {
                    *v /= c as f32;
                }
            }
            let mut correct = 0;
            for i in 0..d.test().len() {
                let img = &d.test().images().data()[i * dim..(i + 1) * dim];
                let mut best = (0usize, f32::INFINITY);
                for (k, m) in means.iter().enumerate() {
                    let dist: f32 = img.iter().zip(m).map(|(&a, &b)| (a - b) * (a - b)).sum();
                    if dist < best.1 {
                        best = (k, dist);
                    }
                }
                if best.0 == d.test().labels()[i] {
                    correct += 1;
                }
            }
            correct as f64 / d.test().len() as f64
        };
        assert!(acc(0.1) > acc(0.8), "more noise must hurt accuracy");
    }

    #[test]
    fn custom_geometry() {
        let d = SynthCifar::builder()
            .seed(1)
            .classes(4)
            .image_size(16)
            .train_size(8)
            .val_size(4)
            .test_size(4)
            .build();
        assert_eq!(d.train().images().shape().dims(), &[8, 3, 16, 16]);
        assert_eq!(d.train().num_classes(), 4);
    }

    #[test]
    #[should_panic(expected = "split sizes")]
    fn rejects_zero_split() {
        SynthCifar::builder().train_size(0).build();
    }

    #[test]
    fn grayscale_channel_option() {
        let d = SynthCifar::builder()
            .seed(6)
            .channels(1)
            .train_size(8)
            .val_size(4)
            .test_size(4)
            .build();
        assert_eq!(d.train().images().shape().dims(), &[8, 1, 32, 32]);
        assert!(d.train().images().max() <= 1.0 && d.train().images().min() >= -1.0);
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn rejects_zero_channels() {
        SynthCifar::builder().channels(0).build();
    }

    #[test]
    #[should_panic(expected = "class_sep")]
    fn rejects_zero_class_sep() {
        SynthCifar::builder().class_sep(0.0).build();
    }

    #[test]
    #[should_panic(expected = "max_shift")]
    fn rejects_negative_max_shift() {
        // must fail in build(), not on whichever worker first reads a split
        SynthCifar::builder().max_shift(-1).build();
    }

    #[test]
    #[should_panic(expected = "noise_std")]
    fn rejects_negative_noise_std() {
        SynthCifar::builder().noise_std(-0.1).build();
    }

    #[test]
    #[should_panic(expected = "noise_std")]
    fn rejects_non_finite_noise_std() {
        SynthCifar::builder().noise_std(f32::NAN).build();
    }

    /// FNV-1a-64 over one split: every image f32's little-endian bits, then
    /// every label as a little-endian `u64`.
    fn digest(d: &Dataset) -> u64 {
        let bytes = d.images().data().iter().flat_map(|v| v.to_bits().to_le_bytes());
        let labels = d.labels().iter().flat_map(|&l| (l as u64).to_le_bytes());
        bytes
            .chain(labels)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// The experiments' default dataset (seed 42). Its split digests are
    /// pinned against the eager serial generator by the bench crate's
    /// `spec_data_splits_match_their_pinned_digests`.
    fn experiment_default() -> SynthCifar {
        SynthCifar::builder()
            .seed(42)
            .train_size(3000)
            .val_size(768)
            .test_size(1024)
            .noise_std(0.40)
            .class_sep(0.25)
            .build()
    }

    #[test]
    fn splits_are_generated_on_first_read_only() {
        let d = small();
        assert!(d.inner.splits.iter().all(|s| s.get().is_none()), "build() generates no split");
        d.test();
        assert!(d.inner.splits[TRAIN].get().is_none());
        assert!(d.inner.splits[VAL].get().is_none());
        assert!(d.inner.splits[TEST].get().is_some());
    }

    #[test]
    fn clones_share_the_generated_splits() {
        let d = small();
        assert!(std::ptr::eq(d.test(), d.clone().test()));
        // a clone taken before the first read shares the split it generates
        let e = d.clone();
        assert!(std::ptr::eq(e.val(), d.val()));
    }

    #[test]
    fn racing_first_readers_see_one_split() {
        let d = experiment_default();
        let barrier = std::sync::Barrier::new(4);
        let seen: Vec<&Dataset> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        d.val()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().expect("reader")).collect()
        });
        assert!(seen.iter().all(|&v| std::ptr::eq(v, seen[0])));
        assert_eq!(digest(seen[0]), 0x313d_9a9d_a575_6dd7);
    }

    #[test]
    fn bits_do_not_depend_on_the_thread_count() {
        let serial = ftclip_tensor::with_thread_limit(1, || digest(small().train()));
        assert_eq!(digest(small().train()), serial);
    }

    #[test]
    fn class_sep_controls_confusability() {
        // nearest-mean accuracy must increase with class separation
        let acc = |sep: f32| {
            let d = SynthCifar::builder()
                .seed(12)
                .train_size(200)
                .val_size(50)
                .test_size(100)
                .class_sep(sep)
                .noise_std(0.2)
                .build();
            nearest_mean_accuracy(&d)
        };
        let low = acc(0.15);
        let high = acc(1.0);
        assert!(high > low + 0.1, "sep 1.0 acc {high} should beat sep 0.15 acc {low}");
    }

    fn nearest_mean_accuracy(d: &SynthCifar) -> f64 {
        let dim = 3 * 32 * 32;
        let mut means = vec![vec![0.0f32; dim]; 10];
        let mut counts = vec![0usize; 10];
        for i in 0..d.train().len() {
            let l = d.train().labels()[i];
            counts[l] += 1;
            for (j, m) in means[l].iter_mut().enumerate() {
                *m += d.train().images().data()[i * dim + j];
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let mut correct = 0;
        for i in 0..d.test().len() {
            let img = &d.test().images().data()[i * dim..(i + 1) * dim];
            let mut best = (0usize, f32::INFINITY);
            for (k, m) in means.iter().enumerate() {
                let dist: f32 = img.iter().zip(m).map(|(&a, &b)| (a - b) * (a - b)).sum();
                if dist < best.1 {
                    best = (k, dist);
                }
            }
            if best.0 == d.test().labels()[i] {
                correct += 1;
            }
        }
        correct as f64 / d.test().len() as f64
    }
}
