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
//! bit-reproducible across runs and machines.

use ftclip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Dataset;

/// Number of sinusoidal gratings per class prototype.
const GRATINGS: usize = 2;
/// Number of Gaussian blobs per class prototype.
const BLOBS: usize = 2;

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

    /// Prototype value at normalized coordinates `(u, v) ∈ [0,1]²`, channel
    /// `c`, under a per-sample distortion of the grating phases/amplitudes
    /// and blob positions.
    fn value(&self, u: f32, v: f32, c: usize, jitter: &SampleJitter) -> f32 {
        let mut acc = self.base[c];
        for (g, &(fx, fy, phase, amp, w)) in self.gratings.iter().enumerate() {
            let a = amp * jitter.grating_amp[g];
            let p = phase + jitter.grating_phase[g];
            acc += a * w[c] * (std::f32::consts::TAU * (fx * u + fy * v) + p).sin();
        }
        for (b, &(cx, cy, inv2s2, amp, w)) in self.blobs.iter().enumerate() {
            let (dx, dy) = jitter.blob_offset[b];
            let d2 = (u - cx - dx) * (u - cx - dx) + (v - cy - dy) * (v - cy - dy);
            acc += amp * w[c] * (-d2 * inv2s2).exp();
        }
        acc
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
    train: Dataset,
    val: Dataset,
    test: Dataset,
}

impl SynthCifar {
    /// Starts building a generator.
    pub fn builder() -> SynthCifarBuilder {
        SynthCifarBuilder::default()
    }

    /// The training split (what the model owner used; the methodology itself
    /// never touches it, matching the paper's no-training-data constraint).
    pub fn train(&self) -> &Dataset {
        &self.train
    }

    /// The validation split (threshold profiling and tuning draw subsets of
    /// this).
    pub fn val(&self) -> &Dataset {
        &self.val
    }

    /// The held-out test split (final resilience evaluation).
    pub fn test(&self) -> &Dataset {
        &self.test
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

    /// Per-pixel Gaussian noise σ (default 0.35) — the *pixel-level*
    /// difficulty knob.
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

    /// Maximum translation jitter in pixels (default 3).
    pub fn max_shift(mut self, max_shift: i32) -> Self {
        self.max_shift = max_shift;
        self
    }

    /// Generates all three splits.
    ///
    /// # Panics
    ///
    /// Panics if any split size or the class count is zero, or
    /// `image_size < 8`.
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
        let mut proto_rng =
            StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
        let shared = ClassProto::sample(&mut proto_rng);
        let protos: Vec<ClassProto> = (0..self.classes)
            .map(|_| {
                let own = ClassProto::sample(&mut proto_rng);
                shared.lerp_toward(&own, self.class_sep)
            })
            .collect();
        let train = self.generate_split(&protos, 0, self.train_size);
        let val = self.generate_split(&protos, 1, self.val_size);
        let test = self.generate_split(&protos, 2, self.test_size);
        SynthCifar { train, val, test }
    }

    fn generate_split(&self, protos: &[ClassProto], split: u64, n: usize) -> Dataset {
        let s = self.image_size;
        let ch = self.channels;
        let mut data = vec![0.0f32; n * ch * s * s];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // balanced labels: round-robin with seeded offset
            let label = i % self.classes;
            labels.push(label);
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ splitmix(split.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            );
            let proto = &protos[label];
            let dx = rng.gen_range(-self.max_shift..=self.max_shift) as f32 / s as f32;
            let dy = rng.gen_range(-self.max_shift..=self.max_shift) as f32 / s as f32;
            let flip = rng.gen_bool(0.5);
            let contrast = rng.gen_range(0.8..1.2f32);
            let brightness = rng.gen_range(-0.1..0.1f32);
            // distractor blob: a non-class-informative bright spot
            let (bx, by) = (rng.gen_range(0.0..1.0f32), rng.gen_range(0.0..1.0f32));
            let bamp = rng.gen_range(-0.3..0.3f32);
            let jitter = SampleJitter::sample(&mut rng, self.distortion);
            let base = i * ch * s * s;
            for c in 0..ch {
                for y in 0..s {
                    for x in 0..s {
                        let mut u = x as f32 / s as f32;
                        if flip {
                            u = 1.0 - u;
                        }
                        let v = y as f32 / s as f32;
                        let mut val = proto.value(u + dx, v + dy, c, &jitter);
                        let d2 = (u - bx) * (u - bx) + (v - by) * (v - by);
                        val += bamp * (-d2 * 60.0).exp();
                        val = val * contrast + brightness + self.noise_std * gauss(&mut rng);
                        data[base + (c * s + y) * s + x] = val.clamp(-1.0, 1.0);
                    }
                }
            }
        }
        let images = Tensor::from_vec(data, &[n, ch, s, s]).expect("volume matches");
        Dataset::new(images, labels, self.classes).expect("labels in range by construction")
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
