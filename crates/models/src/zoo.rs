//! Disk-cached training of zoo models.

use std::path::{Path, PathBuf};

use ftclip_data::SynthCifar;
use ftclip_nn::sched::LrSchedule;
use ftclip_nn::{evaluate, load_network, save_network, NnError, OptimizerKind, Sequential, Trainer};

use crate::{alexnet_cifar, lenet5, vgg16_bn_cifar, vgg16_cifar};

/// Which zoo architecture a [`ModelSpec`] trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZooArch {
    /// CIFAR-input AlexNet (5 conv + 3 FC).
    AlexNet,
    /// CIFAR-input VGG-16 (13 conv + 1 FC).
    Vgg16,
    /// CIFAR-input VGG-16 with batch normalization after every conv.
    /// Width-scaled plain VGG-16 fails to train on hard tasks (vanishing
    /// signal through 13 narrow layers); the BN variant is the trainable
    /// stand-in, as in virtually all CIFAR VGG reproductions.
    Vgg16Bn,
    /// LeNet-5 (single-channel input).
    LeNet5,
}

impl std::fmt::Display for ZooArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZooArch::AlexNet => write!(f, "alexnet"),
            ZooArch::Vgg16 => write!(f, "vgg16"),
            ZooArch::Vgg16Bn => write!(f, "vgg16bn"),
            ZooArch::LeNet5 => write!(f, "lenet5"),
        }
    }
}

impl std::str::FromStr for ZooArch {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) names back — the encoding
    /// experiment spec files use.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "alexnet" => Ok(ZooArch::AlexNet),
            "vgg16" => Ok(ZooArch::Vgg16),
            "vgg16bn" => Ok(ZooArch::Vgg16Bn),
            "lenet5" => Ok(ZooArch::LeNet5),
            other => Err(format!("unknown architecture '{other}' (expected alexnet|vgg16|vgg16bn|lenet5)")),
        }
    }
}

/// Complete specification of a trained model: architecture, width, data
/// seed and training hyper-parameters. The cache key is derived from all of
/// it, so changing any field retrains rather than reusing a stale network.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Architecture to build.
    pub arch: ZooArch,
    /// Width multiplier (see [`crate::scale_dim`]).
    pub width_mult: f64,
    /// Number of classes.
    pub classes: usize,
    /// Weight-initialization / training seed.
    pub seed: u64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate (cosine-annealed to 1/100th).
    pub lr: f32,
    /// Enable flip/translate augmentation.
    pub augment: bool,
}

impl ModelSpec {
    /// A sensible default spec for the given architecture at the
    /// experiment-scale widths of `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`.
    pub fn default_for(arch: ZooArch) -> Self {
        let (width_mult, epochs, lr) = match arch {
            ZooArch::AlexNet => (0.25, 12, 0.02),
            ZooArch::Vgg16 | ZooArch::Vgg16Bn => (0.125, 12, 0.02),
            ZooArch::LeNet5 => (1.0, 8, 0.05),
        };
        ModelSpec {
            arch,
            width_mult,
            classes: 10,
            seed: 42,
            epochs,
            batch_size: 64,
            lr,
            augment: true,
        }
    }

    /// Builds the untrained network for this spec.
    pub fn build(&self) -> Sequential {
        match self.arch {
            ZooArch::AlexNet => alexnet_cifar(self.width_mult, self.classes, self.seed),
            ZooArch::Vgg16 => vgg16_cifar(self.width_mult, self.classes, self.seed),
            ZooArch::Vgg16Bn => vgg16_bn_cifar(self.width_mult, self.classes, self.seed),
            ZooArch::LeNet5 => lenet5(self.classes, self.seed),
        }
    }

    /// Deterministic cache-file stem encoding every field.
    pub fn cache_key(&self) -> String {
        format!(
            "{}-w{:.4}-c{}-s{}-e{}-b{}-lr{:.4}-a{}",
            self.arch,
            self.width_mult,
            self.classes,
            self.seed,
            self.epochs,
            self.batch_size,
            self.lr,
            u8::from(self.augment)
        )
    }
}

/// A model returned by [`Zoo::train_or_load`].
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The trained network.
    pub network: Sequential,
    /// Accuracy on the dataset's test split, measured after load/train.
    pub test_accuracy: f64,
    /// `true` when the network came from the on-disk cache.
    pub from_cache: bool,
}

/// Disk cache of trained zoo models.
///
/// # Example
///
/// ```no_run
/// use ftclip_data::SynthCifar;
/// use ftclip_models::{ModelSpec, Zoo, ZooArch};
///
/// let data = SynthCifar::builder().seed(1).build();
/// let zoo = Zoo::new("assets");
/// let model = zoo.train_or_load(&ModelSpec::default_for(ZooArch::AlexNet), &data).unwrap();
/// println!("test accuracy {:.3}", model.test_accuracy);
/// ```
#[derive(Debug, Clone)]
pub struct Zoo {
    cache_dir: PathBuf,
}

impl Zoo {
    /// Creates a zoo rooted at `cache_dir` (created lazily on first save).
    pub fn new<P: AsRef<Path>>(cache_dir: P) -> Self {
        Zoo { cache_dir: cache_dir.as_ref().to_path_buf() }
    }

    /// The path a spec caches to.
    pub fn cache_path(&self, spec: &ModelSpec) -> PathBuf {
        self.cache_dir.join(format!("{}.ftcw", spec.cache_key()))
    }

    /// Loads the cached network for `spec`, or trains it on `data` and
    /// caches the result.
    ///
    /// Training uses SGD with momentum 0.9, weight decay 5e-4 and a cosine
    /// schedule from `spec.lr` to `spec.lr / 100`. A spec with
    /// `epochs == 0` skips training and returns the (deterministic, seeded)
    /// untrained initialization — harness tests use this for fast,
    /// model-shaped workloads.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the cache file exists but cannot be parsed,
    /// or the trained network cannot be written back.
    pub fn train_or_load(&self, spec: &ModelSpec, data: &SynthCifar) -> Result<TrainedModel, NnError> {
        let path = self.cache_path(spec);
        if path.exists() {
            let network = load_network(&path)?;
            let test_accuracy = evaluate(&network, data.test().images(), data.test().labels(), 64);
            return Ok(TrainedModel { network, test_accuracy, from_cache: true });
        }
        let mut network = spec.build();
        if spec.epochs == 0 {
            let test_accuracy = evaluate(&network, data.test().images(), data.test().labels(), 64);
            return Ok(TrainedModel { network, test_accuracy, from_cache: false });
        }
        let trainer = Trainer::builder()
            .epochs(spec.epochs)
            .batch_size(spec.batch_size)
            .schedule(LrSchedule::Cosine {
                lr: spec.lr,
                min_lr: spec.lr / 100.0,
                total_epochs: spec.epochs,
            })
            .optimizer(OptimizerKind::Sgd { momentum: 0.9, weight_decay: 5e-4 })
            .seed(spec.seed)
            .augment(spec.augment)
            .verbose(std::env::var_os("FTCLIP_VERBOSE").is_some())
            .build();
        trainer.fit(
            &mut network,
            data.train().images(),
            data.train().labels(),
            Some((data.val().images(), data.val().labels())),
        );
        save_network(&network, &path)?;
        let test_accuracy = evaluate(&network, data.test().images(), data.test().labels(), 64);
        Ok(TrainedModel { network, test_accuracy, from_cache: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> SynthCifar {
        SynthCifar::builder()
            .seed(100)
            .train_size(80)
            .val_size(20)
            .test_size(40)
            .noise_std(0.15)
            .build()
    }

    fn tiny_spec() -> ModelSpec {
        ModelSpec {
            arch: ZooArch::AlexNet,
            width_mult: 0.05,
            classes: 10,
            seed: 9,
            epochs: 1,
            batch_size: 16,
            lr: 0.02,
            augment: false,
        }
    }

    #[test]
    fn zero_epoch_spec_returns_the_untrained_initialization() {
        let dir = std::env::temp_dir().join(format!("ftclip-zoo-e0-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut spec = tiny_spec();
        spec.epochs = 0;
        let zoo = Zoo::new(&dir);
        let a = zoo.train_or_load(&spec, &tiny_data()).unwrap();
        let b = zoo.train_or_load(&spec, &tiny_data()).unwrap();
        assert!(!a.from_cache && !b.from_cache, "nothing is persisted for an untrained net");
        let bits = |n: &Sequential| {
            let mut v = Vec::new();
            n.visit_params(&mut |_, _, t, _| v.extend(t.data().iter().map(|x| x.to_bits())));
            v
        };
        assert_eq!(bits(&a.network), bits(&spec.build()), "seeded init is deterministic");
        assert_eq!(a.test_accuracy.to_bits(), b.test_accuracy.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arch_names_round_trip() {
        for arch in [ZooArch::AlexNet, ZooArch::Vgg16, ZooArch::Vgg16Bn, ZooArch::LeNet5] {
            assert_eq!(arch.to_string().parse::<ZooArch>(), Ok(arch));
        }
        assert!("resnet".parse::<ZooArch>().is_err());
    }

    #[test]
    fn cache_key_distinguishes_specs() {
        let a = tiny_spec();
        let mut b = tiny_spec();
        b.epochs = 2;
        assert_ne!(a.cache_key(), b.cache_key());
        let mut c = tiny_spec();
        c.width_mult = 0.06;
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn train_then_reload_round_trips() {
        let dir = std::env::temp_dir().join("ftclip-zoo-test");
        std::fs::remove_dir_all(&dir).ok();
        let zoo = Zoo::new(&dir);
        let data = tiny_data();
        let spec = tiny_spec();
        let first = zoo.train_or_load(&spec, &data).unwrap();
        assert!(!first.from_cache);
        assert!(zoo.cache_path(&spec).exists());
        let second = zoo.train_or_load(&spec, &data).unwrap();
        assert!(second.from_cache);
        assert!((first.test_accuracy - second.test_accuracy).abs() < 1e-12);
        let x = data.test().images().slice_batch(0..2);
        let mut sc = ftclip_nn::Scratch::new();
        let ya = first.network.execute(&x, ftclip_nn::Span::full(), &mut sc);
        let yb = second.network.execute(&x, ftclip_nn::Span::full(), &mut sc);
        assert!(ya.approx_eq(&yb, 0.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_specs_build() {
        for arch in [ZooArch::AlexNet, ZooArch::Vgg16, ZooArch::Vgg16Bn, ZooArch::LeNet5] {
            let spec = ModelSpec::default_for(arch);
            let net = spec.build();
            assert!(net.param_count() > 0);
        }
    }

    #[test]
    fn lenet_trains_on_grayscale_synth_data() {
        // LeNet-5 takes single-channel input; the generator's channels(1)
        // option exists exactly for this pairing.
        let dir = std::env::temp_dir().join("ftclip-zoo-lenet");
        std::fs::remove_dir_all(&dir).ok();
        let data = SynthCifar::builder()
            .seed(200)
            .channels(1)
            .train_size(80)
            .val_size(20)
            .test_size(40)
            .noise_std(0.15)
            .build();
        let spec = ModelSpec {
            arch: ZooArch::LeNet5,
            width_mult: 1.0,
            classes: 10,
            seed: 3,
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            augment: false,
        };
        let model = Zoo::new(&dir).train_or_load(&spec, &data).unwrap();
        assert!((0.0..=1.0).contains(&model.test_accuracy));
        std::fs::remove_dir_all(&dir).ok();
    }
}
