//! The three-step hardening pipeline (paper §IV, Fig. 4).

use ftclip_data::Dataset;
use ftclip_fault::InjectionTarget;
use ftclip_nn::Sequential;

use crate::{profile_network, EvalSet, SiteProfile, ThresholdTuner, TuneOutcome, TunerConfig};

/// Configuration of Step 1 (activation profiling).
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// How many validation images to profile on ("a small subset of the
    /// validation set", paper §IV).
    pub subset_size: usize,
    /// Seed for drawing the subset.
    pub seed: u64,
    /// Forward batch size.
    pub batch_size: usize,
    /// Histogram bins recorded per site.
    pub bins: usize,
}

impl ProfileConfig {
    /// Runs Steps 1–2 on `net` in place: profiles every activation site on
    /// a `subset_size` subset of `validation` drawn with `seed`, then
    /// converts every site to its clipped form at
    /// [`SiteProfile::initial_threshold`]. Weights and biases are untouched.
    /// Returns the profiles, in activation-site order.
    ///
    /// # Panics
    ///
    /// Panics if the network has no activation sites or `batch_size == 0`.
    pub fn clip(&self, net: &mut Sequential, validation: &Dataset) -> Vec<SiteProfile> {
        let subset = validation.subset(self.subset_size.min(validation.len()), self.seed);
        let profiles = profile_network(net, subset.images(), self.batch_size, self.bins);
        net.convert_to_clipped(&profiles.iter().map(SiteProfile::initial_threshold).collect::<Vec<_>>());
        profiles
    }
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { subset_size: 256, seed: 0x5EED, batch_size: 64, bins: 64 }
    }
}

/// Tuning report for one activation site.
#[derive(Debug, Clone)]
pub struct LayerTuneReport {
    /// The activation site's layer index.
    pub site: usize,
    /// Paper-style name of the computational layer feeding the site.
    pub feeds_from: String,
    /// Profiled `ACT_max` (the Step 2 initial threshold).
    pub act_max: f32,
    /// The Step 3 outcome (tuned threshold, AUC, trace).
    pub outcome: TuneOutcome,
}

/// Everything the pipeline produced: profiles, initial and tuned
/// thresholds, and per-layer traces.
#[derive(Debug, Clone)]
pub struct HardenReport {
    /// Step 1 profiles, one per activation site.
    pub profiles: Vec<SiteProfile>,
    /// Step 2 initial thresholds (`ACT_max` per site).
    pub initial_thresholds: Vec<f32>,
    /// Step 3 tuned thresholds, in activation-site order.
    pub tuned_thresholds: Vec<f32>,
    /// Per-site tuning details.
    pub per_layer: Vec<LayerTuneReport>,
}

/// The FT-ClipAct methodology: profile → convert → fine-tune.
///
/// The pipeline requires **no training data and never modifies weights or
/// biases** — the paper's central deployment constraint. It consumes only a
/// validation set and mutates activation-function thresholds.
///
/// # Example
///
/// ```no_run
/// use ftclip_core::Methodology;
/// use ftclip_data::SynthCifar;
/// use ftclip_models::alexnet_cifar;
///
/// let data = SynthCifar::builder().seed(1).build();
/// let mut net = alexnet_cifar(0.25, 10, 42);
/// let report = Methodology::default().harden(&mut net, data.val());
/// assert_eq!(report.tuned_thresholds.len(), net.activation_sites().len());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Methodology {
    /// Step 1 configuration.
    pub profile: ProfileConfig,
    /// Step 3 configuration (its `auc.target` is overridden per layer).
    pub tuner: TunerConfig,
}

impl Methodology {
    /// Creates a methodology with explicit configurations.
    pub fn new(profile: ProfileConfig, tuner: TunerConfig) -> Self {
        Methodology { profile, tuner }
    }

    /// Runs all three steps on `net` in place, drawing profiling and tuning
    /// subsets from `validation`. On return the network carries tuned
    /// clipped activations; weights and biases are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the network has no activation sites or the validation set
    /// is smaller than the configured subsets.
    pub fn harden(&self, net: &mut Sequential, validation: &Dataset) -> HardenReport {
        // ---- Steps 1–2: profiling, conversion + initialization ------
        let profiles = self.profile.clip(net, validation);
        let initial_thresholds: Vec<f32> = profiles.iter().map(SiteProfile::initial_threshold).collect();

        // ---- Step 3: per-layer fine-tuning --------------------------
        let eval = EvalSet::from_subset(
            validation,
            self.profile.subset_size.min(validation.len()),
            self.profile.seed ^ 0xA5A5,
            self.profile.batch_size,
        );
        let mut per_layer = Vec::with_capacity(profiles.len());
        let mut tuned_thresholds = Vec::with_capacity(profiles.len());
        for (profile, &initial) in profiles.iter().zip(&initial_thresholds) {
            // inject into the computational layer feeding this site, as in
            // the paper's per-layer AUC analysis (Fig. 5a)
            let mut tuner_cfg = self.tuner.clone();
            if let Some(layer) = profile.feeding_layer {
                tuner_cfg.auc.target = InjectionTarget::Layer(layer);
            }
            let tuner = ThresholdTuner::new(tuner_cfg);
            let outcome = tuner
                .tune_site(net, profile.site, initial, &eval)
                .expect("site was converted to clipped in Step 2");
            tuned_thresholds.push(outcome.threshold);
            per_layer.push(LayerTuneReport {
                site: profile.site,
                feeds_from: profile.feeds_from.clone(),
                act_max: profile.act_max,
                outcome,
            });
        }
        HardenReport { profiles, initial_thresholds, tuned_thresholds, per_layer }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AucConfig;
    use ftclip_data::SynthCifar;
    use ftclip_fault::FaultModel;
    use ftclip_nn::{Layer, ParamKind};

    fn quick_methodology() -> Methodology {
        Methodology {
            profile: ProfileConfig { subset_size: 16, seed: 1, batch_size: 8, bins: 8 },
            tuner: TunerConfig {
                max_iterations: 1,
                min_iterations: 1,
                delta: 0.0,
                auc: AucConfig {
                    fault_rates: vec![1e-3],
                    repetitions: 1,
                    seed: 2,
                    model: FaultModel::BitFlip,
                    target: ftclip_fault::InjectionTarget::AllWeights,
                },
            },
        }
    }

    fn small_net() -> Sequential {
        Sequential::new(vec![
            Layer::conv2d(3, 4, 3, 1, 1, 50),
            Layer::relu(),
            Layer::flatten(),
            Layer::linear(4 * 64, 10, 51),
            Layer::relu(),
            Layer::linear(10, 10, 52),
        ])
    }

    fn data() -> SynthCifar {
        SynthCifar::builder()
            .seed(31)
            .train_size(16)
            .val_size(32)
            .test_size(16)
            .image_size(8)
            .build()
    }

    fn weight_bits(net: &Sequential) -> Vec<u32> {
        let mut v = Vec::new();
        net.visit_params(&mut |_, _, t, _| v.extend(t.data().iter().map(|x| x.to_bits())));
        v
    }

    #[test]
    fn clip_profiles_the_subset_and_clips_every_site_at_its_initial_threshold() {
        let config = quick_methodology().profile;
        let data = data();
        let unclipped = small_net();
        let mut net = unclipped.clone();
        let profiles = config.clip(&mut net, data.val());

        let subset = data.val().subset(config.subset_size, config.seed);
        assert_eq!(profiles, profile_network(&unclipped, subset.images(), config.batch_size, config.bins));
        assert_eq!(weight_bits(&net), weight_bits(&unclipped), "clip must not modify weights or biases");
        let want: Vec<_> = profiles.iter().map(|p| Some(p.initial_threshold())).collect();
        assert_eq!(net.clip_thresholds(), want);
    }

    #[test]
    fn harden_produces_clipped_network() {
        let mut net = small_net();
        let report = quick_methodology().harden(&mut net, data().val());
        assert_eq!(report.tuned_thresholds.len(), 2);
        let thresholds = net.clip_thresholds();
        assert!(thresholds.iter().all(Option::is_some), "all sites clipped: {thresholds:?}");
        for (t, report_t) in thresholds.iter().zip(&report.tuned_thresholds) {
            assert_eq!(t.unwrap(), *report_t);
        }
    }

    #[test]
    fn harden_never_touches_weights() {
        let mut net = small_net();
        let before = weight_bits(&net);
        quick_methodology().harden(&mut net, data().val());
        assert_eq!(before, weight_bits(&net), "the methodology must not modify weights or biases");
    }

    #[test]
    fn tuned_thresholds_do_not_exceed_act_max() {
        let mut net = small_net();
        let report = quick_methodology().harden(&mut net, data().val());
        for layer in &report.per_layer {
            assert!(
                layer.outcome.threshold <= layer.act_max.max(f32::MIN_POSITIVE) + 1e-6,
                "{}: tuned {} > act_max {}",
                layer.feeds_from,
                layer.outcome.threshold,
                layer.act_max
            );
        }
    }

    #[test]
    fn per_layer_targets_feeding_layer() {
        let mut net = small_net();
        let report = quick_methodology().harden(&mut net, data().val());
        assert_eq!(report.per_layer[0].feeds_from, "CONV-1");
        assert_eq!(report.per_layer[1].feeds_from, "FC-1");
    }

    #[test]
    fn dead_site_gets_positive_threshold() {
        // force a conv whose outputs are all ≤ 0 by negating weights and bias
        let mut net = small_net();
        net.visit_params_mut(&mut |l, kind, v, _| {
            if l == 0 && kind == ParamKind::Weight {
                v.map_in_place(|x| -x.abs());
            }
        });
        let report = quick_methodology().harden(&mut net, data().val());
        assert!(report.initial_thresholds.iter().all(|&t| t > 0.0));
    }
}
