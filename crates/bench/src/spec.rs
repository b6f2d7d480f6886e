//! The declarative experiment surface: [`ExperimentSpec`].
//!
//! Every paper artifact used to be a standalone binary hand-assembling the
//! same workload → eval-set → campaign → cache-session → result-table
//! pipeline. An `ExperimentSpec` replaces that: one serializable value
//! describing *what* to run — the workload architecture, dataset and
//! evaluation settings, fault model, injection target, rate grid,
//! repetitions, protection configuration, seed and output name — which the
//! [`Runner`](crate::Runner) turns into result tables. Specs round-trip
//! through JSON (`to_json` / `from_json`) with a stable content
//! [`Fingerprint`], validate up front with typed [`SpecError`]s (an empty
//! rate grid is rejected before any model is trained, not after), and are
//! what `ftclip run` executes — presets are nothing but named specs.

use std::str::FromStr;

use ftclip_fault::{CampaignConfig, CampaignError, FaultModel, InjectionTarget, StoppingRule};
use ftclip_models::{ModelSpec, ZooArch};
use ftclip_nn::Sequential;
use ftclip_quant::Precision;
use ftclip_store::Fingerprint;
use serde::Value;

/// Which experiment shape a spec runs — the procedures cover every figure
/// and ablation of the reproduction. Procedures read the spec fields they
/// need (a structural figure like [`Procedure::Architecture`] ignores the
/// fault configuration entirely); [`ExperimentSpec::validate`] enforces the
/// fields each procedure requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Procedure {
    /// Fig. 1a — parameter-memory sizes of the model zoo.
    ModelSizes,
    /// Fig. 2 — the LeNet-5 feature-map progression (structural figure).
    Architecture,
    /// Fig. 1b shape — one campaign over the spec's grid, summarized per
    /// rate. Honors the spec's [`Protection`], so a clipped single-network
    /// sweep is a spec file away.
    CampaignSummary,
    /// Fig. 3 (a, e, i) — per-layer fault sensitivity over `layers`.
    PerLayerResilience,
    /// Fig. 3 (b–l) — activation distributions under faults, per layer.
    ActivationDistributions,
    /// Fig. 4 — the three-step methodology walkthrough (structural figure).
    MethodologyWalkthrough,
    /// Fig. 5 — AUC vs clipping threshold of the target layer.
    AucSweep,
    /// Fig. 6 — the Algorithm 1 interval-search trace on the target layer.
    TuningTrace,
    /// Figs. 7/8 — clipped vs unprotected resilience of the workload.
    Resilience,
    /// §V-B headline numbers (paper vs measured, AlexNet + VGG-16).
    HeadlineTable,
    /// Ablation: clip-to-zero vs saturate vs unprotected.
    AblationClipMode,
    /// Ablation: bit-flip vs stuck-at faults × protection.
    AblationFaultModels,
    /// Ablation: weight vs bias vs all-parameter injection targets.
    AblationBiasFaults,
    /// Ablation: clipping vs SEC-DED ECC and TMR hardware baselines.
    AblationHwBaselines,
    /// Ablation: the mitigation transferred to a Leaky-ReLU network.
    AblationLeakyClip,
    /// Ablation: Algorithm 1 vs exhaustive grid search.
    AblationTunerVsGrid,
    /// `fig_bitpos` — accuracy vs fault rate, stratified by bit position
    /// (sign / exponent / mantissa), on the f32 network *and* its int8
    /// quantized twin.
    BitPositionSweep,
    /// Calibration utility: dataset difficulty sweep (not a paper figure).
    CalibrateDataset,
}

/// Every procedure, in presentation order.
pub const ALL_PROCEDURES: [Procedure; 18] = [
    Procedure::ModelSizes,
    Procedure::Architecture,
    Procedure::CampaignSummary,
    Procedure::PerLayerResilience,
    Procedure::ActivationDistributions,
    Procedure::MethodologyWalkthrough,
    Procedure::AucSweep,
    Procedure::TuningTrace,
    Procedure::Resilience,
    Procedure::HeadlineTable,
    Procedure::AblationClipMode,
    Procedure::AblationFaultModels,
    Procedure::AblationBiasFaults,
    Procedure::AblationHwBaselines,
    Procedure::AblationLeakyClip,
    Procedure::AblationTunerVsGrid,
    Procedure::BitPositionSweep,
    Procedure::CalibrateDataset,
];

impl Procedure {
    /// `true` when the procedure sweeps the spec's campaign grid (and so
    /// validation must reject an empty or out-of-range grid up front).
    pub fn uses_campaign_grid(self) -> bool {
        matches!(
            self,
            Procedure::CampaignSummary
                | Procedure::PerLayerResilience
                | Procedure::Resilience
                | Procedure::HeadlineTable
                | Procedure::AblationClipMode
                | Procedure::AblationFaultModels
                | Procedure::AblationBiasFaults
                | Procedure::AblationHwBaselines
                | Procedure::AblationLeakyClip
                | Procedure::BitPositionSweep
        )
    }

    /// `true` when the procedure iterates the spec's `layers` panel list.
    pub fn uses_layer_panels(self) -> bool {
        matches!(self, Procedure::PerLayerResilience | Procedure::ActivationDistributions)
    }

    /// `true` when the procedure tunes/sweeps a single named layer and so
    /// requires `target` to name one.
    pub fn needs_layer_target(self) -> bool {
        matches!(self, Procedure::AucSweep | Procedure::TuningTrace)
    }

    /// `true` when the procedure trains (or loads) the spec's workload.
    pub fn uses_workload(self) -> bool {
        !matches!(
            self,
            Procedure::ModelSizes
                | Procedure::Architecture
                | Procedure::CalibrateDataset
                | Procedure::AblationLeakyClip
        )
    }
}

impl std::fmt::Display for Procedure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Procedure::ModelSizes => "model-sizes",
            Procedure::Architecture => "architecture",
            Procedure::CampaignSummary => "campaign-summary",
            Procedure::PerLayerResilience => "per-layer-resilience",
            Procedure::ActivationDistributions => "activation-distributions",
            Procedure::MethodologyWalkthrough => "methodology-walkthrough",
            Procedure::AucSweep => "auc-sweep",
            Procedure::TuningTrace => "tuning-trace",
            Procedure::Resilience => "resilience",
            Procedure::HeadlineTable => "headline-table",
            Procedure::AblationClipMode => "ablation-clip-mode",
            Procedure::AblationFaultModels => "ablation-fault-models",
            Procedure::AblationBiasFaults => "ablation-bias-faults",
            Procedure::AblationHwBaselines => "ablation-hw-baselines",
            Procedure::AblationLeakyClip => "ablation-leaky-clip",
            Procedure::AblationTunerVsGrid => "ablation-tuner-vs-grid",
            Procedure::BitPositionSweep => "bit-position-sweep",
            Procedure::CalibrateDataset => "calibrate-dataset",
        };
        write!(f, "{name}")
    }
}

impl FromStr for Procedure {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ALL_PROCEDURES
            .into_iter()
            .find(|p| p.to_string() == s)
            .ok_or_else(|| SpecError::UnknownProcedure(s.to_string()))
    }
}

/// Which parameter memories a campaign corrupts, in spec form: layers are
/// referenced *by name* (`layer:CONV-4`) and resolved against the workload
/// network at run time, so a spec file stays meaningful across width or
/// architecture changes. The `layer-index:N` form exists for loss-free
/// conversion from an already-resolved [`InjectionTarget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetSpec {
    /// All weight tensors (the paper's model).
    AllWeights,
    /// Weights and biases.
    AllParams,
    /// Bias tensors only.
    Biases,
    /// The named computational layer's weights (resolved at run time).
    Layer(String),
    /// An already-resolved network layer index.
    Index(usize),
}

impl TargetSpec {
    /// Resolves the spec form against a concrete network.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownLayer`] if a named layer does not exist in `net`.
    pub fn resolve(&self, net: &Sequential) -> Result<InjectionTarget, SpecError> {
        match self {
            TargetSpec::AllWeights => Ok(InjectionTarget::AllWeights),
            TargetSpec::AllParams => Ok(InjectionTarget::AllParams),
            TargetSpec::Biases => Ok(InjectionTarget::Biases),
            TargetSpec::Layer(name) => net
                .layer_index_by_name(name)
                .map(InjectionTarget::Layer)
                .ok_or_else(|| SpecError::UnknownLayer(name.clone())),
            TargetSpec::Index(i) => Ok(InjectionTarget::Layer(*i)),
        }
    }

    /// The layer name, when this is the named-layer form.
    pub fn layer_name(&self) -> Option<&str> {
        match self {
            TargetSpec::Layer(name) => Some(name),
            _ => None,
        }
    }
}

impl From<InjectionTarget> for TargetSpec {
    fn from(target: InjectionTarget) -> Self {
        match target {
            InjectionTarget::AllWeights => TargetSpec::AllWeights,
            InjectionTarget::AllParams => TargetSpec::AllParams,
            InjectionTarget::Biases => TargetSpec::Biases,
            InjectionTarget::Layer(i) => TargetSpec::Index(i),
        }
    }
}

impl std::fmt::Display for TargetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetSpec::AllWeights => write!(f, "all-weights"),
            TargetSpec::AllParams => write!(f, "all-params"),
            TargetSpec::Biases => write!(f, "biases"),
            TargetSpec::Layer(name) => write!(f, "layer:{name}"),
            TargetSpec::Index(i) => write!(f, "layer-index:{i}"),
        }
    }
}

impl FromStr for TargetSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(name) = s.strip_prefix("layer:") {
            if name.is_empty() {
                return Err(SpecError::UnknownTarget(s.to_string()));
            }
            return Ok(TargetSpec::Layer(name.to_string()));
        }
        if let Some(index) = s.strip_prefix("layer-index:") {
            return index
                .parse()
                .map(TargetSpec::Index)
                .map_err(|_| SpecError::UnknownTarget(s.to_string()));
        }
        match s {
            "all-weights" => Ok(TargetSpec::AllWeights),
            "all-params" => Ok(TargetSpec::AllParams),
            "biases" => Ok(TargetSpec::Biases),
            other => Err(SpecError::UnknownTarget(other.to_string())),
        }
    }
}

/// The fault-rate grid of a campaign-shaped spec.
///
/// The paper quotes per-bit rates over *full-width* model memories; this
/// reproduction evaluates width-scaled models, so grids are usually mapped
/// through the workload's memory-size ratio (see
/// `Workload::rate_scale`). `PaperScaled`/`Scaled` express that mapping
/// declaratively; `Absolute` grids are used as-is.
#[derive(Debug, Clone, PartialEq)]
pub enum RateGrid {
    /// The paper's whole-network grid (1e-8 … 1e-5), memory-size-scaled.
    PaperScaled,
    /// An explicit grid of paper-equivalent rates, memory-size-scaled.
    Scaled(Vec<f64>),
    /// An explicit grid of raw per-bit rates, applied without scaling.
    Absolute(Vec<f64>),
}

impl RateGrid {
    /// The paper-equivalent label rates (what output tables print in their
    /// `paper_rate`/`fault_rate` column).
    pub fn label_rates(&self) -> Vec<f64> {
        match self {
            RateGrid::PaperScaled => ftclip_fault::paper_fault_rates(),
            RateGrid::Scaled(rates) | RateGrid::Absolute(rates) => rates.clone(),
        }
    }

    /// The actual injected per-bit rates for a workload with the given
    /// memory-size `rate_scale` (scaled grids clamp at 1.0).
    pub fn resolve(&self, rate_scale: f64) -> Vec<f64> {
        match self {
            RateGrid::PaperScaled => ftclip_fault::paper_fault_rates()
                .into_iter()
                .map(|r| (r * rate_scale).min(1.0))
                .collect(),
            RateGrid::Scaled(rates) => rates.iter().map(|r| (r * rate_scale).min(1.0)).collect(),
            RateGrid::Absolute(rates) => rates.clone(),
        }
    }

    /// The grid-kind tag used in JSON and fingerprints.
    pub fn kind(&self) -> &'static str {
        match self {
            RateGrid::PaperScaled => "paper-scaled",
            RateGrid::Scaled(_) => "scaled",
            RateGrid::Absolute(_) => "absolute",
        }
    }

    /// The explicit rate list, empty for the paper grid.
    fn explicit_rates(&self) -> &[f64] {
        match self {
            RateGrid::PaperScaled => &[],
            RateGrid::Scaled(rates) | RateGrid::Absolute(rates) => rates,
        }
    }
}

/// How (whether) the evaluated network is hardened before the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// The plain trained network.
    Unprotected,
    /// Full FT-ClipAct pipeline: profile → clip → Algorithm 1 fine-tuning.
    ClippedTuned,
    /// Clipped at the profiled `ACT_max` without fine-tuning.
    ClippedActMax,
    /// ReLU6-style saturation at the profiled `ACT_max` (ablation baseline).
    Saturated,
}

impl std::fmt::Display for Protection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Protection::Unprotected => "unprotected",
            Protection::ClippedTuned => "clipped-tuned",
            Protection::ClippedActMax => "clipped-actmax",
            Protection::Saturated => "saturated",
        };
        write!(f, "{name}")
    }
}

impl FromStr for Protection {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unprotected" => Ok(Protection::Unprotected),
            "clipped-tuned" => Ok(Protection::ClippedTuned),
            "clipped-actmax" => Ok(Protection::ClippedActMax),
            "saturated" => Ok(Protection::Saturated),
            other => Err(SpecError::UnknownProtection(other.to_string())),
        }
    }
}

/// The synthetic dataset settings (sizes and difficulty knobs). Defaults
/// reproduce the calibrated experiment dataset of
/// `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSpec {
    /// Training-split size.
    pub train_size: usize,
    /// Validation-split size.
    pub val_size: usize,
    /// Test-split size.
    pub test_size: usize,
    /// Per-pixel noise standard deviation.
    pub noise_std: f32,
    /// Class-center separation (primary difficulty knob).
    pub class_sep: f32,
}

impl Default for DataSpec {
    fn default() -> Self {
        DataSpec {
            train_size: 3000,
            val_size: 768,
            test_size: 1024,
            noise_std: 0.40,
            class_sep: 0.25,
        }
    }
}

impl DataSpec {
    /// Builds the dataset this spec describes.
    pub fn build(&self, seed: u64) -> ftclip_data::SynthCifar {
        ftclip_data::SynthCifar::builder()
            .seed(seed)
            .train_size(self.train_size)
            .val_size(self.val_size)
            .test_size(self.test_size)
            .noise_std(self.noise_std)
            .class_sep(self.class_sep)
            .build()
    }
}

/// The trained-model workload: architecture plus training hyper-parameters.
/// Defaults per architecture match the experiment-scale models of
/// `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset` (the zoo caches by all of these
/// fields, so changing any
/// retrains rather than reusing a stale network).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Zoo architecture.
    pub arch: ZooArch,
    /// Width multiplier.
    pub width_mult: f64,
    /// Training epochs (0 = evaluate the untrained initialization — handy
    /// for fast harness tests).
    pub epochs: usize,
    /// Training mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Flip/translate augmentation.
    pub augment: bool,
}

impl WorkloadSpec {
    /// The experiment-scale defaults for `arch`.
    pub fn default_for(arch: ZooArch) -> Self {
        let (width_mult, epochs, lr) = match arch {
            ZooArch::AlexNet => (0.125, 10, 0.03),
            ZooArch::Vgg16 | ZooArch::Vgg16Bn => (0.125, 12, 0.05),
            ZooArch::LeNet5 => (1.0, 6, 0.05),
        };
        WorkloadSpec { arch, width_mult, epochs, batch_size: 64, lr, augment: true }
    }

    /// The zoo [`ModelSpec`] this workload trains (10 classes, `seed`).
    pub fn model_spec(&self, seed: u64) -> ModelSpec {
        ModelSpec {
            arch: self.arch,
            width_mult: self.width_mult,
            classes: 10,
            seed,
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            augment: self.augment,
        }
    }
}

/// A complete, serializable description of one experiment. See the module
/// docs; construct via [`ExperimentSpec::builder`] or parse from JSON with
/// [`ExperimentSpec::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Output name: the result files' stem and the experiment's display
    /// name. Must be a plain file stem (no path separators).
    pub name: String,
    /// The experiment shape.
    pub procedure: Procedure,
    /// The trained-model workload.
    pub workload: WorkloadSpec,
    /// Dataset settings.
    pub data: DataSpec,
    /// Evaluation-subset size (clamped to the split at run time).
    pub eval_size: usize,
    /// Evaluation mini-batch size.
    pub eval_batch: usize,
    /// Campaign repetitions per fault rate.
    pub repetitions: usize,
    /// Adaptive sequential sampling: when set, campaign-grid procedures
    /// stop each rate once its accuracy confidence interval is tighter
    /// than the rule's target (see [`StoppingRule`]). Part of the *spec*
    /// fingerprint, but — like `repetitions` — never of the store's cell
    /// fingerprint, so adaptive and fixed runs share cached cells.
    pub stopping: Option<StoppingRule>,
    /// Master seed (dataset, training, subset draws, campaign seeds).
    pub seed: u64,
    /// Fault model applied to every sampled bit.
    pub fault_model: FaultModel,
    /// Which parameter memories are corrupted.
    pub target: TargetSpec,
    /// The fault-rate grid.
    pub rates: RateGrid,
    /// Hardening applied before the campaign (where the procedure honors
    /// it; the comparison procedures evaluate several protections at once).
    pub protection: Protection,
    /// Inference precision of the evaluated network: [`Precision::F32`]
    /// runs the trained network as-is; [`Precision::Int8`] post-training
    /// quantizes it (calibrated on a validation batch) and injects faults
    /// into the int8 weight bytes instead. [`Procedure::BitPositionSweep`]
    /// always runs both and ignores this field.
    pub precision: Precision,
    /// Layer panels for the per-layer procedures.
    pub layers: Vec<String>,
}

impl ExperimentSpec {
    /// A builder seeded with the defaults every figure shares: AlexNet
    /// workload, calibrated dataset, 256-image eval subsets, 10 repetitions,
    /// seed 42, bit-flip faults on all weights over the paper grid.
    pub fn builder(procedure: Procedure, name: &str) -> SpecBuilder {
        SpecBuilder {
            spec: ExperimentSpec {
                name: name.to_string(),
                procedure,
                workload: WorkloadSpec::default_for(ZooArch::AlexNet),
                data: DataSpec::default(),
                eval_size: 256,
                eval_batch: 64,
                repetitions: 10,
                stopping: None,
                seed: 42,
                fault_model: FaultModel::BitFlip,
                target: TargetSpec::AllWeights,
                rates: RateGrid::PaperScaled,
                protection: Protection::Unprotected,
                precision: Precision::F32,
                layers: Vec::new(),
            },
        }
    }

    /// Checks the spec describes a runnable experiment.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint. Campaign-grid procedures
    /// surface grid problems as [`SpecError::Campaign`] — notably
    /// [`CampaignError::EmptyRateGrid`], which used to be a late panic deep
    /// inside the figure binaries.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
        {
            return Err(SpecError::BadName(self.name.clone()));
        }
        if self.eval_size == 0 || self.eval_batch == 0 {
            return Err(SpecError::ZeroEvalSize);
        }
        if self.data.train_size == 0 || self.data.val_size == 0 || self.data.test_size == 0 {
            return Err(SpecError::BadData("split sizes must be positive".to_string()));
        }
        if !(self.data.class_sep > 0.0 && self.data.class_sep <= 1.0) {
            return Err(SpecError::BadData(format!(
                "class_sep must be in (0, 1], got {}",
                self.data.class_sep
            )));
        }
        if self.procedure == Procedure::AblationLeakyClip && self.workload.arch != ZooArch::AlexNet {
            // the leaky twin is built with alexnet_cifar_with_activation;
            // silently running AlexNet under a VGG-labeled output would be
            // a lie, so reject the combination up front
            return Err(SpecError::UnsupportedArch(format!(
                "ablation-leaky-clip only supports the alexnet workload, got {}",
                self.workload.arch
            )));
        }
        if self.procedure.uses_campaign_grid() {
            // validate the *unscaled* grid so the error fires before any
            // model exists to compute a rate scale from; scaling clamps into
            // [0, 1], so a valid label grid stays valid after resolution
            self.campaign_config_with_scale(1.0).map_err(spec_campaign_err)?;
        }
        if self.procedure.uses_layer_panels() && self.layers.is_empty() {
            return Err(SpecError::EmptyLayerList);
        }
        if self.procedure.needs_layer_target() && self.target.layer_name().is_none() {
            return Err(SpecError::TargetNotALayer(self.target.to_string()));
        }
        Ok(())
    }

    /// The spec's campaign configuration for a workload with the given
    /// memory-size `rate_scale` — the spec ⇄ [`CampaignConfig`] conversion
    /// in the spec → config direction (see [`ExperimentSpec::from_campaign`]
    /// for the inverse).
    ///
    /// # Errors
    ///
    /// Returns the violated [`CampaignError`] for an unrunnable grid.
    pub fn campaign_config_with_scale(&self, rate_scale: f64) -> Result<CampaignConfig, CampaignError> {
        let config = CampaignConfig {
            fault_rates: self.rates.resolve(rate_scale),
            repetitions: self.repetitions,
            seed: self.seed,
            model: self.fault_model,
            target: InjectionTarget::AllWeights, // resolved per network later
            stopping: self.stopping,
        };
        // an empty label grid resolves to an empty rate list; out-of-range
        // label rates survive Absolute grids — both are caught here
        config.validate()?;
        if let RateGrid::PaperScaled | RateGrid::Scaled(_) = self.rates {
            // scaled grids clamp to 1.0, hiding label rates that are not
            // probabilities; validate the labels themselves too
            CampaignConfig { fault_rates: self.rates.label_rates(), ..config.clone() }.validate()?;
        }
        Ok(config)
    }

    /// A [`Procedure::CampaignSummary`] spec reproducing an existing
    /// [`CampaignConfig`] — the config → spec direction of the conversion.
    /// The grid is carried as [`RateGrid::Absolute`] (a config's rates are
    /// already resolved) and the target in its index form.
    pub fn from_campaign(name: &str, config: &CampaignConfig) -> ExperimentSpec {
        let mut spec = ExperimentSpec::builder(Procedure::CampaignSummary, name).build_unchecked();
        spec.rates = RateGrid::Absolute(config.fault_rates.clone());
        spec.repetitions = config.repetitions;
        spec.stopping = config.stopping;
        spec.seed = config.seed;
        spec.fault_model = config.model;
        spec.target = config.target.into();
        spec
    }

    /// The stable content fingerprint of this spec: every field, hashed
    /// order-independently (see [`Fingerprint`]). Two specs fingerprint
    /// equal exactly when they describe the same experiment, and a spec
    /// that round-trips through JSON keeps its fingerprint bit-for-bit.
    pub fn fingerprint(&self) -> Fingerprint {
        // the stopping rule changes which cells *run* (the result shape),
        // so it belongs in the spec fingerprint — unlike the store's cell
        // fingerprint, which deliberately omits it (see `ftclip_store`)
        let stopping = |fp: Fingerprint| match &self.stopping {
            None => fp.text("stopping", "none"),
            Some(rule) => fp
                .float("stopping_eps", rule.target_half_width)
                .uint("stopping_min_reps", rule.min_reps as u64)
                .uint("stopping_max_reps", rule.max_reps as u64),
        };
        // precision chains only when non-default so every pre-existing f32
        // spec keeps its historical fingerprint bit for bit
        let precision = |fp: Fingerprint| match self.precision {
            Precision::F32 => fp,
            other => fp.text("precision", &other.to_string()),
        };
        precision(stopping(Fingerprint::new("ftclip-spec-v1")))
            .text("name", &self.name)
            .text("procedure", &self.procedure.to_string())
            .text("arch", &self.workload.arch.to_string())
            .float("width_mult", self.workload.width_mult)
            .uint("epochs", self.workload.epochs as u64)
            .uint("train_batch", self.workload.batch_size as u64)
            .float("lr", f64::from(self.workload.lr))
            .flag("augment", self.workload.augment)
            .uint("train_size", self.data.train_size as u64)
            .uint("val_size", self.data.val_size as u64)
            .uint("test_size", self.data.test_size as u64)
            .float("noise_std", f64::from(self.data.noise_std))
            .float("class_sep", f64::from(self.data.class_sep))
            .uint("eval_size", self.eval_size as u64)
            .uint("eval_batch", self.eval_batch as u64)
            .uint("repetitions", self.repetitions as u64)
            .uint("seed", self.seed)
            .text("fault_model", &self.fault_model.to_string())
            .text("target", &self.target.to_string())
            .text("grid", self.rates.kind())
            .float_list("rates", self.rates.explicit_rates())
            .text("protection", &self.protection.to_string())
            .text_list("layers", &self.layers)
    }

    /// Serializes the spec as pretty-printed JSON (the spec-file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("JSON rendering is infallible")
    }

    /// The spec as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let num = |n: f64| Value::Number(n);
        // f32 fields render through their shortest f32 form ("0.03", not the
        // widened "0.029999999329447746"); parsing back `as f32` recovers the
        // identical bits because the shortest form re-rounds to the same f32
        let num32 = |n: f32| Value::Number(n.to_string().parse().unwrap_or(f64::from(n)));
        let uint = |n: usize| Value::Number(n as f64);
        let text = |s: String| Value::String(s);
        let mut rates = vec![("grid".to_string(), text(self.rates.kind().to_string()))];
        if !matches!(self.rates, RateGrid::PaperScaled) {
            rates.push((
                "rates".to_string(),
                Value::Array(self.rates.explicit_rates().iter().map(|&r| num(r)).collect()),
            ));
        }
        let mut fields = vec![
            ("name".to_string(), text(self.name.clone())),
            ("procedure".to_string(), text(self.procedure.to_string())),
            (
                "workload".to_string(),
                Value::Object(vec![
                    ("arch".to_string(), text(self.workload.arch.to_string())),
                    ("width_mult".to_string(), num(self.workload.width_mult)),
                    ("epochs".to_string(), uint(self.workload.epochs)),
                    ("batch_size".to_string(), uint(self.workload.batch_size)),
                    ("lr".to_string(), num32(self.workload.lr)),
                    ("augment".to_string(), Value::Bool(self.workload.augment)),
                ]),
            ),
            (
                "data".to_string(),
                Value::Object(vec![
                    ("train_size".to_string(), uint(self.data.train_size)),
                    ("val_size".to_string(), uint(self.data.val_size)),
                    ("test_size".to_string(), uint(self.data.test_size)),
                    ("noise_std".to_string(), num32(self.data.noise_std)),
                    ("class_sep".to_string(), num32(self.data.class_sep)),
                ]),
            ),
            ("eval_size".to_string(), uint(self.eval_size)),
            ("eval_batch".to_string(), uint(self.eval_batch)),
            ("repetitions".to_string(), uint(self.repetitions)),
            // JSON numbers ride the shim's f64 tree, exact only to 2^53;
            // larger seeds (bit-mask style constants) encode as strings
            (
                "seed".to_string(),
                if self.seed <= (1u64 << 53) {
                    Value::Number(self.seed as f64)
                } else {
                    Value::String(self.seed.to_string())
                },
            ),
            ("fault_model".to_string(), text(self.fault_model.to_string())),
            ("target".to_string(), text(self.target.to_string())),
            ("rates".to_string(), Value::Object(rates)),
            ("protection".to_string(), text(self.protection.to_string())),
            ("layers".to_string(), Value::Array(self.layers.iter().map(|l| text(l.clone())).collect())),
        ];
        if self.precision != Precision::F32 {
            // emitted only when non-default so historical spec files (and
            // their golden copies) stay byte-stable
            fields.push(("precision".to_string(), text(self.precision.to_string())));
        }
        if let Some(rule) = &self.stopping {
            fields.push((
                "stopping".to_string(),
                Value::Object(vec![
                    ("target_half_width".to_string(), num(rule.target_half_width)),
                    ("min_reps".to_string(), uint(rule.min_reps)),
                    ("max_reps".to_string(), uint(rule.max_reps)),
                ]),
            ));
        }
        Value::Object(fields)
    }

    /// Parses a spec from its JSON form and validates it.
    ///
    /// `name` and `procedure` are required; every other field defaults as in
    /// [`ExperimentSpec::builder`] (with workload hyper-parameters
    /// defaulting per the chosen architecture). Unknown fields are an error
    /// — a typo silently falling back to a default would corrupt an
    /// experiment.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] for malformed JSON or fields of the wrong type,
    /// the respective `Unknown*` error for bad enum encodings, and any
    /// [`ExperimentSpec::validate`] error for a well-formed but unrunnable
    /// spec.
    pub fn from_json(json: &str) -> Result<ExperimentSpec, SpecError> {
        let value = serde_json::from_str(json).map_err(|e| SpecError::Parse(e.to_string()))?;
        ExperimentSpec::from_value(&value)
    }

    /// [`ExperimentSpec::from_json`] on an already-parsed value tree.
    ///
    /// # Errors
    ///
    /// See [`ExperimentSpec::from_json`].
    pub fn from_value(value: &Value) -> Result<ExperimentSpec, SpecError> {
        let obj = value
            .as_object()
            .ok_or_else(|| SpecError::Parse("spec must be a JSON object".to_string()))?;
        check_known_keys(
            obj,
            &[
                "name",
                "procedure",
                "workload",
                "data",
                "eval_size",
                "eval_batch",
                "repetitions",
                "seed",
                "fault_model",
                "target",
                "rates",
                "protection",
                "precision",
                "layers",
                "stopping",
            ],
        )?;
        let name = require_str(value, "name")?;
        let procedure: Procedure = require_str(value, "procedure")?.parse()?;

        let arch = match value.get("workload").and_then(|w| w.get("arch")) {
            Some(v) => v
                .as_str()
                .ok_or_else(|| SpecError::Parse("workload.arch must be a string".to_string()))?
                .parse::<ZooArch>()
                .map_err(SpecError::UnknownArch)?,
            None => ZooArch::AlexNet,
        };
        let mut spec = ExperimentSpec::builder(procedure, name).arch(arch).build_unchecked();

        if let Some(workload) = value.get("workload") {
            let obj = workload
                .as_object()
                .ok_or_else(|| SpecError::Parse("workload must be an object".to_string()))?;
            check_known_keys(obj, &["arch", "width_mult", "epochs", "batch_size", "lr", "augment"])?;
            spec.workload.width_mult = opt_f64(workload, "width_mult")?.unwrap_or(spec.workload.width_mult);
            spec.workload.epochs = opt_usize(workload, "epochs")?.unwrap_or(spec.workload.epochs);
            spec.workload.batch_size = opt_usize(workload, "batch_size")?.unwrap_or(spec.workload.batch_size);
            spec.workload.lr = opt_f64(workload, "lr")?.map_or(spec.workload.lr, |v| v as f32);
            spec.workload.augment = opt_bool(workload, "augment")?.unwrap_or(spec.workload.augment);
        }
        if let Some(data) = value.get("data") {
            let obj = data
                .as_object()
                .ok_or_else(|| SpecError::Parse("data must be an object".to_string()))?;
            check_known_keys(obj, &["train_size", "val_size", "test_size", "noise_std", "class_sep"])?;
            spec.data.train_size = opt_usize(data, "train_size")?.unwrap_or(spec.data.train_size);
            spec.data.val_size = opt_usize(data, "val_size")?.unwrap_or(spec.data.val_size);
            spec.data.test_size = opt_usize(data, "test_size")?.unwrap_or(spec.data.test_size);
            spec.data.noise_std = opt_f64(data, "noise_std")?.map_or(spec.data.noise_std, |v| v as f32);
            spec.data.class_sep = opt_f64(data, "class_sep")?.map_or(spec.data.class_sep, |v| v as f32);
        }
        spec.eval_size = opt_usize(value, "eval_size")?.unwrap_or(spec.eval_size);
        spec.eval_batch = opt_usize(value, "eval_batch")?.unwrap_or(spec.eval_batch);
        spec.repetitions = opt_usize(value, "repetitions")?.unwrap_or(spec.repetitions);
        if let Some(stopping) = value.get("stopping") {
            let obj = stopping
                .as_object()
                .ok_or_else(|| SpecError::Parse("stopping must be an object".to_string()))?;
            check_known_keys(obj, &["target_half_width", "min_reps", "max_reps"])?;
            let target_half_width = opt_f64(stopping, "target_half_width")?.ok_or_else(|| {
                SpecError::Parse("stopping.target_half_width (number) is required".to_string())
            })?;
            spec.stopping = Some(StoppingRule {
                target_half_width,
                min_reps: opt_usize(stopping, "min_reps")?.unwrap_or(2),
                max_reps: opt_usize(stopping, "max_reps")?.unwrap_or(spec.repetitions),
            });
        }
        spec.seed = opt_u64(value, "seed")?.unwrap_or(spec.seed);
        if let Some(s) = opt_str(value, "fault_model")? {
            spec.fault_model = s.parse().map_err(SpecError::UnknownFaultModel)?;
        }
        if let Some(s) = opt_str(value, "target")? {
            spec.target = s.parse()?;
        }
        if let Some(rates) = value.get("rates") {
            let obj = rates
                .as_object()
                .ok_or_else(|| SpecError::Parse("rates must be an object".to_string()))?;
            check_known_keys(obj, &["grid", "rates"])?;
            let kind = rates
                .get("grid")
                .and_then(Value::as_str)
                .ok_or_else(|| SpecError::Parse("rates.grid must be a string".to_string()))?;
            let list = || -> Result<Vec<f64>, SpecError> {
                rates
                    .get("rates")
                    .and_then(Value::as_array)
                    .ok_or_else(|| SpecError::Parse(format!("rates.rates list required for grid '{kind}'")))?
                    .iter()
                    .map(|v| {
                        v.as_f64().ok_or_else(|| {
                            SpecError::Parse("rates.rates entries must be numbers".to_string())
                        })
                    })
                    .collect()
            };
            spec.rates = match kind {
                "paper-scaled" => RateGrid::PaperScaled,
                "scaled" => RateGrid::Scaled(list()?),
                "absolute" => RateGrid::Absolute(list()?),
                other => return Err(SpecError::UnknownGrid(other.to_string())),
            };
        }
        if let Some(s) = opt_str(value, "protection")? {
            spec.protection = s.parse()?;
        }
        if let Some(s) = opt_str(value, "precision")? {
            spec.precision = s.parse().map_err(SpecError::UnknownPrecision)?;
        }
        if let Some(layers) = value.get("layers") {
            spec.layers = layers
                .as_array()
                .ok_or_else(|| SpecError::Parse("layers must be an array".to_string()))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| SpecError::Parse("layers entries must be strings".to_string()))
                })
                .collect::<Result<_, _>>()?;
        }
        spec.validate()?;
        Ok(spec)
    }
}

fn spec_campaign_err(e: CampaignError) -> SpecError {
    SpecError::Campaign(e)
}

fn check_known_keys(obj: &[(String, Value)], known: &[&str]) -> Result<(), SpecError> {
    for (key, _) in obj {
        if !known.contains(&key.as_str()) {
            return Err(SpecError::UnknownField(key.clone()));
        }
    }
    Ok(())
}

fn require_str<'v>(value: &'v Value, key: &str) -> Result<&'v str, SpecError> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| SpecError::Parse(format!("spec field '{key}' (string) is required")))
}

fn opt_str<'v>(value: &'v Value, key: &str) -> Result<Option<&'v str>, SpecError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| SpecError::Parse(format!("spec field '{key}' must be a string"))),
    }
}

fn opt_bool(value: &Value, key: &str) -> Result<Option<bool>, SpecError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| SpecError::Parse(format!("spec field '{key}' must be a boolean"))),
    }
}

fn opt_f64(value: &Value, key: &str) -> Result<Option<f64>, SpecError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| SpecError::Parse(format!("spec field '{key}' must be a number"))),
    }
}

fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, SpecError> {
    match value.get(key) {
        None => Ok(None),
        // accept decimal strings too: seeds above 2^53 serialize as strings
        // because JSON numbers ride an f64 tree (see `to_value`)
        Some(v) => v
            .as_u64()
            .or_else(|| v.as_str().and_then(|s| s.parse().ok()))
            .map(Some)
            .ok_or_else(|| SpecError::Parse(format!("spec field '{key}' must be a non-negative integer"))),
    }
}

fn opt_usize(value: &Value, key: &str) -> Result<Option<usize>, SpecError> {
    Ok(opt_u64(value, key)?.map(|v| v as usize))
}

/// Builder for [`ExperimentSpec`] (see [`ExperimentSpec::builder`]).
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    spec: ExperimentSpec,
}

impl SpecBuilder {
    /// Sets the workload architecture, resetting the training
    /// hyper-parameters to that architecture's defaults.
    pub fn arch(mut self, arch: ZooArch) -> Self {
        self.spec.workload = WorkloadSpec::default_for(arch);
        self
    }

    /// Sets the full workload description.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.spec.workload = workload;
        self
    }

    /// Sets the dataset settings.
    pub fn data(mut self, data: DataSpec) -> Self {
        self.spec.data = data;
        self
    }

    /// Sets the evaluation-subset size.
    pub fn eval_size(mut self, eval_size: usize) -> Self {
        self.spec.eval_size = eval_size;
        self
    }

    /// Sets campaign repetitions per rate.
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.spec.repetitions = repetitions;
        self
    }

    /// Installs an adaptive sequential-sampling stopping rule: campaign
    /// procedures stop each rate once its bootstrap confidence interval is
    /// tighter than the rule's target (see [`StoppingRule`]).
    pub fn stopping(mut self, rule: StoppingRule) -> Self {
        self.spec.stopping = Some(rule);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the fault model.
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.spec.fault_model = model;
        self
    }

    /// Sets the injection target.
    pub fn target(mut self, target: TargetSpec) -> Self {
        self.spec.target = target;
        self
    }

    /// Sets the fault-rate grid.
    pub fn rates(mut self, rates: RateGrid) -> Self {
        self.spec.rates = rates;
        self
    }

    /// Sets the protection configuration.
    pub fn protection(mut self, protection: Protection) -> Self {
        self.spec.protection = protection;
        self
    }

    /// Sets the inference precision (f32 as trained, or int8 post-training
    /// quantized).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.spec.precision = precision;
        self
    }

    /// Sets the layer panels.
    pub fn layers<S: Into<String>>(mut self, layers: impl IntoIterator<Item = S>) -> Self {
        self.spec.layers = layers.into_iter().map(Into::into).collect();
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Any [`ExperimentSpec::validate`] error.
    pub fn build(self) -> Result<ExperimentSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }

    /// Returns the spec without validating — for construction sites that
    /// keep mutating it (parsing, conversions). Run paths always validate.
    pub fn build_unchecked(self) -> ExperimentSpec {
        self.spec
    }
}

/// Why a spec cannot be parsed or run.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Output name empty or not a plain file stem.
    BadName(String),
    /// `eval_size` or `eval_batch` is zero.
    ZeroEvalSize,
    /// Dataset settings the generator would reject (empty splits,
    /// out-of-range difficulty knobs).
    BadData(String),
    /// The procedure does not support the spec's workload architecture.
    UnsupportedArch(String),
    /// The campaign grid is unrunnable (empty, out-of-range rates, zero
    /// repetitions).
    Campaign(CampaignError),
    /// A per-layer procedure with no layer panels.
    EmptyLayerList,
    /// A layer-tuning procedure whose target is not a named layer.
    TargetNotALayer(String),
    /// `procedure` names no known procedure.
    UnknownProcedure(String),
    /// `workload.arch` names no known architecture.
    UnknownArch(String),
    /// `fault_model` names no known fault model.
    UnknownFaultModel(String),
    /// `target` is not a valid target encoding.
    UnknownTarget(String),
    /// `protection` names no known protection.
    UnknownProtection(String),
    /// `precision` names no known precision.
    UnknownPrecision(String),
    /// `rates.grid` names no known grid kind.
    UnknownGrid(String),
    /// A named layer does not exist in the workload network.
    UnknownLayer(String),
    /// An unrecognized field (typo protection: unknown keys never silently
    /// fall back to defaults).
    UnknownField(String),
    /// Not a known preset name (see `ftclip list`).
    UnknownPreset(String),
    /// Malformed JSON or a field of the wrong type.
    Parse(String),
    /// Two specs in one batch share an output name; carries the shared
    /// name and both colliding (1-based) batch positions.
    DuplicateName {
        /// The shared output name.
        name: String,
        /// 1-based batch position of the first spec with this name.
        first: usize,
        /// 1-based batch position of the colliding later spec.
        second: usize,
    },
    /// A batch-member spec failed; carries the member's name.
    InSpec(String, Box<SpecError>),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadName(name) => write!(
                f,
                "invalid experiment name {name:?}: must be a non-empty file stem \
                 (ASCII letters, digits, '_', '-', '.')"
            ),
            SpecError::ZeroEvalSize => write!(f, "eval_size and eval_batch must be at least 1"),
            SpecError::BadData(msg) => write!(f, "invalid dataset settings: {msg}"),
            SpecError::UnsupportedArch(msg) => write!(f, "{msg}"),
            SpecError::Campaign(e) => write!(f, "{e}"),
            SpecError::EmptyLayerList => {
                write!(f, "this procedure sweeps layer panels; 'layers' must not be empty")
            }
            SpecError::TargetNotALayer(t) => {
                write!(f, "this procedure tunes one layer; target must be 'layer:<NAME>', got '{t}'")
            }
            SpecError::UnknownProcedure(s) => write!(f, "unknown procedure '{s}'"),
            SpecError::UnknownArch(s) => write!(f, "{s}"),
            SpecError::UnknownFaultModel(s) => write!(f, "{s}"),
            SpecError::UnknownTarget(s) => write!(
                f,
                "unknown target '{s}' (expected all-weights|all-params|biases|layer:<NAME>|layer-index:<N>)"
            ),
            SpecError::UnknownProtection(s) => write!(
                f,
                "unknown protection '{s}' (expected unprotected|clipped-tuned|clipped-actmax|saturated)"
            ),
            SpecError::UnknownPrecision(s) => write!(f, "{s}"),
            SpecError::UnknownGrid(s) => {
                write!(f, "unknown rate grid '{s}' (expected paper-scaled|scaled|absolute)")
            }
            SpecError::UnknownLayer(s) => write!(f, "layer '{s}' not found in the workload network"),
            SpecError::UnknownField(s) => write!(f, "unknown spec field '{s}'"),
            SpecError::UnknownPreset(s) => write!(f, "unknown preset '{s}' (see `ftclip list`)"),
            SpecError::Parse(msg) => write!(f, "spec parse error: {msg}"),
            SpecError::DuplicateName { name, first, second } => {
                write!(
                    f,
                    "batch specs #{first} and #{second} share the output name '{name}' — \
                     every spec in a batch needs a distinct name"
                )
            }
            SpecError::InSpec(name, e) => write!(f, "spec '{name}': {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<CampaignError> for SpecError {
    fn from(e: CampaignError) -> Self {
        SpecError::Campaign(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign_spec() -> ExperimentSpec {
        ExperimentSpec::builder(Procedure::CampaignSummary, "demo")
            .rates(RateGrid::Absolute(vec![1e-4, 1e-3]))
            .repetitions(3)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_validate_for_every_procedure() {
        for procedure in ALL_PROCEDURES {
            let builder = ExperimentSpec::builder(procedure, "x");
            let builder = if procedure.uses_layer_panels() {
                builder.layers(["CONV-1"])
            } else if procedure.needs_layer_target() {
                builder.target(TargetSpec::Layer("CONV-4".into()))
            } else {
                builder
            };
            builder.build().unwrap_or_else(|e| panic!("{procedure}: {e}"));
        }
    }

    #[test]
    fn empty_rate_grid_is_a_typed_error_not_a_panic() {
        let err = ExperimentSpec::builder(Procedure::CampaignSummary, "x")
            .rates(RateGrid::Absolute(vec![]))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::Campaign(CampaignError::EmptyRateGrid));
        // the scaled variants reject empty grids too
        let err = ExperimentSpec::builder(Procedure::Resilience, "x")
            .rates(RateGrid::Scaled(vec![]))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::Campaign(CampaignError::EmptyRateGrid));
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(matches!(
            ExperimentSpec::builder(Procedure::ModelSizes, "a/b").build(),
            Err(SpecError::BadName(_))
        ));
        assert!(matches!(
            ExperimentSpec::builder(Procedure::ModelSizes, "").build(),
            Err(SpecError::BadName(_))
        ));
        assert!(matches!(
            ExperimentSpec::builder(Procedure::CampaignSummary, "x").repetitions(0).build(),
            Err(SpecError::Campaign(CampaignError::ZeroRepetitions))
        ));
        assert!(matches!(
            ExperimentSpec::builder(Procedure::CampaignSummary, "x")
                .rates(RateGrid::Absolute(vec![1.5]))
                .build(),
            Err(SpecError::Campaign(CampaignError::RateOutOfRange(_)))
        ));
        assert!(matches!(
            ExperimentSpec::builder(Procedure::PerLayerResilience, "x").build(),
            Err(SpecError::EmptyLayerList)
        ));
        assert!(matches!(
            ExperimentSpec::builder(Procedure::AucSweep, "x").build(),
            Err(SpecError::TargetNotALayer(_))
        ));
        // a scaled grid with non-probability *label* rates is rejected even
        // though scaling would clamp the actual rates into range
        assert!(matches!(
            ExperimentSpec::builder(Procedure::CampaignSummary, "x")
                .rates(RateGrid::Scaled(vec![2.0]))
                .build(),
            Err(SpecError::Campaign(CampaignError::RateOutOfRange(_)))
        ));
        // dataset settings the generator would assert on become typed errors
        assert!(matches!(
            ExperimentSpec::builder(Procedure::CampaignSummary, "x")
                .data(DataSpec { test_size: 0, ..DataSpec::default() })
                .build(),
            Err(SpecError::BadData(_))
        ));
        assert!(matches!(
            ExperimentSpec::builder(Procedure::CampaignSummary, "x")
                .data(DataSpec { class_sep: 1.5, ..DataSpec::default() })
                .build(),
            Err(SpecError::BadData(_))
        ));
        // the leaky ablation builds an AlexNet twin; other archs are typed
        // errors instead of silently mislabeled results
        assert!(matches!(
            ExperimentSpec::builder(Procedure::AblationLeakyClip, "x")
                .arch(ZooArch::Vgg16Bn)
                .build(),
            Err(SpecError::UnsupportedArch(_))
        ));
        assert!(ExperimentSpec::builder(Procedure::AblationLeakyClip, "x").build().is_ok());
    }

    #[test]
    fn json_round_trip_preserves_spec_and_fingerprint() {
        let spec = ExperimentSpec::builder(Procedure::Resilience, "fig7_alexnet")
            .arch(ZooArch::Vgg16Bn)
            .rates(RateGrid::Scaled(vec![1e-7, 0.5e-6, 1e-5]))
            .repetitions(7)
            .seed(1234)
            .fault_model(FaultModel::StuckAt1)
            .target(TargetSpec::Layer("CONV-4".into()))
            .protection(Protection::ClippedTuned)
            .build()
            .unwrap();
        let json = spec.to_json();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint().key(), spec.fingerprint().key());
    }

    #[test]
    fn stopping_rule_round_trips_through_json() {
        let spec = ExperimentSpec::builder(Procedure::CampaignSummary, "adaptive")
            .repetitions(40)
            .stopping(StoppingRule { target_half_width: 0.015, min_reps: 4, max_reps: 40 })
            .build()
            .unwrap();
        let json = spec.to_json();
        assert!(json.contains("\"stopping\""), "{json}");
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint().key(), spec.fingerprint().key());

        // partial rule: min/max default to 2 / the spec's repetitions
        let spec = ExperimentSpec::from_json(
            r#"{"name": "x", "procedure": "campaign-summary", "repetitions": 25,
                "stopping": {"target_half_width": 0.05}}"#,
        )
        .unwrap();
        assert_eq!(spec.stopping, Some(StoppingRule { target_half_width: 0.05, min_reps: 2, max_reps: 25 }));

        // typos inside the rule are rejected like everywhere else
        let err = ExperimentSpec::from_json(
            r#"{"name": "x", "procedure": "campaign-summary", "stopping": {"half_width": 0.05}}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnknownField("half_width".into()));
        // and an invalid rule fails spec validation, not a deep panic later
        let err = ExperimentSpec::from_json(
            r#"{"name": "x", "procedure": "campaign-summary", "repetitions": 3,
                "stopping": {"target_half_width": 0.05, "min_reps": 9, "max_reps": 3}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Campaign(CampaignError::BadRepBounds { .. })), "{err}");
    }

    #[test]
    fn precision_round_trips_and_defaults_to_f32() {
        let spec = ExperimentSpec::from_json(
            r#"{"name": "q", "procedure": "campaign-summary", "precision": "int8"}"#,
        )
        .unwrap();
        assert_eq!(spec.precision, Precision::Int8);
        let json = spec.to_json();
        assert!(json.contains("\"precision\": \"int8\""), "{json}");
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint().key(), spec.fingerprint().key());
        let mut as_f32 = spec.clone();
        as_f32.precision = Precision::F32;
        assert_ne!(
            as_f32.fingerprint().key(),
            spec.fingerprint().key(),
            "precision must enter the fingerprint"
        );
        // the default emits no field, keeping historical spec files (and
        // their fingerprints) byte-stable
        assert!(!as_f32.to_json().contains("precision"));
        assert!(matches!(
            ExperimentSpec::from_json(
                r#"{"name": "q", "procedure": "campaign-summary", "precision": "fp16"}"#
            ),
            Err(SpecError::UnknownPrecision(_))
        ));
    }

    #[test]
    fn minimal_spec_file_uses_defaults() {
        let spec = ExperimentSpec::from_json(r#"{"name": "mini", "procedure": "campaign-summary"}"#).unwrap();
        assert_eq!(spec.workload.arch, ZooArch::AlexNet);
        assert_eq!(spec.eval_size, 256);
        assert_eq!(spec.rates, RateGrid::PaperScaled);
        assert_eq!(spec.seed, 42);
        // arch-specific workload defaults apply when only the arch is given
        let spec = ExperimentSpec::from_json(
            r#"{"name": "mini", "procedure": "campaign-summary", "workload": {"arch": "vgg16bn"}}"#,
        )
        .unwrap();
        assert_eq!(spec.workload.epochs, 12);
        assert!((spec.workload.lr - 0.05).abs() < 1e-9);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err =
            ExperimentSpec::from_json(r#"{"name": "x", "procedure": "campaign-summary", "repetitons": 3}"#)
                .unwrap_err();
        assert_eq!(err, SpecError::UnknownField("repetitons".into()));
        let err = ExperimentSpec::from_json(
            r#"{"name": "x", "procedure": "campaign-summary", "workload": {"archh": "alexnet"}}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnknownField("archh".into()));
    }

    #[test]
    fn bad_enum_encodings_are_typed_errors() {
        let base = r#"{"name": "x", "procedure": "campaign-summary""#;
        assert!(matches!(
            ExperimentSpec::from_json(&format!("{base}, \"target\": \"layerr\"}}")),
            Err(SpecError::UnknownTarget(_))
        ));
        assert!(matches!(
            ExperimentSpec::from_json(&format!("{base}, \"protection\": \"magic\"}}")),
            Err(SpecError::UnknownProtection(_))
        ));
        assert!(matches!(
            ExperimentSpec::from_json(&format!("{base}, \"rates\": {{\"grid\": \"log\"}}}}")),
            Err(SpecError::UnknownGrid(_))
        ));
        assert!(matches!(
            ExperimentSpec::from_json(r#"{"name": "x", "procedure": "fig-99"}"#),
            Err(SpecError::UnknownProcedure(_))
        ));
    }

    #[test]
    fn target_spec_encodings_round_trip() {
        for target in [
            TargetSpec::AllWeights,
            TargetSpec::AllParams,
            TargetSpec::Biases,
            TargetSpec::Layer("CONV-4".into()),
            TargetSpec::Index(7),
        ] {
            assert_eq!(target.to_string().parse::<TargetSpec>().unwrap(), target);
        }
        assert!("layer:".parse::<TargetSpec>().is_err());
        assert!("layer-index:x".parse::<TargetSpec>().is_err());
    }

    #[test]
    fn campaign_config_conversion_round_trips() {
        let spec = campaign_spec();
        let config = spec.campaign_config_with_scale(1.0).unwrap();
        assert_eq!(config.fault_rates, vec![1e-4, 1e-3]);
        assert_eq!(config.repetitions, 3);
        let back = ExperimentSpec::from_campaign("demo", &config);
        assert_eq!(back.campaign_config_with_scale(1.0).unwrap().fault_rates, config.fault_rates);
        assert_eq!(back.seed, config.seed);
        assert_eq!(back.fault_model, config.model);
    }

    #[test]
    fn scaled_grids_resolve_through_the_memory_ratio() {
        let spec = ExperimentSpec::builder(Procedure::CampaignSummary, "x")
            .rates(RateGrid::Scaled(vec![1e-6, 0.5]))
            .build()
            .unwrap();
        assert_eq!(spec.rates.resolve(10.0), vec![1e-6 * 10.0, 1.0], "scaling clamps at 1.0");
        assert_eq!(spec.rates.label_rates(), vec![1e-6, 0.5], "labels stay unscaled");
        let absolute = RateGrid::Absolute(vec![1e-6]);
        assert_eq!(absolute.resolve(10.0), vec![1e-6], "absolute grids ignore the scale");
    }

    #[test]
    fn fingerprint_distinguishes_every_field() {
        let base = campaign_spec();
        let key = base.fingerprint().key();
        let mutations: Vec<ExperimentSpec> = vec![
            {
                let mut s = base.clone();
                s.name = "other".into();
                s
            },
            {
                let mut s = base.clone();
                s.seed ^= 1;
                s
            },
            {
                let mut s = base.clone();
                s.protection = Protection::ClippedTuned;
                s
            },
            {
                let mut s = base.clone();
                s.rates = RateGrid::Scaled(vec![1e-4, 1e-3]);
                s
            },
            {
                let mut s = base.clone();
                s.workload.epochs += 1;
                s
            },
            {
                let mut s = base.clone();
                s.data.noise_std += 0.1;
                s
            },
            {
                let mut s = base.clone();
                s.layers = vec!["CONV-1".into()];
                s
            },
            {
                // adaptive vs fixed is a different experiment shape even
                // though the store's cell fingerprint ignores the rule
                let mut s = base.clone();
                s.stopping = Some(StoppingRule { target_half_width: 0.02, min_reps: 2, max_reps: 50 });
                s
            },
        ];
        let adaptive = &mutations[mutations.len() - 1];
        let mut tighter = adaptive.clone();
        tighter.stopping = Some(StoppingRule { target_half_width: 0.01, min_reps: 2, max_reps: 50 });
        assert_ne!(
            tighter.fingerprint().key(),
            adaptive.fingerprint().key(),
            "rule parameters must enter the spec fingerprint"
        );
        for (i, m) in mutations.iter().enumerate() {
            assert_ne!(m.fingerprint().key(), key, "mutation {i} must change the fingerprint");
        }
    }
}
