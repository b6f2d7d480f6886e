//! Procedure implementations: the experiment bodies behind every figure
//! and ablation, executed against a [`RunContext`].
//!
//! Each procedure reads its parameters from the [`ExperimentSpec`], writes
//! its human-readable panels into the context's *report buffer* (so a batch
//! of concurrently running experiments never interleaves its output), and
//! emits result tables through the shared typed writer. The report, table
//! paths and shape-check failures come back to the
//! [`Runner`](crate::Runner) as a `RunOutcome`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

use ftclip_core::{EvalSet, EvalSettings, ResultTable};
use ftclip_data::SynthCifar;
use ftclip_fault::{CampaignCache, CampaignConfig, RunRecord};
use ftclip_models::ZooArch;
use ftclip_nn::Sequential;
use ftclip_store::{campaign_fingerprint, model_digest, Fingerprint, ResultStore, StoreSession};

use crate::settings::RunSettings;
use crate::spec::{ExperimentSpec, Procedure, SpecError, WorkloadSpec};
use crate::workload::{load_workload, spec_data, Workload};

/// Where reports point readers for the paper-rate mapping.
pub(crate) const RATE_SCALING_DOC: &str = "docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset";

mod ablations;
mod calibrate;
mod figures;
pub mod resilience;

/// Appends one formatted line to the context's report buffer (the
/// procedure-side replacement for `println!`).
macro_rules! outln {
    ($ctx:expr) => { $ctx.line(String::new()) };
    ($ctx:expr, $($arg:tt)*) => { $ctx.line(format!($($arg)*)) };
}
pub(crate) use outln;

/// In-memory memo of loaded workloads, shared across a batch so specs that
/// agree on (model spec × dataset) train or load the network exactly once.
///
/// Hits hand out `Arc` clones (a workload owns the full dataset tensors —
/// tens of megabytes — and nothing mutates it), and concurrent misses on
/// one key serialize on a per-key slot lock: exactly one worker trains,
/// so two batch members can never race unsynchronized `save_network`
/// writes onto the same zoo cache file. Distinct keys stay concurrent.
#[derive(Debug, Default)]
pub struct WorkloadMemo {
    #[allow(clippy::type_complexity)]
    slots: Mutex<HashMap<String, std::sync::Arc<Mutex<Option<std::sync::Arc<Workload>>>>>>,
}

impl WorkloadMemo {
    fn key(spec: &ExperimentSpec, workload: &WorkloadSpec) -> String {
        format!(
            "{}|{}x{}x{}|n{:08x}s{:08x}|seed{}",
            workload.model_spec(spec.seed).cache_key(),
            spec.data.train_size,
            spec.data.val_size,
            spec.data.test_size,
            spec.data.noise_std.to_bits(),
            spec.data.class_sep.to_bits(),
            spec.seed,
        )
    }

    /// Loads (or returns the memoized copy of) the workload `spec`
    /// describes with `workload` in place of its own workload field.
    pub fn load(
        &self,
        spec: &ExperimentSpec,
        workload: &WorkloadSpec,
        assets_dir: &std::path::Path,
    ) -> std::sync::Arc<Workload> {
        let slot = self
            .slots
            .lock()
            .expect("workload memo lock")
            .entry(WorkloadMemo::key(spec, workload))
            .or_default()
            .clone();
        // per-key lock held across the load: the map lock is already
        // released, so only callers of *this* workload wait
        let mut guard = slot.lock().expect("workload slot lock");
        if let Some(hit) = &*guard {
            return hit.clone();
        }
        let mut resolved = spec.clone();
        resolved.workload = workload.clone();
        let data = spec_data(&resolved);
        let loaded = std::sync::Arc::new(load_workload(&resolved, &data, assets_dir));
        *guard = Some(loaded.clone());
        loaded
    }
}

/// In-memory memo of clean (fault-free) accuracies keyed by
/// (model digest, eval settings, dataset shape), shared across every
/// campaign of a run.
///
/// Per-layer sweeps (Fig. 3) open one campaign session per target and each
/// session's persistent cache keys include the campaign config — so the
/// *same clean network* used to be re-evaluated once per campaign. The
/// clean accuracy depends only on the model bits and the evaluation data,
/// which is exactly this memo's key; replaying it is bit-identical to
/// recomputing it (evaluation is deterministic), so sharing it across
/// campaigns can never change a result.
#[derive(Debug, Default)]
pub struct CleanAccuracyMemo {
    map: Mutex<HashMap<u128, f64>>,
}

impl CleanAccuracyMemo {
    fn get(&self, key: u128) -> Option<f64> {
        self.map.lock().expect("clean memo lock").get(&key).copied()
    }

    fn put(&self, key: u128, accuracy: f64) {
        self.map.lock().expect("clean memo lock").insert(key, accuracy);
    }

    /// Number of memoized clean accuracies.
    pub fn len(&self) -> usize {
        self.map.lock().expect("clean memo lock").len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The campaign cache [`RunContext::campaign_session`] hands to the
/// executor: the persistent on-disk cell store (when caching is enabled
/// and writable) composed with the run-wide [`CleanAccuracyMemo`].
///
/// Cells go straight through to the store. Clean accuracy consults the
/// memo first — so campaigns that share (model, eval settings) evaluate
/// the clean network once per run even under distinct store keys — and
/// populates it from whichever source produces the value first.
pub struct SessionCache<'a> {
    store: Option<StoreSession>,
    memo: &'a CleanAccuracyMemo,
    clean_key: u128,
}

impl SessionCache<'_> {
    /// The persistent store session underneath, when caching is enabled.
    pub fn store(&self) -> Option<&StoreSession> {
        self.store.as_ref()
    }
}

impl CampaignCache for SessionCache<'_> {
    fn lookup(&self, rate_index: usize, repetition: usize) -> Option<RunRecord> {
        self.store.as_ref().and_then(|s| s.lookup(rate_index, repetition))
    }

    fn record(&self, record: &RunRecord) {
        if let Some(s) = &self.store {
            s.record(record);
        }
    }

    fn clean_accuracy(&self) -> Option<f64> {
        if let Some(persisted) = self.store.as_ref().and_then(|s| s.clean_accuracy()) {
            self.memo.put(self.clean_key, persisted);
            return Some(persisted);
        }
        if let Some(memoized) = self.memo.get(self.clean_key) {
            // write the memo hit through so the on-disk session stays
            // complete for cross-process resume
            if let Some(s) = &self.store {
                s.record_clean(memoized);
            }
            return Some(memoized);
        }
        None
    }

    fn record_clean(&self, accuracy: f64) {
        self.memo.put(self.clean_key, accuracy);
        if let Some(s) = &self.store {
            s.record_clean(accuracy);
        }
    }
}

/// Everything one running experiment sees: its spec, the run settings, the
/// shared workload memo, and the output sinks (report buffer, table paths,
/// shape-check failures).
pub struct RunContext<'a> {
    /// The validated spec being executed.
    pub spec: &'a ExperimentSpec,
    /// Output/cache locations and overrides.
    pub settings: &'a RunSettings,
    workloads: &'a WorkloadMemo,
    clean_memo: &'a CleanAccuracyMemo,
    report: String,
    tables: Vec<PathBuf>,
    failures: Vec<String>,
}

impl<'a> RunContext<'a> {
    pub(crate) fn new(
        spec: &'a ExperimentSpec,
        settings: &'a RunSettings,
        workloads: &'a WorkloadMemo,
        clean_memo: &'a CleanAccuracyMemo,
    ) -> Self {
        RunContext {
            spec,
            settings,
            workloads,
            clean_memo,
            report: String::new(),
            tables: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Appends one line to the report buffer.
    pub fn line(&mut self, line: String) {
        self.report.push_str(&line);
        self.report.push('\n');
    }

    /// Writes a table through the shared writer and records its path.
    pub fn emit(&mut self, table: &ResultTable) {
        let path = self.settings.writer().emit(table);
        self.tables.push(path);
    }

    /// Records a failed shape check (reported and reflected in the exit
    /// code by the entry points).
    pub fn fail(&mut self, failure: String) {
        self.failures.push(failure);
    }

    /// The spec's trained workload (memoized across the batch).
    pub fn workload(&self) -> std::sync::Arc<Workload> {
        self.workloads.load(self.spec, &self.spec.workload, &self.settings.assets_dir)
    }

    /// A workload of a specific architecture over the same dataset and
    /// seed (the headline table compares AlexNet and VGG-16 in one run).
    /// When `arch` is the spec's own architecture the spec's workload
    /// hyper-parameters apply; other architectures use their defaults.
    pub fn workload_for_arch(&self, arch: ZooArch) -> std::sync::Arc<Workload> {
        let workload = if self.spec.workload.arch == arch {
            self.spec.workload.clone()
        } else {
            WorkloadSpec::default_for(arch)
        };
        self.workloads.load(self.spec, &workload, &self.settings.assets_dir)
    }

    /// The dataset the spec describes.
    pub fn data(&self) -> SynthCifar {
        spec_data(self.spec)
    }

    /// The spec's evaluation-subset settings.
    pub fn eval_settings(&self) -> EvalSettings {
        EvalSettings {
            subset_size: self.spec.eval_size,
            seed: self.spec.seed,
            batch_size: self.spec.eval_batch,
        }
    }

    /// The evaluation set over a dataset split (usually the test split; the
    /// tuning procedures evaluate on validation data).
    pub fn eval_set(&self, split: &ftclip_data::Dataset) -> EvalSet {
        EvalSet::from_settings(split, &self.eval_settings())
    }

    /// Opens the campaign cache for one campaign: the persistent cell
    /// store (when caching is enabled; an unwritable cache directory
    /// degrades to an uncached run, never a crashed experiment) composed
    /// with the run-wide clean-accuracy memo — so re-evaluating the same
    /// clean network under a different campaign key (the Fig. 3 per-layer
    /// sweeps run one campaign per target) costs one lookup, not one full
    /// evaluation.
    ///
    /// `experiment` scopes the session: the fingerprint cannot see the
    /// evaluation closure, so campaigns only share cells when the label,
    /// eval settings, model bits and campaign config all agree. Specs
    /// evaluating the same model on the same split with the same settings
    /// (e.g. the `fig7` and `headline` presets) deliberately share a label
    /// and reuse each other's cells.
    ///
    /// Every spec field that can change an evaluated accuracy without
    /// changing the model bits is chained here: the eval subset settings
    /// and the dataset shape/difficulty knobs (test images are a pure
    /// function of `(seed, split, index)`, so `test_size`, `noise_std` and
    /// `class_sep` fully pin the evaluation data; the train/val sizes only
    /// reach results through the trained weights, which the model digest
    /// already covers). The clean-accuracy memo key chains the same eval
    /// fields plus the model digest — and nothing campaign-specific, which
    /// is what lets it span campaigns.
    pub fn campaign_session(
        &self,
        experiment: &str,
        net: &Sequential,
        config: &CampaignConfig,
    ) -> SessionCache<'a> {
        self.campaign_session_with_precision(experiment, net, config, ftclip_quant::Precision::F32)
    }

    /// [`RunContext::campaign_session`] with an explicit inference
    /// precision. An int8 campaign evaluates the *quantized twin* of `net`,
    /// so both the store fingerprint and the clean-accuracy memo key chain
    /// the precision — the quantized plan's clean accuracy must never be
    /// replayed as the f32 network's (or vice versa). `F32` chains nothing,
    /// keeping every historical session key byte-stable.
    pub fn campaign_session_with_precision(
        &self,
        experiment: &str,
        net: &Sequential,
        config: &CampaignConfig,
        precision: ftclip_quant::Precision,
    ) -> SessionCache<'a> {
        let chain_precision = |fp: Fingerprint| match precision {
            ftclip_quant::Precision::F32 => fp,
            other => fp.text("precision", &other.to_string()),
        };
        let clean_key = chain_precision(self.chain_eval_fields(
            Fingerprint::new("ftclip-clean-accuracy-v1").uint("model", model_digest(net)),
        ))
        .key()
        .0;
        let store = self.settings.cache_root.clone().and_then(|root| {
            let fingerprint = chain_precision(
                self.chain_eval_fields(campaign_fingerprint(net, config).text("experiment", experiment)),
            );
            match ResultStore::new(root).session(&fingerprint) {
                Ok(session) => {
                    eprintln!(
                        "[cache] {experiment}: {} cell(s) already cached in {}",
                        session.cached_cells(),
                        session.dir().display()
                    );
                    Some(session)
                }
                Err(e) => {
                    eprintln!("[cache] {experiment}: cache unavailable, running uncached ({e})");
                    None
                }
            }
        });
        SessionCache { store, memo: self.clean_memo, clean_key }
    }

    /// Chains every spec field that can change an evaluated accuracy
    /// without changing the model bits onto `fp` — the **one** list both
    /// the store fingerprint and the clean-accuracy memo key build on, so
    /// adding the next user-settable data knob here updates both keys at
    /// once (they must never skew: a memo key missing a knob the store key
    /// has would share clean accuracies across different datasets).
    fn chain_eval_fields(&self, fp: Fingerprint) -> Fingerprint {
        fp.uint("eval_size", self.spec.eval_size as u64)
            .uint("data_seed", self.spec.seed)
            .uint("eval_batch", self.spec.eval_batch as u64)
            .uint("test_size", self.spec.data.test_size as u64)
            .float("noise_std", f64::from(self.spec.data.noise_std))
            .float("class_sep", f64::from(self.spec.data.class_sep))
    }

    pub(crate) fn into_outcome(self) -> (String, Vec<PathBuf>, Vec<String>) {
        (self.report, self.tables, self.failures)
    }
}

/// Executes the spec's procedure against the context.
///
/// # Errors
///
/// [`SpecError::UnknownLayer`] when a named layer target/panel does not
/// exist in the workload network (only resolvable once the network exists —
/// everything else is caught by validation before any work starts).
pub fn run_procedure(ctx: &mut RunContext) -> Result<(), SpecError> {
    match ctx.spec.procedure {
        Procedure::ModelSizes => figures::model_sizes(ctx),
        Procedure::Architecture => figures::architecture(ctx),
        Procedure::CampaignSummary => figures::campaign_summary(ctx),
        Procedure::PerLayerResilience => figures::per_layer_resilience(ctx),
        Procedure::ActivationDistributions => figures::activation_distributions(ctx),
        Procedure::MethodologyWalkthrough => figures::methodology_walkthrough(ctx),
        Procedure::AucSweep => figures::auc_sweep(ctx),
        Procedure::TuningTrace => figures::tuning_trace(ctx),
        Procedure::Resilience => figures::resilience_figure(ctx),
        Procedure::HeadlineTable => figures::headline_table(ctx),
        Procedure::AblationClipMode => ablations::clip_mode(ctx),
        Procedure::AblationFaultModels => ablations::fault_models(ctx),
        Procedure::AblationBiasFaults => ablations::bias_faults(ctx),
        Procedure::AblationHwBaselines => ablations::hw_baselines(ctx),
        Procedure::AblationLeakyClip => ablations::leaky_clip(ctx),
        Procedure::AblationTunerVsGrid => ablations::tuner_vs_grid(ctx),
        Procedure::BitPositionSweep => figures::bit_position_sweep(ctx),
        Procedure::CalibrateDataset => calibrate::dataset_sweep(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_fault::{Campaign, FaultModel, InjectionTarget};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn clean_accuracy_is_memoized_across_sessions() {
        let memo = CleanAccuracyMemo::default();
        assert!(memo.is_empty());
        let first = SessionCache { store: None, memo: &memo, clean_key: 42 };
        assert_eq!(first.clean_accuracy(), None);
        first.record_clean(0.625);
        // a *different* session over the same (model, eval) key replays it
        let second = SessionCache { store: None, memo: &memo, clean_key: 42 };
        assert_eq!(second.clean_accuracy(), Some(0.625));
        // a different key stays independent
        let other = SessionCache { store: None, memo: &memo, clean_key: 7 };
        assert_eq!(other.clean_accuracy(), None);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn primed_memo_skips_every_clean_evaluation() {
        // the fig3 shape: a second campaign over the same clean network
        // must not pay for the clean evaluation again — with a rate-0 grid
        // (every cell takes the clean shortcut) it evaluates nothing at all
        let memo = CleanAccuracyMemo::default();
        SessionCache { store: None, memo: &memo, clean_key: 9 }.record_clean(0.5);
        let cache = SessionCache { store: None, memo: &memo, clean_key: 9 };
        let cfg = CampaignConfig {
            fault_rates: vec![0.0],
            repetitions: 3,
            seed: 1,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let evals = AtomicUsize::new(0);
        let net = ftclip_nn::Sequential::new(vec![ftclip_nn::Layer::linear(4, 2, 0)]);
        let result = Campaign::new(cfg).run(&net, 1, &cache, |_: &Sequential| {
            evals.fetch_add(1, Ordering::Relaxed);
            0.25
        });
        assert_eq!(evals.load(Ordering::Relaxed), 0, "memoized clean must skip evaluation");
        assert_eq!(result.clean_accuracy, 0.5);
        assert!(result.accuracies[0].iter().all(|&a| a == 0.5));
    }
}
