//! The AUC resilience metric (paper §IV-B).
//!
//! To capture resilience across a *range* of fault rates in one number, the
//! paper integrates the accuracy-vs-fault-rate curve with the trapezoidal
//! rule, normalizing both axes so a network that held 100 % accuracy at
//! every considered rate scores exactly 1.

use std::sync::{Arc, OnceLock};

use ftclip_fault::{
    current_observer, with_observer, Campaign, CampaignConfig, CampaignObserver, CampaignResult, FaultModel,
    InjectionTarget, NoCache,
};
use ftclip_nn::{NnError, Sequential};

use crate::evalset::CutFill;
use crate::{EvalSet, SuffixAccuracy};

/// Area under the accuracy-vs-normalized-fault-rate curve.
///
/// `points` are `(fault_rate, accuracy)` pairs; accuracies are fractions in
/// `[0, 1]`. The x axis is normalized by the maximum rate, so the ideal
/// curve (accuracy 1 everywhere) has AUC 1. Points are sorted by rate
/// internally; supply the clean point `(0, clean_accuracy)` to anchor the
/// curve the way the paper does.
///
/// # Panics
///
/// Panics if fewer than two points are supplied, any rate is negative or
/// non-finite, all rates are zero, or any accuracy is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use ftclip_core::auc_normalized;
///
/// // perfectly resilient network
/// assert!((auc_normalized(&[(0.0, 1.0), (1e-5, 1.0)]) - 1.0).abs() < 1e-12);
/// // linear collapse to zero
/// assert!((auc_normalized(&[(0.0, 1.0), (1e-5, 0.0)]) - 0.5).abs() < 1e-12);
/// ```
pub fn auc_normalized(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "auc needs at least two points");
    for &(rate, acc) in points {
        assert!(rate.is_finite() && rate >= 0.0, "invalid fault rate {rate}");
        assert!((0.0..=1.0).contains(&acc), "accuracy {acc} outside [0, 1]");
    }
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("rates are finite"));
    let max_rate = sorted.last().expect("non-empty").0;
    assert!(max_rate > 0.0, "all fault rates are zero");
    let mut area = 0.0;
    for w in sorted.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        area += (x1 - x0) / max_rate * (y0 + y1) / 2.0;
    }
    area
}

/// AUC of a completed campaign, anchored at the clean-accuracy point.
pub fn campaign_auc(result: &CampaignResult) -> f64 {
    auc_normalized(&result.curve_with_clean_point())
}

/// Configuration of the fault-injection campaigns used to *measure* AUC
/// during threshold tuning and in the Fig. 5 sweep.
///
/// Smaller grids/repetitions than the headline evaluations keep Step 3
/// tractable — the paper itself notes the compute intensity of repeated
/// evaluation (§V-B).
#[derive(Debug, Clone)]
pub struct AucConfig {
    /// Fault rates of the measurement campaign.
    pub fault_rates: Vec<f64>,
    /// Repetitions per rate.
    pub repetitions: usize,
    /// Base seed for the campaign.
    pub seed: u64,
    /// Fault model.
    pub model: FaultModel,
    /// Which memory the campaign corrupts (per-layer during tuning).
    pub target: InjectionTarget,
}

impl Default for AucConfig {
    /// Paper-range grid at a tuning-friendly size: rates
    /// `{1e-7, 1e-6, 5e-6, 1e-5}`, 5 repetitions, bit flips on all weights.
    fn default() -> Self {
        AucConfig {
            fault_rates: vec![1e-7, 1e-6, 5e-6, 1e-5],
            repetitions: 5,
            seed: 0xC11F,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
        }
    }
}

impl AucConfig {
    /// Measures the AUC of `net` by running the configured campaign through
    /// `eval` and integrating the resulting curve (with the clean point
    /// prepended). The network is only read: each campaign worker corrupts
    /// its own clone.
    pub fn measure(&self, net: &Sequential, eval: &SuffixAccuracy) -> f64 {
        campaign_auc(&self.run_campaign(net, eval))
    }

    /// Runs the configured campaign and returns the full result (used where
    /// the curve itself is needed, e.g. Fig. 5a).
    ///
    /// Tuning measures AUC hundreds of times, so the campaign grid fans out
    /// over worker threads ([`Campaign::run`] at
    /// [`ftclip_tensor::num_threads`]) and cells evaluate through the
    /// suffix engine: per-layer tuning targets re-execute only the layers
    /// from the fault onwards, reusing memoized clean prefix activations.
    /// Results are bit-identical to a single-threaded, full-forward run at
    /// any `FTCLIP_THREADS` and any cache state.
    ///
    /// The caller owns the prefix cache behind `eval` and so decides how
    /// long it lives. One evaluator may serve several measurements as long
    /// as [`PrefixCache`](crate::PrefixCache)'s binding contract holds
    /// between them: the layers below every cut the campaign uses must not
    /// change. [`SiteEvaluator`] applies that rule for threshold tuning.
    pub fn run_campaign(&self, net: &Sequential, eval: &SuffixAccuracy) -> CampaignResult {
        self.campaign().run(net, ftclip_tensor::num_threads(), &NoCache, eval.clone())
    }

    fn campaign(&self) -> Campaign {
        Campaign::new(CampaignConfig {
            fault_rates: self.fault_rates.clone(),
            repetitions: self.repetitions,
            seed: self.seed,
            model: self.model,
            target: self.target,
            stopping: None,
        })
    }
}

/// Passes on only the cancellation polls of the observer it wraps.
struct CancelOnly(Arc<dyn CampaignObserver>);

impl CampaignObserver for CancelOnly {
    fn cancel_requested(&self) -> bool {
        self.0.cancel_requested()
    }
}

/// Measures `auc`'s campaign at thresholds of one clipping site, and hands
/// out the evaluator each measurement uses.
///
/// A `Layer(l)` target with `l < site` cuts every cell, and the clean pass,
/// at `l`. So every cached prefix activation enters a layer `≤ l` and was
/// computed by layers below `l` only; the site is not among them, and its
/// threshold cannot reach the cache. One [`SuffixAccuracy`] then serves
/// every measurement, and the prefix below `l` is computed once per site
/// instead of once per campaign.
///
/// That evaluator is also resumed at the site. The cell seed does not
/// depend on the threshold, so every threshold sees the same fault sets in
/// `l`, and the same activation entering the site: it is computed once per
/// (cell, site) and once for the clean pass, and each measurement runs
/// only the layers from the site onwards. Measurements that run at the
/// same time share that cut cache slot by slot: one computes a slot, the
/// others wait for it.
///
/// Such measurements walk the same cells in the same order, so the one in
/// front would compute every slot, all in its own worker's allocator
/// arena. Before the first concurrent measurement, a fill pass therefore
/// computes every cell's activation entering the site once, with the cells
/// spread over the workers as one campaign spreads them, which keeps peak
/// memory close to that of measuring the thresholds one by one.
///
/// Any other target may cut at or beyond the site (a whole-network cell
/// cuts at its earliest fault), so each measurement gets a fresh evaluator.
#[derive(Debug, Clone)]
pub struct SiteEvaluator {
    auc: AucConfig,
    site: usize,
    eval: EvalSet,
    shared: Option<SuffixAccuracy>,
    filled: OnceLock<()>,
}

impl SiteEvaluator {
    /// The evaluators for measurements of `auc`'s campaign over `eval`
    /// while the threshold of the activation layer at `site` is varied.
    pub fn new(auc: &AucConfig, eval: &EvalSet, site: usize) -> Self {
        let shared = matches!(auc.target, InjectionTarget::Layer(l) if l < site)
            .then(|| eval.suffix_eval().at_site(site));
        SiteEvaluator {
            auc: auc.clone(),
            site,
            eval: eval.clone(),
            shared,
            filled: OnceLock::new(),
        }
    }

    /// The evaluator for the next measurement: the site's shared one, or a
    /// fresh one.
    pub fn evaluator(&self) -> SuffixAccuracy {
        self.shared.clone().unwrap_or_else(|| self.eval.suffix_eval())
    }

    /// The AUC of `net` with the site's threshold set to each of
    /// `thresholds`, in order; `net` itself is not changed.
    ///
    /// The measurements are independent, so they go through one
    /// [`ftclip_tensor::fan_out`] over [`ftclip_tensor::num_threads`]: each
    /// worker sets the threshold on its own clone of `net` and runs
    /// [`AucConfig::measure`] under its share of the budget, which the
    /// campaign splits further over its cells. The calling thread's
    /// campaign observer is installed in every worker, so cells are still
    /// reported and cancellation still unwinds at the next cell boundary.
    /// The fill pass (see above) reports no cells, but is polled for
    /// cancellation too. Every AUC is bit-identical to a measurement made
    /// alone.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the site is not a clipped activation layer or
    /// a threshold is not positive and finite.
    pub fn aucs(&self, net: &Sequential, thresholds: &[f32]) -> Result<Vec<f64>, NnError> {
        let threads = ftclip_tensor::num_threads();
        let observer = current_observer();
        if threads.min(thresholds.len()) > 1 {
            self.fill_cut_cache(net, threads, observer.as_ref());
        }
        ftclip_tensor::fan_out(
            threads,
            thresholds.len(),
            || net.clone(),
            |local, i| {
                local.set_clip_threshold(self.site, thresholds[i])?;
                let measure = || self.auc.measure(local, &self.evaluator());
                Ok(match &observer {
                    Some(obs) => with_observer(obs.clone(), measure),
                    None => measure(),
                })
            },
        )
        .into_iter()
        .collect()
    }

    /// The fill pass, once per site: one campaign over `net` at `threads`
    /// whose evaluator only fills the shared cut cache (which does not
    /// depend on the site's threshold). It is not a measurement, so
    /// `observer` hears none of its cells, but a cancel still unwinds it
    /// at a cell boundary.
    fn fill_cut_cache(&self, net: &Sequential, threads: usize, observer: Option<&Arc<dyn CampaignObserver>>) {
        let Some(shared) = &self.shared else {
            return;
        };
        self.filled.get_or_init(|| {
            let fill = || {
                self.auc.campaign().run(net, threads, &NoCache, CutFill(shared.clone()));
            };
            match observer {
                Some(obs) => with_observer(Arc::new(CancelOnly(obs.clone())), fill),
                None => fill(),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_curve_scores_one() {
        let pts = [(0.0, 1.0), (1e-6, 1.0), (1e-5, 1.0)];
        assert!((auc_normalized(&pts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn order_does_not_matter() {
        let a = auc_normalized(&[(0.0, 1.0), (1e-5, 0.5), (1e-6, 0.9)]);
        let b = auc_normalized(&[(1e-5, 0.5), (0.0, 1.0), (1e-6, 0.9)]);
        assert_eq!(a, b);
    }

    #[test]
    fn dominated_curve_scores_lower() {
        let strong = [(0.0, 1.0), (1e-6, 0.95), (1e-5, 0.9)];
        let weak = [(0.0, 1.0), (1e-6, 0.5), (1e-5, 0.1)];
        assert!(auc_normalized(&strong) > auc_normalized(&weak));
    }

    #[test]
    fn matches_hand_computed_trapezoid() {
        // x normalized by 1e-5: points at 0, 0.1, 1.0
        // area = 0.1·(1+0.8)/2 + 0.9·(0.8+0.2)/2 = 0.09 + 0.45 = 0.54
        let pts = [(0.0, 1.0), (1e-6, 0.8), (1e-5, 0.2)];
        assert!((auc_normalized(&pts) - 0.54).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn rejects_single_point() {
        auc_normalized(&[(0.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_accuracy_above_one() {
        auc_normalized(&[(0.0, 1.5), (1e-5, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "all fault rates are zero")]
    fn rejects_degenerate_rates() {
        auc_normalized(&[(0.0, 1.0), (0.0, 0.5)]);
    }

    #[test]
    fn site_evaluators_share_a_cache_only_below_the_site() {
        use ftclip_data::SynthCifar;
        use std::sync::Arc;
        let data = SynthCifar::builder().seed(4).train_size(8).val_size(8).test_size(8).build();
        let eval = EvalSet::from_dataset(data.test(), 8);
        let shares = |target: InjectionTarget, site: usize| {
            let cfg = AucConfig { target, ..AucConfig::default() };
            let evaluators = SiteEvaluator::new(&cfg, &eval, site);
            Arc::ptr_eq(evaluators.evaluator().cache(), evaluators.evaluator().cache())
        };
        assert!(shares(InjectionTarget::Layer(3), 4));
        assert!(!shares(InjectionTarget::Layer(4), 4), "a cut at the site sees its threshold");
        assert!(!shares(InjectionTarget::Layer(5), 4));
        assert!(!shares(InjectionTarget::AllWeights, 4));
        assert!(!shares(InjectionTarget::AllParams, 4));
        assert!(!shares(InjectionTarget::Biases, 4));
    }

    #[test]
    fn measure_scores_within_the_unit_range() {
        use ftclip_data::SynthCifar;
        use ftclip_nn::Layer;
        let data = SynthCifar::builder().seed(4).train_size(16).val_size(16).test_size(16).build();
        let eval = EvalSet::from_dataset(data.test(), 8);
        let net = Sequential::new(vec![Layer::flatten(), Layer::linear(3 * 32 * 32, 10, 2)]);
        let cfg = AucConfig {
            fault_rates: vec![1e-5, 1e-4],
            repetitions: 2,
            ..AucConfig::default()
        };
        let auc = cfg.measure(&net, &eval.suffix_eval());
        assert!((0.0..=1.0).contains(&auc));
    }
}
