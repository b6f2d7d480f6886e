//! The AUC resilience metric (paper §IV-B).
//!
//! To capture resilience across a *range* of fault rates in one number, the
//! paper integrates the accuracy-vs-fault-rate curve with the trapezoidal
//! rule, normalizing both axes so a network that held 100 % accuracy at
//! every considered rate scores exactly 1.

use ftclip_fault::{Campaign, CampaignConfig, CampaignResult, FaultModel, InjectionTarget, NoCache};
use ftclip_nn::Sequential;

use crate::EvalSet;

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
    /// Measures the AUC of `net` by running the configured campaign and
    /// integrating the resulting curve (with the clean point prepended).
    ///
    /// The network is restored to its pre-campaign state before returning.
    pub fn measure(&self, net: &mut Sequential, eval: &EvalSet) -> f64 {
        campaign_auc(&self.run_campaign(net, eval))
    }

    /// Runs the configured campaign and returns the full result (used where
    /// the curve itself is needed, e.g. Fig. 5a).
    ///
    /// Tuning measures AUC hundreds of times, so the campaign grid fans out
    /// over worker threads ([`Campaign::run`] at
    /// [`ftclip_tensor::num_threads`]) and cells evaluate
    /// through the suffix engine ([`EvalSet::suffix_eval`]): per-layer
    /// tuning targets re-execute only the layers below the fault, reusing
    /// memoized clean prefix activations. Results are bit-identical to a
    /// single-threaded, full-forward run at any `FTCLIP_THREADS`. The prefix
    /// cache lives for one campaign — the tuner mutates thresholds between
    /// measurements, so activations never carry across network states.
    pub fn run_campaign(&self, net: &mut Sequential, eval: &EvalSet) -> CampaignResult {
        let cfg = CampaignConfig {
            fault_rates: self.fault_rates.clone(),
            repetitions: self.repetitions,
            seed: self.seed,
            model: self.model,
            target: self.target,
            stopping: None,
        };
        Campaign::new(cfg).run(net, ftclip_tensor::num_threads(), &NoCache, eval.suffix_eval())
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
    fn measure_runs_and_restores_network() {
        use ftclip_data::SynthCifar;
        use ftclip_nn::Layer;
        let data = SynthCifar::builder().seed(4).train_size(16).val_size(16).test_size(16).build();
        let eval = EvalSet::from_dataset(data.test(), 8);
        let mut net = Sequential::new(vec![Layer::flatten(), Layer::linear(3 * 32 * 32, 10, 2)]);
        let before: Vec<f32> = {
            let mut v = Vec::new();
            net.visit_params(&mut |_, _, t, _| v.extend_from_slice(t.data()));
            v
        };
        let cfg = AucConfig {
            fault_rates: vec![1e-5, 1e-4],
            repetitions: 2,
            ..AucConfig::default()
        };
        let auc = cfg.measure(&mut net, &eval);
        assert!((0.0..=1.0).contains(&auc));
        let after: Vec<f32> = {
            let mut v = Vec::new();
            net.visit_params(&mut |_, _, t, _| v.extend_from_slice(t.data()));
            v
        };
        assert_eq!(before, after);
    }
}
