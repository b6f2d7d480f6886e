//! Step 3: threshold fine-tuning (the paper's Algorithm 1).
//!
//! The AUC-vs-threshold curve of a layer is bell-shaped with its peak below
//! `ACT_max` (paper §IV-C, Fig. 5b). Algorithm 1 exploits this: starting
//! from the interval `[0, ACT_max]`, it repeatedly evaluates the AUC at the
//! four boundaries of three equal sub-intervals, keeps the region around the
//! best boundary, and stops after `N` iterations — or earlier, once the
//! boundary AUCs flatten out (`max Δ ≤ δ`) and at least `M` iterations have
//! run.
//!
//! Each refined interval's endpoints are two boundaries of the previous
//! iteration, with the same bits. An AUC measurement is a pure function of
//! the network state, so the tuner memoises boundary AUCs: `k` iterations
//! cost `4 + 2(k − 1)` campaigns, against the `4k` evaluations the paper
//! counts. The boundaries of one iteration are measured concurrently.

use std::collections::HashMap;

use ftclip_nn::{NnError, Sequential};

use crate::{AucConfig, EvalSet, SiteEvaluator};

/// Stopping and measurement parameters for [`ThresholdTuner`].
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Maximum number of interval-refinement iterations (the paper's `N`).
    pub max_iterations: usize,
    /// Minimum iterations before the flatness test may stop the search
    /// (the paper's `M`, `M < N`).
    pub min_iterations: usize,
    /// Flatness threshold on adjacent boundary-AUC differences (the
    /// paper's `δ`).
    pub delta: f64,
    /// The AUC measurement campaign (its `target` is overridden per layer
    /// by [`crate::Methodology`]).
    pub auc: AucConfig,
}

impl Default for TunerConfig {
    /// `N = 4`, `M = 2`, `δ = 0.01`, default [`AucConfig`].
    fn default() -> Self {
        TunerConfig {
            max_iterations: 4,
            min_iterations: 2,
            delta: 0.01,
            auc: AucConfig::default(),
        }
    }
}

/// One iteration of the interval search (the panels of paper Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTrace {
    /// The search interval `S` at the start of the iteration.
    pub interval: (f32, f32),
    /// The four evaluated boundaries `T1..T4`.
    pub boundaries: [f32; 4],
    /// The AUC measured at each boundary.
    pub aucs: [f64; 4],
    /// Index (0-based) of the boundary with the highest AUC.
    pub best_index: usize,
}

/// Result of tuning one activation site.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The selected clipping threshold `T`.
    pub threshold: f32,
    /// The AUC measured at the selected threshold.
    pub auc: f64,
    /// Per-iteration trace (Fig. 6).
    pub trace: Vec<IterationTrace>,
    /// AUC evaluations the algorithm makes: one per boundary per iteration
    /// for Algorithm 1, one per grid point for the grid search. This is
    /// the paper's cost measure.
    pub evaluations: usize,
    /// AUC campaigns actually run. Algorithm 1 reuses the AUCs of the
    /// boundaries an iteration keeps, so this is at most `evaluations`.
    pub campaigns: usize,
}

/// The Algorithm 1 threshold tuner.
///
/// # Example
///
/// ```no_run
/// use ftclip_core::{EvalSet, ThresholdTuner, TunerConfig};
/// use ftclip_data::SynthCifar;
/// use ftclip_models::alexnet_cifar;
///
/// let data = SynthCifar::builder().seed(1).build();
/// let mut net = alexnet_cifar(0.25, 10, 42);
/// let sites = net.activation_sites();
/// net.convert_to_clipped(&vec![10.0; sites.len()]);
/// let eval = EvalSet::from_subset(data.val(), 128, 7, 64);
/// let tuner = ThresholdTuner::new(TunerConfig::default());
/// let outcome = tuner.tune_site(&mut net, sites[0], 10.0, &eval).unwrap();
/// println!("T = {}", outcome.threshold);
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdTuner {
    config: TunerConfig,
}

impl ThresholdTuner {
    /// Creates a tuner.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_iterations ≤ max_iterations` and `delta ≥ 0`.
    pub fn new(config: TunerConfig) -> Self {
        assert!(config.max_iterations >= 1, "need at least one iteration");
        assert!(
            config.min_iterations >= 1 && config.min_iterations <= config.max_iterations,
            "require 1 ≤ M ≤ N"
        );
        assert!(config.delta >= 0.0, "delta must be non-negative");
        ThresholdTuner { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TunerConfig {
        &self.config
    }

    /// Tunes the clipping threshold of the activation layer at `site`,
    /// searching `[0, act_max]`. The site's threshold is left set to the
    /// returned value.
    ///
    /// Boundary AUCs are memoised for the length of the call. An
    /// iteration's boundaries are fixed before any of them is measured, so
    /// the ones not yet in the memo are measured together, in one
    /// [`SiteEvaluator::aucs`] call over the thread budget, and share a
    /// prefix cache whenever [`SiteEvaluator`] allows it. None of this
    /// changes a result bit: every boundary AUC is the one a campaign over
    /// a fresh evaluator measures alone.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if `site` is not a clipped activation layer or
    /// `act_max` is not a positive finite value.
    pub fn tune_site(
        &self,
        net: &mut Sequential,
        site: usize,
        act_max: f32,
        eval: &EvalSet,
    ) -> Result<TuneOutcome, NnError> {
        if !(act_max.is_finite() && act_max > 0.0) {
            return Err(NnError::InvalidThreshold { value: act_max });
        }
        // validate the site before spending any evaluations
        net.set_clip_threshold(site, act_max)?;

        let evaluators = SiteEvaluator::new(&self.config.auc, eval, site);
        // effective threshold bits → AUC; only `site`'s threshold changes
        // within this call, so the key determines the measurement
        let mut memo: HashMap<u32, f64> = HashMap::new();
        let mut trace: Vec<IterationTrace> = Vec::new();
        let mut interval = (0.0f32, act_max);
        let mut best_t = act_max;
        let mut best_auc = f64::NEG_INFINITY;

        for counter in 1..=self.config.max_iterations {
            let (lo, hi) = interval;
            let third = (hi - lo) / 3.0;
            let boundaries = [lo, lo + third, lo + 2.0 * third, hi];
            // T = 0 means "clip everything"; evaluate it as an
            // infinitesimal positive threshold.
            let effective = boundaries.map(|t| if t > 0.0 { t } else { act_max * 1e-6 });
            // the iteration's boundaries are fixed before any is measured,
            // so the new ones are measured together
            let mut fresh: Vec<f32> = Vec::new();
            for t in effective {
                if !memo.contains_key(&t.to_bits()) && !fresh.iter().any(|f| f.to_bits() == t.to_bits()) {
                    fresh.push(t);
                }
            }
            for (t, auc) in fresh.iter().zip(evaluators.aucs(net, &fresh)?) {
                memo.insert(t.to_bits(), auc);
            }
            let aucs = effective.map(|t| memo[&t.to_bits()]);
            let best_index = argmax(&aucs);
            trace.push(IterationTrace { interval, boundaries, aucs, best_index });
            best_t = boundaries[best_index];
            best_auc = aucs[best_index];

            // Interval_Search (paper lines 17–26)
            interval = match best_index {
                3 => (boundaries[2], boundaries[3]),
                0 => (boundaries[0], boundaries[1]),
                i => (boundaries[i - 1], boundaries[i + 1]),
            };

            // flatness stop (paper lines 11–14)
            let max_delta = aucs.windows(2).map(|w| (w[1] - w[0]).abs()).fold(0.0f64, f64::max);
            if max_delta <= self.config.delta && counter >= self.config.min_iterations {
                break;
            }
        }

        let final_t = if best_t > 0.0 { best_t } else { act_max * 1e-6 };
        net.set_clip_threshold(site, final_t)?;
        Ok(TuneOutcome {
            threshold: final_t,
            auc: best_auc,
            evaluations: 4 * trace.len(),
            trace,
            campaigns: memo.len(),
        })
    }
}

/// Exhaustive baseline for Algorithm 1: evaluates the AUC at `points`
/// evenly-spaced thresholds in `(0, act_max]` and keeps the best.
///
/// Costs `points` AUC evaluations versus Algorithm 1's `4 × iterations`;
/// `ftclip run ablation-tuner-vs-grid` compares quality per evaluation.
/// All points are measured together, in one [`SiteEvaluator::aucs`] call
/// over the thread budget, and share a prefix cache whenever
/// [`SiteEvaluator`] allows it. The first maximum wins, and the site's
/// threshold is left set to it.
///
/// # Errors
///
/// Returns [`NnError`] if `site` is not a clipped activation layer or
/// `act_max` is not positive and finite.
///
/// # Panics
///
/// Panics if `points == 0`.
pub fn grid_search_site(
    net: &mut Sequential,
    site: usize,
    act_max: f32,
    points: usize,
    auc: &AucConfig,
    eval: &EvalSet,
) -> Result<TuneOutcome, NnError> {
    assert!(points > 0, "need at least one grid point");
    if !(act_max.is_finite() && act_max > 0.0) {
        return Err(NnError::InvalidThreshold { value: act_max });
    }
    net.set_clip_threshold(site, act_max)?;
    let thresholds: Vec<f32> = (1..=points).map(|k| act_max * k as f32 / points as f32).collect();
    let scores = SiteEvaluator::new(auc, eval, site).aucs(net, &thresholds)?;
    let mut best = (act_max, f64::NEG_INFINITY);
    for (&t, score) in thresholds.iter().zip(scores) {
        // strict: the first maximum wins
        if score > best.1 {
            best = (t, score);
        }
    }
    net.set_clip_threshold(site, best.0)?;
    Ok(TuneOutcome {
        threshold: best.0,
        auc: best.1,
        trace: Vec::new(),
        evaluations: points,
        campaigns: points,
    })
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_data::SynthCifar;
    use ftclip_fault::{FaultModel, InjectionTarget};
    use ftclip_nn::Layer;

    fn setup() -> (Sequential, EvalSet) {
        let data = SynthCifar::builder()
            .seed(21)
            .train_size(16)
            .val_size(16)
            .test_size(48)
            .image_size(8)
            .noise_std(0.1)
            .build();
        let net = Sequential::new(vec![
            Layer::conv2d(3, 4, 3, 1, 1, 40),
            Layer::relu(),
            Layer::flatten(),
            Layer::linear(4 * 64, 10, 41),
        ]);
        let eval = EvalSet::from_dataset(data.val(), 16);
        (net, eval)
    }

    fn quick_cfg() -> TunerConfig {
        TunerConfig {
            max_iterations: 2,
            min_iterations: 2, // force both iterations even if the AUCs tie
            delta: 0.0,
            auc: AucConfig {
                fault_rates: vec![1e-4, 1e-3],
                repetitions: 2,
                seed: 5,
                model: FaultModel::BitFlip,
                target: InjectionTarget::Layer(0),
            },
        }
    }

    #[test]
    fn tune_site_returns_threshold_within_search_range() {
        let (mut net, eval) = setup();
        net.convert_to_clipped(&[5.0]);
        let tuner = ThresholdTuner::new(quick_cfg());
        let out = tuner.tune_site(&mut net, 1, 5.0, &eval).unwrap();
        assert!(out.threshold > 0.0 && out.threshold <= 5.0);
        assert_eq!(out.trace.len(), 2);
        assert_eq!(out.evaluations, 8); // 2 iterations × 4 boundaries
                                        // the network's threshold was left at the tuned value
        assert_eq!(net.clip_thresholds()[0], Some(out.threshold));
    }

    /// Tunes site 1 of the test net under `cfg` and returns
    /// `(evaluations, campaigns)`.
    fn counts(cfg: TunerConfig) -> (usize, usize) {
        let (mut net, eval) = setup();
        net.convert_to_clipped(&[5.0]);
        let out = ThresholdTuner::new(cfg).tune_site(&mut net, 1, 5.0, &eval).unwrap();
        assert_eq!(out.evaluations, 4 * out.trace.len());
        (out.evaluations, out.campaigns)
    }

    #[test]
    fn kept_boundaries_are_not_measured_again() {
        // N = 3, no early stop: 4 + 2 + 2 campaigns for 12 boundaries
        let mut cfg = quick_cfg();
        cfg.max_iterations = 3;
        cfg.min_iterations = 3;
        assert_eq!(counts(cfg), (12, 8));
    }

    #[test]
    fn early_stop_counts_only_the_iterations_run() {
        // the flatness test stops after M = 2 of N = 5 iterations
        let mut cfg = quick_cfg();
        cfg.max_iterations = 5;
        cfg.min_iterations = 2;
        cfg.delta = 10.0;
        assert_eq!(counts(cfg), (8, 6));
    }

    #[test]
    fn a_single_iteration_measures_every_boundary() {
        let mut cfg = quick_cfg();
        cfg.max_iterations = 1;
        cfg.min_iterations = 1;
        assert_eq!(counts(cfg), (4, 4));
    }

    #[test]
    fn interval_shrinks_each_iteration() {
        let (mut net, eval) = setup();
        net.convert_to_clipped(&[5.0]);
        let mut cfg = quick_cfg();
        cfg.max_iterations = 3;
        cfg.min_iterations = 3;
        let out = ThresholdTuner::new(cfg).tune_site(&mut net, 1, 5.0, &eval).unwrap();
        for w in out.trace.windows(2) {
            let w0 = w[0].interval.1 - w[0].interval.0;
            let w1 = w[1].interval.1 - w[1].interval.0;
            assert!(w1 < w0, "interval must shrink: {w0} → {w1}");
        }
    }

    #[test]
    fn flatness_stop_respects_min_iterations() {
        let (mut net, eval) = setup();
        net.convert_to_clipped(&[5.0]);
        let mut cfg = quick_cfg();
        cfg.max_iterations = 5;
        cfg.min_iterations = 3;
        cfg.delta = 10.0; // everything counts as flat
        let out = ThresholdTuner::new(cfg).tune_site(&mut net, 1, 5.0, &eval).unwrap();
        assert!(out.trace.len() >= 3, "must run at least M iterations, ran {}", out.trace.len());
    }

    #[test]
    fn flat_aucs_stop_early_after_min_iterations() {
        // On an untrained network the AUC barely depends on the threshold,
        // so with M = 1 the flatness test fires on the first iteration.
        let (mut net, eval) = setup();
        net.convert_to_clipped(&[5.0]);
        let mut cfg = quick_cfg();
        cfg.max_iterations = 5;
        cfg.min_iterations = 1;
        cfg.delta = 1.0; // any measurement counts as flat
        let out = ThresholdTuner::new(cfg).tune_site(&mut net, 1, 5.0, &eval).unwrap();
        assert_eq!(out.trace.len(), 1);
    }

    #[test]
    fn rejects_unclipped_site() {
        let (mut net, eval) = setup();
        // no convert_to_clipped — site 1 is a plain ReLU
        let tuner = ThresholdTuner::new(quick_cfg());
        assert!(tuner.tune_site(&mut net, 1, 5.0, &eval).is_err());
    }

    #[test]
    fn rejects_bad_act_max() {
        let (mut net, eval) = setup();
        net.convert_to_clipped(&[5.0]);
        let tuner = ThresholdTuner::new(quick_cfg());
        assert!(tuner.tune_site(&mut net, 1, f32::NAN, &eval).is_err());
        assert!(tuner.tune_site(&mut net, 1, -1.0, &eval).is_err());
    }

    #[test]
    fn grid_search_returns_best_of_grid() {
        let (mut net, eval) = setup();
        net.convert_to_clipped(&[5.0]);
        let cfg = quick_cfg();
        let out = grid_search_site(&mut net, 1, 5.0, 4, &cfg.auc, &eval).unwrap();
        assert_eq!((out.evaluations, out.campaigns), (4, 4));
        assert!(out.threshold > 0.0 && out.threshold <= 5.0);
        assert_eq!(net.clip_thresholds()[0], Some(out.threshold));
        assert!(out.trace.is_empty());
    }

    #[test]
    fn grid_search_rejects_unclipped_site() {
        let (mut net, eval) = setup();
        let cfg = quick_cfg();
        assert!(grid_search_site(&mut net, 1, 5.0, 2, &cfg.auc, &eval).is_err());
    }

    #[test]
    #[should_panic(expected = "1 ≤ M ≤ N")]
    fn config_validates_m_le_n() {
        ThresholdTuner::new(TunerConfig {
            max_iterations: 2,
            min_iterations: 5,
            delta: 0.0,
            auc: AucConfig::default(),
        });
    }
}
