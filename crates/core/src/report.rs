//! Protected-vs-unprotected comparisons (the paper's §V-B numbers).

use ftclip_fault::CampaignResult;

use crate::campaign_auc;

/// Relative improvement of `new` over `old` in percent, the form the paper
/// quotes its headline numbers in (e.g. "173.32 % improvement in the AUC").
///
/// Returns `f64::INFINITY` when `old` is zero and `new` is positive.
pub fn improvement_percent(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old) / old * 100.0
    }
}

/// Side-by-side comparison of two campaigns run on the same fault-rate grid
/// — the protected (clipped) network against the unprotected baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The shared fault-rate grid.
    pub fault_rates: Vec<f64>,
    /// Mean accuracy per rate, protected network.
    pub protected_mean: Vec<f64>,
    /// Mean accuracy per rate, unprotected network.
    pub unprotected_mean: Vec<f64>,
    /// AUC of the protected network (clean point included).
    pub protected_auc: f64,
    /// AUC of the unprotected network (clean point included).
    pub unprotected_auc: f64,
    /// Clean accuracy of the protected network.
    pub protected_clean: f64,
    /// Clean accuracy of the unprotected network.
    pub unprotected_clean: f64,
}

impl Comparison {
    /// Builds a comparison from two campaign results.
    ///
    /// # Panics
    ///
    /// Panics if the two campaigns used different fault-rate grids.
    pub fn new(protected: &CampaignResult, unprotected: &CampaignResult) -> Self {
        assert_eq!(
            protected.fault_rates, unprotected.fault_rates,
            "comparison requires a shared fault-rate grid"
        );
        Comparison {
            fault_rates: protected.fault_rates.clone(),
            protected_mean: protected.mean_accuracies(),
            unprotected_mean: unprotected.mean_accuracies(),
            protected_auc: campaign_auc(protected),
            unprotected_auc: campaign_auc(unprotected),
            protected_clean: protected.clean_accuracy,
            unprotected_clean: unprotected.clean_accuracy,
        }
    }

    /// AUC improvement of the protected network, in percent (the paper's
    /// headline metric).
    pub fn auc_improvement_percent(&self) -> f64 {
        improvement_percent(self.unprotected_auc, self.protected_auc)
    }

    /// Accuracy improvement at the rate closest to `rate`, in percent
    /// (e.g. the paper's "69.36 % compared to 51.16 % at 5×10⁻⁷").
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty (not constructible via [`Comparison::new`]).
    pub fn accuracy_improvement_at(&self, rate: f64) -> f64 {
        let idx = self.closest_rate_index(rate);
        improvement_percent(self.unprotected_mean[idx], self.protected_mean[idx])
    }

    /// `(protected, unprotected)` mean accuracy at the rate closest to
    /// `rate`.
    pub fn accuracies_at(&self, rate: f64) -> (f64, f64) {
        let idx = self.closest_rate_index(rate);
        (self.protected_mean[idx], self.unprotected_mean[idx])
    }

    fn closest_rate_index(&self, rate: f64) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &r) in self.fault_rates.iter().enumerate() {
            let d = (r - rate).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Formats the comparison as the rows of a paper-style results table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("fault_rate    protected  unprotected  improvement%\n");
        out.push_str(&format!(
            "{:<13} {:>9.4}  {:>11.4}  {:>11.2}\n",
            "0 (clean)",
            self.protected_clean,
            self.unprotected_clean,
            improvement_percent(self.unprotected_clean, self.protected_clean)
        ));
        for (i, &rate) in self.fault_rates.iter().enumerate() {
            out.push_str(&format!(
                "{:<13.1e} {:>9.4}  {:>11.4}  {:>11.2}\n",
                rate,
                self.protected_mean[i],
                self.unprotected_mean[i],
                improvement_percent(self.unprotected_mean[i], self.protected_mean[i])
            ));
        }
        out.push_str(&format!(
            "AUC           {:>9.4}  {:>11.4}  {:>11.2}\n",
            self.protected_auc,
            self.unprotected_auc,
            self.auc_improvement_percent()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget, NoCache};
    use ftclip_nn::{Layer, Sequential};

    fn result_with_evals(seed: u64, degrade: f64) -> CampaignResult {
        let net = Sequential::new(vec![Layer::linear(4, 2, seed)]);
        let cfg = CampaignConfig {
            fault_rates: vec![1e-4, 1e-3],
            repetitions: 2,
            seed,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let call = std::sync::atomic::AtomicUsize::new(0);
        Campaign::new(cfg).run(&net, 1, &NoCache, move |_: &Sequential| {
            let call = call.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            (1.0 - degrade * call as f64 / 10.0).max(0.0)
        })
    }

    #[test]
    fn improvement_percent_basics() {
        assert!((improvement_percent(0.5, 0.75) - 50.0).abs() < 1e-12);
        assert!((improvement_percent(0.8, 0.4) + 50.0).abs() < 1e-12);
        assert_eq!(improvement_percent(0.0, 0.0), 0.0);
        assert_eq!(improvement_percent(0.0, 0.1), f64::INFINITY);
    }

    #[test]
    fn comparison_computes_both_aucs() {
        let strong = result_with_evals(1, 0.1);
        let weak = result_with_evals(1, 1.5);
        let cmp = Comparison::new(&strong, &weak);
        assert!(cmp.protected_auc > cmp.unprotected_auc);
        assert!(cmp.auc_improvement_percent() > 0.0);
    }

    #[test]
    fn accuracy_lookup_snaps_to_closest_rate() {
        let a = result_with_evals(2, 0.2);
        let b = result_with_evals(2, 0.9);
        let cmp = Comparison::new(&a, &b);
        let (p, u) = cmp.accuracies_at(9e-4); // snaps to 1e-3
        assert_eq!(p, cmp.protected_mean[1]);
        assert_eq!(u, cmp.unprotected_mean[1]);
    }

    #[test]
    fn table_contains_all_rates() {
        let a = result_with_evals(3, 0.2);
        let b = result_with_evals(3, 0.9);
        let table = Comparison::new(&a, &b).to_table();
        assert!(table.contains("clean"));
        assert!(table.contains("AUC"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "shared fault-rate grid")]
    fn rejects_mismatched_grids() {
        let a = result_with_evals(4, 0.2);
        let mut b = result_with_evals(4, 0.2);
        b.fault_rates.push(1.0);
        Comparison::new(&a, &b);
    }
}
