//! Shared methodology configuration for the figure binaries.

use ftclip_core::{AucConfig, HardenReport, Methodology, ProfileConfig, TunerConfig};
use ftclip_data::Dataset;
use ftclip_fault::{FaultModel, InjectionTarget};
use ftclip_nn::Sequential;

/// The tuning-time AUC campaign used by the figure binaries: a reduced grid
/// (threshold search needs relative comparisons, not publication-grade error
/// bars); see `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`.
pub fn tuning_auc_config(seed: u64, rate_scale: f64) -> AucConfig {
    AucConfig {
        fault_rates: vec![1e-7, 1e-6, 1e-5]
            .into_iter()
            .map(|r: f64| (r * rate_scale).min(1.0))
            .collect(),
        repetitions: 3,
        seed,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights, // overridden per layer by the methodology
    }
}

/// The methodology instance shared by Figs. 5–8: 256-image validation
/// subsets, Algorithm 1 with `N = 3`, `M = 2`, `δ = 0.01`.
pub fn experiment_methodology(seed: u64, subset_size: usize, rate_scale: f64) -> Methodology {
    Methodology {
        profile: ProfileConfig { subset_size, seed, batch_size: 64, bins: 64 },
        tuner: TunerConfig {
            max_iterations: 3,
            min_iterations: 2,
            delta: 0.01,
            auc: tuning_auc_config(seed ^ 0x7171, rate_scale),
        },
    }
}

/// Hardens `net` in place with the shared methodology and logs progress.
pub fn harden_network(
    net: &mut Sequential,
    validation: &Dataset,
    seed: u64,
    subset_size: usize,
    rate_scale: f64,
) -> HardenReport {
    let methodology = experiment_methodology(seed, subset_size, rate_scale);
    eprintln!("[harden] profiling + tuning {} activation sites …", net.activation_sites().len());
    let start = std::time::Instant::now();
    let report = methodology.harden(net, validation);
    for layer in &report.per_layer {
        eprintln!(
            "[harden] {}: ACT_max {:.4} → T {:.4} (AUC {:.4}, {} evals)",
            layer.feeds_from,
            layer.act_max,
            layer.outcome.threshold,
            layer.outcome.auc,
            layer.outcome.evaluations
        );
    }
    eprintln!("[harden] done in {:.1}s", start.elapsed().as_secs_f64());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methodology_configs_are_consistent() {
        let m = experiment_methodology(1, 128, 10.0);
        assert_eq!(m.profile.subset_size, 128);
        assert!(m.tuner.min_iterations <= m.tuner.max_iterations);
        assert!(!m.tuner.auc.fault_rates.is_empty());
    }
}
