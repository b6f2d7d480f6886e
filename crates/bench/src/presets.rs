//! Named experiment presets: every paper figure and ablation as a ready
//! [`ExperimentSpec`].
//!
//! `ftclip run <preset>` executes one of these; `ftclip list` prints the
//! table below. Presets carry the *small*-scale defaults (10 repetitions,
//! 256-image eval subsets) — `--scale paper` or explicit `--reps` /
//! `--eval-size` flags rescale them at the command line. Each preset's spec
//! name is the stem of the CSV/JSON files it writes.

use ftclip_models::ZooArch;

use crate::spec::{ExperimentSpec, Procedure, RateGrid, SpecError, TargetSpec};

/// One named preset: a spec plus its catalogue entry.
#[derive(Debug, Clone)]
pub struct Preset {
    /// The `ftclip run` name.
    pub name: &'static str,
    /// One-line description for `ftclip list`.
    pub about: &'static str,
    /// The spec it runs.
    pub spec: ExperimentSpec,
}

/// The per-layer sweep grid of Fig. 3: wider than the whole-network
/// experiments because single layers hold far fewer bits (the paper sweeps
/// CONV-1 up to 5e-4).
fn per_layer_rates() -> Vec<f64> {
    vec![1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4]
}

/// The AlexNet layers Fig. 3 analyzes.
fn fig3_layers() -> [&'static str; 3] {
    ["CONV-1", "CONV-5", "FC-1"]
}

fn build(
    procedure: Procedure,
    output_name: &str,
    f: impl FnOnce(crate::spec::SpecBuilder) -> crate::spec::SpecBuilder,
) -> ExperimentSpec {
    f(ExperimentSpec::builder(procedure, output_name))
        .build()
        .unwrap_or_else(|e| panic!("preset '{output_name}' must validate: {e}"))
}

/// Every preset, in catalogue order.
pub fn presets() -> Vec<Preset> {
    vec![
        Preset {
            name: "fig1a",
            about: "Fig. 1a — parameter memory of the model zoo",
            spec: build(Procedure::ModelSizes, "fig1a_model_sizes", |b| b),
        },
        Preset {
            name: "fig1b",
            about: "Fig. 1b — accuracy vs fault rate, unprotected AlexNet",
            spec: build(Procedure::CampaignSummary, "fig1b_unprotected_alexnet", |b| b),
        },
        Preset {
            name: "fig1b-adaptive",
            about: "Fig. 1b under sequential sampling — CI-driven early stopping per rate",
            spec: build(Procedure::CampaignSummary, "fig1b_adaptive", |b| {
                b.stopping(ftclip_fault::StoppingRule { target_half_width: 0.02, min_reps: 2, max_reps: 50 })
            }),
        },
        Preset {
            name: "fig2",
            about: "Fig. 2 — LeNet-5 architecture walkthrough",
            spec: build(Procedure::Architecture, "fig2_lenet_architecture", |b| b),
        },
        Preset {
            name: "fig3-layers",
            about: "Fig. 3 (a, e, i) — per-layer fault sensitivity",
            spec: build(Procedure::PerLayerResilience, "fig3_per_layer_resilience", |b| {
                b.rates(RateGrid::Scaled(per_layer_rates())).layers(fig3_layers())
            }),
        },
        Preset {
            name: "fig3-acts",
            about: "Fig. 3 (b–l) — activation distributions under fault",
            spec: build(Procedure::ActivationDistributions, "fig3_activation_distributions", |b| {
                b.layers(fig3_layers())
            }),
        },
        Preset {
            name: "fig4",
            about: "Fig. 4 — methodology walkthrough (profile → clip → tune)",
            spec: build(Procedure::MethodologyWalkthrough, "fig4_methodology_walkthrough", |b| b),
        },
        Preset {
            name: "fig5",
            about: "Fig. 5 — AUC vs clipping threshold (CONV-4)",
            spec: build(Procedure::AucSweep, "fig5_auc_vs_threshold", |b| {
                b.target(TargetSpec::Layer("CONV-4".into()))
            }),
        },
        Preset {
            name: "fig6",
            about: "Fig. 6 — Algorithm 1 interval-search trace",
            spec: build(Procedure::TuningTrace, "fig6_threshold_tuning_trace", |b| {
                b.target(TargetSpec::Layer("CONV-4".into()))
            }),
        },
        Preset {
            name: "fig7",
            about: "Fig. 7 — AlexNet, clipped vs unprotected (mean + box stats)",
            spec: build(Procedure::Resilience, "fig7_alexnet", |b| b),
        },
        Preset {
            name: "fig8",
            about: "Fig. 8 — VGG-16, clipped vs unprotected",
            spec: build(Procedure::Resilience, "fig8_vgg16", |b| b.arch(ZooArch::Vgg16Bn)),
        },
        Preset {
            name: "headline",
            about: "§V-B headline numbers (paper vs measured)",
            spec: build(Procedure::HeadlineTable, "headline_table", |b| b),
        },
        Preset {
            name: "ablation-clip-mode",
            about: "clip-to-zero vs saturate vs unprotected (beyond paper)",
            spec: build(Procedure::AblationClipMode, "ablation_clip_mode", |b| b),
        },
        Preset {
            name: "ablation-fault-models",
            about: "bit-flip vs stuck-at faults × protection (beyond paper)",
            spec: build(Procedure::AblationFaultModels, "ablation_fault_models", |b| b),
        },
        Preset {
            name: "ablation-bias-faults",
            about: "weight vs bias vs all-param injection targets (beyond paper)",
            spec: build(Procedure::AblationBiasFaults, "ablation_bias_faults", |b| {
                b.rates(RateGrid::Absolute(vec![1e-6, 1e-5, 1e-4, 1e-3]))
            }),
        },
        Preset {
            name: "ablation-hw-baselines",
            about: "clipping vs SEC-DED ECC and TMR (beyond paper)",
            spec: build(Procedure::AblationHwBaselines, "ablation_hw_baselines", |b| b),
        },
        Preset {
            name: "ablation-leaky-clip",
            about: "clipped Leaky-ReLU transfer (paper §IV-A)",
            spec: build(Procedure::AblationLeakyClip, "ablation_leaky_clip", |b| b),
        },
        Preset {
            name: "ablation-tuner-vs-grid",
            about: "Algorithm 1 vs exhaustive grid search (beyond paper)",
            spec: build(Procedure::AblationTunerVsGrid, "ablation_tuner_vs_grid", |b| b),
        },
        Preset {
            name: "fig_bitpos",
            about: "bit-position-resolved vulnerability, f32 vs int8 (beyond paper)",
            spec: build(Procedure::BitPositionSweep, "fig_bitpos", |b| {
                // absolute per-site rates: stratified sampling draws over
                // words × |stratum| sites, so the same grid is comparable
                // across strata and precisions
                b.rates(RateGrid::Absolute(vec![1e-6, 1e-5, 1e-4]))
            }),
        },
        Preset {
            name: "calibrate",
            about: "dataset difficulty sweep (reproducibility tool, trains per point)",
            spec: build(Procedure::CalibrateDataset, "calibrate_dataset", |b| b),
        },
    ]
}

/// Looks a preset up by name.
///
/// # Errors
///
/// [`SpecError::UnknownPreset`] when `name` is not in the catalogue.
pub fn preset(name: &str) -> Result<Preset, SpecError> {
    presets()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| SpecError::UnknownPreset(name.to_string()))
}

/// The presets `ftclip run --all-figs` executes: every figure and ablation
/// (the calibration sweep is excluded — it trains eight throwaway models).
pub fn figure_presets() -> Vec<Preset> {
    presets().into_iter().filter(|p| p.name != "calibrate").collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_validates_and_names_are_unique() {
        let all = presets();
        assert_eq!(all.len(), 20);
        let mut names: Vec<&str> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "preset names must be unique");
        let mut outputs: Vec<&str> = all.iter().map(|p| p.spec.name.as_str()).collect();
        outputs.sort_unstable();
        outputs.dedup();
        assert_eq!(outputs.len(), all.len(), "output names must be unique");
        for p in &all {
            p.spec.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn lookup_finds_presets_and_rejects_unknowns() {
        assert_eq!(preset("fig1b").unwrap().spec.name, "fig1b_unprotected_alexnet");
        assert!(matches!(preset("fig99"), Err(SpecError::UnknownPreset(_))));
    }

    #[test]
    fn preset_output_stems_are_api() {
        // output file stems are API: downstream plotting scripts and the CI
        // resume check key on them, and the golden fixtures pin their formats
        for (name, stem) in [
            ("fig1a", "fig1a_model_sizes"),
            ("fig1b", "fig1b_unprotected_alexnet"),
            ("fig3-layers", "fig3_per_layer_resilience"),
            ("fig3-acts", "fig3_activation_distributions"),
            ("fig5", "fig5_auc_vs_threshold"),
            ("fig6", "fig6_threshold_tuning_trace"),
            ("fig7", "fig7_alexnet"),
            ("fig8", "fig8_vgg16"),
            ("headline", "headline_table"),
            ("ablation-clip-mode", "ablation_clip_mode"),
            ("ablation-fault-models", "ablation_fault_models"),
            ("ablation-bias-faults", "ablation_bias_faults"),
            ("ablation-hw-baselines", "ablation_hw_baselines"),
            ("ablation-leaky-clip", "ablation_leaky_clip"),
            ("ablation-tuner-vs-grid", "ablation_tuner_vs_grid"),
        ] {
            assert_eq!(preset(name).unwrap().spec.name, stem);
        }
    }

    #[test]
    fn all_figs_excludes_only_the_calibration_sweep() {
        let figs = figure_presets();
        assert_eq!(figs.len(), presets().len() - 1);
        assert!(figs.iter().all(|p| p.name != "calibrate"));
    }

    #[test]
    fn presets_round_trip_through_json() {
        for p in presets() {
            let back =
                ExperimentSpec::from_json(&p.spec.to_json()).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(back, p.spec, "{}", p.name);
            assert_eq!(back.fingerprint().key(), p.spec.fingerprint().key(), "{}", p.name);
        }
    }
}
