//! Experiment harness for the FT-ClipAct reproduction.
//!
//! The experiment surface is **declarative**: a serializable
//! [`ExperimentSpec`] names a procedure (one of the paper's figure or
//! ablation shapes), the workload, dataset/eval settings, fault model,
//! injection target, rate grid, repetitions, protection and seed; the
//! [`Runner`] executes one spec or a batch of specs under one shared
//! thread budget (`FTCLIP_THREADS`), model zoo and campaign cell cache.
//! The `ftclip` binary is the driver:
//!
//! ```text
//! ftclip list                        # catalogue of presets
//! ftclip describe fig7               # a preset's spec as JSON
//! ftclip run fig1b --quick           # run one preset
//! ftclip run fig1b fig7 fig8         # batch-schedule several
//! ftclip run my_specs.json           # run custom spec file(s)
//! ftclip run --all-figs              # every figure + ablation
//! ```
//!
//! | preset | reproduces |
//! |--------|------------|
//! | `fig1a` | Fig. 1a — parameter memory of the model zoo |
//! | `fig1b` | Fig. 1b — accuracy vs fault rate, unprotected AlexNet |
//! | `fig2` | Fig. 2 — LeNet-5 architecture walkthrough |
//! | `fig3-layers` | Fig. 3 (a, e, i) — per-layer fault sensitivity |
//! | `fig3-acts` | Fig. 3 (b–l) — activation distributions under fault |
//! | `fig4` | Fig. 4 — methodology walkthrough |
//! | `fig5` | Fig. 5 — AUC vs clipping threshold (CONV-4) |
//! | `fig6` | Fig. 6 — Algorithm 1 interval-search trace |
//! | `fig7` | Fig. 7 — AlexNet, clipped vs unprotected |
//! | `fig8` | Fig. 8 — VGG-16, clipped vs unprotected |
//! | `headline` | §V-B headline numbers |
//! | `ablation-*` | six beyond-paper ablations |
//! | `calibrate` | dataset difficulty sweep (reproducibility tool) |
//!
//! Every run accepts `--scale small|paper` (default `small`), `--quick`,
//! `--reps N`, `--eval-size N` and `--seed N`, prints the series the paper
//! plots, and writes paired CSV + JSON result files under `results/`
//! through the typed [`ResultWriter`]. Campaign cells are served from the
//! persistent cache under `results/cache/` (see `ftclip_store`; disable
//! with `--no-cache` or `FTCLIP_CACHE=off`), so re-runs and interrupted
//! grids only pay for cells not yet on disk — with bit-identical results.
//! `ftclip` is the crate's only binary; `ftclip help` prints its usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod pipeline;
pub mod presets;
pub mod runner;
pub mod settings;
pub mod spec;
pub mod tables;
pub mod workload;

pub use experiments::resilience::{evaluate_resilience, print_panels, shape_checks, ResilienceEvaluation};
pub use experiments::{CleanAccuracyMemo, RunContext, SessionCache, WorkloadMemo};
pub use pipeline::{experiment_methodology, harden_network, tuning_auc_config};
pub use presets::{figure_presets, preset, presets, Preset};
pub use runner::{RunOutcome, Runner};
pub use settings::{default_assets_dir, ResultWriter, RunSettings, Scale};
pub use spec::{
    DataSpec, ExperimentSpec, Procedure, Protection, RateGrid, SpecBuilder, SpecError, TargetSpec,
    WorkloadSpec, ALL_PROCEDURES,
};
pub use tables::{campaign_summary_table, resilience_box_table, resilience_mean_table};
pub use workload::{load_workload, spec_data, Workload};
