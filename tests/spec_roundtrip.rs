//! Property tests for the declarative experiment spec: randomly generated
//! valid specs must survive JSON serialization → parsing with an identical
//! value *and* an identical cache fingerprint (the acceptance contract of
//! the spec layer), and the fingerprint must be stable across field
//! mutations only when the spec truly is the same experiment.

use ftclip_bench::{
    DataSpec, ExperimentSpec, Procedure, Protection, RateGrid, TargetSpec, WorkloadSpec, ALL_PROCEDURES,
};
use ftclipact::fault::FaultModel;
use ftclipact::models::ZooArch;
use proptest::prelude::*;

const ARCHS: [ZooArch; 5] =
    [ZooArch::AlexNet, ZooArch::AlexNetLeaky, ZooArch::Vgg16, ZooArch::Vgg16Bn, ZooArch::LeNet5];
const FAULT_MODELS: [FaultModel; 3] = [FaultModel::BitFlip, FaultModel::StuckAt0, FaultModel::StuckAt1];
const PROTECTIONS: [Protection; 4] =
    [Protection::Unprotected, Protection::ClippedTuned, Protection::ClippedActMax, Protection::Saturated];
const LAYER_NAMES: [&str; 4] = ["CONV-1", "CONV-4", "CONV-5", "FC-1"];

#[allow(clippy::too_many_arguments)]
fn build_spec(
    procedure_i: usize,
    arch_i: usize,
    fault_i: usize,
    protection_i: usize,
    target_i: usize,
    grid_i: usize,
    rates: Vec<f64>,
    layers_mask: usize,
    reps: usize,
    eval_size: usize,
    seed: u64,
    epochs: usize,
    width_mult: f64,
    noise_std: f64,
) -> ExperimentSpec {
    let procedure = ALL_PROCEDURES[procedure_i % ALL_PROCEDURES.len()];
    let target = match target_i % 5 {
        0 => TargetSpec::AllWeights,
        1 => TargetSpec::AllParams,
        2 => TargetSpec::Biases,
        3 => TargetSpec::Layer(LAYER_NAMES[target_i % LAYER_NAMES.len()].to_string()),
        _ => TargetSpec::Index(target_i % 13),
    };
    let grid = match grid_i % 3 {
        0 => RateGrid::PaperScaled,
        1 => RateGrid::Scaled(rates.clone()),
        _ => RateGrid::Absolute(rates),
    };
    let mut layers: Vec<String> = LAYER_NAMES
        .iter()
        .enumerate()
        .filter(|(i, _)| layers_mask & (1 << i) != 0)
        .map(|(_, l)| l.to_string())
        .collect();

    // make the random draw satisfy the procedure's structural requirements
    if procedure.uses_layer_panels() && layers.is_empty() {
        layers.push("CONV-1".to_string());
    }
    let target = if procedure.needs_layer_target() {
        TargetSpec::Layer(LAYER_NAMES[target_i % LAYER_NAMES.len()].to_string())
    } else {
        target
    };

    // the leaky-clip ablation only supports the AlexNet workload
    let arch = if procedure == Procedure::AblationLeakyClip {
        ZooArch::AlexNet
    } else {
        ARCHS[arch_i % ARCHS.len()]
    };
    let mut workload = WorkloadSpec::default_for(arch);
    workload.epochs = epochs;
    workload.width_mult = width_mult;
    let data = DataSpec { noise_std: noise_std as f32, ..DataSpec::default() };

    ExperimentSpec::builder(procedure, &format!("spec-{seed}"))
        .workload(workload)
        .data(data)
        .eval_size(eval_size)
        .repetitions(reps)
        .seed(seed)
        .fault_model(FAULT_MODELS[fault_i % FAULT_MODELS.len()])
        .target(target)
        .rates(grid)
        .protection(PROTECTIONS[protection_i % PROTECTIONS.len()])
        .layers(layers)
        .build()
        .expect("constructed spec is valid")
}

proptest! {
    #[test]
    fn json_round_trip_is_identity_and_fingerprint_stable(
        procedure_i in 0usize..17,
        arch_i in 0usize..5,
        fault_i in 0usize..3,
        protection_i in 0usize..4,
        target_i in 0usize..10,
        grid_i in 0usize..3,
        rates in proptest::collection::vec(1e-9f64..1.0, 1..6),
        layers_mask in 0usize..16,
        reps in 1usize..60,
        eval_size in 1usize..2048,
        seed in 0u64..u64::MAX,
        epochs in 0usize..20,
        width_mult in 0.01f64..1.0,
        noise_std in 0.0f64..1.0,
    ) {
        let spec = build_spec(
            procedure_i, arch_i, fault_i, protection_i, target_i, grid_i, rates,
            layers_mask, reps, eval_size, seed, epochs, width_mult, noise_std,
        );
        let json = spec.to_json();
        let back = ExperimentSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{json}"));
        prop_assert_eq!(&back, &spec, "parsed spec must equal the original");
        prop_assert_eq!(
            back.fingerprint().key(),
            spec.fingerprint().key(),
            "fingerprint must survive the JSON round trip"
        );
        // a second trip is a fixpoint (serialization is deterministic)
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn fingerprint_changes_when_the_experiment_changes(
        seed in 0u64..10_000,
        reps in 1usize..50,
    ) {
        let spec = ExperimentSpec::builder(Procedure::CampaignSummary, "base")
            .repetitions(reps)
            .seed(seed)
            .build()
            .unwrap();
        let mut reseeded = spec.clone();
        reseeded.seed = seed.wrapping_add(1);
        prop_assert_ne!(spec.fingerprint().key(), reseeded.fingerprint().key());
        let mut more_reps = spec.clone();
        more_reps.repetitions = reps + 1;
        prop_assert_ne!(spec.fingerprint().key(), more_reps.fingerprint().key());
    }
}

#[test]
fn spec_files_with_bad_value_types_fail_loudly_rather_than_defaulting() {
    // a typo'd *value* type must never silently fall back to a default
    let err =
        ExperimentSpec::from_json(r#"{"name": "x", "procedure": "model-sizes", "seed": "not-a-number"}"#)
            .unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");
    // seeds above 2^53 round-trip through the string encoding
    let big = format!(r#"{{"name": "x", "procedure": "model-sizes", "seed": "{}"}}"#, u64::MAX);
    assert_eq!(ExperimentSpec::from_json(&big).unwrap().seed, u64::MAX);
}
