//! The beyond-the-paper ablation procedures.

use ftclip_core::{auc_normalized, campaign_auc, EvalSet, ResultTable};
use ftclip_fault::{
    derive_seed, inject_with_protection, Campaign, DoubleErrorPolicy, FaultModel, InjectionTarget, MemoryMap,
    ProtectionScheme,
};
use ftclip_models::alexnet_cifar_with_activation;
use ftclip_nn::sched::LrSchedule;
use ftclip_nn::{evaluate, Activation, OptimizerKind, Sequential, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::figures::{profiled_act_max, with_saturated};
use crate::experiments::{outln, RunContext};
use crate::pipeline::{harden_network, tuning_auc_config};
use crate::spec::SpecError;

/// Hardens a copy of the workload network on its validation split with the
/// tuning-subset convention the ablations share.
fn hardened_twin(ctx: &RunContext, workload: &crate::workload::Workload) -> Sequential {
    let mut hardened = workload.model.network.clone();
    let data = &workload.data;
    harden_network(
        &mut hardened,
        data.val(),
        ctx.spec.seed,
        256.min(data.val().len()),
        workload.rate_scale(),
    );
    hardened
}

/// Ablation: clip-to-zero (the paper's choice) vs clip-to-threshold
/// (ReLU6-style saturation) vs unprotected.
pub fn clip_mode(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let base = workload.model.network.clone();
    let eval = ctx.eval_set(workload.data.test());

    let thresholds = profiled_act_max(ctx, &workload);
    let mut clip_zero = base.clone();
    clip_zero.convert_to_clipped(&thresholds);
    let saturated = with_saturated(&base, &thresholds);

    let mut cfg = ctx
        .spec
        .campaign_config_with_scale(workload.rate_scale())
        .map_err(SpecError::Campaign)?;
    cfg.target = ctx.spec.target.resolve(&base)?;
    let campaign = Campaign::new(cfg);

    let variants: Vec<(&str, Sequential)> =
        vec![("unprotected", base), ("saturate", saturated), ("clip-to-zero", clip_zero)];

    outln!(ctx, "Ablation — clipping mode (thresholds = profiled ACT_max, no fine-tuning)\n");
    outln!(
        ctx,
        "{:<12} {:>12} {:>12} {:>12}",
        "fault_rate",
        "unprotected",
        "saturate",
        "clip-to-zero"
    );
    let mut results = Vec::new();
    for (name, net) in variants {
        eprintln!("[ablation] campaign on {name} …");
        let session = ctx.campaign_session("ablation_clip_mode", &net, campaign.config());
        let res = campaign.run(&net, ftclip_tensor::num_threads(), &session, eval.suffix_eval());
        results.push((name, res));
    }
    let mut table =
        ResultTable::new(&ctx.spec.name, &["fault_rate", "unprotected", "saturate", "clip_to_zero"]);
    let rates = results[0].1.fault_rates.clone();
    let means: Vec<Vec<f64>> = results.iter().map(|(_, r)| r.mean_accuracies()).collect();
    for (i, &rate) in rates.iter().enumerate() {
        outln!(ctx, "{:<12.1e} {:>12.4} {:>12.4} {:>12.4}", rate, means[0][i], means[1][i], means[2][i]);
        table.row([rate.into(), means[0][i].into(), means[1][i].into(), means[2][i].into()]);
    }
    ctx.emit(&table);

    outln!(ctx, "\nAUC:");
    for (name, res) in &results {
        outln!(ctx, "  {:<14} {:.4}", name, campaign_auc(res));
    }
    let auc_unprot = campaign_auc(&results[0].1);
    let auc_sat = campaign_auc(&results[1].1);
    let auc_zero = campaign_auc(&results[2].1);
    outln!(
        ctx,
        "\nshape check: clip-to-zero ≥ saturate ({}), both ≥ unprotected ({})",
        auc_zero >= auc_sat,
        auc_sat >= auc_unprot && auc_zero >= auc_unprot
    );
    Ok(())
}

/// Ablation: transient bit flips vs permanent stuck-at-0 / stuck-at-1
/// faults, on the unprotected and the hardened network.
pub fn fault_models(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let eval = ctx.eval_set(workload.data.test());
    let hardened = hardened_twin(ctx, &workload);

    let models = [FaultModel::BitFlip, FaultModel::StuckAt0, FaultModel::StuckAt1];
    let mut table = ResultTable::new(&ctx.spec.name, &["fault_model", "network", "fault_rate", "mean_acc"]);

    outln!(ctx, "Ablation — fault models × protection\n");
    let mut aucs = Vec::new();
    for model in models {
        for (net_name, base) in [("unprotected", &workload.model.network), ("clipped", &hardened)] {
            let net = base.clone();
            let mut cfg = ctx
                .spec
                .campaign_config_with_scale(workload.rate_scale())
                .map_err(SpecError::Campaign)?;
            cfg.model = model;
            cfg.target = ctx.spec.target.resolve(&net)?;
            let campaign = Campaign::new(cfg);
            eprintln!("[ablation] {model} on {net_name} …");
            let session = ctx.campaign_session("ablation_fault_models", &net, campaign.config());
            let res = campaign.run(&net, ftclip_tensor::num_threads(), &session, eval.suffix_eval());
            let means = res.mean_accuracies();
            for (i, &rate) in res.fault_rates.iter().enumerate() {
                table.row([model.to_string().into(), net_name.into(), rate.into(), means[i].into()]);
            }
            let auc = campaign_auc(&res);
            outln!(ctx, "{:<12} {:<12} AUC {:.4}", model.to_string(), net_name, auc);
            aucs.push((model, net_name, auc));
        }
    }
    ctx.emit(&table);

    let auc_of = |m: FaultModel, n: &str| aucs.iter().find(|(am, an, _)| *am == m && *an == n).unwrap().2;
    outln!(
        ctx,
        "\nshape checks: stuck-at-0 ≈ harmless on unprotected ({}), stuck-at-1 ≤ bit-flip on unprotected ({}), clipping recovers stuck-at-1 ({})",
        auc_of(FaultModel::StuckAt0, "unprotected") > auc_of(FaultModel::BitFlip, "unprotected"),
        auc_of(FaultModel::StuckAt1, "unprotected") <= auc_of(FaultModel::BitFlip, "unprotected") + 0.05,
        auc_of(FaultModel::StuckAt1, "clipped") > auc_of(FaultModel::StuckAt1, "unprotected")
    );
    Ok(())
}

/// Ablation: where do faults hurt — weights, biases, or both?
pub fn bias_faults(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let eval = ctx.eval_set(workload.data.test());
    let hardened = hardened_twin(ctx, &workload);

    // bias memories are tiny: the preset uses a wider absolute rate grid so
    // faults actually land
    let rates = ctx.spec.rates.resolve(workload.rate_scale());
    let targets = [InjectionTarget::AllWeights, InjectionTarget::Biases, InjectionTarget::AllParams];

    outln!(ctx, "Ablation — injection targets (per-bit rates; bias memory ≪ weight memory)\n");
    for target in targets {
        let map = MemoryMap::build(&workload.model.network, target);
        outln!(ctx, "target {:<12} covers {:>9} bits", target.to_string(), map.total_bits());
    }
    outln!(ctx);

    let mut table = ResultTable::new(&ctx.spec.name, &["target", "network", "fault_rate", "mean_acc"]);
    outln!(
        ctx,
        "{:<12} {:<12} {}  AUC",
        "target",
        "network",
        rates.iter().map(|r| format!("{r:>10.0e}")).collect::<String>()
    );
    for target in targets {
        for (name, base) in [("unprotected", &workload.model.network), ("clipped", &hardened)] {
            let net = base.clone();
            let mut cfg = ctx
                .spec
                .campaign_config_with_scale(workload.rate_scale())
                .map_err(SpecError::Campaign)?;
            cfg.target = target;
            let campaign = Campaign::new(cfg);
            let session = ctx.campaign_session("ablation_bias_faults", &net, campaign.config());
            let res = campaign.run(&net, ftclip_tensor::num_threads(), &session, eval.suffix_eval());
            let means = res.mean_accuracies();
            outln!(
                ctx,
                "{:<12} {:<12} {}  {:.4}",
                target.to_string(),
                name,
                means.iter().map(|m| format!("{m:>10.4}")).collect::<String>(),
                campaign_auc(&res)
            );
            for (i, &rate) in rates.iter().enumerate() {
                table.row([target.to_string().into(), name.into(), rate.into(), means[i].into()]);
            }
        }
    }
    ctx.emit(&table);
    outln!(ctx, "\nshape check: bias-only damage requires much higher rates than all-weights");
    Ok(())
}

struct HwVariant {
    name: &'static str,
    scheme: ProtectionScheme,
    clipped: bool,
}

/// Ablation: clipped activations vs the hardware mitigations the paper
/// argues against — SEC-DED ECC and TMR — at equal *physical* per-bit
/// fault rates.
pub fn hw_baselines(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let eval = ctx.eval_set(workload.data.test());
    let hardened = hardened_twin(ctx, &workload);

    let variants = [
        HwVariant {
            name: "unprotected",
            scheme: ProtectionScheme::None,
            clipped: false,
        },
        HwVariant {
            name: "clipped",
            scheme: ProtectionScheme::None,
            clipped: true,
        },
        HwVariant {
            name: "sec-ded",
            scheme: ProtectionScheme::SecDed(DoubleErrorPolicy::ZeroWord),
            clipped: false,
        },
        HwVariant { name: "tmr", scheme: ProtectionScheme::Tmr, clipped: false },
        HwVariant {
            name: "clipped+sec-ded",
            scheme: ProtectionScheme::SecDed(DoubleErrorPolicy::ZeroWord),
            clipped: true,
        },
    ];

    // memory-size-scaled paper grid (see docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset); its top end is high
    // enough that the ECC knee (double faults per word) becomes visible
    let rates = ctx.spec.rates.resolve(workload.rate_scale());
    let reps = ctx.spec.repetitions;
    let target = ctx.spec.target.resolve(&workload.model.network)?;

    let mut table =
        ResultTable::new(&ctx.spec.name, &["variant", "memory_overhead_pct", "fault_rate", "mean_acc"]);

    outln!(ctx, "Ablation — clipping vs hardware baselines (equal physical per-bit rates)\n");
    outln!(
        ctx,
        "{:<18} {:>9} {}",
        "variant",
        "mem+%",
        rates.iter().map(|r| format!("{r:>8.0e}")).collect::<String>()
    );
    let mut aucs: Vec<(String, f64, f64)> = Vec::new();
    for variant in &variants {
        let base: &Sequential = if variant.clipped { &hardened } else { &workload.model.network };
        let mut net = base.clone();
        let mut means = Vec::with_capacity(rates.len());
        for (i, &rate) in rates.iter().enumerate() {
            let mut acc_sum = 0.0;
            for rep in 0..reps {
                let mut rng = StdRng::seed_from_u64(derive_seed(ctx.spec.seed, i, rep));
                let handle = inject_with_protection(
                    &mut net,
                    target,
                    ctx.spec.fault_model,
                    rate,
                    variant.scheme,
                    &mut rng,
                );
                acc_sum += eval.accuracy(&net);
                handle.undo(&mut net);
            }
            means.push(acc_sum / reps as f64);
        }
        let overhead = variant.scheme.memory_overhead_percent();
        outln!(
            ctx,
            "{:<18} {:>9.1} {}",
            variant.name,
            overhead,
            means.iter().map(|m| format!("{m:>8.3}")).collect::<String>()
        );
        for (i, &rate) in rates.iter().enumerate() {
            table.row([variant.name.into(), overhead.into(), rate.into(), means[i].into()]);
        }
        let mut pts = vec![(0.0, eval.accuracy(&net))];
        pts.extend(rates.iter().copied().zip(means.iter().copied()));
        aucs.push((variant.name.to_string(), overhead, auc_normalized(&pts)));
        eprintln!("[hw-baselines] {} done", variant.name);
    }
    ctx.emit(&table);

    outln!(ctx, "\n{:<18} {:>9} {:>8}", "variant", "mem+%", "AUC");
    for (name, overhead, auc) in &aucs {
        outln!(ctx, "{:<18} {:>9.1} {:>8.4}", name, overhead, auc);
    }
    let auc_of = |n: &str| aucs.iter().find(|(name, _, _)| name == n).unwrap().2;
    outln!(
        ctx,
        "\nshape checks: every protection beats unprotected ({}), clipping is memory-free (true), \
         combined clipped+ECC is best or tied ({})",
        aucs.iter().all(|(n, _, a)| n == "unprotected" || *a >= auc_of("unprotected")),
        auc_of("clipped+sec-ded") + 0.02 >= aucs.iter().map(|(_, _, a)| *a).fold(f64::MIN, f64::max)
    );
    Ok(())
}

/// Ablation: the clipped **Leaky-ReLU** (the paper's §IV-A generalization).
///
/// Trains a Leaky-ReLU twin with the spec's workload hyper-parameters
/// (not via the zoo: the activation function is not a zoo axis), clips it
/// with profiled thresholds, and verifies the mitigation transfers.
pub fn leaky_clip(ctx: &mut RunContext) -> Result<(), SpecError> {
    let data = ctx.data();
    let w = &ctx.spec.workload;

    eprintln!("[ablation] training Leaky-ReLU AlexNet …");
    let mut net =
        alexnet_cifar_with_activation(w.width_mult, 10, ctx.spec.seed, Activation::LeakyRelu { slope: 0.01 });
    Trainer::builder()
        .epochs(w.epochs)
        .batch_size(w.batch_size)
        .schedule(LrSchedule::Cosine { lr: w.lr, min_lr: w.lr / 100.0, total_epochs: w.epochs })
        .optimizer(OptimizerKind::Sgd { momentum: 0.9, weight_decay: 5e-4 })
        .seed(ctx.spec.seed)
        .augment(w.augment)
        .verbose(std::env::var_os("FTCLIP_VERBOSE").is_some())
        .build()
        .fit(
            &mut net,
            data.train().images(),
            data.train().labels(),
            Some((data.val().images(), data.val().labels())),
        );
    let test_acc = evaluate(&net, data.test().images(), data.test().labels(), 64);
    eprintln!("[ablation] leaky AlexNet test accuracy {test_acc:.3}");

    let eval = ctx.eval_set(data.test());
    let profiles = ftclip_core::profile_network(
        &net,
        data.val().subset(256.min(data.val().len()), ctx.spec.seed).images(),
        64,
        32,
    );
    let thresholds: Vec<f32> = profiles.iter().map(|p| p.act_max.max(f32::MIN_POSITIVE)).collect();
    let mut clipped = net.clone();
    clipped.convert_to_clipped(&thresholds);
    assert!(matches!(
        clipped.activation_at(clipped.activation_sites()[0]),
        Some(Activation::ClippedLeakyRelu { .. })
    ));

    let rate_scale = ftclip_models::alexnet_cifar(1.0, 10, 0).param_count() as f64 / net.param_count() as f64;
    let mut cfg = ctx.spec.campaign_config_with_scale(rate_scale).map_err(SpecError::Campaign)?;
    cfg.target = ctx.spec.target.resolve(&net)?;
    let campaign = Campaign::new(cfg);
    eprintln!("[ablation] campaigns …");
    let unprot_session = ctx.campaign_session("ablation_leaky_clip", &net, campaign.config());
    let unprotected = campaign.run(&net, ftclip_tensor::num_threads(), &unprot_session, eval.suffix_eval());
    let prot_session = ctx.campaign_session("ablation_leaky_clip", &clipped, campaign.config());
    let protected = campaign.run(&clipped, ftclip_tensor::num_threads(), &prot_session, eval.suffix_eval());

    outln!(ctx, "Ablation — clipped Leaky-ReLU (slope 0.01, thresholds = ACT_max)\n");
    outln!(ctx, "clean accuracy: {:.4}\n", unprotected.clean_accuracy);
    outln!(ctx, "{:<12} {:>12} {:>14}", "fault_rate", "clipped", "unprotected");
    let mut table = ResultTable::new(&ctx.spec.name, &["fault_rate", "clipped_leaky", "unprotected_leaky"]);
    for (i, &rate) in protected.fault_rates.iter().enumerate() {
        let p = protected.mean_accuracies()[i];
        let u = unprotected.mean_accuracies()[i];
        outln!(ctx, "{:<12.1e} {:>12.4} {:>14.4}", rate, p, u);
        table.row([rate.into(), p.into(), u.into()]);
    }
    ctx.emit(&table);

    let auc_p = campaign_auc(&protected);
    let auc_u = campaign_auc(&unprotected);
    outln!(
        ctx,
        "\nAUC: clipped {auc_p:.4} vs unprotected {auc_u:.4} ({:+.1}%)",
        (auc_p - auc_u) / auc_u * 100.0
    );
    outln!(ctx, "shape check: mitigation transfers to Leaky-ReLU ({})", auc_p > auc_u);
    Ok(())
}

/// Ablation: Algorithm 1's interval search vs an exhaustive grid search
/// over `(0, ACT_max]` on every activation site.
pub fn tuner_vs_grid(ctx: &mut RunContext) -> Result<(), SpecError> {
    use ftclip_core::{grid_search_site, profile_network, ThresholdTuner, TunerConfig};

    let workload = ctx.workload();
    let data = &workload.data;
    let eval: EvalSet = ctx.eval_set(data.val());

    let subset = data.val().subset(256.min(data.val().len()), ctx.spec.seed);
    let profiles = profile_network(&workload.model.network, subset.images(), 64, 32);
    let sites = workload.model.network.activation_sites();
    let comp_indices = workload.model.network.computational_indices();

    let grid_points = 12usize;
    let mut table = ResultTable::new(&ctx.spec.name, &["site", "method", "threshold", "auc", "evaluations"]);

    outln!(ctx, "Ablation — Algorithm 1 vs exhaustive grid ({grid_points} points)\n");
    outln!(
        ctx,
        "{:<10} {:>12} {:>8} {:>6} | {:>12} {:>8} {:>6}",
        "site",
        "alg1_T",
        "auc",
        "evals",
        "grid_T",
        "auc",
        "evals"
    );
    let mut alg1_total = 0usize;
    let mut grid_total = 0usize;
    let mut alg1_auc_sum = 0.0;
    let mut grid_auc_sum = 0.0;
    for (pos, profile) in profiles.iter().enumerate() {
        let site = sites[pos];
        let feeding = comp_indices.iter().copied().rfind(|&c| c < site).expect("site has feeder");
        let mut auc_cfg = tuning_auc_config(ctx.spec.seed, workload.rate_scale());
        auc_cfg.repetitions = ctx.spec.repetitions.min(3);
        auc_cfg.target = InjectionTarget::Layer(feeding);
        let act_max = profile.act_max.max(f32::MIN_POSITIVE);

        // Algorithm 1
        let mut net1 = workload.model.network.clone();
        let init: Vec<f32> = profiles.iter().map(|p| p.act_max.max(f32::MIN_POSITIVE)).collect();
        net1.convert_to_clipped(&init);
        let tuner = ThresholdTuner::new(TunerConfig {
            max_iterations: 3,
            min_iterations: 2,
            delta: 0.01,
            auc: auc_cfg.clone(),
        });
        let alg1 = tuner.tune_site(&mut net1, site, act_max, &eval).expect("clipped site");

        // grid
        let mut net2 = workload.model.network.clone();
        net2.convert_to_clipped(&init);
        let grid =
            grid_search_site(&mut net2, site, act_max, grid_points, &auc_cfg, &eval).expect("clipped site");

        outln!(
            ctx,
            "{:<10} {:>12.4} {:>8.4} {:>6} | {:>12.4} {:>8.4} {:>6}",
            profile.feeds_from,
            alg1.threshold,
            alg1.auc,
            alg1.evaluations,
            grid.threshold,
            grid.auc,
            grid.evaluations
        );
        table.row([
            profile.feeds_from.as_str().into(),
            "algorithm1".into(),
            alg1.threshold.into(),
            alg1.auc.into(),
            alg1.evaluations.into(),
        ]);
        table.row([
            profile.feeds_from.as_str().into(),
            "grid".into(),
            grid.threshold.into(),
            grid.auc.into(),
            grid.evaluations.into(),
        ]);
        alg1_total += alg1.evaluations;
        grid_total += grid.evaluations;
        alg1_auc_sum += alg1.auc;
        grid_auc_sum += grid.auc;
    }
    ctx.emit(&table);

    outln!(
        ctx,
        "\ntotals: algorithm1 {} evaluations (mean AUC {:.4}) vs grid {} evaluations (mean AUC {:.4})",
        alg1_total,
        alg1_auc_sum / profiles.len() as f64,
        grid_total,
        grid_auc_sum / profiles.len() as f64
    );
    outln!(
        ctx,
        "shape check: algorithm1 within 0.05 AUC of grid ({}) at ≤ {:.0}% of its cost ({})",
        (grid_auc_sum - alg1_auc_sum).abs() / profiles.len() as f64 <= 0.05,
        100.0 * alg1_total as f64 / grid_total as f64,
        alg1_total < grid_total
    );
    Ok(())
}
