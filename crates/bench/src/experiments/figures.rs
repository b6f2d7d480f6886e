//! The paper-figure procedures (Figs. 1–8 and the §V-B headline table).
//!
//! Each function is the former standalone binary's body, re-expressed over
//! the declarative spec: workload, eval settings, fault configuration and
//! output names all come from the [`ExperimentSpec`]
//! (see the presets for the exact values each figure publishes).

use ftclip_core::{
    auc_normalized, improvement_percent, ResultTable, SiteEvaluator, SiteProfile, ThresholdTuner, TunerConfig,
};
use ftclip_data::Dataset;
use ftclip_fault::{BitPosition, Campaign, CampaignResult, FaultModel, Injection, InjectionTarget};
use ftclip_models::{model_size_report, ZooArch};
use ftclip_nn::{Activation, Layer, Scratch, Sequential, Span};
use ftclip_quant::{Precision, QuantizedPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::resilience::{evaluate_resilience, print_panels, shape_checks};
use crate::experiments::{outln, RunContext, RATE_SCALING_DOC};
use crate::pipeline::{experiment_methodology, experiment_profile, harden_network, tuning_auc_config};
use crate::spec::{Protection, SpecError};
use crate::tables::campaign_summary_table;
use crate::workload::Workload;

/// Fig. 1a — parameter-memory sizes of the model zoo.
pub fn model_sizes(ctx: &mut RunContext) -> Result<(), SpecError> {
    let report = model_size_report();
    outln!(ctx, "Fig. 1a — model parameter memory (f32 storage)\n");
    outln!(ctx, "{:<16} {:>12} {:>10}", "model", "parameters", "MB");
    let mut table = ResultTable::new(&ctx.spec.name, &["model", "params", "megabytes"]);
    for row in &report {
        outln!(ctx, "{:<16} {:>12} {:>10.2}", row.name, row.params, row.megabytes);
        table.row([row.name.as_str().into(), row.params.into(), row.megabytes.into()]);
    }
    ctx.emit(&table);
    Ok(())
}

/// Fig. 2 — the LeNet-5 feature-map progression (structural figure).
pub fn architecture(ctx: &mut RunContext) -> Result<(), SpecError> {
    let net = ftclip_models::lenet5(10, 0);
    let plan = net.plan(&[1, 1, 32, 32]);
    let output_dims = |i: usize| &plan.shape_at(i + 1).expect("a full plan knows every shape")[1..];

    outln!(ctx, "Fig. 2 — LeNet-5 feature-map progression (input 1×32×32)\n");
    outln!(ctx, "{:<6} {:<12} {:<16} {:>10}", "layer", "kind", "output", "params");
    for (i, layer) in net.layers().iter().enumerate() {
        let shape = output_dims(i).iter().map(|d| d.to_string()).collect::<Vec<_>>().join("×");
        outln!(ctx, "{:<6} {:<12} {:<16} {:>10}", i, layer.kind().to_string(), shape, layer.param_count());
    }
    outln!(ctx, "\ncomputational layers: {:?}", net.computational_names());
    outln!(ctx, "total parameters: {}", net.param_count());

    // the exact annotations of the paper's figure
    let expect =
        [(0usize, vec![6usize, 28, 28]), (2, vec![6, 14, 14]), (3, vec![16, 10, 10]), (5, vec![16, 5, 5])];
    let ok = expect.iter().all(|(idx, dims)| output_dims(*idx) == &dims[..]);
    outln!(ctx, "shape check: feature maps match Fig. 2 annotations ({ok})");
    if !ok {
        ctx.fail("LeNet-5 feature maps diverged from the Fig. 2 annotations".to_string());
    }
    Ok(())
}

/// Applies the spec's [`Protection`] to a copy of the workload network.
pub(crate) fn apply_protection(ctx: &RunContext, workload: &Workload, protection: Protection) -> Sequential {
    let base = &workload.model.network;
    match protection {
        Protection::Unprotected => base.clone(),
        Protection::ClippedTuned => {
            let mut net = base.clone();
            let data = &workload.data;
            let tuning_subset = ctx.spec.eval_size.min(256).min(data.val().len());
            harden_network(&mut net, data.val(), ctx.spec.seed, tuning_subset, workload.rate_scale());
            net
        }
        Protection::ClippedActMax => clipped_at_act_max(ctx, base, workload.data.val()),
        Protection::Saturated => with_saturated(&clipped_at_act_max(ctx, base, workload.data.val())),
    }
}

/// A copy of `net` clipped at its profiled `ACT_max` (Steps 1–2 on a
/// 256-image subset of `validation`, no fine-tuning).
pub(crate) fn clipped_at_act_max(ctx: &RunContext, net: &Sequential, validation: &Dataset) -> Sequential {
    let mut clipped = net.clone();
    experiment_profile(ctx.spec.seed, 256).clip(&mut clipped, validation);
    clipped
}

/// The ReLU6-style saturation twin of a clipped network: every activation
/// site saturates at its clipping threshold instead of clipping to zero.
pub(crate) fn with_saturated(clipped: &Sequential) -> Sequential {
    let mut out = clipped.clone();
    for (site, t) in out.activation_sites().into_iter().zip(clipped.clip_thresholds()) {
        if let Layer::Activation(a) = &mut out.layers_mut()[site] {
            a.func = Activation::SaturatedRelu { threshold: t.expect("every site is clipped") };
        }
    }
    out
}

/// The int8 twin of a hardened workload network: post-training quantized
/// with a validation calibration batch (always the same subset for a given
/// spec seed, so the plan — and every cached cell keyed on it — is
/// deterministic).
pub(crate) fn quantized_twin(ctx: &RunContext, workload: &Workload, net: &Sequential) -> QuantizedPlan {
    let data = &workload.data;
    let calib = data.val().subset(64.min(data.val().len()), ctx.spec.seed);
    QuantizedPlan::quantize(net, calib.images())
        .unwrap_or_else(|e| panic!("int8 quantization of the {} workload failed: {e}", workload.name))
}

/// Fig. 1b shape — one campaign over the spec's grid, summarized per rate.
/// Honors the spec's [`Protection`] (the fig1b preset runs unprotected) and
/// its [`Precision`]: under `int8` the campaign corrupts the quantized
/// twin's weight bytes instead of the f32 bit lanes.
pub fn campaign_summary(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let net = apply_protection(ctx, &workload, ctx.spec.protection);
    let eval = ctx.eval_set(workload.data.test());

    let mut cfg = ctx.spec.campaign_config_with_scale(workload.rate_scale())?;
    cfg.target = ctx.spec.target.resolve(&net)?;
    eprintln!(
        "[{}] campaign: {} rates × {} reps on {} images ({}), {} worker thread(s)",
        ctx.spec.name,
        cfg.fault_rates.len(),
        cfg.repetitions,
        eval.len(),
        ctx.spec.precision,
        ftclip_tensor::num_threads()
    );
    let max_reps = cfg.stopping.map_or(cfg.repetitions, |rule| rule.max_reps);
    let result = match ctx.spec.precision {
        Precision::F32 => {
            let session = ctx.campaign_session("campaign-summary", &net, &cfg, Precision::F32);
            // the suffix evaluator re-executes only the layers below each
            // cell's earliest fault, reusing memoized clean prefix
            // activations — bit-identical to the full-forward closure it
            // replaces
            Campaign::new(cfg).run(&net, ftclip_tensor::num_threads(), &session, eval.suffix_eval())
        }
        Precision::Int8 => {
            let plan = quantized_twin(ctx, &workload, &net);
            let session = ctx.campaign_session("campaign-summary", &net, &cfg, Precision::Int8);
            let batch = ctx.spec.eval_batch;
            Campaign::new(cfg).run(&plan, ftclip_tensor::num_threads(), &session, |p: &QuantizedPlan| {
                p.accuracy(eval.images(), eval.labels(), batch)
            })
        }
    };

    outln!(
        ctx,
        "{} — {} {} ({}) accuracy vs fault rate",
        ctx.spec.name,
        ctx.spec.protection,
        workload.name,
        ctx.spec.precision
    );
    outln!(
        ctx,
        "(paper rates mapped ×{:.1} for the width-scaled memory, see {RATE_SCALING_DOC})\n",
        workload.rate_scale()
    );
    outln!(ctx, "baseline (clean) accuracy: {:.4}\n", result.clean_accuracy);
    outln!(
        ctx,
        "{:<12} {:<12} {:>10} {:>10} {:>10}",
        "paper_rate",
        "actual_rate",
        "mean_acc",
        "min_acc",
        "max_acc"
    );
    let paper_rates = ctx.spec.rates.label_rates();
    for (i, summary) in result.summaries()?.iter().enumerate() {
        outln!(
            ctx,
            "{:<12.1e} {:<12.1e} {:>10.4} {:>10.4} {:>10.4}",
            paper_rates[i],
            result.fault_rates[i],
            summary.mean,
            summary.min,
            summary.max
        );
    }
    if let Some(reports) = &result.convergence {
        let exhaustive = max_reps * result.fault_rates.len();
        let used = result.total_repetitions();
        outln!(
            ctx,
            "\nadaptive stopping: {used} / {exhaustive} injections run ({:.1}× saved)",
            exhaustive as f64 / used.max(1) as f64
        );
        for r in reports {
            outln!(
                ctx,
                "  rate {:<12.1e} reps_used {:>4}  half_width {:.4}{}",
                result.fault_rates[r.rate_index],
                r.reps_used,
                r.half_width,
                if r.converged { "" } else { "  (max_reps hit)" }
            );
        }
    }
    ctx.emit(&campaign_summary_table(&ctx.spec.name, &result, &paper_rates)?);

    // the headline qualitative check of Fig. 1b — validation guarantees a
    // non-empty grid, and the check degrades gracefully regardless
    let means = result.mean_accuracies();
    if let (Some(first), Some(collapse)) = (means.first(), means.last()) {
        outln!(
            ctx,
            "\nshape check: accuracy decreases with fault rate ({first:.4} → {collapse:.4}), clean {:.4}",
            result.clean_accuracy
        );
    }
    Ok(())
}

/// The strata `fig_bitpos` sweeps, in display order.
fn bitpos_strata() -> [BitPosition; 3] {
    [BitPosition::Sign, BitPosition::Exponent, BitPosition::Mantissa]
}

/// Prints one stratum's summary rows and appends them to `table`; returns
/// the per-rate mean accuracies.
fn bitpos_rows(
    ctx: &mut RunContext,
    table: &mut ResultTable,
    precision: Precision,
    pos: BitPosition,
    rates: &[f64],
    result: &CampaignResult,
) -> Result<Vec<f64>, SpecError> {
    let mut means = Vec::with_capacity(rates.len());
    for (i, s) in result.summaries()?.iter().enumerate() {
        outln!(
            ctx,
            "{:<10} {:<10} {:<12.1e} {:>10.4} {:>10.4} {:>10.4}",
            precision.to_string(),
            pos.to_string(),
            rates[i],
            s.mean,
            s.min,
            s.max
        );
        table.row([
            precision.to_string().as_str().into(),
            pos.to_string().as_str().into(),
            rates[i].into(),
            s.mean.into(),
            s.min.into(),
            s.max.into(),
        ]);
        means.push(s.mean);
    }
    Ok(means)
}

/// `fig_bitpos` — accuracy vs fault rate, stratified by bit position, on
/// the f32 network and its int8 quantized twin.
///
/// For every stratum (sign / exponent / mantissa) the same rate grid runs
/// twice: once as an f32 campaign with [`FaultModel::BitFlipAt`] resolved
/// against the IEEE-754 encoding, once as a byte-level campaign over the
/// int8 weight memory. The expected vulnerability split: f32 exponent
/// flips collapse accuracy while mantissa flips barely move it; int8 has
/// *no* exponent field, so its exponent stratum injects zero faults and
/// stays at clean accuracy — the structural reason quantized inference
/// removes the paper's dominant fault mode.
pub fn bit_position_sweep(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let net = apply_protection(ctx, &workload, ctx.spec.protection);
    let eval = ctx.eval_set(workload.data.test());
    let plan = quantized_twin(ctx, &workload, &net);

    let mut cfg = ctx.spec.campaign_config_with_scale(workload.rate_scale())?;
    cfg.target = ctx.spec.target.resolve(&net)?;
    let rates = cfg.fault_rates.clone();
    let batch = ctx.spec.eval_batch;

    outln!(ctx, "{} — bit-position-resolved vulnerability, {} workload", ctx.spec.name, workload.name);
    outln!(
        ctx,
        "({} rates × {} reps on {} images; strata resolved against each precision's encoding)\n",
        rates.len(),
        cfg.repetitions,
        eval.len()
    );
    outln!(
        ctx,
        "{:<10} {:<10} {:<12} {:>10} {:>10} {:>10}",
        "precision",
        "stratum",
        "rate",
        "mean_acc",
        "min_acc",
        "max_acc"
    );
    let mut table =
        ResultTable::new(&ctx.spec.name, &["precision", "stratum", "rate", "mean_acc", "min_acc", "max_acc"]);

    // (precision, stratum) → (per-rate means, clean accuracy)
    let mut curves: Vec<(Precision, BitPosition, Vec<f64>, f64)> = Vec::new();
    let suffix = eval.suffix_eval();
    for pos in bitpos_strata() {
        let mut scfg = cfg.clone();
        scfg.model = FaultModel::BitFlipAt(pos);
        eprintln!("[{}] f32 {pos} stratum: {} rates × {} reps", ctx.spec.name, rates.len(), scfg.repetitions);
        let session = ctx.campaign_session(&format!("bitpos-f32-{pos}"), &net, &scfg, Precision::F32);
        let result = Campaign::new(scfg).run(&net, ftclip_tensor::num_threads(), &session, suffix.clone());
        let means = bitpos_rows(ctx, &mut table, Precision::F32, pos, &rates, &result)?;
        curves.push((Precision::F32, pos, means, result.clean_accuracy));
    }
    for pos in bitpos_strata() {
        let mut scfg = cfg.clone();
        scfg.model = FaultModel::BitFlipAt(pos);
        eprintln!(
            "[{}] int8 {pos} stratum: {} rates × {} reps",
            ctx.spec.name,
            rates.len(),
            scfg.repetitions
        );
        let session = ctx.campaign_session(&format!("bitpos-int8-{pos}"), &net, &scfg, Precision::Int8);
        let result =
            Campaign::new(scfg).run(&plan, ftclip_tensor::num_threads(), &session, |p: &QuantizedPlan| {
                p.accuracy(eval.images(), eval.labels(), batch)
            });
        let means = bitpos_rows(ctx, &mut table, Precision::Int8, pos, &rates, &result)?;
        curves.push((Precision::Int8, pos, means, result.clean_accuracy));
    }
    ctx.emit(&table);

    let curve = |precision: Precision, pos: BitPosition| {
        curves
            .iter()
            .find(|(p, s, _, _)| (*p, *s) == (precision, pos))
            .map(|(_, _, means, clean)| (means.clone(), *clean))
            .expect("every stratum ran")
    };
    let (f32_exp, f32_clean) = curve(Precision::F32, BitPosition::Exponent);
    let (f32_man, _) = curve(Precision::F32, BitPosition::Mantissa);
    let (int8_exp, int8_clean) = curve(Precision::Int8, BitPosition::Exponent);
    let top = rates.len() - 1;

    outln!(ctx, "\nclean accuracy: f32 {f32_clean:.4}, int8 {int8_clean:.4}");
    let exp_collapses = f32_exp[top] + 0.05 < f32_man[top];
    outln!(
        ctx,
        "shape check: f32 exponent flips dominate mantissa flips at the top rate \
         ({:.4} ≪ {:.4}: {exp_collapses})",
        f32_exp[top],
        f32_man[top]
    );
    if !exp_collapses {
        ctx.fail("f32 exponent stratum did not collapse below the mantissa stratum".to_string());
    }
    let int8_immune = int8_exp.iter().all(|&a| a == int8_clean);
    outln!(
        ctx,
        "shape check: int8 has no exponent field — its exponent stratum stays clean at every rate \
         ({int8_immune})"
    );
    if !int8_immune {
        ctx.fail("int8 exponent stratum moved away from clean accuracy".to_string());
    }
    let curves_differ = int8_exp[top] > f32_exp[top] + 0.05;
    outln!(
        ctx,
        "shape check: the int8 curve differs where f32 collapses ({:.4} vs {:.4}: {curves_differ})",
        int8_exp[top],
        f32_exp[top]
    );
    if !curves_differ {
        ctx.fail("int8 exponent-stratum curve does not separate from the f32 one".to_string());
    }
    Ok(())
}

/// Fig. 3 (a, e, i) — per-layer error-resilience over the spec's panels.
pub fn per_layer_resilience(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let net = workload.model.network.clone();
    let eval = ctx.eval_set(workload.data.test());

    let scale = workload.rate_scale();
    let mut table = ResultTable::new(
        &ctx.spec.name,
        &["layer", "paper_rate", "actual_rate", "mean_acc", "min_acc", "max_acc"],
    );

    outln!(ctx, "Fig. 3 (a, e, i) — per-layer resilience of the {}", workload.name);
    outln!(ctx, "(paper rates mapped ×{scale:.1} for the width-scaled memory)");
    outln!(ctx, "clean accuracy: {:.4}", eval.accuracy(&net));
    let paper_rates = ctx.spec.rates.label_rates();
    let layers = ctx.spec.layers.clone();
    // one suffix evaluator spans every per-layer campaign: the clean
    // network is the same throughout, so deep targets reuse the prefix
    // activations shallow targets already memoized
    let suffix = eval.suffix_eval();
    for layer_name in &layers {
        let layer_index = net
            .layer_index_by_name(layer_name)
            .ok_or_else(|| SpecError::UnknownLayer(layer_name.clone()))?;
        let mut cfg = ctx.spec.campaign_config_with_scale(scale)?;
        cfg.seed = ctx.spec.seed ^ layer_index as u64;
        cfg.target = InjectionTarget::Layer(layer_index);
        eprintln!("[fig3] {layer_name}: {} rates × {} reps", cfg.fault_rates.len(), cfg.repetitions);
        let session = ctx.campaign_session("fig3_per_layer", &net, &cfg, Precision::F32);
        let result = Campaign::new(cfg).run(&net, ftclip_tensor::num_threads(), &session, suffix.clone());
        outln!(ctx, "\n{layer_name} (network layer {layer_index}):");
        outln!(ctx, "{:<12} {:>10} {:>10} {:>10}", "paper_rate", "mean_acc", "min_acc", "max_acc");
        for (i, s) in result.summaries()?.iter().enumerate() {
            outln!(ctx, "{:<12.1e} {:>10.4} {:>10.4} {:>10.4}", paper_rates[i], s.mean, s.min, s.max);
            table.row([
                layer_name.as_str().into(),
                paper_rates[i].into(),
                result.fault_rates[i].into(),
                s.mean.into(),
                s.min.into(),
                s.max.into(),
            ]);
        }
    }
    ctx.emit(&table);
    Ok(())
}

/// The per-panel fault-rate triples of the paper's Fig. 3 distribution
/// panels, by analyzed layer (unknown layers get the FC-1 triple — the
/// narrowest sweep).
fn activation_panel_rates(layer: &str) -> [f64; 3] {
    match layer {
        "CONV-1" => [1e-7, 1e-4, 5e-4],
        "CONV-5" => [1e-7, 5e-6, 1e-5],
        _ => [1e-7, 5e-7, 1e-6],
    }
}

/// Fig. 3 (b–d, f–h, j–l) — activation distributions under faults.
pub fn activation_distributions(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let mut net = workload.model.network.clone();
    let data = &workload.data;
    let batch = data
        .test()
        .subset(ctx.spec.eval_size.min(256).min(data.test().len()), ctx.spec.seed)
        .images()
        .clone();
    let scale = workload.rate_scale();

    let mut table = ResultTable::new(
        &ctx.spec.name,
        &["layer", "paper_rate", "actual_rate", "act_max", "frac_gt_10", "frac_gt_1e6", "frac_gt_1e30"],
    );

    outln!(ctx, "Fig. 3 (b–d, f–h, j–l) — activation distributions under faults");
    outln!(ctx, "(paper rates mapped ×{scale:.1} for the width-scaled memory)\n");
    let draws = ctx.spec.repetitions.clamp(1, 5);
    let layers = ctx.spec.layers.clone();
    let mut scratch = Scratch::new();
    for layer_name in &layers {
        let layer_index = net
            .layer_index_by_name(layer_name)
            .ok_or_else(|| SpecError::UnknownLayer(layer_name.clone()))?;
        outln!(ctx, "{layer_name}:");
        outln!(ctx, "{:<12} {:>12} {:>12} {:>12} {:>12}", "paper_rate", "ACT_max", ">10", ">1e6", ">1e30");
        for paper_rate in activation_panel_rates(layer_name) {
            let rate = (paper_rate * scale).min(1.0);
            // worst (max-ACT_max) of several draws, as a representative
            // faulted inference the way the paper's panels show one
            let mut act_max = f32::NEG_INFINITY;
            let mut fr10 = 0.0f64;
            let mut fr1e6 = 0.0f64;
            let mut fr1e30 = 0.0f64;
            for draw in 0..draws {
                let mut rng = StdRng::seed_from_u64(
                    ctx.spec.seed ^ (layer_index as u64) << 8 ^ rate.to_bits() ^ draw as u64,
                );
                let injection = Injection::sample(
                    &net,
                    InjectionTarget::Layer(layer_index),
                    ctx.spec.fault_model,
                    rate,
                    &mut rng,
                );
                let handle = injection.apply(&mut net);
                let output = net.execute(&batch, Span::prefix(layer_index + 1), &mut scratch);
                handle.undo(&mut net);
                let total = output.len() as f64;
                let dmax = output
                    .iter()
                    .copied()
                    .filter(|v| v.is_finite())
                    .fold(f32::NEG_INFINITY, f32::max);
                if dmax > act_max {
                    act_max = dmax;
                    let frac = |thresh: f32| output.iter().filter(|&&v| v > thresh).count() as f64 / total;
                    fr10 = frac(10.0);
                    fr1e6 = frac(1e6);
                    fr1e30 = frac(1e30);
                }
            }
            outln!(
                ctx,
                "{:<12.1e} {:>12.3e} {:>12.2e} {:>12.2e} {:>12.2e}",
                paper_rate,
                act_max,
                fr10,
                fr1e6,
                fr1e30
            );
            table.row([
                layer_name.as_str().into(),
                paper_rate.into(),
                rate.into(),
                act_max.into(),
                fr10.into(),
                fr1e6.into(),
                fr1e30.into(),
            ]);
        }
        outln!(ctx);
    }
    ctx.emit(&table);
    outln!(
        ctx,
        "shape check: ACT_max at the highest rate should reach ~1e36–1e38 for at least one layer"
    );
    Ok(())
}

/// Fig. 4 — the three-step methodology walkthrough (structural figure).
pub fn methodology_walkthrough(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let data = &workload.data;
    let mut net = workload.model.network.clone();

    let weights_before: Vec<u32> = {
        let mut v = Vec::new();
        net.visit_params(&mut |_, _, t, _| v.extend(t.data().iter().map(|x| x.to_bits())));
        v
    };

    outln!(ctx, "Fig. 4 — methodology walkthrough on the {} workload\n", workload.name);
    outln!(
        ctx,
        "input: pre-trained DNN ({} params), validation set ({} images)\n",
        net.param_count(),
        data.val().len()
    );

    let methodology = experiment_methodology(ctx.spec.seed, 256.min(data.val().len()), workload.rate_scale());
    let report = methodology.harden(&mut net, data.val());

    outln!(ctx, "Step 1 — statistical profiling (subset of the validation set):");
    for p in &report.profiles {
        outln!(
            ctx,
            "  {:<8} ACT_max {:>9.4}  mean {:>8.4}  range [{:>8.4}, {:>8.4}]",
            p.feeds_from,
            p.act_max,
            p.mean,
            p.act_min,
            p.act_max
        );
    }

    outln!(ctx, "\nStep 2 — clipped conversion, thresholds initialized to ACT_max:");
    outln!(ctx, "  initial thresholds: {:?}", report.initial_thresholds);

    outln!(ctx, "\nStep 3 — per-layer fine-tuning (Algorithm 1):");
    for l in &report.per_layer {
        outln!(
            ctx,
            "  {:<8} T: {:>9.4} → {:>9.4}  ({} iterations, {} AUC evaluations)",
            l.feeds_from,
            l.act_max,
            l.outcome.threshold,
            l.outcome.trace.len(),
            l.outcome.evaluations
        );
    }

    let weights_after: Vec<u32> = {
        let mut v = Vec::new();
        net.visit_params(&mut |_, _, t, _| v.extend(t.data().iter().map(|x| x.to_bits())));
        v
    };
    outln!(ctx, "\noutput: fault-tolerant DNN with tuned clipped activations");
    let weights_ok = weights_before == weights_after;
    let clipped_ok = net.clip_thresholds().iter().all(Option::is_some);
    outln!(
        ctx,
        "invariant checks: weights untouched ({weights_ok}), all sites clipped ({clipped_ok})"
    );
    if !weights_ok {
        ctx.fail("hardening mutated the weights".to_string());
    }
    if !clipped_ok {
        ctx.fail("hardening left unclipped activation sites".to_string());
    }
    Ok(())
}

/// Steps 1–2 on a copy of the workload network, plus the target layer
/// `layer_name`: its layer index and the profile of the activation site it
/// feeds (the shared setup of Figs. 5 and 6).
fn clipped_with_target(
    ctx: &RunContext,
    workload: &Workload,
    layer_name: &str,
) -> Result<(Sequential, usize, SiteProfile), SpecError> {
    let mut net = workload.model.network.clone();
    let profiles = experiment_profile(ctx.spec.seed, 256).clip(&mut net, workload.data.val());
    let target_layer = net
        .layer_index_by_name(layer_name)
        .ok_or_else(|| SpecError::UnknownLayer(layer_name.to_string()))?;
    let profile = profiles
        .into_iter()
        .find(|p| p.feeds_from == layer_name)
        .ok_or_else(|| SpecError::UnknownLayer(format!("{layer_name} (feeds no activation site)")))?;
    Ok((net, target_layer, profile))
}

/// Fig. 5 — AUC vs clipping threshold of the spec's target layer.
pub fn auc_sweep(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let eval = ctx.eval_set(workload.data.val());
    let layer_name = ctx.spec.target.layer_name().expect("validated layer target").to_string();

    // blue curve: every site clipped at its profiled ACT_max, the target's
    // threshold swept
    let (net, target_layer, profile) = clipped_with_target(ctx, &workload, &layer_name)?;
    let (act_max, target_site) = (profile.act_max, profile.site);

    // AUC measurement campaign: faults in the target layer only (Fig. 5a)
    let mut auc_cfg = tuning_auc_config(ctx.spec.seed, workload.rate_scale());
    auc_cfg.repetitions = ctx.spec.repetitions.min(10);
    auc_cfg.target = InjectionTarget::Layer(target_layer);

    // red line: unbounded activations
    let unbounded_auc = auc_cfg.measure(&workload.model.network, &eval.suffix_eval());

    let sweep_points = 13usize;
    let thresholds: Vec<f32> = (1..=sweep_points).map(|k| act_max * k as f32 / sweep_points as f32).collect();
    let aucs = SiteEvaluator::new(&auc_cfg, &eval, target_site)
        .aucs(&net, &thresholds)
        .expect("site is clipped");
    let mut table = ResultTable::new(&ctx.spec.name, &["threshold", "auc"]);
    outln!(ctx, "Fig. 5b — AUC vs clipping threshold T ({layer_name}, ACT_max = {act_max:.4})\n");
    outln!(ctx, "{:>12} {:>10}", "T", "AUC");
    let mut best = (0.0f32, f64::NEG_INFINITY);
    for (&t, auc) in thresholds.iter().zip(aucs) {
        outln!(ctx, "{t:>12.4} {auc:>10.4}");
        table.row([t.into(), auc.into()]);
        if auc > best.1 {
            best = (t, auc);
        }
    }
    ctx.emit(&table);

    outln!(ctx, "\nunbounded-activation AUC (red line): {unbounded_auc:.4}");
    outln!(
        ctx,
        "peak: AUC {:.4} at T = {:.4} ({}% of ACT_max)",
        best.1,
        best.0,
        (100.0 * best.0 / act_max) as i32
    );
    outln!(
        ctx,
        "shape check: peak below ACT_max ({}), clipped AUC ≥ unbounded AUC ({})",
        best.0 < act_max,
        best.1 >= unbounded_auc
    );
    Ok(())
}

/// Fig. 6 — the Algorithm 1 interval-search trace on the target layer.
pub fn tuning_trace(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    let eval = ctx.eval_set(workload.data.val());
    let layer_name = ctx.spec.target.layer_name().expect("validated layer target").to_string();
    let (mut net, target_layer, profile) = clipped_with_target(ctx, &workload, &layer_name)?;

    let mut auc = tuning_auc_config(ctx.spec.seed, workload.rate_scale());
    auc.repetitions = ctx.spec.repetitions.min(5);
    auc.target = InjectionTarget::Layer(target_layer);
    let tuner = ThresholdTuner::new(TunerConfig { max_iterations: 4, min_iterations: 2, delta: 0.005, auc });

    eprintln!("[fig6] tuning {layer_name} (ACT_max = {:.4}) …", profile.act_max);
    let outcome = tuner
        .tune_site(&mut net, profile.site, profile.initial_threshold(), &eval)
        .expect("site is clipped");

    let mut table = ResultTable::new(
        &ctx.spec.name,
        &[
            "iteration",
            "interval_lo",
            "interval_hi",
            "t1",
            "t2",
            "t3",
            "t4",
            "auc1",
            "auc2",
            "auc3",
            "auc4",
            "best",
        ],
    );

    outln!(ctx, "Fig. 6 — Algorithm 1 trace on {layer_name} (ACT_max = {:.4})\n", profile.act_max);
    for (i, iter) in outcome.trace.iter().enumerate() {
        outln!(ctx, "iteration {}: S = [{:.4}, {:.4}]", i + 1, iter.interval.0, iter.interval.1);
        for (b, (t, a)) in iter.boundaries.iter().zip(iter.aucs).enumerate() {
            let marker = if b == iter.best_index { "  ← max AUC" } else { "" };
            outln!(ctx, "    T{} = {:>9.4}  AUC = {:.4}{}", b + 1, t, a, marker);
        }
        table.row([
            (i + 1).into(),
            iter.interval.0.into(),
            iter.interval.1.into(),
            iter.boundaries[0].into(),
            iter.boundaries[1].into(),
            iter.boundaries[2].into(),
            iter.boundaries[3].into(),
            iter.aucs[0].into(),
            iter.aucs[1].into(),
            iter.aucs[2].into(),
            iter.aucs[3].into(),
            (iter.best_index + 1).into(),
        ]);
    }
    ctx.emit(&table);

    outln!(
        ctx,
        "\nselected T = {:.4} (AUC {:.4}) after {} iterations, {} AUC evaluations",
        outcome.threshold,
        outcome.auc,
        outcome.trace.len(),
        outcome.evaluations
    );
    let shrank = outcome
        .trace
        .windows(2)
        .all(|w| (w[1].interval.1 - w[1].interval.0) < (w[0].interval.1 - w[0].interval.0) + 1e-9);
    outln!(
        ctx,
        "shape check: interval shrinks every iteration ({shrank}), T < ACT_max ({})",
        outcome.threshold < profile.act_max
    );
    Ok(())
}

/// Figs. 7/8 — clipped vs unprotected resilience of the spec's workload.
pub fn resilience_figure(ctx: &mut RunContext) -> Result<(), SpecError> {
    let workload = ctx.workload();
    outln!(ctx, "{} — {} resilience with/without clipped activations\n", ctx.spec.name, workload.name);
    let evaluation = evaluate_resilience(ctx, &workload)?;
    let stem = ctx.spec.name.clone();
    print_panels(ctx, &evaluation, &stem)?;

    let failures = shape_checks(&evaluation);
    if failures.is_empty() {
        outln!(ctx, "\nshape checks: all passed");
    } else {
        outln!(ctx, "\nshape checks FAILED:");
        for f in failures {
            outln!(ctx, "  - {f}");
            ctx.fail(f);
        }
    }
    Ok(())
}

struct HeadlineRow {
    metric: String,
    paper: String,
    measured: String,
}

fn auc_up_to(result: &ftclip_fault::CampaignResult, max_rate: f64) -> f64 {
    let pts: Vec<(f64, f64)> = result
        .curve_with_clean_point()
        .into_iter()
        .filter(|&(r, _)| r <= max_rate * 1.0001)
        .collect();
    auc_normalized(&pts)
}

/// §V-B headline numbers — the paper's quoted results as one table.
///
/// Absolute numbers differ (synthetic dataset, width-scaled models); the
/// claims to reproduce are the *signs and magnitudes*: large positive
/// improvements, VGG-16 gaining more than AlexNet.
pub fn headline_table(ctx: &mut RunContext) -> Result<(), SpecError> {
    outln!(ctx, "§V-B headline table (paper vs measured)\n");
    let mut rows: Vec<HeadlineRow> = Vec::new();

    // ---------------- AlexNet ----------------
    // paper rates are mapped through the memory-size scale so the expected
    // fault count matches the full-width network (see the resilience docs)
    let alex = ctx.workload_for_arch(ZooArch::AlexNet);
    let alex_eval = evaluate_resilience(ctx, &alex)?;
    let (p, u) = alex_eval.comparison.accuracies_at(alex.scaled_rate(5e-7));
    rows.push(HeadlineRow {
        metric: "AlexNet accuracy @5e-7 (clipped vs unprotected)".into(),
        paper: "69.36% vs 51.16%".into(),
        measured: format!("{:.2}% vs {:.2}%", p * 100.0, u * 100.0),
    });
    rows.push(HeadlineRow {
        metric: "AlexNet AUC improvement (0…1e-5)".into(),
        paper: "+173.32%".into(),
        measured: format!("{:+.2}%", alex_eval.comparison.auc_improvement_percent()),
    });

    // ---------------- VGG-16 ----------------
    let vgg = ctx.workload_for_arch(ZooArch::Vgg16Bn);
    let vgg_eval = evaluate_resilience(ctx, &vgg)?;
    let (pv, uv) = vgg_eval.comparison.accuracies_at(vgg.scaled_rate(1e-5));
    rows.push(HeadlineRow {
        metric: "VGG-16 accuracy improvement @1e-5".into(),
        paper: "+68.92%".into(),
        measured: format!("{:+.2}% ({:.2}% vs {:.2}%)", improvement_percent(uv, pv), pv * 100.0, uv * 100.0),
    });
    let vgg_auc_low_p = auc_up_to(&vgg_eval.protected, vgg.scaled_rate(5e-7));
    let vgg_auc_low_u = auc_up_to(&vgg_eval.unprotected, vgg.scaled_rate(5e-7));
    rows.push(HeadlineRow {
        metric: "VGG-16 AUC improvement (0…5e-7)".into(),
        paper: "+654.91%".into(),
        measured: format!("{:+.2}%", improvement_percent(vgg_auc_low_u, vgg_auc_low_p)),
    });
    rows.push(HeadlineRow {
        metric: "VGG-16 gains more than AlexNet (AUC improvement)".into(),
        paper: "yes".into(),
        measured: format!(
            "{} ({:+.2}% vs {:+.2}%)",
            vgg_eval.comparison.auc_improvement_percent() > alex_eval.comparison.auc_improvement_percent(),
            vgg_eval.comparison.auc_improvement_percent(),
            alex_eval.comparison.auc_improvement_percent()
        ),
    });

    outln!(ctx, "{:<52} {:<22} measured", "metric", "paper");
    let mut table = ResultTable::new(&ctx.spec.name, &["metric", "paper", "measured"]);
    for row in &rows {
        outln!(ctx, "{:<52} {:<22} {}", row.metric, row.paper, row.measured);
        table.row([row.metric.as_str().into(), row.paper.as_str().into(), row.measured.as_str().into()]);
    }
    ctx.emit(&table);
    Ok(())
}
