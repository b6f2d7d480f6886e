//! The shared protected-vs-unprotected evaluation behind Figs. 7 and 8 and
//! the headline table.
//!
//! **Rate mapping.** The paper's fault rates are per-bit probabilities over
//! full-size model memories. This reproduction evaluates width-scaled models
//! with ~30–60× fewer weight bits, so the paper's rates are scaled by the
//! memory-size ratio ([`Workload::rate_scale`]) to keep the *expected number
//! of faults* — and therefore the corruption statistics — equivalent. Output
//! tables label each row with the paper-equivalent rate.

use ftclip_core::Comparison;
use ftclip_fault::{Campaign, CampaignResult};

use crate::experiments::{outln, RunContext, RATE_SCALING_DOC};
use crate::pipeline::harden_network;
use crate::spec::SpecError;
use crate::tables::{resilience_box_table, resilience_mean_table};
use crate::workload::Workload;

/// Everything the Fig. 7 / Fig. 8 panels need.
#[derive(Debug)]
pub struct ResilienceEvaluation {
    /// Campaign result of the hardened (clipped) network.
    pub protected: CampaignResult,
    /// Campaign result of the unprotected baseline.
    pub unprotected: CampaignResult,
    /// Derived comparison (AUCs, improvements).
    pub comparison: Comparison,
    /// The tuned clipping thresholds, in activation-site order.
    pub tuned_thresholds: Vec<f32>,
    /// The paper-equivalent label rates (the actual grid is these × scale).
    pub paper_rates: Vec<f64>,
    /// Memory-size rate scale applied (see module docs).
    pub rate_scale: f64,
}

/// Hardens a copy of the workload's network with the full methodology, then
/// runs the spec's whole-network campaign (memory-size-scaled rate grid) on
/// both the hardened and the unprotected network using the **test split**
/// (as §V-B requires).
///
/// # Errors
///
/// [`SpecError::UnknownLayer`] if the spec targets a layer the workload
/// network does not have.
pub fn evaluate_resilience(
    ctx: &mut RunContext,
    workload: &Workload,
) -> Result<ResilienceEvaluation, SpecError> {
    let spec = ctx.spec;
    let data = &workload.data;
    let eval = ctx.eval_set(data.test());

    let mut protected_net = workload.model.network.clone();
    let tuning_subset = spec.eval_size.min(256).min(data.val().len());
    let report =
        harden_network(&mut protected_net, data.val(), spec.seed, tuning_subset, workload.rate_scale());

    let mut config = spec
        .campaign_config_with_scale(workload.rate_scale())
        .map_err(SpecError::Campaign)?;
    config.seed = spec.seed ^ 0xF16;
    config.target = spec.target.resolve(&protected_net)?;
    let campaign = Campaign::new(config);
    eprintln!(
        "[resilience] campaigns: {} reps/rate, rate scale ×{:.1}, {} worker thread(s)",
        spec.repetitions,
        workload.rate_scale(),
        ftclip_tensor::num_threads()
    );
    // both campaigns cache under the shared "resilience" label: any spec
    // evaluating the same model/eval settings (the fig7, fig8 and headline
    // presets) resumes the same cells; the hardened network's clipping
    // thresholds are part of the model digest, so the two sessions can
    // never alias
    // one suffix evaluator (and thus one prefix-activation cache) per
    // network: the clipped and unprotected twins have different clean
    // activations, so their caches must never mix
    let protected_session = ctx.campaign_session("resilience", &protected_net, campaign.config());
    let protected =
        campaign.run(&protected_net, ftclip_tensor::num_threads(), &protected_session, eval.suffix_eval());
    eprintln!("[resilience] protected done, running unprotected …");
    let unprotected_net = workload.model.network.clone();
    let unprotected_session = ctx.campaign_session("resilience", &unprotected_net, campaign.config());
    let unprotected = campaign.run(
        &unprotected_net,
        ftclip_tensor::num_threads(),
        &unprotected_session,
        eval.suffix_eval(),
    );

    let comparison = Comparison::new(&protected, &unprotected);
    Ok(ResilienceEvaluation {
        protected,
        unprotected,
        comparison,
        tuned_thresholds: report.tuned_thresholds,
        paper_rates: spec.rates.label_rates(),
        rate_scale: workload.rate_scale(),
    })
}

/// Writes the three panels of Fig. 7/Fig. 8 into the report and emits their
/// tables. `stem` is the file prefix, e.g. `"fig7_alexnet"`.
///
/// # Errors
///
/// [`SpecError::Campaign`] with [`ftclip_fault::CampaignError::DegenerateSamples`]
/// if either campaign produced a rate with no summarizable accuracy samples.
pub fn print_panels(ctx: &mut RunContext, eval: &ResilienceEvaluation, stem: &str) -> Result<(), SpecError> {
    let cmp = eval.comparison.clone();
    outln!(ctx, "(a) mean accuracy vs fault rate — clipped vs unprotected");
    outln!(
        ctx,
        "    (paper rates mapped ×{:.1} for the width-scaled memory, see {RATE_SCALING_DOC})\n",
        eval.rate_scale
    );
    outln!(
        ctx,
        "baseline (clean): clipped {:.4}, unprotected {:.4}\n",
        cmp.protected_clean,
        cmp.unprotected_clean
    );
    outln!(
        ctx,
        "{:<12} {:<12} {:>10} {:>12} {:>13}",
        "paper_rate",
        "actual_rate",
        "clipped",
        "unprotected",
        "improvement%"
    );
    for (i, (&paper_rate, &rate)) in eval.paper_rates.iter().zip(&cmp.fault_rates).enumerate() {
        let improvement = ftclip_core::improvement_percent(cmp.unprotected_mean[i], cmp.protected_mean[i]);
        outln!(
            ctx,
            "{:<12.1e} {:<12.1e} {:>10.4} {:>12.4} {:>13.2}",
            paper_rate,
            rate,
            cmp.protected_mean[i],
            cmp.unprotected_mean[i],
            improvement
        );
    }
    ctx.emit(&resilience_mean_table(&format!("{stem}_a_mean"), &cmp, &eval.paper_rates));

    for (panel, label, result) in [("b", "clipped", &eval.protected), ("c", "unprotected", &eval.unprotected)]
    {
        outln!(ctx, "\n({panel}) accuracy distribution, {label} network (box-plot statistics)\n");
        outln!(
            ctx,
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "paper_rate",
            "min",
            "q1",
            "median",
            "q3",
            "max"
        );
        for (i, s) in result.summaries().map_err(SpecError::Campaign)?.iter().enumerate() {
            outln!(
                ctx,
                "{:<12.1e} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                eval.paper_rates[i],
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max
            );
        }
        ctx.emit(
            &resilience_box_table(&format!("{stem}_{panel}_box"), result, &eval.paper_rates)
                .map_err(SpecError::Campaign)?,
        );
    }

    outln!(
        ctx,
        "\nAUC (paper range 0…1e-5): clipped {:.4}, unprotected {:.4} → {:+.2}% improvement",
        cmp.protected_auc,
        cmp.unprotected_auc,
        cmp.auc_improvement_percent()
    );
    let rate_5e7 = eval.rate_scale * 5e-7;
    let (p, u) = cmp.accuracies_at(rate_5e7);
    outln!(
        ctx,
        "accuracy @paper-5e-7: clipped {:.4} vs unprotected {:.4} (paper: 69.36% vs 51.16% for AlexNet)",
        p,
        u
    );
    Ok(())
}

/// The qualitative assertions both figures share; returns human-readable
/// failures instead of panicking so entry points can report partial success.
pub fn shape_checks(eval: &ResilienceEvaluation) -> Vec<String> {
    let cmp = &eval.comparison;
    let mut failures = Vec::new();
    if cmp.protected_auc <= cmp.unprotected_auc {
        failures.push(format!(
            "clipped AUC {:.4} should exceed unprotected {:.4}",
            cmp.protected_auc, cmp.unprotected_auc
        ));
    }
    // the unprotected network must actually collapse somewhere on the grid
    let clean = cmp.unprotected_clean;
    let collapse_rates: Vec<usize> = cmp
        .unprotected_mean
        .iter()
        .enumerate()
        .filter(|(_, &m)| m < clean - 0.10)
        .map(|(i, _)| i)
        .collect();
    if collapse_rates.is_empty() {
        failures.push("unprotected network never degraded ≥0.10 below clean on the grid".to_string());
    }
    // wherever it collapses, the clipped network must do better
    for &i in &collapse_rates {
        if cmp.protected_mean[i] <= cmp.unprotected_mean[i] {
            failures.push(format!(
                "clipped {:.4} not above unprotected {:.4} at paper rate {:.0e}",
                cmp.protected_mean[i], cmp.unprotected_mean[i], eval.paper_rates[i]
            ));
        }
    }
    // clean accuracy must not be destroyed by clipping
    if cmp.protected_clean < cmp.unprotected_clean - 0.05 {
        failures.push(format!(
            "clipping cost too much clean accuracy: {:.4} vs {:.4}",
            cmp.protected_clean, cmp.unprotected_clean
        ));
    }
    failures
}
