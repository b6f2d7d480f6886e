//! Bit-identity guard for the tuning path: the boundary memo, the
//! per-site prefix cache and the cut cache that resumes each measurement
//! at the tuned site must leave every result bit exactly where Algorithm 1
//! puts it when each boundary is measured by its own campaign over a fresh
//! evaluator.

use std::collections::BTreeSet;

use ftclip_core::{
    grid_search_site, profile_network, AucConfig, EvalSet, IterationTrace, Methodology, ProfileConfig,
    SiteEvaluator, ThresholdTuner, TuneOutcome, TunerConfig,
};
use ftclip_data::SynthCifar;
use ftclip_fault::{Campaign, CampaignConfig, CellEval, FaultModel, InjectionTarget, NoCache, SuffixHint};
use ftclip_nn::{BatchNorm2d, Layer, ParamKind, Sequential};

fn data() -> SynthCifar {
    SynthCifar::builder()
        .seed(61)
        .train_size(8)
        .val_size(48)
        .test_size(8)
        .image_size(8)
        .noise_std(0.1)
        .build()
}

/// Two activation sites: layer 1 (fed by CONV-1 at 0) and layer 4 (fed by
/// FC-1 at 3).
fn two_site_net() -> Sequential {
    Sequential::new(vec![
        Layer::conv2d(3, 4, 3, 1, 1, 70),
        Layer::relu(),
        Layer::flatten(),
        Layer::linear(4 * 64, 12, 71),
        Layer::relu(),
        Layer::linear(12, 10, 72),
    ])
}

fn tuner_cfg(target: InjectionTarget, fault_rates: Vec<f64>) -> TunerConfig {
    TunerConfig {
        max_iterations: 3,
        min_iterations: 3,
        delta: 0.0,
        auc: AucConfig {
            fault_rates,
            repetitions: 2,
            seed: 9,
            model: FaultModel::BitFlip,
            target,
        },
    }
}

/// Algorithm 1 with no reuse at all: every boundary of every iteration is
/// measured by its own campaign through a fresh `eval.suffix_eval()`.
/// Returns the selected threshold, its AUC and the trace.
fn oracle(
    cfg: &TunerConfig,
    net: &mut Sequential,
    site: usize,
    act_max: f32,
    eval: &EvalSet,
) -> (f32, f64, Vec<IterationTrace>) {
    let mut interval = (0.0f32, act_max);
    let mut trace = Vec::new();
    let (mut best_t, mut best_auc) = (act_max, f64::NEG_INFINITY);
    for counter in 1..=cfg.max_iterations {
        let (lo, hi) = interval;
        let third = (hi - lo) / 3.0;
        let boundaries = [lo, lo + third, lo + 2.0 * third, hi];
        let mut aucs = [0.0f64; 4];
        for (auc, &t) in aucs.iter_mut().zip(&boundaries) {
            let effective = if t > 0.0 { t } else { act_max * 1e-6 };
            net.set_clip_threshold(site, effective).unwrap();
            *auc = cfg.auc.measure(net, &eval.suffix_eval());
        }
        let mut best_index = 0;
        for i in 1..4 {
            if aucs[i] > aucs[best_index] {
                best_index = i;
            }
        }
        trace.push(IterationTrace { interval, boundaries, aucs, best_index });
        (best_t, best_auc) = (boundaries[best_index], aucs[best_index]);
        interval = match best_index {
            0 => (boundaries[0], boundaries[1]),
            3 => (boundaries[2], boundaries[3]),
            i => (boundaries[i - 1], boundaries[i + 1]),
        };
        let max_delta = aucs.windows(2).map(|w| (w[1] - w[0]).abs()).fold(0.0f64, f64::max);
        if max_delta <= cfg.delta && counter >= cfg.min_iterations {
            break;
        }
    }
    let final_t = if best_t > 0.0 { best_t } else { act_max * 1e-6 };
    net.set_clip_threshold(site, final_t).unwrap();
    (final_t, best_auc, trace)
}

fn assert_bitwise_equal(what: &str, got: &TuneOutcome, (t, auc, trace): &(f32, f64, Vec<IterationTrace>)) {
    assert_eq!(got.threshold.to_bits(), t.to_bits(), "{what}: threshold");
    assert_eq!(got.auc.to_bits(), auc.to_bits(), "{what}: selected AUC");
    assert_eq!(got.trace.len(), trace.len(), "{what}: iterations");
    for (k, (g, o)) in got.trace.iter().zip(trace).enumerate() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g.aucs), bits(&o.aucs), "{what}: AUCs of iteration {k}");
        assert_eq!(g.best_index, o.best_index, "{what}: best index of iteration {k}");
        assert_eq!(
            g.boundaries.map(f32::to_bits),
            o.boundaries.map(f32::to_bits),
            "{what}: boundaries of iteration {k}"
        );
    }
}

/// Tunes `site` of a clipped twin with the tuner and with the oracle,
/// checks them bitwise equal and returns the oracle's trace.
fn tune_both(what: &str, cfg: TunerConfig, site: usize) -> Vec<IterationTrace> {
    let eval = EvalSet::from_dataset(data().val(), 16);
    let mut net = two_site_net();
    net.convert_to_clipped(&[3.0, 4.0]);
    let mut twin = net.clone();
    let got = ThresholdTuner::new(cfg.clone()).tune_site(&mut net, site, 4.0, &eval).unwrap();
    let want = oracle(&cfg, &mut twin, site, 4.0, &eval);
    assert_bitwise_equal(what, &got, &want);
    assert_eq!((got.evaluations, got.campaigns), (12, 8), "{what}: counts");
    assert_eq!(net.clip_thresholds(), twin.clip_thresholds());
    let distinct: std::collections::BTreeSet<u64> =
        want.2.iter().flat_map(|it| it.aucs).map(f64::to_bits).collect();
    assert!(distinct.len() > 1, "{what}: the AUC must depend on the threshold for this guard to bite");
    want.2
}

#[test]
fn shared_site_cache_matches_fresh_measurements() {
    // FC-1 (layer 3) feeds site 4: every cut sits below the tuned site
    tune_both("Layer(3) target", tuner_cfg(InjectionTarget::Layer(3), vec![1e-3, 1e-2]), 4);
}

#[test]
fn fresh_evaluators_match_for_whole_network_targets() {
    // at these rates most cells spare CONV-1 and cut at FC-1 or later,
    // above site 1: a cache shared across thresholds would serve stale
    // activations here
    tune_both("AllWeights target", tuner_cfg(InjectionTarget::AllWeights, vec![1e-5, 1e-4]), 1);
}

#[test]
fn harden_matches_the_oracle_on_every_site() {
    let data = data();
    let validation = data.val();
    let methodology = Methodology {
        profile: ProfileConfig { subset_size: 32, seed: 3, batch_size: 16, bins: 8 },
        tuner: tuner_cfg(InjectionTarget::AllWeights, vec![1e-3, 1e-2]),
    };
    let mut hardened = two_site_net();
    let report = methodology.harden(&mut hardened, validation);

    // the same three steps, tuned by the oracle
    let mut net = two_site_net();
    let subset = validation.subset(32, 3);
    let profiles = profile_network(&net, subset.images(), 16, 8);
    let initial: Vec<f32> = profiles.iter().map(|p| p.act_max.max(f32::MIN_POSITIVE)).collect();
    net.convert_to_clipped(&initial);
    let eval = EvalSet::from_subset(validation, 32, 3 ^ 0xA5A5, 16);
    assert_eq!(report.per_layer.len(), 2);
    for ((layer, profile), (site, feeding)) in report.per_layer.iter().zip(&profiles).zip([(1, 0), (4, 3)]) {
        assert_eq!(layer.site, site);
        let mut cfg = methodology.tuner.clone();
        cfg.auc.target = InjectionTarget::Layer(feeding);
        let want = oracle(&cfg, &mut net, site, profile.act_max.max(f32::MIN_POSITIVE), &eval);
        assert_bitwise_equal(&layer.feeds_from, &layer.outcome, &want);
    }
    let bits = |n: &Sequential| n.clip_thresholds().iter().map(|t| t.map(f32::to_bits)).collect::<Vec<_>>();
    assert_eq!(bits(&hardened), bits(&net));
}

#[test]
fn per_layer_clean_pass_matches_the_full_forward() {
    let eval = EvalSet::from_dataset(data().val(), 16);
    let net = two_site_net();
    let campaign = Campaign::new(CampaignConfig {
        fault_rates: vec![1e-2],
        repetitions: 2,
        seed: 4,
        model: FaultModel::BitFlip,
        target: InjectionTarget::Layer(3),
        stopping: None,
    });
    let full = eval.accuracy(&net).to_bits();
    let sx = eval.suffix_eval();
    let cold = campaign.run(&net, 2, &NoCache, sx.clone());
    assert_eq!(cold.clean_accuracy.to_bits(), full, "cold cache");
    let hits = sx.cache().stats().hits;
    let warm = campaign.run(&net, 2, &NoCache, sx.clone());
    assert_eq!(warm.clean_accuracy.to_bits(), full, "warm cache");
    assert!(sx.cache().stats().hits > hits, "the warm clean pass reads the cache");
}

/// Conv → BN → ReLU → linear: the site at layer 2 is fed by the conv at 0
/// through a batch norm, so the cut cache keys and replays two layers.
fn bn_site_net() -> Sequential {
    let mut net = Sequential::new(vec![
        Layer::conv2d(3, 4, 3, 1, 1, 73),
        Layer::BatchNorm2d(BatchNorm2d::new(4)),
        Layer::relu(),
        Layer::flatten(),
        Layer::linear(4 * 64, 10, 74),
    ]);
    // a batch norm that is not the identity
    net.visit_params_mut(&mut |i, kind, values, _| {
        if i == 1 {
            for (c, v) in values.data_mut().iter_mut().enumerate() {
                *v = match kind {
                    ParamKind::Weight => 0.5 + 0.25 * c as f32,
                    ParamKind::Bias => 0.1 * c as f32 - 0.1,
                };
            }
        }
    });
    net.convert_to_clipped(&[3.0]);
    net
}

/// `two_site_net` with both sites clipped, as `tune_both` tunes it.
fn clipped_two_site_net() -> Sequential {
    let mut net = two_site_net();
    net.convert_to_clipped(&[3.0, 4.0]);
    net
}

#[test]
fn a_site_behind_a_batch_norm_matches_the_oracle() {
    let eval = EvalSet::from_dataset(data().val(), 16);
    let cfg = tuner_cfg(InjectionTarget::Layer(0), vec![1e-3, 1e-2]);
    let mut net = bn_site_net();
    let mut twin = net.clone();
    let got = ThresholdTuner::new(cfg.clone()).tune_site(&mut net, 2, 4.0, &eval).unwrap();
    let want = oracle(&cfg, &mut twin, 2, 4.0, &eval);
    assert_bitwise_equal("conv → BN → act site", &got, &want);
    let distinct: BTreeSet<u64> = want.2.iter().flat_map(|it| it.aucs).map(f64::to_bits).collect();
    assert!(distinct.len() > 1, "the AUC must depend on the threshold for this guard to bite");
}

#[test]
fn thresholds_measured_out_of_order_match_fresh_measurements() {
    let eval = EvalSet::from_dataset(data().val(), 16);
    let auc = tuner_cfg(InjectionTarget::Layer(3), vec![1e-3, 1e-2]).auc;
    let mut net = clipped_two_site_net();
    let evaluators = SiteEvaluator::new(&auc, &eval, 4);
    let mut distinct = BTreeSet::new();
    for t in [2.5f32, 0.25, 4.0, 1.0, 2.5, 0.5, 3.0, 0.25] {
        net.set_clip_threshold(4, t).unwrap();
        let shared = auc.measure(&net, &evaluators.evaluator());
        let fresh = auc.measure(&net, &eval.suffix_eval());
        assert_eq!(shared.to_bits(), fresh.to_bits(), "T = {t}");
        distinct.insert(fresh.to_bits());
    }
    assert!(distinct.len() > 1, "the AUC must depend on the threshold for this guard to bite");
    assert!(evaluators.evaluator().cache().stats().cut_hits > 0, "later thresholds resume at the site");
}

#[test]
fn grid_search_matches_fresh_measurements() {
    let eval = EvalSet::from_dataset(data().val(), 16);
    let cases = [
        (clipped_two_site_net(), 4, InjectionTarget::Layer(3)),
        (bn_site_net(), 2, InjectionTarget::Layer(0)),
    ];
    for (net, site, target) in cases {
        let auc = tuner_cfg(target, vec![1e-3, 1e-2]).auc;
        let (points, act_max) = (6, 4.0f32);
        let mut tuned = net.clone();
        let got = grid_search_site(&mut tuned, site, act_max, points, &auc, &eval).unwrap();
        // the oracle: every grid point measured over a fresh evaluator
        let mut twin = net;
        let mut best = (act_max, f64::NEG_INFINITY);
        for k in 1..=points {
            let t = act_max * k as f32 / points as f32;
            twin.set_clip_threshold(site, t).unwrap();
            let score = auc.measure(&twin, &eval.suffix_eval());
            if score > best.1 {
                best = (t, score);
            }
        }
        assert_eq!(got.threshold.to_bits(), best.0.to_bits(), "site {site}: threshold");
        assert_eq!(got.auc.to_bits(), best.1.to_bits(), "site {site}: AUC");
    }
}

#[test]
fn fault_sets_one_bias_bit_apart_never_share_a_cut_entry() {
    let eval = EvalSet::from_dataset(data().val(), 16);
    let auc = tuner_cfg(InjectionTarget::Layer(3), vec![1e-3, 1e-2]).auc;
    let sx = SiteEvaluator::new(&auc, &eval, 4).evaluator();
    // FC-1 (layer 3) with bit `bit` of bias `unit` flipped
    let flipped = |net: &Sequential, unit: usize, bit: u32| {
        let mut net = net.clone();
        net.visit_params_mut(&mut |i, kind, values, _| {
            if i == 3 && kind == ParamKind::Bias {
                let v = &mut values.data_mut()[unit];
                *v = f32::from_bits(v.to_bits() ^ (1 << bit));
            }
        });
        net
    };
    let base = flipped(&clipped_two_site_net(), 5, 29);
    let other = flipped(&base, 0, 30);
    let (a, b) = (eval.accuracy(&base), eval.accuracy(&other));
    assert_ne!(a.to_bits(), b.to_bits(), "the bias bit must change the accuracy for this guard to bite");
    assert_eq!(sx.eval_cell(&base, SuffixHint::at(3)).to_bits(), a.to_bits());
    assert_eq!(
        sx.eval_cell(&other, SuffixHint::at(3)).to_bits(),
        b.to_bits(),
        "served the other fault set"
    );
    assert_eq!(sx.eval_cell(&base, SuffixHint::at(3)).to_bits(), a.to_bits());
    let stats = sx.cache().stats();
    assert_eq!((stats.cut_misses, stats.cut_hits), (2, 1));
}

#[test]
fn the_cut_cache_computes_each_faulted_cell_once_plus_the_clean_pass() {
    let eval = EvalSet::from_dataset(data().val(), 16);
    let auc = tuner_cfg(InjectionTarget::Layer(3), vec![1e-5, 1e-3, 1e-2]).auc;
    let mut net = clipped_two_site_net();
    let faulted = auc
        .run_campaign(&net, &eval.suffix_eval())
        .runs
        .iter()
        .filter(|r| r.fault_count > 0)
        .count();
    assert!(faulted > 0, "the campaign must fault some cells");
    let evaluators = SiteEvaluator::new(&auc, &eval, 4);
    let thresholds = [1.0f32, 2.0, 3.0, 4.0];
    for t in thresholds {
        net.set_clip_threshold(4, t).unwrap();
        auc.measure(&net, &evaluators.evaluator());
    }
    // every campaign evaluates the clean pass and each faulted cell once
    let per_campaign = faulted as u64 + 1;
    let stats = evaluators.evaluator().cache().stats();
    assert_eq!(stats.cut_misses, per_campaign, "one miss per faulted cell, plus the clean pass");
    assert_eq!(stats.cut_hits, (thresholds.len() as u64 - 1) * per_campaign);
}

#[test]
fn concurrent_measurements_compute_each_cut_slot_once() {
    let eval = EvalSet::from_dataset(data().val(), 16);
    let batches = 3; // 48 images in batches of 16
    let auc = tuner_cfg(InjectionTarget::Layer(3), vec![1e-3, 1e-2]).auc;
    let twins: Vec<Sequential> = [0.5f32, 1.5, 2.5, 4.0]
        .iter()
        .map(|&t| {
            let mut twin = clipped_two_site_net();
            twin.set_clip_threshold(4, t).unwrap();
            twin
        })
        .collect();
    let alone: Vec<u64> = twins
        .iter()
        .map(|twin| auc.measure(twin, &eval.suffix_eval()).to_bits())
        .collect();
    let one_run_per_slot = |evaluators: &SiteEvaluator, what: &str| {
        let stats = evaluators.evaluator().cache().stats();
        assert!(stats.cut_hits > 0, "{what}: the measurements must share cells");
        assert_eq!(
            stats.cut_computes,
            stats.cut_misses * batches,
            "{what}: one feeding-layer run per cut slot"
        );
    };
    // campaigns measured side by side walk the same cells in near
    // lockstep, so every round gives a second fill of one slot a chance
    for round in 0..8 {
        let evaluators = SiteEvaluator::new(&auc, &eval, 4);
        let aucs = ftclip_tensor::with_thread_limit(4, || {
            ftclip_tensor::fan_out(
                ftclip_tensor::num_threads(),
                twins.len(),
                || (),
                |(), i| auc.measure(&twins[i], &evaluators.evaluator()).to_bits(),
            )
        });
        assert_eq!(aucs, alone, "round {round}");
        one_run_per_slot(&evaluators, &format!("side by side, round {round}"));
    }
    // the tuner's path: a fill pass, then the measurements side by side
    let evaluators = SiteEvaluator::new(&auc, &eval, 4);
    let thresholds = [0.5f32, 1.5, 2.5, 4.0];
    let aucs = ftclip_tensor::with_thread_limit(4, || evaluators.aucs(&clipped_two_site_net(), &thresholds));
    assert_eq!(aucs.unwrap().iter().map(|a| a.to_bits()).collect::<Vec<_>>(), alone, "aucs");
    one_run_per_slot(&evaluators, "aucs");
}
