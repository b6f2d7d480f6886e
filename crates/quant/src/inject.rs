//! Byte-level fault injection over the quantized weight memory.

use ftclip_fault::{
    sample_bit_positions, BitPosition, CampaignConfig, FaultModel, FaultSubstrate, SuffixHint,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::plan::QuantizedPlan;

/// A sampled fault set over a [`QuantizedPlan`]'s int8 weight bytes — the
/// quantized twin of [`ftclip_fault::Injection`].
///
/// Sampling is exact independent `Bernoulli(rate)` per (word, bit) site via
/// the fault crate's geometric-skip sampler. A uniform model draws over all
/// `8 · weight_words` bits; a [`BitPosition`]-stratified model draws over
/// `|stratum| · weight_words` sites, with the stratum resolved against the
/// **8-bit** encoding — so `Exponent` is empty (int8 has no exponent field)
/// and a stratified campaign at any rate injects zero faults there, which is
/// precisely the structural split `fig_bitpos` measures.
#[derive(Debug, Clone)]
pub struct QuantInjection {
    /// `(node, word_in_node, bit)` per fault, in sampling order.
    faults: Vec<(usize, usize, u8)>,
    model: FaultModel,
}

impl QuantInjection {
    /// Samples a fault set for `plan` under `model` at per-bit (per-site)
    /// probability `rate`.
    pub fn sample<R: Rng + ?Sized>(plan: &QuantizedPlan, model: FaultModel, rate: f64, rng: &mut R) -> Self {
        let lens = plan.node_weight_lens();
        let total_words: usize = lens.iter().sum();
        let locate = |word: usize| -> (usize, usize) {
            let mut remaining = word;
            for (node, &len) in lens.iter().enumerate() {
                if remaining < len {
                    return (node, remaining);
                }
                remaining -= len;
            }
            unreachable!("word index {word} outside {total_words} weight words")
        };
        let faults = match model.bit_position() {
            None => sample_bit_positions(total_words * 8, rate, rng)
                .into_iter()
                .map(|p| {
                    let (node, word) = locate(p / 8);
                    (node, word, (p % 8) as u8)
                })
                .collect(),
            Some(pos) => {
                let stratum = pos.bits(8);
                if stratum.is_empty() {
                    Vec::new()
                } else {
                    sample_bit_positions(total_words * stratum.len(), rate, rng)
                        .into_iter()
                        .map(|p| {
                            let (node, word) = locate(p / stratum.len());
                            (node, word, stratum[p % stratum.len()])
                        })
                        .collect()
                }
            }
        };
        QuantInjection { faults, model }
    }

    /// Number of sampled faults.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// The sampled `(node, word_in_node, bit)` sites.
    pub fn faults(&self) -> &[(usize, usize, u8)] {
        &self.faults
    }

    /// The stratum the faults were drawn from, when the model is
    /// stratified.
    pub fn bit_position(&self) -> Option<BitPosition> {
        self.model.bit_position()
    }

    /// Applies every fault to `plan`'s weight bytes, returning a handle that
    /// restores the exact original bytes.
    pub fn apply(&self, plan: &mut QuantizedPlan) -> AppliedQuantInjection {
        let mut originals = Vec::with_capacity(self.faults.len());
        for &(node, word, bit) in &self.faults {
            let bytes = plan.weights_mut(node);
            originals.push(bytes[word]);
            bytes[word] = self.model.apply_to_byte(bytes[word] as u8, bit) as i8;
        }
        AppliedQuantInjection { faults: self.faults.clone(), originals }
    }
}

/// Proof that a [`QuantInjection`] was applied; restores the weight memory
/// byte-exactly on [`AppliedQuantInjection::undo`].
#[derive(Debug)]
pub struct AppliedQuantInjection {
    faults: Vec<(usize, usize, u8)>,
    originals: Vec<i8>,
}

impl AppliedQuantInjection {
    /// Restores every faulted byte to its pre-injection value. Reverse
    /// order, so overlapping faults on one byte unwind correctly.
    pub fn undo(self, plan: &mut QuantizedPlan) {
        for (&(node, word, _), &orig) in self.faults.iter().zip(&self.originals).rev() {
            plan.weights_mut(node)[word] = orig;
        }
    }
}

/// The int8 campaign substrate: [`ftclip_fault::Campaign::run`] over a
/// [`QuantizedPlan`] corrupts its weight bytes through [`QuantInjection`].
///
/// [`CampaignConfig::target`] is ignored — the quantized weight memory is
/// one address space of weight bytes (biases stay `f32` and are not
/// injectable) — and every cell evaluates the whole plan
/// ([`SuffixHint::full`]).
impl FaultSubstrate for QuantizedPlan {
    type Faults = QuantInjection;
    type Applied = AppliedQuantInjection;

    fn sample_faults(&self, config: &CampaignConfig, rate: f64, rng: &mut StdRng) -> QuantInjection {
        QuantInjection::sample(self, config.model, rate, rng)
    }

    fn fault_count(faults: &QuantInjection) -> usize {
        faults.fault_count()
    }

    fn suffix_hint(_faults: &QuantInjection) -> SuffixHint {
        SuffixHint::full()
    }

    fn apply_faults(&mut self, faults: &QuantInjection) -> AppliedQuantInjection {
        faults.apply(self)
    }

    fn undo_faults(&mut self, applied: AppliedQuantInjection) {
        applied.undo(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_fault::Quadrant;
    use ftclip_nn::{Layer, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan() -> QuantizedPlan {
        let net = Sequential::new(vec![Layer::flatten(), Layer::linear(16, 8, 3), Layer::relu()]);
        let mut rng = StdRng::seed_from_u64(2);
        let calib = ftclip_tensor::uniform_init(&[4, 1, 4, 4], -1.0, 1.0, &mut rng);
        QuantizedPlan::quantize(&net, &calib).unwrap()
    }

    fn snapshot(p: &mut QuantizedPlan) -> Vec<i8> {
        (0..p.node_weight_lens().len())
            .flat_map(|n| p.weights_mut(n).to_vec())
            .collect()
    }

    #[test]
    fn apply_then_undo_restores_every_byte() {
        let mut p = plan();
        let before = snapshot(&mut p);
        let inj = QuantInjection::sample(&p, FaultModel::BitFlip, 0.05, &mut StdRng::seed_from_u64(7));
        assert!(inj.fault_count() > 0);
        let handle = inj.apply(&mut p);
        assert_ne!(snapshot(&mut p), before);
        handle.undo(&mut p);
        assert_eq!(snapshot(&mut p), before);
    }

    #[test]
    fn strata_resolve_against_the_int8_encoding() {
        let p = plan();
        let cases = [
            (BitPosition::Sign, vec![7u8]),
            (BitPosition::Mantissa, (0..7).collect::<Vec<u8>>()),
            (BitPosition::Quadrant(Quadrant::Q4), vec![6, 7]),
            (BitPosition::Exact(3), vec![3]),
        ];
        for (pos, allowed) in cases {
            let inj =
                QuantInjection::sample(&p, FaultModel::BitFlipAt(pos), 0.5, &mut StdRng::seed_from_u64(11));
            assert!(inj.fault_count() > 0, "{pos:?} must hit at rate 0.5");
            for &(_, _, bit) in inj.faults() {
                assert!(allowed.contains(&bit), "{pos:?} drew bit {bit} outside {allowed:?}");
            }
        }
    }

    #[test]
    fn exponent_stratum_is_empty_on_int8() {
        let p = plan();
        let inj = QuantInjection::sample(
            &p,
            FaultModel::BitFlipAt(BitPosition::Exponent),
            1.0,
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(inj.fault_count(), 0, "int8 has no exponent bits to flip");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let p = plan();
        let sample = |seed| {
            QuantInjection::sample(&p, FaultModel::BitFlip, 0.1, &mut StdRng::seed_from_u64(seed))
                .faults()
                .to_vec()
        };
        assert_eq!(sample(9), sample(9));
        assert_ne!(sample(9), sample(10));
    }

    #[test]
    fn stuck_at_models_apply_to_bytes() {
        let mut p = plan();
        let inj = QuantInjection::sample(&p, FaultModel::StuckAt1, 0.2, &mut StdRng::seed_from_u64(5));
        let handle = inj.apply(&mut p);
        for &(node, word, bit) in inj.faults() {
            assert_ne!(p.weights_mut(node)[word] as u8 & (1 << bit), 0, "stuck-at-1 must set the bit");
        }
        handle.undo(&mut p);
    }

    /// Int8 campaigns through the one campaign executor, `Campaign::run`
    /// over a `QuantizedPlan`: grid shape, seed determinism, adaptive
    /// convergence and cache replay, and bit identity at any thread count
    /// and cache state.
    mod campaign {
        use std::collections::HashMap;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        use ftclip_fault::{
            Campaign, CampaignCache, CampaignConfig, CampaignResult, FaultModel, FaultSubstrate,
            InjectionTarget, NoCache, RunRecord, StoppingRule,
        };
        use ftclip_nn::{Layer, Sequential};
        use ftclip_tensor::Tensor;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::snapshot;
        use crate::QuantizedPlan;

        fn plan() -> QuantizedPlan {
            let net = Sequential::new(vec![Layer::flatten(), Layer::linear(16, 4, 3), Layer::relu()]);
            let mut rng = StdRng::seed_from_u64(2);
            let calib = ftclip_tensor::uniform_init(&[4, 1, 4, 4], -1.0, 1.0, &mut rng);
            QuantizedPlan::quantize(&net, &calib).unwrap()
        }

        fn config(rates: Vec<f64>, reps: usize, stopping: Option<StoppingRule>) -> CampaignConfig {
            CampaignConfig {
                fault_rates: rates,
                repetitions: reps,
                seed: 42,
                model: FaultModel::BitFlip,
                target: InjectionTarget::AllWeights,
                stopping,
            }
        }

        /// A labeled batch the plan classifies, for evaluators whose score moves
        /// with the faults.
        fn labeled_batch() -> (Tensor, Vec<usize>) {
            let mut rng = StdRng::seed_from_u64(9);
            let images = ftclip_tensor::uniform_init(&[12, 1, 4, 4], -1.0, 1.0, &mut rng);
            let labels = (0..12).map(|_| rng.gen_range(0..4)).collect();
            (images, labels)
        }

        #[derive(Default)]
        struct MemCache {
            cells: Mutex<HashMap<(usize, usize), RunRecord>>,
            clean: Mutex<Option<f64>>,
        }

        impl CampaignCache for MemCache {
            fn lookup(&self, rate_index: usize, repetition: usize) -> Option<RunRecord> {
                self.cells.lock().unwrap().get(&(rate_index, repetition)).copied()
            }
            fn record(&self, record: &RunRecord) {
                self.cells
                    .lock()
                    .unwrap()
                    .insert((record.rate_index, record.repetition), *record);
            }
            fn clean_accuracy(&self) -> Option<f64> {
                *self.clean.lock().unwrap()
            }
            fn record_clean(&self, accuracy: f64) {
                *self.clean.lock().unwrap() = Some(accuracy);
            }
        }

        struct FixedCache(Vec<RunRecord>);

        impl CampaignCache for FixedCache {
            fn lookup(&self, rate_index: usize, repetition: usize) -> Option<RunRecord> {
                self.0
                    .iter()
                    .copied()
                    .find(|r| (r.rate_index, r.repetition) == (rate_index, repetition))
            }
        }

        #[test]
        fn fixed_grid_runs_every_cell_and_restores_the_plan() {
            let mut p = plan();
            let before = snapshot(&mut p);
            let cfg = config(vec![0.0, 0.01], 3, None);
            let evals = AtomicUsize::new(0);
            let result = Campaign::new(cfg.clone()).run(&p, 1, &NoCache, |qp: &QuantizedPlan| {
                evals.fetch_add(1, Ordering::Relaxed);
                qp.weight_words() as f64 * 0.0 + 0.5
            });
            assert_eq!(result.runs.len(), 6);
            assert_eq!(result.accuracies.len(), 2);
            // rate 0.0 samples zero faults → clean accuracy without evaluating
            assert!(result.accuracies[0].iter().all(|&a| a == result.clean_accuracy));
            assert!(result.convergence.is_none());
            assert_eq!(snapshot(&mut p), before, "campaign must leave the plan clean");

            // the substrate steps a worker runs per cell restore its clone exactly
            let mut rng = StdRng::seed_from_u64(5);
            let faults = p.sample_faults(&cfg, 0.2, &mut rng);
            assert!(QuantizedPlan::fault_count(&faults) > 0);
            let applied = p.apply_faults(&faults);
            assert_ne!(snapshot(&mut p), before);
            p.undo_faults(applied);
            assert_eq!(snapshot(&mut p), before, "undo restores every byte");
        }

        #[test]
        fn cells_are_seed_deterministic_across_runs() {
            let cfg = config(vec![0.02], 4, None);
            let run = || {
                Campaign::new(cfg.clone())
                    .run(&plan(), 1, &NoCache, |qp: &QuantizedPlan| {
                        qp.execute(&Tensor::ones(&[1, 1, 4, 4])).data()[0] as f64
                    })
                    .accuracies
            };
            assert_eq!(run(), run());
        }

        #[test]
        fn adaptive_run_reports_convergence_per_rate() {
            let cfg = config(
                vec![0.01],
                8,
                Some(StoppingRule { target_half_width: 0.5, min_reps: 2, max_reps: 8 }),
            );
            let result = Campaign::new(cfg).run(&plan(), 1, &NoCache, |_: &QuantizedPlan| 0.75);
            let conv = result.convergence.expect("adaptive run must report convergence");
            assert_eq!(conv.len(), 1);
            // constant accuracies: the interval collapses at min_reps
            assert_eq!(conv[0].reps_used, 2);
            assert!(conv[0].converged);
            assert_eq!(result.accuracies[0].len(), 2);
        }

        #[test]
        fn cache_hits_skip_evaluation() {
            let cfg = config(vec![0.02], 2, None);
            let cache = FixedCache(vec![
                RunRecord { rate_index: 0, repetition: 0, fault_count: 5, accuracy: 0.25 },
                RunRecord { rate_index: 0, repetition: 1, fault_count: 3, accuracy: 0.75 },
            ]);
            let evals = AtomicUsize::new(0);
            let result = Campaign::new(cfg).run(&plan(), 1, &cache, |_: &QuantizedPlan| {
                evals.fetch_add(1, Ordering::Relaxed);
                0.0
            });
            assert_eq!(result.accuracies[0], vec![0.25, 0.75]);
            assert_eq!(
                evals.load(Ordering::Relaxed),
                1,
                "only the clean-accuracy evaluation runs on a full cache"
            );
        }

        /// Everything a result says, bit for bit.
        fn fingerprint(r: &CampaignResult) -> String {
            let runs: Vec<_> = r
                .runs
                .iter()
                .map(|c| (c.rate_index, c.repetition, c.fault_count, c.accuracy.to_bits()))
                .collect();
            format!("{runs:?} {:x} {:?}", r.clean_accuracy.to_bits(), r.convergence)
        }

        /// The grids of the four cases above, each fixed and adaptive, run at 1, 2
        /// and 4 threads and resumed from a half-evicted cache: every run is
        /// bit-identical to the single-threaded uncached one.
        #[test]
        fn int8_grid_is_bit_identical_at_any_thread_count_and_cache_state() {
            let (images, labels) = labeled_batch();
            let accuracy = |qp: &QuantizedPlan| qp.accuracy(&images, &labels, 5);
            let cases = [
                config(vec![0.0, 0.01], 3, None),
                config(vec![0.02], 4, None),
                config(
                    vec![0.01],
                    8,
                    Some(StoppingRule { target_half_width: 0.5, min_reps: 2, max_reps: 8 }),
                ),
                config(vec![0.02], 2, None),
            ];
            let p = plan();
            for case in cases {
                let adaptive = StoppingRule {
                    target_half_width: 0.05,
                    min_reps: 2,
                    max_reps: 2 * case.repetitions,
                };
                for cfg in [
                    CampaignConfig { stopping: None, ..case.clone() },
                    CampaignConfig { stopping: case.stopping.or(Some(adaptive)), ..case.clone() },
                ] {
                    let campaign = Campaign::new(cfg.clone());
                    let reference = campaign.run(&p, 1, &NoCache, accuracy);
                    for threads in [2, 4] {
                        let parallel = campaign.run(&p, threads, &NoCache, accuracy);
                        assert_eq!(
                            fingerprint(&parallel),
                            fingerprint(&reference),
                            "{cfg:?} at {threads} threads"
                        );
                    }

                    let cache = MemCache::default();
                    campaign.run(&p, 2, &cache, accuracy);
                    cache.cells.lock().unwrap().retain(|&(i, rep), _| (i + rep) % 2 == 1);
                    let evicted = cache.cells.lock().unwrap().len();
                    for threads in [1, 2, 4] {
                        let resumed = campaign.run(&p, threads, &cache, accuracy);
                        assert_eq!(
                            fingerprint(&resumed),
                            fingerprint(&reference),
                            "{cfg:?} resumed at {threads} threads"
                        );
                        cache.cells.lock().unwrap().retain(|&(i, rep), _| (i + rep) % 2 == 1);
                        assert_eq!(cache.cells.lock().unwrap().len(), evicted);
                    }
                }
            }
        }
    }
}
