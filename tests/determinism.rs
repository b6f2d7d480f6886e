//! Reproducibility guarantees across the whole stack: identical seeds must
//! give bit-identical datasets, models, fault sets and campaign results.

use ftclipact::core::EvalSet;
use ftclipact::fault::{Campaign, CampaignConfig, FaultModel, Injection, InjectionTarget};
use ftclipact::nn::{Layer, Scratch, Sequential, Span, Trainer};
use ftclipact::prelude::*;

fn tiny_data(seed: u64) -> SynthCifar {
    SynthCifar::builder()
        .seed(seed)
        .train_size(64)
        .val_size(32)
        .test_size(64)
        .image_size(8)
        .build()
}

fn tiny_net() -> Sequential {
    Sequential::new(vec![
        Layer::conv2d(3, 4, 3, 1, 1, 11),
        Layer::relu(),
        Layer::flatten(),
        Layer::linear(4 * 64, 10, 12),
    ])
}

#[test]
fn datasets_are_bit_reproducible() {
    let a = tiny_data(5);
    let b = tiny_data(5);
    assert_eq!(a.train().images().data(), b.train().images().data());
    assert_eq!(a.test().images().data(), b.test().images().data());
}

#[test]
fn training_is_deterministic_per_seed() {
    let data = tiny_data(6);
    let run = |seed: u64| {
        let mut net = tiny_net();
        Trainer::builder().epochs(2).batch_size(16).seed(seed).build().fit(
            &mut net,
            data.train().images(),
            data.train().labels(),
            None,
        );
        net.execute(data.test().images(), Span::full(), &mut Scratch::new())
            .data()
            .to_vec()
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

#[test]
fn fault_sampling_is_deterministic_per_seed() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let net = tiny_net();
    let draw = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Injection::sample(&net, InjectionTarget::AllWeights, FaultModel::BitFlip, 1e-3, &mut rng)
            .faults()
            .to_vec()
    };
    assert_eq!(draw(9), draw(9));
    assert_ne!(draw(9), draw(10));
}

#[test]
fn campaigns_are_reproducible_end_to_end() {
    let data = tiny_data(7);
    let eval = EvalSet::from_dataset(data.test(), 32);
    let cfg = CampaignConfig {
        fault_rates: vec![1e-4, 1e-3],
        repetitions: 3,
        seed: 21,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    };
    let run = || {
        Campaign::new(cfg.clone())
            .run(&tiny_net(), 1, &NoCache, |n: &Sequential| eval.accuracy(n))
            .accuracies
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_campaign_is_bit_identical_to_single_threaded() {
    // the `FTCLIP_THREADS=4` vs `FTCLIP_THREADS=1` guarantee, exercised via
    // the explicit-thread-count entry point because the env variable is
    // read once and cached for the whole process: worker count must never
    // change any RunRecord bit
    let data = tiny_data(9);
    let eval = EvalSet::from_dataset(data.test(), 32);
    let cfg = CampaignConfig {
        fault_rates: vec![1e-5, 1e-4, 1e-3],
        repetitions: 4,
        seed: 33,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    };
    let campaign = Campaign::new(cfg);
    let net = tiny_net();
    let one = campaign.run(&net, 1, &NoCache, |n: &Sequential| eval.accuracy(n));
    let four = campaign.run(&net, 4, &NoCache, |n: &Sequential| eval.accuracy(n));
    assert_eq!(one.runs, four.runs, "RunRecords must be bit-identical across thread counts");
    assert_eq!(one.clean_accuracy.to_bits(), four.clean_accuracy.to_bits());
    let bits = |r: &ftclipact::fault::CampaignResult| -> Vec<Vec<u64>> {
        r.accuracies.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
    };
    assert_eq!(bits(&one), bits(&four));
}

#[test]
fn per_layer_suffix_campaign_is_bit_identical_to_full_forward() {
    // the Fig. 3 shape: one campaign per layer target, all sharing one
    // suffix evaluator (and therefore one prefix cache) over the same
    // clean network — every campaign must replay the full-forward bits
    let data = tiny_data(9);
    let eval = EvalSet::from_dataset(data.test(), 32);
    let net = tiny_net();
    let suffix = eval.suffix_eval();
    for layer_index in net.param_layer_indices() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-4, 1e-3],
            repetitions: 3,
            seed: 51 ^ layer_index as u64,
            model: FaultModel::BitFlip,
            target: InjectionTarget::Layer(layer_index),
            stopping: None,
        };
        let campaign = Campaign::new(cfg);
        let full = campaign.run(&net, 1, &NoCache, |n: &Sequential| eval.accuracy(n));
        for threads in [1usize, 2, 4] {
            let sx = campaign.run(&net, threads, &NoCache, suffix.clone());
            assert_eq!(sx.runs, full.runs, "layer {layer_index}, {threads} threads");
            assert_eq!(sx.clean_accuracy.to_bits(), full.clean_accuracy.to_bits());
        }
    }
    let stats = suffix.cache().stats();
    assert!(stats.hits > 0, "later campaigns must reuse earlier campaigns' prefixes");
}

#[test]
fn sharded_accuracy_is_bit_identical_across_thread_counts() {
    // EvalSet::accuracy splits the evaluation batches across worker threads;
    // each batch's forward pass is banding-invariant and the correct counts
    // are integers, so the shard count must never change a single bit
    let data = tiny_data(12);
    let eval = EvalSet::from_dataset(data.test(), 8); // 64 images → 8 batches
    let net = tiny_net();
    let reference = eval.accuracy_with_threads(&net, 1);
    for threads in [2usize, 3, 4, 8] {
        let sharded = eval.accuracy_with_threads(&net, threads);
        assert_eq!(
            sharded.to_bits(),
            reference.to_bits(),
            "{threads} shard threads changed the accuracy bits"
        );
    }
    assert_eq!(eval.accuracy(&net).to_bits(), reference.to_bits());
}

#[test]
fn campaign_with_fewer_cells_than_threads_is_bit_identical() {
    // cells < threads: the executor hands each worker its share of the
    // leftover budget (batch-level parallelism inside EvalSet::accuracy);
    // the composition must still replay the serial bits exactly
    let data = tiny_data(13);
    let eval = EvalSet::from_dataset(data.test(), 8);
    let cfg = CampaignConfig {
        fault_rates: vec![1e-3],
        repetitions: 2, // 2 cells
        seed: 41,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    };
    let campaign = Campaign::new(cfg);
    let serial = campaign.run(&tiny_net(), 1, &NoCache, |n: &Sequential| eval.accuracy(n));
    let wide = campaign.run(&tiny_net(), 8, &NoCache, |n: &Sequential| eval.accuracy(n));
    assert_eq!(serial.runs, wide.runs);
    assert_eq!(serial.clean_accuracy.to_bits(), wide.clean_accuracy.to_bits());
}

#[test]
fn single_thread_env_does_not_change_results() {
    // numeric results must be identical regardless of FTCLIP_THREADS because
    // each output row is accumulated by exactly one thread
    let data = tiny_data(8);
    let net = tiny_net();
    let mut scratch = Scratch::new();
    let y1 = net.execute(data.test().images(), Span::full(), &mut scratch);
    let y2 = net.execute(data.test().images(), Span::full(), &mut scratch);
    assert_eq!(y1.data(), y2.data());
}
