//! The store's headline guarantee, end to end: a campaign resumed from a
//! partially (or fully) populated on-disk cache produces **bit-identical**
//! results — and therefore byte-identical CSV/JSON output — to an
//! uninterrupted run, serially and at 4 worker threads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ftclipact::core::EvalSet;
use ftclipact::fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget};
use ftclipact::nn::{Layer, Sequential};
use ftclipact::prelude::*;
use ftclipact::store::CELLS_FILE;

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

fn campaign() -> Campaign {
    Campaign::new(CampaignConfig {
        fault_rates: vec![1e-5, 1e-4, 1e-3],
        repetitions: 4,
        seed: 33,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    })
}

fn fresh_store(tag: &str) -> (ResultStore, PathBuf) {
    let root = std::env::temp_dir().join(format!("ftclip-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    (ResultStore::new(&root), root)
}

fn session(store: &ResultStore, net: &Sequential) -> ftclipact::store::StoreSession {
    store
        .session(&campaign_fingerprint(net, campaign().config()))
        .expect("open store session")
}

/// Deletes every other data line of the session's `cells.csv` — the
/// "interrupted halfway" state.
fn delete_half_the_cells(session_dir: &std::path::Path) -> (usize, usize) {
    let path = session_dir.join(CELLS_FILE);
    let content = std::fs::read_to_string(&path).expect("read cells file");
    let mut lines = content.lines();
    let header = lines.next().expect("cells header").to_string();
    let data: Vec<&str> = lines.collect();
    let kept: Vec<&str> = data.iter().enumerate().filter(|(n, _)| n % 2 == 0).map(|(_, l)| *l).collect();
    let mut out = header;
    out.push('\n');
    for line in &kept {
        out.push_str(line);
        out.push('\n');
    }
    std::fs::write(&path, out).expect("rewrite cells file");
    (data.len(), kept.len())
}

fn result_bits(r: &ftclipact::fault::CampaignResult) -> (Vec<Vec<u64>>, u64) {
    (
        r.accuracies.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect(),
        r.clean_accuracy.to_bits(),
    )
}

#[test]
fn resumed_campaign_is_bit_identical_serial_and_parallel() {
    let data = tiny_data(7);
    let eval = EvalSet::from_dataset(data.test(), 32);
    let net = tiny_net();
    let campaign = campaign();

    // reference: an uninterrupted, uncached run
    let fresh = campaign.run(&net, 1, &NoCache, |n: &Sequential| eval.accuracy(n));

    // populate the cache, then "interrupt" it by deleting half the cells,
    // and resume — serially and at 4 worker threads
    for threads in [1usize, 4] {
        let (store, root) = fresh_store(&format!("t{threads}"));
        let populated =
            campaign.run(&net, threads, &session(&store, &net), |n: &Sequential| eval.accuracy(n));
        assert_eq!(populated.runs, fresh.runs, "populating run must already match ({threads} threads)");

        let dir = session(&store, &net).dir().to_path_buf();
        let (before, after) = delete_half_the_cells(&dir);
        assert_eq!(before, 12, "campaign has 3 rates × 4 reps cells");
        assert!(after < before, "eviction must actually remove cells");

        let resumed = campaign.run(&net, threads, &session(&store, &net), |n: &Sequential| eval.accuracy(n));
        assert_eq!(resumed.runs, fresh.runs, "resume must replay the fresh bits ({threads} threads)");
        assert_eq!(result_bits(&resumed), result_bits(&fresh), "{threads} threads");

        // the resumed cache is complete again: a third run evaluates nothing
        let evals = AtomicUsize::new(0);
        let replayed = campaign.run(&net, threads, &session(&store, &net), |n: &Sequential| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval.accuracy(n)
        });
        assert_eq!(evals.load(Ordering::Relaxed), 0, "full cache must skip every evaluation");
        assert_eq!(replayed.runs, fresh.runs);

        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn resumed_output_files_are_byte_identical() {
    let data = tiny_data(9);
    let eval = EvalSet::from_dataset(data.test(), 32);
    let net = tiny_net();
    let campaign = campaign();

    let fresh = campaign.run(&net, 1, &NoCache, |n: &Sequential| eval.accuracy(n));
    let rates = fresh.fault_rates.clone();
    let fresh_table = ftclip_bench::campaign_summary_table("resume_check", &fresh, &rates).unwrap();

    let (store, root) = fresh_store("files");
    campaign.run(&net, 4, &session(&store, &net), |n: &Sequential| eval.accuracy(n));
    let dir = session(&store, &net).dir().to_path_buf();
    delete_half_the_cells(&dir);
    let resumed = campaign.run(&net, 4, &session(&store, &net), |n: &Sequential| eval.accuracy(n));
    let resumed_table = ftclip_bench::campaign_summary_table("resume_check", &resumed, &rates).unwrap();

    assert_eq!(resumed_table.to_csv(), fresh_table.to_csv(), "CSV must be byte-identical");
    assert_eq!(resumed_table.to_json(), fresh_table.to_json(), "JSON must be byte-identical");
    std::fs::remove_dir_all(&root).ok();
}

/// PR 2's content addresses must not move when the suffix engine lands:
/// suffix evaluation changes how cells are *computed*, never how they are
/// *addressed*, so every cache directory populated before this PR stays
/// valid. The fixture net and config are fully seeded, making the key a
/// constant.
#[test]
fn store_cache_keys_are_pinned() {
    let key = campaign_fingerprint(&tiny_net(), campaign().config()).key().to_hex();
    assert_eq!(
        key, "af9fb898215c0e1a93c97000324cf9af",
        "campaign fingerprint moved — old caches orphaned"
    );
}

/// The suffix evaluator must reproduce the full-forward fixtures bit for
/// bit at every thread count, with a cold, a warm (shared across runs) and
/// a budget-exhausted prefix cache.
#[test]
fn suffix_evaluator_reproduces_closure_fixtures_at_all_cache_states() {
    let data = tiny_data(7);
    let eval = EvalSet::from_dataset(data.test(), 32);
    let net = tiny_net();
    let campaign = campaign();

    let fresh = campaign.run(&net, 1, &NoCache, |n: &Sequential| eval.accuracy(n));

    // cold: a fresh evaluator (and cache) per thread count
    for threads in [1usize, 2, 4] {
        let cold = campaign.run(&net, threads, &NoCache, eval.suffix_eval());
        assert_eq!(cold.runs, fresh.runs, "cold cache, {threads} threads");
        assert_eq!(result_bits(&cold), result_bits(&fresh), "cold cache, {threads} threads");
    }

    // warm: one shared evaluator across repeated runs and thread counts
    let warm = eval.suffix_eval();
    for threads in [1usize, 2, 4] {
        let run = campaign.run(&net, threads, &NoCache, warm.clone());
        assert_eq!(run.runs, fresh.runs, "warm cache, {threads} threads");
        assert_eq!(result_bits(&run), result_bits(&fresh), "warm cache, {threads} threads");
    }
    assert!(warm.cache().stats().hits > 0, "warm runs must actually hit the prefix cache");

    // budget-exhausted: a zero-byte budget memoizes nothing and falls back
    // to recomputing every prefix — still bit-identical
    let exhausted = eval.suffix_eval_with_budget(0);
    let run = campaign.run(&net, 2, &NoCache, exhausted.clone());
    assert_eq!(run.runs, fresh.runs, "budget-exhausted cache");
    assert_eq!(result_bits(&run), result_bits(&fresh), "budget-exhausted cache");
    let stats = exhausted.cache().stats();
    assert_eq!(stats.entries, 0, "budget 0 must store nothing");
    assert!(stats.rejected > 0, "inserts must have been refused, not skipped");
}

/// Suffix-evaluated and closure-evaluated campaigns interoperate through
/// one persistent store session: either may populate, either may resume,
/// and the merged result always replays the fresh bits.
#[test]
fn suffix_and_closure_paths_share_store_cells() {
    let data = tiny_data(7);
    let eval = EvalSet::from_dataset(data.test(), 32);
    let net = tiny_net();
    let campaign = campaign();

    let fresh = campaign.run(&net, 1, &NoCache, |n: &Sequential| eval.accuracy(n));

    let (store, root) = fresh_store("suffix");
    // populate with the suffix evaluator …
    let populated = campaign.run(&net, 4, &session(&store, &net), eval.suffix_eval());
    assert_eq!(populated.runs, fresh.runs, "suffix-populated run must match uncached");

    // … interrupt, resume with the legacy closure …
    let dir = session(&store, &net).dir().to_path_buf();
    delete_half_the_cells(&dir);
    let resumed = campaign.run(&net, 2, &session(&store, &net), |n: &Sequential| eval.accuracy(n));
    assert_eq!(resumed.runs, fresh.runs, "closure resume over suffix-written cells");

    // … interrupt again, resume with the suffix evaluator
    delete_half_the_cells(&dir);
    let resumed = campaign.run(&net, 1, &session(&store, &net), eval.suffix_eval());
    assert_eq!(resumed.runs, fresh.runs, "suffix resume over closure-written cells");
    assert_eq!(result_bits(&resumed), result_bits(&fresh));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn raising_repetitions_resumes_instead_of_restarting() {
    // the fingerprint deliberately excludes the repetition count: a larger
    // --reps run must reuse every cell the smaller run already paid for
    let data = tiny_data(11);
    let eval = EvalSet::from_dataset(data.test(), 32);
    let net = tiny_net();
    let small = Campaign::new(CampaignConfig {
        fault_rates: vec![1e-4, 1e-3],
        repetitions: 2,
        seed: 5,
        model: FaultModel::BitFlip,
        target: InjectionTarget::AllWeights,
        stopping: None,
    });
    let mut big_cfg = small.config().clone();
    big_cfg.repetitions = 4;
    let big = Campaign::new(big_cfg);

    let (store, root) = fresh_store("reps");
    let open = || store.session(&campaign_fingerprint(&net, small.config())).expect("session");
    small.run(&net, 2, &open(), |n: &Sequential| eval.accuracy(n));
    let cached_before = open().cached_cells();
    assert_eq!(cached_before, 4, "2 rates × 2 reps");

    let evals = AtomicUsize::new(0);
    let result = big.run(&net, 2, &open(), |n: &Sequential| {
        evals.fetch_add(1, Ordering::Relaxed);
        eval.accuracy(n)
    });
    assert_eq!(result.runs.len(), 8);
    // at most the 4 new cells (minus any zero-fault reuse) are evaluated
    assert!(
        evals.load(Ordering::Relaxed) <= 4,
        "only new cells may evaluate, got {}",
        evals.load(Ordering::Relaxed)
    );
    assert_eq!(open().cached_cells(), 8);

    // and the merged result matches an uncached big run bit for bit
    let uncached = big.run(&net, 1, &NoCache, |n: &Sequential| eval.accuracy(n));
    assert_eq!(result.runs, uncached.runs);
    std::fs::remove_dir_all(&root).ok();
}
