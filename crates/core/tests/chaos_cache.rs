//! Failpoint-driven cache chaos tests: the prefix cache and the plan cache
//! are pure accelerators, so any injected eviction, refused insert or cache
//! bypass must leave every accuracy bit-identical to the undisturbed run.
//!
//! Failpoint schedules are process-global, so these live in their own
//! integration binary and serialize on [`LOCK`].

use std::sync::{Mutex, PoisonError};

use ftclip_core::failpoint;
use ftclip_core::{AucConfig, EvalSet, PrefixCache, ThresholdTuner, TunerConfig};
use ftclip_data::SynthCifar;
use ftclip_fault::{FaultModel, InjectionTarget};
use ftclip_nn::{Layer, Sequential};

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn data() -> SynthCifar {
    SynthCifar::builder().seed(5).train_size(16).val_size(16).test_size(32).build()
}

fn conv_net() -> Sequential {
    Sequential::new(vec![
        Layer::conv2d(3, 4, 3, 1, 1, 21),
        Layer::relu(),
        Layer::flatten(),
        Layer::linear(4 * 32 * 32, 16, 22),
        Layer::relu(),
        Layer::linear(16, 10, 23),
    ])
}

/// Random mid-campaign evictions force prefix recomputation; every score
/// stays bit-identical to the full forward pass.
#[test]
fn prefix_evictions_fall_back_bit_identically() {
    let _g = guard();
    let d = data();
    let eval = EvalSet::from_dataset(d.test(), 8);
    let net = conv_net();
    let full = eval.accuracy(&net).to_bits();
    let cache = PrefixCache::new(64 << 20);
    failpoint::configure("core.prefix_evict=delay(0):0.5;seed=41").unwrap();
    for _ in 0..3 {
        for cut in 1..=net.len() {
            assert_eq!(eval.accuracy_suffix(&net, cut, &cache).to_bits(), full, "cut {cut}");
        }
    }
    failpoint::clear();
    // and an undisturbed pass over the surviving cache still agrees
    for cut in 1..=net.len() {
        assert_eq!(eval.accuracy_suffix(&net, cut, &cache).to_bits(), full, "post-chaos cut {cut}");
    }
}

/// Refused inserts degrade the cache to recomputation — bit-identical, with
/// the refusals visible in the stats.
#[test]
fn refused_prefix_inserts_fall_back_bit_identically() {
    let _g = guard();
    let d = data();
    let eval = EvalSet::from_dataset(d.test(), 8);
    let net = conv_net();
    let full = eval.accuracy(&net).to_bits();
    let cache = PrefixCache::new(64 << 20);
    failpoint::configure("core.prefix_insert=delay(0)").unwrap();
    for cut in 1..=net.len() {
        assert_eq!(eval.accuracy_suffix(&net, cut, &cache).to_bits(), full, "cut {cut}");
    }
    failpoint::clear();
    let stats = cache.stats();
    assert_eq!(stats.entries, 0, "every insert was injected away");
    assert!(stats.rejected > 0);
    assert_eq!(stats.bytes_held, 0);
}

/// A plan-cache bypass recompiles the forward plan from scratch; the
/// recompiled plan executes bit-identically to the memoized one.
#[test]
fn plan_cache_bypass_is_bit_identical() {
    let _g = guard();
    let d = data();
    let eval = EvalSet::from_dataset(d.test(), 8);
    let net = conv_net();
    let warm = eval.accuracy(&net).to_bits(); // populates the plan cache
    failpoint::configure("nn.plan_cache=delay(0):0.7;seed=17").unwrap();
    for _ in 0..3 {
        assert_eq!(eval.accuracy(&net).to_bits(), warm);
    }
    failpoint::clear();
    assert_eq!(eval.accuracy(&net).to_bits(), warm);
}

/// Tunes both clipping sites of `conv_net` with Algorithm 1, each with
/// faults in the layer feeding it, and returns every result bit: the
/// thresholds and every boundary AUC of every iteration.
fn tuning_bits() -> Vec<u64> {
    let d = data();
    let eval = EvalSet::from_dataset(d.test(), 8);
    let mut net = conv_net();
    net.convert_to_clipped(&[3.0, 3.0]);
    let mut bits = Vec::new();
    for (site, feeding, fault_rates) in [(1, 0, vec![1e-3, 1e-2]), (4, 3, vec![1e-5, 1e-4])] {
        let auc = AucConfig {
            fault_rates,
            repetitions: 2,
            seed: 12,
            model: FaultModel::BitFlip,
            target: InjectionTarget::Layer(feeding),
        };
        let tuner =
            ThresholdTuner::new(TunerConfig { max_iterations: 2, min_iterations: 2, delta: 0.0, auc });
        let outcome = tuner.tune_site(&mut net, site, 3.0, &eval).unwrap();
        bits.push(u64::from(outcome.threshold.to_bits()));
        bits.extend(outcome.trace.iter().flat_map(|it| it.aucs).map(f64::to_bits));
    }
    bits
}

/// Evictions and refused inserts in the prefix and cut caches, and a zero
/// byte budget, leave Algorithm 1 bit-identical to the undisturbed run.
#[test]
fn tuning_under_cache_chaos_is_bit_identical() {
    let _g = guard();
    let undisturbed = tuning_bits();
    for schedule in ["core.prefix_insert=delay(0)", "core.prefix_evict=delay(0):0.5;seed=43"] {
        failpoint::configure(schedule).unwrap();
        let chaotic = tuning_bits();
        failpoint::clear();
        assert_eq!(chaotic, undisturbed, "{schedule}");
    }
    let budget = std::env::var_os("FTCLIP_PREFIX_CACHE_MB");
    std::env::set_var("FTCLIP_PREFIX_CACHE_MB", "0");
    let starved = tuning_bits();
    match budget {
        Some(mb) => std::env::set_var("FTCLIP_PREFIX_CACHE_MB", mb),
        None => std::env::remove_var("FTCLIP_PREFIX_CACHE_MB"),
    }
    assert_eq!(starved, undisturbed, "budget 0");
}
