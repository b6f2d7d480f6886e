//! Progress and cancellation through concurrent threshold tuning: the
//! tuner measures an iteration's boundaries on worker threads, and each
//! worker must carry the calling thread's campaign observer, so that every
//! tuning cell is reported and a cancel unwinds at the next cell boundary.
//!
//! Run under `FTCLIP_THREADS=4` (as CI does): `with_thread_limit` only caps
//! the process-wide count, and at one thread every measurement runs on the
//! calling thread, where the observer is installed anyway.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ftclip_core::{AucConfig, Methodology, ProfileConfig, TunerConfig};
use ftclip_data::SynthCifar;
use ftclip_fault::{
    with_observer, CampaignObserver, CancelledCampaign, FaultModel, InjectionTarget, RunRecord,
};
use ftclip_nn::{Layer, Sequential};
use ftclip_tensor::with_thread_limit;

/// Counts what it hears; asks to cancel once `cancel_after` cells were
/// reported.
#[derive(Default)]
struct Counter {
    cells: AtomicUsize,
    cleans: AtomicUsize,
    cancel_after: Option<usize>,
}

impl CampaignObserver for Counter {
    fn on_cell(&self, _record: &RunRecord, _cached: bool) {
        self.cells.fetch_add(1, Ordering::Relaxed);
    }

    fn on_clean(&self, _accuracy: f64) {
        self.cleans.fetch_add(1, Ordering::Relaxed);
    }

    fn cancel_requested(&self) -> bool {
        self.cancel_after.is_some_and(|n| self.cells.load(Ordering::Relaxed) >= n)
    }
}

const RATES: usize = 2;
const REPS: usize = 2;

fn methodology() -> Methodology {
    Methodology {
        profile: ProfileConfig { subset_size: 32, seed: 3, batch_size: 16, bins: 8 },
        tuner: TunerConfig {
            max_iterations: 3,
            min_iterations: 3,
            delta: 0.0,
            auc: AucConfig {
                fault_rates: vec![1e-3, 1e-2],
                repetitions: REPS,
                seed: 9,
                model: FaultModel::BitFlip,
                target: InjectionTarget::AllWeights,
            },
        },
    }
}

/// Hardens a two-site net under `observer` at a `threads` budget and
/// returns the number of AUC campaigns the tuner ran.
fn harden(threads: usize, observer: Arc<Counter>) -> usize {
    let data = SynthCifar::builder()
        .seed(61)
        .train_size(8)
        .val_size(48)
        .test_size(8)
        .image_size(8)
        .noise_std(0.1)
        .build();
    let mut net = Sequential::new(vec![
        Layer::conv2d(3, 4, 3, 1, 1, 70),
        Layer::relu(),
        Layer::flatten(),
        Layer::linear(4 * 64, 12, 71),
        Layer::relu(),
        Layer::linear(12, 10, 72),
    ]);
    let report =
        with_thread_limit(threads, || with_observer(observer, || methodology().harden(&mut net, data.val())));
    report.per_layer.iter().map(|l| l.outcome.campaigns).sum()
}

#[test]
fn harden_reports_every_tuning_cell_at_any_thread_count() {
    let heard = |threads: usize| {
        let observer = Arc::new(Counter::default());
        let campaigns = harden(threads, observer.clone());
        (campaigns, observer.cleans.load(Ordering::Relaxed), observer.cells.load(Ordering::Relaxed))
    };
    let (campaigns, cleans, cells) = heard(1);
    assert!(campaigns > 0);
    assert_eq!((cleans, cells), (campaigns, campaigns * RATES * REPS), "one thread");
    assert_eq!(heard(4), (campaigns, cleans, cells), "four threads");
}

#[test]
fn a_cancel_during_harden_unwinds_with_a_cancelled_campaign() {
    let cancel_after = 3;
    let observer = Arc::new(Counter { cancel_after: Some(cancel_after), ..Counter::default() });
    let caught = catch_unwind(AssertUnwindSafe(|| harden(4, observer.clone())))
        .expect_err("the cancel must unwind the harden");
    assert!(caught.downcast_ref::<CancelledCampaign>().is_some(), "payload replaced");
    // cells already running when the cancel came may still finish, at most
    // one per thread; no cell starts after it
    let cells = observer.cells.load(Ordering::Relaxed);
    assert!((cancel_after..=cancel_after + 4).contains(&cells), "{cells} cells heard");
}
