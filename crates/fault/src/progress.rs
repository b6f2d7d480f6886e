//! Campaign progress observation and cooperative cancellation.
//!
//! Long-running campaign grids are opaque from the outside:
//! [`Campaign::run`](crate::Campaign::run) returns one
//! [`CampaignResult`](crate::CampaignResult) at the end and says nothing
//! until then. A [`CampaignObserver`] opens a side channel — the executor
//! reports every completed cell (and whether it was served from a cache) as
//! it happens, and polls the observer for cancellation at cell boundaries,
//! where the substrate is guaranteed to be in its clean state. This holds
//! for every substrate, f32 and int8 alike.
//!
//! The observer is installed per *calling thread* with [`with_observer`];
//! the campaign executor captures it on entry and carries it into its
//! worker threads, so one installation covers the whole grid regardless of
//! the thread count. Observation is pure side channel: it never changes a
//! result bit, and the no-observer path costs one thread-local read per
//! campaign.
//!
//! Cancellation unwinds the campaign with [`CancelledCampaign`] as the
//! panic payload. Drivers that offer cancellation catch it with
//! [`std::panic::catch_unwind`] and downcast the payload; every thread
//! budget taken out with `ftclip_tensor::with_thread_limit` is restored by
//! its drop guard during the unwind, so a cancelled campaign releases its
//! workers cleanly.

use std::cell::RefCell;
use std::sync::Arc;

use crate::{RateConvergence, RunRecord};

/// Receives campaign progress and answers cancellation polls.
///
/// All methods default to no-ops, so an observer implements only what it
/// needs. Implementations must be `Send + Sync`: the executor's
/// workers share one observer.
pub trait CampaignObserver: Send + Sync {
    /// A cell completed. `cached` is `true` when the record was replayed
    /// from a [`CampaignCache`](crate::CampaignCache) instead of evaluated.
    fn on_cell(&self, record: &RunRecord, cached: bool) {
        let _ = (record, cached);
    }

    /// The clean (fault-free) accuracy was resolved — computed fresh or
    /// replayed from a cache. Reported once per campaign, before any cell.
    fn on_clean(&self, accuracy: f64) {
        let _ = accuracy;
    }

    /// An adaptive campaign retired a rate: its confidence interval met the
    /// stopping rule's target (or the rate exhausted `max_reps`). Reported
    /// once per rate, only when a [`StoppingRule`](crate::StoppingRule) is
    /// installed; fixed-grid campaigns never call this.
    fn on_rate_converged(&self, report: &RateConvergence) {
        let _ = report;
    }

    /// Polled at every cell boundary. Returning `true` makes the executor
    /// unwind with a [`CancelledCampaign`] payload instead of starting the
    /// next cell.
    fn cancel_requested(&self) -> bool {
        false
    }
}

/// Panic payload used by the executor when [`CampaignObserver::cancel_requested`]
/// returns `true`. Catch with [`std::panic::catch_unwind`] and downcast to
/// distinguish cancellation from a genuine panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelledCampaign;

thread_local! {
    static OBSERVER: RefCell<Option<Arc<dyn CampaignObserver>>> = const { RefCell::new(None) };
}

/// Runs `f` with `observer` installed as the current thread's campaign
/// observer; every campaign started inside `f` (on this thread) reports to
/// it. The previous observer is restored on exit, panic included.
pub fn with_observer<T>(observer: Arc<dyn CampaignObserver>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn CampaignObserver>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            OBSERVER.with(|slot| *slot.borrow_mut() = prev);
        }
    }
    let prev = OBSERVER.with(|slot| slot.borrow_mut().replace(observer));
    let _restore = Restore(prev);
    f()
}

/// The observer installed on the current thread, if any. The campaign
/// executor calls this once on entry and carries the handle into its
/// workers (worker threads have fresh thread-locals of their own).
pub fn current_observer() -> Option<Arc<dyn CampaignObserver>> {
    OBSERVER.with(|slot| slot.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct Counter(AtomicUsize);
    impl CampaignObserver for Counter {
        fn on_cell(&self, _record: &RunRecord, _cached: bool) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn observer_scopes_nest_and_restore() {
        assert!(current_observer().is_none());
        let outer = Arc::new(Counter::default());
        with_observer(outer.clone(), || {
            assert!(current_observer().is_some());
            let inner = Arc::new(Counter::default());
            with_observer(inner, || assert!(current_observer().is_some()));
            // the outer observer is back after the inner scope ends
            current_observer()
                .unwrap()
                .on_cell(&RunRecord { rate_index: 0, repetition: 0, fault_count: 0, accuracy: 1.0 }, false);
        });
        assert_eq!(outer.0.load(Ordering::Relaxed), 1);
        assert!(current_observer().is_none());
    }

    #[test]
    fn observer_restored_across_panic() {
        let result = std::panic::catch_unwind(|| {
            with_observer(Arc::new(Counter::default()), || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(current_observer().is_none(), "panic must not leak the observer");
    }

    #[test]
    fn fresh_threads_start_unobserved() {
        with_observer(Arc::new(Counter::default()), || {
            let seen = std::thread::scope(|s| s.spawn(|| current_observer().is_some()).join().unwrap());
            assert!(!seen, "thread-locals do not cross thread spawns");
        });
    }
}
