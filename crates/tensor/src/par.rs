//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! The workspace deliberately avoids a thread-pool dependency: [`fan_out`]
//! runs independent items (experiments, campaign cells, evaluation batches,
//! matmul column bands) over one split thread budget, and [`par_row_bands`]
//! hands the kernels disjoint `&mut` row bands of an output matrix.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Per-thread cap on [`num_threads`]; 0 means "no override". Set by
    /// [`with_thread_limit`] so coarse-grained parallel drivers (e.g. the
    /// fault-injection campaign executor) can stop the kernels underneath
    /// them from oversubscribing the machine with nested thread scopes.
    static THREAD_LIMIT: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads used by [`par_row_bands`] and the matmul kernels.
///
/// Resolves to `std::thread::available_parallelism()` capped at 8 (the
/// kernels are memory-bound beyond that on typical hardware). The value can
/// be overridden — e.g. forced to 1 for bit-reproducible single-threaded
/// runs — with the `FTCLIP_THREADS` environment variable, and capped per
/// thread by [`with_thread_limit`].
pub fn num_threads() -> usize {
    let global = global_num_threads();
    match THREAD_LIMIT.get() {
        0 => global,
        limit => limit.min(global),
    }
}

fn global_num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = match std::env::var("FTCLIP_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8),
    };
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Runs `f` with [`num_threads`] capped at `limit` on the current thread.
///
/// Kernel results are banding-invariant (every output row is produced by
/// exactly one thread regardless of the band count), so this changes
/// scheduling only, never numerics. The previous limit is restored on exit;
/// threads spawned *inside* `f` start with no limit of their own.
pub fn with_thread_limit<T>(limit: usize, f: impl FnOnce() -> T) -> T {
    assert!(limit >= 1, "thread limit must be at least 1");
    let prev = THREAD_LIMIT.get();
    THREAD_LIMIT.set(limit);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_LIMIT.set(self.0);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Worker `w`'s share of a `threads` budget split over `workers` workers:
/// `threads / workers`, plus one for the first `threads % workers` workers
/// so the whole budget is in use, and never less than 1.
pub fn budget_share(threads: usize, workers: usize, w: usize) -> usize {
    (threads / workers + usize::from(w < threads % workers)).max(1)
}

/// Runs `work(state, i)` for every `i in 0..items` over one `threads`
/// budget and returns the results **in index order**.
///
/// `min(threads, items)` scoped workers pull indices from one shared queue.
/// Each calls `init()` once for its own `state` and runs under
/// [`with_thread_limit`]`(`[`budget_share`]`(..))`, so when there are
/// fewer items than threads the leftover budget flows down to the kernels
/// underneath. A single worker runs inline on the calling thread under the
/// whole budget. Which worker runs which item is scheduling only: results
/// are bit-identical at any budget whenever `work` is pure per index.
///
/// # Panics
///
/// Panics if `threads == 0`. A panicking worker's payload is re-raised
/// with [`std::panic::resume_unwind`], so its cause stays downcastable at
/// the caller's `catch_unwind`.
pub fn fan_out<S, T: Send>(
    threads: usize,
    items: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    assert!(threads >= 1, "fan-out needs a budget of at least one thread");
    let workers = threads.min(items);
    if workers == 0 {
        return Vec::new();
    }
    if workers == 1 {
        return with_thread_limit(threads, || {
            let mut state = init();
            (0..items).map(|i| work(&mut state, i)).collect()
        });
    }
    let next = AtomicUsize::new(0);
    let worker = |w: usize| {
        with_thread_limit(budget_share(threads, workers, w), || {
            let mut state = init();
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    return done;
                }
                done.push((i, work(&mut state, i)));
            }
        })
    };
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || worker(w))).collect();
        handles.into_iter().map(join_keeping_payload).collect()
    });
    let mut done: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Joins a scoped worker, re-raising its own panic payload (a bare
/// `thread::scope` would replace it with a fixed message).
fn join_keeping_payload<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Splits `data` into `bands` contiguous chunks of whole rows (`row_len`
/// elements each) and runs `f(first_row_index, band_slice)` on each chunk,
/// possibly in parallel.
///
/// `f` must be safe to call concurrently on disjoint bands. Bands are
/// maximally even: the first `rows % bands` bands get one extra row.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `row_len`. A panicking
/// band's payload is re-raised with [`std::panic::resume_unwind`].
pub fn par_row_bands<F>(data: &mut [f32], row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(data.len() % row_len, 0, "data length must be a whole number of rows");
    let rows = data.len() / row_len;
    let threads = num_threads().min(rows.max(1));
    if threads <= 1 || rows <= 1 {
        f(0, data);
        return;
    }
    let base = rows / threads;
    let extra = rows % threads;
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut row0 = 0usize;
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let band_rows = base + usize::from(t < extra);
            let (band, tail) = rest.split_at_mut(band_rows * row_len);
            rest = tail;
            let fr = &f;
            let start = row0;
            handles.push(scope.spawn(move || fr(start, band)));
            row0 += band_rows;
        }
        handles.into_iter().for_each(join_keeping_payload);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn bands_cover_all_rows_exactly_once() {
        let rows = 17;
        let row_len = 5;
        let mut data = vec![0.0f32; rows * row_len];
        par_row_bands(&mut data, row_len, |first_row, band| {
            for (i, row) in band.chunks_mut(row_len).enumerate() {
                for x in row.iter_mut() {
                    *x += (first_row + i) as f32;
                }
            }
        });
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(data[r * row_len + c], r as f32, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn single_row_runs_inline() {
        let mut data = vec![1.0f32; 4];
        par_row_bands(&mut data, 4, |first, band| {
            assert_eq!(first, 0);
            for x in band.iter_mut() {
                *x *= 2.0;
            }
        });
        assert_eq!(data, vec![2.0; 4]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn rejects_ragged_rows() {
        let mut data = vec![0.0f32; 7];
        par_row_bands(&mut data, 3, |_, _| {});
    }

    #[test]
    fn thread_limit_caps_and_restores() {
        let unlimited = num_threads();
        with_thread_limit(1, || {
            assert_eq!(num_threads(), 1);
            // nested limits compose: the inner cap applies, then pops
            with_thread_limit(1, || assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 1);
        });
        assert_eq!(num_threads(), unlimited);
    }

    #[test]
    fn thread_limit_does_not_leak_to_spawned_threads() {
        let unlimited = num_threads();
        with_thread_limit(1, || {
            let inner = std::thread::scope(|s| s.spawn(num_threads).join().unwrap());
            assert_eq!(inner, unlimited, "fresh threads must start uncapped");
        });
    }

    #[derive(Debug, PartialEq)]
    struct Cause(usize);

    #[test]
    fn budget_share_splits_the_whole_budget() {
        let shares =
            |threads, workers| (0..workers).map(|w| budget_share(threads, workers, w)).collect::<Vec<_>>();
        assert_eq!(shares(8, 3), [3, 3, 2]);
        assert_eq!(shares(2, 4), [1, 1, 1, 1]);
        assert_eq!(shares(5, 5), [1; 5]);
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        for threads in [1, 2, 3, 8] {
            for items in [0, 1, 11] {
                let got = fan_out(threads, items, || (), |(), i| i * 10);
                let want: Vec<usize> = (0..items).map(|i| i * 10).collect();
                assert_eq!(got, want, "threads {threads}, items {items}");
            }
        }
    }

    #[test]
    fn fan_out_inits_once_per_worker() {
        for (threads, items) in [(1, 11), (3, 11), (8, 2), (4, 4)] {
            let inits = AtomicUsize::new(0);
            let per_state = fan_out(
                threads,
                items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |seen, _| {
                    *seen += 1;
                    *seen
                },
            );
            let inits = inits.load(Ordering::Relaxed);
            assert!((1..=threads.min(items)).contains(&inits), "{inits} inits for {threads}/{items}");
            // each state served its worker's items in turn; a worker the
            // queue left idle never starts a count
            let first_items = per_state.iter().filter(|&&k| k == 1).count();
            assert!((1..=inits).contains(&first_items), "{first_items} states used of {inits}");
        }
    }

    #[test]
    fn fan_out_workers_stay_within_their_share() {
        for (threads, items) in [(1, 5), (2, 5), (3, 2), (8, 3), (8, 11)] {
            let workers = threads.min(items);
            let max_share = budget_share(threads, workers, 0);
            // the state records the worker's limit as `init` saw it
            let seen = fan_out(threads, items, num_threads, |&mut at_init, _| (at_init, num_threads()));
            for (at_init, in_work) in seen {
                assert_eq!(at_init, in_work, "threads {threads}, items {items}");
                assert!(in_work <= max_share, "threads {threads}, items {items}: {in_work} > {max_share}");
            }
        }
    }

    #[test]
    fn fan_out_of_nothing_calls_nothing() {
        let got: Vec<()> = fan_out(4, 0, || panic!("init called"), |(), _| panic!("work called"));
        assert!(got.is_empty());
    }

    #[test]
    fn fan_out_panics_keep_their_payload() {
        // eleven items over two workers: the queue decides which worker
        // reaches which index, so any failing index may surface
        let caught = std::panic::catch_unwind(|| {
            fan_out(
                2,
                11,
                || (),
                |(), i| {
                    if i > 0 {
                        std::panic::panic_any(Cause(i));
                    }
                    i
                },
            )
        })
        .expect_err("the worker's panic must reach the caller");
        let cause = caught.downcast_ref::<Cause>().expect("payload replaced");
        assert!(cause.0 > 0, "{cause:?}");
    }

    #[test]
    fn row_band_panics_keep_their_payload() {
        let caught = std::panic::catch_unwind(|| {
            with_thread_limit(2, || {
                let mut data = vec![0.0f32; 8];
                par_row_bands(&mut data, 1, |first_row, _| std::panic::panic_any(Cause(first_row)));
            })
        })
        .expect_err("the band's panic must reach the caller");
        assert!(caught.downcast_ref::<Cause>().is_some(), "payload replaced");
    }

    #[test]
    fn banding_is_result_invariant() {
        // the same reduction at limit 1 and unlimited must agree bitwise
        let rows = 13;
        let row_len = 7;
        let run = |limit: Option<usize>| {
            let mut data: Vec<f32> = (0..rows * row_len).map(|i| (i as f32 * 0.1).sin()).collect();
            let body = |mut data: Vec<f32>| {
                par_row_bands(&mut data, row_len, |first_row, band| {
                    for (i, row) in band.chunks_mut(row_len).enumerate() {
                        let scale = (first_row + i) as f32 + 1.0;
                        for x in row.iter_mut() {
                            *x = x.mul_add(scale, 0.25);
                        }
                    }
                });
                data
            };
            match limit {
                Some(l) => with_thread_limit(l, || body(std::mem::take(&mut data))),
                None => body(data),
            }
        };
        let serial: Vec<u32> = run(Some(1)).iter().map(|x| x.to_bits()).collect();
        let parallel: Vec<u32> = run(None).iter().map(|x| x.to_bits()).collect();
        assert_eq!(serial, parallel);
    }
}
