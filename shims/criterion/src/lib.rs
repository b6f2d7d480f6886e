//! Offline stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! Provides the API subset the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `BenchmarkId`,
//! `criterion_group!`, `criterion_main!` — with a simple but honest
//! measurement loop: warm up, then time batches until a wall-clock budget is
//! spent, and report the per-iteration mean of the fastest batch (the usual
//! low-noise estimator for short benches).
//!
//! Passing `--test` (as `cargo bench -- --test` does) runs every benchmark
//! body exactly once, for smoke-testing benches in CI without the timing
//! cost. A substring filter argument is honored like upstream.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Benchmark identifier: `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id combining a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    smoke: bool,
    /// mean seconds per iteration of the fastest measured batch
    best: f64,
}

impl Bencher {
    /// Calls `f` repeatedly and records its per-iteration cost.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.smoke {
            let _ = f();
            self.best = 0.0;
            return;
        }
        // warm-up: run until ~20 ms spent (at least once)
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < Duration::from_millis(20) {
            let _ = f();
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        // aim for ~10 batches inside a ~200 ms budget
        let batch = ((0.02 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);
        let mut best = f64::INFINITY;
        let budget = Instant::now();
        let mut batches = 0;
        while batches < 10 && budget.elapsed() < Duration::from_millis(200) {
            let t = Instant::now();
            for _ in 0..batch {
                let _ = f();
            }
            best = best.min(t.elapsed().as_secs_f64() / batch as f64);
            batches += 1;
        }
        self.best = best;
    }
}

fn format_duration(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.3} s", seconds)
    }
}

/// The benchmark harness root.
pub struct Criterion {
    filter: Option<String>,
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        criterion_from_args(std::env::args().skip(1))
    }
}

fn criterion_from_args(args: impl Iterator<Item = String>) -> Criterion {
    let mut filter = None;
    let mut smoke = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // flags known to take no value
            "--test" => smoke = true,
            "--bench" | "--exact" | "--quiet" | "--verbose" | "--list" => {}
            // any other --flag is assumed to take a value (upstream's
            // --save-baseline, --measurement-time, …): consume it so it
            // is not mistaken for a name filter
            a if a.starts_with("--") => {
                if args.peek().is_some_and(|next| !next.starts_with("--")) {
                    args.next();
                }
            }
            a => filter = Some(a.to_string()),
        }
    }
    Criterion { filter, smoke }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { c: self, name: name.into() }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(&id.into().id, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher { smoke: self.smoke, best: f64::NAN };
        f(&mut b);
        if self.smoke {
            println!("{id}: ok (smoke)");
        } else if b.best.is_finite() {
            println!("{id}: {} /iter", format_duration(b.best));
        } else {
            println!("{id}: no measurement (Bencher::iter never called)");
        }
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes samples by wall-clock
    /// budget instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().id);
        self.c.run_one(&full, f);
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        self.c.run_one(&full, |b| f(b, input));
        self
    }

    /// Ends the group (no-op; matches the upstream API).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, as upstream `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_body_once() {
        let mut c = Criterion { filter: None, smoke: true };
        let mut calls = 0;
        c.bench_function("x", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion { filter: Some("match-me".into()), smoke: true };
        let mut ran = false;
        c.bench_function("other", |b| b.iter(|| ran = true));
        assert!(!ran);
        let mut group = c.benchmark_group("g");
        group.bench_with_input(BenchmarkId::new("match-me", 1), &0, |b, _| b.iter(|| ran = true));
        group.finish();
        assert!(ran);
    }

    #[test]
    fn flag_values_are_not_mistaken_for_filters() {
        let c = criterion_from_args(["--save-baseline", "main", "--bench"].map(String::from).into_iter());
        assert!(c.filter.is_none(), "'main' is --save-baseline's value, not a filter");
        let c = criterion_from_args(["matmul", "--test"].map(String::from).into_iter());
        assert_eq!(c.filter.as_deref(), Some("matmul"));
        assert!(c.smoke);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(2.5e-9), "2.5 ns");
        assert_eq!(format_duration(3.1e-5), "31.00 µs");
        assert_eq!(format_duration(0.004), "4.00 ms");
    }
}
