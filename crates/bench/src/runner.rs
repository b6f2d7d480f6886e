//! The [`Runner`]: executes one [`ExperimentSpec`] or a batch of specs
//! under one shared thread budget, model zoo and campaign cache.
//!
//! # Batch scheduling
//!
//! `run_batch` composes with the existing adaptive thread split: the batch
//! fans specs over `min(FTCLIP_THREADS, batch size)` workers, each worker
//! runs its experiments under `with_thread_limit(budget)`, and *inside*
//! that budget the campaign executor fans `(rate × repetition)` cells out,
//! handing leftover threads to the batch-sharded evaluation — three levels
//! (experiments × cells × eval shards) sharing one budget.
//!
//! Results are **bit-identical** to running the same specs serially in
//! spec order: every experiment's tables are already thread-count-invariant
//! (the campaign and evaluation engines guarantee it), experiments write
//! disjoint output files (duplicate names are rejected up front), and the
//! campaign cache tolerates concurrent duplicate writers (cells are
//! deterministic; first parsed copy wins). Reports are buffered per
//! experiment and returned in batch order, so even the human-readable
//! output never interleaves.

use crate::experiments::{run_procedure, CleanAccuracyMemo, RunContext, WorkloadMemo};
use crate::settings::RunSettings;
use crate::spec::{ExperimentSpec, SpecError};

/// What one executed experiment produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The spec's output name.
    pub name: String,
    /// The buffered human-readable report (the panels a figure binary used
    /// to print).
    pub report: String,
    /// Paths of the emitted CSV files (each has a JSON sibling).
    pub tables: Vec<std::path::PathBuf>,
    /// Failed shape checks (empty on full success). Entry points reflect
    /// these in their exit code.
    pub failures: Vec<String>,
}

impl RunOutcome {
    /// `true` when every shape check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Executes specs against shared run settings (output directory, cache
/// root, model-zoo directory) and a shared in-memory workload memo.
#[derive(Debug, Default)]
pub struct Runner {
    settings: RunSettings,
    workloads: WorkloadMemo,
    clean_memo: CleanAccuracyMemo,
}

impl Runner {
    /// A runner over the given settings.
    pub fn new(settings: RunSettings) -> Self {
        Runner {
            settings,
            workloads: WorkloadMemo::default(),
            clean_memo: CleanAccuracyMemo::default(),
        }
    }

    /// The run settings.
    pub fn settings(&self) -> &RunSettings {
        &self.settings
    }

    /// Validates and executes one spec.
    ///
    /// # Errors
    ///
    /// Any [`ExperimentSpec::validate`] error, or
    /// [`SpecError::UnknownLayer`] when a named layer does not exist in the
    /// workload network.
    pub fn run(&self, spec: &ExperimentSpec) -> Result<RunOutcome, SpecError> {
        spec.validate()?;
        let mut ctx = RunContext::new(spec, &self.settings, &self.workloads, &self.clean_memo);
        run_procedure(&mut ctx)?;
        let (report, tables, failures) = ctx.into_outcome();
        Ok(RunOutcome { name: spec.name.clone(), report, tables, failures })
    }

    /// Validates every spec, then executes the batch under the shared
    /// thread budget (see the module docs). Outcomes come back in spec
    /// order; results are bit-identical to running each spec serially.
    ///
    /// # Errors
    ///
    /// [`SpecError::DuplicateName`] when two specs share an output name
    /// (their result files would clobber each other), or any member spec's
    /// error wrapped in [`SpecError::InSpec`]. Validation errors surface
    /// before any work starts.
    ///
    /// # Panics
    ///
    /// Panics if a batch worker thread panics.
    ///
    /// # Examples
    ///
    /// A two-spec batch over an untrained sliver-width workload, with all
    /// outputs routed to a temp directory:
    ///
    /// ```
    /// use ftclip_bench::{ExperimentSpec, Procedure, RateGrid, RunSettings, Runner};
    ///
    /// let spec = |name: &str| -> ExperimentSpec {
    ///     let mut spec = ExperimentSpec::builder(Procedure::CampaignSummary, name)
    ///         .rates(RateGrid::Absolute(vec![1e-4]))
    ///         .repetitions(1)
    ///         .eval_size(16)
    ///         .build()
    ///         .unwrap();
    ///     spec.workload.epochs = 0;
    ///     spec.workload.width_mult = 0.05;
    ///     spec.data.train_size = 8;
    ///     spec.data.val_size = 8;
    ///     spec.data.test_size = 16;
    ///     spec
    /// };
    ///
    /// let tmp = std::env::temp_dir().join(format!("ftclip-doc-batch-{}", std::process::id()));
    /// let runner = Runner::new(RunSettings {
    ///     out_dir: tmp.join("results"),
    ///     cache_root: None,
    ///     assets_dir: tmp.join("assets"),
    ///     ..RunSettings::default()
    /// });
    /// let outcomes = runner.run_batch(&[spec("doc_a"), spec("doc_b")])?;
    /// assert_eq!(outcomes.len(), 2); // spec order, regardless of fan-out
    /// assert!(outcomes.iter().all(|o| o.passed() && !o.tables.is_empty()));
    /// std::fs::remove_dir_all(tmp).ok();
    /// # Ok::<(), ftclip_bench::SpecError>(())
    /// ```
    pub fn run_batch(&self, specs: &[ExperimentSpec]) -> Result<Vec<RunOutcome>, SpecError> {
        self.run_batch_with_threads(specs, ftclip_tensor::num_threads())
    }

    /// [`Runner::run_batch`] with an explicit thread budget
    /// (`FTCLIP_THREADS` is process-global and cached, so tests comparing
    /// thread counts inside one process use this entry point — the same
    /// convention as the `threads` argument of `Campaign::run`).
    ///
    /// # Errors
    ///
    /// See [`Runner::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if a batch worker thread panics.
    pub fn run_batch_with_threads(
        &self,
        specs: &[ExperimentSpec],
        threads: usize,
    ) -> Result<Vec<RunOutcome>, SpecError> {
        for (i, spec) in specs.iter().enumerate() {
            spec.validate().map_err(|e| SpecError::InSpec(spec.name.clone(), Box::new(e)))?;
            if let Some(first) = specs[..i].iter().position(|prior| prior.name == spec.name) {
                return Err(SpecError::DuplicateName {
                    name: spec.name.clone(),
                    first: first + 1,
                    second: i + 1,
                });
            }
        }

        // pre-warm the workload memo serially: concurrent first-loads of one
        // model would race on training (wasteful) and on the zoo cache file
        for spec in specs {
            if spec.procedure.uses_workload() {
                let ctx = RunContext::new(spec, &self.settings, &self.workloads, &self.clean_memo);
                let _ = ctx.workload();
            }
        }

        let workers = threads.min(specs.len()).max(1);
        if workers <= 1 || specs.len() <= 1 {
            // honor the explicit budget even without batch fan-out: the
            // campaign/eval engines underneath must not exceed `threads`
            return ftclip_tensor::with_thread_limit(threads.max(1), || {
                specs
                    .iter()
                    .map(|spec| self.run(spec).map_err(|e| SpecError::InSpec(spec.name.clone(), Box::new(e))))
                    .collect()
            });
        }

        // the first `threads % workers` workers absorb the remainder so the
        // whole budget is in use (mirrors the campaign executor's split)
        let inner = threads / workers;
        let spare = threads % workers;
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<RunOutcome, SpecError>>> = Vec::new();
        slots.resize_with(specs.len(), || None);
        let slots_mutex = std::sync::Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let next = &next;
                let slots_mutex = &slots_mutex;
                let budget = (inner + usize::from(w < spare)).max(1);
                handles.push(scope.spawn(move || {
                    ftclip_tensor::with_thread_limit(budget, || loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= specs.len() {
                            return;
                        }
                        let result = self
                            .run(&specs[i])
                            .map_err(|e| SpecError::InSpec(specs[i].name.clone(), Box::new(e)));
                        slots_mutex.lock().expect("batch slot lock")[i] = Some(result);
                    })
                }));
            }
            for handle in handles {
                handle.join().expect("batch worker panicked");
            }
        });
        slots.into_iter().map(|slot| slot.expect("every batch slot filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Procedure, RateGrid};
    use ftclip_fault::CampaignError;

    #[test]
    fn run_rejects_invalid_specs_before_any_work() {
        let spec = ExperimentSpec::builder(Procedure::CampaignSummary, "bad")
            .rates(RateGrid::Absolute(vec![]))
            .build_unchecked();
        let runner = Runner::new(RunSettings::default());
        assert_eq!(runner.run(&spec).unwrap_err(), SpecError::Campaign(CampaignError::EmptyRateGrid));
    }

    #[test]
    fn batch_rejects_duplicate_output_names() {
        let spec = ExperimentSpec::builder(Procedure::ModelSizes, "same").build().unwrap();
        let runner = Runner::new(RunSettings::default());
        let err = runner.run_batch(&[spec.clone(), spec]).unwrap_err();
        assert_eq!(err, SpecError::DuplicateName { name: "same".into(), first: 1, second: 2 });
        let msg = err.to_string();
        assert!(msg.contains("#1") && msg.contains("#2") && msg.contains("'same'"), "{msg}");
    }

    #[test]
    fn batch_wraps_member_validation_errors_with_the_spec_name() {
        let bad = ExperimentSpec::builder(Procedure::CampaignSummary, "broken")
            .repetitions(0)
            .build_unchecked();
        let runner = Runner::new(RunSettings::default());
        match runner.run_batch(&[bad]).unwrap_err() {
            SpecError::InSpec(name, inner) => {
                assert_eq!(name, "broken");
                assert_eq!(*inner, SpecError::Campaign(CampaignError::ZeroRepetitions));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
