//! Fault-injection campaigns: rates × repetitions with derived seeds.
//!
//! The `(rate × repetition)` grid is embarrassingly parallel — every cell
//! derives its own RNG from [`derive_seed`] and leaves the substrate exactly
//! as it found it — so [`Campaign::run`] fans the grid out over scoped
//! worker threads with results bit-identical at any thread count. One
//! executor serves every [`FaultSubstrate`]: the f32 [`Sequential`] here and
//! the int8 plan of `ftclip_quant`.

use ftclip_nn::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::progress::{current_observer, CampaignObserver, CancelledCampaign};
use crate::{derive_seed, AppliedInjection, FaultModel, Injection, InjectionTarget, Summary};

/// Configuration of a fault-injection campaign.
///
/// A campaign reproduces the experiment shape used throughout the paper:
/// for each fault rate, run `repetitions` independent injections (the paper
/// uses 50, §V-B) and record the surviving classification accuracy of each.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The fault rates to sweep (per-bit probabilities).
    pub fault_rates: Vec<f64>,
    /// Independent injections per rate.
    pub repetitions: usize,
    /// Base seed; run `(i, r)` uses [`derive_seed`]`(seed, i, r)`.
    pub seed: u64,
    /// The fault model applied to every sampled bit.
    pub model: FaultModel,
    /// Which parameter memories are corrupted.
    pub target: InjectionTarget,
    /// Sequential-sampling mode: when set, the executor schedules
    /// repetitions in deterministic waves and stop each rate as soon as its
    /// accuracy confidence interval is tighter than the rule's target (see
    /// [`StoppingRule`]). `None` runs the classic fixed grid of
    /// `repetitions` cells per rate.
    ///
    /// The rule never enters the store's cell fingerprint (just like
    /// `repetitions`): cells are addressed by `(rate_index, repetition)`,
    /// so adaptive and exhaustive runs share cached cells bit for bit.
    pub stopping: Option<StoppingRule>,
}

impl CampaignConfig {
    /// A campaign over the paper's whole-network fault-rate grid
    /// (Figs. 1b/7/8: 1e-8 … 1e-5, 1–2–5 spacing) with bit-flip faults on
    /// all weights.
    pub fn paper_default(seed: u64, repetitions: usize) -> Self {
        CampaignConfig {
            fault_rates: paper_fault_rates(),
            repetitions,
            seed,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        }
    }

    /// Checks that this configuration describes a runnable campaign.
    ///
    /// The empty rate grid is the historically painful case: it used to
    /// surface only as a `.expect("non-empty grid")` panic deep inside a
    /// figure binary, long after the experiment had trained its model.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`CampaignError`].
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.fault_rates.is_empty() {
            return Err(CampaignError::EmptyRateGrid);
        }
        if let Some(&bad) = self.fault_rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
            return Err(CampaignError::RateOutOfRange(bad));
        }
        if self.repetitions == 0 {
            return Err(CampaignError::ZeroRepetitions);
        }
        if let Some(rule) = &self.stopping {
            rule.validate()?;
        }
        Ok(())
    }
}

/// Number of bootstrap resamples behind [`StoppingRule::half_width`].
const STOPPING_RESAMPLES: usize = 200;
/// Confidence level of the stopping interval (95%).
const STOPPING_CONFIDENCE: f64 = 0.95;
/// Fixed resampler seed: the interval must be a pure function of the
/// samples so runs at any thread count reach identical decisions.
const STOPPING_BOOT_SEED: u64 = 0x5eed_c1a0_b007_57a9;

/// Sequential-sampling stopping rule for adaptive campaigns.
///
/// With a rule installed on [`CampaignConfig::stopping`], the executor
/// schedules repetitions in deterministic waves: every still-active rate
/// first runs `min_reps` repetitions, then the wave size doubles
/// (`min_reps`, `2·min_reps`, `4·min_reps`, …) until the rate's 95%
/// bootstrap confidence interval over its accuracy samples has a
/// half-width ≤ `target_half_width`, or `max_reps` repetitions have run.
///
/// Because cell seeds stay keyed by `(rate_index, repetition)` and the
/// interval is a deterministic function of the samples, an adaptive run is
/// a **bit-identical prefix** of the exhaustive run with
/// `repetitions = max_reps` — at any thread count, against any cache state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// Stop a rate once its confidence-interval half-width is ≤ this.
    pub target_half_width: f64,
    /// Repetitions every rate runs before the first convergence check.
    pub min_reps: usize,
    /// Hard per-rate budget: a rate that never converges stops here.
    pub max_reps: usize,
}

impl StoppingRule {
    /// Checks that the rule is satisfiable.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`CampaignError`].
    pub fn validate(&self) -> Result<(), CampaignError> {
        if !(self.target_half_width.is_finite() && self.target_half_width > 0.0) {
            return Err(CampaignError::BadHalfWidth(self.target_half_width));
        }
        if self.min_reps == 0 || self.min_reps > self.max_reps {
            return Err(CampaignError::BadRepBounds { min_reps: self.min_reps, max_reps: self.max_reps });
        }
        Ok(())
    }

    /// The half-width of the 95% bootstrap interval over `samples` — the
    /// quantity compared against `target_half_width`. Deterministic in the
    /// samples (see [`crate::bootstrap_interval`]); non-computable samples
    /// (empty, NaN) report `+∞`, which keeps the rate running to `max_reps`.
    pub fn half_width(&self, samples: &[f64]) -> f64 {
        crate::bootstrap_interval(samples, STOPPING_RESAMPLES, STOPPING_CONFIDENCE, STOPPING_BOOT_SEED)
            .map_or(f64::INFINITY, |ci| ci.half_width())
    }

    /// Whether a rate with these accuracy samples stops sampling: converged
    /// (`half_width ≤ target`, with at least `min_reps` samples) or out of
    /// budget (`max_reps` samples).
    pub fn satisfied(&self, samples: &[f64]) -> bool {
        samples.len() >= self.max_reps
            || (samples.len() >= self.min_reps && self.half_width(samples) <= self.target_half_width)
    }

    /// The deterministic wave boundaries: `min_reps`, then doubling, capped
    /// at `max_reps`.
    fn wave_boundaries(&self) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.min_reps;
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let b = next.min(self.max_reps);
            done = b == self.max_reps;
            next = next.saturating_mul(2);
            Some(b)
        })
    }
}

/// How one rate of an adaptive campaign finished (see
/// [`CampaignResult::convergence`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateConvergence {
    /// Index into [`CampaignConfig::fault_rates`].
    pub rate_index: usize,
    /// Repetitions actually sampled for this rate.
    pub reps_used: usize,
    /// Final confidence-interval half-width over the sampled accuracies.
    pub half_width: f64,
    /// `true` when the rate met the target; `false` when it exhausted
    /// `max_reps` first.
    pub converged: bool,
}

/// Why a [`CampaignConfig`] cannot be run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignError {
    /// The fault-rate grid is empty: there would be no cells to evaluate
    /// and no curve to summarize.
    EmptyRateGrid,
    /// A fault rate is outside `[0, 1]` (or NaN) — rates are per-bit
    /// probabilities.
    RateOutOfRange(f64),
    /// `repetitions == 0`: every rate needs at least one injection.
    ZeroRepetitions,
    /// The stopping rule's target half-width is not a positive finite
    /// number — no interval could ever satisfy it meaningfully.
    BadHalfWidth(f64),
    /// The stopping rule's repetition bounds are unsatisfiable
    /// (`min_reps == 0` or `min_reps > max_reps`).
    BadRepBounds {
        /// The rule's `min_reps`.
        min_reps: usize,
        /// The rule's `max_reps`.
        max_reps: usize,
    },
    /// A rate's accuracy samples cannot be summarized: the list is empty or
    /// contains NaN (reachable through a poisoned store row or a
    /// hand-built [`CampaignResult`]).
    DegenerateSamples {
        /// Index of the offending rate.
        rate_index: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::EmptyRateGrid => write!(f, "campaign needs at least one fault rate"),
            CampaignError::RateOutOfRange(r) => {
                write!(f, "fault rates must be in [0, 1]; got {r}")
            }
            CampaignError::ZeroRepetitions => write!(f, "campaign needs at least one repetition"),
            CampaignError::BadHalfWidth(w) => {
                write!(f, "stopping rule needs a positive finite target half-width; got {w}")
            }
            CampaignError::BadRepBounds { min_reps, max_reps } => write!(
                f,
                "stopping rule needs 1 ≤ min_reps ≤ max_reps; got min_reps = {min_reps}, max_reps = {max_reps}"
            ),
            CampaignError::DegenerateSamples { rate_index } => write!(
                f,
                "rate {rate_index} has no summarizable accuracy samples (empty or NaN)"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The fault-rate grid the paper sweeps in its whole-network experiments:
/// `{1, 5} × 10⁻⁸ … 10⁻⁵` (and `1e-5` endpoint).
pub fn paper_fault_rates() -> Vec<f64> {
    vec![1e-8, 5e-8, 1e-7, 5e-7, 1e-6, 5e-6, 1e-5]
}

/// Per-cell structure hint handed to the evaluation contract: which prefix
/// of the network is **provably clean** for the cell being evaluated.
///
/// `cut` is the earliest faulted layer of the cell's injection
/// ([`Injection::earliest_faulted_layer`]): every activation entering layer
/// `cut` is bit-identical to the clean network's, so a hint-aware evaluator
/// may reuse memoized clean-prefix activations and re-execute only the
/// suffix `[cut, len)`. `None` means "no structural knowledge" (e.g. the
/// clean-accuracy evaluation of a whole-network campaign) — evaluate the
/// full network.
///
/// The hint is purely an optimization channel: honoring it must never
/// change a result bit, and ignoring it is always correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuffixHint {
    /// Deepest layer index whose *input* activation is clean, or `None`.
    pub cut: Option<usize>,
}

impl SuffixHint {
    /// The hint carrying no structural knowledge: evaluate the full network.
    pub fn full() -> Self {
        SuffixHint { cut: None }
    }

    /// A hint naming `cut` as the earliest faulted layer.
    pub fn at(cut: usize) -> Self {
        SuffixHint { cut: Some(cut) }
    }
}

/// The campaign evaluation contract: scores a (possibly faulted) substrate,
/// optionally exploiting the [`SuffixHint`] describing its clean prefix.
///
/// Every plain `Fn(&S) -> f64 + Sync` closure implements this trait
/// (ignoring the hint): `|n: &Sequential| eval.accuracy(n)` for f32
/// campaigns, `|p: &QuantizedPlan| p.accuracy(images, labels, batch)` for
/// int8 ones. Hint-aware implementations (e.g. `ftclip_core`'s
/// suffix-accuracy evaluator over a prefix-activation cache) must return
/// **bit-identical** accuracies whether or not they use the hint — the
/// executor treats the two paths as interchangeable.
///
/// `Sync` is required because the executor shares one evaluator across
/// worker threads.
pub trait CellEval<S = Sequential>: Sync {
    /// Evaluates `net`. `hint` describes the clean prefix of the current
    /// cell (see [`SuffixHint`]).
    fn eval_cell(&self, net: &S, hint: SuffixHint) -> f64;
}

impl<S, F: Fn(&S) -> f64 + Sync> CellEval<S> for F {
    fn eval_cell(&self, net: &S, _hint: SuffixHint) -> f64 {
        self(net)
    }
}

/// The memory a campaign corrupts, seen through the four steps of a cell:
/// sample a fault set, read its size and clean-prefix hint, apply it, undo
/// it.
///
/// [`Sequential`] implements it over its f32 parameter words (through
/// [`Injection`]); `ftclip_quant`'s `QuantizedPlan` over its int8 weight
/// bytes. [`Campaign::run`] is generic over it, so both precisions share one
/// executor — seeds, cache protocol, fan-out, adaptive waves, progress and
/// cancellation. `Clone` gives every worker its own copy to corrupt; `Sync`
/// lets the workers share the clean original.
pub trait FaultSubstrate: Clone + Sync {
    /// A sampled fault set.
    type Faults;
    /// Proof of an applied fault set, consumed by
    /// [`FaultSubstrate::undo_faults`].
    type Applied;

    /// Samples one cell's fault set at per-bit probability `rate` under
    /// `config`'s fault model and target.
    fn sample_faults(&self, config: &CampaignConfig, rate: f64, rng: &mut StdRng) -> Self::Faults;

    /// Number of faults in `faults` (zero-fault cells reuse the clean
    /// accuracy without evaluating).
    fn fault_count(faults: &Self::Faults) -> usize;

    /// The clean prefix `faults` leave, handed to the evaluator.
    fn suffix_hint(faults: &Self::Faults) -> SuffixHint;

    /// Applies `faults`.
    fn apply_faults(&mut self, faults: &Self::Faults) -> Self::Applied;

    /// Restores the exact pre-[`FaultSubstrate::apply_faults`] state.
    fn undo_faults(&mut self, applied: Self::Applied);
}

impl FaultSubstrate for Sequential {
    type Faults = Injection;
    type Applied = AppliedInjection;

    fn sample_faults(&self, config: &CampaignConfig, rate: f64, rng: &mut StdRng) -> Injection {
        Injection::sample(self, config.target, config.model, rate, rng)
    }

    fn fault_count(faults: &Injection) -> usize {
        faults.fault_count()
    }

    /// Activations before the earliest faulted layer are bit-identical to
    /// the clean run.
    fn suffix_hint(faults: &Injection) -> SuffixHint {
        SuffixHint { cut: faults.earliest_faulted_layer() }
    }

    fn apply_faults(&mut self, faults: &Injection) -> AppliedInjection {
        faults.apply(self)
    }

    fn undo_faults(&mut self, applied: AppliedInjection) {
        applied.undo(self);
    }
}

/// A lookup/record interface for per-cell campaign results, implemented by
/// persistent stores (see the `ftclip_store` crate) and by [`NoCache`].
///
/// The executor consults the cache before evaluating a cell and records every
/// freshly computed cell afterwards. Because each cell's result is a pure
/// function of `(config, rate_index, repetition)` — the RNG is derived per
/// cell and evaluation is deterministic — replaying a cached [`RunRecord`]
/// is bit-identical to recomputing it, which is the property that makes
/// resumed campaigns indistinguishable from fresh ones.
///
/// Implementations must tolerate concurrent calls from the executor's
/// workers (hence the `Sync` bound).
pub trait CampaignCache: Sync {
    /// Returns the cached cell, or `None` if it has not been computed yet.
    fn lookup(&self, rate_index: usize, repetition: usize) -> Option<RunRecord>;

    /// Records a freshly computed cell.
    fn record(&self, _record: &RunRecord) {}

    /// Returns the cached clean (fault-free) accuracy, if known.
    fn clean_accuracy(&self) -> Option<f64> {
        None
    }

    /// Records the clean accuracy of a fresh run.
    fn record_clean(&self, _accuracy: f64) {}
}

/// The null cache: every lookup misses, every record is dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl CampaignCache for NoCache {
    fn lookup(&self, _rate_index: usize, _repetition: usize) -> Option<RunRecord> {
        None
    }
}

/// One (rate, repetition) cell of a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRecord {
    /// Index into [`CampaignConfig::fault_rates`].
    pub rate_index: usize,
    /// Repetition number within the rate.
    pub repetition: usize,
    /// Number of faults sampled for this run.
    pub fault_count: usize,
    /// Classification accuracy measured under fault.
    pub accuracy: f64,
}

/// Results of a completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The swept fault rates, in configuration order.
    pub fault_rates: Vec<f64>,
    /// `accuracies[i][r]` = accuracy of repetition `r` at rate `i`.
    pub accuracies: Vec<Vec<f64>>,
    /// Every individual run, in execution order.
    pub runs: Vec<RunRecord>,
    /// Clean (fault-free) accuracy of the network on the same evaluation
    /// set — the paper's "baseline accuracy" reference line.
    pub clean_accuracy: f64,
    /// Per-rate convergence report of an adaptive run (`None` for fixed
    /// `repetitions` grids): how many repetitions each rate actually
    /// sampled and the final interval half-width.
    pub convergence: Option<Vec<RateConvergence>>,
}

impl CampaignResult {
    /// Per-rate distribution summaries (the box plots of Figs. 7–8).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::DegenerateSamples`] naming the first rate
    /// whose sample list is empty or contains NaN — reachable through a
    /// poisoned store row or a hand-assembled result, so figure writers
    /// must route the error instead of panicking mid-report.
    pub fn summaries(&self) -> Result<Vec<Summary>, CampaignError> {
        self.accuracies
            .iter()
            .enumerate()
            .map(|(rate_index, a)| {
                Summary::from_samples(a).ok_or(CampaignError::DegenerateSamples { rate_index })
            })
            .collect()
    }

    /// Mean accuracy per rate (the line plots of Figs. 1b, 7a, 8a).
    pub fn mean_accuracies(&self) -> Vec<f64> {
        self.accuracies.iter().map(|a| a.iter().sum::<f64>() / a.len() as f64).collect()
    }

    /// Total repetitions actually sampled across all rates — the
    /// "injections paid" an adaptive run economizes on.
    pub fn total_repetitions(&self) -> usize {
        self.accuracies.iter().map(Vec::len).sum()
    }

    /// `(rate, mean accuracy)` pairs, with the clean point at rate 0
    /// prepended — the curve the AUC metric integrates.
    pub fn curve_with_clean_point(&self) -> Vec<(f64, f64)> {
        let mut pts = vec![(0.0, self.clean_accuracy)];
        pts.extend(self.fault_rates.iter().copied().zip(self.mean_accuracies()));
        pts
    }
}

/// A reusable campaign runner bound to a configuration.
///
/// The evaluation function is supplied by the caller (typically
/// "accuracy of `net` on an evaluation subset" via `ftclip_nn::evaluate`),
/// keeping this crate independent of any dataset type.
///
/// # Example
///
/// ```
/// use ftclip_fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget, NoCache};
/// use ftclip_nn::{Layer, Scratch, Sequential, Span};
///
/// let net = Sequential::new(vec![Layer::linear(4, 2, 0)]);
/// let cfg = CampaignConfig {
///     fault_rates: vec![1e-3, 1e-2],
///     repetitions: 3,
///     seed: 7,
///     model: FaultModel::BitFlip,
///     target: InjectionTarget::AllWeights,
///     stopping: None,
/// };
/// // toy evaluation: fraction of finite outputs
/// let result = Campaign::new(cfg).run(&net, 2, &NoCache, |n: &Sequential| {
///     let y = n.execute(&ftclip_tensor::Tensor::ones(&[1, 4]), Span::full(), &mut Scratch::new());
///     y.iter().filter(|v| v.is_finite()).count() as f64 / y.len() as f64
/// });
/// assert_eq!(result.accuracies.len(), 2);
/// assert_eq!(result.accuracies[0].len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign runner.
    ///
    /// # Panics
    ///
    /// Panics if the rate list is empty, any rate is outside `[0, 1]`, or
    /// `repetitions == 0`. Use [`Campaign::try_new`] where a typed error is
    /// preferable (e.g. validating a declarative experiment spec).
    pub fn new(config: CampaignConfig) -> Self {
        Campaign::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a campaign runner, returning the violated constraint instead
    /// of panicking on an unrunnable configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`CampaignError`] of [`CampaignConfig::validate`].
    pub fn try_new(config: CampaignConfig) -> Result<Self, CampaignError> {
        config.validate()?;
        Ok(Campaign { config })
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign over `net`: for every `(rate, repetition)` cell,
    /// inject → evaluate → restore, fanned out over up to `threads` worker
    /// threads. `net` itself is never mutated — each worker corrupts its own
    /// clone.
    ///
    /// * **Determinism.** Cell `(i, rep)` seeds its RNG with
    ///   [`derive_seed`]`(seed, i, rep)` and evaluation is deterministic, so
    ///   the result is **bit-identical** at any thread count and any cache
    ///   state (empty, partial or complete); `runs` come back rate-major.
    /// * **Cache.** Cells found in `cache` replay without evaluation; fresh
    ///   cells are recorded as they complete. Pass [`NoCache`] to compute
    ///   everything.
    /// * **Clean pass.** The clean accuracy is evaluated once, with
    ///   [`SuffixHint::at`]`(l)` for an [`InjectionTarget::Layer`]`(l)`
    ///   target (every cut is clean on the clean network, so a hint-aware
    ///   evaluator warms the prefix the cells reuse) and
    ///   [`SuffixHint::full`] otherwise.
    /// * **Zero-fault cells** reuse the clean accuracy instead of
    ///   re-evaluating; faulted cells hand the evaluator the fault set's
    ///   [`SuffixHint`].
    /// * **Threads.** Cells go through [`ftclip_tensor::fan_out`]: workers
    ///   pull them from one queue, each on its own clone of `net` under its
    ///   [`ftclip_tensor::budget_share`] of `threads` — 1 when the grid has
    ///   at least `threads` cells, otherwise the leftover budget, which the
    ///   evaluation underneath turns into batch-level parallelism. A single
    ///   worker runs on the calling thread under the whole budget.
    ///   `FTCLIP_THREADS` is read once per process; pass
    ///   [`ftclip_tensor::num_threads`] to honor it.
    /// * **Adaptive.** With [`CampaignConfig::stopping`] set, the grid runs
    ///   in deterministic waves (see [`StoppingRule`]), each fanned out the
    ///   same way, and the result carries a convergence report.
    /// * **Progress.** The calling thread's [`CampaignObserver`] (see
    ///   [`crate::with_observer`]) hears the clean accuracy once, every cell
    ///   and every retired rate, and is polled for cancellation at each cell
    ///   boundary.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, a worker panics (its payload is re-raised,
    /// so a [`CancelledCampaign`] unwind stays downcastable), or the cache
    /// returns a cell labeled with the wrong `(rate_index, repetition)`.
    pub fn run<S: FaultSubstrate>(
        &self,
        net: &S,
        threads: usize,
        cache: &dyn CampaignCache,
        eval: impl CellEval<S>,
    ) -> CampaignResult {
        assert!(threads > 0, "campaign needs at least one worker thread");
        // captured on the calling thread: workers have fresh thread-locals
        let observer = current_observer();
        let observer = observer.as_deref();
        let clean_accuracy = cache.clean_accuracy().unwrap_or_else(|| {
            // the clean network is clean at every cut: scoring it at a
            // per-layer target's cut warms the prefix the cells reuse
            let hint = match self.config.target {
                InjectionTarget::Layer(l) => SuffixHint::at(l),
                _ => SuffixHint::full(),
            };
            let clean = ftclip_tensor::with_thread_limit(threads, || eval.eval_cell(net, hint));
            cache.record_clean(clean);
            clean
        });
        if let Some(obs) = observer {
            obs.on_clean(clean_accuracy);
        }
        let cells = Cells { campaign: self, clean_accuracy, cache, eval: &eval, observer };
        // one clone of `net` per worker serves every cell it pulls
        let run_wave = |wave: &[(usize, usize)]| {
            ftclip_tensor::fan_out(threads, wave.len(), || net.clone(), |local, k| cells.cell(local, wave[k]))
        };
        let (runs, convergence) = match self.config.stopping {
            Some(rule) => {
                let (runs, convergence) = self.run_adaptive(rule, observer, run_wave);
                (runs, Some(convergence))
            }
            // the fixed grid is one wave of every cell, rate-major
            None => {
                let reps = self.config.repetitions;
                let grid: Vec<(usize, usize)> = (0..self.config.fault_rates.len())
                    .flat_map(|i| (0..reps).map(move |rep| (i, rep)))
                    .collect();
                (run_wave(&grid), None)
            }
        };
        self.result(runs, clean_accuracy, convergence)
    }

    /// The adaptive wave scheduler: runs deterministic waves through
    /// `run_wave` and returns every sampled cell with the per-rate
    /// convergence report. The stopping decisions depend only on the
    /// per-rate accuracy prefixes, which are bit-identical however a wave is
    /// executed.
    ///
    /// Wave `k` extends every still-active rate to the rule's `k`-th
    /// boundary (`min_reps`, `2·min_reps`, …, `max_reps`); after the wave,
    /// rates whose interval is tight enough — or that hit `max_reps` — are
    /// retired and reported through
    /// [`CampaignObserver::on_rate_converged`].
    fn run_adaptive(
        &self,
        rule: StoppingRule,
        observer: Option<&dyn CampaignObserver>,
        run_wave: impl Fn(&[(usize, usize)]) -> Vec<RunRecord>,
    ) -> (Vec<RunRecord>, Vec<RateConvergence>) {
        let n_rates = self.config.fault_rates.len();
        let mut accuracies: Vec<Vec<f64>> = vec![Vec::new(); n_rates];
        let mut runs: Vec<RunRecord> = Vec::new();
        let mut convergence: Vec<RateConvergence> = Vec::new();
        let mut active: Vec<bool> = vec![true; n_rates];
        for boundary in rule.wave_boundaries() {
            // the wave's cell list is rate-major and derived only from the
            // active set — identical at any thread count — and `run_wave`
            // returns its records in that order
            let cells: Vec<(usize, usize)> = (0..n_rates)
                .filter(|&i| active[i])
                .flat_map(|i| (accuracies[i].len()..boundary).map(move |rep| (i, rep)))
                .collect();
            for record in run_wave(&cells) {
                accuracies[record.rate_index].push(record.accuracy);
                runs.push(record);
            }
            for i in 0..n_rates {
                if !active[i] {
                    continue;
                }
                let half_width = rule.half_width(&accuracies[i]);
                let converged = half_width <= rule.target_half_width;
                if converged || accuracies[i].len() >= rule.max_reps {
                    active[i] = false;
                    let report = RateConvergence {
                        rate_index: i,
                        reps_used: accuracies[i].len(),
                        half_width,
                        converged,
                    };
                    convergence.push(report);
                    if let Some(obs) = observer {
                        obs.on_rate_converged(&report);
                    }
                }
            }
            if active.iter().all(|a| !a) {
                break;
            }
        }
        convergence.sort_by_key(|c| c.rate_index);
        (runs, convergence)
    }

    /// Assembles the result: `runs` in rate-major order, and the per-rate
    /// accuracy lists they imply.
    fn result(
        &self,
        mut runs: Vec<RunRecord>,
        clean_accuracy: f64,
        convergence: Option<Vec<RateConvergence>>,
    ) -> CampaignResult {
        runs.sort_by_key(|r| (r.rate_index, r.repetition));
        let mut accuracies = vec![Vec::new(); self.config.fault_rates.len()];
        for r in &runs {
            accuracies[r.rate_index].push(r.accuracy);
        }
        CampaignResult {
            fault_rates: self.config.fault_rates.clone(),
            accuracies,
            runs,
            clean_accuracy,
            convergence,
        }
    }
}

/// What every cell of one [`Campaign::run`] shares.
struct Cells<'a, S> {
    campaign: &'a Campaign,
    clean_accuracy: f64,
    cache: &'a dyn CampaignCache,
    eval: &'a dyn CellEval<S>,
    observer: Option<&'a dyn CampaignObserver>,
}

impl<S: FaultSubstrate> Cells<'_, S> {
    /// Computes (or replays from the cache) one `(rate, repetition)` cell.
    /// `net` is returned to its pre-call state.
    ///
    /// Cancellation is polled here — at the cell boundary, where the
    /// substrate is clean and no locks are held — so an unwinding cancel
    /// never leaves shared state poisoned.
    fn cell(&self, net: &mut S, (i, rep): (usize, usize)) -> RunRecord {
        if let Some(obs) = self.observer {
            if obs.cancel_requested() {
                std::panic::panic_any(CancelledCampaign);
            }
        }
        if let Some(record) = self.cache.lookup(i, rep) {
            assert_eq!((record.rate_index, record.repetition), (i, rep), "cache returned a mislabeled cell");
            if let Some(obs) = self.observer {
                obs.on_cell(&record, true);
            }
            return record;
        }
        let config = &self.campaign.config;
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, i, rep));
        let faults = net.sample_faults(config, config.fault_rates[i], &mut rng);
        let fault_count = S::fault_count(&faults);
        let accuracy = if fault_count == 0 {
            self.clean_accuracy
        } else {
            let hint = S::suffix_hint(&faults);
            let applied = net.apply_faults(&faults);
            let accuracy = self.eval.eval_cell(net, hint);
            net.undo_faults(applied);
            accuracy
        };
        let record = RunRecord { rate_index: i, repetition: rep, fault_count, accuracy };
        self.cache.record(&record);
        if let Some(obs) = self.observer {
            obs.on_cell(&record, false);
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_nn::{Layer, Scratch, Span};
    use ftclip_tensor::Tensor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn net() -> Sequential {
        Sequential::new(vec![Layer::flatten(), Layer::linear(16, 4, 2)])
    }

    fn finite_fraction(n: &Sequential) -> f64 {
        let y = n.execute(&Tensor::ones(&[2, 1, 4, 4]), Span::full(), &mut Scratch::new());
        y.iter().filter(|v| v.is_finite() && v.abs() < 1e6).count() as f64 / y.len() as f64
    }

    fn param_bits(n: &Sequential) -> Vec<u32> {
        let mut v = Vec::new();
        n.visit_params(&mut |_, _, t, _| v.extend(t.data().iter().map(|x| x.to_bits())));
        v
    }

    /// The per-cell steps a worker runs on its clone restore it exactly.
    #[test]
    fn substrate_steps_restore_network() {
        let mut n = net();
        let before = param_bits(&n);
        let cfg = CampaignConfig::paper_default(3, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let faults = n.sample_faults(&cfg, 1e-1, &mut rng);
        assert!(Sequential::fault_count(&faults) > 0);
        assert_eq!(Sequential::suffix_hint(&faults), SuffixHint { cut: faults.earliest_faulted_layer() });
        let applied = n.apply_faults(&faults);
        assert_ne!(param_bits(&n), before);
        n.undo_faults(applied);
        assert_eq!(param_bits(&n), before);
    }

    #[test]
    fn result_shape_matches_config() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-3, 1e-2, 1e-1],
            repetitions: 5,
            seed: 1,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let res = Campaign::new(cfg).run(&net(), 1, &NoCache, finite_fraction);
        assert_eq!(res.accuracies.len(), 3);
        assert!(res.accuracies.iter().all(|a| a.len() == 5));
        assert_eq!(res.runs.len(), 15);
        assert_eq!(res.summaries().unwrap().len(), 3);
        assert_eq!(res.curve_with_clean_point().len(), 4);
        assert_eq!(res.curve_with_clean_point()[0].0, 0.0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-2],
            repetitions: 3,
            seed: 9,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let r1 = Campaign::new(cfg.clone()).run(&net(), 1, &NoCache, finite_fraction);
        let r2 = Campaign::new(cfg).run(&net(), 1, &NoCache, finite_fraction);
        assert_eq!(r1.accuracies, r2.accuracies);
        assert_eq!(r1.runs, r2.runs);
    }

    #[test]
    fn higher_rates_mean_more_faults() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-3, 1e-1],
            repetitions: 10,
            seed: 5,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let res = Campaign::new(cfg).run(&net(), 1, &NoCache, finite_fraction);
        let count_at = |rate_idx: usize| -> usize {
            res.runs
                .iter()
                .filter(|r| r.rate_index == rate_idx)
                .map(|r| r.fault_count)
                .sum()
        };
        assert!(count_at(1) > count_at(0) * 10, "100× rate should give ≫ faults");
    }

    #[test]
    fn paper_default_grid() {
        let cfg = CampaignConfig::paper_default(0, 50);
        assert_eq!(cfg.fault_rates.len(), 7);
        assert_eq!(cfg.repetitions, 50);
        assert_eq!(cfg.fault_rates[0], 1e-8);
        assert_eq!(*cfg.fault_rates.last().unwrap(), 1e-5);
    }

    #[test]
    fn parallel_matches_serial_bitwise_at_any_thread_count() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-3, 1e-2, 1e-1],
            repetitions: 6,
            seed: 17,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let campaign = Campaign::new(cfg);
        let serial = campaign.run(&net(), 1, &NoCache, finite_fraction);
        for threads in [1, 2, 4, 7] {
            let parallel = campaign.run(&net(), threads, &NoCache, finite_fraction);
            let bits = |a: &[Vec<f64>]| -> Vec<Vec<u64>> {
                a.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
            };
            assert_eq!(bits(&parallel.accuracies), bits(&serial.accuracies), "{threads} threads");
            assert_eq!(parallel.runs, serial.runs, "{threads} threads");
            assert_eq!(parallel.clean_accuracy.to_bits(), serial.clean_accuracy.to_bits());
        }
    }

    #[test]
    fn parallel_does_not_mutate_input_network() {
        let n = net();
        let before = param_bits(&n);
        let cfg = CampaignConfig {
            fault_rates: vec![1e-1],
            repetitions: 8,
            seed: 2,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        Campaign::new(cfg).run(&n, 3, &NoCache, finite_fraction);
        assert_eq!(param_bits(&n), before);
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn parallel_rejects_zero_threads() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-2],
            repetitions: 1,
            seed: 0,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        Campaign::new(cfg).run(&net(), 0, &NoCache, finite_fraction);
    }

    /// In-memory [`CampaignCache`] with eviction hooks, for testing resume.
    #[derive(Default)]
    struct MemCache {
        cells: std::sync::Mutex<std::collections::HashMap<(usize, usize), RunRecord>>,
        clean: std::sync::Mutex<Option<f64>>,
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

    fn bits(a: &[Vec<f64>]) -> Vec<Vec<u64>> {
        a.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
    }

    #[test]
    fn cached_resume_is_bit_identical_at_any_cache_state() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-3, 1e-2, 1e-1],
            repetitions: 4,
            seed: 23,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let campaign = Campaign::new(cfg);
        let fresh = campaign.run(&net(), 1, &NoCache, finite_fraction);

        let cache = MemCache::default();
        let populated = campaign.run(&net(), 3, &cache, finite_fraction);
        assert_eq!(populated.runs, fresh.runs, "populating run must match uncached");
        assert_eq!(cache.cells.lock().unwrap().len(), 12);

        // evict an arbitrary half of the cells, then resume at several
        // thread counts: every merged result must replay the fresh bits
        let evicted: Vec<(usize, usize)> = cache
            .cells
            .lock()
            .unwrap()
            .keys()
            .copied()
            .enumerate()
            .filter(|(n, _)| n % 2 == 0)
            .map(|(_, k)| k)
            .collect();
        for key in &evicted {
            cache.cells.lock().unwrap().remove(key);
        }
        for threads in [1, 2, 4] {
            let resumed = campaign.run(&net(), threads, &cache, finite_fraction);
            assert_eq!(resumed.runs, fresh.runs, "{threads} threads");
            assert_eq!(bits(&resumed.accuracies), bits(&fresh.accuracies), "{threads} threads");
            assert_eq!(resumed.clean_accuracy.to_bits(), fresh.clean_accuracy.to_bits());
        }
    }

    #[test]
    fn fully_cached_run_never_evaluates() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-2, 1e-1],
            repetitions: 3,
            seed: 5,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let campaign = Campaign::new(cfg);
        let cache = MemCache::default();
        let first = campaign.run(&net(), 2, &cache, finite_fraction);

        let evals = AtomicUsize::new(0);
        let counting = |n: &Sequential| {
            evals.fetch_add(1, Ordering::Relaxed);
            finite_fraction(n)
        };
        let replayed = campaign.run(&net(), 2, &cache, counting);
        assert_eq!(evals.load(Ordering::Relaxed), 0, "cache hit must skip evaluation entirely");
        assert_eq!(replayed.runs, first.runs);
    }

    #[test]
    fn serial_cached_matches_parallel_cached() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-2],
            repetitions: 5,
            seed: 77,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let campaign = Campaign::new(cfg);
        let serial_cache = MemCache::default();
        let serial = campaign.run(&net(), 1, &serial_cache, finite_fraction);
        let parallel_cache = MemCache::default();
        let parallel = campaign.run(&net(), 4, &parallel_cache, finite_fraction);
        assert_eq!(serial.runs, parallel.runs);
        assert_eq!(
            serial_cache.cells.lock().unwrap().len(),
            parallel_cache.cells.lock().unwrap().len(),
            "both thread counts record every cell"
        );
    }

    #[test]
    #[should_panic(expected = "mislabeled cell")]
    fn mislabeled_cache_cell_is_rejected() {
        struct LyingCache;
        impl CampaignCache for LyingCache {
            fn lookup(&self, _i: usize, _r: usize) -> Option<RunRecord> {
                Some(RunRecord {
                    rate_index: 99,
                    repetition: 99,
                    fault_count: 0,
                    accuracy: 1.0,
                })
            }
        }
        let cfg = CampaignConfig {
            fault_rates: vec![1e-2],
            repetitions: 1,
            seed: 0,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        Campaign::new(cfg).run(&net(), 1, &LyingCache, finite_fraction);
    }

    #[test]
    #[should_panic(expected = "at least one fault rate")]
    fn rejects_empty_rates() {
        Campaign::new(CampaignConfig {
            fault_rates: vec![],
            repetitions: 1,
            seed: 0,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        });
    }

    #[test]
    fn validate_reports_typed_errors() {
        let ok = CampaignConfig::paper_default(1, 3);
        assert_eq!(ok.validate(), Ok(()));
        assert!(Campaign::try_new(ok).is_ok());

        let mut empty = CampaignConfig::paper_default(1, 3);
        empty.fault_rates.clear();
        assert_eq!(empty.validate(), Err(CampaignError::EmptyRateGrid));
        assert_eq!(Campaign::try_new(empty).unwrap_err(), CampaignError::EmptyRateGrid);

        let mut out_of_range = CampaignConfig::paper_default(1, 3);
        out_of_range.fault_rates.push(1.5);
        assert_eq!(out_of_range.validate(), Err(CampaignError::RateOutOfRange(1.5)));
        let mut nan = CampaignConfig::paper_default(1, 3);
        nan.fault_rates[0] = f64::NAN;
        assert!(matches!(nan.validate(), Err(CampaignError::RateOutOfRange(_))), "NaN is not a rate");

        let mut no_reps = CampaignConfig::paper_default(1, 0);
        assert_eq!(no_reps.validate(), Err(CampaignError::ZeroRepetitions));
        no_reps.repetitions = 1;
        assert_eq!(no_reps.validate(), Ok(()));
    }

    #[derive(Default)]
    struct Recorder {
        cells: std::sync::Mutex<Vec<(usize, usize, bool)>>,
        clean: AtomicUsize,
        cancel_after: Option<usize>,
    }

    impl crate::CampaignObserver for Recorder {
        fn on_cell(&self, record: &RunRecord, cached: bool) {
            self.cells.lock().unwrap().push((record.rate_index, record.repetition, cached));
        }
        fn on_clean(&self, _accuracy: f64) {
            self.clean.fetch_add(1, Ordering::Relaxed);
        }
        fn cancel_requested(&self) -> bool {
            match self.cancel_after {
                Some(n) => self.cells.lock().unwrap().len() >= n,
                None => false,
            }
        }
    }

    #[test]
    fn observer_sees_every_cell_with_cache_flags() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-2, 1e-1],
            repetitions: 3,
            seed: 11,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let campaign = Campaign::new(cfg);
        let cache = MemCache::default();

        let fresh = std::sync::Arc::new(Recorder::default());
        let result = crate::with_observer(fresh.clone(), || campaign.run(&net(), 3, &cache, finite_fraction));
        let mut seen = fresh.cells.lock().unwrap().clone();
        seen.sort();
        let expected: Vec<(usize, usize, bool)> =
            result.runs.iter().map(|r| (r.rate_index, r.repetition, false)).collect();
        assert_eq!(seen, expected, "every fresh cell reported exactly once, uncached");
        assert_eq!(fresh.clean.load(Ordering::Relaxed), 1, "clean accuracy reported once");

        // a replay over the populated cache reports the same cells as cached
        let replay = std::sync::Arc::new(Recorder::default());
        crate::with_observer(replay.clone(), || campaign.run(&net(), 3, &cache, finite_fraction));
        let mut seen = replay.cells.lock().unwrap().clone();
        seen.sort();
        assert!(seen.iter().all(|&(_, _, cached)| cached), "replayed cells carry cached = true");
        assert_eq!(seen.len(), result.runs.len());
    }

    #[test]
    fn cancellation_unwinds_with_typed_payload_and_restores_thread_limit() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-2, 1e-1],
            repetitions: 4,
            seed: 13,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let campaign = Campaign::new(cfg);
        let observer = std::sync::Arc::new(Recorder { cancel_after: Some(2), ..Recorder::default() });
        let budget_before = ftclip_tensor::num_threads();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::with_observer(observer.clone(), || campaign.run(&net(), 2, &NoCache, finite_fraction))
        }))
        .expect_err("cancellation must unwind");
        assert!(
            payload.downcast_ref::<crate::CancelledCampaign>().is_some(),
            "payload identifies the unwind as a cancellation"
        );
        assert!(observer.cells.lock().unwrap().len() >= 2, "cells before the cancel were reported");
        assert_eq!(
            ftclip_tensor::num_threads(),
            budget_before,
            "with_thread_limit guards must restore the budget through the unwind"
        );
    }

    #[test]
    fn campaign_error_messages_are_actionable() {
        assert!(CampaignError::EmptyRateGrid.to_string().contains("at least one fault rate"));
        assert!(CampaignError::RateOutOfRange(2.0).to_string().contains('2'));
        assert!(CampaignError::ZeroRepetitions.to_string().contains("repetition"));
        assert!(CampaignError::BadHalfWidth(-1.0).to_string().contains("half-width"));
        assert!(CampaignError::BadRepBounds { min_reps: 3, max_reps: 2 }
            .to_string()
            .contains("min_reps"));
        assert!(CampaignError::DegenerateSamples { rate_index: 4 }.to_string().contains('4'));
    }

    fn rule(eps: f64, min: usize, max: usize) -> StoppingRule {
        StoppingRule { target_half_width: eps, min_reps: min, max_reps: max }
    }

    #[test]
    fn stopping_rule_validation() {
        assert_eq!(rule(0.05, 2, 8).validate(), Ok(()));
        assert_eq!(rule(0.0, 2, 8).validate(), Err(CampaignError::BadHalfWidth(0.0)));
        assert!(matches!(rule(f64::NAN, 2, 8).validate(), Err(CampaignError::BadHalfWidth(_))));
        assert_eq!(
            rule(0.05, 0, 8).validate(),
            Err(CampaignError::BadRepBounds { min_reps: 0, max_reps: 8 })
        );
        assert_eq!(
            rule(0.05, 9, 8).validate(),
            Err(CampaignError::BadRepBounds { min_reps: 9, max_reps: 8 })
        );
        // the rule is validated through the campaign config too
        let mut cfg = CampaignConfig::paper_default(1, 3);
        cfg.stopping = Some(rule(0.05, 0, 8));
        assert!(matches!(cfg.validate(), Err(CampaignError::BadRepBounds { .. })));
    }

    #[test]
    fn wave_boundaries_double_and_cap() {
        let bs: Vec<usize> = rule(0.1, 2, 24).wave_boundaries().collect();
        assert_eq!(bs, vec![2, 4, 8, 16, 24]);
        let bs: Vec<usize> = rule(0.1, 3, 3).wave_boundaries().collect();
        assert_eq!(bs, vec![3]);
    }

    /// The tentpole invariant: an adaptive run is a bit-identical prefix of
    /// the exhaustive run with `repetitions = max_reps`, at 1/2/4 threads,
    /// and serial adaptive matches parallel adaptive exactly.
    #[test]
    fn adaptive_is_bit_identical_prefix_of_exhaustive_at_any_thread_count() {
        // rate 0 samples ~zero faults on this tiny net → zero-variance
        // accuracies → converges at min_reps; rate 2 is noisy
        let mut cfg = CampaignConfig {
            fault_rates: vec![1e-9, 1e-2, 1e-1],
            repetitions: 8,
            seed: 31,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let exhaustive = Campaign::new(cfg.clone()).run(&net(), 1, &NoCache, finite_fraction);

        cfg.stopping = Some(rule(0.08, 2, 8));
        let campaign = Campaign::new(cfg);
        let serial = campaign.run(&net(), 1, &NoCache, finite_fraction);
        let conv = serial.convergence.as_ref().expect("adaptive runs report convergence");
        assert_eq!(conv.len(), 3);
        assert_eq!(conv[0].reps_used, 2, "zero-variance rate stops at min_reps");
        assert!(conv[0].converged && conv[0].half_width == 0.0);
        for (i, c) in conv.iter().enumerate() {
            assert_eq!(c.rate_index, i);
            assert!((2..=8).contains(&c.reps_used));
            // prefix bit-identity against the exhaustive grid
            let prefix: Vec<u64> =
                exhaustive.accuracies[i][..c.reps_used].iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = serial.accuracies[i].iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, prefix, "rate {i}");
            assert_eq!(
                serial.runs.iter().filter(|r| r.rate_index == i).count(),
                c.reps_used,
                "runs carry exactly the sampled cells"
            );
        }
        assert!(
            serial.total_repetitions() < exhaustive.total_repetitions(),
            "adaptive must save injections on this grid"
        );

        for threads in [1, 2, 4] {
            let parallel = campaign.run(&net(), threads, &NoCache, finite_fraction);
            assert_eq!(bits(&parallel.accuracies), bits(&serial.accuracies), "{threads} threads");
            assert_eq!(parallel.runs, serial.runs, "{threads} threads");
            assert_eq!(parallel.convergence, serial.convergence, "{threads} threads");
            assert_eq!(parallel.clean_accuracy.to_bits(), serial.clean_accuracy.to_bits());
        }
    }

    #[test]
    fn adaptive_runs_to_max_when_the_target_is_unreachable() {
        let cfg = CampaignConfig {
            fault_rates: vec![1e-1],
            repetitions: 6,
            seed: 41,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: Some(rule(1e-12, 2, 6)),
        };
        // continuous-valued eval: distinct injections give distinct scores,
        // so the sample variance never collapses to zero
        let continuous = |n: &Sequential| {
            let y = n.execute(&Tensor::ones(&[2, 1, 4, 4]), Span::full(), &mut Scratch::new());
            y.iter()
                .map(|v| if v.is_finite() { (*v as f64).abs().min(1.0) } else { 0.0 })
                .sum::<f64>()
                / y.len() as f64
        };
        let res = Campaign::new(cfg).run(&net(), 1, &NoCache, continuous);
        let conv = &res.convergence.as_ref().unwrap()[0];
        assert_eq!(conv.reps_used, 6, "unreachable target exhausts max_reps");
        assert!(!conv.converged);
        assert!(conv.half_width > 1e-12);
    }

    /// The store-extension contract: a fixed-reps cache is *extended* by an
    /// adaptive run — cached prefix cells replay without evaluation, only
    /// the deficit is sampled.
    #[test]
    fn adaptive_run_extends_a_fixed_reps_cache_without_recomputing() {
        let fixed = CampaignConfig {
            fault_rates: vec![1e-2, 1e-1],
            repetitions: 3,
            seed: 47,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        let cache = MemCache::default();
        Campaign::new(fixed.clone()).run(&net(), 2, &cache, finite_fraction);
        assert_eq!(cache.cells.lock().unwrap().len(), 6);

        // unreachable target forces the adaptive run to max_reps = 5: the
        // 3 cached reps per rate replay, exactly 2 × 2 fresh cells evaluate
        let adaptive = CampaignConfig { stopping: Some(rule(1e-12, 2, 5)), ..fixed.clone() };
        let evals = AtomicUsize::new(0);
        let counting = |n: &Sequential| {
            evals.fetch_add(1, Ordering::Relaxed);
            finite_fraction(n)
        };
        let extended = Campaign::new(adaptive).run(&net(), 2, &cache, counting);
        assert_eq!(evals.load(Ordering::Relaxed), 4, "only the deficit beyond the cache evaluates");
        assert_eq!(cache.cells.lock().unwrap().len(), 10, "fresh cells were recorded");

        // and the merged result is the bit-identical prefix of exhaustive
        let exhaustive_cfg = CampaignConfig { repetitions: 5, ..fixed };
        let exhaustive = Campaign::new(exhaustive_cfg).run(&net(), 1, &NoCache, finite_fraction);
        assert_eq!(bits(&extended.accuracies), bits(&exhaustive.accuracies));
    }

    #[test]
    fn adaptive_observer_reports_rate_convergence() {
        #[derive(Default)]
        struct ConvRecorder(std::sync::Mutex<Vec<RateConvergence>>);
        impl crate::CampaignObserver for ConvRecorder {
            fn on_rate_converged(&self, report: &RateConvergence) {
                self.0.lock().unwrap().push(*report);
            }
        }
        let cfg = CampaignConfig {
            fault_rates: vec![1e-9, 1e-1],
            repetitions: 4,
            seed: 53,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: Some(rule(0.5, 2, 4)),
        };
        let recorder = std::sync::Arc::new(ConvRecorder::default());
        let res = crate::with_observer(recorder.clone(), || {
            Campaign::new(cfg).run(&net(), 2, &NoCache, finite_fraction)
        });
        let mut seen = recorder.0.lock().unwrap().clone();
        seen.sort_by_key(|c| c.rate_index);
        assert_eq!(seen, res.convergence.unwrap(), "observer saw every rate exactly once");
    }

    #[test]
    fn summaries_reject_empty_and_nan_samples() {
        let good = CampaignResult {
            fault_rates: vec![1e-3, 1e-2],
            accuracies: vec![vec![0.5, 0.6], vec![0.7]],
            runs: Vec::new(),
            clean_accuracy: 0.9,
            convergence: None,
        };
        assert_eq!(good.summaries().unwrap().len(), 2);

        let empty = CampaignResult { accuracies: vec![vec![0.5], vec![]], ..good.clone() };
        assert_eq!(empty.summaries(), Err(CampaignError::DegenerateSamples { rate_index: 1 }));

        let poisoned = CampaignResult { accuracies: vec![vec![f64::NAN], vec![0.5]], ..good };
        assert_eq!(poisoned.summaries(), Err(CampaignError::DegenerateSamples { rate_index: 0 }));
    }
}
