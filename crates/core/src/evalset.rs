//! Fixed evaluation sets for campaigns and tuning, plus the clean-prefix
//! activation cache that lets fault campaigns re-execute only the network
//! suffix below the earliest faulted layer, and the cut cache that lets a
//! threshold search resume at the tuned site.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use ftclip_data::Dataset;
use ftclip_fault::{CellEval, SuffixHint};
use ftclip_nn::{evaluate, evaluate_with_threads, ForwardPlan, Scratch, Sequential, Span};
use ftclip_tensor::Tensor;

/// A fixed set of images + labels used to score a network's accuracy.
///
/// Profiling and threshold tuning use subsets of the *validation* split; the
/// final resilience evaluations (Figs. 7–8) use the *test* split "to avoid
/// any overlap between the data used for testing and the data used for
/// computing the thresholds" (paper §V-B).
///
/// # Example
///
/// ```
/// use ftclip_core::EvalSet;
/// use ftclip_data::SynthCifar;
/// use ftclip_models::lenet5;
///
/// let data = SynthCifar::builder().seed(3).train_size(16).val_size(16).test_size(16).build();
/// let eval = EvalSet::from_dataset(data.test(), 64);
/// assert_eq!(eval.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct EvalSet {
    /// Shared, not owned: cloning an `EvalSet` (e.g. handing one to every
    /// campaign worker) bumps a refcount instead of copying the full image
    /// tensor, so evaluation memory no longer scales with the thread count.
    images: Arc<Tensor>,
    labels: Arc<[usize]>,
    batch_size: usize,
}

impl EvalSet {
    /// Uses all of `dataset` with the given evaluation batch size.
    ///
    /// The image tensor is copied out of `dataset` exactly once, into shared
    /// storage; all clones of the returned set alias it.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn from_dataset(dataset: &Dataset, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        EvalSet {
            images: Arc::new(dataset.images().clone()),
            labels: dataset.labels().into(),
            batch_size,
        }
    }

    /// Uses a random `n`-image subset of `dataset` (without replacement).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the dataset size, or
    /// `batch_size == 0`.
    pub fn from_subset(dataset: &Dataset, n: usize, seed: u64, batch_size: usize) -> Self {
        let sub = dataset.subset(n, seed);
        EvalSet::from_dataset(&sub, batch_size)
    }

    /// Builds the set a declarative [`EvalSettings`] describes over
    /// `dataset`, clamping the subset size to the split — the shared
    /// construction every experiment harness used to hand-roll as
    /// `from_subset(split, size.min(split.len()), …)`.
    pub fn from_settings(dataset: &Dataset, settings: &EvalSettings) -> Self {
        EvalSet::from_subset(
            dataset,
            settings.subset_size.min(dataset.len()),
            settings.seed,
            settings.batch_size,
        )
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when empty (not constructible through the public API).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The image tensor.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Classification accuracy of `net` on this set.
    ///
    /// The evaluation batches are fanned out over
    /// [`ftclip_tensor::num_threads`] workers (see
    /// [`ftclip_nn::evaluate_with_threads`]); the result is bit-identical at
    /// any thread count.
    pub fn accuracy(&self, net: &Sequential) -> f64 {
        evaluate(net, &self.images, &self.labels, self.batch_size)
    }

    /// [`EvalSet::accuracy`] with an explicit worker budget —
    /// the entry point for tests and probes that compare thread counts
    /// within one process (the `FTCLIP_THREADS` variable is read once and
    /// cached).
    pub fn accuracy_with_threads(&self, net: &Sequential, threads: usize) -> f64 {
        evaluate_with_threads(net, &self.images, &self.labels, self.batch_size, threads)
    }

    /// [`EvalSet::accuracy`] re-executing only the layers from `cut`
    /// onwards: each batch's clean activation *entering* layer `cut` is
    /// looked up in (or computed into) `cache`, and only the suffix
    /// `[cut, len)` runs against `net`.
    ///
    /// Sound whenever every parameter of `net` **before** layer `cut` holds
    /// its clean value — the invariant a fault campaign guarantees when
    /// `cut` is the injection's earliest faulted layer. Because every split
    /// is a [`Span`] execution against the *same* compiled
    /// [`ftclip_nn::ForwardPlan`] the full pass uses, the result is
    /// **bit-identical** to [`EvalSet::accuracy`] at any thread count and
    /// any cache state (cold, warm, or budget-exhausted).
    ///
    /// The evaluation batches are fanned out over
    /// [`ftclip_tensor::num_threads`] workers exactly like
    /// [`EvalSet::accuracy`]; workers share `cache`.
    pub fn accuracy_suffix(&self, net: &Sequential, cut: usize, cache: &PrefixCache) -> f64 {
        self.accuracy_suffix_with_threads(net, cut, cache, ftclip_tensor::num_threads())
    }

    /// [`EvalSet::accuracy_suffix`] with an explicit worker budget (the
    /// same testing convention as [`EvalSet::accuracy_with_threads`]).
    /// Batches go through [`ftclip_tensor::fan_out`] one per queue item,
    /// with one [`Scratch`] per worker — the same split as the full forward
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `cut` exceeds the network's layer count.
    pub fn accuracy_suffix_with_threads(
        &self,
        net: &Sequential,
        cut: usize,
        cache: &PrefixCache,
        threads: usize,
    ) -> f64 {
        assert!(cut <= net.len(), "cut {cut} outside network of {} layers", net.len());
        let n = self.labels.len();
        let batches = n.div_ceil(self.batch_size);
        let correct: usize = ftclip_tensor::fan_out(threads.max(1), batches, Scratch::new, |scratch, b| {
            self.suffix_correct_in_batch(net, cut, cache, b, scratch)
        })
        .into_iter()
        .sum();
        correct as f64 / n as f64
    }

    /// Images `[start, end)` of batch `b` and the plan that scores them.
    /// One compiled plan serves the full pass AND every span cut — the
    /// [`SuffixHint`] paths can never skew from the forward path.
    fn batch_plan(&self, net: &Sequential, b: usize) -> (usize, usize, Arc<ForwardPlan>) {
        let start = b * self.batch_size;
        let end = (start + self.batch_size).min(self.labels.len());
        let mut dims = self.images.shape().dims().to_vec();
        dims[0] = end - start;
        (start, end, net.plan(&dims))
    }

    /// How many of images `[start, end)` `logits` classify correctly; the
    /// logits go back to the arena.
    fn count_correct(&self, logits: Tensor, start: usize, end: usize, scratch: &mut Scratch) -> usize {
        let correct = logits
            .argmax_rows()
            .iter()
            .zip(&self.labels[start..end])
            .filter(|(p, l)| p == l)
            .count();
        scratch.recycle(logits.into_vec());
        correct
    }

    /// Correct-classification count of batch `b`, running only the layers
    /// from `cut` onwards.
    fn suffix_correct_in_batch(
        &self,
        net: &Sequential,
        cut: usize,
        cache: &PrefixCache,
        b: usize,
        scratch: &mut Scratch,
    ) -> usize {
        let (start, end, plan) = self.batch_plan(net, b);
        let logits = self.run_from_cut(net, &plan, cut, Span::suffix(cut), b, start, end, cache, scratch);
        self.count_correct(logits, start, end, scratch)
    }

    /// Runs `span`, which starts at `cut`, on the clean activation entering
    /// `cut` for batch `b` (images `[start, end)`): the images themselves at
    /// cut 0, where there is no prefix to reuse, else the memoized prefix.
    #[allow(clippy::too_many_arguments)]
    fn run_from_cut(
        &self,
        net: &Sequential,
        plan: &ForwardPlan,
        cut: usize,
        span: Span,
        b: usize,
        start: usize,
        end: usize,
        cache: &PrefixCache,
        scratch: &mut Scratch,
    ) -> Tensor {
        if cut == 0 {
            let bx = self.batch_tensor(start, end, scratch);
            let y = plan.execute(net, &bx, span, scratch);
            scratch.recycle(bx.into_vec());
            y
        } else {
            let act = self.prefix_activation(net, plan, cut, b, start, end, cache, scratch);
            plan.execute(net, &act, span, scratch)
        }
    }

    /// Accuracy of `net` resumed at layer `site`, for a network whose
    /// layers before `cut` hold their clean values (`cut < site`): the
    /// activation entering `site` is looked up in (or computed into)
    /// `cache`'s cut cache under the exact bits of every parameter in
    /// layers `[cut, site)`, and only `[site, len)` runs against `net`.
    /// A computed activation starts from the clean prefix at `cut`.
    fn accuracy_from_site(&self, net: &Sequential, cut: usize, site: usize, cache: &PrefixCache) -> f64 {
        let n = self.labels.len();
        let batches = n.div_ceil(self.batch_size);
        let cell = cache.cut_cell(CutKey::of(net, cut, site), batches);
        let correct: usize = ftclip_tensor::fan_out(
            ftclip_tensor::num_threads().max(1),
            batches,
            Scratch::new,
            |scratch, b| self.site_correct_in_batch(net, cut, site, cell.as_deref(), cache, b, scratch),
        )
        .into_iter()
        .sum();
        correct as f64 / n as f64
    }

    /// Correct-classification count of batch `b`, resuming at `site` from
    /// `cell`'s activation, or computing it (and offering it to `cell`).
    #[allow(clippy::too_many_arguments)]
    fn site_correct_in_batch(
        &self,
        net: &Sequential,
        cut: usize,
        site: usize,
        cell: Option<&CutCell>,
        cache: &PrefixCache,
        b: usize,
        scratch: &mut Scratch,
    ) -> usize {
        let (start, end, plan) = self.batch_plan(net, b);
        let at_site = self.site_activation(net, &plan, cut, site, cell, cache, b, scratch);
        let logits = plan.execute(net, &at_site, Span::suffix(site), scratch);
        self.count_correct(logits, start, end, scratch)
    }

    /// Fills `cache`'s cut cache with `net`'s activation entering `site` for
    /// every batch (layers before `cut` clean, `cut < site`), running
    /// nothing from the site onwards. A key the budget refuses fills nothing.
    fn fill_site(&self, net: &Sequential, cut: usize, site: usize, cache: &PrefixCache) {
        let batches = self.labels.len().div_ceil(self.batch_size);
        let Some(cell) = cache.cut_cell(CutKey::of(net, cut, site), batches) else {
            return;
        };
        ftclip_tensor::fan_out(ftclip_tensor::num_threads().max(1), batches, Scratch::new, |scratch, b| {
            let (_, _, plan) = self.batch_plan(net, b);
            self.site_activation(net, &plan, cut, site, Some(&cell), cache, b, scratch);
        });
    }

    /// Batch `b`'s activation entering `site`: `cell`'s, or computed from
    /// the clean prefix at `cut` and offered to `cell`.
    #[allow(clippy::too_many_arguments)]
    fn site_activation(
        &self,
        net: &Sequential,
        plan: &ForwardPlan,
        cut: usize,
        site: usize,
        cell: Option<&CutCell>,
        cache: &PrefixCache,
        b: usize,
        scratch: &mut Scratch,
    ) -> Arc<Tensor> {
        match cache.cut_slot(cell, b) {
            SlotTurn::Ready(act) => act,
            SlotTurn::Compute(claim) => {
                let start = b * self.batch_size;
                let end = (start + self.batch_size).min(self.labels.len());
                let span = Span::range(cut, site);
                let act = Arc::new(self.run_from_cut(net, plan, cut, span, b, start, end, cache, scratch));
                if let Some(cell) = cell {
                    cache.insert_cut(cell, b, &act);
                }
                // ends the fill: the measurements waiting for this slot wake
                drop(claim);
                act
            }
        }
    }

    /// The clean activation entering layer `cut` for the batch covering
    /// images `[start, end)`: served from `cache` when memoized, otherwise
    /// computed (extending the deepest cached shallower cut when one
    /// exists) and offered back to the cache within its byte budget.
    #[allow(clippy::too_many_arguments)]
    fn prefix_activation(
        &self,
        net: &Sequential,
        plan: &ForwardPlan,
        cut: usize,
        batch: usize,
        start: usize,
        end: usize,
        cache: &PrefixCache,
        scratch: &mut Scratch,
    ) -> Arc<Tensor> {
        if let Some((depth, act)) = cache.deepest_at(batch, cut) {
            if depth == cut {
                return act;
            }
            // extend the cached shallower prefix: layers [depth, cut) are
            // clean below the cut, so the composition stays bit-identical
            let extended = Arc::new(plan.execute(net, &act, Span::range(depth, cut), scratch));
            cache.insert(batch, cut, &extended);
            return extended;
        }
        let bx = self.batch_tensor(start, end, scratch);
        let act = Arc::new(plan.execute(net, &bx, Span::prefix(cut), scratch));
        scratch.recycle(bx.into_vec());
        cache.insert(batch, cut, &act);
        act
    }

    /// Copies images `[start, end)` into a batch tensor drawn from the
    /// scratch arena (bitwise the slice `evaluate` feeds the full forward).
    fn batch_tensor(&self, start: usize, end: usize, scratch: &mut Scratch) -> Tensor {
        let stride: usize = self.images.shape().dims()[1..].iter().product();
        let mut dims = self.images.shape().dims().to_vec();
        dims[0] = end - start;
        let mut buf = scratch.buffer((end - start) * stride);
        buf.copy_from_slice(&self.images.data()[start * stride..end * stride]);
        Tensor::from_vec(buf, &dims).expect("batch volume matches")
    }

    /// A hint-aware campaign evaluator over this set with a fresh
    /// [`PrefixCache`] (budget from `FTCLIP_PREFIX_CACHE_MB`, defaulting to
    /// a size derived from the eval-set shape). See [`SuffixAccuracy`] for
    /// the binding contract.
    ///
    /// # Examples
    ///
    /// Scoring through the hint is bit-identical to the full forward pass
    /// — the hint only changes how much work is redone, and the clean
    /// prefix activation lands in the shared cache:
    ///
    /// ```
    /// use ftclip_core::EvalSet;
    /// use ftclip_data::SynthCifar;
    /// use ftclip_fault::{CellEval, SuffixHint};
    /// use ftclip_nn::{Layer, Sequential};
    ///
    /// let data = SynthCifar::builder().seed(5).train_size(8).val_size(8).test_size(16).build();
    /// let eval = EvalSet::from_dataset(data.test(), 8);
    /// let net = Sequential::new(vec![Layer::flatten(), Layer::linear(3 * 32 * 32, 10, 1)]);
    ///
    /// let sx = eval.suffix_eval();
    /// assert_eq!(sx.eval_cell(&net, SuffixHint::at(1)), eval.accuracy(&net));
    /// assert!(sx.cache().stats().entries > 0);
    /// ```
    pub fn suffix_eval(&self) -> SuffixAccuracy {
        SuffixAccuracy::new(self.clone())
    }

    /// [`EvalSet::suffix_eval`] with an explicit prefix-cache byte budget
    /// (tests exercise the budget-exhausted fallback with `0`).
    pub fn suffix_eval_with_budget(&self, budget_bytes: usize) -> SuffixAccuracy {
        SuffixAccuracy::with_cache(self.clone(), Arc::new(PrefixCache::new(budget_bytes)))
    }

    /// The default prefix-cache budget for this set when
    /// `FTCLIP_PREFIX_CACHE_MB` is unset: eight× the image-tensor footprint
    /// (room for several cuts across every batch), floored at 64 MB.
    pub fn default_prefix_budget(&self) -> usize {
        (self.images.len() * std::mem::size_of::<f32>()).saturating_mul(8).max(64 << 20)
    }
}

/// Accounting state behind a [`PrefixCache`] lock: the memoized activations
/// plus the counters the bench probes report.
#[derive(Debug, Default)]
struct PrefixCacheState {
    /// `(batch_index, cut) →` clean activation entering layer `cut`.
    entries: BTreeMap<(usize, usize), Arc<Tensor>>,
    /// [`CutKey::hash`] `→` the cut-cache cells with that hash.
    cuts: HashMap<u64, Vec<Arc<CutCell>>>,
    bytes_held: usize,
    hits: u64,
    misses: u64,
    rejected: u64,
    cut_hits: u64,
    cut_misses: u64,
    cut_computes: u64,
}

/// The key of a cut-cache cell: a cut and the exact bits of every
/// parameter in layers `[cut, site)`. Two fault sets that differ in one
/// bit of those layers never share a cell.
#[derive(Debug, PartialEq, Eq)]
struct CutKey {
    cut: usize,
    bits: Vec<u32>,
}

impl CutKey {
    /// The key of `net`'s layers `[cut, site)`.
    fn of(net: &Sequential, cut: usize, site: usize) -> Self {
        let mut bits = Vec::new();
        for layer in &net.layers()[cut..site] {
            layer.visit_params(&mut |_, values, _| bits.extend(values.data().iter().map(|v| v.to_bits())));
        }
        CutKey { cut, bits }
    }

    /// The lookup hash; a hit still compares the bits exactly.
    fn hash(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.cut.hash(&mut hasher);
        self.bits.hash(&mut hasher);
        hasher.finish()
    }
}

/// One cut-cache cell: the activations entering the resumed site for one
/// state of layers `[cut, site)`, one slot per evaluation batch. Slots are
/// filled under the [`PrefixCache`] lock, so the byte count stays exact.
#[derive(Debug)]
struct CutCell {
    hash: u64,
    key: CutKey,
    slots: Vec<CutSlot>,
}

impl CutCell {
    /// Bytes the cell holds: its key plus every filled slot.
    fn bytes(&self) -> usize {
        let acts: usize = self.slots.iter().filter_map(|s| s.act.get()).map(|a| a.len()).sum();
        (self.key.bits.len() + acts) * std::mem::size_of::<f32>()
    }
}

/// A [`CutSlot`] no measurement has claimed yet.
const SLOT_EMPTY: u8 = 0;
/// A [`CutSlot`] one measurement is computing; the others wait for it.
const SLOT_FILLING: u8 = 1;
/// A [`CutSlot`] whose claimed fill has ended: either its value is set, or
/// the fill was refused and every later measurement computes the slot
/// itself, without waiting.
const SLOT_OPEN: u8 = 2;

/// One batch's activation entering the site. `state` is read and written
/// only under the [`PrefixCache`] lock (the lock orders it, so `Relaxed`
/// suffices), and the waiters' condition variable uses that lock.
#[derive(Debug)]
struct CutSlot {
    act: OnceLock<Arc<Tensor>>,
    state: AtomicU8,
}

impl CutSlot {
    fn new() -> Self {
        CutSlot { act: OnceLock::new(), state: AtomicU8::new(SLOT_EMPTY) }
    }
}

/// What a measurement does for one batch of a resumed evaluation.
enum SlotTurn<'a> {
    /// Resume from the activation already in the slot.
    Ready(Arc<Tensor>),
    /// Compute the activation (and offer it to the cell, if any). A claim
    /// makes every other measurement of the slot wait until it is dropped.
    Compute(Option<SlotClaim<'a>>),
}

/// The exclusive right to fill a [`CutSlot`]. Dropping it, after the
/// offer or during an unwind, opens the slot and wakes its waiters.
struct SlotClaim<'a> {
    cache: &'a PrefixCache,
    slot: &'a CutSlot,
}

impl Drop for SlotClaim<'_> {
    fn drop(&mut self) {
        let _s = self.cache.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.slot.state.store(SLOT_OPEN, Ordering::Relaxed);
        self.cache.slot_done.notify_all();
    }
}

/// Observable counters of a [`PrefixCache`] (one consistent snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Lookups served at the exact requested cut.
    pub hits: u64,
    /// Lookups that had to compute (possibly extending a shallower entry).
    pub misses: u64,
    /// Insertions refused because the byte budget was exhausted (each one
    /// is a transparent fall-back to recomputing that prefix next time).
    pub rejected: u64,
    /// Bytes currently held by memoized activations, cut-cache cells
    /// included.
    pub bytes_held: usize,
    /// Number of memoized `(batch, cut)` prefix activations.
    pub entries: usize,
    /// Measurements resumed at a site from an existing cut-cache cell.
    pub cut_hits: u64,
    /// Measurements whose state of the layers feeding the site was new:
    /// they computed the activation entering the site.
    pub cut_misses: u64,
    /// Activations entering a site that were computed, one
    /// `Span::range(cut, site)` execution per batch. Without refusals or
    /// evictions this is `cut_misses` × batches: concurrent measurements
    /// of one cell compute each slot once.
    pub cut_computes: u64,
}

impl PrefixCacheStats {
    /// Fraction of lookups served at the exact requested cut (0 when no
    /// lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A budget of `mb` MiB in bytes, saturating at `usize::MAX`, or
/// `default_bytes` when `mb` is absent or not a whole number.
fn budget_from_mb(mb: Option<&str>, default_bytes: usize) -> usize {
    mb.and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(default_bytes, |mb| mb.saturating_mul(1 << 20))
}

/// A byte-bounded memo of **clean prefix activations**, keyed by
/// `(evaluation batch, cut)`.
///
/// Fault campaigns evaluate one fixed network thousands of times with
/// faults at varying depths; every activation *before* the earliest faulted
/// layer is bit-identical to the clean run, so recomputing it per cell is
/// pure waste. [`EvalSet::accuracy_suffix`] memoizes those activations here
/// — lazily, per batch and per cut — and shares the cache across campaign
/// workers and across cells (wrap it in an [`Arc`], or share a
/// [`SuffixAccuracy`], which does so for you).
///
/// **Binding contract:** an entry at cut `c` is the output of layers
/// `[0, c)` of the clean network that computed it, so it stays valid while
/// those layers are unchanged — parameters and activation thresholds alike.
/// Layers from `c` onwards may change freely: faults injected at or after
/// the cut, or a clipping threshold tuned above it (see
/// [`crate::SiteEvaluator`]). The cache never inspects the model, so the
/// caller must uphold this. In practice: one `PrefixCache` per (eval set,
/// clean prefix), never shared between e.g. a protected and an unprotected
/// twin.
///
/// The same cache holds the **cut cache** of an evaluator resumed at a
/// clipping site (see [`crate::SiteEvaluator`]): per evaluation batch, the
/// activation entering the site, keyed by the cut and the exact bits of
/// every parameter in layers `[cut, site)`. Its entries stay valid while
/// the layers below the cut are clean and nothing but parameters changes
/// in `[cut, site)`; faults there change the key, so they can only miss.
/// Concurrent measurements compute each of its slots once: the first to
/// find a slot empty claims it, and the others wait for its value.
///
/// When an insertion would exceed the byte budget it is simply refused and
/// the caller keeps its freshly computed activation for the current cell —
/// a budget of `0` degrades to recomputing every prefix (still
/// bit-identical, just slower). Prefix and cut entries share the one
/// budget. Set `FTCLIP_PREFIX_CACHE_MB` to override the default budget.
#[derive(Debug, Default)]
pub struct PrefixCache {
    budget_bytes: usize,
    state: Mutex<PrefixCacheState>,
    /// Signalled whenever a claimed cut slot's fill ends.
    slot_done: Condvar,
}

impl PrefixCache {
    /// A cache bounded by `budget_bytes` of activation storage.
    pub fn new(budget_bytes: usize) -> Self {
        PrefixCache { budget_bytes, ..PrefixCache::default() }
    }

    /// A cache whose budget comes from the `FTCLIP_PREFIX_CACHE_MB`
    /// environment variable, falling back to `default_bytes` when unset or
    /// unparsable.
    pub fn from_env(default_bytes: usize) -> Self {
        let mb = std::env::var("FTCLIP_PREFIX_CACHE_MB").ok();
        PrefixCache::new(budget_from_mb(mb.as_deref(), default_bytes))
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// One consistent snapshot of the cache counters.
    pub fn stats(&self) -> PrefixCacheStats {
        let s = self.state.lock().expect("prefix cache lock");
        PrefixCacheStats {
            hits: s.hits,
            misses: s.misses,
            rejected: s.rejected,
            bytes_held: s.bytes_held,
            entries: s.entries.len(),
            cut_hits: s.cut_hits,
            cut_misses: s.cut_misses,
            cut_computes: s.cut_computes,
        }
    }

    /// The deepest memoized activation for `batch` at a cut `≤ cut`,
    /// with its depth. Counts a hit only for an exact-depth match.
    fn deepest_at(&self, batch: usize, cut: usize) -> Option<(usize, Arc<Tensor>)> {
        let mut s = self.state.lock().expect("prefix cache lock");
        // chaos drill: evict the entry we were about to serve, as if the
        // budget reclaimed it between cells — the caller recomputes the
        // prefix from scratch, bit-identically
        if ftclip_tensor::failpoint::fires("core.prefix_evict") {
            let found = s.entries.range((batch, 0)..=(batch, cut)).next_back().map(|(&k, _)| k);
            if let Some(key) = found {
                if let Some(act) = s.entries.remove(&key) {
                    s.bytes_held = s.bytes_held.saturating_sub(act.len() * std::mem::size_of::<f32>());
                }
            }
            s.misses += 1;
            return None;
        }
        let found = s
            .entries
            .range((batch, 0)..=(batch, cut))
            .next_back()
            .map(|(&(_, depth), act)| (depth, act.clone()));
        match found {
            Some((depth, _)) if depth == cut => s.hits += 1,
            _ => s.misses += 1,
        }
        found
    }

    /// Offers an activation to the cache; refused (with the `rejected`
    /// counter bumped) when it would exceed the byte budget. Concurrent
    /// duplicate computations keep the first copy — the values are
    /// bit-identical by construction, so which one survives is immaterial.
    fn insert(&self, batch: usize, cut: usize, act: &Arc<Tensor>) {
        let bytes = act.len() * std::mem::size_of::<f32>();
        let mut s = self.state.lock().expect("prefix cache lock");
        if s.entries.contains_key(&(batch, cut)) {
            return;
        }
        // chaos drill: an injected insert failure behaves exactly like a
        // budget refusal — the caller keeps its freshly computed activation
        if s.bytes_held + bytes > self.budget_bytes || ftclip_tensor::failpoint::fires("core.prefix_insert") {
            s.rejected += 1;
            return;
        }
        s.bytes_held += bytes;
        s.entries.insert((batch, cut), act.clone());
    }

    /// The cut-cache cell for `key` over `batches` evaluation batches: the
    /// memoized one (a hit), or a new, empty one (a miss). `None` when the
    /// byte budget refuses even the key: that measurement computes every
    /// batch without caching.
    fn cut_cell(&self, key: CutKey, batches: usize) -> Option<Arc<CutCell>> {
        let hash = key.hash();
        let mut guard = self.state.lock().expect("prefix cache lock");
        let s = &mut *guard;
        if let Some(bucket) = s.cuts.get_mut(&hash) {
            if let Some(pos) = bucket.iter().position(|c| c.key == key) {
                // chaos drill: evict the cell we were about to serve — this
                // measurement recomputes it from the clean prefix
                if !ftclip_tensor::failpoint::fires("core.prefix_evict") {
                    s.cut_hits += 1;
                    return Some(bucket[pos].clone());
                }
                let evicted = bucket.swap_remove(pos);
                s.bytes_held = s.bytes_held.saturating_sub(evicted.bytes());
            }
        }
        s.cut_misses += 1;
        let bytes = key.bits.len() * std::mem::size_of::<f32>();
        if s.bytes_held + bytes > self.budget_bytes || ftclip_tensor::failpoint::fires("core.prefix_insert") {
            s.rejected += 1;
            return None;
        }
        s.bytes_held += bytes;
        let cell = Arc::new(CutCell {
            hash,
            key,
            slots: (0..batches).map(|_| CutSlot::new()).collect(),
        });
        s.cuts.entry(hash).or_default().push(cell.clone());
        Some(cell)
    }

    /// What the measurement does for batch `batch` of `cell`: resume from
    /// the slot's value, or compute it. The first measurement to find the
    /// slot empty claims it, and later ones wait until that fill ends. A
    /// slot whose fill was refused, and every batch of a missing cell (its
    /// key was refused), is computed without waiting. Every computation
    /// counts in `cut_computes`.
    fn cut_slot<'a>(&'a self, cell: Option<&'a CutCell>, batch: usize) -> SlotTurn<'a> {
        let slot = cell.map(|c| &c.slots[batch]);
        if let Some(act) = slot.and_then(|s| s.act.get()) {
            return SlotTurn::Ready(act.clone());
        }
        let mut s = self.state.lock().expect("prefix cache lock");
        if let Some(slot) = slot {
            let filling = |_: &mut PrefixCacheState| slot.state.load(Ordering::Relaxed) == SLOT_FILLING;
            s = self.slot_done.wait_while(s, filling).expect("prefix cache lock");
            if let Some(act) = slot.act.get() {
                return SlotTurn::Ready(act.clone());
            }
        }
        s.cut_computes += 1;
        match slot {
            Some(slot) if slot.state.load(Ordering::Relaxed) == SLOT_EMPTY => {
                slot.state.store(SLOT_FILLING, Ordering::Relaxed);
                SlotTurn::Compute(Some(SlotClaim { cache: self, slot }))
            }
            _ => SlotTurn::Compute(None),
        }
    }

    /// Offers batch `batch`'s activation entering the site to `cell`,
    /// within the byte budget (a refusal bumps `rejected`). A slot keeps its
    /// first value, and a cell evicted meanwhile takes nothing.
    fn insert_cut(&self, cell: &CutCell, batch: usize, act: &Arc<Tensor>) {
        let bytes = act.len() * std::mem::size_of::<f32>();
        let mut s = self.state.lock().expect("prefix cache lock");
        let live = s
            .cuts
            .get(&cell.hash)
            .is_some_and(|b| b.iter().any(|c| std::ptr::eq(&**c, cell)));
        let slot = &cell.slots[batch].act;
        if !live || slot.get().is_some() {
            return;
        }
        if s.bytes_held + bytes > self.budget_bytes || ftclip_tensor::failpoint::fires("core.prefix_insert") {
            s.rejected += 1;
            return;
        }
        s.bytes_held += bytes;
        // cannot fail: slots are only filled under this lock
        let _ = slot.set(act.clone());
    }
}

/// The hint-aware campaign evaluator: scores an [`EvalSet`] through
/// [`ftclip_fault::CellEval`], re-executing only the network suffix below a
/// cell's earliest faulted layer and reusing clean prefix activations from
/// a shared [`PrefixCache`].
///
/// Cells without a usable hint (the clean-accuracy evaluation of a
/// whole-network campaign, or whole-network injections that hit layer 0)
/// fall back to the full [`EvalSet::accuracy`] path. Either way the
/// returned accuracy is **bit-identical** to the plain
/// `|n| eval.accuracy(n)` closure — the hint only changes how much work is
/// redone, never a result bit — so store cache keys, golden snapshots and
/// resume fixtures are unaffected.
///
/// Cloning shares the prefix cache (cheap: the eval set is `Arc`-backed),
/// which is how one cache serves every campaign over the same clean
/// network — e.g. the per-layer sweeps of Fig. 3 — or over networks that
/// differ only above every cut, as in per-site threshold tuning. **Do
/// not** reuse one evaluator across networks whose layers below a cut
/// differ (see [`PrefixCache`]'s binding contract); make a fresh one
/// instead.
#[derive(Debug, Clone)]
pub struct SuffixAccuracy {
    eval: EvalSet,
    cache: Arc<PrefixCache>,
    site: Option<usize>,
}

impl SuffixAccuracy {
    /// An evaluator over `eval` with a fresh environment-budgeted cache.
    pub fn new(eval: EvalSet) -> Self {
        let cache = Arc::new(PrefixCache::from_env(eval.default_prefix_budget()));
        SuffixAccuracy { eval, cache, site: None }
    }

    /// An evaluator sharing an existing cache (the cache's entries must
    /// hold for the networks this evaluator will score; see
    /// [`PrefixCache`]'s binding contract).
    pub fn with_cache(eval: EvalSet, cache: Arc<PrefixCache>) -> Self {
        SuffixAccuracy { eval, cache, site: None }
    }

    /// This evaluator, resuming every cell that cuts below layer `site` at
    /// `site`: the activation entering `site` is computed once per state of
    /// the layers `[cut, site)` and served from the cut cache after that
    /// (see [`PrefixCache`]). Bit-identical to the plain evaluator.
    ///
    /// Valid while, between the evaluations it serves, only parameters of
    /// layers from the cut onwards and anything from `site` onwards change
    /// — the one-site threshold search [`crate::SiteEvaluator`] runs.
    pub(crate) fn at_site(self, site: usize) -> Self {
        SuffixAccuracy { site: Some(site), ..self }
    }

    /// The underlying prefix cache (for stats reporting and sharing).
    pub fn cache(&self) -> &Arc<PrefixCache> {
        &self.cache
    }

    /// The evaluation set being scored.
    pub fn eval_set(&self) -> &EvalSet {
        &self.eval
    }
}

impl SuffixAccuracy {
    /// The `(cut, site)` this evaluator resumes a cell with `hint` at, if
    /// it resumes it at a site.
    fn resumed(&self, net: &Sequential, hint: SuffixHint) -> Option<(usize, usize)> {
        match (hint.cut, self.site) {
            (Some(cut), Some(site)) if cut < site && site <= net.len() => Some((cut, site)),
            _ => None,
        }
    }
}

impl CellEval for SuffixAccuracy {
    fn eval_cell(&self, net: &Sequential, hint: SuffixHint) -> f64 {
        if let Some((cut, site)) = self.resumed(net, hint) {
            return self.eval.accuracy_from_site(net, cut, site, &self.cache);
        }
        match hint.cut {
            Some(cut) if cut > 0 && cut <= net.len() => self.eval.accuracy_suffix(net, cut, &self.cache),
            _ => self.eval.accuracy(net),
        }
    }
}

/// A campaign evaluator that only fills a site-resumed [`SuffixAccuracy`]'s
/// cut cache: each cell's activation entering the site is computed once,
/// and nothing from the site onwards runs. Its scores mean nothing (0).
pub(crate) struct CutFill(pub(crate) SuffixAccuracy);

impl CellEval for CutFill {
    fn eval_cell(&self, net: &Sequential, hint: SuffixHint) -> f64 {
        if let Some((cut, site)) = self.0.resumed(net, hint) {
            self.0.eval.fill_site(net, cut, site, &self.0.cache);
        }
        0.0
    }
}

/// Declarative description of an evaluation set: subset size, sampling seed
/// and batch size — everything [`EvalSet::from_settings`] needs besides the
/// dataset split itself. Callers that cache evaluation results must chain
/// all of these fields (and whatever pins the split's contents) into their
/// cache fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalSettings {
    /// Number of images drawn (without replacement); clamped to the split.
    pub subset_size: usize,
    /// Subset sampling seed.
    pub seed: u64,
    /// Evaluation mini-batch size.
    pub batch_size: usize,
}

impl EvalSettings {
    /// Settings with the shared experiment defaults (batch 64).
    pub fn new(subset_size: usize, seed: u64) -> Self {
        EvalSettings { subset_size, seed, batch_size: 64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_data::SynthCifar;
    use ftclip_nn::{Layer, Sequential};

    fn data() -> SynthCifar {
        SynthCifar::builder().seed(5).train_size(16).val_size(16).test_size(32).build()
    }

    #[test]
    fn accuracy_runs_on_untrained_net() {
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8);
        let net = Sequential::new(vec![Layer::flatten(), Layer::linear(3 * 32 * 32, 10, 1)]);
        let acc = eval.accuracy(&net);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn subset_draws_n() {
        let d = data();
        let eval = EvalSet::from_subset(d.test(), 10, 7, 4);
        assert_eq!(eval.len(), 10);
    }

    #[test]
    fn subset_deterministic() {
        let d = data();
        let a = EvalSet::from_subset(d.test(), 10, 7, 4);
        let b = EvalSet::from_subset(d.test(), 10, 7, 4);
        assert_eq!(a.labels(), b.labels());
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

    #[test]
    fn prefix_budget_parses_whole_mib_and_saturates() {
        assert_eq!(budget_from_mb(None, 7), 7);
        assert_eq!(budget_from_mb(Some("lots"), 7), 7);
        assert_eq!(budget_from_mb(Some("-1"), 7), 7);
        assert_eq!(budget_from_mb(Some(" 0 "), 7), 0);
        assert_eq!(budget_from_mb(Some("64"), 7), 64 << 20);
        // 2^44 MiB is 2^64 bytes: a shift would wrap it to 0
        assert_eq!(budget_from_mb(Some("17592186044416"), 7), usize::MAX);
        assert_eq!(budget_from_mb(Some(&usize::MAX.to_string()), 7), usize::MAX);
    }

    #[test]
    fn suffix_accuracy_matches_full_at_every_cut_and_thread_count() {
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8); // 32 images → 4 batches
        let net = conv_net();
        let full = eval.accuracy(&net).to_bits();
        for cut in 0..=net.len() {
            let cache = PrefixCache::new(64 << 20);
            for threads in [1usize, 2, 4] {
                let suffix = eval.accuracy_suffix_with_threads(&net, cut, &cache, threads);
                assert_eq!(suffix.to_bits(), full, "cut {cut}, {threads} threads");
            }
            // warm second pass replays the memoized prefixes bit-identically
            assert_eq!(eval.accuracy_suffix(&net, cut, &cache).to_bits(), full, "warm cut {cut}");
            if cut > 0 {
                assert!(cache.stats().hits > 0, "warm pass at cut {cut} must hit");
            }
        }
    }

    #[test]
    fn exhausted_budget_falls_back_bit_identically() {
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8);
        let net = conv_net();
        let cache = PrefixCache::new(0);
        let full = eval.accuracy(&net).to_bits();
        for _ in 0..2 {
            assert_eq!(eval.accuracy_suffix(&net, 3, &cache).to_bits(), full);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "budget 0 must store nothing");
        assert_eq!(stats.bytes_held, 0);
        assert!(stats.rejected > 0, "every insert must be refused");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn deeper_cuts_extend_shallower_entries() {
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8);
        let net = conv_net();
        let cache = PrefixCache::new(64 << 20);
        let full = eval.accuracy(&net).to_bits();
        assert_eq!(eval.accuracy_suffix(&net, 2, &cache).to_bits(), full);
        let shallow_entries = cache.stats().entries;
        assert_eq!(eval.accuracy_suffix(&net, 5, &cache).to_bits(), full);
        let stats = cache.stats();
        assert!(stats.entries > shallow_entries, "cut 5 adds deeper entries");
        assert!(stats.bytes_held > 0);
        assert!(stats.bytes_held <= cache.budget_bytes());
    }

    #[test]
    fn suffix_eval_honors_the_cell_hint() {
        use ftclip_fault::{CellEval, SuffixHint};
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8);
        let net = conv_net();
        let sx = eval.suffix_eval_with_budget(64 << 20);
        let full = eval.accuracy(&net).to_bits();
        assert_eq!(sx.eval_cell(&net, SuffixHint::full()).to_bits(), full);
        assert_eq!(sx.eval_cell(&net, SuffixHint::at(0)).to_bits(), full);
        assert_eq!(sx.eval_cell(&net, SuffixHint::at(3)).to_bits(), full);
        assert_eq!(sx.eval_cell(&net, SuffixHint::at(net.len())).to_bits(), full);
        // out-of-range hints degrade to the full path instead of panicking
        assert_eq!(sx.eval_cell(&net, SuffixHint::at(net.len() + 7)).to_bits(), full);
        assert!(sx.cache().stats().entries > 0);
        // a clone shares the cache
        assert_eq!(Arc::as_ptr(sx.clone().cache()), Arc::as_ptr(sx.cache()));
    }

    #[test]
    fn suffix_eval_scores_faulted_networks_correctly() {
        use ftclip_fault::{CellEval, SuffixHint};
        // corrupt the last linear layer; cut 5 keeps the clean prefix valid
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8);
        let clean = conv_net();
        let sx = eval.suffix_eval_with_budget(64 << 20);
        // warm the cache from the clean network first (what the campaign's
        // earlier cells do)
        let _ = sx.eval_cell(&clean, SuffixHint::at(5));
        let mut faulted = clean.clone();
        faulted.visit_params_mut(&mut |i, kind, v, _| {
            if i == 5 && kind == ftclip_nn::ParamKind::Weight {
                for w in v.data_mut().iter_mut() {
                    *w = -*w;
                }
            }
        });
        let reference = eval.accuracy(&faulted).to_bits();
        assert_eq!(sx.eval_cell(&faulted, SuffixHint::at(5)).to_bits(), reference);
    }

    #[test]
    fn site_resumed_accuracy_matches_full_at_every_cut_site_and_thread_count() {
        use ftclip_fault::{CellEval, SuffixHint};
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8); // 32 images → 4 batches
        let net = conv_net();
        let full = eval.accuracy(&net).to_bits();
        for threads in [1usize, 2, 4] {
            for site in 1..=net.len() {
                let sx = eval.suffix_eval_with_budget(64 << 20).at_site(site);
                for cut in 0..site {
                    for pass in ["cold", "warm"] {
                        let acc = ftclip_tensor::with_thread_limit(threads, || {
                            sx.eval_cell(&net, SuffixHint::at(cut))
                        });
                        assert_eq!(acc.to_bits(), full, "{pass}: cut {cut}, site {site}, {threads} threads");
                    }
                }
                // one cell per cut: computed once, then served
                let stats = sx.cache().stats();
                assert_eq!((stats.cut_misses, stats.cut_hits), (site as u64, site as u64), "site {site}");
            }
        }
    }

    #[test]
    fn a_starved_cut_cache_recomputes_bit_identically() {
        use ftclip_fault::{CellEval, SuffixHint};
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8);
        let net = conv_net();
        let full = eval.accuracy(&net).to_bits();
        let sx = eval.suffix_eval_with_budget(0).at_site(4);
        for _ in 0..2 {
            assert_eq!(sx.eval_cell(&net, SuffixHint::at(3)).to_bits(), full);
        }
        let stats = sx.cache().stats();
        assert_eq!(stats.bytes_held, 0, "budget 0 must hold nothing");
        assert_eq!((stats.cut_misses, stats.cut_hits), (2, 0));
        assert!(stats.rejected >= 2, "every cell key is refused");
    }

    #[test]
    fn a_claimed_cut_slot_is_waited_for_and_a_refused_one_opens() {
        let act = Arc::new(Tensor::ones(&[2, 3]));
        // room for the one-word key and one activation
        let cache = PrefixCache::new((1 + act.len()) * std::mem::size_of::<f32>());
        let cell = cache.cut_cell(CutKey { cut: 0, bits: vec![7] }, 2).expect("the key fits");
        let SlotTurn::Compute(Some(claim)) = cache.cut_slot(Some(&cell), 0) else {
            panic!("the first turn claims the slot");
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let (shared, shared_cell) = (&cache, &*cell);
        std::thread::scope(|scope| {
            scope.spawn(move || tx.send(shared.cut_slot(Some(shared_cell), 0)).unwrap());
            let early = rx.recv_timeout(std::time::Duration::from_millis(100));
            assert!(early.is_err(), "a second turn must wait while the slot is claimed");
            cache.insert_cut(&cell, 0, &act);
            drop(claim);
            let SlotTurn::Ready(got) = rx.recv().unwrap() else {
                panic!("the waiter must read the claimed fill");
            };
            assert!(Arc::ptr_eq(&got, &act));
        });
        // the second slot does not fit: its fill is refused and the slot opens
        let SlotTurn::Compute(Some(claim)) = cache.cut_slot(Some(&cell), 1) else {
            panic!("the first turn claims the slot");
        };
        cache.insert_cut(&cell, 1, &act);
        drop(claim);
        assert!(matches!(cache.cut_slot(Some(&cell), 1), SlotTurn::Compute(None)), "computed unclaimed");
        let stats = cache.stats();
        assert_eq!((stats.rejected, stats.cut_computes), (1, 3));
    }

    #[test]
    fn prefix_budget_defaults_are_sane() {
        let d = data();
        let eval = EvalSet::from_dataset(d.test(), 8);
        let budget = eval.default_prefix_budget();
        assert!(budget >= 64 << 20, "floor at 64 MB");
        assert!(budget >= eval.images().len() * 4);
    }

    #[test]
    fn settings_clamp_to_split_and_match_from_subset() {
        let d = data();
        let oversized = EvalSet::from_settings(d.test(), &EvalSettings::new(10_000, 7));
        assert_eq!(oversized.len(), d.test().len(), "subset size clamps to the split");
        let a = EvalSet::from_settings(d.test(), &EvalSettings { subset_size: 10, seed: 7, batch_size: 4 });
        let b = EvalSet::from_subset(d.test(), 10, 7, 4);
        assert_eq!(a.labels(), b.labels());
    }
}
