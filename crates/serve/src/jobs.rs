//! The campaign job scheduler behind `ftclipd`.
//!
//! A [`Scheduler`] owns a FIFO-within-priority queue of validated
//! [`ExperimentSpec`]s, deduplicated by spec fingerprint:
//!
//! * a spec whose result is already on disk is a **cache hit** — no job is
//!   created, the stored result is the answer;
//! * a spec equal to a live (queued or running) job **coalesces** onto that
//!   job instead of queueing a duplicate;
//! * anything else becomes a new [`Job`], persisted under
//!   `<state>/jobs/<fingerprint>/` *before* it is queued, so a crash at any
//!   point leaves a resumable record.
//!
//! Worker threads (the server decides how many) pop the highest-priority,
//! oldest job and execute it under their share of the process thread
//! budget (`ftclip_tensor::with_thread_limit`). Progress and cancellation
//! ride the [`CampaignObserver`] side channel: every completed campaign
//! cell appends an NDJSON event to the job (adaptive campaigns also emit a
//! `rate_converged` event per retired rate), and cancellation unwinds the
//! campaign with [`CancelledCampaign`] at a cell boundary — the
//! content-addressed store keeps every cell already paid for, so a
//! cancelled or crashed campaign resumes bit-identically.
//!
//! Job records are the only state that grows without bound: every distinct
//! spec leaves a `<state>/jobs/<fingerprint>/` directory behind forever.
//! [`Scheduler::set_keep_jobs`] caps that — after each job reaches a
//! terminal state (and once at boot) the scheduler deletes the oldest
//! **terminal** job directories beyond the cap. The campaign-cell store is
//! never touched: evicting a job record only costs re-assembling tables
//! from cells that stay cached.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ftclip_bench::{ExperimentSpec, RunOutcome, RunSettings, Runner};
use ftclip_fault::{with_observer, CampaignObserver, CancelledCampaign};
use ftclip_store::write_atomic;
use ftclip_tensor::failpoint;
use serde::Value;

/// Poison-tolerant lock: a supervised worker panic (a failpoint, a bug in a
/// campaign cell) may poison any scheduler mutex; every guarded structure
/// here is consistent between operations, so recovery just takes the guard
/// instead of cascading the panic into whoever observes the job next.
fn plock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spec file inside a job directory (written before the job is queued).
pub const SPEC_FILE: &str = "spec.json";
/// Submission metadata (priority) next to the spec.
pub const META_FILE: &str = "meta.json";
/// Completion marker: its presence makes the fingerprint a cache hit.
pub const DONE_FILE: &str = "done.json";
/// Failure marker with the spec error.
pub const ERROR_FILE: &str = "error.json";
/// Cancellation marker (explicit `DELETE`, not a crash).
pub const CANCELLED_FILE: &str = "cancelled.json";
/// Buffered human-readable report of a completed job.
pub const REPORT_FILE: &str = "report.txt";
/// Result tables subdirectory of a job directory.
pub const RESULT_DIR: &str = "result";

/// Lifecycle state of a [`Job`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; result persisted under the job directory.
    Completed,
    /// Failed: spec error, exhausted retries, or an expired deadline.
    Failed,
    /// Cancelled by request.
    Cancelled,
}

impl JobStatus {
    /// The wire name used in JSON responses and events.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// One submitted experiment: the spec, its identity, and its event log.
#[derive(Debug)]
pub struct Job {
    id: u64,
    /// The validated spec this job runs.
    pub spec: ExperimentSpec,
    /// The spec fingerprint as 32 hex digits — the job's storage address
    /// and result ETag.
    pub fingerprint: String,
    /// Scheduling priority, 0–9; higher runs first.
    pub priority: u8,
    seq: u64,
    status: Mutex<JobStatus>,
    terminal: AtomicBool,
    cancel: AtomicBool,
    events: Mutex<Vec<String>>,
    cells_done: AtomicUsize,
    /// Completed execution attempts (a supervised panic ends an attempt).
    attempts: AtomicUsize,
    /// Backoff gate: a retried job is not eligible to run before this.
    not_before: Mutex<Option<Instant>>,
    /// Optional wall-clock deadline; the campaign unwinds at the first cell
    /// boundary past it and the job fails with a `deadline` error.
    deadline: Option<Instant>,
}

impl Job {
    /// The job's public identifier (`job-<n>`).
    pub fn id_str(&self) -> String {
        format!("job-{}", self.id)
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        *plock(&self.status)
    }

    /// Completed execution attempts (0 until the first supervised retry).
    pub fn attempts(&self) -> usize {
        self.attempts.load(Ordering::Relaxed)
    }

    /// `true` once the job's wall-clock deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn ready(&self, now: Instant) -> bool {
        plock(&self.not_before).is_none_or(|t| t <= now)
    }

    /// `true` once the job reached a terminal state (completed, failed or
    /// cancelled). Event streams finish when this flips.
    pub fn is_terminal(&self) -> bool {
        self.terminal.load(Ordering::Acquire)
    }

    /// Number of campaign cells reported so far.
    pub fn cells_done(&self) -> usize {
        self.cells_done.load(Ordering::Relaxed)
    }

    /// Marks the job for cooperative cancellation; the campaign unwinds at
    /// the next cell boundary.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// The NDJSON event lines from index `from` on (each line includes its
    /// trailing newline).
    pub fn events_from(&self, from: usize) -> Vec<String> {
        let events = plock(&self.events);
        events.get(from..).map(<[String]>::to_vec).unwrap_or_default()
    }

    /// The job as a JSON summary (the `/v1/jobs` representation).
    pub fn describe(&self) -> Value {
        Value::Object(vec![
            ("id".to_string(), Value::String(self.id_str())),
            ("name".to_string(), Value::String(self.spec.name.clone())),
            ("procedure".to_string(), Value::String(self.spec.procedure.to_string())),
            ("fingerprint".to_string(), Value::String(self.fingerprint.clone())),
            ("status".to_string(), Value::String(self.status().as_str().to_string())),
            ("priority".to_string(), Value::Number(f64::from(self.priority))),
            ("cells_done".to_string(), Value::Number(self.cells_done() as f64)),
        ])
    }

    fn push_event(&self, fields: Vec<(String, Value)>) {
        // event rendering cannot realistically fail (all values are plain
        // scalars), but a worker thread must never panic over telemetry:
        // drop the event instead
        let Ok(mut line) = serde_json::to_string(&Value::Object(fields)) else { return };
        line.push('\n');
        plock(&self.events).push(line);
    }

    fn set_status(&self, status: JobStatus) {
        *plock(&self.status) = status;
        if !matches!(status, JobStatus::Queued | JobStatus::Running) {
            self.terminal.store(true, Ordering::Release);
        }
    }
}

/// Bounded jittered exponential backoff for supervised retries.
///
/// Attempt `n` (1-based) waits `base_delay × 2^(n−1)`, capped at
/// `max_delay`, scaled by a deterministic jitter factor in `[0.5, 1.0)`
/// derived from the job fingerprint and the attempt number — no wall clock,
/// no OS randomness, so chaos runs replay identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Supervised retries before a panicking job is marked failed
    /// (0 = fail on the first panic).
    pub max_retries: usize,
    /// Backoff for the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(250),
            max_delay: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry `attempt` (1-based) of `fingerprint`.
    pub fn delay(&self, fingerprint: &str, attempt: usize) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1).min(16) as u32).unwrap_or(u32::MAX))
            .min(self.max_delay);
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in fingerprint.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= attempt as u64;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        let jitter = 0.5 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64);
        exp.mul_f64(jitter)
    }
}

/// Scheduler counters, all monotonic except `queue_depth`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Specs accepted as new jobs.
    pub jobs_submitted: AtomicUsize,
    /// Jobs a worker actually started executing (the probe's
    /// no-recomputation assertion watches this one).
    pub jobs_executed: AtomicUsize,
    /// Jobs that completed successfully.
    pub jobs_completed: AtomicUsize,
    /// Jobs that failed with a spec error.
    pub jobs_failed: AtomicUsize,
    /// Jobs cancelled by request.
    pub jobs_cancelled: AtomicUsize,
    /// Submissions answered from a stored result, no job created.
    pub cache_hits: AtomicUsize,
    /// Submissions coalesced onto an already-live identical job.
    pub coalesced: AtomicUsize,
    /// Current queue length.
    pub queue_depth: AtomicUsize,
    /// Submissions rejected because the queue was at capacity (503).
    pub jobs_shed: AtomicUsize,
    /// Supervised re-queues after a worker panic.
    pub jobs_retried: AtomicUsize,
    /// Worker panics caught by supervision (each either retried or failed).
    pub jobs_panicked: AtomicUsize,
    /// Jobs failed because their wall-clock deadline expired.
    pub jobs_deadline_expired: AtomicUsize,
}

/// A point-in-time copy of the [`Metrics`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror Metrics, documented there
pub struct MetricsSnapshot {
    pub jobs_submitted: usize,
    pub jobs_executed: usize,
    pub jobs_completed: usize,
    pub jobs_failed: usize,
    pub jobs_cancelled: usize,
    pub cache_hits: usize,
    pub coalesced: usize,
    pub queue_depth: usize,
    pub jobs_shed: usize,
    pub jobs_retried: usize,
    pub jobs_panicked: usize,
    pub jobs_deadline_expired: usize,
}

impl Metrics {
    /// Copies every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            jobs_retried: self.jobs_retried.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            jobs_deadline_expired: self.jobs_deadline_expired.load(Ordering::Relaxed),
        }
    }
}

/// How [`Scheduler::submit`] resolved a spec.
#[derive(Debug)]
pub enum Submission {
    /// The result is already stored — no job was created.
    CachedResult {
        /// The spec fingerprint addressing the stored result.
        fingerprint: String,
    },
    /// An identical job is already queued or running; this is it.
    Existing(Arc<Job>),
    /// A new job was created and queued.
    Queued(Arc<Job>),
    /// The queue is at capacity; the caller should retry after the hint
    /// (served as `503` + `Retry-After` by the HTTP layer).
    Shed {
        /// Queue length at rejection time.
        queue_depth: usize,
        /// Suggested client back-off.
        retry_after: Duration,
    },
}

#[derive(Default)]
struct SchedState {
    queue: Vec<Arc<Job>>,
    jobs: Vec<Arc<Job>>,
    live_by_fp: HashMap<String, Arc<Job>>,
}

/// The job table, queue and worker entry points. Shared via `Arc` between
/// the HTTP layer and the worker threads.
pub struct Scheduler {
    state_dir: PathBuf,
    base_settings: RunSettings,
    state: Mutex<SchedState>,
    cv: Condvar,
    next_seq: AtomicU64,
    shutdown: AtomicBool,
    abandon: Arc<AtomicBool>,
    /// Terminal job directories to retain (`usize::MAX` = keep everything).
    keep_jobs: AtomicUsize,
    /// Queued jobs accepted before submissions shed (`usize::MAX` = unbounded).
    max_queue: AtomicUsize,
    /// Default wall-clock deadline applied to jobs submitted without one,
    /// in milliseconds (0 = none).
    default_deadline_ms: AtomicU64,
    /// Supervised-retry policy for panicking jobs.
    retry: Mutex<RetryPolicy>,
    /// The service counters.
    pub metrics: Metrics,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("state_dir", &self.state_dir)
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// A scheduler persisting under `state_dir`, running jobs with
    /// `base_settings` (each job overrides `out_dir` to its own result
    /// directory; the cache root and assets directory are shared, so jobs
    /// reuse each other's campaign cells and trained models).
    pub fn new(state_dir: PathBuf, base_settings: RunSettings) -> Arc<Self> {
        std::fs::create_dir_all(state_dir.join("jobs")).ok();
        Arc::new(Scheduler {
            state_dir,
            base_settings,
            state: Mutex::new(SchedState::default()),
            cv: Condvar::new(),
            next_seq: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            abandon: Arc::new(AtomicBool::new(false)),
            keep_jobs: AtomicUsize::new(usize::MAX),
            max_queue: AtomicUsize::new(usize::MAX),
            default_deadline_ms: AtomicU64::new(0),
            retry: Mutex::new(RetryPolicy::default()),
            metrics: Metrics::default(),
        })
    }

    /// Caps the submission queue; submissions beyond the cap are
    /// [`Submission::Shed`]. `None` (the default) accepts everything.
    pub fn set_max_queue(&self, max: Option<usize>) {
        self.max_queue.store(max.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// Default wall-clock deadline for jobs submitted without an explicit
    /// one. `None` (the default) lets jobs run indefinitely.
    pub fn set_default_deadline(&self, deadline: Option<Duration>) {
        self.default_deadline_ms
            .store(deadline.map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64), Ordering::Relaxed);
    }

    /// Replaces the supervised-retry policy for panicking jobs.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *plock(&self.retry) = policy;
    }

    /// The current supervised-retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *plock(&self.retry)
    }

    /// Caps the number of **terminal** job directories kept on disk.
    /// `None` (the default) keeps everything. The cap is enforced once per
    /// terminal transition and whenever [`Scheduler::gc_terminal_jobs`]
    /// runs; live (queued or running) jobs and the campaign-cell store are
    /// never evicted.
    pub fn set_keep_jobs(&self, keep: Option<usize>) {
        self.keep_jobs.store(keep.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// Deletes the oldest terminal job directories beyond the
    /// [`Scheduler::set_keep_jobs`] cap. Returns how many were removed.
    ///
    /// Only directories under `<state>/jobs/` carrying a completion,
    /// failure or cancellation marker are candidates: unfinished jobs (the
    /// crash-resume inventory) and any fingerprint that is live again
    /// (resubmitted after a cancellation) are always kept, and the
    /// campaign-cell store lives elsewhere entirely. "Oldest" is by the
    /// terminal marker's modification time, so the records that survive
    /// are the ones most recently finished — the ones `GET /v1/results`
    /// clients are most likely to still want.
    pub fn gc_terminal_jobs(&self) -> usize {
        let st = plock(&self.state);
        self.gc_locked(&st)
    }

    fn gc_locked(&self, st: &SchedState) -> usize {
        let keep = self.keep_jobs.load(Ordering::Relaxed);
        if keep == usize::MAX {
            return 0;
        }
        let Ok(entries) = std::fs::read_dir(self.state_dir.join("jobs")) else { return 0 };
        let mut terminal: Vec<(std::time::SystemTime, String, PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let dir = entry.path();
            let Some(name) = dir.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            // a cancelled fingerprint may have been resubmitted: its dir
            // still carries the old marker, but the job is live again
            if st.live_by_fp.contains_key(&name) {
                continue;
            }
            let marker = [DONE_FILE, ERROR_FILE, CANCELLED_FILE]
                .iter()
                .map(|m| dir.join(m))
                .find(|p| p.is_file());
            let Some(marker) = marker else { continue };
            let finished = marker
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            terminal.push((finished, name, dir));
        }
        if terminal.len() <= keep {
            return 0;
        }
        // newest first; fingerprint breaks mtime ties deterministically
        terminal.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut removed = 0;
        for (_, _, dir) in terminal.drain(keep..) {
            if std::fs::remove_dir_all(&dir).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// The persistent directory of the given fingerprint's job.
    pub fn job_dir(&self, fingerprint: &str) -> PathBuf {
        self.state_dir.join("jobs").join(fingerprint)
    }

    /// Where the given fingerprint's result tables live.
    pub fn result_dir(&self, fingerprint: &str) -> PathBuf {
        self.job_dir(fingerprint).join(RESULT_DIR)
    }

    /// The stored completion record, if the fingerprint has one.
    pub fn stored_result(&self, fingerprint: &str) -> Option<Value> {
        let text = std::fs::read_to_string(self.job_dir(fingerprint).join(DONE_FILE)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Submits a validated spec (see [`Submission`] for the outcomes).
    /// Persists new jobs before queueing them. The scheduler's default
    /// deadline (if any) applies; [`Scheduler::submit_with_deadline`] takes
    /// an explicit one.
    pub fn submit(&self, spec: ExperimentSpec, priority: u8) -> Submission {
        self.submit_with_deadline(spec, priority, None)
    }

    /// [`Scheduler::submit`] with an explicit wall-clock deadline
    /// (overriding the scheduler default; `None` falls back to it).
    pub fn submit_with_deadline(
        &self,
        spec: ExperimentSpec,
        priority: u8,
        deadline: Option<Duration>,
    ) -> Submission {
        let fingerprint = spec.fingerprint().key().to_hex();
        let mut st = plock(&self.state);
        // the disk check lives under the lock: workers remove a finished
        // job from `live_by_fp` only after writing its DONE_FILE (also
        // under the lock), so exactly one of the two branches ever matches.
        // The record must *parse*: a torn marker from a crashed process is
        // not a result and falls through to queueing a fresh job.
        if self.stored_result(&fingerprint).is_some() {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Submission::CachedResult { fingerprint };
        }
        if let Some(job) = st.live_by_fp.get(&fingerprint) {
            self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
            return Submission::Existing(job.clone());
        }
        let max_queue = self.max_queue.load(Ordering::Relaxed);
        if st.queue.len() >= max_queue {
            self.metrics.jobs_shed.fetch_add(1, Ordering::Relaxed);
            return Submission::Shed {
                queue_depth: st.queue.len(),
                retry_after: Duration::from_secs(1),
            };
        }

        let default_ms = self.default_deadline_ms.load(Ordering::Relaxed);
        let effective = deadline.or((default_ms > 0).then(|| Duration::from_millis(default_ms)));
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            id: seq,
            spec,
            fingerprint: fingerprint.clone(),
            priority: priority.min(9),
            seq,
            status: Mutex::new(JobStatus::Queued),
            terminal: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            cells_done: AtomicUsize::new(0),
            attempts: AtomicUsize::new(0),
            not_before: Mutex::new(None),
            deadline: effective.map(|d| Instant::now() + d),
        });
        self.persist_submission(&job);
        job.push_event(vec![
            ("event".to_string(), Value::String("queued".to_string())),
            ("job".to_string(), Value::String(job.id_str())),
            ("name".to_string(), Value::String(job.spec.name.clone())),
            ("fingerprint".to_string(), Value::String(fingerprint.clone())),
        ]);
        st.queue.push(job.clone());
        st.jobs.push(job.clone());
        st.live_by_fp.insert(fingerprint, job.clone());
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.metrics.queue_depth.store(st.queue.len(), Ordering::Relaxed);
        drop(st);
        self.cv.notify_one();
        Submission::Queued(job)
    }

    /// Looks a job up by its `job-<n>` identifier.
    pub fn find_job(&self, id: &str) -> Option<Arc<Job>> {
        let st = plock(&self.state);
        st.jobs.iter().find(|j| j.id_str() == id).cloned()
    }

    /// Every job this server life knows, in submission order.
    pub fn jobs(&self) -> Vec<Arc<Job>> {
        plock(&self.state).jobs.clone()
    }

    /// Cancels a job. A queued job is removed and marked cancelled
    /// immediately; a running job unwinds at its next cell boundary.
    /// Returns `false` when the job already reached a terminal state.
    pub fn cancel(&self, job: &Arc<Job>) -> bool {
        let mut st = plock(&self.state);
        match job.status() {
            JobStatus::Queued => {
                st.queue.retain(|j| j.seq != job.seq);
                self.metrics.queue_depth.store(st.queue.len(), Ordering::Relaxed);
                write_atomic(&self.job_dir(&job.fingerprint).join(CANCELLED_FILE), b"{}\n").ok();
                job.push_event(vec![("event".to_string(), Value::String("cancelled".to_string()))]);
                self.finish(&mut st, job, JobStatus::Cancelled);
                self.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                self.gc_locked(&st);
                true
            }
            JobStatus::Running => {
                job.request_cancel();
                true
            }
            _ => false,
        }
    }

    /// Re-queues every persisted job that never finished: a directory with
    /// a spec but no (valid) completion, failure or cancellation marker.
    /// Returns how many jobs were resumed. Call before starting workers.
    ///
    /// Partially written records from an abandoned process are repaired,
    /// never trusted and never fatal:
    ///
    /// * a terminal marker that does not parse as JSON (torn write) is set
    ///   aside as `<marker>.corrupt` and the job re-enqueues cleanly;
    /// * a job directory whose `spec.json` is missing or unreadable is
    ///   moved to `<state>/jobs-quarantine/` — boot continues without it.
    pub fn resume_from_disk(&self) -> usize {
        let jobs_root = self.state_dir.join("jobs");
        let Ok(entries) = std::fs::read_dir(&jobs_root) else { return 0 };
        let mut specs: Vec<(ExperimentSpec, u8)> = Vec::new();
        for entry in entries.flatten() {
            let dir = entry.path();
            if !dir.is_dir() {
                continue; // stray files (e.g. orphaned *.tmp) are not jobs
            }
            let mut terminal = false;
            for marker in [DONE_FILE, ERROR_FILE, CANCELLED_FILE] {
                let path = dir.join(marker);
                if !path.is_file() {
                    continue;
                }
                let parses = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|t| serde_json::from_str(&t).ok())
                    .map(|_: Value| ())
                    .is_some();
                if parses {
                    terminal = true;
                } else {
                    eprintln!(
                        "[jobs] torn terminal marker {}; setting it aside and re-enqueueing the job",
                        path.display()
                    );
                    std::fs::rename(&path, dir.join(format!("{marker}.corrupt"))).ok();
                }
            }
            if terminal {
                continue;
            }
            let spec = std::fs::read_to_string(dir.join(SPEC_FILE))
                .ok()
                .and_then(|text| ExperimentSpec::from_json(&text).ok());
            let Some(spec) = spec else {
                // no readable spec: not resumable, but not fatal either —
                // quarantine the directory so the damage stays inspectable
                // and the jobs dir stays clean
                let name = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                let qroot = self.state_dir.join("jobs-quarantine");
                std::fs::create_dir_all(&qroot).ok();
                if std::fs::rename(&dir, qroot.join(&name)).is_err() {
                    std::fs::remove_dir_all(&dir).ok();
                }
                eprintln!("[jobs] quarantined unreadable job record {name} (missing or torn spec.json)");
                continue;
            };
            let priority = std::fs::read_to_string(dir.join(META_FILE))
                .ok()
                .and_then(|t| serde_json::from_str(&t).ok())
                .and_then(|v: Value| v.get("priority").and_then(Value::as_u64))
                .map_or(5, |p| p.min(9) as u8);
            specs.push((spec, priority));
        }
        // deterministic resume order regardless of directory iteration
        specs.sort_by(|a, b| a.0.name.cmp(&b.0.name));
        let mut resumed = 0;
        for (spec, priority) in specs {
            if matches!(self.submit(spec, priority), Submission::Queued(_)) {
                resumed += 1;
            }
        }
        resumed
    }

    /// Graceful-shutdown signal: each worker finishes the job it has in
    /// hand and then exits. Jobs still queued stay persisted on disk and
    /// are re-enqueued by [`Scheduler::resume_from_disk`] on the next
    /// boot.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Crash-simulation signal: running campaigns unwind at their next
    /// cell boundary and workers exit **without persisting any job state**
    /// — exactly what `kill -9` would leave behind, minus the risk of
    /// tearing a file mid-write.
    pub fn request_abandon(&self) {
        self.abandon.store(true, Ordering::Release);
        self.shutdown.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// `true` once shutdown (graceful or abandon) was requested.
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// `true` once crash-simulation abandon was requested.
    pub fn abandoning(&self) -> bool {
        self.abandon.load(Ordering::Acquire)
    }

    /// A worker thread's main loop: pop the best job, run it under
    /// `budget` threads, repeat until shutdown. Graceful shutdown stops
    /// **before** picking up another job — whatever is still queued stays
    /// persisted and resumable — while abandon additionally unwinds the
    /// job in flight at its next cell boundary.
    pub fn worker_loop(self: &Arc<Self>, budget: usize) {
        loop {
            let job = {
                let mut st = plock(&self.state);
                loop {
                    if self.stopping() {
                        return;
                    }
                    if let Some(i) = best_index(&st.queue, Instant::now()) {
                        let job = st.queue.remove(i);
                        self.metrics.queue_depth.store(st.queue.len(), Ordering::Relaxed);
                        break job;
                    }
                    // timed wait so flag flips (and jobs whose backoff gate
                    // opens) are noticed even if a notification raced past
                    // before we started waiting
                    let (guard, _) = self
                        .cv
                        .wait_timeout(st, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
            };
            self.run_job(&job, budget);
        }
    }

    fn run_job(&self, job: &Arc<Job>, budget: usize) {
        if job.deadline_exceeded() {
            // expired while queued: fail without burning a worker on it
            self.metrics.jobs_deadline_expired.fetch_add(1, Ordering::Relaxed);
            self.fail_job(job, "deadline exceeded before the job started");
            return;
        }
        job.set_status(JobStatus::Running);
        job.push_event(vec![("event".to_string(), Value::String("started".to_string()))]);
        self.metrics.jobs_executed.fetch_add(1, Ordering::Relaxed);

        let settings = RunSettings {
            out_dir: self.result_dir(&job.fingerprint),
            ..self.base_settings.clone()
        };
        let runner = Runner::new(settings);
        let observer: Arc<dyn CampaignObserver> =
            Arc::new(JobProgress { job: job.clone(), abandon: self.abandon.clone() });
        let result = catch_unwind(AssertUnwindSafe(|| {
            // inside the closure so an injected panic exercises the same
            // supervision path a real campaign bug would
            failpoint::fires("serve.job");
            with_observer(observer, || {
                ftclip_tensor::with_thread_limit(budget.max(1), || runner.run(&job.spec))
            })
        }));
        match result {
            Ok(Ok(outcome)) => self.complete_job(job, &outcome),
            Ok(Err(error)) => self.fail_job(job, &error.to_string()),
            Err(payload) => {
                if payload.downcast_ref::<CancelledCampaign>().is_some() {
                    self.handle_unwound(job);
                } else {
                    // &*: coerce to the payload itself, not &Box-as-Any
                    // (the Box would fail every downcast)
                    self.handle_panic(job, &*payload);
                }
            }
        }
    }

    /// A campaign unwound cooperatively ([`CancelledCampaign`]): abandon
    /// simulation, an explicit cancel, or an expired deadline.
    fn handle_unwound(&self, job: &Arc<Job>) {
        if self.abandoning() {
            // crash simulation: leave the job exactly as a killed
            // process would — spec persisted, no terminal marker,
            // every completed cell already in the store
            return;
        }
        if !job.cancel.load(Ordering::Acquire) && job.deadline_exceeded() {
            self.metrics.jobs_deadline_expired.fetch_add(1, Ordering::Relaxed);
            self.fail_job(job, "deadline exceeded");
            return;
        }
        let mut st = plock(&self.state);
        write_atomic(&self.job_dir(&job.fingerprint).join(CANCELLED_FILE), b"{}\n").ok();
        job.push_event(vec![("event".to_string(), Value::String("cancelled".to_string()))]);
        self.finish(&mut st, job, JobStatus::Cancelled);
        self.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        self.gc_locked(&st);
    }

    /// Supervision for a real panic out of the campaign: the worker slot
    /// survives, the job either re-queues with backoff or fails with the
    /// panic message in its event log — it never wedges.
    fn handle_panic(&self, job: &Arc<Job>, payload: &(dyn std::any::Any + Send)) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        self.metrics.jobs_panicked.fetch_add(1, Ordering::Relaxed);
        let attempt = job.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        let policy = self.retry_policy();
        if attempt <= policy.max_retries && !self.stopping() {
            let delay = policy.delay(&job.fingerprint, attempt);
            job.push_event(vec![
                ("event".to_string(), Value::String("retrying".to_string())),
                ("attempt".to_string(), Value::Number(attempt as f64)),
                ("delay_ms".to_string(), Value::Number(delay.as_millis() as f64)),
                ("error".to_string(), Value::String(message)),
            ]);
            *plock(&job.not_before) = Some(Instant::now() + delay);
            job.set_status(JobStatus::Queued);
            self.metrics.jobs_retried.fetch_add(1, Ordering::Relaxed);
            let mut st = plock(&self.state);
            st.queue.push(job.clone());
            self.metrics.queue_depth.store(st.queue.len(), Ordering::Relaxed);
            drop(st);
            self.cv.notify_one();
        } else {
            self.fail_job(job, &format!("panicked after {attempt} attempt(s): {message}"));
        }
    }

    fn complete_job(&self, job: &Arc<Job>, outcome: &RunOutcome) {
        let dir = self.job_dir(&job.fingerprint);
        std::fs::write(dir.join(REPORT_FILE), &outcome.report).ok();
        let tables: Vec<Value> = outcome
            .tables
            .iter()
            .filter_map(|p| p.file_stem())
            .map(|s| Value::String(s.to_string_lossy().into_owned()))
            .collect();
        let table_count = tables.len();
        let done = Value::Object(vec![
            ("name".to_string(), Value::String(outcome.name.clone())),
            ("fingerprint".to_string(), Value::String(job.fingerprint.clone())),
            ("tables".to_string(), Value::Array(tables)),
            (
                "failures".to_string(),
                Value::Array(outcome.failures.iter().map(|f| Value::String(f.clone())).collect()),
            ),
        ]);
        let mut st = plock(&self.state);
        // DONE_FILE is written under the lock, making "stored result
        // exists" and "job is live" mutually exclusive for submitters.
        // If the marker cannot be persisted (disk fault, injected or real)
        // the work is NOT a stored result: finish the job as failed so no
        // future submission is answered from a record that does not exist.
        let persisted = serde_json::to_string_pretty(&done)
            .map_err(std::io::Error::other)
            .and_then(|rendered| write_atomic(&dir.join(DONE_FILE), rendered.as_bytes()));
        if let Err(error) = persisted {
            drop(st);
            self.fail_job(job, &format!("completed but the result record could not be persisted: {error}"));
            return;
        }
        job.push_event(vec![
            ("event".to_string(), Value::String("completed".to_string())),
            ("etag".to_string(), Value::String(format!("\"{}\"", job.fingerprint))),
            ("tables".to_string(), Value::Number(table_count as f64)),
            ("failures".to_string(), Value::Number(outcome.failures.len() as f64)),
        ]);
        self.finish(&mut st, job, JobStatus::Completed);
        self.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.gc_locked(&st);
    }

    fn fail_job(&self, job: &Arc<Job>, error: &str) {
        let body = Value::Object(vec![("error".to_string(), Value::String(error.to_string()))]);
        if let Ok(rendered) = serde_json::to_string_pretty(&body) {
            write_atomic(&self.job_dir(&job.fingerprint).join(ERROR_FILE), rendered.as_bytes()).ok();
        }
        let mut st = plock(&self.state);
        job.push_event(vec![
            ("event".to_string(), Value::String("failed".to_string())),
            ("error".to_string(), Value::String(error.to_string())),
        ]);
        self.finish(&mut st, job, JobStatus::Failed);
        self.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
        self.gc_locked(&st);
    }

    /// Flips `job` terminal. Callers push the terminal event first: a
    /// stream that sees the flip must already find its last line.
    fn finish(&self, st: &mut SchedState, job: &Arc<Job>, status: JobStatus) {
        job.set_status(status);
        st.live_by_fp.remove(&job.fingerprint);
    }

    fn persist_submission(&self, job: &Arc<Job>) {
        let dir = self.job_dir(&job.fingerprint);
        std::fs::create_dir_all(&dir).ok();
        // a resubmitted fingerprint (after a cancellation or failure) must
        // not look terminal to the next boot's resume scan
        for stale in [ERROR_FILE, CANCELLED_FILE] {
            std::fs::remove_file(dir.join(stale)).ok();
        }
        if let Err(error) = write_atomic(&dir.join(SPEC_FILE), job.spec.to_json().as_bytes()) {
            // the job still runs this server life; it just won't survive a
            // crash. Degrade (and say so) rather than take the service down.
            eprintln!("[jobs] could not persist spec for {}: {error}", job.fingerprint);
        }
        let meta = Value::Object(vec![
            ("priority".to_string(), Value::Number(f64::from(job.priority))),
            ("name".to_string(), Value::String(job.spec.name.clone())),
        ]);
        if let Ok(rendered) = serde_json::to_string_pretty(&meta) {
            write_atomic(&dir.join(META_FILE), rendered.as_bytes()).ok();
        }
    }
}

/// Highest priority first, FIFO (lowest sequence number) within a
/// priority; jobs inside their retry-backoff window are not eligible.
fn best_index(queue: &[Arc<Job>], now: Instant) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|(_, j)| j.ready(now))
        .min_by_key(|(_, j)| (std::cmp::Reverse(j.priority), j.seq))
        .map(|(i, _)| i)
}

/// The per-job [`CampaignObserver`]: appends cell events and answers the
/// executor's cancellation polls.
struct JobProgress {
    job: Arc<Job>,
    abandon: Arc<AtomicBool>,
}

impl CampaignObserver for JobProgress {
    fn on_cell(&self, record: &ftclip_fault::RunRecord, cached: bool) {
        // a chaos schedule can make any cell boundary panic; supervision
        // above catches it, so the site doubles as the worker-panic drill
        failpoint::fires("serve.cell");
        let done = self.job.cells_done.fetch_add(1, Ordering::Relaxed) + 1;
        self.job.push_event(vec![
            ("event".to_string(), Value::String("cell".to_string())),
            ("rate_index".to_string(), Value::Number(record.rate_index as f64)),
            ("repetition".to_string(), Value::Number(record.repetition as f64)),
            ("fault_count".to_string(), Value::Number(record.fault_count as f64)),
            ("accuracy".to_string(), Value::Number(record.accuracy)),
            ("cached".to_string(), Value::Bool(cached)),
            ("cells_done".to_string(), Value::Number(done as f64)),
        ]);
    }

    fn on_clean(&self, accuracy: f64) {
        self.job.push_event(vec![
            ("event".to_string(), Value::String("clean".to_string())),
            ("accuracy".to_string(), Value::Number(accuracy)),
        ]);
    }

    fn on_rate_converged(&self, report: &ftclip_fault::RateConvergence) {
        // half_width can be +inf for degenerate samples; the shim renders
        // non-finite numbers as JSON null, which stream consumers treat as
        // "no interval"
        self.job.push_event(vec![
            ("event".to_string(), Value::String("rate_converged".to_string())),
            ("rate_index".to_string(), Value::Number(report.rate_index as f64)),
            ("reps_used".to_string(), Value::Number(report.reps_used as f64)),
            ("half_width".to_string(), Value::Number(report.half_width)),
            ("converged".to_string(), Value::Bool(report.converged)),
        ]);
    }

    fn cancel_requested(&self) -> bool {
        self.job.cancel.load(Ordering::Acquire)
            || self.abandon.load(Ordering::Acquire)
            || self.job.deadline_exceeded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclip_bench::{Procedure, RateGrid};

    fn tiny_spec(name: &str) -> ExperimentSpec {
        let mut spec = ExperimentSpec::builder(Procedure::CampaignSummary, name)
            .rates(RateGrid::Absolute(vec![1e-4, 1e-3]))
            .repetitions(2)
            .eval_size(32)
            .build()
            .unwrap();
        spec.workload.epochs = 0;
        spec.workload.width_mult = 0.05;
        spec.data.train_size = 16;
        spec.data.val_size = 16;
        spec.data.test_size = 64;
        spec
    }

    fn temp_scheduler(tag: &str) -> (Arc<Scheduler>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ftclipd-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let settings = RunSettings {
            cache_root: Some(dir.join("cache")),
            assets_dir: dir.join("assets"),
            ..RunSettings::default()
        };
        (Scheduler::new(dir.clone(), settings), dir)
    }

    #[test]
    fn priority_queue_is_fifo_within_priority() {
        let (sched, dir) = temp_scheduler("prio");
        let ids: Vec<String> = [("a", 5), ("b", 9), ("c", 5), ("d", 9)]
            .iter()
            .map(|(name, prio)| match sched.submit(tiny_spec(name), *prio) {
                Submission::Queued(job) => job.id_str(),
                other => panic!("expected fresh queue, got {other:?}"),
            })
            .collect();
        let mut popped = Vec::new();
        {
            let mut st = sched.state.lock().unwrap();
            while let Some(i) = best_index(&st.queue, Instant::now()) {
                popped.push(st.queue.remove(i).id_str());
            }
        }
        // priority 9 first in submit order, then priority 5 in submit order
        assert_eq!(popped, vec![ids[1].clone(), ids[3].clone(), ids[0].clone(), ids[2].clone()]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn identical_specs_coalesce_and_different_ones_do_not() {
        let (sched, dir) = temp_scheduler("dedup");
        let first = match sched.submit(tiny_spec("same"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        match sched.submit(tiny_spec("same"), 5) {
            Submission::Existing(job) => assert_eq!(job.id_str(), first.id_str()),
            other => panic!("expected coalescing, got {other:?}"),
        }
        assert!(matches!(sched.submit(tiny_spec("other"), 5), Submission::Queued(_)));
        let m = sched.metrics.snapshot();
        assert_eq!((m.jobs_submitted, m.coalesced, m.queue_depth), (2, 1, 2));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn queued_jobs_cancel_without_running_and_terminal_jobs_do_not() {
        let (sched, dir) = temp_scheduler("cancel");
        let job = match sched.submit(tiny_spec("x"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        assert!(sched.cancel(&job));
        assert_eq!(job.status(), JobStatus::Cancelled);
        assert!(job.is_terminal());
        assert!(!sched.cancel(&job), "terminal jobs cannot be re-cancelled");
        assert!(sched.job_dir(&job.fingerprint).join(CANCELLED_FILE).is_file());
        assert_eq!(sched.metrics.snapshot().queue_depth, 0);
        // the fingerprint is free again: resubmitting queues a fresh job
        assert!(matches!(sched.submit(tiny_spec("x"), 5), Submission::Queued(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn submitted_jobs_are_persisted_and_resume_skips_terminal_dirs() {
        let (sched, dir) = temp_scheduler("resume");
        let job = match sched.submit(tiny_spec("r"), 7) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        assert!(sched.job_dir(&job.fingerprint).join(SPEC_FILE).is_file());
        let done = match sched.submit(tiny_spec("done"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        std::fs::write(sched.job_dir(&done.fingerprint).join(DONE_FILE), "{}\n").unwrap();

        // a second scheduler over the same state dir: only the unfinished
        // job comes back, with its persisted priority
        let settings = sched.base_settings.clone();
        let fresh = Scheduler::new(dir.clone(), settings);
        assert_eq!(fresh.resume_from_disk(), 1);
        let resumed = fresh.jobs();
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].spec.name, "r");
        assert_eq!(resumed[0].priority, 7);
        // the finished fingerprint now answers as a cache hit
        assert!(matches!(fresh.submit(tiny_spec("done"), 5), Submission::CachedResult { .. }));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn adaptive_jobs_emit_rate_converged_events() {
        let (sched, dir) = temp_scheduler("adaptive");
        let mut spec = tiny_spec("adaptive");
        // a loose target so both rates retire at min_reps
        spec.stopping = Some(ftclip_fault::StoppingRule { target_half_width: 0.9, min_reps: 2, max_reps: 2 });
        let job = match sched.submit(spec, 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        let worker = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.worker_loop(2))
        };
        while !job.is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.request_shutdown();
        worker.join().unwrap();
        assert_eq!(job.status(), JobStatus::Completed);
        let converged: Vec<Value> = job
            .events_from(0)
            .iter()
            .map(|l| serde_json::from_str(l.trim()).unwrap())
            .filter(|v| v.get("event").and_then(Value::as_str) == Some("rate_converged"))
            .collect();
        assert_eq!(converged.len(), 2, "one retirement per fault rate");
        for event in &converged {
            assert_eq!(event.get("reps_used").and_then(Value::as_u64), Some(2));
            assert!(event.get("half_width").is_some());
            assert_eq!(event.get("converged"), Some(&Value::Bool(true)));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn retention_gc_evicts_only_old_terminal_records() {
        let (sched, dir) = temp_scheduler("gc");
        let mut cancelled = Vec::new();
        for name in ["a", "b", "c"] {
            let job = match sched.submit(tiny_spec(name), 5) {
                Submission::Queued(job) => job,
                other => panic!("{other:?}"),
            };
            assert!(sched.cancel(&job));
            cancelled.push(job);
            // stagger the marker mtimes so "oldest" is well defined
            std::thread::sleep(Duration::from_millis(15));
        }
        // a live job's dir has no terminal marker and must survive any cap
        let live = match sched.submit(tiny_spec("live"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        // resubmitting "a" makes its fingerprint live again even though the
        // old cancellation marker is still in the dir — it must survive too
        let resubmitted = match sched.submit(tiny_spec("a"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        assert_eq!(resubmitted.fingerprint, cancelled[0].fingerprint);

        // default cap keeps everything
        assert_eq!(sched.gc_terminal_jobs(), 0);
        sched.set_keep_jobs(Some(1));
        // terminal candidates are b and c (a is live again); keep newest
        assert_eq!(sched.gc_terminal_jobs(), 1);
        assert!(!sched.job_dir(&cancelled[1].fingerprint).exists(), "b is the oldest candidate");
        assert!(sched.job_dir(&cancelled[2].fingerprint).exists());
        assert!(sched.job_dir(&cancelled[0].fingerprint).exists());
        assert!(sched.job_dir(&live.fingerprint).join(SPEC_FILE).is_file());
        // idempotent once under the cap
        assert_eq!(sched.gc_terminal_jobs(), 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn finishing_a_job_enforces_the_retention_cap() {
        let (sched, dir) = temp_scheduler("gc-run");
        sched.set_keep_jobs(Some(1));
        let old = match sched.submit(tiny_spec("old"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        assert!(sched.cancel(&old));
        assert!(sched.job_dir(&old.fingerprint).exists(), "one terminal record fits the cap");
        std::thread::sleep(Duration::from_millis(15));

        let job = match sched.submit(tiny_spec("fresh"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        let worker = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.worker_loop(2))
        };
        while !job.is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.request_shutdown();
        worker.join().unwrap();
        assert_eq!(job.status(), JobStatus::Completed);
        // completing the fresh job pushed the cancelled record over the cap
        assert!(!sched.job_dir(&old.fingerprint).exists());
        assert!(sched.job_dir(&job.fingerprint).join(DONE_FILE).is_file());
        // the campaign-cell store is never part of retention
        assert!(dir.join("cache").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn worker_executes_jobs_and_emits_the_event_protocol() {
        let (sched, dir) = temp_scheduler("run");
        let job = match sched.submit(tiny_spec("w"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        let worker = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.worker_loop(2))
        };
        while !job.is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.request_shutdown(); // worker is now idle; the signal ends it
        worker.join().unwrap();
        assert_eq!(job.status(), JobStatus::Completed);
        let events = job.events_from(0);
        let kinds: Vec<String> = events
            .iter()
            .map(|l| {
                let v: Value = serde_json::from_str(l.trim()).unwrap();
                v.get("event").and_then(Value::as_str).unwrap().to_string()
            })
            .collect();
        assert_eq!(kinds.first().map(String::as_str), Some("queued"));
        assert_eq!(kinds.get(1).map(String::as_str), Some("started"));
        assert_eq!(kinds.last().map(String::as_str), Some("completed"));
        assert!(kinds.iter().any(|k| k == "clean"), "{kinds:?}");
        // 2 rates × 2 repetitions
        assert_eq!(kinds.iter().filter(|k| *k == "cell").count(), 4);
        assert_eq!(job.cells_done(), 4);
        let stored = sched.stored_result(&job.fingerprint).expect("done.json");
        assert_eq!(stored.get("name").and_then(Value::as_str), Some("w"));
        // an identical submission is now a cache hit, executing nothing
        assert!(matches!(sched.submit(tiny_spec("w"), 5), Submission::CachedResult { .. }));
        let m = sched.metrics.snapshot();
        assert_eq!((m.jobs_executed, m.jobs_completed, m.cache_hits), (1, 1, 1));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bounded_queue_sheds_beyond_capacity() {
        let (sched, dir) = temp_scheduler("shed");
        sched.set_max_queue(Some(2));
        assert!(matches!(sched.submit(tiny_spec("a"), 5), Submission::Queued(_)));
        assert!(matches!(sched.submit(tiny_spec("b"), 5), Submission::Queued(_)));
        match sched.submit(tiny_spec("c"), 5) {
            Submission::Shed { queue_depth, retry_after } => {
                assert_eq!(queue_depth, 2);
                assert!(retry_after >= Duration::from_millis(1));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // shed submissions leave no job record behind
        assert_eq!(sched.jobs().len(), 2);
        let m = sched.metrics.snapshot();
        assert_eq!((m.jobs_submitted, m.jobs_shed), (2, 1));
        // coalescing onto a live job still works at capacity
        assert!(matches!(sched.submit(tiny_spec("a"), 5), Submission::Existing(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn expired_deadline_fails_a_queued_job_without_executing_it() {
        let (sched, dir) = temp_scheduler("deadline");
        let job = match sched.submit_with_deadline(tiny_spec("late"), 5, Some(Duration::ZERO)) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        let worker = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.worker_loop(2))
        };
        while !job.is_terminal() {
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.request_shutdown();
        worker.join().unwrap();
        assert_eq!(job.status(), JobStatus::Failed);
        let m = sched.metrics.snapshot();
        assert_eq!((m.jobs_executed, m.jobs_deadline_expired), (0, 1));
        let events = job.events_from(0).join("");
        assert!(events.contains("deadline"), "{events}");
        assert!(sched.job_dir(&job.fingerprint).join(ERROR_FILE).is_file());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn default_deadline_applies_when_submission_has_none() {
        let (sched, dir) = temp_scheduler("deadline-default");
        // sub-millisecond defaults round to "no deadline"; 1ms is the floor
        sched.set_default_deadline(Some(Duration::from_millis(1)));
        let job = match sched.submit(tiny_spec("late"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        std::thread::sleep(Duration::from_millis(5));
        assert!(job.deadline_exceeded());
        // an explicit deadline overrides the default
        let job = match sched.submit_with_deadline(tiny_spec("ok"), 5, Some(Duration::from_secs(3600))) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        assert!(!job.deadline_exceeded());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy::default();
        let d1 = policy.delay("abcd", 1);
        assert_eq!(d1, policy.delay("abcd", 1), "same inputs, same delay");
        assert_ne!(d1, policy.delay("efgh", 1), "jitter keys off the fingerprint");
        // jitter keeps each delay within [0.5, 1.0) of the exponential step
        for attempt in 1..=8 {
            let exp = policy
                .base_delay
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(policy.max_delay);
            let d = policy.delay("abcd", attempt as usize);
            assert!(d >= exp.mul_f64(0.5) && d < exp, "attempt {attempt}: {d:?} vs {exp:?}");
        }
        // the cap holds no matter how deep the retries go
        assert!(policy.delay("abcd", 64) <= policy.max_delay);
    }

    #[test]
    fn backoff_gate_hides_a_job_until_its_time_arrives() {
        let (sched, dir) = temp_scheduler("gate");
        let job = match sched.submit(tiny_spec("g"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        let now = Instant::now();
        *plock(&job.not_before) = Some(now + Duration::from_secs(60));
        {
            let st = sched.state.lock().unwrap();
            assert_eq!(best_index(&st.queue, now), None, "gated job must not be eligible");
            assert_eq!(best_index(&st.queue, now + Duration::from_secs(61)), Some(0));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn resume_requeues_jobs_with_torn_terminal_markers() {
        let (sched, dir) = temp_scheduler("resume-torn");
        let job = match sched.submit(tiny_spec("torn"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        // a crash mid-write leaves a truncated, unparseable marker
        std::fs::write(sched.job_dir(&job.fingerprint).join(DONE_FILE), "{\"name\": \"to").unwrap();
        let fresh = Scheduler::new(dir.clone(), sched.base_settings.clone());
        assert_eq!(fresh.resume_from_disk(), 1, "a torn marker is not a completion");
        assert!(sched.job_dir(&job.fingerprint).join(format!("{DONE_FILE}.corrupt")).is_file());
        assert!(!sched.job_dir(&job.fingerprint).join(DONE_FILE).exists());
        // and the torn record is no longer served as a cached result
        assert!(matches!(fresh.submit(tiny_spec("torn"), 5), Submission::Existing(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn resume_quarantines_job_dirs_with_torn_specs() {
        let (sched, dir) = temp_scheduler("resume-spec");
        let job = match sched.submit(tiny_spec("ok"), 5) {
            Submission::Queued(job) => job,
            other => panic!("{other:?}"),
        };
        let broken = dir.join("jobs").join("deadbeefdeadbeefdeadbeefdeadbeef");
        std::fs::create_dir_all(&broken).unwrap();
        std::fs::write(broken.join(SPEC_FILE), "{\"procedure\": \"camp").unwrap();
        let fresh = Scheduler::new(dir.clone(), sched.base_settings.clone());
        assert_eq!(fresh.resume_from_disk(), 1, "only the intact job resumes");
        assert_eq!(fresh.jobs()[0].spec.name, job.spec.name);
        assert!(!broken.exists(), "the broken record leaves the jobs dir");
        assert!(dir.join("jobs-quarantine").join("deadbeefdeadbeefdeadbeefdeadbeef").is_dir());
        std::fs::remove_dir_all(dir).ok();
    }
}
