//! Chaos end-to-end tests: failpoint schedules × kill/resume against a real
//! `ftclipd` over sockets.
//!
//! The contract under test is the ISSUE's acceptance bar: result tables
//! stay **byte-identical** to an undisturbed run no matter which faults
//! fire, a panicking cell never wedges a worker slot, and no corrupt cell
//! is ever served.
//!
//! Failpoint schedules are process-global, so these tests live in their own
//! integration binary and serialize on [`LOCK`]; `cargo test` gives every
//! other test file its own process, unarmed.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use ftclip_bench::{ExperimentSpec, Procedure, RateGrid, RunSettings, Runner};
use ftclip_serve::{HttpClient, RetryPolicy, ServeConfig, Server};
use ftclip_tensor::failpoint;
use serde::Value;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftclipd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server(dir: &Path, workers: usize) -> (Server, HttpClient) {
    server_with_threads(dir, workers, 2)
}

fn server_with_threads(dir: &Path, workers: usize, threads: usize) -> (Server, HttpClient) {
    let mut config = ServeConfig::new(dir.to_path_buf());
    config.workers = workers;
    config.threads = threads;
    // fast, still-jittered backoff so retry-heavy tests stay quick
    let server = Server::start(config).expect("server starts");
    server.scheduler().set_retry_policy(RetryPolicy {
        max_retries: 2,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(200),
    });
    let client = HttpClient::new(server.addr()).with_timeout(Duration::from_secs(120));
    (server, client)
}

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

fn slow_spec(name: &str, reps: usize) -> ExperimentSpec {
    let mut spec = tiny_spec(name);
    spec.repetitions = reps;
    spec
}

/// The same spec executed by the local [`Runner`] with no faults armed —
/// the byte-identity reference for every chaos run.
fn reference_tables(tag: &str, spec: &ExperimentSpec) -> Vec<(String, Vec<u8>)> {
    failpoint::clear();
    let dir = state_dir(tag);
    let settings = RunSettings {
        out_dir: dir.join("out"),
        cache_root: Some(dir.join("cache")),
        assets_dir: dir.join("assets"),
        ..RunSettings::default()
    };
    let outcome = Runner::new(settings).run(spec).expect("reference run");
    assert!(outcome.passed());
    let tables = outcome
        .tables
        .iter()
        .map(|p| {
            let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
            (stem, std::fs::read(p).expect("reference table"))
        })
        .collect();
    std::fs::remove_dir_all(dir).ok();
    tables
}

fn submit(client: &HttpClient, spec: &ExperimentSpec) -> Value {
    let reply = client.post_json("/v1/specs", &spec.to_json()).expect("submit");
    assert_eq!(reply.status, 202, "{}", reply.text());
    reply.json().expect("submission body is JSON")
}

fn wait_for(client: &HttpClient, id: &str, timeout: Duration, pred: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + timeout;
    loop {
        let detail = client
            .get(&format!("/v1/jobs/{id}"))
            .expect("job detail")
            .json()
            .expect("job JSON");
        if pred(&detail) {
            return detail;
        }
        assert!(Instant::now() < deadline, "timed out waiting on {id}: {detail:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn status_of(detail: &Value) -> &str {
    detail.get("status").and_then(Value::as_str).unwrap_or("?")
}

fn metric(client: &HttpClient, name: &str) -> u64 {
    client
        .get("/v1/metrics")
        .expect("metrics")
        .json()
        .and_then(|v| v.get(name).and_then(Value::as_u64))
        .unwrap_or_else(|| panic!("metric {name}"))
}

fn assert_tables_match(client: &HttpClient, fingerprint: &str, reference: &[(String, Vec<u8>)]) {
    for (stem, bytes) in reference {
        let served = client
            .get(&format!("/v1/results/{fingerprint}?table={stem}&format=csv"))
            .expect("served table");
        assert_eq!(served.status, 200, "table {stem} missing");
        assert_eq!(&served.body, bytes, "table {stem} must be byte-identical to the undisturbed run");
    }
}

/// Injected cell panics are supervised: the job retries with backoff,
/// completes, and its tables are byte-identical to the undisturbed run.
#[test]
fn supervised_retries_recover_from_cell_panics_bit_identically() {
    let _g = guard();
    let spec = tiny_spec("panic-retry");
    let reference = reference_tables("panic-ref", &spec);

    let dir = state_dir("panic-retry");
    // one campaign thread: cells run one at a time, so each attempt's first
    // cell event is the one that panics
    let (server, client) = server_with_threads(&dir, 1, 1);
    // the first two cell events panic (one per attempt); attempt 3 runs dry
    failpoint::configure("serve.cell=panic*2").unwrap();
    let body = submit(&client, &spec);
    let id = body.get("id").and_then(Value::as_str).unwrap().to_string();
    let fingerprint = body.get("fingerprint").and_then(Value::as_str).unwrap().to_string();
    let detail = wait_for(&client, &id, Duration::from_secs(120), |d| {
        matches!(status_of(d), "completed" | "failed" | "cancelled")
    });
    failpoint::clear();
    assert_eq!(status_of(&detail), "completed", "{detail:?}");
    assert_eq!(metric(&client, "jobs_panicked"), 2);
    assert_eq!(metric(&client, "jobs_retried"), 2);
    let events = client.get(&format!("/v1/jobs/{id}/events")).expect("events").ndjson();
    let retries: Vec<&Value> = events
        .iter()
        .filter(|v| v.get("event").and_then(Value::as_str) == Some("retrying"))
        .collect();
    assert_eq!(retries.len(), 2, "both panics surface in NDJSON");
    for retry in retries {
        let error = retry.get("error").and_then(Value::as_str).unwrap_or("");
        assert!(error.contains("injected panic"), "{retry:?}");
        assert!(retry.get("delay_ms").is_some());
    }
    assert_tables_match(&client, &fingerprint, &reference);
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// A job that panics past its retry budget fails with the panic in its
/// event log — and the worker slot survives to run the next job.
#[test]
fn exhausted_retries_fail_the_job_without_wedging_the_worker() {
    let _g = guard();
    let dir = state_dir("wedge");
    let (server, client) = server(&dir, 1); // ONE worker: a wedged slot would
                                            // hang the follow-up job forever
    failpoint::configure("serve.cell=panic").unwrap();
    let body = submit(&client, &tiny_spec("doomed"));
    let id = body.get("id").and_then(Value::as_str).unwrap().to_string();
    let detail =
        wait_for(&client, &id, Duration::from_secs(120), |d| matches!(status_of(d), "completed" | "failed"));
    failpoint::clear();
    assert_eq!(status_of(&detail), "failed", "{detail:?}");
    let events = client.get(&format!("/v1/jobs/{id}/events")).expect("events").text();
    assert!(events.contains("panicked after 3 attempt(s)"), "{events}");
    assert!(events.contains("injected panic"), "{events}");

    // the acceptance bar: the single worker slot is alive and well
    let body = submit(&client, &tiny_spec("after-the-storm"));
    let id2 = body.get("id").and_then(Value::as_str).unwrap().to_string();
    wait_for(&client, &id2, Duration::from_secs(120), |d| status_of(d) == "completed");
    assert_eq!(metric(&client, "jobs_failed"), 1);
    assert_eq!(metric(&client, "jobs_completed"), 1);
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// The flagship drill: a randomized failpoint schedule (torn store writes +
/// probabilistic cell panics) runs until mid-campaign, the server is killed
/// (abandon), and a clean boot resumes to tables byte-identical to the
/// undisturbed reference — corrupt cells are quarantined and recomputed,
/// never served.
#[test]
fn randomized_chaos_plus_kill_resume_is_byte_identical() {
    let _g = guard();
    let spec = slow_spec("chaos", 40);
    let reference = reference_tables("chaos-ref", &spec);
    let dir = state_dir("kill-resume");

    // life 1: chaos armed — the first cell write is torn on disk, and cell
    // boundaries panic probabilistically under a pinned seed
    failpoint::configure("seed=1303;store.cell_write=short_write*1;serve.cell=panic:0.15*2").unwrap();
    let (server1, client1) = server(&dir, 1);
    let body = submit(&client1, &spec);
    let id = body.get("id").and_then(Value::as_str).unwrap().to_string();
    let fingerprint = body.get("fingerprint").and_then(Value::as_str).unwrap().to_string();
    wait_for(&client1, &id, Duration::from_secs(120), |d| {
        d.get("cells_done").and_then(Value::as_u64).unwrap_or(0) >= 8
    });
    let fired: u64 = failpoint::stats().iter().map(|(_, n)| n).sum();
    assert!(fired >= 1, "the schedule must actually inject faults: {:?}", failpoint::stats());
    server1.abandon();
    failpoint::clear();

    // life 2: clean boot over the damaged state — resume, recover, finish
    let (server2, client2) = server(&dir, 1);
    let resumed = server2.scheduler().jobs();
    assert_eq!(resumed.len(), 1, "the interrupted job re-queues on boot");
    let resumed_id = resumed[0].id_str();
    let events = client2.get(&format!("/v1/jobs/{resumed_id}/events")).expect("events").ndjson();
    assert_eq!(
        events.last().and_then(|v| v.get("event")).and_then(Value::as_str),
        Some("completed"),
        "the resumed campaign must finish"
    );
    // the torn write forced a quarantine somewhere under the cell store
    let quarantined = find_file(&dir.join("cache"), "cells.quarantine");
    assert!(quarantined, "the torn cell line must be quarantined, not trusted");
    assert_tables_match(&client2, &fingerprint, &reference);
    server2.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// A full queue sheds with `503 + Retry-After`, and the client-side
/// `post_json_retrying` rides the hint to an eventual acceptance.
#[test]
fn full_queue_sheds_and_shed_clients_recover_by_retrying() {
    let _g = guard();
    failpoint::clear();
    let dir = state_dir("shed");
    let (server, client) = server(&dir, 1);
    server.scheduler().set_max_queue(Some(1));

    // occupy the single worker with a long campaign, then fill the queue
    let running = submit(&client, &slow_spec("occupant", 300));
    let running_id = running.get("id").and_then(Value::as_str).unwrap().to_string();
    wait_for(&client, &running_id, Duration::from_secs(60), |d| status_of(d) == "running");
    submit(&client, &tiny_spec("queued"));

    let shed = client
        .post_json("/v1/specs", &tiny_spec("overflow").to_json())
        .expect("overflow");
    assert_eq!(shed.status, 503, "{}", shed.text());
    let retry_after = shed.header("retry-after").and_then(|v| v.parse::<u64>().ok());
    assert!(retry_after.is_some_and(|s| s >= 1), "{:?}", shed.headers);
    assert!(metric(&client, "jobs_shed") >= 1);

    // free the worker, then the shed client's jittered retries get through
    assert_eq!(client.delete(&format!("/v1/jobs/{running_id}")).unwrap().status, 202);
    let recovered = client
        .post_json_retrying("/v1/specs", &tiny_spec("overflow").to_json(), 20)
        .expect("retrying submit");
    assert_eq!(recovered.status, 202, "{}", recovered.text());
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// A wall-clock deadline fails a running campaign at a cell boundary; the
/// worker survives and the failure names the deadline.
#[test]
fn deadlines_unwind_running_campaigns_cleanly() {
    let _g = guard();
    failpoint::clear();
    let dir = state_dir("deadline");
    let (server, client) = server(&dir, 1);
    let spec = slow_spec("endless", 2000);
    let reply = client
        .post_json("/v1/specs?deadline_s=1", &spec.to_json())
        .expect("submit with deadline");
    assert_eq!(reply.status, 202, "{}", reply.text());
    let id = reply
        .json()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .unwrap();
    let detail =
        wait_for(&client, &id, Duration::from_secs(120), |d| matches!(status_of(d), "completed" | "failed"));
    assert_eq!(status_of(&detail), "failed", "{detail:?}");
    let events = client.get(&format!("/v1/jobs/{id}/events")).expect("events").text();
    assert!(events.contains("deadline"), "{events}");
    assert!(metric(&client, "jobs_deadline_expired") >= 1);

    // the slot is free: an undeadlined job completes right after
    let body = submit(&client, &tiny_spec("after-deadline"));
    let id2 = body.get("id").and_then(Value::as_str).unwrap().to_string();
    wait_for(&client, &id2, Duration::from_secs(120), |d| status_of(d) == "completed");
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// Recursively looks for a file named `name` under `root`.
fn find_file(root: &Path, name: &str) -> bool {
    let Ok(entries) = std::fs::read_dir(root) else { return false };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if find_file(&path, name) {
                return true;
            }
        } else if path.file_name().is_some_and(|n| n == name) {
            return true;
        }
    }
    false
}
