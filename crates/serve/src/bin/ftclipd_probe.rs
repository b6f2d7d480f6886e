//! `ftclipd_probe` — end-to-end smoke test and load probe for `ftclipd`.
//!
//! ```text
//! ftclipd_probe smoke --addr HOST:PORT [--out DIR] [--shutdown]
//! ftclipd_probe load  --addr HOST:PORT [--requests N] [--clients T] \
//!                     [--out BENCH_6.json] [--shutdown]
//! ftclipd_probe chaos --addr HOST:PORT [--out STATS.json] [--shutdown]
//! ```
//!
//! `smoke` drives the full service contract on the `fig1b --quick` spec:
//! submit → stream NDJSON events to completion → identical re-submit must
//! be an HTTP 200 cache hit with the spec-fingerprint ETag and **no**
//! recomputation (asserted via the `jobs_executed` metric) → fetch the
//! result tables into `--out` so CI can diff them against a local
//! `ftclip run fig1b --quick` run.
//!
//! `load` saturates the cache-hit path with `--clients` concurrent
//! connections and reports specs/sec and latency percentiles as
//! `BENCH_6.json`.
//!
//! `chaos` drives the same spec against a daemon launched with
//! `FTCLIP_FAILPOINTS` armed: every request tolerates injected accept /
//! stream faults and 503 sheds, completion is confirmed by polling the job
//! resource, and the recovery counters (`jobs_retried`, `jobs_panicked`,
//! `failpoints_fired`, …) are published as a JSON stats report for CI.

use std::io::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ftclip_bench::{ExperimentSpec, RunSettings};
use ftclip_serve::{HttpClient, HttpReply};
use serde::Value;

const USAGE: &str = "usage: ftclipd_probe smoke --addr HOST:PORT [--out DIR] [--shutdown]\n\
                     \x20      ftclipd_probe load  --addr HOST:PORT [--requests N] [--clients T] \
                     [--out FILE] [--shutdown]\n\
                     \x20      ftclipd_probe chaos --addr HOST:PORT [--out FILE] [--shutdown]";

/// A command-line error: the reason and the usage on stderr, exit 2.
fn usage(reason: &str) -> ! {
    eprintln!("{reason}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// `--help`: the usage on stdout, exit 0.
fn help() -> ! {
    println!("{USAGE}");
    std::process::exit(0)
}

fn check(cond: bool, what: &str) {
    if cond {
        eprintln!("[probe] ok: {what}");
    } else {
        eprintln!("[probe] FAIL: {what}");
        std::process::exit(1);
    }
}

/// The spec the probe exercises: the `fig1b` preset at `--quick` scale —
/// byte-identical to what `ftclip run fig1b --quick` executes.
fn quick_fig1b_spec() -> ExperimentSpec {
    let preset = ftclip_bench::preset("fig1b").expect("fig1b preset exists");
    let quick = RunSettings { quick: true, ..RunSettings::default() };
    quick.apply(&preset.spec)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage("missing mode (smoke|load|chaos)"));
    if mode == "--help" || mode == "-h" {
        help();
    }
    let mut addr: Option<SocketAddr> = None;
    let mut out: Option<String> = None;
    let mut requests = 200usize;
    let mut clients = 4usize;
    let mut shutdown = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| usage(&format!("flag {flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr").parse().unwrap_or_else(|_| usage("bad --addr"))),
            "--out" => out = Some(value("--out")),
            "--requests" => {
                requests = value("--requests").parse().unwrap_or_else(|_| usage("bad --requests"))
            }
            "--clients" => clients = value("--clients").parse().unwrap_or_else(|_| usage("bad --clients")),
            "--shutdown" => shutdown = true,
            "--help" | "-h" => help(),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    let addr = addr.unwrap_or_else(|| usage("--addr is required"));
    let client = HttpClient::new(addr).with_timeout(Duration::from_secs(600));

    match mode.as_str() {
        "smoke" => smoke(&client, out.as_deref()),
        "load" => load(&client, requests.max(1), clients.max(1), out.as_deref()),
        "chaos" => chaos(&client, out.as_deref()),
        other => usage(&format!("unknown mode '{other}'")),
    }

    if shutdown {
        let reply = client.post_json("/v1/admin/shutdown", "{}").expect("shutdown request");
        check(reply.status == 202, "admin shutdown accepted");
    }
    eprintln!("[probe] PASS ({mode})");
}

fn get_json(client: &HttpClient, path: &str) -> Value {
    let reply = client.get(path).unwrap_or_else(|e| {
        eprintln!("[probe] FAIL: GET {path}: {e}");
        std::process::exit(1);
    });
    check(reply.status == 200, &format!("GET {path} -> 200 (got {})", reply.status));
    reply.json().unwrap_or_else(|| {
        eprintln!("[probe] FAIL: GET {path}: body is not JSON");
        std::process::exit(1);
    })
}

fn metric(metrics: &Value, name: &str) -> u64 {
    metrics.get(name).and_then(Value::as_u64).unwrap_or_else(|| {
        eprintln!("[probe] FAIL: metrics missing '{name}'");
        std::process::exit(1);
    })
}

/// Submits the spec and, when it queues (202), blocks on the NDJSON event
/// stream until the job completes. Returns the final submission reply.
fn submit_and_wait(client: &HttpClient, spec_json: &str) -> HttpReply {
    let reply = client.post_json("/v1/specs", spec_json).expect("submit spec");
    check(
        reply.status == 200 || reply.status == 202,
        &format!("POST /v1/specs -> 200|202 (got {})", reply.status),
    );
    if reply.status == 202 {
        let body = reply.json().expect("submission body is JSON");
        let id = body.get("id").and_then(Value::as_str).expect("submission has a job id");
        let events = client.get(&format!("/v1/jobs/{id}/events")).expect("event stream");
        check(events.status == 200, "event stream opened");
        let lines = events.ndjson();
        let last = lines.last().and_then(|v| v.get("event")).and_then(Value::as_str);
        check(last == Some("completed"), &format!("final event is 'completed' (got {last:?})"));
        let cells: Vec<&Value> = lines
            .iter()
            .filter(|v| v.get("event").and_then(Value::as_str) == Some("cell"))
            .collect();
        check(!cells.is_empty(), &format!("event stream reported {} campaign cells", cells.len()));
    }
    reply
}

fn smoke(client: &HttpClient, out: Option<&str>) {
    let health = client.get("/healthz").expect("healthz");
    check(health.status == 200, "healthz -> 200");

    let spec = quick_fig1b_spec();
    let fingerprint = spec.fingerprint().key().to_hex();
    let spec_json = spec.to_json();

    let first = submit_and_wait(client, &spec_json);
    let server_fp = first
        .json()
        .and_then(|v| v.get("fingerprint").and_then(Value::as_str).map(str::to_string));
    check(
        server_fp.as_deref() == Some(fingerprint.as_str()),
        "server fingerprint matches the locally computed spec fingerprint",
    );

    let executed_after_first = metric(&get_json(client, "/v1/metrics"), "jobs_executed");

    // the identical re-submission must be served from the store: HTTP 200,
    // ETag = quoted spec fingerprint, and zero additional executions
    let second = client.post_json("/v1/specs", &spec_json).expect("resubmit spec");
    check(second.status == 200, &format!("re-submit -> 200 cache hit (got {})", second.status));
    check(
        second.json().and_then(|v| v.get("cached").and_then(Value::as_bool)) == Some(true),
        "cache hit is marked cached=true",
    );
    check(
        second.header("etag") == Some(format!("\"{fingerprint}\"").as_str()),
        "cache-hit ETag is the quoted spec fingerprint",
    );
    let executed_after_second = metric(&get_json(client, "/v1/metrics"), "jobs_executed");
    check(
        executed_after_second == executed_after_first,
        &format!("no recomputation on cache hit (jobs_executed stays {executed_after_first})"),
    );

    // conditional requests revalidate for free
    let conditional = client
        .request(
            "POST",
            "/v1/specs",
            &[("Content-Type", "application/json"), ("If-None-Match", &format!("\"{fingerprint}\""))],
            spec_json.as_bytes(),
        )
        .expect("conditional resubmit");
    check(conditional.status == 304, &format!("If-None-Match -> 304 (got {})", conditional.status));

    // the store behind the service has the campaign session
    let sessions = get_json(client, "/v1/store/sessions");
    check(
        sessions.as_array().is_some_and(|s| !s.is_empty()),
        "store lists at least one campaign session",
    );

    // fetch every result table; with --out, persist for the CI diff
    let result = get_json(client, &format!("/v1/results/{fingerprint}"));
    let tables: Vec<String> = result
        .get("tables")
        .and_then(Value::as_array)
        .map(|t| t.iter().filter_map(|v| v.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    check(!tables.is_empty(), &format!("result lists {} table(s)", tables.len()));
    let failures = result.get("failures").and_then(Value::as_array).map_or(0, <[Value]>::len);
    check(failures == 0, "result has no shape-check failures");
    for table in &tables {
        let csv = client
            .get(&format!("/v1/results/{fingerprint}?table={table}&format=csv"))
            .expect("fetch table");
        check(csv.status == 200, &format!("table '{table}' served as CSV"));
        if let Some(dir) = out {
            std::fs::create_dir_all(dir).expect("create --out dir");
            let path = std::path::Path::new(dir).join(format!("{table}.csv"));
            std::fs::write(&path, &csv.body).expect("write fetched table");
            eprintln!("[probe] wrote {}", path.display());
        }
    }
}

/// GETs a path, retrying on transport errors — under an armed `serve.accept`
/// or `serve.stream` failpoint individual connections are expected to die.
fn get_chaos(client: &HttpClient, path: &str, attempts: usize) -> HttpReply {
    let mut last_err = String::new();
    for attempt in 1..=attempts {
        match client.get(path) {
            Ok(reply) => return reply,
            Err(e) => {
                last_err = e.to_string();
                eprintln!("[probe] transient: GET {path} attempt {attempt}/{attempts}: {e}");
                std::thread::sleep(Duration::from_millis(100 * attempt as u64));
            }
        }
    }
    eprintln!("[probe] FAIL: GET {path} after {attempts} attempts: {last_err}");
    std::process::exit(1);
}

fn chaos(client: &HttpClient, out: Option<&str>) {
    let health = get_chaos(client, "/healthz", 10);
    check(health.status == 200, "healthz -> 200 despite injected accept faults");

    // submit through the shed-aware client path: 503 + Retry-After answers
    // are absorbed by jittered retries, transport faults by the outer loop
    let spec_json = quick_fig1b_spec().to_json();
    let mut submitted = None;
    for attempt in 1..=10u64 {
        match client.post_json_retrying("/v1/specs", &spec_json, 8) {
            Ok(reply) => {
                submitted = Some(reply);
                break;
            }
            Err(e) => {
                eprintln!("[probe] transient: POST /v1/specs attempt {attempt}/10: {e}");
                std::thread::sleep(Duration::from_millis(100 * attempt));
            }
        }
    }
    let reply = submitted.unwrap_or_else(|| {
        eprintln!("[probe] FAIL: POST /v1/specs never got through the chaos");
        std::process::exit(1);
    });
    check(
        reply.status == 200 || reply.status == 202,
        &format!("POST /v1/specs -> 200|202 (got {})", reply.status),
    );

    // the event stream may be cut mid-flight by `serve.stream`; completion
    // is confirmed by polling the job resource instead
    if reply.status == 202 {
        let body = reply.json().expect("submission body is JSON");
        let id = body
            .get("id")
            .and_then(Value::as_str)
            .map(str::to_string)
            .expect("submission has a job id");
        let deadline = Instant::now() + Duration::from_secs(600);
        let status = loop {
            let job = get_chaos(client, &format!("/v1/jobs/{id}"), 10);
            let status = job
                .json()
                .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_string))
                .unwrap_or_default();
            match status.as_str() {
                "completed" | "failed" | "cancelled" => break status,
                _ if Instant::now() >= deadline => break format!("timed out while {status}"),
                _ => std::thread::sleep(Duration::from_millis(250)),
            }
        };
        check(status == "completed", &format!("job settles as 'completed' (got '{status}')"));
    }

    // recovery must converge on the store: the re-submit is a cache hit
    let second = client.post_json_retrying("/v1/specs", &spec_json, 8).unwrap_or_else(|e| {
        eprintln!("[probe] FAIL: cache-hit resubmit: {e}");
        std::process::exit(1);
    });
    check(second.status == 200, &format!("re-submit -> 200 cache hit (got {})", second.status));

    // publish the server's recovery counters as the chaos stats report
    let metrics = get_chaos(client, "/v1/metrics", 10).json().unwrap_or_else(|| {
        eprintln!("[probe] FAIL: /v1/metrics body is not JSON");
        std::process::exit(1);
    });
    check(metric(&metrics, "jobs_completed") >= 1, "at least one job completed under chaos");
    let counter = |name: &str| Value::Number(metric(&metrics, name) as f64);
    let report = Value::Object(vec![
        ("probe".to_string(), Value::String("ftclipd_chaos".to_string())),
        (
            "failpoints".to_string(),
            Value::String(std::env::var("FTCLIP_FAILPOINTS").unwrap_or_default()),
        ),
        ("jobs_executed".to_string(), counter("jobs_executed")),
        ("jobs_completed".to_string(), counter("jobs_completed")),
        ("jobs_failed".to_string(), counter("jobs_failed")),
        ("jobs_retried".to_string(), counter("jobs_retried")),
        ("jobs_panicked".to_string(), counter("jobs_panicked")),
        ("jobs_shed".to_string(), counter("jobs_shed")),
        ("jobs_deadline_expired".to_string(), counter("jobs_deadline_expired")),
        (
            "failpoints_fired".to_string(),
            metrics.get("failpoints_fired").cloned().unwrap_or(Value::Object(Vec::new())),
        ),
    ]);
    let rendered = serde_json::to_string_pretty(&report).expect("render chaos report");
    match out {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).expect("write chaos report");
            eprintln!("[probe] wrote {path}");
        }
        None => {
            std::io::stdout().write_all(rendered.as_bytes()).ok();
            println!();
        }
    }
}

fn load(client: &HttpClient, requests: usize, clients: usize, out: Option<&str>) {
    let spec_json = quick_fig1b_spec().to_json();
    submit_and_wait(client, &spec_json); // ensure the cache-hit path is hot

    let per_client = requests.div_ceil(clients);
    let total = per_client * clients;
    let started = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let client = client.clone();
                let spec_json = &spec_json;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let t0 = Instant::now();
                        let reply = client.post_json("/v1/specs", spec_json).expect("cache-hit submit");
                        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
                        if reply.status != 200 {
                            eprintln!("[probe] FAIL: expected 200 cache hit, got {}", reply.status);
                            std::process::exit(1);
                        }
                        samples.push(elapsed);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let pct = |p: f64| -> f64 {
        let idx = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    let specs_per_sec = total as f64 / wall;
    let (p50, p99, max) = (pct(50.0), pct(99.0), latencies[latencies.len() - 1]);
    eprintln!(
        "[probe] load: {total} cache-hit submissions over {clients} client(s) in {wall:.2}s \
         -> {specs_per_sec:.0} specs/sec, p50 {p50:.2}ms, p99 {p99:.2}ms, max {max:.2}ms"
    );

    let num = |n: f64| Value::Number((n * 1000.0).round() / 1000.0);
    let report = Value::Object(vec![
        ("bench".to_string(), Value::String("ftclipd_cache_hit".to_string())),
        ("requests".to_string(), Value::Number(total as f64)),
        ("clients".to_string(), Value::Number(clients as f64)),
        ("wall_seconds".to_string(), num(wall)),
        ("specs_per_sec".to_string(), num(specs_per_sec)),
        ("p50_ms".to_string(), num(p50)),
        ("p99_ms".to_string(), num(p99)),
        ("max_ms".to_string(), num(max)),
    ]);
    let rendered = serde_json::to_string_pretty(&report).expect("render bench report");
    match out {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).expect("write bench report");
            eprintln!("[probe] wrote {path}");
        }
        None => {
            std::io::stdout().write_all(rendered.as_bytes()).ok();
            println!();
        }
    }
}
