//! `ftclipd` — the FT-ClipAct campaign service.
//!
//! ```text
//! ftclipd [--addr HOST:PORT] [--state DIR] [--workers N] [--threads N]
//!         [--cache DIR] [--no-cache] [--assets DIR] [--fresh]
//!         [--keep-jobs N] [--admin-token TOKEN] [--max-queue N]
//!         [--deadline-secs N] [--retries N]
//! ```
//!
//! Boots the HTTP service over a persistent state directory, resuming any
//! unfinished jobs found there (unless `--fresh`), and runs until
//! `POST /v1/admin/shutdown`. When `--admin-token` (or the
//! `FTCLIP_ADMIN_TOKEN` environment variable) is set, every `/v1/admin/*`
//! request must carry `Authorization: Bearer <token>` or it is rejected
//! with 401. See `docs/API.md` for the endpoints.
//!
//! Robustness knobs (flag overrides the matching environment variable):
//!
//! * `--max-queue` / `FTCLIP_MAX_QUEUE` — queued-job cap; beyond it,
//!   submissions are shed with `503 + Retry-After`.
//! * `--deadline-secs` / `FTCLIP_DEADLINE_SECS` — default wall-clock job
//!   deadline (`?deadline_s=` on a submission overrides it).
//! * `--retries` / `FTCLIP_RETRIES` — supervised retries before a
//!   panicking job is marked failed.
//! * `FTCLIP_FAILPOINTS` — arms the deterministic fault-injection
//!   harness (chaos testing only; see `docs/ARCHITECTURE.md`).

use std::path::PathBuf;

use ftclip_serve::{ServeConfig, Server};

const USAGE: &str = "usage: ftclipd [--addr HOST:PORT] [--state DIR] [--workers N] [--threads N] \
                     [--cache DIR] [--no-cache] [--assets DIR] [--fresh] [--keep-jobs N] \
                     [--admin-token TOKEN] [--max-queue N] [--deadline-secs N] [--retries N]";

/// A command-line error: the reason and the usage on stderr, exit 2.
fn usage(reason: &str) -> ! {
    eprintln!("{reason}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// `--help`: the usage on stdout, exit 0.
fn help() -> ! {
    println!("ftclipd: serve FT-ClipAct campaigns over HTTP");
    println!("{USAGE}");
    std::process::exit(0)
}

fn parse_config() -> ServeConfig {
    let mut config = ServeConfig::new("results/ftclipd");
    config.addr = "127.0.0.1:7878".to_string();
    let mut explicit_cache: Option<Option<PathBuf>> = None;
    let mut explicit_assets: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| usage(&format!("flag {flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--state" => {
                let state: PathBuf = value("--state").into();
                // the default cache/assets follow the state dir unless
                // overridden explicitly below
                config.settings.cache_root = Some(state.join("cache"));
                config.settings.assets_dir = state.join("assets");
                config.state_dir = state;
            }
            "--workers" => {
                config.workers = value("--workers").parse().unwrap_or_else(|_| usage("bad --workers"))
            }
            "--threads" => {
                config.threads = value("--threads").parse().unwrap_or_else(|_| usage("bad --threads"))
            }
            "--cache" => explicit_cache = Some(Some(value("--cache").into())),
            "--no-cache" => explicit_cache = Some(None),
            "--assets" => explicit_assets = Some(value("--assets").into()),
            "--fresh" => config.resume = false,
            "--keep-jobs" => {
                config.keep_jobs =
                    Some(value("--keep-jobs").parse().unwrap_or_else(|_| usage("bad --keep-jobs")))
            }
            "--admin-token" => config.admin_token = Some(value("--admin-token")),
            "--max-queue" => {
                config.max_queue =
                    Some(value("--max-queue").parse().unwrap_or_else(|_| usage("bad --max-queue")))
            }
            "--deadline-secs" => {
                let secs: u64 = value("--deadline-secs")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --deadline-secs"));
                config.default_deadline = (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--retries" => {
                config.max_retries =
                    Some(value("--retries").parse().unwrap_or_else(|_| usage("bad --retries")))
            }
            "--help" | "-h" => help(),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if let Some(cache) = explicit_cache {
        config.settings.cache_root = cache;
    }
    if let Some(assets) = explicit_assets {
        config.settings.assets_dir = assets;
    }
    config
}

fn main() {
    if let Ok(spec) = std::env::var("FTCLIP_FAILPOINTS") {
        if !spec.is_empty() {
            match ftclip_core::failpoint::configure(&spec) {
                Ok(()) => eprintln!("[ftclipd] FAULT INJECTION ARMED: {spec}"),
                Err(e) => {
                    eprintln!("[ftclipd] bad FTCLIP_FAILPOINTS: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    let config = parse_config();
    let state = config.state_dir.clone();
    let workers = config.workers;
    let threads = config.threads;
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("[ftclipd] failed to start: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[ftclipd] listening on http://{} (state {}, {} worker(s) / {} thread(s))",
        server.addr(),
        state.display(),
        workers,
        threads
    );
    server.join();
    eprintln!("[ftclipd] shut down");
}
