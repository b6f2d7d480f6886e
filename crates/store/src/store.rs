//! The on-disk campaign result store.
//!
//! Layout under the cache root (default `results/cache/`):
//!
//! ```text
//! results/cache/
//!   <32-hex cell key>/          one directory per campaign scope
//!     manifest.txt              the fingerprint fields, human-readable
//!     cells.csv                 append-only: one line per completed cell
//!     clean.txt                 IEEE-754 bits of the clean accuracy
//! ```
//!
//! `cells.csv` is append-only, crash-tolerant and corruption-tolerant: every
//! record carries a CRC-32 of its payload, and a session opened on a damaged
//! file *quarantines* unreadable lines (truncated tails, merged torn writes,
//! bit rot that still parses) into `cells.quarantine`, rewrites `cells.csv`
//! atomically with only the verified records, and lets the campaign
//! recompute the quarantined cells — results are deterministic per key, so
//! recovery is bit-identical to a run that never saw the damage. Duplicate
//! cells (two workers racing across processes) are harmless for the same
//! reason — the first parsed copy wins. Accuracies are stored as hex-encoded
//! `f64` bits, never as decimal text, so a resumed campaign replays exactly
//! the bits a fresh run would compute.
//!
//! Failpoint sites (`store.open`, `store.cell_write`, `store.marker_write`)
//! let the chaos suite inject I/O errors and short writes on every one of
//! these paths; see `ftclip_tensor::failpoint`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ftclip_tensor::failpoint;

use ftclip_fault::{CampaignCache, RunRecord};

use crate::Fingerprint;

/// Name of the append-only per-cell file inside a session directory.
pub const CELLS_FILE: &str = "cells.csv";
/// Name of the clean-accuracy file inside a session directory.
pub const CLEAN_FILE: &str = "clean.txt";
/// Name of the human-readable fingerprint manifest.
pub const MANIFEST_FILE: &str = "manifest.txt";
/// Where a session banishes unreadable `cells.csv` lines on open.
pub const QUARANTINE_FILE: &str = "cells.quarantine";

const CELLS_HEADER: &str = "rate_index,repetition,fault_count,accuracy_bits,crc32";
/// Pre-checksum header; files written before the CRC column still resume.
const CELLS_HEADER_V1: &str = "rate_index,repetition,fault_count,accuracy_bits";

/// Writes `contents` to `path` via a sibling temp file and an atomic rename,
/// so readers (including a future boot of this process) see either the old
/// contents or the new — never a half-written file. Terminal job markers and
/// the clean-accuracy record go through here.
///
/// Hosts the `store.marker_write` failpoint: an injected short write renames
/// *truncated* contents into place and then reports the error, simulating
/// the torn-marker crash the boot-time validators must survive.
///
/// # Errors
///
/// Returns any filesystem error (the temp file is not cleaned up on rename
/// failure; orphaned `*.tmp` files are ignored by every reader).
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let n = failpoint::write_len("store.marker_write", contents.len())?;
    let file_name = path.file_name().map(|f| f.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    std::fs::write(&tmp, &contents[..n])?;
    std::fs::rename(&tmp, path)?;
    if n != contents.len() {
        return Err(std::io::Error::other("failpoint store.marker_write: injected short write"));
    }
    Ok(())
}

/// A root directory holding one session directory per campaign fingerprint.
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// A store rooted at `root` (created lazily on first session).
    pub fn new<P: Into<PathBuf>>(root: P) -> Self {
        ResultStore { root: root.into() }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Resolves the store from the `FTCLIP_CACHE` environment variable:
    /// unset → `Some(store at default_root)`; `0`, `off`, `false` or the
    /// empty string → `None` (caching disabled); anything else → that path.
    pub fn from_env<P: Into<PathBuf>>(default_root: P) -> Option<ResultStore> {
        resolve_cache_root(std::env::var("FTCLIP_CACHE").ok().as_deref(), default_root.into())
            .map(ResultStore::new)
    }

    /// Opens (or creates) the session addressed by `fingerprint`, loading
    /// every completed cell already on disk.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn session(&self, fingerprint: &Fingerprint) -> std::io::Result<StoreSession> {
        StoreSession::open(self.root.join(fingerprint.key().to_hex()), fingerprint)
    }

    /// Lists every session key under the root, sorted — the store's
    /// content-address catalogue (directory names that are not 32-hex keys
    /// are ignored). A missing root is an empty store, not an error.
    pub fn sessions(&self) -> Vec<crate::CellKey> {
        let mut keys: Vec<crate::CellKey> = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .filter(|e| e.path().is_dir())
                .filter_map(|e| crate::CellKey::from_hex(&e.file_name().to_string_lossy()))
                .collect(),
            Err(_) => Vec::new(),
        };
        keys.sort();
        keys
    }

    /// `true` when a session directory for `key` exists (its manifest is on
    /// disk) — the ETag-style existence probe: no session is opened and no
    /// files are created.
    pub fn contains(&self, key: crate::CellKey) -> bool {
        self.root.join(key.to_hex()).join(MANIFEST_FILE).is_file()
    }

    /// The human-readable fingerprint manifest of the session addressed by
    /// `key`, or `None` when no such session exists.
    pub fn manifest(&self, key: crate::CellKey) -> Option<String> {
        std::fs::read_to_string(self.root.join(key.to_hex()).join(MANIFEST_FILE)).ok()
    }

    /// A read-only summary of the session addressed by `key` (cell count
    /// and clean-accuracy presence), or `None` when no such session exists.
    /// Unlike [`ResultStore::session`] this never creates directories or
    /// opens an append writer, so it is safe to call while another process
    /// owns the session.
    pub fn summary(&self, key: crate::CellKey) -> Option<SessionSummary> {
        let dir = self.root.join(key.to_hex());
        if !dir.join(MANIFEST_FILE).is_file() {
            return None;
        }
        let cells = std::fs::read_to_string(dir.join(CELLS_FILE))
            .map(|text| text.lines().filter(|l| parse_cell_line(l).is_some()).count())
            .unwrap_or(0);
        let has_clean = std::fs::read_to_string(dir.join(CLEAN_FILE))
            .ok()
            .is_some_and(|s| parse_clean_bits(&s).is_some());
        Some(SessionSummary { key, cells, has_clean })
    }
}

/// What [`ResultStore::summary`] reports about one session directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSummary {
    /// The session's content-address (its directory name).
    pub key: crate::CellKey,
    /// Number of well-formed cells in `cells.csv`.
    pub cells: usize,
    /// Whether a parseable clean-accuracy record exists.
    pub has_clean: bool,
}

/// `FTCLIP_CACHE` interpretation, separated from the process environment so
/// it is unit-testable.
pub fn resolve_cache_root(env_value: Option<&str>, default_root: PathBuf) -> Option<PathBuf> {
    match env_value {
        None => Some(default_root),
        Some(v) => {
            let v = v.trim();
            if v.is_empty()
                || v.eq_ignore_ascii_case("0")
                || v.eq_ignore_ascii_case("off")
                || v.eq_ignore_ascii_case("false")
            {
                None
            } else {
                Some(PathBuf::from(v))
            }
        }
    }
}

struct SessionState {
    cells: HashMap<(usize, usize), RunRecord>,
    writer: BufWriter<File>,
    clean_bits: Option<u64>,
    /// Set on the first failed write: the session stops persisting (memory
    /// still serves the running campaign) instead of panicking mid-grid.
    write_failed: bool,
}

/// One campaign's slice of the store: an open, append-only cell cache that
/// plugs into the campaign executor as a [`CampaignCache`].
///
/// All methods take `&self`; internal state is mutex-guarded so the parallel
/// executor's workers can record cells concurrently. The on-disk *order* of
/// cells therefore depends on scheduling — but order carries no meaning:
/// cells are keyed by `(rate_index, repetition)` and results are
/// deterministic per key, which is what makes resume bit-identical.
///
/// Write failures (disk full, cache directory deleted mid-run) never panic:
/// the session logs once, stops persisting, and keeps serving cells from
/// memory — the campaign degrades to an uncached run instead of losing its
/// in-flight results.
pub struct StoreSession {
    dir: PathBuf,
    state: Mutex<SessionState>,
}

impl std::fmt::Debug for StoreSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSession")
            .field("dir", &self.dir)
            .field("cached_cells", &self.cached_cells())
            .finish()
    }
}

fn lock_state<'a>(state: &'a Mutex<SessionState>) -> MutexGuard<'a, SessionState> {
    // a panicking campaign worker (supervised by the service) may poison the
    // lock; the map/writer state is consistent at every await-free step, so
    // recovery just takes the guard
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl StoreSession {
    fn open(dir: PathBuf, fingerprint: &Fingerprint) -> std::io::Result<StoreSession> {
        failpoint::check_io("store.open")?;
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST_FILE);
        if !manifest.exists() {
            std::fs::write(&manifest, fingerprint.manifest())?;
        }

        let cells_path = dir.join(CELLS_FILE);
        let mut cells = HashMap::new();
        let mut valid_lines: Vec<&str> = Vec::new();
        let mut corrupt_lines: Vec<&str> = Vec::new();
        let existing =
            if cells_path.exists() { std::fs::read_to_string(&cells_path)? } else { String::new() };
        for line in existing.lines() {
            if line.is_empty() || line == CELLS_HEADER || line == CELLS_HEADER_V1 {
                continue;
            }
            match parse_cell_line(line) {
                Some(rec) => {
                    cells.entry((rec.rate_index, rec.repetition)).or_insert(rec);
                    valid_lines.push(line);
                }
                None => corrupt_lines.push(line),
            }
        }
        if !corrupt_lines.is_empty() {
            // quarantine-and-recompute: move the unreadable lines aside for
            // post-mortems, rewrite cells.csv atomically with only verified
            // records, and let the campaign recompute the missing cells —
            // deterministically, so recovery is bit-identical
            let mut quarantined = String::new();
            for line in &corrupt_lines {
                quarantined.push_str(line);
                quarantined.push('\n');
            }
            let mut q = OpenOptions::new().create(true).append(true).open(dir.join(QUARANTINE_FILE))?;
            q.write_all(quarantined.as_bytes())?;
            let mut rewritten = format!("{CELLS_HEADER}\n");
            for line in &valid_lines {
                rewritten.push_str(line);
                rewritten.push('\n');
            }
            let tmp = dir.join(format!("{CELLS_FILE}.tmp"));
            std::fs::write(&tmp, rewritten)?;
            std::fs::rename(&tmp, &cells_path)?;
            eprintln!(
                "[store] quarantined {} unreadable cell line(s) in {} (kept {}); they will be recomputed",
                corrupt_lines.len(),
                cells_path.display(),
                valid_lines.len()
            );
        }
        let mut writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(&cells_path)?);
        if existing.is_empty() {
            writeln!(writer, "{CELLS_HEADER}")?;
            writer.flush()?;
        } else if corrupt_lines.is_empty() && !existing.ends_with('\n') {
            // a complete tail record missing only its newline: terminate it
            // so the next record starts on its own line (a truncated or
            // garbled tail takes the quarantine path above instead)
            writeln!(writer)?;
            writer.flush()?;
        }

        let clean_bits = std::fs::read_to_string(dir.join(CLEAN_FILE))
            .ok()
            .and_then(|s| parse_clean_bits(&s));

        Ok(StoreSession {
            dir,
            state: Mutex::new(SessionState { cells, writer, clean_bits, write_failed: false }),
        })
    }

    /// The session directory (`<root>/<key hex>/`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cells currently cached (on disk + recorded this session).
    pub fn cached_cells(&self) -> usize {
        lock_state(&self.state).cells.len()
    }
}

impl CampaignCache for StoreSession {
    fn lookup(&self, rate_index: usize, repetition: usize) -> Option<RunRecord> {
        lock_state(&self.state).cells.get(&(rate_index, repetition)).copied()
    }

    fn record(&self, record: &RunRecord) {
        let mut state = lock_state(&self.state);
        if !state.write_failed {
            let payload = format!(
                "{},{},{},{:016x}",
                record.rate_index,
                record.repetition,
                record.fault_count,
                record.accuracy.to_bits()
            );
            let line = format!("{payload},{:08x}\n", crate::crc::crc32(payload.as_bytes()));
            // flush per cell: cells are expensive (a full evaluation each),
            // so a crash must lose at most the line being written. The
            // failpoint models exactly that loss: a short write leaves a
            // torn tail on disk for the next open to quarantine.
            let write = failpoint::write_len("store.cell_write", line.len()).and_then(|n| {
                state.writer.write_all(&line.as_bytes()[..n])?;
                state.writer.flush()
            });
            if let Err(e) = write {
                // a cache failure degrades the run to uncached — it must
                // never take down a campaign that is mid-grid
                state.write_failed = true;
                eprintln!(
                    "[store] cell write to {} failed ({e}); continuing without persistence",
                    self.dir.display()
                );
            }
        }
        // memory always keeps the cell so the running campaign still reuses it
        state.cells.insert((record.rate_index, record.repetition), *record);
    }

    fn clean_accuracy(&self) -> Option<f64> {
        lock_state(&self.state).clean_bits.map(f64::from_bits)
    }

    fn record_clean(&self, accuracy: f64) {
        let mut state = lock_state(&self.state);
        if !state.write_failed {
            let contents = format!("{:016x}\n", accuracy.to_bits());
            if let Err(e) = write_atomic(&self.dir.join(CLEAN_FILE), contents.as_bytes()) {
                state.write_failed = true;
                eprintln!(
                    "[store] clean-accuracy write to {} failed ({e}); continuing without persistence",
                    self.dir.display()
                );
            }
        }
        state.clean_bits = Some(accuracy.to_bits());
    }
}

/// Parses a `clean.txt` record: exactly 16 hex digits (plus surrounding
/// whitespace). The length requirement is what makes a torn marker
/// *detectable* — a truncated hex prefix would otherwise parse as a smaller,
/// wrong bit pattern.
fn parse_clean_bits(contents: &str) -> Option<u64> {
    let t = contents.trim();
    if t.len() != 16 {
        return None;
    }
    u64::from_str_radix(t, 16).ok()
}

/// Parses one `cells.csv` line; `None` for malformed lines, truncated
/// (interrupted-write) tails and records whose CRC-32 does not match.
/// Four-field lines from pre-checksum stores are still accepted.
fn parse_cell_line(line: &str) -> Option<RunRecord> {
    let fields: Vec<&str> = line.split(',').collect();
    let (payload_fields, crc_field) = match fields.len() {
        4 => (&fields[..4], None),
        5 => (&fields[..4], Some(fields[4])),
        _ => return None,
    };
    if let Some(crc_hex) = crc_field {
        if crc_hex.len() != 8 {
            return None;
        }
        let stored = u32::from_str_radix(crc_hex, 16).ok()?;
        let payload_len = line.len() - crc_hex.len() - 1;
        if crate::crc::crc32(&line.as_bytes()[..payload_len]) != stored {
            return None;
        }
    }
    let rate_index = payload_fields[0].parse().ok()?;
    let repetition = payload_fields[1].parse().ok()?;
    let fault_count = payload_fields[2].parse().ok()?;
    let bits_field = payload_fields[3];
    if bits_field.len() != 16 {
        return None;
    }
    let accuracy = f64::from_bits(u64::from_str_radix(bits_field, 16).ok()?);
    Some(RunRecord { rate_index, repetition, fault_count, accuracy })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ftclip-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(seed: u64) -> Fingerprint {
        Fingerprint::new("test").uint("seed", seed)
    }

    fn rec(i: usize, r: usize, acc: f64) -> RunRecord {
        RunRecord {
            rate_index: i,
            repetition: r,
            fault_count: i + r,
            accuracy: acc,
        }
    }

    #[test]
    fn cells_persist_across_sessions() {
        let root = tmp_root("persist");
        let store = ResultStore::new(&root);
        {
            let s = store.session(&fp(1)).unwrap();
            assert_eq!(s.cached_cells(), 0);
            s.record(&rec(0, 0, 0.5));
            s.record(&rec(1, 2, 0.25));
            s.record_clean(0.75);
        }
        let s = store.session(&fp(1)).unwrap();
        assert_eq!(s.cached_cells(), 2);
        assert_eq!(s.lookup(0, 0), Some(rec(0, 0, 0.5)));
        assert_eq!(s.lookup(1, 2), Some(rec(1, 2, 0.25)));
        assert_eq!(s.lookup(9, 9), None);
        assert_eq!(s.clean_accuracy().map(f64::to_bits), Some(0.75f64.to_bits()));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn different_fingerprints_do_not_share_cells() {
        let root = tmp_root("distinct");
        let store = ResultStore::new(&root);
        store.session(&fp(1)).unwrap().record(&rec(0, 0, 0.5));
        assert_eq!(store.session(&fp(2)).unwrap().lookup(0, 0), None);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn accuracy_bits_roundtrip_exactly() {
        let root = tmp_root("bits");
        let store = ResultStore::new(&root);
        // values with no short decimal representation must survive bitwise
        let tricky = [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 0.728_515_625];
        {
            let s = store.session(&fp(3)).unwrap();
            for (i, &acc) in tricky.iter().enumerate() {
                s.record(&rec(i, 0, acc));
            }
        }
        let s = store.session(&fp(3)).unwrap();
        for (i, &acc) in tricky.iter().enumerate() {
            assert_eq!(s.lookup(i, 0).unwrap().accuracy.to_bits(), acc.to_bits());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn truncated_and_malformed_lines_are_ignored() {
        let root = tmp_root("truncated");
        let store = ResultStore::new(&root);
        let dir = {
            let s = store.session(&fp(4)).unwrap();
            s.record(&rec(0, 0, 0.5));
            s.record(&rec(0, 1, 0.6));
            s.dir().to_path_buf()
        };
        // simulate an interrupt mid-append plus stray garbage
        let path = dir.join(CELLS_FILE);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("not,a,cell\n0,2,7,3fe0");
        std::fs::write(&path, content).unwrap();

        let s = store.session(&fp(4)).unwrap();
        assert_eq!(s.cached_cells(), 2);
        assert_eq!(s.lookup(0, 2), None, "truncated tail line must not resurrect a cell");
        // the reopened session still appends cleanly
        s.record(&rec(0, 2, 0.7));
        drop(s);
        assert_eq!(store.session(&fp(4)).unwrap().cached_cells(), 3);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_crc_lines_are_quarantined_and_recomputable() {
        let root = tmp_root("crc-quarantine");
        let store = ResultStore::new(&root);
        let dir = {
            let s = store.session(&fp(7)).unwrap();
            s.record(&rec(0, 0, 0.5));
            s.record(&rec(0, 1, 0.6));
            s.dir().to_path_buf()
        };
        // flip one payload hex digit in the second record; the field count
        // and shape stay valid, so only the CRC can catch it
        let path = dir.join(CELLS_FILE);
        let content = std::fs::read_to_string(&path).unwrap();
        let victim = content.lines().nth(2).unwrap().to_string();
        let corrupted = victim.replacen(",1,", ",9,", 1);
        assert_ne!(victim, corrupted);
        std::fs::write(&path, content.replace(&victim, &corrupted)).unwrap();

        let s = store.session(&fp(7)).unwrap();
        assert_eq!(s.cached_cells(), 1, "the corrupted record must not be served");
        assert_eq!(s.lookup(0, 0), Some(rec(0, 0, 0.5)));
        assert_eq!(s.lookup(0, 1), None, "corrupt cell is recomputed, not trusted");
        let quarantine = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(quarantine, format!("{corrupted}\n"));
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert!(!rewritten.contains(&corrupted), "cells.csv must be scrubbed");
        assert!(rewritten.starts_with(CELLS_HEADER));
        // "recompute" the cell and confirm the file round-trips cleanly
        s.record(&rec(0, 1, 0.6));
        drop(s);
        let s = store.session(&fp(7)).unwrap();
        assert_eq!(s.cached_cells(), 2);
        assert!(!dir.join(format!("{CELLS_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn legacy_four_field_lines_still_resume() {
        let root = tmp_root("legacy");
        let store = ResultStore::new(&root);
        let dir = store.session(&fp(8)).unwrap().dir().to_path_buf();
        let legacy = format!("{CELLS_HEADER_V1}\n0,0,3,{:016x}\n", 0.5f64.to_bits());
        std::fs::write(dir.join(CELLS_FILE), legacy).unwrap();

        let s = store.session(&fp(8)).unwrap();
        assert_eq!(
            s.lookup(0, 0),
            Some(RunRecord { rate_index: 0, repetition: 0, fault_count: 3, accuracy: 0.5 })
        );
        assert!(!dir.join(QUARANTINE_FILE).exists(), "a legacy file is not corruption");
        // new records append in the checksummed format alongside legacy ones
        s.record(&rec(0, 1, 0.25));
        drop(s);
        assert_eq!(store.session(&fp(8)).unwrap().cached_cells(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn atomic_writes_replace_rather_than_append() {
        let root = tmp_root("atomic");
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join("marker.json");
        write_atomic(&path, b"{\"v\":1}").unwrap();
        write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        assert!(!root.join("marker.json.tmp").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn write_failure_degrades_instead_of_panicking() {
        let root = tmp_root("degrade");
        let store = ResultStore::new(&root);
        let s = store.session(&fp(6)).unwrap();
        // yank the cache out from under the open session: clean.txt writes
        // (fresh fs::write) must fail, yet nothing may panic
        std::fs::remove_dir_all(&root).unwrap();
        s.record_clean(0.5);
        s.record(&rec(0, 0, 0.25));
        // memory still serves the running campaign
        assert_eq!(s.clean_accuracy().map(f64::to_bits), Some(0.5f64.to_bits()));
        assert_eq!(s.lookup(0, 0), Some(rec(0, 0, 0.25)));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn env_toggle_resolution() {
        let default = PathBuf::from("results/cache");
        assert_eq!(resolve_cache_root(None, default.clone()), Some(default.clone()));
        for off in ["0", "off", "OFF", "false", "", "  "] {
            assert_eq!(resolve_cache_root(Some(off), default.clone()), None, "{off:?}");
        }
        assert_eq!(resolve_cache_root(Some("/tmp/x"), default), Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn listing_and_summaries_are_read_only() {
        let root = tmp_root("listing");
        let store = ResultStore::new(&root);
        assert!(store.sessions().is_empty(), "missing root lists as empty");

        let key1 = fp(1).key();
        let key2 = fp(2).key();
        {
            let s = store.session(&fp(1)).unwrap();
            s.record(&rec(0, 0, 0.5));
            s.record(&rec(0, 1, 0.25));
            s.record_clean(0.75);
        }
        store.session(&fp(2)).unwrap(); // opened but empty
        std::fs::create_dir_all(root.join("not-a-key")).unwrap();

        let mut expected = vec![key1, key2];
        expected.sort();
        assert_eq!(store.sessions(), expected, "non-key directories are ignored");

        assert!(store.contains(key1));
        assert!(!store.contains(crate::CellKey(0xdead_beef)));
        assert!(store.manifest(key1).unwrap().contains("seed = 1"));

        let s1 = store.summary(key1).unwrap();
        assert_eq!((s1.cells, s1.has_clean), (2, true));
        let s2 = store.summary(key2).unwrap();
        assert_eq!((s2.cells, s2.has_clean), (0, false));
        assert!(store.summary(crate::CellKey(7)).is_none());

        // summaries must not have created files in the probed-but-missing key
        assert!(!root.join(crate::CellKey(7).to_hex()).exists());
        std::fs::remove_dir_all(&root).ok();
    }

    /// The adaptive-resume contract end to end on disk: a fixed-reps run
    /// populates a session; an adaptive run over the *same fingerprint*
    /// replays the stored prefix and only samples the deficit.
    #[test]
    fn adaptive_run_extends_a_fixed_reps_session_on_disk() {
        use ftclip_fault::{Campaign, CampaignConfig, FaultModel, InjectionTarget, NoCache, StoppingRule};
        use ftclip_nn::{Layer, Sequential};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let root = tmp_root("adaptive-extend");
        let store = ResultStore::new(&root);
        let net = Sequential::new(vec![Layer::linear(6, 3, 9)]);
        let eval = |n: &Sequential| {
            let y = n.execute(
                &ftclip_tensor::Tensor::ones(&[1, 6]),
                ftclip_nn::Span::full(),
                &mut ftclip_nn::Scratch::new(),
            );
            y.iter()
                .map(|v| if v.is_finite() { (*v as f64).abs().min(1.0) } else { 0.0 })
                .sum::<f64>()
                / y.len() as f64
        };
        let fixed = CampaignConfig {
            fault_rates: vec![1e-2, 1e-1],
            repetitions: 3,
            seed: 19,
            model: FaultModel::BitFlip,
            target: InjectionTarget::AllWeights,
            stopping: None,
        };
        // the stopping rule is NOT part of the fingerprint: both configs
        // address the same session directory
        let adaptive = CampaignConfig {
            stopping: Some(StoppingRule { target_half_width: 1e-12, min_reps: 2, max_reps: 5 }),
            ..fixed.clone()
        };
        let fp = crate::campaign_fingerprint(&net, &fixed);
        assert_eq!(fp.key(), crate::campaign_fingerprint(&net, &adaptive).key());

        {
            let session = store.session(&fp).unwrap();
            Campaign::new(fixed.clone()).run(&net, ftclip_tensor::num_threads(), &session, eval);
            assert_eq!(session.cached_cells(), 6);
        }

        // reopen from disk; the unreachable target drives every rate to
        // max_reps = 5, so exactly (5 − 3) × 2 fresh cells evaluate
        let session = store.session(&fp).unwrap();
        let evals = AtomicUsize::new(0);
        let counting = |n: &Sequential| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval(n)
        };
        let extended = Campaign::new(adaptive).run(&net, ftclip_tensor::num_threads(), &session, counting);
        assert_eq!(evals.load(Ordering::Relaxed), 4, "stored reps replay; only the deficit runs");
        assert_eq!(session.cached_cells(), 10);

        // and the extension is bit-identical to the exhaustive run
        let exhaustive =
            Campaign::new(CampaignConfig { repetitions: 5, ..fixed }).run(&net, 1, &NoCache, eval);
        let bits = |a: &[Vec<f64>]| -> Vec<Vec<u64>> {
            a.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&extended.accuracies), bits(&exhaustive.accuracies));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_is_written_once() {
        let root = tmp_root("manifest");
        let store = ResultStore::new(&root);
        let dir = store.session(&fp(5)).unwrap().dir().to_path_buf();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert!(manifest.contains("seed = 5"));
        std::fs::remove_dir_all(&root).ok();
    }
}
