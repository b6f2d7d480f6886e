//! Calibration utility: dataset difficulty sweep (its pick is the `DataSpec`
//! default; see `docs/ARCHITECTURE.md#rate-scaling-and-the-synthetic-dataset`).
//!
//! Thin wrapper over the `calibrate` preset — `ftclip run calibrate` is
//! the canonical entry point (same flags, same output).

fn main() {
    ftclip_bench::cli::legacy_main("calibrate")
}
