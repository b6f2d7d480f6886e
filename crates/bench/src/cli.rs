//! The `ftclip` command-line driver — the crate's one entry point.
//!
//! ```text
//! ftclip list                          # catalogue of presets
//! ftclip describe <preset>             # the preset's spec as JSON
//! ftclip run <preset|spec.json>...     # run one spec or a batch
//! ftclip run --all-figs --quick        # smoke-run every figure/ablation
//! ftclip help                          # usage (also `--help`, `run --help`)
//! ```
//!
//! Every run accepts the shared flags (see [`RunSettings`]); a spec file
//! may hold one spec object or an array of specs (a batch). A help request
//! prints usage to stdout and exits 0; unknown commands, unknown flags and
//! missing arguments print usage to stderr and exit 2.

use crate::presets::{figure_presets, preset, presets};
use crate::runner::{RunOutcome, Runner};
use crate::settings::RunSettings;
use crate::spec::{ExperimentSpec, SpecError};

/// Entry point of the `ftclip` binary. Returns the process exit code.
pub fn ftclip_main(args: impl Iterator<Item = String>) -> i32 {
    let mut args = args.peekable();
    let command = match args.next() {
        Some(c) => c,
        None => return usage("missing command"),
    };
    match command.as_str() {
        "list" => list(),
        "describe" => match args.next() {
            Some(name) => describe(&name),
            None => usage("describe needs a preset name"),
        },
        "run" => run(args),
        "--help" | "-h" | "help" => help(),
        other => usage(&format!("unknown command '{other}'")),
    }
}

fn usage_text() -> String {
    format!(
        "usage:\n  ftclip list\n  ftclip describe <preset>\n  \
         ftclip run <preset|spec.json>... [--all-figs] {}",
        RunSettings::usage_flags()
    )
}

/// A usage error: the reason and the usage text on stderr, exit code 2.
fn usage(reason: &str) -> i32 {
    eprintln!("{reason}");
    eprintln!("{}", usage_text());
    2
}

/// A help request: the usage text on stdout, exit code 0.
fn help() -> i32 {
    println!("ftclip — declarative FT-ClipAct experiment driver");
    println!("{}", usage_text());
    0
}

fn list() -> i32 {
    println!("{:<24} {:<26} description", "preset", "procedure");
    for p in presets() {
        println!("{:<24} {:<26} {}", p.name, p.spec.procedure.to_string(), p.about);
    }
    println!("\nrun one with `ftclip run <preset>`; see its spec with `ftclip describe <preset>`");
    0
}

fn describe(name: &str) -> i32 {
    match preset(name) {
        Ok(p) => {
            println!("{}", describe_text(&p));
            0
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// The `ftclip describe` report: the preset header, the *resolved*
/// stopping rule and fault-rate grid (what the campaign will actually do,
/// not just the raw spec fields), then the full spec JSON.
fn describe_text(p: &crate::presets::Preset) -> String {
    use std::fmt::Write as _;
    let spec = &p.spec;
    let mut out = String::new();
    let _ = writeln!(out, "# {} — {}", p.name, p.about);
    match &spec.stopping {
        Some(rule) => {
            let _ = writeln!(
                out,
                "stopping: adaptive — stop a rate once its CI half-width ≤ {}, \
                 after {}..={} repetitions",
                rule.target_half_width, rule.min_reps, rule.max_reps
            );
        }
        None => {
            let _ = writeln!(out, "stopping: fixed — {} repetitions per rate", spec.repetitions);
        }
    }
    // the injected per-bit rates depend on the width-scaled network's
    // parameter count; building the untrained net is cheap and exact
    let (_, full_width_params) = crate::workload::arch_profile(spec.workload.arch);
    let params = spec.workload.model_spec(spec.seed).build().param_count();
    let scale = full_width_params as f64 / params as f64;
    let _ = writeln!(
        out,
        "rates: {} grid, memory-size scale ×{:.1} ({} of {} full-width params)",
        spec.rates.kind(),
        scale,
        params,
        full_width_params
    );
    for (label, injected) in spec.rates.label_rates().iter().zip(spec.rates.resolve(scale)) {
        let _ = writeln!(out, "  paper {label:.1e} → injected {injected:.3e}");
    }
    match spec.fault_model.bit_position() {
        Some(pos) => {
            let _ = writeln!(
                out,
                "fault model: {} — stratified to the '{pos}' bits of each word",
                spec.fault_model
            );
        }
        None => {
            let _ = writeln!(out, "fault model: {} — uniform over every bit", spec.fault_model);
        }
    }
    let _ = writeln!(out, "precision: {} ({}-bit weight words)", spec.precision, spec.precision.word_bits());
    let _ = write!(out, "{}", spec.to_json());
    out
}

/// Resolves one `ftclip run` positional: a preset name, or a path to a
/// JSON spec file holding one spec object or an array of specs.
fn resolve_positional(arg: &str) -> Result<Vec<ExperimentSpec>, String> {
    if std::path::Path::new(arg).extension().is_some_and(|e| e == "json") {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
        let value = serde_json::from_str(&text).map_err(|e| format!("{arg}: {e}"))?;
        let specs = match value.as_array() {
            Some(items) => items
                .iter()
                .map(ExperimentSpec::from_value)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("{arg}: {e}"))?,
            None => vec![ExperimentSpec::from_value(&value).map_err(|e| format!("{arg}: {e}"))?],
        };
        if specs.is_empty() {
            return Err(format!("{arg}: spec file holds no specs"));
        }
        Ok(specs)
    } else {
        preset(arg).map(|p| vec![p.spec]).map_err(|e| e.to_string())
    }
}

fn run(args: impl Iterator<Item = String>) -> i32 {
    let mut all_figs = false;
    let mut help_requested = false;
    let filtered: Vec<String> = args
        .filter(|a| match a.as_str() {
            "--all-figs" => {
                all_figs = true;
                false
            }
            "--help" | "-h" => {
                help_requested = true;
                false
            }
            _ => true,
        })
        .collect();
    if help_requested {
        return help();
    }
    let (settings, positionals) =
        match RunSettings::from_arg_list(filtered.into_iter(), std::env::var("FTCLIP_CACHE").ok().as_deref())
        {
            Ok(parsed) => parsed,
            Err(e) => return usage(&e),
        };

    let mut specs: Vec<ExperimentSpec> = Vec::new();
    if all_figs {
        specs.extend(figure_presets().into_iter().map(|p| p.spec));
    }
    for arg in &positionals {
        match resolve_positional(arg) {
            Ok(resolved) => specs.extend(resolved),
            Err(e) => return usage(&e),
        }
    }
    if specs.is_empty() {
        return usage("run needs at least one preset name or spec file (or --all-figs)");
    }
    let specs: Vec<ExperimentSpec> = specs.iter().map(|s| settings.apply(s)).collect();

    let runner = Runner::new(settings);
    let outcomes = if specs.len() == 1 {
        runner
            .run(&specs[0])
            .map(|o| vec![o])
            .map_err(|e| SpecError::InSpec(specs[0].name.clone(), Box::new(e)))
    } else {
        eprintln!(
            "[batch] {} experiment(s) under a {}-thread budget",
            specs.len(),
            ftclip_tensor::num_threads()
        );
        runner.run_batch(&specs)
    };
    match outcomes {
        Ok(outcomes) => report_outcomes(&outcomes),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Prints each outcome's buffered report (in batch order) and summarizes
/// failures. Returns the exit code.
fn report_outcomes(outcomes: &[RunOutcome]) -> i32 {
    let mut failed = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        if outcomes.len() > 1 {
            println!("════ [{}/{}] {} ════", i + 1, outcomes.len(), outcome.name);
        }
        print!("{}", outcome.report);
        if outcomes.len() > 1 {
            println!();
        }
        if !outcome.passed() {
            failed += 1;
        }
    }
    if outcomes.len() > 1 {
        let passed = outcomes.len() - failed;
        println!("batch done: {passed}/{} passed shape checks", outcomes.len());
    }
    if failed > 0 {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_reports_the_resolved_stopping_rule_and_rate_grid() {
        let fixed = describe_text(&preset("fig1b").unwrap());
        assert!(fixed.contains("stopping: fixed"), "{fixed}");
        assert!(fixed.contains("rates: "), "{fixed}");
        assert!(fixed.contains("→ injected"), "{fixed}");

        let adaptive = describe_text(&preset("fig1b-adaptive").unwrap());
        assert!(adaptive.contains("stopping: adaptive"), "{adaptive}");
        assert!(adaptive.contains("half-width ≤ 0.02"), "{adaptive}");
        assert!(adaptive.contains("2..=50 repetitions"), "{adaptive}");
    }

    #[test]
    fn describe_reports_the_bit_stratum_and_precision() {
        // a uniform f32 preset states both axes explicitly
        let fixed = describe_text(&preset("fig1b").unwrap());
        assert!(fixed.contains("uniform over every bit"), "{fixed}");
        assert!(fixed.contains("precision: f32 (32-bit weight words)"), "{fixed}");

        // a stratified int8 spec names the stratum and the byte encoding
        let mut p = preset("fig_bitpos").unwrap();
        p.spec.fault_model = "bit-flip@exponent".parse().unwrap();
        p.spec.precision = ftclip_quant::Precision::Int8;
        let stratified = describe_text(&p);
        assert!(stratified.contains("stratified to the 'exponent' bits"), "{stratified}");
        assert!(stratified.contains("precision: int8 (8-bit weight words)"), "{stratified}");
    }

    fn exit_code(args: &[&str]) -> i32 {
        ftclip_main(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn help_requests_exit_zero_and_usage_errors_exit_two() {
        assert_eq!(exit_code(&["--help"]), 0);
        assert_eq!(exit_code(&["help"]), 0);
        assert_eq!(exit_code(&["run", "--help"]), 0);
        assert_eq!(exit_code(&["run", "fig1b", "-h"]), 0, "help wins over a runnable spec");
        assert_eq!(exit_code(&[]), 2);
        assert_eq!(exit_code(&["run", "--bogus"]), 2);
        assert_eq!(exit_code(&["run"]), 2);
        assert_eq!(exit_code(&["frobnicate"]), 2);
        assert_eq!(exit_code(&["describe"]), 2);
    }

    #[test]
    fn every_preset_resolves_as_a_positional() {
        for p in presets() {
            let specs = resolve_positional(p.name).unwrap();
            assert_eq!(specs.len(), 1);
            assert_eq!(specs[0].name, p.spec.name);
        }
        assert!(resolve_positional("fig99").is_err());
        assert!(resolve_positional("missing.json").is_err());
    }

    #[test]
    fn spec_files_resolve_single_objects_and_arrays() {
        let dir = std::env::temp_dir().join(format!("ftclip-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let single = dir.join("one.json");
        std::fs::write(&single, r#"{"name": "one", "procedure": "model-sizes"}"#).unwrap();
        assert_eq!(resolve_positional(single.to_str().unwrap()).unwrap().len(), 1);
        let batch = dir.join("two.json");
        std::fs::write(
            &batch,
            r#"[{"name": "a", "procedure": "model-sizes"}, {"name": "b", "procedure": "architecture"}]"#,
        )
        .unwrap();
        let specs = resolve_positional(batch.to_str().unwrap()).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].name, "b");
        let empty = dir.join("empty.json");
        std::fs::write(&empty, "[]").unwrap();
        assert!(resolve_positional(empty.to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
