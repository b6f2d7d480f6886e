//! Shared run settings: the flag/environment parser of the `ftclip` driver
//! (programmatic users — `ftclipd`, examples, tests — build a
//! [`RunSettings`] directly), plus the typed result writer.
//!
//! Settings are *overrides*: a parsed [`RunSettings`] carries only what the
//! user said (`--reps 3`), and [`RunSettings::apply`] layers that onto a
//! spec's own values — so preset defaults, spec files and command-line
//! flags compose without duplicating any default.

use std::path::{Path, PathBuf};

use ftclip_core::ResultTable;
use ftclip_store::resolve_cache_root;

use crate::spec::ExperimentSpec;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast smoke-scale run: fewer repetitions, smaller evaluation subsets.
    /// Shapes still reproduce; error bars are wider.
    Small,
    /// Paper-scale run: 50 repetitions per rate (§V-B) and full test-set
    /// evaluation. Slow on CPU.
    Paper,
}

impl Scale {
    /// Default campaign repetitions for this scale.
    pub fn default_reps(self) -> usize {
        match self {
            Scale::Small => 10,
            Scale::Paper => 50,
        }
    }

    /// Default evaluation-subset size for this scale.
    pub fn default_eval_size(self) -> usize {
        match self {
            Scale::Small => 256,
            Scale::Paper => 1024,
        }
    }
}

/// Parsed command-line overrides and output/cache locations.
///
/// `None` means "the spec decides". Resolution order when applying to a
/// spec: `--scale`, then `--quick`, then the explicit `--reps` /
/// `--eval-size` / `--seed` flags (most specific wins).
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// `--scale small|paper`.
    pub scale: Option<Scale>,
    /// `--quick`: CI smoke scale (3 repetitions, 64-image eval subsets).
    pub quick: bool,
    /// `--reps N`.
    pub reps: Option<usize>,
    /// `--eval-size N`.
    pub eval_size: Option<usize>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--adaptive`: sequential sampling — stop each rate once its 95%
    /// bootstrap confidence interval is tighter than `--ci-eps`, with the
    /// spec's repetitions as the cap.
    pub adaptive: bool,
    /// `--ci-eps W`: target confidence-interval half-width for
    /// `--adaptive` (default 0.02).
    pub ci_eps: Option<f64>,
    /// `--out DIR`: output directory for CSV/JSON result files.
    pub out_dir: PathBuf,
    /// Campaign-cell cache root, or `None` when caching is disabled
    /// (`--no-cache` / `FTCLIP_CACHE=off`). Defaults to `<out_dir>/cache`.
    pub cache_root: Option<PathBuf>,
    /// Trained-model cache directory (`--assets DIR` / `FTCLIP_ASSETS`).
    pub assets_dir: PathBuf,
}

impl Default for RunSettings {
    /// Defaults honor the environment exactly like the flag parser does:
    /// `FTCLIP_CACHE` can disable or relocate the cache and `FTCLIP_ASSETS`
    /// the model zoo — so programmatic `Runner` users (examples, tests)
    /// respect the same controls as the CLI entry points.
    fn default() -> Self {
        let out_dir = PathBuf::from("results");
        RunSettings {
            scale: None,
            quick: false,
            reps: None,
            eval_size: None,
            seed: None,
            adaptive: false,
            ci_eps: None,
            cache_root: resolve_cache_root(
                std::env::var("FTCLIP_CACHE").ok().as_deref(),
                out_dir.join("cache"),
            ),
            out_dir,
            assets_dir: default_assets_dir(),
        }
    }
}

/// Model-cache directory: `$FTCLIP_ASSETS` or `assets/` relative to the
/// working directory.
pub fn default_assets_dir() -> PathBuf {
    std::env::var_os("FTCLIP_ASSETS")
        .map(Into::into)
        .unwrap_or_else(|| "assets".into())
}

impl RunSettings {
    /// Parses flags from an argument list, returning the settings and any
    /// positional (non-flag) arguments in order — the `ftclip run`
    /// subcommand treats those as preset names / spec-file paths.
    ///
    /// Cache resolution: an explicit `--cache`/`--no-cache` flag wins;
    /// otherwise `env_cache` (the `FTCLIP_CACHE` value: `off`/`0`/`false`
    /// disables, a path relocates); otherwise the default is
    /// `<out_dir>/cache`.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown flags and malformed values.
    pub fn from_arg_list(
        args: impl Iterator<Item = String>,
        env_cache: Option<&str>,
    ) -> Result<(RunSettings, Vec<String>), String> {
        let mut out = RunSettings::default();
        let mut positionals = Vec::new();
        let mut explicit_cache: Option<Option<PathBuf>> = None;
        let mut explicit_assets: Option<PathBuf> = None;
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match arg.as_str() {
                "--scale" => {
                    out.scale = Some(match value("--scale")?.as_str() {
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale '{other}'")),
                    })
                }
                "--quick" => out.quick = true,
                "--reps" => out.reps = Some(value("--reps")?.parse().map_err(|_| "bad --reps".to_string())?),
                "--eval-size" => {
                    out.eval_size =
                        Some(value("--eval-size")?.parse().map_err(|_| "bad --eval-size".to_string())?)
                }
                "--seed" => out.seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed".to_string())?),
                "--adaptive" => out.adaptive = true,
                "--ci-eps" => {
                    out.ci_eps = Some(value("--ci-eps")?.parse().map_err(|_| "bad --ci-eps".to_string())?)
                }
                "--out" => out.out_dir = PathBuf::from(value("--out")?),
                "--cache" => explicit_cache = Some(Some(PathBuf::from(value("--cache")?))),
                "--no-cache" => explicit_cache = Some(None),
                "--assets" => explicit_assets = Some(PathBuf::from(value("--assets")?)),
                flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
                positional => positionals.push(positional.to_string()),
            }
        }
        out.cache_root = match explicit_cache {
            Some(choice) => choice,
            None => resolve_cache_root(env_cache, out.out_dir.join("cache")),
        };
        if let Some(assets) = explicit_assets {
            out.assets_dir = assets;
        }
        Ok((out, positionals))
    }

    /// Layers these overrides onto `spec`: `--scale` rewrites repetitions
    /// and eval size to the scale's defaults, `--quick` to the smoke scale,
    /// and the explicit flags override both. `--seed` reseeds everything
    /// (dataset, training, campaigns).
    pub fn apply(&self, spec: &ExperimentSpec) -> ExperimentSpec {
        let mut spec = spec.clone();
        if let Some(scale) = self.scale {
            spec.repetitions = scale.default_reps();
            spec.eval_size = scale.default_eval_size();
        }
        if self.quick {
            spec.repetitions = 3;
            spec.eval_size = 64;
        }
        if let Some(reps) = self.reps {
            spec.repetitions = reps;
        }
        if let Some(eval_size) = self.eval_size {
            spec.eval_size = eval_size;
        }
        if let Some(seed) = self.seed {
            spec.seed = seed;
        }
        // layered last so the cap tracks whatever repetition count the
        // scale/quick/--reps resolution above settled on
        if self.adaptive || self.ci_eps.is_some() {
            spec.stopping = Some(ftclip_fault::StoppingRule {
                target_half_width: self.ci_eps.unwrap_or(0.02),
                min_reps: 2,
                max_reps: spec.repetitions,
            });
        }
        spec
    }

    /// The typed result writer targeting this run's output directory.
    pub fn writer(&self) -> ResultWriter {
        ResultWriter::new(&self.out_dir)
    }

    /// The flag part of the `ftclip run` usage line.
    pub fn usage_flags() -> &'static str {
        "[--scale small|paper] [--quick] [--reps N] [--eval-size N] [--seed N] \
         [--adaptive] [--ci-eps W] [--out DIR] [--cache DIR] [--no-cache] [--assets DIR]"
    }
}

/// Writes [`ResultTable`]s as paired `<name>.csv` + `<name>.json` files —
/// the single emission path for every experiment.
///
/// # Example
///
/// ```no_run
/// use ftclip_bench::ResultWriter;
/// use ftclip_core::ResultTable;
///
/// let mut table = ResultTable::new("fig", &["rate", "accuracy"]);
/// table.row([1e-7.into(), 0.72f64.into()]);
/// ResultWriter::new("results").write(&table).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ResultWriter {
    out_dir: PathBuf,
}

impl ResultWriter {
    /// A writer targeting `out_dir` (created on first write).
    pub fn new<P: Into<PathBuf>>(out_dir: P) -> Self {
        ResultWriter { out_dir: out_dir.into() }
    }

    /// The output directory.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// Writes `<name>.csv` and `<name>.json` and returns the CSV path.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn write(&self, table: &ResultTable) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.out_dir)?;
        let csv_path = self.out_dir.join(format!("{}.csv", table.name()));
        std::fs::write(&csv_path, table.to_csv())?;
        std::fs::write(self.out_dir.join(format!("{}.json", table.name())), table.to_json())?;
        Ok(csv_path)
    }

    /// Writes the table and logs the CSV path.
    ///
    /// # Panics
    ///
    /// Panics on filesystem errors: losing an experiment's results is
    /// unrecoverable for a figure run.
    pub fn emit(&self, table: &ResultTable) -> PathBuf {
        let path = self.write(table).expect("write result files");
        eprintln!("[results] wrote {} (+ .json)", path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentSpec, Procedure};

    fn parse(args: &[&str], env_cache: Option<&str>) -> RunSettings {
        let (settings, positionals) =
            RunSettings::from_arg_list(args.iter().map(|s| s.to_string()), env_cache).unwrap();
        assert!(positionals.is_empty(), "{positionals:?}");
        settings
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::builder(Procedure::CampaignSummary, "t").build().unwrap()
    }

    #[test]
    fn scale_rewrites_spec_defaults() {
        let applied = parse(&["--scale", "paper"], None).apply(&spec());
        assert_eq!(applied.repetitions, 50);
        assert_eq!(applied.eval_size, 1024);
    }

    #[test]
    fn explicit_flags_override_scale_and_quick() {
        let applied =
            parse(&["--scale", "paper", "--quick", "--reps", "7", "--eval-size", "33", "--seed", "9"], None)
                .apply(&spec());
        assert_eq!(applied.repetitions, 7);
        assert_eq!(applied.eval_size, 33);
        assert_eq!(applied.seed, 9);
    }

    #[test]
    fn quick_sets_smoke_scale() {
        let applied = parse(&["--quick"], None).apply(&spec());
        assert_eq!(applied.repetitions, 3);
        assert_eq!(applied.eval_size, 64);
    }

    #[test]
    fn adaptive_installs_a_stopping_rule_capped_by_resolved_reps() {
        let applied = parse(&["--adaptive", "--reps", "12"], None).apply(&spec());
        let rule = applied.stopping.expect("--adaptive installs a rule");
        assert_eq!(rule.target_half_width, 0.02);
        assert_eq!(rule.min_reps, 2);
        assert_eq!(rule.max_reps, 12, "cap tracks the resolved repetition count");

        // --ci-eps alone implies adaptive and overrides the default target
        let applied = parse(&["--ci-eps", "0.005"], None).apply(&spec());
        assert_eq!(applied.stopping.unwrap().target_half_width, 0.005);

        assert_eq!(parse(&[], None).apply(&spec()).stopping, None, "fixed grid without the flags");
    }

    #[test]
    fn no_flags_leave_the_spec_alone() {
        let original = spec();
        let applied = parse(&[], None).apply(&original);
        assert_eq!(applied, original);
    }

    #[test]
    fn cache_flags() {
        assert_eq!(parse(&["--no-cache"], None).cache_root, None);
        assert_eq!(parse(&["--cache", "/tmp/c"], None).cache_root, Some(PathBuf::from("/tmp/c")));
        assert_eq!(
            parse(&["--out", "elsewhere"], None).cache_root,
            Some(PathBuf::from("elsewhere/cache")),
            "cache follows --out"
        );
    }

    #[test]
    fn env_toggle_applies_regardless_of_out_dir() {
        // the FTCLIP_CACHE env must disable/relocate the cache even when
        // --out moves the default location
        assert_eq!(parse(&["--out", "elsewhere"], Some("off")).cache_root, None);
        assert_eq!(parse(&[], Some("0")).cache_root, None);
        assert_eq!(
            parse(&["--out", "elsewhere"], Some("/var/cache/ft")).cache_root,
            Some(PathBuf::from("/var/cache/ft"))
        );
        // explicit flags beat the environment
        assert_eq!(parse(&["--cache", "/tmp/c"], Some("off")).cache_root, Some(PathBuf::from("/tmp/c")));
        assert_eq!(parse(&["--no-cache"], Some("/var/cache/ft")).cache_root, None);
    }

    #[test]
    fn positionals_are_returned_in_order() {
        let (settings, positionals) =
            RunSettings::from_arg_list(["fig1b", "--reps", "3", "fig7"].iter().map(|s| s.to_string()), None)
                .unwrap();
        assert_eq!(positionals, vec!["fig1b".to_string(), "fig7".to_string()]);
        assert_eq!(settings.reps, Some(3));
    }

    #[test]
    fn unknown_flags_error() {
        assert!(RunSettings::from_arg_list(["--repz".to_string()].into_iter(), None).is_err());
    }

    #[test]
    fn writer_emits_csv_and_json_pairs() {
        let dir = std::env::temp_dir().join(format!("ftclip-writer-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut table = ResultTable::new("t", &["a", "b"]);
        table.row([1u32.into(), 2.5f64.into()]);
        table.row(["x".into(), "y".into()]);
        let csv_path = ResultWriter::new(&dir).write(&table).unwrap();
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), "a,b\n1,2.5\nx,y\n");
        let json = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(json.starts_with("[\n"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
