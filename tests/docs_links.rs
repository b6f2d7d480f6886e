//! Link checker over the repo's markdown documentation (README.md +
//! docs/*.md): every relative link must resolve to an existing file, and
//! every fragment pointing into a markdown file must name a real heading
//! (GitHub anchor slugs). External http(s) links are out of scope — CI
//! has no network. Source comments may only cite docs that exist, and
//! build recipes (docs, CI, the verify skill) may only name real binaries
//! and no `cargo bench` recipe.

use std::collections::HashSet;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.expect("docs entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// GitHub's heading → anchor rule: lowercase, drop everything but
/// alphanumerics, spaces, hyphens and underscores, then spaces → hyphens.
fn slugify(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| match c {
            ' ' => Some('-'),
            '-' | '_' => Some(c),
            c if c.is_alphanumeric() => Some(c.to_ascii_lowercase()),
            _ => None,
        })
        .collect()
}

/// The anchor set of one markdown file: slugs of every heading outside
/// fenced code blocks.
fn anchors(text: &str) -> HashSet<String> {
    let mut in_fence = false;
    let mut slugs = HashSet::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence && line.starts_with('#') {
            let heading = line.trim_start_matches('#').replace('`', "");
            slugs.insert(slugify(&heading));
        }
    }
    slugs
}

/// Every `](target)` link target outside fenced code blocks.
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            rest = &rest[open + 2..];
            let Some(close) = rest.find(')') else { break };
            targets.push(rest[..close].to_string());
            rest = &rest[close + 1..];
        }
    }
    targets
}

#[test]
fn every_relative_link_resolves_and_every_fragment_names_a_heading() {
    let files = doc_files();
    assert!(files.len() >= 3, "expected README.md + docs/*.md, found {files:?}");

    let mut broken: Vec<String> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let dir = file.parent().unwrap();
        for target in link_targets(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, fragment) = match target.split_once('#') {
                Some((p, f)) => (p, Some(f.to_string())),
                None => (target.as_str(), None),
            };
            let resolved = if path_part.is_empty() { file.clone() } else { dir.join(path_part) };
            if !resolved.exists() {
                broken.push(format!("{}: '{target}' -> missing {resolved:?}", file.display()));
                continue;
            }
            if let Some(fragment) = fragment {
                if resolved.extension().is_some_and(|e| e == "md") {
                    let linked = std::fs::read_to_string(&resolved).unwrap();
                    if !anchors(&linked).contains(&fragment) {
                        broken.push(format!(
                            "{}: '{target}' -> no heading '#{fragment}' in {}",
                            file.display(),
                            resolved.display()
                        ));
                    }
                }
            }
        }
    }
    assert!(broken.is_empty(), "broken documentation links:\n{}", broken.join("\n"));
}

#[test]
fn readme_links_to_both_docs() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    let targets = link_targets(&readme);
    for required in ["docs/ARCHITECTURE.md", "docs/API.md"] {
        assert!(
            targets.iter().any(|t| t.split('#').next() == Some(required)),
            "README.md must link to {required}"
        );
    }
}

#[test]
fn the_env_var_table_is_the_single_consolidated_one() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(
        readme.contains("## Environment variables"),
        "README.md must carry the consolidated environment-variable table"
    );
    for var in ["FTCLIP_THREADS", "FTCLIP_CACHE", "FTCLIP_ASSETS", "FTCLIP_PREFIX_CACHE_MB"] {
        assert!(readme.contains(&format!("`{var}`")), "env table must cover {var}");
    }
    // both docs point back at the one table instead of duplicating it
    for doc in ["ARCHITECTURE.md", "API.md"] {
        let text = std::fs::read_to_string(root.join("docs").join(doc)).unwrap();
        assert!(
            text.contains("README.md#environment-variables"),
            "docs/{doc} must link to the README environment-variable table"
        );
    }
}

/// The `FTCLIP_*` names in README's "Environment variables" table.
fn env_table_vars(readme: &str) -> HashSet<String> {
    let section = readme.split("## Environment variables").nth(1).expect("env var section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split('`').next())
        .filter(|name| name.starts_with("FTCLIP_"))
        .map(str::to_string)
        .collect()
}

/// Every quoted `"FTCLIP_…"` string literal in `text`.
fn env_literals(text: &str) -> Vec<String> {
    let is_name = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    text.match_indices("\"FTCLIP_")
        .filter_map(|(at, _)| {
            let rest = &text[at + 1..];
            let end = rest.find(|c: char| !is_name(c))?;
            rest[end..].starts_with('"').then(|| rest[..end].to_string())
        })
        .collect()
}

/// README's env table and the code agree in both directions: every row is
/// read somewhere as a string literal (this file aside, whose own literals
/// would match trivially), and every variable the library crates read has
/// a row.
#[test]
fn the_env_var_table_matches_the_code() {
    let root = repo_root();
    let table = env_table_vars(&std::fs::read_to_string(root.join("README.md")).unwrap());
    assert!(table.contains("FTCLIP_THREADS"), "env table not found: {table:?}");
    let this_file = root.join(file!());
    let mut used = HashSet::new();
    let mut undocumented = Vec::new();
    for dir in ["crates", "src", "tests"] {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files);
        for file in files.iter().filter(|f| **f != this_file) {
            let literals = env_literals(&std::fs::read_to_string(file).unwrap());
            let in_crate_src = file
                .strip_prefix(root.join("crates"))
                .is_ok_and(|rel| rel.components().nth(1).is_some_and(|c| c.as_os_str() == "src"));
            for name in literals {
                if in_crate_src && !table.contains(&name) {
                    undocumented.push(format!("{}: {name}", file.display()));
                }
                used.insert(name);
            }
        }
    }
    let mut stale: Vec<&String> = table.difference(&used).collect();
    stale.sort();
    assert!(stale.is_empty(), "README env table rows no code reads: {stale:?}");
    assert!(
        undocumented.is_empty(),
        "env vars missing from the README table:\n{}",
        undocumented.join("\n")
    );
}

/// Guard for the doc moves: the budget-split and prefix-reuse diagrams
/// live in the architecture guide now, with the README linking instead of
/// duplicating.
#[test]
fn the_two_diagrams_moved_to_the_architecture_guide() {
    let root = repo_root();
    let arch = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    for marker in ["├─ Campaign::run ──", "evaluate(cut = L):"] {
        assert!(arch.contains(marker), "ARCHITECTURE.md must hold the diagram line {marker:?}");
        assert!(!readme.contains(marker), "README.md should link, not duplicate, {marker:?}");
    }
}

/// Structure guard for the one thread-budget fan-out: library code splits
/// a budget through `ftclip_tensor::fan_out` (or the kernels'
/// `par_row_bands`), so no crate source outside `crates/tensor/src/par.rs`
/// opens its own `thread::scope` above its `#[cfg(test)]` module. Binaries
/// under `src/bin/` are exempt: a load client's threads split no budget.
#[test]
fn only_the_fan_out_primitive_opens_a_thread_scope() {
    let offenders = library_files_containing("thread::scope(", &["crates/tensor/src/par.rs"]);
    assert!(
        offenders.is_empty(),
        "library code outside par.rs opens its own thread scope; use ftclip_tensor::fan_out:\n{}",
        offenders.join("\n")
    );
}

/// Structure guard for the one bias + activation pass: every inference
/// epilogue applies its activation through `Activation::bias_act`, which
/// matches the variant once per row, so no library code outside
/// `crates/nn/src/activation.rs` calls the per-element `apply_scalar`.
#[test]
fn only_the_activation_module_calls_apply_scalar() {
    let offenders = library_files_containing(".apply_scalar(", &["crates/nn/src/activation.rs"]);
    assert!(
        offenders.is_empty(),
        "library code outside activation.rs applies activations per element; use Activation::bias_act:\n{}",
        offenders.join("\n")
    );
}

/// Structure guard for the one Steps 1–2 entry point: profiling a network to
/// clip it goes through `ProfileConfig::clip` (or `Methodology::harden`,
/// which calls it), so no library code outside the profiler and the
/// methodology calls `profile_network` itself.
#[test]
fn only_the_methodology_calls_the_profiler() {
    let offenders = library_files_containing(
        "profile_network(",
        &["crates/core/src/profile.rs", "crates/core/src/methodology.rs"],
    );
    assert!(
        offenders.is_empty(),
        "library code outside the methodology profiles by hand; use ProfileConfig::clip:\n{}",
        offenders.join("\n")
    );
}

/// Structure guard for the one model path: every network a preset runs is
/// a zoo entry, trained (once, then loaded from `assets/`) by
/// `Zoo::train_or_load`, so no library code outside the zoo builds a
/// trainer. The trainer's own rustdoc example is exempt.
#[test]
fn only_the_zoo_trains() {
    let offenders = library_files_containing(
        "Trainer::builder(",
        &["crates/models/src/zoo.rs", "crates/nn/src/train.rs"],
    );
    assert!(
        offenders.is_empty(),
        "library code outside the zoo trains a network; add a ZooArch and load it through the zoo:\n{}",
        offenders.join("\n")
    );
}

/// The crate sources (`crates/*/src/**`, binaries under `src/bin/` exempt)
/// other than the `allowed` files whose code above the `#[cfg(test)]` module
/// contains `needle`, sorted.
fn library_files_containing(needle: &str, allowed: &[&str]) -> Vec<String> {
    let root = repo_root();
    let allowed: Vec<PathBuf> = allowed.iter().map(|file| root.join(file)).collect();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut offenders: Vec<String> = files
        .iter()
        .filter(|file| !allowed.contains(file))
        .filter(|file| {
            let rel = file.strip_prefix(root.join("crates")).expect("under crates/");
            let parts: Vec<_> =
                rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
            parts.get(1).is_some_and(|dir| dir == "src") && parts.get(2).is_none_or(|dir| dir != "bin")
        })
        .filter(|file| {
            let text = std::fs::read_to_string(file).unwrap();
            let library = text.split("#[cfg(test)]").next().unwrap_or_default();
            library.contains(needle)
        })
        .map(|file| file.display().to_string())
        .collect();
    offenders.sort();
    offenders
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every upper-case markdown file name mentioned in `text`, with its path
/// prefix and `#fragment` when present.
fn doc_mentions(text: &str) -> Vec<String> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '/';
    let is_fragment = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut found = Vec::new();
    for (at, _) in text.match_indices(".md") {
        let start = text[..at].rfind(|c: char| !is_path(c)).map_or(0, |i| i + 1);
        let mut end = at + 3;
        if text[end..].starts_with('#') {
            end += 1 + text[end + 1..].find(|c: char| !is_fragment(c)).unwrap_or(text.len() - end - 1);
        }
        let mention = &text[start..end];
        let file = mention.rsplit('/').next().unwrap_or(mention);
        if file.starts_with(|c: char| c.is_ascii_uppercase()) {
            found.push(mention.to_string());
        }
    }
    found
}

/// Code comments and printed messages may only point at documentation that
/// exists: the file (at the repo root or under docs/) and the heading.
#[test]
fn doc_references_in_sources_resolve() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for mention in doc_mentions(&text) {
            let (path, fragment) = match mention.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (mention.as_str(), None),
            };
            let Some(resolved) = [root.join(path), root.join("docs").join(path)]
                .into_iter()
                .find(|p| p.is_file())
            else {
                broken.push(format!("{}: {mention} -> no such file", file.display()));
                continue;
            };
            if let Some(fragment) = fragment {
                if !anchors(&std::fs::read_to_string(&resolved).unwrap()).contains(fragment) {
                    broken.push(format!("{}: {mention} -> no such heading", file.display()));
                }
            }
        }
    }
    assert!(broken.is_empty(), "dangling documentation references:\n{}", broken.join("\n"));
}

/// Every `kind` target (`bin`, `bench`) the workspace builds: each
/// `[[kind]]` name declared in a member's `Cargo.toml` and each target Cargo
/// auto-discovers as `auto_dir/NAME.rs` (`src/bin`, `benches`).
fn workspace_targets(kind: &str, auto_dir: &str) -> HashSet<String> {
    let root = repo_root();
    let mut packages = vec![root.clone()];
    for group in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(group)).expect("workspace member dir").flatten() {
            packages.push(entry.path());
        }
    }
    let table = format!("[[{kind}]]");
    let mut targets = HashSet::new();
    for package in packages {
        if let Ok(manifest) = std::fs::read_to_string(package.join("Cargo.toml")) {
            let mut in_table = false;
            for line in manifest.lines().map(str::trim) {
                if line.starts_with('[') {
                    in_table = line == table;
                } else if let Some(value) = line.strip_prefix("name = ").filter(|_| in_table) {
                    targets.insert(value.trim_matches('"').to_string());
                }
            }
        }
        if let Ok(entries) = std::fs::read_dir(package.join(auto_dir)) {
            for path in entries.flatten().map(|e| e.path()) {
                if path.extension().is_some_and(|e| e == "rs") {
                    targets.insert(path.file_stem().unwrap().to_string_lossy().into_owned());
                }
            }
        }
    }
    targets
}

/// Every target name in `text` written right after one of `prefixes`
/// (e.g. `--bin NAME`, `target/release/NAME`).
fn mentions(text: &str, prefixes: &[&str]) -> Vec<String> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut found = Vec::new();
    for prefix in prefixes {
        for (at, _) in text.match_indices(prefix) {
            let rest = &text[at + prefix.len()..];
            let name = &rest[..rest.find(|c: char| !is_name(c)).unwrap_or(rest.len())];
            if !name.is_empty() {
                found.push(name.to_string());
            }
        }
    }
    found
}

/// The build and run recipes: the docs, the CI workflow and the agent
/// skills (the verify skill's build-and-drive recipe).
fn recipe_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = doc_files();
    files.push(root.join(".github/workflows/ci.yml"));
    let skills = std::fs::read_dir(root.join(".claude/skills")).expect("skills dir");
    for skill in skills.flatten() {
        for entry in std::fs::read_dir(skill.path()).into_iter().flatten().flatten() {
            if entry.path().extension().is_some_and(|e| e == "md") {
                files.push(entry.path());
            }
        }
    }
    assert!(files.iter().any(|f| f.starts_with(root.join(".claude"))), "no skill files found");
    files
}

fn read(file: &std::path::Path) -> String {
    std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()))
}

/// Build and run recipes in the docs, the CI workflow and the verify skill
/// may only name binaries the workspace actually builds.
#[test]
fn docs_and_ci_name_only_real_binaries() {
    let bins = workspace_targets("bin", "src/bin");
    assert!(bins.contains("ftclip") && bins.contains("ftclipd"), "{bins:?}");
    let mut stale = Vec::new();
    for file in &recipe_files() {
        for name in mentions(&read(file), &["--bin ", "target/release/"]) {
            if !bins.contains(&name) {
                stale.push(format!("{}: no binary named '{name}'", file.display()));
            }
        }
    }
    assert!(stale.is_empty(), "references to binaries that do not exist:\n{}", stale.join("\n"));
}

/// perfbench (`cargo run --manifest-path perfbench/Cargo.toml`) is the one
/// benchmark harness: recipes may not send a reader to `cargo bench`, nor
/// name a `--bench` target the workspace does not declare.
#[test]
fn docs_and_ci_name_no_cargo_bench_recipe() {
    let targets = workspace_targets("bench", "benches");
    let mut stale = Vec::new();
    for file in &recipe_files() {
        for (n, line) in read(file).lines().enumerate() {
            let at = format!("{}:{}", file.display(), n + 1);
            if line.contains("cargo bench") {
                stale.push(format!("{at}: `cargo bench` (perfbench is the benchmark harness)"));
            }
            for name in mentions(line, &["--bench ", "--bench="]) {
                if !targets.contains(&name) {
                    stale.push(format!("{at}: no bench target named '{name}'"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale benchmark recipes:\n{}", stale.join("\n"));
}
