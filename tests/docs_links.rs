//! Link checker over the repo's markdown documentation (README.md +
//! docs/*.md): every relative link must resolve to an existing file, and
//! every fragment pointing into a markdown file must name a real heading
//! (GitHub anchor slugs). External http(s) links are out of scope — CI
//! has no network.

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
