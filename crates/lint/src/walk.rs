//! Workspace file discovery.

use std::path::{Path, PathBuf};

/// Directory names never descended into: vendored dependency subsets are
/// not ours to lint, `target` is build output, and `fixtures` holds the
/// lint suite's own deliberately-violating sources.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures", "results"];

/// A source file queued for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes (the allowlist key).
    pub rel_path: String,
    /// File contents.
    pub text: String,
}

impl SourceFile {
    /// True for files that are test-only by location or naming convention:
    /// anything under a `tests/`, `benches/` or `examples/` directory,
    /// plus the in-crate `proptests.rs` / `tests.rs` / `test_support.rs`
    /// modules (each is `#[cfg(test)]`-gated at its `mod` site).
    pub fn is_test_code(&self) -> bool {
        let p = &self.rel_path;
        p.split('/').any(|seg| {
            matches!(seg, "tests" | "benches" | "examples")
                || matches!(seg, "proptests.rs" | "tests.rs" | "test_support.rs")
        })
    }

    /// The workspace crate the file belongs to (`crates/<name>/…`), or
    /// `"."` for root-package sources.
    pub fn crate_name(&self) -> &str {
        let mut parts = self.rel_path.split('/');
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(name)) => name,
            _ => ".",
        }
    }
}

/// Collects every `.rs` file of the workspace under `root`, skipping the
/// `vendor`, `target`, `.git`, `fixtures` and `results` directories. Files
/// come back sorted by their normalized repo-relative path **as UTF-8
/// bytes** — not by `PathBuf`'s platform-dependent component order — so
/// finding order and the API snapshots are byte-stable across filesystems
/// and readdir orders.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    let mut keyed: Vec<(String, PathBuf)> = paths
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            (rel, p)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
    let mut out = Vec::with_capacity(keyed.len());
    for (rel, p) in keyed {
        let text = std::fs::read_to_string(&p)?;
        out.push(SourceFile {
            rel_path: rel,
            text,
        });
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(path: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_string(),
            text: String::new(),
        }
    }

    #[test]
    fn test_code_is_recognised_by_path() {
        assert!(sf("crates/core/src/proptests.rs").is_test_code());
        assert!(sf("crates/transfer/src/engine/tests.rs").is_test_code());
        assert!(sf("tests/determinism.rs").is_test_code());
        assert!(sf("crates/bench/benches/engine.rs").is_test_code());
        assert!(!sf("crates/core/src/planner.rs").is_test_code());
    }

    #[test]
    fn crate_names_resolve() {
        assert_eq!(sf("crates/core/src/lib.rs").crate_name(), "core");
        assert_eq!(sf("src/lib.rs").crate_name(), ".");
    }
}
