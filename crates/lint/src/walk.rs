//! Workspace file discovery.

use crate::parser::{Item, ItemKind, ParsedFile};
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
    /// Compiled only for tests: the file lies under a `tests/`, `benches/`
    /// or `examples/` directory, or a `#[cfg(test)] mod name;`
    /// declaration reaches it ([`mark_test_modules`]).
    pub test_only: bool,
}

impl SourceFile {
    /// A file at `rel_path`, test-only when it lies under a `tests/`,
    /// `benches/` or `examples/` directory.
    fn new(rel_path: String, text: String) -> Self {
        let test_only =
            (rel_path.split('/')).any(|seg| matches!(seg, "tests" | "benches" | "examples"));
        SourceFile {
            rel_path,
            text,
            test_only,
        }
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

/// Marks as test-only every file that a `#[cfg(test)] mod name;`
/// declaration compiles only for tests: the module's own file and every
/// file under its directory. `parsed[i]` is the parse of `files[i]`.
pub fn mark_test_modules(files: &mut [SourceFile], parsed: &[ParsedFile]) {
    let mut modules = Vec::new();
    for (file, pf) in files.iter().zip(parsed) {
        test_modules(&module_dir(&file.rel_path), &pf.items, &mut modules);
    }
    for file in files.iter_mut() {
        let path = file.rel_path.as_str();
        file.test_only |= modules.iter().any(|m| {
            path.strip_prefix(m.as_str())
                .is_some_and(|rest| rest == ".rs" || rest.starts_with('/'))
        });
    }
}

/// The directory in which a file's `mod name;` declarations resolve: a
/// crate root (`lib.rs`, `main.rs`, a `bin/` target) or a `mod.rs`
/// resolves beside itself, any other `name.rs` in `name/`.
fn module_dir(rel_path: &str) -> String {
    let (dir, file) = rel_path.rsplit_once('/').unwrap_or(("", rel_path));
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    if matches!(file, "lib.rs" | "main.rs" | "mod.rs") || dir.rsplit('/').next() == Some("bin") {
        dir.to_string()
    } else {
        join(dir, stem)
    }
}

/// Collects the paths (without `.rs`) of the out-of-line `#[cfg(test)]`
/// modules that `items`, resolving in `dir`, declare; an inline module
/// declares its children one directory further down.
fn test_modules(dir: &str, items: &[Item], out: &mut Vec<String>) {
    for it in items {
        if let ItemKind::Mod { inline } = it.kind {
            let path = join(dir, &it.name);
            if inline {
                test_modules(&path, &it.children, out);
            } else if it.cfg_test {
                out.push(path);
            }
        }
    }
}

fn join(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_string()
    } else {
        format!("{dir}/{name}")
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
        out.push(SourceFile::new(rel, std::fs::read_to_string(&p)?));
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
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    fn sf(path: &str) -> SourceFile {
        SourceFile::new(path.to_string(), String::new())
    }

    #[test]
    fn test_code_is_recognised_by_path() {
        assert!(sf("tests/determinism.rs").test_only);
        assert!(sf("crates/bench/benches/engine.rs").test_only);
        assert!(sf("crates/cli/examples/demo.rs").test_only);
        assert!(!sf("crates/core/src/planner.rs").test_only);
        // A name alone decides nothing: the `mod` declaration does.
        assert!(!sf("crates/core/src/proptests.rs").test_only);
    }

    #[test]
    fn cfg_test_mod_declarations_mark_their_files_and_subtrees() {
        let files = [
            (
                "crates/t/src/lib.rs",
                "#[cfg(test)]\nmod oracle;\nmod engine;\npub mod live;",
            ),
            ("crates/t/src/oracle/mod.rs", "mod event;"),
            ("crates/t/src/oracle/event.rs", ""),
            (
                "crates/t/src/engine.rs",
                "#[cfg(test)]\nmod tests;\nmod inner { #[cfg(test)] mod deep; }",
            ),
            ("crates/t/src/engine/tests.rs", ""),
            ("crates/t/src/engine/inner/deep.rs", ""),
            ("crates/t/src/live.rs", ""),
            ("crates/t/src/oracle_helpers.rs", ""),
        ];
        let parsed: Vec<_> = files
            .iter()
            .map(|(_, src)| parse_file(&tokenize(src)))
            .collect();
        let mut sources: Vec<_> = files.iter().map(|(path, _)| sf(path)).collect();
        mark_test_modules(&mut sources, &parsed);
        let test_only: Vec<&str> = (sources.iter())
            .filter(|f| f.test_only)
            .map(|f| f.rel_path.as_str())
            .collect();
        assert_eq!(
            test_only,
            [
                "crates/t/src/oracle/mod.rs",
                "crates/t/src/oracle/event.rs",
                "crates/t/src/engine/tests.rs",
                "crates/t/src/engine/inner/deep.rs",
            ]
        );
    }

    #[test]
    fn crate_names_resolve() {
        assert_eq!(sf("crates/core/src/lib.rs").crate_name(), "core");
        assert_eq!(sf("src/lib.rs").crate_name(), ".");
    }
}
