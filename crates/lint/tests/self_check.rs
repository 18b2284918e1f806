//! The live workspace must pass its own conformance pass: this is the
//! in-tree twin of CI's `lint-deep` job, so a violation fails `cargo test`
//! before it ever reaches CI.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // repo root
    dir
}

#[test]
fn live_workspace_is_lint_clean() {
    let report = eadt_lint::run(&workspace_root()).expect("lint pass runs");
    assert!(
        report.files > 50,
        "walker found only {} files — wrong root?",
        report.files
    );
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn allowlist_entries_still_cover_something() {
    // A stale allowlist entry (its violation was fixed, or another entry
    // now covers it) should be removed; surfacing that per entry keeps the
    // burn-down honest even when several grants share a rule and file.
    let report = eadt_lint::run(&workspace_root()).expect("lint pass runs");
    assert!(
        report.stale.is_empty(),
        "stale allowlist entries — the violations they covered are gone, remove them:\n{}",
        report
            .stale
            .iter()
            .map(|e| format!("[{}] {} ({})", e.rule, e.path, e.context))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
