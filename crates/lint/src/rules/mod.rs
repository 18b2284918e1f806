//! Lint rules and their shared plumbing.
//!
//! Eight rule families for the invariants clippy cannot see (clippy
//! itself enforces the determinism and robustness policies, DESIGN.md
//! §10). Each reads the parsed item/expr tree, the workspace symbol table
//! or the call graph (DESIGN.md §15):
//!
//! * [`schema`] — every telemetry `Event` variant stays documented in the
//!   DESIGN.md §9 JSONL schema table, field-for-field;
//! * [`horizon`] — every `Controller` that overrides `next_decision_in`
//!   is exercised by the macro-stepping equivalence suite;
//! * [`checkpoint`] — every `EngineCheckpoint` / `ServiceCheckpoint`
//!   field and every controller snapshot kind stays covered by the
//!   DESIGN.md §13 checkpoint schema;
//! * [`fp_order`] — `partial_cmp` comparators, float accumulation over
//!   unordered iterators, and `as f32` narrowing in numeric hot paths;
//! * [`hot_alloc`] — no `Vec::new`/`vec![]`/`.collect()`/`Box::new`
//!   inside the configured slice-kernel hot functions (DESIGN.md §17);
//! * [`panic_reach`] — every `unwrap`/`expect`/`panic!`/computed-index
//!   sink reachable from the engine, fleet-executor and recovery roots,
//!   with per-edge allowlist scoping;
//! * [`unit_escape`] — raw-`f64` `+`/`-` mixing values extracted from
//!   different unit newtypes within one function;
//! * [`api_surface`] — per-crate public-API snapshots under `docs/api/`,
//!   failing on undocumented drift.
//!
//! Two readings stay on the token stream, because the parser renders
//! string literals as `"…"`: the `ev` tags in `Event::tag`'s match arms
//! ([`schema`]) and the `…_KIND` snapshot-kind constants
//! ([`checkpoint`]).

pub mod api_surface;
pub mod checkpoint;
pub mod fp_order;
pub mod horizon;
pub mod hot_alloc;
pub mod panic_reach;
pub mod schema;
pub mod unit_escape;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule family id (`schema`, `horizon`, `checkpoint`, `fp-order`, …).
    pub rule: &'static str,
    /// Repo-relative path the finding is in.
    pub path: String,
    /// 1-based line, or 0 when the finding is file-level.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warning[{}]: {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// The lines of DESIGN.md section `## {n}.`, with their 1-based numbers.
pub(crate) fn doc_section(design: &str, n: u32) -> Vec<(u32, &str)> {
    let (head, bare) = (format!("{n}."), n.to_string());
    let mut in_section = false;
    let mut out = Vec::new();
    for (ln, line) in design.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("## ") {
            let rest = rest.trim_start();
            in_section = rest.starts_with(&head) || rest == bare;
        } else if in_section {
            out.push(((ln + 1) as u32, line));
        }
    }
    out
}

/// The body rows of the markdown tables in DESIGN.md section `n`: each
/// row's 1-based line and the backticked spans of each of its cells.
/// Header and separator rows have no backticked first cell and are
/// skipped.
pub(crate) fn doc_table_rows(design: &str, n: u32) -> Vec<(u32, Vec<Vec<String>>)> {
    doc_section(design, n)
        .into_iter()
        .filter(|(_, line)| line.trim_start().starts_with('|'))
        .map(|(ln, line)| {
            let cells = line.trim().trim_matches('|').split('|');
            (ln, cells.map(backticked).collect::<Vec<_>>())
        })
        .filter(|(_, cells)| cells.first().is_some_and(|c| !c.is_empty()))
        .collect()
}

/// Extracts backtick-quoted spans from a markdown cell.
fn backticked(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    /// Whether the parser gates the item `name` behind tests: the one
    /// definition of test code every rule reads (`Item::cfg_test`, and
    /// through it `FnDef::test_only`).
    fn gated(src: &str, name: &str) -> bool {
        let mut found = None;
        parse_file(&tokenize(src)).visit_items(&mut |it, _| {
            if it.name == name {
                found = Some(it.cfg_test);
            }
        });
        found.unwrap_or_else(|| panic!("no item `{name}`"))
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src = r#"
            fn live() { work(); }
            #[cfg(test)]
            mod tests {
                fn helper() { gadget(); }
            }
            fn also_live() { more(); }
        "#;
        assert!(!gated(src, "live"));
        assert!(gated(src, "tests"));
        assert!(gated(src, "helper"));
        assert!(!gated(src, "also_live"));
    }

    #[test]
    fn test_fn_and_mod_declaration_are_masked() {
        let src = "#[cfg(test)]\nmod proptests;\n#[test]\nfn t() { probe(); }\nfn f() { live(); }";
        assert!(gated(src, "proptests"));
        assert!(gated(src, "t"));
        assert!(!gated(src, "f"));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        assert!(!gated("#[cfg(not(test))]\nfn f() { live(); }", "f"));
    }

    #[test]
    fn cfg_all_test_feature_is_masked() {
        let src = "#[cfg(all(test, feature = \"slow\"))]\nmod heavy { fn x() { inner(); } }";
        assert!(gated(src, "heavy"));
        assert!(gated(src, "x"));
    }

    const DOC: &str = "\
## 8. Before
| `early` | x |

## 9. Telemetry

| tag | fields |
|---|---|
| `run_start` | `schema`, `seed?` |

## 10. After
| `late` | y |
";

    #[test]
    fn table_rows_come_from_the_named_section_only() {
        let rows = doc_table_rows(DOC, 9);
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(rows[0].0, 8);
        assert_eq!(rows[0].1[0], vec!["run_start"]);
        assert_eq!(rows[0].1[1], vec!["schema", "seed?"]);
        assert!(doc_section(DOC, 9).iter().all(|(_, l)| !l.contains("late")));
    }
}
