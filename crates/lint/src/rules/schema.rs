//! Telemetry schema-exhaustiveness lint.
//!
//! The JSONL journal schema is a public contract: external readers parse
//! it, and the DESIGN.md §9 table is its only specification. This rule
//! cross-checks the `Event` enum in `crates/telemetry/src/event.rs`
//! against that table so a new event variant (or a renamed field) cannot
//! ship undocumented:
//!
//! * every `ev` tag produced by `Event::tag()` must have a table row;
//! * every table row must correspond to a live tag (no stale docs);
//! * the backticked field names of each row must match the variant's
//!   field names exactly (a `?` suffix marks optional fields and is
//!   ignored for the comparison).

use super::{doc_table_rows, Violation};
use crate::lexer::{Spanned, Tok};
use crate::parser::{Item, ItemKind, ParsedFile};
use std::collections::BTreeMap;

/// One row of the DESIGN.md §9 schema table.
struct DocRow {
    /// Tags the row documents (a row may cover several related tags).
    tags: Vec<String>,
    /// Documented field names, `?` suffixes stripped.
    fields: Vec<String>,
    /// 1-based line of the row in DESIGN.md.
    line: u32,
}

/// Runs the schema lint over `crates/telemetry/src/event.rs` — its
/// tokens and its parse — and DESIGN.md (`design_src`); the paths label
/// the violations.
pub fn check(
    event_toks: &[Spanned],
    event: &ParsedFile,
    event_path: &str,
    design_src: &str,
    design_path: &str,
) -> Vec<Violation> {
    let variants: BTreeMap<&str, &Item> = event
        .items
        .iter()
        .find(|it| it.kind == ItemKind::Enum && it.name == "Event")
        .map(|e| e.children.iter().map(|v| (v.name.as_str(), v)).collect())
        .unwrap_or_default();
    let tags = parse_tag_map(event_toks);
    if variants.is_empty() || tags.is_empty() {
        return vec![Violation {
            rule: "schema",
            path: event_path.to_string(),
            line: 0,
            message: "could not locate `enum Event` and its `fn tag` — schema lint cannot run"
                .into(),
        }];
    }
    let rows = doc_rows(design_src);
    if rows.is_empty() {
        return vec![Violation {
            rule: "schema",
            path: design_path.to_string(),
            line: 0,
            message: "could not locate the §9 event-schema table in DESIGN.md".into(),
        }];
    }

    let mut doc_by_tag: BTreeMap<&str, &DocRow> = BTreeMap::new();
    for row in &rows {
        for tag in &row.tags {
            doc_by_tag.insert(tag, row);
        }
    }

    // Every code tag must be documented, with matching fields.
    let mut out = Vec::new();
    for (variant, tag) in &tags {
        let Some(v) = variants.get(variant.as_str()) else {
            continue; // unreachable if event.rs compiles
        };
        match doc_by_tag.get(tag.as_str()) {
            None => out.push(Violation {
                rule: "schema",
                path: event_path.to_string(),
                line: v.line,
                message: format!(
                    "event `{tag}` (variant `{variant}`) has no row in the DESIGN.md §9 schema table"
                ),
            }),
            Some(row) => {
                let mut code: Vec<&str> = v.children.iter().map(|f| f.name.as_str()).collect();
                let mut doc: Vec<&str> = row.fields.iter().map(String::as_str).collect();
                code.sort_unstable();
                doc.sort_unstable();
                if code != doc {
                    let missing: Vec<&&str> = code.iter().filter(|f| !doc.contains(f)).collect();
                    let stale: Vec<&&str> = doc.iter().filter(|f| !code.contains(f)).collect();
                    out.push(Violation {
                        rule: "schema",
                        path: design_path.to_string(),
                        line: row.line,
                        message: format!(
                            "schema row for `{tag}` is out of sync with variant `{variant}`: \
                             undocumented fields {missing:?}, stale doc fields {stale:?}"
                        ),
                    });
                }
            }
        }
    }

    // Every doc row must refer to a live tag.
    let live_tags: Vec<&str> = tags.iter().map(|(_, t)| t.as_str()).collect();
    for row in &rows {
        for tag in &row.tags {
            if !live_tags.contains(&tag.as_str()) {
                out.push(Violation {
                    rule: "schema",
                    path: design_path.to_string(),
                    line: row.line,
                    message: format!(
                        "schema table documents `{tag}`, which no `Event` variant produces"
                    ),
                });
            }
        }
    }
    out
}

/// Parses the `fn tag` match arms into `(variant, tag)` pairs. A token
/// scan: the parser renders string literals as `"…"`, so the tags exist
/// only in the token stream.
pub fn parse_tag_map(toks: &[Spanned]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident("tag")) {
            break;
        }
        i += 1;
    }
    if i >= toks.len() {
        return out;
    }
    // Within the function body: `Event :: Name { .. } => "tag"`.
    let mut depth = 0i32;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(s)
                if s == "Event"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':')) =>
            {
                if let Some(Tok::Ident(variant)) = toks.get(i + 3).map(|t| &t.tok) {
                    // The tag literal is the next string token.
                    let mut j = i + 4;
                    while j < toks.len() {
                        if let Tok::Str(tag) = &toks[j].tok {
                            out.push((variant.clone(), tag.clone()));
                            break;
                        }
                        if toks[j].is_ident("Event") {
                            break; // next arm started without a string
                        }
                        j += 1;
                    }
                    i = j;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The §9 schema table rows: tags in the first cell, fields in the third.
fn doc_rows(design: &str) -> Vec<DocRow> {
    doc_table_rows(design, 9)
        .into_iter()
        .filter_map(|(line, cells)| {
            let fields = cells.get(2)?;
            Some(DocRow {
                tags: cells[0].clone(),
                fields: fields
                    .iter()
                    .map(|f| f.trim_end_matches('?').to_string())
                    .collect(),
                line,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    fn run(event_src: &str, doc: &str) -> Vec<Violation> {
        let toks = tokenize(event_src);
        check(&toks, &parse_file(&toks), "event.rs", doc, "DESIGN.md")
    }

    const EVENT_SRC: &str = r#"
        pub enum Event {
            RunStart { schema: u32, seed: u64 },
            StageStart { stage: u32 },
            FaultEpisode { side: Option<Side>, active: bool },
            SpanBegin { id: u64, parent: u64, kind: String, detail: String },
            SpanEnd { id: u64, kind: String, detail: String },
        }
        impl Event {
            pub fn tag(&self) -> &'static str {
                match self {
                    Event::RunStart { .. } => "run_start",
                    Event::StageStart { .. } => "stage_start",
                    Event::FaultEpisode { .. } => "fault_episode",
                    Event::SpanBegin { .. } => "span_begin",
                    Event::SpanEnd { .. } => "span_end",
                }
            }
        }
    "#;

    const GOOD_DOC: &str = "\
## 9. Telemetry

| tag | emitted by | fields |
|---|---|---|
| `run_start` | tracer | `schema`, `seed` |
| `stage_start` | engine | `stage` |
| `fault_episode` | runtime | `side?`, `active` |
| `span_begin` | engine, controllers | `id`, `parent`, `kind`, `detail` |
| `span_end` | engine, controllers | `id`, `kind`, `detail` |

## 10. Next
";

    #[test]
    fn in_sync_schema_passes() {
        let v = run(EVENT_SRC, GOOD_DOC);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn deleting_a_doc_row_is_flagged() {
        let doc = GOOD_DOC.replace("| `stage_start` | engine | `stage` |\n", "");
        let v = run(EVENT_SRC, &doc);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("stage_start"));
        assert_eq!(v[0].path, "event.rs");
    }

    #[test]
    fn stale_doc_rows_and_field_drift_are_flagged() {
        let doc = GOOD_DOC
            .replace("`schema`, `seed`", "`schema`, `seeds`")
            .replace("## 10. Next", "| `ghost` | nobody | `x` |\n\n## 10. Next");
        let v = run(EVENT_SRC, &doc);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("out of sync")));
        assert!(v.iter().any(|v| v.message.contains("ghost")));
    }

    #[test]
    fn optional_marker_and_generics_are_handled() {
        let pf = parse_file(&tokenize(EVENT_SRC));
        let vars = &pf.items[0].children;
        assert_eq!(vars.len(), 5);
        let fields: Vec<&str> = vars[2].children.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fields, vec!["side", "active"]);
        let rows = doc_rows(GOOD_DOC);
        assert_eq!(rows[2].fields, vec!["side", "active"]);
    }

    #[test]
    fn span_field_drift_is_flagged() {
        // Dropping `parent` from the span_begin row must be caught: the
        // span schema is what external trace readers key nesting on.
        let doc = GOOD_DOC.replace(
            "| `span_begin` | engine, controllers | `id`, `parent`, `kind`, `detail` |",
            "| `span_begin` | engine, controllers | `id`, `kind`, `detail` |",
        );
        let v = run(EVENT_SRC, &doc);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("span_begin"), "{v:?}");
        assert!(v[0].message.contains("parent"), "{v:?}");

        // An undocumented span kind variant is caught from the code side.
        let src = EVENT_SRC.replace(
            "Event::SpanEnd { .. } => \"span_end\",",
            "Event::SpanEnd { .. } => \"span_close\",",
        );
        let v = run(&src, GOOD_DOC);
        assert!(v.iter().any(|v| v.message.contains("span_close")), "{v:?}");
    }
}
