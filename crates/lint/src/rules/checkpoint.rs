//! Checkpoint schema-coverage lint.
//!
//! A checkpoint is only crash-safe if it captures *all* in-flight engine
//! state; a field added to `EngineCheckpoint` without a schema-table
//! entry (or a controller snapshot kind nobody documented) is exactly the
//! kind of silent drift that turns a resume into a divergent replay. This
//! rule cross-checks the snapshot surface against the DESIGN.md §13
//! checkpoint schema:
//!
//! * every field of `EngineCheckpoint` in
//!   `crates/transfer/src/engine/checkpoint.rs` must have a row in the
//!   §13 field table;
//! * every field of `ServiceCheckpoint` in `crates/ckpt/src/service.rs`
//!   (the continuous-service scheduler snapshot) must likewise have a
//!   §13 row;
//! * every table row must name a live field of one of the two snapshot
//!   structs (no stale docs);
//! * every controller snapshot kind (a `…_KIND: &str` constant anywhere
//!   in non-test workspace code) must be mentioned, backticked, in §13 —
//!   a controller whose state can be snapshotted but is absent from the
//!   compatibility policy is undocumented surface.

use super::{doc_section, doc_table_rows, Violation};
use crate::lexer::{Spanned, Tok};
use crate::parser::{Item, ItemKind, ParsedFile};

/// Location of the engine checkpoint definition, repo-relative.
pub const CHECKPOINT_RS: &str = "crates/transfer/src/engine/checkpoint.rs";
/// Location of the service scheduler snapshot definition, repo-relative.
pub const SERVICE_CKPT_RS: &str = "crates/ckpt/src/service.rs";

/// A `…_KIND: &str = "…"` constant found in workspace code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindConst {
    /// Constant identifier (`HTEE_KIND`).
    pub name: String,
    /// The kind string it carries (`"htee"`).
    pub value: String,
    /// Repo-relative path of the defining file.
    pub path: String,
    /// 1-based line of the constant.
    pub line: u32,
}

/// Collects the snapshot-kind constants declared in one file. A token
/// scan: the parser renders string literals as `"…"`, so the kind string
/// itself exists only in the token stream.
pub fn collect_kind_consts(rel_path: &str, toks: &[Spanned]) -> Vec<KindConst> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("const") {
            if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                if name.ends_with("_KIND") {
                    // The value is the first string literal before the
                    // terminating semicolon.
                    let mut j = i + 2;
                    while j < toks.len() && !toks[j].is_punct(';') {
                        if let Tok::Str(value) = &toks[j].tok {
                            out.push(KindConst {
                                name: name.clone(),
                                value: value.clone(),
                                path: rel_path.to_string(),
                                line: toks[i + 1].line,
                            });
                            break;
                        }
                        j += 1;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Runs the checkpoint lint: `engine` is the parse of
/// `crates/transfer/src/engine/checkpoint.rs`, `service` that of
/// `crates/ckpt/src/service.rs` (the continuous-service scheduler
/// snapshot), `design_src` is DESIGN.md, `kinds` the snapshot-kind
/// constants collected across the workspace.
pub fn check(
    engine: &ParsedFile,
    engine_path: &str,
    service: &ParsedFile,
    service_path: &str,
    design_src: &str,
    design_path: &str,
    kinds: &[KindConst],
) -> Vec<Violation> {
    let mut structs = Vec::new();
    for (pf, name, path) in [
        (engine, "EngineCheckpoint", engine_path),
        (service, "ServiceCheckpoint", service_path),
    ] {
        match struct_fields(pf, name) {
            Some(fields) => structs.push((name, path, fields)),
            None => {
                return vec![Violation {
                    rule: "checkpoint",
                    path: path.to_string(),
                    line: 0,
                    message: format!(
                        "could not locate `struct {name}` — checkpoint lint cannot run"
                    ),
                }]
            }
        }
    }
    // The first backticked span of each §13 table row is the field name.
    let rows: Vec<(u32, String)> = doc_table_rows(design_src, 13)
        .into_iter()
        .map(|(line, cells)| (line, cells[0][0].clone()))
        .collect();
    if rows.is_empty() {
        return vec![Violation {
            rule: "checkpoint",
            path: design_path.to_string(),
            line: 0,
            message: "could not locate the §13 checkpoint field table in DESIGN.md".into(),
        }];
    }

    let mut out = Vec::new();
    for (struct_name, path, fields) in &structs {
        for field in *fields {
            if !rows.iter().any(|(_, name)| *name == field.name) {
                out.push(Violation {
                    rule: "checkpoint",
                    path: path.to_string(),
                    line: field.line,
                    message: format!(
                        "`{struct_name}::{}` has no row in the DESIGN.md §13 checkpoint \
                         schema tables — undocumented state cannot be trusted across a resume",
                        field.name
                    ),
                });
            }
        }
    }
    for (line, name) in &rows {
        let live = structs
            .iter()
            .any(|(_, _, fields)| fields.iter().any(|f| f.name == *name));
        if !live {
            out.push(Violation {
                rule: "checkpoint",
                path: design_path.to_string(),
                line: *line,
                message: format!(
                    "§13 checkpoint tables document `{name}`, which neither \
                     `EngineCheckpoint` nor `ServiceCheckpoint` carries"
                ),
            });
        }
    }
    let section = doc_section(design_src, 13);
    for kind in kinds {
        let mention = format!("`{}`", kind.value);
        if !section.iter().any(|(_, line)| line.contains(&mention)) {
            out.push(Violation {
                rule: "checkpoint",
                path: kind.path.clone(),
                line: kind.line,
                message: format!(
                    "snapshot kind \"{}\" ({}) is not documented in DESIGN.md §13 — every \
                     controller state covered by the snapshot schema must appear in the \
                     compatibility policy",
                    kind.value, kind.name
                ),
            });
        }
    }
    out
}

/// The `Field` children of the top-level `struct name`, when it exists
/// and has named fields.
fn struct_fields<'a>(pf: &'a ParsedFile, name: &str) -> Option<&'a [Item]> {
    pf.items
        .iter()
        .find(|it| it.kind == ItemKind::Struct && it.name == name && !it.children.is_empty())
        .map(|it| it.children.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&tokenize(src))
    }

    const CKPT_SRC: &str = r#"
        pub struct EngineCheckpoint {
            pub version: u32,
            pub now: SimTime,
            pub chunks: Vec<ChunkSnapshot>,
            pub controller: ControllerSnapshot,
        }
    "#;

    const SERVICE_SRC: &str = r#"
        pub struct ServiceCheckpoint {
            pub version: u32,
            pub round: u64,
            pub queue: Vec<u32>,
        }
    "#;

    const GOOD_DOC: &str = "\
## 13. Checkpointing

Controller kinds: `stateless`, `htee`.

| field | captures |
|---|---|
| `version` | schema version |
| `now` | sim clock |
| `chunks` | chunk queues |
| `controller` | controller state |

The service scheduler snapshot:

| field | captures |
|---|---|
| `version` | service schema version |
| `round` | next round |
| `queue` | waiting jobs |

## 14. Next
";

    fn kinds() -> Vec<KindConst> {
        collect_kind_consts(
            "crates/transfer/src/control.rs",
            &tokenize(
                r#"
                pub const STATELESS_KIND: &str = "stateless";
                pub const HTEE_KIND: &str = "htee";
                "#,
            ),
        )
    }

    #[test]
    fn kind_consts_are_collected() {
        let k = kinds();
        assert_eq!(k.len(), 2);
        assert_eq!(k[0].name, "STATELESS_KIND");
        assert_eq!(k[0].value, "stateless");
        assert_eq!(k[1].value, "htee");
    }

    fn check_srcs(ckpt: &str, service: &str, doc: &str, kinds: &[KindConst]) -> Vec<Violation> {
        check(
            &parse(ckpt),
            "ckpt.rs",
            &parse(service),
            "service.rs",
            doc,
            "DESIGN.md",
            kinds,
        )
    }

    fn check_doc(doc: &str, kinds: &[KindConst]) -> Vec<Violation> {
        check_srcs(CKPT_SRC, SERVICE_SRC, doc, kinds)
    }

    #[test]
    fn in_sync_checkpoint_schema_passes() {
        let v = check_doc(GOOD_DOC, &kinds());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn undocumented_field_is_flagged() {
        let doc = GOOD_DOC.replace("| `chunks` | chunk queues |\n", "");
        let v = check_doc(&doc, &kinds());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("chunks"));
        assert_eq!(v[0].path, "ckpt.rs");
    }

    #[test]
    fn undocumented_service_field_is_flagged() {
        let doc = GOOD_DOC.replace("| `round` | next round |\n", "");
        let v = check_doc(&doc, &kinds());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("ServiceCheckpoint::round"), "{v:?}");
        assert_eq!(v[0].path, "service.rs");
    }

    #[test]
    fn stale_doc_row_is_flagged() {
        let doc = GOOD_DOC.replace(
            "| `now` | sim clock |",
            "| `now` | sim clock |\n| `ghost` | nothing |",
        );
        let v = check_doc(&doc, &kinds());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("ghost"));
        assert_eq!(v[0].path, "DESIGN.md");
    }

    #[test]
    fn fields_shared_between_the_structs_satisfy_both() {
        // `version` appears in both structs and both tables; dropping the
        // service table's copy is fine because the engine table still
        // documents a live `version` field.
        let doc = GOOD_DOC.replace("| `version` | service schema version |\n", "");
        let v = check_doc(&doc, &kinds());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn undocumented_snapshot_kind_is_flagged() {
        let doc = GOOD_DOC.replace("`htee`", "`something-else`");
        let v = check_doc(&doc, &kinds());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("htee"), "{v:?}");
        assert_eq!(v[0].path, "crates/transfer/src/control.rs");
    }

    #[test]
    fn missing_struct_or_table_degrades_to_file_level_finding() {
        let v = check_srcs("fn nothing() {}", SERVICE_SRC, GOOD_DOC, &[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 0);
        let v = check_srcs(CKPT_SRC, "fn nothing() {}", GOOD_DOC, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("ServiceCheckpoint"), "{v:?}");
        assert_eq!(v[0].path, "service.rs");
        let v = check_doc("# empty\n", &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("§13"));
    }
}
