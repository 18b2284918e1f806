//! `eadt-lint` — the workspace conformance analyzer.
//!
//! A dependency-free static-analysis pipeline that walks every workspace
//! crate (excluding `vendor/`) and enforces the repo's machine-checkable
//! invariants that clippy cannot see (DESIGN.md §10, §15). Clippy owns
//! the determinism and robustness policies (`clippy.toml` and the
//! `deny` attributes of `core`, `transfer` and `telemetry`); every rule
//! here reads one recursive-descent parse per file ([`parser`]), the
//! workspace symbol table built from it ([`symbols`]) or a conservative
//! call graph over that table ([`callgraph`]):
//!
//! * **schema** — every telemetry `Event` variant documented,
//!   field-for-field, in the DESIGN.md §9 JSONL schema table;
//! * **horizon** — every `Controller` overriding `next_decision_in()`
//!   exercised by the macro-stepping equivalence suite;
//! * **checkpoint** — every `EngineCheckpoint` / `ServiceCheckpoint`
//!   field and controller snapshot kind covered by the DESIGN.md §13
//!   checkpoint schema;
//! * **fp-order** — `partial_cmp` comparators, float accumulation over
//!   unordered iterators, `as f32` narrowing in numeric hot paths;
//! * **hot-alloc** — no `Vec::new` / `vec![]` / `.collect()` /
//!   `Box::new` inside the configured slice-kernel hot functions
//!   (the zero-allocation contract of DESIGN.md §17);
//! * **panic-reach** — panic sinks transitively reachable from
//!   `EngineRun::step` and `restore`, the fleet executor and checkpoint
//!   recovery, with per-edge allowlist scoping (`panic-reach-edge`);
//! * **unit-escape** — raw-`f64` `+`/`-` across different unit-newtype
//!   extractor families within one function;
//! * **api-surface** — canonical per-crate public-API snapshots under
//!   `docs/api/`, failing on undocumented drift (regenerate with
//!   `--update-api`).
//!
//! Known violations burn down explicitly through `lint-allow.toml`.
//! Run it as `cargo run -p eadt-lint -- --deny-warnings` (the CI
//! `lint-deep` job does exactly that).

#![deny(missing_docs)]

pub mod allow;
pub mod callgraph;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod walk;

use allow::{AllowEntry, Allowlist};
use rules::Violation;
use std::collections::BTreeMap;
use std::path::Path;

/// Location of the telemetry event definitions, relative to the repo root.
pub const EVENT_RS: &str = "crates/telemetry/src/event.rs";
/// Location of the engine checkpoint definitions, relative to the repo root.
pub const CHECKPOINT_RS: &str = rules::checkpoint::CHECKPOINT_RS;
/// Location of the service scheduler snapshot, relative to the repo root.
pub const SERVICE_CKPT_RS: &str = rules::checkpoint::SERVICE_CKPT_RS;
/// Location of the schema documentation, relative to the repo root.
pub const DESIGN_MD: &str = "DESIGN.md";
/// Location of the allowlist, relative to the repo root.
pub const ALLOW_TOML: &str = "lint-allow.toml";

/// Outcome of a full analysis run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Violations that survived the allowlist, in path/line order.
    pub violations: Vec<Violation>,
    /// Violations suppressed by `lint-allow.toml` (including one entry
    /// per severed `panic-reach-edge`).
    pub allowed: Vec<Violation>,
    /// Allowlist entries that covered no violation and severed no edge:
    /// stale grants to delete.
    pub stale: Vec<AllowEntry>,
    /// Number of files analyzed.
    pub files: usize,
}

/// One analyzed source file with both analysis layers materialized.
struct Analyzed {
    file: walk::SourceFile,
    toks: Vec<lexer::Spanned>,
    parsed: parser::ParsedFile,
}

/// Reads sources and materializes tokens + parse trees, once per file,
/// then marks the files `#[cfg(test)] mod` declarations reach as test
/// code.
fn analyze_sources(root: &Path) -> Result<Vec<Analyzed>, String> {
    let mut sources = walk::collect_sources(root).map_err(|e| format!("walking {root:?}: {e}"))?;
    let toks: Vec<_> = sources.iter().map(|f| lexer::tokenize(&f.text)).collect();
    let parsed: Vec<_> = toks.iter().map(|t| parser::parse_file(t)).collect();
    walk::mark_test_modules(&mut sources, &parsed);
    Ok((sources.into_iter().zip(toks).zip(parsed))
        .map(|((file, toks), parsed)| Analyzed { file, toks, parsed })
        .collect())
}

/// Recomputes every crate's API snapshot and writes `docs/api/*.txt`.
/// Returns the written paths (repo-relative), for reporting.
pub fn update_api_snapshots(root: &Path) -> Result<Vec<String>, String> {
    let analyzed = analyze_sources(root)?;
    let snapshots = rules::api_surface::build_snapshots(
        analyzed
            .iter()
            .filter(|a| !a.file.test_only)
            .map(|a| (a.file.rel_path.as_str(), &a.parsed)),
    );
    let dir = root.join(rules::api_surface::API_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for (krate, text) in &snapshots {
        let path = dir.join(format!("{krate}.txt"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        written.push(format!("{}/{krate}.txt", rules::api_surface::API_DIR));
    }
    Ok(written)
}

/// Runs every rule over the workspace rooted at `root`.
///
/// Fails with a message (not a panic) when the workspace cannot be read
/// or the allowlist cannot be parsed.
pub fn run(root: &Path) -> Result<Report, String> {
    let allowlist = match std::fs::read_to_string(root.join(ALLOW_TOML)) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Allowlist::default(),
        Err(e) => return Err(format!("{ALLOW_TOML}: {e}")),
    };
    let analyzed = analyze_sources(root)?;
    let mut raw: Vec<Violation> = Vec::new();

    // --- Per-body tree rules, and the symbol table -----------------------
    let mut table = symbols::SymbolTable::default();
    for a in &analyzed {
        let file = &a.file;
        let narrowing = rules::fp_order::HOT_CRATES.contains(&file.crate_name()) && !file.test_only;
        let unit_checked =
            rules::unit_escape::CHECKED_CRATES.contains(&file.crate_name()) && !file.test_only;
        a.parsed.visit_items(&mut |it, stack| {
            // Nested helper fns are inlined into their enclosing body
            // (parser.rs), so visiting them again would double-report.
            if stack.iter().any(|p| matches!(p.kind, parser::ItemKind::Fn)) {
                return;
            }
            if let Some(body) = &it.body {
                raw.extend(rules::fp_order::check_body(
                    &file.rel_path,
                    body,
                    narrowing && !it.cfg_test,
                ));
                if unit_checked && !it.cfg_test {
                    raw.extend(rules::unit_escape::check_body(&file.rel_path, body));
                }
                if rules::hot_alloc::is_hot(&file.rel_path, &it.name) && !it.cfg_test {
                    raw.extend(rules::hot_alloc::check_body(&file.rel_path, body));
                }
            }
        });

        table.add_file(file.crate_name(), &file.rel_path, file.test_only, &a.parsed);
    }

    // --- Horizon coverage over the symbol table --------------------------
    match std::fs::read_to_string(root.join(rules::horizon::SUITE_PATH)) {
        Ok(suite) => raw.extend(rules::horizon::check(&table, &suite)),
        Err(_) => raw.push(Violation {
            rule: "horizon",
            path: rules::horizon::SUITE_PATH.to_string(),
            line: 0,
            message: "macro-stepping equivalence suite not found — horizon lint cannot run".into(),
        }),
    }

    // --- Panic reachability over the call graph ------------------------
    let graph = callgraph::CallGraph::build(&table);
    let texts: BTreeMap<&str, &str> = analyzed
        .iter()
        .map(|a| (a.file.rel_path.as_str(), a.file.text.as_str()))
        .collect();
    let reach = rules::panic_reach::check(&table, &graph, &allowlist, |file, line| {
        texts
            .get(file)
            .map(|t| line_of(t, line))
            .unwrap_or_default()
    });
    raw.extend(reach.violations);

    // --- API surface ----------------------------------------------------
    let snapshots = rules::api_surface::build_snapshots(
        analyzed
            .iter()
            .filter(|a| !a.file.test_only)
            .map(|a| (a.file.rel_path.as_str(), &a.parsed)),
    );
    let mut on_disk = BTreeMap::new();
    let api_dir = root.join(rules::api_surface::API_DIR);
    if let Ok(entries) = std::fs::read_dir(&api_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(krate) = name.strip_suffix(".txt") {
                if let Ok(text) = std::fs::read_to_string(entry.path()) {
                    on_disk.insert(krate.to_string(), text);
                }
            }
        }
    }
    raw.extend(rules::api_surface::check(&snapshots, &on_disk));

    // --- Schema / checkpoint (doc-coupled) ------------------------------
    let design =
        std::fs::read_to_string(root.join(DESIGN_MD)).map_err(|e| format!("{DESIGN_MD}: {e}"))?;
    match analyzed.iter().find(|a| a.file.rel_path == EVENT_RS) {
        Some(event_file) => {
            raw.extend(rules::schema::check(
                &event_file.toks,
                &event_file.parsed,
                EVENT_RS,
                &design,
                DESIGN_MD,
            ));
        }
        None => raw.push(Violation {
            rule: "schema",
            path: EVENT_RS.to_string(),
            line: 0,
            message: "telemetry event definitions not found — schema lint cannot run".into(),
        }),
    }

    let ckpt_file = analyzed.iter().find(|a| a.file.rel_path == CHECKPOINT_RS);
    let service_file = analyzed.iter().find(|a| a.file.rel_path == SERVICE_CKPT_RS);
    match (ckpt_file, service_file) {
        (Some(ckpt_file), Some(service_file)) => {
            let mut kinds = Vec::new();
            for a in &analyzed {
                if a.file.test_only {
                    continue;
                }
                kinds.extend(rules::checkpoint::collect_kind_consts(
                    &a.file.rel_path,
                    &a.toks,
                ));
            }
            raw.extend(rules::checkpoint::check(
                &ckpt_file.parsed,
                CHECKPOINT_RS,
                &service_file.parsed,
                SERVICE_CKPT_RS,
                &design,
                DESIGN_MD,
                &kinds,
            ));
        }
        (missing_engine, _) => {
            let path = if missing_engine.is_none() {
                CHECKPOINT_RS
            } else {
                SERVICE_CKPT_RS
            };
            raw.push(Violation {
                rule: "checkpoint",
                path: path.to_string(),
                line: 0,
                message: "checkpoint definitions not found — checkpoint lint cannot run".into(),
            });
        }
    }

    // Apply the allowlist: an entry covers a violation when rule and path
    // match and the source line contains the entry's context. An entry
    // that covers nothing and severs no edge is stale.
    let mut report = Report {
        files: analyzed.len(),
        ..Report::default()
    };
    let mut used = vec![false; allowlist.entries.len()];
    for v in raw {
        let line_text = if v.path == DESIGN_MD {
            line_of(&design, v.line)
        } else {
            texts
                .get(v.path.as_str())
                .map(|t| line_of(t, v.line))
                .unwrap_or_default()
        };
        match allowlist.covers(v.rule, &v.path, &line_text) {
            Some(i) => {
                used[i] = true;
                report.allowed.push(v);
            }
            None => report.violations.push(v),
        }
    }
    for i in reach.severed {
        used[i] = true;
        let e = &allowlist.entries[i];
        report.allowed.push(Violation {
            rule: "panic-reach-edge",
            path: e.path.clone(),
            line: 0,
            message: format!("call-graph edge severed (context: `{}`)", e.context),
        });
    }
    report.stale = allowlist
        .entries
        .into_iter()
        .zip(used)
        .filter_map(|(e, used)| (!used).then_some(e))
        .collect();
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

/// The 1-based `line` of `text`, or empty when out of range.
fn line_of(text: &str, line: u32) -> String {
    if line == 0 {
        return String::new();
    }
    text.lines()
        .nth(line as usize - 1)
        .unwrap_or_default()
        .to_string()
}
