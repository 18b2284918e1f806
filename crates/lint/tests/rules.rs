//! Fixture-driven tests: one positive and one negative source per lint
//! rule. The fixtures under `tests/fixtures/` are plain text to the lint
//! pass (never compiled) and plain text to cargo (subdirectories of
//! `tests/` are not test targets).

use eadt_lint::allow::{AllowEntry, Allowlist};
use eadt_lint::callgraph::CallGraph;
use eadt_lint::lexer::tokenize;
use eadt_lint::parser::{parse_file, ParsedFile};
use eadt_lint::rules::{
    api_surface, fp_order, hot_alloc, panic_reach, schema, unit_escape, Violation,
};
use eadt_lint::symbols::SymbolTable;

const SCHEMA_EVENT: &str = include_str!("fixtures/schema_event.rs");
const SCHEMA_OK: &str = include_str!("fixtures/schema_design_ok.md");
const SCHEMA_BAD: &str = include_str!("fixtures/schema_design_bad.md");
const FP_BAD: &str = include_str!("fixtures/fp_order_bad.rs");
const FP_OK: &str = include_str!("fixtures/fp_order_ok.rs");
const UNIT_BAD: &str = include_str!("fixtures/unit_escape_bad.rs");
const UNIT_OK: &str = include_str!("fixtures/unit_escape_ok.rs");
const REACH_BAD: &str = include_str!("fixtures/panic_reach_engine_bad.rs");
const REACH_OK: &str = include_str!("fixtures/panic_reach_engine_ok.rs");
const HOT_ALLOC_BAD: &str = include_str!("fixtures/hot_alloc_bad.rs");
const HOT_ALLOC_OK: &str = include_str!("fixtures/hot_alloc_ok.rs");
const API_FIX: &str = include_str!("fixtures/api_surface_fixture.rs");

fn parse(src: &str) -> ParsedFile {
    parse_file(&tokenize(src))
}

/// Runs a per-body rule over every function body in a fixture.
fn over_bodies(
    src: &str,
    mut rule: impl FnMut(&eadt_lint::parser::Expr) -> Vec<Violation>,
) -> Vec<Violation> {
    let pf = parse(src);
    let mut out = Vec::new();
    pf.visit_items(&mut |it, _| {
        if let Some(body) = &it.body {
            out.extend(rule(body));
        }
    });
    out
}

fn schema_check(design: &str) -> Vec<Violation> {
    let toks = tokenize(SCHEMA_EVENT);
    schema::check(&toks, &parse_file(&toks), "event.rs", design, "DESIGN.md")
}

#[test]
fn schema_fixture_in_sync_is_clean() {
    let v = schema_check(SCHEMA_OK);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn schema_fixture_detects_missing_row_field_drift_and_ghost() {
    let v = schema_check(SCHEMA_BAD);
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(v
        .iter()
        .any(|v| v.path == "event.rs" && v.message.contains("probe_window")));
    assert!(v
        .iter()
        .any(|v| v.message.contains("run_start") && v.message.contains("seed_value")));
    assert!(v.iter().any(|v| v.message.contains("ghost_event")));
}

// --- fp-order ----------------------------------------------------------

#[test]
fn fp_order_fixture_catches_every_trap() {
    let v = over_bodies(FP_BAD, |b| fp_order::check_body("fixture.rs", b, true));
    assert_eq!(v.len(), 4, "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("total_cmp")));
    assert!(
        v.iter()
            .filter(|v| v.message.contains("unordered iterator"))
            .count()
            == 2
    );
    assert!(v.iter().any(|v| v.message.contains("as f32")));
}

#[test]
fn fp_order_fixture_negative_is_clean() {
    let v = over_bodies(FP_OK, |b| fp_order::check_body("fixture.rs", b, true));
    assert!(v.is_empty(), "{v:#?}");
}

// --- hot-alloc ---------------------------------------------------------

#[test]
fn hot_alloc_fixture_catches_every_allocating_construct() {
    let v = over_bodies(HOT_ALLOC_BAD, |b| hot_alloc::check_body("fixture.rs", b));
    // Vec::new + vec![] + .collect() + Box::new, plus the closure-hidden
    // fully-qualified Vec::new.
    assert_eq!(v.len(), 5, "{v:#?}");
    for needle in ["`Vec::new`", "`vec!", "`.collect()`", "`Box::new`"] {
        assert!(
            v.iter().any(|v| v.message.contains(needle)),
            "missing {needle} in {v:#?}"
        );
    }
}

#[test]
fn hot_alloc_fixture_negative_is_clean() {
    let v = over_bodies(HOT_ALLOC_OK, |b| hot_alloc::check_body("fixture.rs", b));
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn hot_alloc_list_covers_the_kernel_and_its_helpers() {
    // Every per-slice phase of the engine is hot, executed and replayed
    // alike; the cold entry, setup and halt paths are not.
    for phase in ["run_slice", "book_slice", "replay_window"] {
        assert!(hot_alloc::is_hot(
            "crates/transfer/src/engine/mod.rs",
            phase
        ));
    }
    assert!(hot_alloc::is_hot(
        "crates/net/src/fair.rs",
        "fair_share_into"
    ));
    for cold in ["run_instrumented", "snapshot", "stage_setup"] {
        assert!(!hot_alloc::is_hot(
            "crates/transfer/src/engine/mod.rs",
            cold
        ));
    }
}

// --- unit-escape -------------------------------------------------------

#[test]
fn unit_escape_fixture_catches_cross_family_sum_and_difference() {
    let v = over_bodies(UNIT_BAD, |b| unit_escape::check_body("fixture.rs", b));
    assert_eq!(v.len(), 2, "{v:#?}");
}

#[test]
fn unit_escape_fixture_negative_is_clean() {
    let v = over_bodies(UNIT_OK, |b| unit_escape::check_body("fixture.rs", b));
    assert!(v.is_empty(), "{v:#?}");
}

// --- panic-reach -------------------------------------------------------

/// Builds the walk's symbol table with the fixture standing in for the
/// engine file and stub definitions for the other guaranteed roots.
fn reach_table(engine_src: &str) -> (SymbolTable, Vec<(String, String)>) {
    let files = vec![
        (
            "transfer",
            "crates/transfer/src/engine/mod.rs",
            engine_src.to_string(),
        ),
        (
            "fleet",
            "crates/fleet/src/exec.rs",
            "pub fn advance() {}\npub fn run_to_completion() {}".to_string(),
        ),
        (
            "fleet",
            "crates/fleet/src/service.rs",
            "fn run_rounds() {}".to_string(),
        ),
        (
            "ckpt",
            "crates/ckpt/src/recover.rs",
            "pub fn resume_verified() {}".to_string(),
        ),
        (
            "transfer",
            "crates/transfer/src/engine/checkpoint.rs",
            "pub fn restore() {}".to_string(),
        ),
    ];
    let mut table = SymbolTable::default();
    let mut texts = Vec::new();
    for (krate, path, src) in files {
        table.add_file(krate, path, false, &parse(&src));
        texts.push((path.to_string(), src));
    }
    (table, texts)
}

fn reach_check(engine_src: &str, allow: &Allowlist) -> panic_reach::ReachReport {
    let (table, texts) = reach_table(engine_src);
    let graph = CallGraph::build(&table);
    panic_reach::check(&table, &graph, allow, |file, line| {
        texts
            .iter()
            .find(|(p, _)| p == file)
            .and_then(|(_, src)| src.lines().nth(line as usize - 1))
            .unwrap_or_default()
            .to_string()
    })
}

#[test]
fn panic_reach_fixture_reports_transitive_sink_with_path() {
    let report = reach_check(REACH_BAD, &Allowlist::default());
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
    let v = &report.violations[0];
    assert_eq!(v.rule, "panic-reach");
    assert!(
        v.message.contains("step -> helper -> deep"),
        "{}",
        v.message
    );
}

#[test]
fn panic_reach_fixture_negative_is_clean() {
    // The typed-error chain is fine, and the unwrap in `stray` is
    // unreachable from every root.
    let report = reach_check(REACH_OK, &Allowlist::default());
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn panic_reach_edge_allowlist_severs_the_walk() {
    let cut = Allowlist {
        entries: vec![AllowEntry {
            rule: "panic-reach-edge".into(),
            path: "crates/transfer/src/engine/mod.rs".into(),
            context: "helper();".into(),
            reason: "caught".into(),
        }],
    };
    let report = reach_check(REACH_BAD, &cut);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    // The severed edge is reported so the allowlist staleness check sees
    // the entry doing work.
    assert_eq!(report.severed, vec![0]);
}

#[test]
fn panic_reach_missing_root_is_loud() {
    // Stub out the engine file entirely: the hardcoded root fn is gone,
    // which must surface as a violation, not silently shrink the walk.
    let report = reach_check("pub fn renamed() {}", &Allowlist::default());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("root `step`")),
        "{:#?}",
        report.violations
    );
}

// --- api-surface -------------------------------------------------------

fn api_snapshot(src: &str) -> std::collections::BTreeMap<String, String> {
    let pf = parse(src);
    api_surface::build_snapshots([("crates/demo/src/lib.rs", &pf)].into_iter())
}

#[test]
fn api_surface_fixture_lists_public_items_only() {
    let snaps = api_snapshot(API_FIX);
    let text = snaps.get("demo").expect("crate snapshot");
    assert!(text.contains("pub fn exported"), "{text}");
    assert!(text.contains("pub struct Surface"), "{text}");
    assert!(text.contains("pub visible"), "{text}");
    assert!(text.contains("pub fn reading"), "{text}");
    assert!(!text.contains("hidden"), "{text}");
    assert!(!text.contains("secret"), "{text}");
    assert!(!text.contains("internal"), "{text}");
}

#[test]
fn api_surface_fixture_in_sync_is_clean() {
    let snaps = api_snapshot(API_FIX);
    assert!(api_surface::check(&snaps, &snaps).is_empty());
}

#[test]
fn api_surface_fixture_catches_drift_both_ways_and_missing_file() {
    let computed = api_snapshot(API_FIX);
    // A stray new pub fn: computed gains a line the snapshot lacks.
    let grown = api_snapshot(&format!("{API_FIX}\npub fn stray() {{}}\n"));
    assert!(!api_surface::check(&grown, &computed).is_empty());
    // A removed pub fn: the snapshot keeps a line the code no longer has.
    assert!(!api_surface::check(&computed, &grown).is_empty());
    // A deleted snapshot file.
    let none = std::collections::BTreeMap::new();
    assert!(!api_surface::check(&computed, &none).is_empty());
}

/// A module declared `#[cfg(test)] mod probe;` is test code however its
/// file is named: its public items, and everything under its directory,
/// stay out of the API snapshot and are test-only in the symbol table.
#[test]
fn cfg_test_modules_stay_out_of_the_api_and_are_test_only() {
    let root = std::env::temp_dir().join(format!("eadt-lint-probe-{}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(src.join("probe")).unwrap();
    for (file, text) in [
        ("lib.rs", "#[cfg(test)]\nmod probe;\n\npub fn live() {}\n"),
        ("probe.rs", "mod deep;\n\npub fn oracle() {}\n"),
        ("probe/deep.rs", "pub fn deeper() {}\n"),
    ] {
        std::fs::write(src.join(file), text).unwrap();
    }

    eadt_lint::update_api_snapshots(&root).unwrap();
    let api = std::fs::read_to_string(root.join("docs/api/demo.txt")).unwrap();
    assert!(api.contains("pub fn live()"), "{api}");
    assert!(!api.contains("oracle") && !api.contains("deeper"), "{api}");

    let mut files = eadt_lint::walk::collect_sources(&root).unwrap();
    let parsed: Vec<_> = files.iter().map(|f| parse(&f.text)).collect();
    eadt_lint::walk::mark_test_modules(&mut files, &parsed);
    let mut table = SymbolTable::default();
    for (f, pf) in files.iter().zip(&parsed) {
        table.add_file(f.crate_name(), &f.rel_path, f.test_only, pf);
    }
    let test_only = |name: &str| table.fns.iter().find(|f| f.name == name).unwrap().test_only;
    assert!(test_only("oracle") && test_only("deeper"));
    assert!(!test_only("live"));
    let _ = std::fs::remove_dir_all(&root);
}
