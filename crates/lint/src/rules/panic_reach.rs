//! Panic-reachability: the robustness policy, made transitive.
//!
//! Clippy's `unwrap_used`/`expect_used`/`panic` lints ban those calls in
//! the non-test code of the hot-path crates (`core`, `transfer`,
//! `telemetry`; DESIGN.md §10) — but a panic two calls away in `net` or
//! `power` tears down an engine run just as surely.
//! This rule walks the conservative call graph from the workspace's
//! crash-sensitive roots down to every panic *sink* and reports each
//! reachable one with a sample call path.
//!
//! **Roots** (the surfaces whose liveness the repo guarantees):
//!
//! * `Engine::run_controlled` — the engine entry every algorithm runs
//!   through (DESIGN.md §12);
//! * `Leg::advance` — the fleet executor's guarded leg, which every batch
//!   and service job runs through (§11);
//! * `run_to_completion` — a batch job's checkpoint and outcome files
//!   around its legs (§11, §13);
//! * `ServiceSession::run_rounds` — the service round loop (§16);
//! * `resume_verified` — journal-verified checkpoint recovery (§13).
//!
//! **Sinks**: `.unwrap()` / `.expect(…)` calls, `panic!` invocations,
//! and indexing whose index expression computes (contains arithmetic or
//! a call) — plain `v[i]`/`v[0]` stays exempt, `tail[replayed.len()]`
//! does not.
//!
//! **Allowlisting** is per-sink (rule `panic-reach`, matched on the sink
//! line like any other rule) or per-edge (rule `panic-reach-edge`: the
//! entry's `path`/`context` name a *call site*, and the walk never
//! crosses that edge — e.g. the fleet executor's `catch_unwind`-wrapped
//! leg, where a panic is caught and booked as a `JobFailed` outcome).

use super::Violation;
use crate::allow::Allowlist;
use crate::callgraph::CallGraph;
use crate::parser::Expr;
use crate::symbols::SymbolTable;

/// The crash-sensitive roots: `(file, fn name)`.
pub const ROOTS: &[(&str, &str)] = &[
    ("crates/transfer/src/engine/mod.rs", "run_controlled"),
    ("crates/fleet/src/exec.rs", "advance"),
    ("crates/fleet/src/exec.rs", "run_to_completion"),
    ("crates/fleet/src/service.rs", "run_rounds"),
    ("crates/ckpt/src/recover.rs", "resume_verified"),
];

/// Outcome of the reachability walk.
pub struct ReachReport {
    /// Reachable panic sinks that are not edge-severed.
    pub violations: Vec<Violation>,
    /// Indices into the allowlist of the `panic-reach-edge` entries that
    /// severed at least one edge, ascending.
    pub severed: Vec<usize>,
}

/// Runs the reachability walk, severing the edges that `allow`'s
/// `panic-reach-edge` entries name; `line_text` resolves `(file, line)`
/// to source text for edge matching.
pub fn check(
    table: &SymbolTable,
    graph: &CallGraph,
    allow: &Allowlist,
    mut line_text: impl FnMut(&str, u32) -> String,
) -> ReachReport {
    let mut report = ReachReport {
        violations: Vec::new(),
        severed: Vec::new(),
    };
    let mut roots = Vec::new();
    for (file, name) in ROOTS {
        let found: Vec<usize> = table
            .fns
            .iter()
            .filter(|f| f.file == *file && f.name == *name && !f.test_only)
            .map(|f| f.id)
            .collect();
        if found.is_empty() {
            report.violations.push(Violation {
                rule: "panic-reach",
                path: file.to_string(),
                line: 0,
                message: format!(
                    "root `{name}` not found — the panic-reachability walk lost a guaranteed \
                     surface; update ROOTS in panic_reach.rs if it moved"
                ),
            });
        }
        roots.extend(found);
    }

    // Sever allowlisted edges, recording which entries fired.
    let mut fired = vec![false; allow.entries.len()];
    let reached = graph.reach(&roots, |e| {
        let caller = table.def(e.caller);
        let mut cut = false;
        for (k, entry) in allow.entries.iter().enumerate() {
            if entry.rule == "panic-reach-edge"
                && caller.file == entry.path
                && (entry.context.is_empty()
                    || line_text(&caller.file, e.line).contains(&entry.context))
            {
                fired[k] = true;
                cut = true;
            }
        }
        cut
    });
    report.severed = (0..fired.len()).filter(|&k| fired[k]).collect();

    // Nested helper fns are reachable both as their own def and inlined
    // in their parent's body (parser.rs), so the same sink can surface
    // twice — dedup by location.
    let mut seen = std::collections::BTreeSet::new();
    for &id in reached.keys() {
        let def = table.def(id);
        if def.test_only {
            continue;
        }
        let Some(body) = def.body else { continue };
        let path_str = graph.sample_path(table, &reached, id);
        for (line, what) in sinks(&table.bodies[body]) {
            if !seen.insert((def.file.clone(), line, what.clone())) {
                continue;
            }
            report.violations.push(Violation {
                rule: "panic-reach",
                path: def.file.clone(),
                line,
                message: format!(
                    "{what} reachable from a guaranteed surface (path: {path_str}): return a \
                     typed error or allowlist with a safety argument"
                ),
            });
        }
    }
    report
}

/// Collects panic sinks in a body as `(line, description)`.
pub fn sinks(body: &Expr) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    body.visit(&mut |e| match e {
        Expr::MethodCall { method, line, .. } if method == "unwrap" || method == "expect" => {
            out.push((*line, format!("`.{method}()`")));
        }
        Expr::Macro { name, line, .. } if name == "panic" => {
            out.push((*line, "`panic!`".to_string()));
        }
        Expr::Index { index, line, .. } if index_computes(index) => {
            out.push((
                *line,
                "indexing with a computed index (out-of-bounds panics)".to_string(),
            ));
        }
        _ => {}
    });
    out
}

/// True when an index expression computes: contains arithmetic or any
/// call. `v[i]`, `v[0]` and `v[*p]` stay exempt — bounds there are
/// locally evident — while `v[i + 1]` and `v[xs.len()]` are sinks.
fn index_computes(index: &Expr) -> bool {
    let mut computes = false;
    index.visit(&mut |e| match e {
        Expr::Binary { op, .. } if matches!(op.as_str(), "+" | "-" | "*" | "/" | "%") => {
            computes = true;
        }
        Expr::Call { .. } | Expr::MethodCall { .. } => computes = true,
        _ => {}
    });
    computes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    fn setup(files: &[(&str, &str)]) -> (SymbolTable, CallGraph) {
        let mut t = SymbolTable::default();
        for (path, src) in files {
            t.add_file("x", path, false, &parse_file(&tokenize(src)));
        }
        let g = CallGraph::build(&t);
        (t, g)
    }

    const ENGINE: &str = "crates/transfer/src/engine/mod.rs";

    #[test]
    fn transitive_unwrap_is_reported_with_path() {
        let (t, g) = setup(&[
            (
                ENGINE,
                "struct Engine;\nimpl Engine { pub fn run_controlled(&self) { helper(); } }\nfn helper() { deep(); }\nfn deep(x: Option<u32>) { x.unwrap(); }",
            ),
            (
                "crates/fleet/src/exec.rs",
                "fn advance() {}\nfn run_to_completion() {}",
            ),
            ("crates/fleet/src/service.rs", "fn run_rounds() {}"),
            ("crates/ckpt/src/recover.rs", "pub fn resume_verified() {}"),
        ]);
        let r = check(&t, &g, &Allowlist::default(), |_, _| String::new());
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0]
            .message
            .contains("run_controlled -> helper -> deep"));
    }

    #[test]
    fn unreachable_unwrap_is_not_reported() {
        let (t, g) = setup(&[
            (
                ENGINE,
                "struct Engine;\nimpl Engine { pub fn run_controlled(&self) {} }\nfn stray(x: Option<u32>) { x.unwrap(); }",
            ),
            (
                "crates/fleet/src/exec.rs",
                "fn advance() {}\nfn run_to_completion() {}",
            ),
            ("crates/fleet/src/service.rs", "fn run_rounds() {}"),
            ("crates/ckpt/src/recover.rs", "pub fn resume_verified() {}"),
        ]);
        let r = check(&t, &g, &Allowlist::default(), |_, _| String::new());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn severed_edge_stops_the_walk_and_is_recorded() {
        let (t, g) = setup(&[
            (
                ENGINE,
                "struct Engine;\nimpl Engine { pub fn run_controlled(&self) { guarded(); } }\nfn guarded(x: Option<u32>) { x.unwrap(); }",
            ),
            (
                "crates/fleet/src/exec.rs",
                "fn advance() {}\nfn run_to_completion() {}",
            ),
            ("crates/fleet/src/service.rs", "fn run_rounds() {}"),
            ("crates/ckpt/src/recover.rs", "pub fn resume_verified() {}"),
        ]);
        let allow = Allowlist {
            entries: vec![crate::allow::AllowEntry {
                rule: "panic-reach-edge".into(),
                path: ENGINE.into(),
                context: "guarded(".into(),
                reason: "caught".into(),
            }],
        };
        let r = check(&t, &g, &allow, |_, _| "guarded();".to_string());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.severed, vec![0]);
    }

    #[test]
    fn computed_index_is_a_sink_plain_index_is_not() {
        let (t, g) = setup(&[
            (
                ENGINE,
                "struct Engine;\nimpl Engine { pub fn run_controlled(&self, v: &[u32], i: usize) { let a = v[i]; let b = v[i + 1]; } }",
            ),
            (
                "crates/fleet/src/exec.rs",
                "fn advance() {}\nfn run_to_completion() {}",
            ),
            ("crates/fleet/src/service.rs", "fn run_rounds() {}"),
            ("crates/ckpt/src/recover.rs", "pub fn resume_verified() {}"),
        ]);
        let r = check(&t, &g, &Allowlist::default(), |_, _| String::new());
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("computed index"));
    }

    #[test]
    fn missing_root_degrades_loudly() {
        let (t, g) = setup(&[("crates/other/src/lib.rs", "fn nothing() {}")]);
        let r = check(&t, &g, &Allowlist::default(), |_, _| String::new());
        assert_eq!(r.violations.len(), ROOTS.len());
        assert!(r.violations[0].message.contains("root"));
    }
}
