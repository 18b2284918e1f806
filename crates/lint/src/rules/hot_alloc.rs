//! Hot-alloc lint: the slice kernel's zero-allocation contract, made
//! structural.
//!
//! The SoA refactor (DESIGN.md §17) moved every per-slice buffer into
//! the run-owned `SliceArena`, and the `perf_gate` counting-allocator
//! test proves the steady-state slice loop performs **zero** heap
//! allocations at runtime. That proof is statistical (a measured window
//! of one scenario); this rule is the syntactic backstop: inside the
//! configured hot functions — the engine's per-slice phase functions,
//! their per-channel helpers, the fair-share and placement kernels — the
//! allocating constructs `Vec::new`, `vec![…]`, `.collect()` and
//! `Box::new` are flagged outright.
//!
//! Cold work (run setup, stage setup, the resume restore, the halt
//! checkpoint, the final report) lives in functions of its own that are
//! not on the list, so the hot list needs no exemptions. Should a cold
//! allocation ever have to sit inside a hot function, it burns down
//! through a `lint-allow.toml` entry whose context pins the exact line.

use super::Violation;
use crate::parser::Expr;

/// The hot-function list: `(repo-relative path, function name)`.
///
/// Everything the per-slice path executes: the engine's slice loop and
/// its phase functions (DESIGN.md §17), the per-chunk/per-channel
/// helpers they call every slice, the fair-share solver and the
/// placement kernels. Additions here should come with a `perf_gate`
/// scenario that actually drives the new function.
pub const HOT_FUNCTIONS: &[(&str, &str)] = &[
    ("crates/transfer/src/engine/mod.rs", "drive_stage"),
    ("crates/transfer/src/engine/mod.rs", "run_slice"),
    ("crates/transfer/src/engine/mod.rs", "sync_channels"),
    ("crates/transfer/src/engine/mod.rs", "place_on_sites"),
    ("crates/transfer/src/engine/mod.rs", "kill_faulted"),
    ("crates/transfer/src/engine/mod.rs", "tick_working_set"),
    ("crates/transfer/src/engine/mod.rs", "demand_and_grant"),
    ("crates/transfer/src/engine/mod.rs", "solve_grants"),
    ("crates/transfer/src/engine/mod.rs", "advance_channels"),
    ("crates/transfer/src/engine/mod.rs", "book_slice"),
    ("crates/transfer/src/engine/mod.rs", "consult_controller"),
    ("crates/transfer/src/engine/mod.rs", "horizon_window"),
    ("crates/transfer/src/engine/mod.rs", "replay_window"),
    ("crates/transfer/src/engine/mod.rs", "backoff_tick"),
    ("crates/transfer/src/engine/mod.rs", "book"),
    ("crates/transfer/src/engine/mod.rs", "rebalance_targets"),
    ("crates/transfer/src/engine/mod.rs", "busiest_chunk"),
    ("crates/transfer/src/engine/mod.rs", "sync_chunk_channels"),
    ("crates/transfer/src/engine/mod.rs", "advance_channel"),
    ("crates/transfer/src/engine/mod.rs", "assign_servers_into"),
    ("crates/transfer/src/engine/mod.rs", "apply_disk_fairness"),
    ("crates/transfer/src/engine/mod.rs", "steady_move_bound"),
    ("crates/transfer/src/engine/mod.rs", "site_power"),
    ("crates/net/src/fair.rs", "fair_share_into"),
    ("crates/endsys/src/site.rs", "place_channels_into"),
    ("crates/endsys/src/site.rs", "place_channels_masked_into"),
];

/// True when `(path, fn_name)` is on the hot list.
pub fn is_hot(path: &str, fn_name: &str) -> bool {
    HOT_FUNCTIONS.contains(&(path, fn_name))
}

/// Flags every allocating construct in one (hot) function body.
pub fn check_body(path: &str, body: &Expr) -> Vec<Violation> {
    let mut out = Vec::new();
    body.visit(&mut |e| match e {
        Expr::Call { callee, line, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if path_ends_with(segs, "Vec", "new") {
                    flag(path, *line, "`Vec::new`", &mut out);
                } else if path_ends_with(segs, "Box", "new") {
                    flag(path, *line, "`Box::new`", &mut out);
                }
            }
        }
        Expr::Macro { name, line, .. } if name == "vec" => {
            flag(path, *line, "`vec![…]`", &mut out);
        }
        Expr::MethodCall { method, line, .. } if method == "collect" => {
            flag(path, *line, "`.collect()`", &mut out);
        }
        _ => {}
    });
    out
}

/// True when the path's last two segments are `a::b` (or the path is
/// exactly `b` preceded by `a`, e.g. `std::vec::Vec::new`).
fn path_ends_with(segs: &[String], a: &str, b: &str) -> bool {
    let n = segs.len();
    n >= 2 && segs[n - 2] == a && segs[n - 1] == b
}

fn flag(path: &str, line: u32, construct: &str, out: &mut Vec<Violation>) {
    out.push(Violation {
        rule: "hot-alloc",
        path: path.to_string(),
        line,
        message: format!(
            "{construct} in a hot function: the slice kernel must not allocate — reuse a \
             `SliceArena` buffer or an `*_into` variant (DESIGN.md §17); cold work \
             (halt/resume/once-per-run) belongs in a function off the hot list"
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    fn run(src: &str) -> Vec<Violation> {
        let pf = parse_file(&tokenize(src));
        let mut out = Vec::new();
        pf.visit_items(&mut |it, stack| {
            if stack
                .iter()
                .any(|p| matches!(p.kind, crate::parser::ItemKind::Fn))
            {
                return;
            }
            if let Some(body) = &it.body {
                out.extend(check_body("x.rs", body));
            }
        });
        out
    }

    #[test]
    fn flags_all_four_constructs() {
        let src = r#"
            fn kernel(n: usize) {
                let a: Vec<u32> = Vec::new();
                let b = vec![0u8; n];
                let c: Vec<u32> = (0..n).map(|i| i as u32).collect();
                let d = Box::new(a);
            }
        "#;
        let v = run(src);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v[0].message.contains("`Vec::new`"));
        assert!(v[1].message.contains("`vec!"));
        assert!(v[2].message.contains("`.collect()`"));
        assert!(v[3].message.contains("`Box::new`"));
    }

    #[test]
    fn flags_fully_qualified_paths_and_closures() {
        let src = r#"
            fn kernel(n: usize) {
                let f = || std::vec::Vec::new();
                let g = std::boxed::Box::new(0u8);
            }
        "#;
        assert_eq!(run(src).len(), 2);
    }

    #[test]
    fn arena_reuse_passes() {
        let src = r#"
            fn kernel(arena: &mut SliceArena, demands: &[f64]) {
                arena.grants.clear();
                arena.grants.extend_from_slice(demands);
                fair_share_into(&arena.demands, cap, &mut arena.grants, &mut arena.fair);
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn other_news_pass() {
        // Non-allocating constructors stay legal: the rule targets the
        // four named allocating constructs, not `new` generally.
        let src = "fn kernel() { let t = TimeSeries::new(); let s = String::new(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn hot_list_lookup_matches_exactly() {
        assert!(is_hot("crates/net/src/fair.rs", "fair_share_into"));
        assert!(!is_hot("crates/net/src/fair.rs", "fair_share"));
        assert!(!is_hot("crates/net/src/other.rs", "fair_share_into"));
    }
}
