//! Macro-stepping horizon-coverage lint.
//!
//! The transfer engine's event-horizon fast path (DESIGN.md §12) trusts
//! `Controller::next_decision_in()` to promise how many slices may be
//! skipped before the controller must run again. An over-promising
//! implementation silently corrupts the bit-for-bit equivalence between
//! macro-stepped and slice-by-slice execution — and nothing at compile
//! time connects a new controller to the suite that would catch it. This
//! rule closes that gap: every production `impl Controller for X` that
//! overrides `next_decision_in` must be exercised by name in
//! `tests/macro_equivalence.rs`.

use super::Violation;
use crate::symbols::SymbolTable;

/// The equivalence suite every overriding controller must appear in,
/// relative to the repo root.
pub const SUITE_PATH: &str = "tests/macro_equivalence.rs";

/// Checks every non-test `next_decision_in` defined in an `impl
/// Controller for X`: `X` must be named in `suite_src` (the text of
/// [`SUITE_PATH`]). The trait's own default has no self type and is
/// skipped.
pub fn check(table: &SymbolTable, suite_src: &str) -> Vec<Violation> {
    table
        .fns
        .iter()
        .filter(|f| {
            !f.test_only
                && f.name == "next_decision_in"
                && f.trait_name.as_deref() == Some("Controller")
        })
        .filter_map(|f| {
            let name = f.self_ty.as_deref()?;
            (!suite_src.contains(name)).then(|| Violation {
                rule: "horizon",
                path: f.file.clone(),
                line: f.line,
                message: format!(
                    "`{name}` overrides `Controller::next_decision_in` but is not \
                     exercised in {SUITE_PATH} — its horizon promise is unverified"
                ),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    const SRC: &str = r#"
        pub trait Controller {
            fn on_slice(&mut self) -> u32;
            fn next_decision_in(&self) -> u64 { 0 }
        }
        pub struct Quiet;
        impl Controller for Quiet {
            fn on_slice(&mut self) -> u32 { 0 }
        }
        pub struct Promising;
        impl Controller for Promising {
            fn on_slice(&mut self) -> u32 { 0 }
            fn next_decision_in(&self) -> u64 { u64::MAX }
        }
        pub struct Wrapped<C>(C);
        impl<C: Controller> Controller for Wrapped<C> {
            fn on_slice(&mut self) -> u32 { 0 }
            fn next_decision_in(&self) -> u64 { 1 }
        }
        impl std::fmt::Debug for Promising {
            fn fmt(&self, _f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
        }
    "#;

    fn run(src: &str, suite: &str) -> Vec<Violation> {
        let mut table = SymbolTable::default();
        table.add_file("transfer", "control.rs", false, &parse_file(&tokenize(src)));
        check(&table, suite)
    }

    #[test]
    fn covered_overrides_pass() {
        let v = run(SRC, "uses Promising and Wrapped here");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn uncovered_overrides_are_flagged() {
        let v = run(SRC, "only Promising appears");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Wrapped"));
        assert_eq!(v[0].rule, "horizon");
    }

    #[test]
    fn trait_default_and_non_overriding_impls_are_ignored() {
        // Neither the trait's own default nor `Quiet` (no override) ever
        // needs coverage, whatever the suite says.
        let v = run(SRC, "Promising Wrapped");
        assert!(v.iter().all(|v| !v.message.contains("Quiet")));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_gated_controllers_are_ignored() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                impl Controller for Probe {
                    fn next_decision_in(&self) -> u64 { 9 }
                }
            }
        "#;
        let v = run(src, "");
        assert!(v.is_empty(), "{v:?}");
    }
}
