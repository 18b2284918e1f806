//! Machine-readable report rendering: `--format json` and
//! `--format sarif`.
//!
//! Both serializers are hand-rolled (the lint crate stays
//! dependency-free) and emit keys in a fixed order, so the output is as
//! byte-stable as the report itself. The SARIF output is a minimal
//! SARIF 2.1.0 document — one run, one result per violation — which is
//! what CI needs to annotate PR lines.

use crate::rules::Violation;
use crate::Report;

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn violation_json(v: &Violation) -> String {
    format!(
        r#"{{"rule":"{}","path":"{}","line":{},"message":"{}"}}"#,
        esc(v.rule),
        esc(&v.path),
        v.line,
        esc(&v.message)
    )
}

/// Renders the report as a single JSON object:
/// `{"files":N,"violations":[…],"allowed":[…]}`.
pub fn json(report: &Report) -> String {
    let vs: Vec<String> = report.violations.iter().map(violation_json).collect();
    let als: Vec<String> = report.allowed.iter().map(violation_json).collect();
    format!(
        r#"{{"files":{},"violations":[{}],"allowed":[{}]}}"#,
        report.files,
        vs.join(","),
        als.join(",")
    )
}

/// Renders the report as a minimal SARIF 2.1.0 document.
pub fn sarif(report: &Report) -> String {
    let mut rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    let rule_objs: Vec<String> = rules
        .iter()
        .map(|r| format!(r#"{{"id":"{}"}}"#, esc(r)))
        .collect();
    let results: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                concat!(
                    r#"{{"ruleId":"{}","level":"warning","message":{{"text":"{}"}},"#,
                    r#""locations":[{{"physicalLocation":{{"artifactLocation":{{"uri":"{}"}},"#,
                    r#""region":{{"startLine":{}}}}}}}]}}"#
                ),
                esc(v.rule),
                esc(&v.message),
                esc(&v.path),
                v.line.max(1)
            )
        })
        .collect();
    format!(
        concat!(
            r#"{{"version":"2.1.0","#,
            r#""$schema":"https://json.schemastore.org/sarif-2.1.0.json","#,
            r#""runs":[{{"tool":{{"driver":{{"name":"eadt-lint","rules":[{}]}}}},"#,
            r#""results":[{}]}}]}}"#
        ),
        rule_objs.join(","),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_report() -> Report {
        Report {
            violations: vec![Violation {
                rule: "fp-order",
                path: "crates/net/src/fair.rs".into(),
                line: 87,
                message: "`partial_cmp` inside `sort_by`: use \"total_cmp\"".into(),
            }],
            allowed: vec![Violation {
                rule: "panic-reach",
                path: "crates/core/src/baselines.rs".into(),
                line: 10,
                message: "allowed".into(),
            }],
            stale: Vec::new(),
            files: 2,
        }
    }

    #[test]
    fn json_is_wellformed_and_escaped() {
        let j = json(&demo_report());
        assert!(j.starts_with(r#"{"files":2,"#), "{j}");
        assert!(j.contains(r#"\"total_cmp\""#), "{j}");
        assert!(j.contains(r#""allowed":[{"rule":"panic-reach""#), "{j}");
        // Balanced braces/brackets → structurally plausible JSON.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn sarif_has_schema_rules_and_locations() {
        let s = sarif(&demo_report());
        assert!(s.contains(r#""version":"2.1.0""#));
        assert!(s.contains(r#""name":"eadt-lint""#));
        assert!(s.contains(r#"{"id":"fp-order"}"#));
        assert!(s.contains(r#""uri":"crates/net/src/fair.rs""#));
        assert!(s.contains(r#""startLine":87"#));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn file_level_findings_clamp_to_line_one() {
        let mut r = demo_report();
        r.violations[0].line = 0;
        assert!(sarif(&r).contains(r#""startLine":1"#));
    }
}
