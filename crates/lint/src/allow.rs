//! The checked-in violation allowlist (`lint-allow.toml`).
//!
//! Each entry grants one rule in one file, optionally narrowed to lines
//! containing a context substring, and must carry a reason — allowlisting
//! is how known violations burn down *explicitly* instead of rotting in
//! comments. The parser is deliberately a tiny hand-rolled subset of TOML
//! (array-of-tables with string values) so `eadt-lint` stays
//! dependency-free.

/// One allowlist entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry silences (`panic-reach`, `panic-reach-edge`,
    /// `schema`, …).
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// When non-empty, only lines containing this substring are allowed.
    pub context: String,
    /// Why the violation is accepted (required, surfaced in `--list-allow`).
    pub reason: String,
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses `lint-allow.toml` text. Only `[[allow]]` tables with
    /// `key = "value"` string pairs are understood; anything else is a
    /// parse error so typos cannot silently widen the allowlist.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut in_entry = false;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                entries.push(AllowEntry::default());
                in_entry = true;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "lint-allow.toml:{}: expected `key = \"value\"`",
                    ln + 1
                ));
            };
            if !in_entry {
                return Err(format!(
                    "lint-allow.toml:{}: key outside an [[allow]] table",
                    ln + 1
                ));
            }
            let key = key.trim();
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| {
                    format!("lint-allow.toml:{}: value must be a quoted string", ln + 1)
                })?;
            let entry = entries
                .last_mut()
                .ok_or("unreachable: in_entry implies entry")?;
            match key {
                "rule" => entry.rule = value.to_string(),
                "path" => entry.path = value.to_string(),
                "context" => entry.context = value.to_string(),
                "reason" => entry.reason = value.to_string(),
                other => return Err(format!("lint-allow.toml:{}: unknown key `{other}`", ln + 1)),
            }
        }
        for (i, e) in entries.iter().enumerate() {
            if e.rule.is_empty() || e.path.is_empty() || e.reason.is_empty() {
                return Err(format!(
                    "lint-allow.toml entry {}: `rule`, `path` and `reason` are all required",
                    i + 1
                ));
            }
        }
        Ok(Allowlist { entries })
    }

    /// The index of the first entry that covers a violation of `rule` at
    /// `path` on a line whose source text is `line_text`, if any.
    pub fn covers(&self, rule: &str, path: &str, line_text: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == rule
                && e.path == path
                && (e.context.is_empty() || line_text.contains(&e.context))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches() {
        let text = r#"
# comment
[[allow]]
rule = "panic-reach"
path = "crates/core/src/baselines.rs"
context = "at least one run"
reason = "constructor clamps max_channel"

[[allow]]
rule = "panic-reach"
path = "crates/core/src/baselines.rs"
reason = "file-wide"
"#;
        let a = Allowlist::parse(text).unwrap();
        assert_eq!(a.entries.len(), 2);
        let path = "crates/core/src/baselines.rs";
        let line = r#".expect("max_channel ≥ 1 yields at least one run")"#;
        assert_eq!(a.covers("panic-reach", path, line), Some(0));
        assert_eq!(a.covers("panic-reach", path, ".unwrap()"), Some(1));
        assert_eq!(a.covers("schema", path, "at least one run"), None);
    }

    #[test]
    fn missing_reason_is_an_error() {
        let text = "[[allow]]\nrule = \"panic-reach\"\npath = \"x.rs\"\n";
        assert!(Allowlist::parse(text).is_err());
    }

    #[test]
    fn unknown_keys_are_errors() {
        let text = "[[allow]]\nrule = \"r\"\npath = \"p\"\nreason = \"w\"\nfoo = \"bar\"\n";
        assert!(Allowlist::parse(text).is_err());
    }
}
