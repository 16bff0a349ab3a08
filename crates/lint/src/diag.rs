//! Diagnostics and their renderings (human `file:line`, JSON, GitHub
//! Actions workflow annotations, and SARIF 2.1.0).

use rcr_json::{encode_str, JsonValue};
use std::fmt::Write as _;

/// One finding: a rule violation or a malformed pragma.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule slug, e.g. `float-total-cmp`; malformed pragmas report as
    /// `bad-pragma`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// For semantic findings, the fn symbol (`Type::name` or `name`)
    /// the finding is anchored to — the ratchet baseline keys on it.
    pub symbol: Option<String>,
}

impl Diagnostic {
    /// `path/to/file.rs:12: [rule] message` — clickable in most
    /// terminals and editors.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// A GitHub Actions workflow command (`--format=github`): the
    /// runner turns it into an inline annotation on the PR diff.
    pub fn render_github(&self) -> String {
        format!(
            "::error file={},line={},title=rcr-lint/{}::{}",
            gh_escape(&self.file),
            self.line,
            gh_escape(self.rule),
            gh_escape(&self.message)
        )
    }
}

/// Workflow-command escaping: `%`, CR, and LF are the only characters
/// with meaning inside a `::error ...::` payload.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Renders diagnostics as a JSON array (`--format=json`). Hand-rolled
/// on purpose: the tool is std-only and the schema is four flat fields.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}",
            encode_str(d.rule),
            encode_str(&d.file),
            d.line,
            encode_str(&d.message)
        );
        if let Some(sym) = &d.symbol {
            let _ = write!(out, ",\"symbol\":{}", encode_str(sym));
        }
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Renders diagnostics as a minimal SARIF 2.1.0 log (`--format=sarif`)
/// — one run, one driver, one result per diagnostic — the subset CI
/// code-scanning uploads and SARIF viewers need.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut rule_ids: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    rule_ids.sort_unstable();
    rule_ids.dedup();
    let rules: Vec<JsonValue> = rule_ids
        .into_iter()
        .map(|id| obj(vec![("id", s(id))]))
        .collect();
    let results: Vec<JsonValue> = diags
        .iter()
        .map(|d| {
            obj(vec![
                ("ruleId", s(d.rule)),
                ("level", s("error")),
                ("message", obj(vec![("text", s(&d.message))])),
                (
                    "locations",
                    JsonValue::Array(vec![obj(vec![(
                        "physicalLocation",
                        obj(vec![
                            ("artifactLocation", obj(vec![("uri", s(&d.file))])),
                            // SARIF lines are 1-based; clamp line-0
                            // (whole-file) findings to 1.
                            ("region", obj(vec![("startLine", n(d.line.max(1) as u64))])),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            JsonValue::Array(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("rcr-lint")),
                            ("rules", JsonValue::Array(rules)),
                        ]),
                    )]),
                ),
                ("results", JsonValue::Array(results)),
            ])]),
        ),
    ]);
    doc.render()
}

/// An object with its fields sorted by key, so every document the tool
/// writes (SARIF, baseline, cache) is canonical and diffs cleanly.
pub(crate) fn obj(mut fields: Vec<(&str, JsonValue)>) -> JsonValue {
    fields.sort_by_key(|(k, _)| *k);
    JsonValue::Object(fields.into_iter().collect())
}

pub(crate) fn s(text: &str) -> JsonValue {
    JsonValue::String(text.to_string())
}

pub(crate) fn n(v: u64) -> JsonValue {
    JsonValue::UInt(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let diags = vec![Diagnostic {
            rule: "float-literal-eq",
            file: "a\\b.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
            symbol: None,
        }];
        let j = render_json(&diags);
        assert!(j.contains(r#""file":"a\\b.rs""#));
        assert!(j.contains(r#""message":"say \"no\"""#));
        assert!(!j.contains("symbol"));
        assert_eq!(render_json(&[]), "[]");
    }

    #[test]
    fn github_annotations_escape_the_payload() {
        let d = Diagnostic {
            rule: "unchecked-time-arithmetic",
            file: "crates/serve/src/queue.rs".into(),
            line: 42,
            message: "raw `-` underflows\nat 100% load".into(),
            symbol: Some("Lane::ready".into()),
        };
        assert_eq!(
            d.render_github(),
            "::error file=crates/serve/src/queue.rs,line=42,\
             title=rcr-lint/unchecked-time-arithmetic\
             ::raw `-` underflows%0Aat 100%25 load"
        );
    }

    #[test]
    fn sarif_log_has_schema_rules_and_result_locations() {
        let diags = vec![
            Diagnostic {
                rule: "db-linear-mix",
                file: "crates/qos/src/power.rs".into(),
                line: 12,
                message: "adds dB to linear".into(),
                symbol: Some("combine/db-mix".into()),
            },
            Diagnostic {
                rule: "db-linear-mix",
                file: "crates/qos/src/power.rs".into(),
                line: 30,
                message: "again".into(),
                symbol: None,
            },
        ];
        let log = render_sarif(&diags);
        let v = rcr_json::parse(&log).unwrap();
        assert_eq!(v.get("version").and_then(JsonValue::as_str), Some("2.1.0"));
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        let driver = run.get("tool").unwrap().get("driver").unwrap();
        assert_eq!(
            driver.get("name").and_then(JsonValue::as_str),
            Some("rcr-lint")
        );
        // Two results, but the rule table is deduplicated.
        assert_eq!(driver.get("rules").unwrap().as_array().unwrap().len(), 1);
        let results = run.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        let loc = &results[0].get("locations").unwrap().as_array().unwrap()[0];
        let phys = loc.get("physicalLocation").unwrap();
        assert_eq!(
            phys.get("artifactLocation")
                .unwrap()
                .get("uri")
                .and_then(JsonValue::as_str),
            Some("crates/qos/src/power.rs")
        );
        assert_eq!(
            phys.get("region")
                .unwrap()
                .get("startLine")
                .and_then(JsonValue::as_u64),
            Some(12)
        );
    }

    #[test]
    fn documents_are_built_with_sorted_keys() {
        let v = obj(vec![
            ("z", n(1)),
            ("a", obj(vec![("y", s("q")), ("b", n(2))])),
        ]);
        assert_eq!(v.render(), r#"{"a":{"b":2,"y":"q"},"z":1}"#);
    }

    #[test]
    fn symbol_field_is_emitted_when_present() {
        let diags = vec![Diagnostic {
            rule: "panic-reachability",
            file: "lib.rs".into(),
            line: 7,
            message: "m".into(),
            symbol: Some("Engine::solve_item".into()),
        }];
        assert!(render_json(&diags).contains(r#""symbol":"Engine::solve_item""#));
    }
}
