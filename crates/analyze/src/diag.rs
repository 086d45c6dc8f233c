//! The diagnostic model shared by every analysis pass.
//!
//! Every finding — whether from the config linter or a source pass — is
//! a [`Diagnostic`]: a stable lint id, a [`Severity`], the place it was found
//! (a profile name or a `path:line` span), a human-readable message, and a
//! machine-readable explanation map carrying the numbers behind the verdict
//! (so CI artifacts can be post-processed without parsing prose).

use serde::value::Value;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// How bad a finding is.
///
/// Ordering is by badness (`Info < Warn < Deny`), so `--deny warn` is simply
/// a `>=` comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing; never gates.
    Info,
    /// A semantic smell that is sometimes intentional (waivable).
    Warn,
    /// A contract violation; the committed workspace must have none.
    Deny,
}

impl Severity {
    /// The lowercase name used in JSON output and `--deny` arguments.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses a `--deny` argument.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

/// One finding from an analysis pass.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable lint id (e.g. `"limiter-never-fires"`, `"wall-clock"`).
    pub lint: String,
    /// Severity before waivers are considered.
    pub severity: Severity,
    /// Where: a profile name (`"spec:ablation/traditional"`) or a source
    /// span (`"crates/detection/src/engine.rs:286"`).
    pub source: String,
    /// Human-readable statement of the problem.
    pub message: String,
    /// Machine-readable facts behind the verdict (numbers as strings, keys
    /// sorted for stable JSON artifacts).
    pub explanation: BTreeMap<String, String>,
    /// `true` when the owning profile explicitly acknowledged this finding;
    /// waived diagnostics are reported but never gate.
    pub waived: bool,
    /// The waiver's stated reason, when waived.
    pub waive_reason: Option<String>,
}

impl Diagnostic {
    /// Creates a finding with an empty explanation.
    pub fn new(
        lint: &str,
        severity: Severity,
        source: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            lint: lint.to_owned(),
            severity,
            source: source.into(),
            message: message.into(),
            explanation: BTreeMap::new(),
            waived: false,
            waive_reason: None,
        }
    }

    /// Attaches one machine-readable fact (builder style).
    #[must_use]
    pub fn note(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.explanation.insert(key.to_owned(), value.to_string());
        self
    }

    /// Marks the finding as acknowledged by a waiver.
    #[must_use]
    pub fn waived(mut self, reason: &str) -> Self {
        self.waived = true;
        self.waive_reason = Some(reason.to_owned());
        self
    }

    /// `true` when this finding should fail a gate at `level`.
    pub fn gates_at(&self, level: Severity) -> bool {
        !self.waived && self.severity >= level
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:5} {:24} {}\n      {}",
            self.severity, self.lint, self.source, self.message
        )?;
        for (k, v) in &self.explanation {
            write!(f, "\n      · {k}: {v}")?;
        }
        if self.waived {
            write!(
                f,
                "\n      (waived: {})",
                self.waive_reason.as_deref().unwrap_or("no reason given")
            )?;
        }
        Ok(())
    }
}

/// Renders a report: every diagnostic (most severe first, stable within a
/// severity) followed by a one-line summary.
pub fn render_pretty(diags: &[Diagnostic]) -> String {
    let mut ordered: Vec<&Diagnostic> = diags.iter().collect();
    ordered.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.source.cmp(&b.source))
            .then_with(|| a.lint.cmp(&b.lint))
    });
    let mut out = String::new();
    for d in &ordered {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let (mut deny, mut warn, mut info, mut waived) = (0, 0, 0, 0);
    for d in diags {
        if d.waived {
            waived += 1;
            continue;
        }
        match d.severity {
            Severity::Deny => deny += 1,
            Severity::Warn => warn += 1,
            Severity::Info => info += 1,
        }
    }
    out.push_str(&format!(
        "{} diagnostics: {deny} deny, {warn} warn, {info} info ({waived} waived)\n",
        diags.len()
    ));
    out
}

/// Serializes diagnostics as a JSON array (stable key order).
pub fn render_json(diags: &[Diagnostic]) -> String {
    serde_json::to_string_pretty(&diags.to_vec()).expect("diagnostics serialize infallibly")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
        assert_eq!(Severity::parse("warn"), Some(Severity::Warn));
        assert_eq!(Severity::parse("loud"), None);
    }

    #[test]
    fn gating_respects_level_and_waivers() {
        let d = Diagnostic::new("x", Severity::Warn, "here", "msg");
        assert!(d.gates_at(Severity::Info));
        assert!(d.gates_at(Severity::Warn));
        assert!(!d.gates_at(Severity::Deny));
        assert!(!d.clone().waived("intentional").gates_at(Severity::Info));
    }

    #[test]
    fn pretty_report_carries_explanations_and_summary() {
        let diags = vec![
            Diagnostic::new("a-lint", Severity::Warn, "spec:x", "first").note("k", 42),
            Diagnostic::new("b-lint", Severity::Deny, "spec:y", "second"),
            Diagnostic::new("c-lint", Severity::Warn, "spec:z", "third").waived("on purpose"),
        ];
        let report = render_pretty(&diags);
        assert!(report.contains("· k: 42"), "{report}");
        assert!(report.contains("(waived: on purpose)"), "{report}");
        assert!(
            report.contains("3 diagnostics: 1 deny, 1 warn, 0 info (1 waived)"),
            "{report}"
        );
        // Deny sorts first.
        assert!(report.find("b-lint").unwrap() < report.find("a-lint").unwrap());
    }

    #[test]
    fn json_round_trips_the_fields() {
        let d = Diagnostic::new("a-lint", Severity::Deny, "src:1", "msg").note("n", 7);
        let json = render_json(&[d]);
        assert!(json.contains("\"a-lint\""), "{json}");
        assert!(json.contains("\"deny\""), "{json}");
        assert!(json.contains("\"n\""), "{json}");
    }
}
