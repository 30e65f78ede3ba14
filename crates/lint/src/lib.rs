//! `wlan-lint` — static verification of simulation inputs.
//!
//! The paper's central claim is that system-level verification catches
//! RF integration faults *before* silicon; this crate shifts the same
//! idea left once more and catches broken simulation inputs before a
//! single sample is produced. Two lint passes:
//!
//! * [`dataflow::lint_graph`] — SDF connectivity, balance-equation
//!   consistency, deadlock freedom and buffer-bound derivation for
//!   [`wlan_dataflow::graph::Graph`] schematics.
//! * [`ams::lint_netlist`] — structural and parametric checks on AMS
//!   behavioral netlists: floating/dangling nodes, double-driven nodes,
//!   feedback loops, unknown models, missing or non-physical
//!   parameters, and structural singularity (no input→output path).
//! * [`units::lint_paths`] — the dimension-safety ratchet: raw
//!   `10^(x/10)`-style dB math and unit-suffixed raw `f64` public
//!   fields are only legal inside `crates/units` or on allowlisted
//!   serialization boundaries.
//! * [`numerology::lint_paths`] — the grid-safety ratchet: hard-coded
//!   OFDM numerology literals (`20e6`, bare `64`/`16` in FFT/CP
//!   context) are only legal in `crates/phy/src/params.rs` and
//!   `crates/phy/src/profile.rs` or on allowlisted sites.
//!
//! Findings are [`Diagnostic`]s collected into a [`Report`] that
//! renders as human-readable text or machine-readable JSON, and the
//! `wlan-lint` binary walks every built-in experiment graph and netlist
//! (plus any `.net` files given on the command line) for CI use.

#![forbid(unsafe_code)]

pub mod ams;
pub mod dataflow;
pub mod numerology;
pub mod units;

/// Schema version of the JSON report emitted by [`Report::to_json`].
/// Bump on any structural change so CI consumers can diff artifacts
/// across runs without sniffing fields.
pub const JSON_SCHEMA_VERSION: u32 = 1;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but runnable; does not fail the lint.
    Warning,
    /// The input is broken; the simulation would misbehave or refuse to
    /// run. Fails the lint.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity level.
    pub severity: Severity,
    /// Stable machine-readable code (`DF0xx` dataflow, `AMS0xx` netlist
    /// errors, `AMS1xx` netlist warnings, `UN0xx` units, `NM0xx`
    /// numerology).
    pub code: &'static str,
    /// The graph or netlist the finding belongs to.
    pub target: String,
    /// The offending node/block/instance, empty when the finding
    /// concerns the whole target.
    pub subject: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates an error finding.
    pub fn error(
        code: &'static str,
        target: impl Into<String>,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            target: target.into(),
            subject: subject.into(),
            message: message.into(),
        }
    }

    /// Creates a warning finding.
    pub fn warning(
        code: &'static str,
        target: impl Into<String>,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            target: target.into(),
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.target)?;
        if !self.subject.is_empty() {
            write!(f, " · {}", self.subject)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// A collection of findings across one or more lint targets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Names of the targets that were checked (including clean ones).
    pub targets: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records that `target` was checked and appends its findings.
    pub fn add_target(&mut self, target: impl Into<String>, findings: Vec<Diagnostic>) {
        self.targets.push(target.into());
        self.diagnostics.extend(findings);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when any finding is an error (the lint fails).
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} target(s) checked: {} error(s), {} warning(s)\n",
            self.targets.len(),
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Renders the machine-readable JSON report (schema
    /// [`JSON_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": {JSON_SCHEMA_VERSION},\n  \"targets\": [");
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(t));
        }
        out.push_str("],\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"severity\": {}, \"code\": {}, \"target\": {}, \"subject\": {}, \"message\": {}",
                json_string(&d.severity.to_string()),
                json_string(d.code),
                json_string(&d.target),
                json_string(&d.subject),
                json_string(&d.message)
            ));
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"errors\": {},\n  \"warnings\": {}\n}}\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_flags() {
        let mut r = Report::new();
        r.add_target(
            "t1",
            vec![
                Diagnostic::error("DF001", "t1", "x", "broken"),
                Diagnostic::warning("AMS101", "t1", "y", "odd"),
            ],
        );
        r.add_target("t2", vec![]);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert_eq!(r.targets.len(), 2);
        let text = r.render();
        assert!(text.contains("error[DF001] t1 · x: broken"), "{text}");
        assert!(text.contains("2 target(s) checked: 1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut r = Report::new();
        r.add_target(
            "net \"a\"",
            vec![Diagnostic::error("AMS001", "net \"a\"", "", "line\n1")],
        );
        let json = r.to_json();
        assert!(json.contains("\"net \\\"a\\\"\""), "{json}");
        assert!(json.contains("\"line\\n1\""), "{json}");
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\"warnings\": 0"));
        assert!(json.contains(&format!("\"schema\": {JSON_SCHEMA_VERSION}")));
    }
}
