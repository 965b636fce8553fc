//! Diagnostics: severities, codes, spans, and rendering.
//!
//! Every finding of the analyzer is a [`Diagnostic`] carrying a stable
//! code (`PP0xx` parse shape, `PP1xx` ruleset, `PP2xx` program), a
//! severity, an optional source [`Span`], and — when the source text is
//! available — the offending line for caret rendering. A [`Report`]
//! collects diagnostics for one lint target and renders them for humans
//! (rustc-style, with carets) or machines (JSON Lines via
//! [`pp_engine::json`]).

use pp_engine::json::Json;
use pp_rules::parse::Span;
use std::fmt;

/// How serious a diagnostic is.
///
/// Errors make `ppsim lint` exit nonzero; warnings and infos do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The input is broken: simulation would be meaningless or rejected.
    Error,
    /// Suspicious but runnable; shipped protocols may carry warnings.
    Warning,
    /// Context the analyzer wants to surface (e.g. a skipped check).
    Info,
}

impl Severity {
    /// Lowercase label used in rendered output (`error`, `warning`, `info`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable diagnostic code, e.g. `PP101`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Source location, when the target came from a file.
    pub span: Option<Span>,
    /// The source line the span points into (for caret rendering).
    pub snippet: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no location.
    #[must_use]
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Self {
            code,
            severity,
            message: message.into(),
            span: None,
            snippet: None,
        }
    }

    /// Attaches a source span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches the source line the span points into.
    #[must_use]
    pub fn with_snippet(mut self, snippet: impl Into<String>) -> Self {
        self.snippet = Some(snippet.into());
        self
    }

    /// Renders the diagnostic rustc-style:
    ///
    /// ```text
    /// warning[PP102]: rule is a no-op: `(A) + (.) -> (A) + (.)` never changes a matching pair
    ///   --> line 7, col 9
    ///    |   > (A) + (.) -> (A) + (.)
    ///    |     ^^^^^^^^^^^^^^^^^^^^^^
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if let Some(span) = self.span {
            out.push_str(&format!("\n  --> line {}, col {}", span.line, span.col));
            if let Some(snippet) = &self.snippet {
                let pad: String = snippet
                    .chars()
                    .take(span.col.saturating_sub(1))
                    .map(|c| if c == '\t' { '\t' } else { ' ' })
                    .collect();
                let carets = "^".repeat(span.len.max(1));
                out.push_str(&format!("\n   | {snippet}\n   | {pad}{carets}"));
            }
        }
        out
    }

    /// The diagnostic as a single JSON object (one JSONL record).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("code", Json::from(self.code)),
            ("severity", Json::from(self.severity.label())),
            ("message", Json::from(self.message.clone())),
        ];
        if let Some(span) = self.span {
            fields.push(("line", Json::from(span.line)));
            fields.push(("col", Json::from(span.col)));
            fields.push(("len", Json::from(span.len)));
        }
        if let Some(snippet) = &self.snippet {
            fields.push(("snippet", Json::from(snippet.clone())));
        }
        Json::obj(fields)
    }
}

/// A collection of diagnostics for one lint target.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The findings, in the order checks produced them (sorted by
    /// [`Report::sort`]).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Whether any diagnostic is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Counts by severity: `(errors, warnings, infos)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }

    /// Sorts diagnostics by source position, then severity, then code, so
    /// output order tracks the file top to bottom.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by_key(|d| {
            let (line, col) = d.span.map_or((usize::MAX, usize::MAX), |s| (s.line, s.col));
            (line, col, d.severity, d.code)
        });
    }

    /// Renders all diagnostics for humans, one block per finding, followed
    /// by a summary line.
    #[must_use]
    pub fn render_human(&self, target: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let (e, w, i) = self.counts();
        if self.diagnostics.is_empty() {
            out.push_str(&format!("{target}: clean\n"));
        } else {
            out.push_str(&format!(
                "{target}: {e} error(s), {w} warning(s), {i} info(s)\n"
            ));
        }
        out
    }

    /// Renders all diagnostics as JSON Lines (one object per line).
    #[must_use]
    pub fn render_jsonl(&self, target: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let mut json = d.to_json();
            if let Json::Obj(fields) = &mut json {
                fields.insert(0, ("target".to_string(), Json::from(target)));
            }
            out.push_str(&json.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_code_span_and_caret() {
        let d = Diagnostic::new("PP101", Severity::Error, "guard is unsatisfiable")
            .with_span(Span::new(3, 5, 7))
            .with_snippet("    (A & !A) + (.) -> (.) + (.)");
        let r = d.render();
        assert!(r.contains("error[PP101]"), "{r}");
        assert!(r.contains("line 3, col 5"), "{r}");
        assert!(r.contains("^^^^^^^"), "{r}");
    }

    #[test]
    fn json_roundtrips_through_engine_reader() {
        let d = Diagnostic::new("PP204", Severity::Warning, "empty branch")
            .with_span(Span::new(7, 3, 10));
        let text = d.to_json().render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("code").and_then(Json::as_str), Some("PP204"));
        assert_eq!(back.get("line").and_then(Json::as_u64), Some(7));
        assert_eq!(back.get("severity").and_then(Json::as_str), Some("warning"));
    }

    #[test]
    fn report_counts_and_errors() {
        let mut r = Report::new();
        assert!(!r.has_errors());
        r.push(Diagnostic::new("PP102", Severity::Warning, "no-op"));
        r.push(Diagnostic::new("PP101", Severity::Error, "dead"));
        assert!(r.has_errors());
        assert_eq!(r.counts(), (1, 1, 0));
    }

    #[test]
    fn sort_orders_by_position() {
        let mut r = Report::new();
        r.push(Diagnostic::new("PP102", Severity::Warning, "later").with_span(Span::new(9, 1, 1)));
        r.push(Diagnostic::new("PP101", Severity::Error, "earlier").with_span(Span::new(2, 1, 1)));
        r.push(Diagnostic::new("PP206", Severity::Warning, "no span"));
        r.sort();
        assert_eq!(r.diagnostics[0].code, "PP101");
        assert_eq!(r.diagnostics[1].code, "PP102");
        assert_eq!(r.diagnostics[2].code, "PP206");
    }
}
