//! Source positions, spans and diagnostics.
//!
//! Every token and AST node carries a [`Span`] so that semantic errors can be
//! reported against the original OIL source text.

use std::fmt;

/// A half-open byte range `[start, end)` into the source text, together with
/// the 1-based line/column of its start for human-readable reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
    /// 1-based column number of `start`.
    pub column: u32,
}

impl Span {
    /// Create a new span.
    pub fn new(start: usize, end: usize, line: u32, column: u32) -> Self {
        Span {
            start,
            end,
            line,
            column,
        }
    }

    /// A span covering nothing, used for synthesised nodes.
    pub fn synthetic() -> Self {
        Span::default()
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        let (first, last) = if self.start <= other.start {
            (self, other)
        } else {
            (other, self)
        };
        Span {
            start: first.start,
            end: last.end.max(first.end),
            line: first.line,
            column: first.column,
        }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True if the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Severity of a diagnostic message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The program is rejected.
    Error,
    /// The program is accepted but may not behave as intended.
    Warning,
    /// Informational note attached to another diagnostic.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Note => write!(f, "note"),
        }
    }
}

/// A single diagnostic message produced by the lexer, parser or semantic
/// analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How severe the problem is.
    pub severity: Severity,
    /// Human readable description.
    pub message: String,
    /// Location in the source text.
    pub span: Span,
}

impl Diagnostic {
    /// Construct an error diagnostic.
    pub fn error(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
        }
    }

    /// Construct a warning diagnostic.
    pub fn warning(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
        }
    }

    /// True if this diagnostic rejects the program.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.severity, self.span, self.message)
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(3, 7, 1, 4);
        let b = Span::new(10, 14, 2, 2);
        let m = a.merge(b);
        assert_eq!(m.start, 3);
        assert_eq!(m.end, 14);
        assert_eq!(m.line, 1);
        let m2 = b.merge(a);
        assert_eq!(m2, m);
    }

    #[test]
    fn span_merge_nested() {
        let outer = Span::new(0, 20, 1, 1);
        let inner = Span::new(5, 10, 1, 6);
        let m = outer.merge(inner);
        assert_eq!(m.start, 0);
        assert_eq!(m.end, 20);
    }

    #[test]
    fn span_len_and_empty() {
        assert!(Span::synthetic().is_empty());
        assert_eq!(Span::new(2, 6, 1, 3).len(), 4);
    }

    #[test]
    fn diagnostic_display() {
        let d = Diagnostic::error("unexpected token", Span::new(0, 1, 3, 9));
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("3:9"));
        assert!(s.contains("unexpected token"));
        assert!(d.is_error());
        assert!(!Diagnostic::warning("w", Span::synthetic()).is_error());
    }
}
