//! Findings and compiler-style caret diagnostics.
//!
//! A [`Finding`] is one rule violation at one byte span of one file. Its
//! [`Display`] impl renders the same caret diagnostic shape `saber_sql` uses
//! for parse errors, extended with the file path and rule id:
//!
//! ```text
//! error[atomics-protocol]: `Relaxed` store lacks a `// relaxed-ok:` annotation
//!   --> crates/engine/src/metrics.rs:52:41
//!    |
//! 52 |         self.batches.fetch_add(1, Ordering::Relaxed);
//!    |                                             ^^^^^^^
//!    = help: add `// relaxed-ok: <why>` on this line or the line above
//! ```
//!
//! [`Display`]: std::fmt::Display

use std::fmt;

/// A half-open byte range `[start, end)` into a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }
}

/// One rule violation: rule id, location, message, optional help text.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id, e.g. `lock-order`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// Byte span of the offending token(s) within the file.
    pub span: Span,
    /// 1-based line of the span start.
    pub line: usize,
    /// 1-based byte column of the span start within its line.
    pub column: usize,
    /// The full source line containing the span start (no newline).
    pub source_line: String,
    /// The bare description.
    pub message: String,
    /// A `= help:` suggestion, when the fix is mechanical.
    pub help: Option<String>,
}

impl Finding {
    /// Builds a finding for `span` of `source` in `file`, computing the
    /// line / column / source-line fields from the text.
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        source: &str,
        span: Span,
        message: impl Into<String>,
        help: Option<String>,
    ) -> Self {
        let start = span.start.min(source.len());
        let line = source[..start].bytes().filter(|&b| b == b'\n').count() + 1;
        let line_start = source[..start].rfind('\n').map(|p| p + 1).unwrap_or(0);
        let column = start - line_start + 1;
        let line_end = source[line_start..]
            .find('\n')
            .map(|p| line_start + p)
            .unwrap_or(source.len());
        Self {
            rule,
            file: file.into(),
            span,
            line,
            column,
            source_line: source[line_start..line_end].to_string(),
            message: message.into(),
            help,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        let gutter = self.line.to_string().len();
        writeln!(
            f,
            "{:gutter$}--> {}:{}:{}",
            "", self.file, self.line, self.column
        )?;
        writeln!(f, "{:gutter$} |", "")?;
        writeln!(f, "{} | {}", self.line, self.source_line)?;
        let width = (self.span.end - self.span.start).max(1).min(
            self.source_line
                .len()
                .saturating_sub(self.column.saturating_sub(1))
                .max(1),
        );
        write!(
            f,
            "{:gutter$} | {:>pad$}{}",
            "",
            "",
            "^".repeat(width),
            pad = self.column.saturating_sub(1)
        )?;
        if let Some(help) = &self.help {
            write!(f, "\n{:gutter$} = help: {}", "", help)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_caret_under_the_span() {
        let src = "let x = a.lock();\nlet y = b.lock();\n";
        let span = Span::new(28, 32);
        let finding = Finding::new(
            "lock-order",
            "crates/x/src/lib.rs",
            src,
            span,
            "out-of-order acquisition",
            Some("acquire `b` before `a`".into()),
        );
        assert_eq!(finding.line, 2);
        assert_eq!(finding.column, 11);
        let text = finding.to_string();
        assert!(text.contains("error[lock-order]: out-of-order acquisition"));
        assert!(text.contains("--> crates/x/src/lib.rs:2:11"));
        assert!(text.contains("^^^^"));
        assert!(text.contains("= help: acquire `b` before `a`"));
        let caret_line = text
            .lines()
            .find(|l| l.contains('^'))
            .expect("caret line present");
        assert_eq!(caret_line.find('^').unwrap(), "2 | ".len() + 10);
    }
}
