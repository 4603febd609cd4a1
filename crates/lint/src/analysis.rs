//! Shared per-file analysis infrastructure.
//!
//! [`FileAnalysis`] wraps one source file with everything the rules need:
//! the token stream, an index of non-comment ("code") tokens, a line map,
//! the byte ranges of `#[cfg(test)] mod` bodies (test code is exempt from
//! all rules), and the annotation lookup that resolves suppression comments
//! such as `// SAFETY: …` or `// relaxed-ok: …` for a given code token.
//!
//! Annotation placement contract (shared by every rule): an annotation
//! applies to a code token if it appears
//!
//! 1. in a trailing comment on the **same line**, or
//! 2. in a comment on a **directly preceding line**, walking upward over
//!    contiguous comment-only and attribute-only lines (a blank line or a
//!    line with other code stops the search).
//!
//! The text after the marker is the rationale. An empty rationale still
//! places the annotation, and the rules' shared rationale check reports it
//! as a finding in its own right.

use crate::lexer::{tokenize, Tok};

/// One source file plus the derived indices the rules share.
pub struct FileAnalysis<'a> {
    /// Workspace-relative path (diagnostics use this).
    pub rel_path: String,
    /// Full source text.
    pub src: &'a str,
    /// All tokens, comments included.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens.
    pub code: Vec<usize>,
    /// Byte offset of the start of each line.
    pub line_starts: Vec<usize>,
    /// Byte ranges (half-open) of `#[cfg(test)] mod { … }` bodies.
    pub test_ranges: Vec<(usize, usize)>,
}

impl<'a> FileAnalysis<'a> {
    /// Lexes `src` and builds all derived indices.
    pub fn new(rel_path: impl Into<String>, src: &'a str) -> Self {
        let toks = tokenize(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut analysis = Self {
            rel_path: rel_path.into(),
            src,
            toks,
            code,
            line_starts,
            test_ranges: Vec::new(),
        };
        analysis.test_ranges = analysis.find_test_ranges();
        analysis
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// The code token at code-index `ci` (panics if out of range).
    pub fn code_tok(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    /// Text of the code token at code-index `ci`.
    pub fn code_text(&self, ci: usize) -> &'a str {
        self.code_tok(ci).text(self.src)
    }

    /// True if the byte offset falls inside a `#[cfg(test)]` module body.
    pub fn in_test_code(&self, offset: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// Scans for `#[cfg(test)] mod name { … }` and records body byte ranges.
    fn find_test_ranges(&self) -> Vec<(usize, usize)> {
        let mut ranges = Vec::new();
        let n = self.code.len();
        let mut ci = 0usize;
        while ci + 5 < n {
            if self.code_tok(ci).is_punct(b'#')
                && self.code_tok(ci + 1).is_punct(b'[')
                && self.code_text(ci + 2) == "cfg"
                && self.code_tok(ci + 3).is_punct(b'(')
                && self.code_text(ci + 4) == "test"
                && self.code_tok(ci + 5).is_punct(b')')
            {
                // Skip to the `]`, then over any further attributes, then
                // expect `mod name {`.
                let mut j = ci + 6;
                while j < n && !self.code_tok(j).is_punct(b']') {
                    j += 1;
                }
                j += 1;
                while j + 1 < n && self.code_tok(j).is_punct(b'#') {
                    // Another attribute: skip its balanced `[ … ]`.
                    let mut depth = 0usize;
                    j += 1;
                    while j < n {
                        if self.code_tok(j).is_punct(b'[') {
                            depth += 1;
                        } else if self.code_tok(j).is_punct(b']') {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                if j + 1 < n && self.code_text(j) == "mod" {
                    // `mod name {` (an out-of-line `mod name;` has no body).
                    let mut k = j + 1;
                    while k < n
                        && !self.code_tok(k).is_punct(b'{')
                        && !self.code_tok(k).is_punct(b';')
                    {
                        k += 1;
                    }
                    if k < n && self.code_tok(k).is_punct(b'{') {
                        if let Some(close) = self.matching_brace(k) {
                            ranges
                                .push((self.code_tok(k).span.start, self.code_tok(close).span.end));
                            ci = close;
                        }
                    }
                }
            }
            ci += 1;
        }
        ranges
    }

    /// Code-index of the `}` matching the `{` at code-index `open`.
    pub fn matching_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for ci in open..self.code.len() {
            if self.code_tok(ci).is_punct(b'{') {
                depth += 1;
            } else if self.code_tok(ci).is_punct(b'}') {
                depth -= 1;
                if depth == 0 {
                    return Some(ci);
                }
            }
        }
        None
    }

    /// Walks backward from the code token at `ci` to the first token of the
    /// enclosing statement: the token after the previous `;`/`{`/`}` (or an
    /// unbalanced opening bracket) at bracket depth zero. Lets annotation
    /// lookups find a comment above a multi-line call chain such as
    /// `stats\n.tuples_out\n.fetch_add(…)`.
    pub fn statement_start(&self, ci: usize) -> usize {
        let mut depth = 0isize;
        let mut j = ci;
        while j > 0 {
            let t = self.code_tok(j - 1);
            if t.is_punct(b')') || t.is_punct(b']') {
                depth += 1;
            } else if t.is_punct(b'(') || t.is_punct(b'[') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if (t.is_punct(b';') || t.is_punct(b'{') || t.is_punct(b'}')) && depth == 0 {
                break;
            }
            j -= 1;
        }
        j
    }

    /// Looks up a suppression annotation for the code token at `ci`.
    ///
    /// Returns `Some(rationale)` (trimmed, possibly empty) if a comment with
    /// `marker` is found per the placement contract in the module docs, or
    /// `None` if no such comment exists.
    pub fn annotation(&self, ci: usize, marker: &str) -> Option<String> {
        let offset = self.code_tok(ci).span.start;
        let line = self.line_of(offset);
        // 1. Trailing comment on the same line.
        if let Some(r) = self.comment_on_line_with(line, marker) {
            return Some(r);
        }
        // 2. Walk upward over comment-only / attribute-only lines.
        let mut l = line;
        while l > 1 {
            l -= 1;
            match self.classify_line(l) {
                LineClass::CommentOnly => {
                    if let Some(r) = self.comment_on_line_with(l, marker) {
                        return Some(r);
                    }
                }
                LineClass::AttributeOnly => continue,
                LineClass::Other => break,
            }
        }
        None
    }

    /// Searches comments on 1-based line `line` for `marker`; returns the
    /// trimmed text after the marker.
    fn comment_on_line_with(&self, line: usize, marker: &str) -> Option<String> {
        let (start, end) = self.line_span(line);
        for t in &self.toks {
            if !t.is_comment() || t.span.start < start || t.span.start >= end {
                continue;
            }
            let text = t.text(self.src);
            if let Some(pos) = text.find(marker) {
                let after = &text[pos + marker.len()..];
                let after = after.trim_end_matches("*/").trim();
                return Some(after.to_string());
            }
        }
        None
    }

    /// Byte range of 1-based line `line` (newline excluded).
    fn line_span(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|&s| s.saturating_sub(1))
            .unwrap_or(self.src.len());
        (start, end)
    }

    /// Classifies a line for the upward annotation walk.
    fn classify_line(&self, line: usize) -> LineClass {
        let (start, end) = self.line_span(line);
        let text = self.src[start..end].trim();
        if text.is_empty() {
            return LineClass::Other;
        }
        let mut has_comment = false;
        let mut has_code = false;
        for t in &self.toks {
            if t.span.end <= start || t.span.start >= end {
                continue;
            }
            if t.is_comment() {
                has_comment = true;
            } else {
                has_code = true;
            }
        }
        if has_comment && !has_code {
            return LineClass::CommentOnly;
        }
        // Attribute lines (`#[inline]`, `#[cold]`, …) sit between an item
        // and its doc/safety comment; the walk skips them.
        if has_code && text.starts_with('#') {
            return LineClass::AttributeOnly;
        }
        LineClass::Other
    }
}

/// Line classification for the upward annotation walk.
enum LineClass {
    /// Only comments (doc comments included) on the line.
    CommentOnly,
    /// An attribute such as `#[inline]` (no other code).
    AttributeOnly,
    /// Code, a blank line, or anything else: stops the walk.
    Other,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_test_module_ranges() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let a = FileAnalysis::new("x.rs", src);
        assert_eq!(a.test_ranges.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(a.in_test_code(unwrap_at));
        assert!(!a.in_test_code(src.find("live").unwrap()));
    }

    #[test]
    fn annotation_same_line_and_above() {
        let src = "\
// SAFETY: bounds checked by caller
#[inline]
unsafe fn f() {}
let x = g(); // relaxed-ok: monitoring only
let y = h();
";
        let a = FileAnalysis::new("x.rs", src);
        let unsafe_ci = a
            .code
            .iter()
            .position(|&ti| a.toks[ti].is_ident(src, "unsafe"))
            .unwrap();
        assert_eq!(
            a.annotation(unsafe_ci, "SAFETY:").as_deref(),
            Some("bounds checked by caller")
        );
        let g_ci = a
            .code
            .iter()
            .position(|&ti| a.toks[ti].is_ident(src, "g"))
            .unwrap();
        assert_eq!(
            a.annotation(g_ci, "relaxed-ok:").as_deref(),
            Some("monitoring only")
        );
        let h_ci = a
            .code
            .iter()
            .position(|&ti| a.toks[ti].is_ident(src, "h"))
            .unwrap();
        assert_eq!(a.annotation(h_ci, "relaxed-ok:"), None);
    }

    #[test]
    fn blank_line_stops_the_upward_walk() {
        let src = "// SAFETY: stale\n\nunsafe fn f() {}\n";
        let a = FileAnalysis::new("x.rs", src);
        let unsafe_ci = a
            .code
            .iter()
            .position(|&ti| a.toks[ti].is_ident(src, "unsafe"))
            .unwrap();
        assert_eq!(a.annotation(unsafe_ci, "SAFETY:"), None);
    }
}
