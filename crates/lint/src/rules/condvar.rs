//! Rule `condvar-loop`: condvar waits must sit inside a `while`/`loop`.

use crate::analysis::FileAnalysis;
use crate::diag::Finding;
use crate::lexer::TokKind;

const RULE: &str = "condvar-loop";

/// Wait methods that require a guarding loop. `wait_while` /
/// `wait_timeout_while` re-check their predicate internally and are exempt.
const WAIT_METHODS: &[&str] = &["wait", "wait_for", "wait_timeout"];

/// Kinds of enclosing blocks for the upward walk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockKind {
    /// `while … {` — satisfies the rule.
    While,
    /// `loop {` — satisfies the rule (predicate re-checked by `continue`).
    Loop,
    /// `if` / `else` / `match` / arm / plain / `unsafe` — transparent.
    Transparent,
    /// `fn` / closure / `for` / item body — ends the search unsatisfied.
    Boundary,
}

/// Scans for wait calls and checks their enclosing block chain.
pub fn check(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    let n = fa.code.len();
    let mut stack: Vec<BlockKind> = Vec::new();
    for ci in 0..n {
        let t = fa.code_tok(ci);
        if t.is_punct(b'{') {
            stack.push(classify_open(fa, ci));
            continue;
        }
        if t.is_punct(b'}') {
            stack.pop();
            continue;
        }
        if t.kind != TokKind::Ident || !WAIT_METHODS.contains(&t.text(fa.src)) {
            continue;
        }
        // Must be a method call: `.wait(…)` with at least one argument slot.
        if ci < 1
            || !fa.code_tok(ci - 1).is_punct(b'.')
            || ci + 1 >= n
            || !fa.code_tok(ci + 1).is_punct(b'(')
        {
            continue;
        }
        if fa.in_test_code(t.span.start) {
            continue;
        }
        let mut satisfied = false;
        for kind in stack.iter().rev() {
            match kind {
                BlockKind::While | BlockKind::Loop => {
                    satisfied = true;
                    break;
                }
                BlockKind::Transparent => continue,
                BlockKind::Boundary => break,
            }
        }
        if satisfied {
            continue;
        }
        let ann = fa
            .annotation(ci, "condvar-ok:")
            .or_else(|| fa.annotation(fa.statement_start(ci), "condvar-ok:"));
        if ann.is_none() {
            out.push(Finding::new(
                RULE,
                fa.rel_path.clone(),
                fa.src,
                t.span,
                format!(
                    "`{}` is not guarded by a `while`/`loop` — spurious wakeups will \
                     return early",
                    t.text(fa.src)
                ),
                Some(
                    "wrap the wait in `while !predicate { … }`, or annotate a deliberate \
                     one-shot wait with `// condvar-ok: <why>`"
                        .into(),
                ),
            ));
        }
    }
}

/// Classifies the block opened by the `{` at code-index `open` by scanning
/// backwards for the construct that introduced it.
fn classify_open(fa: &FileAnalysis<'_>, open: usize) -> BlockKind {
    if open >= 1 && fa.code_tok(open - 1).is_punct(b'|') {
        return BlockKind::Boundary; // closure body
    }
    let mut depth = 0isize;
    let mut saw: Vec<&str> = Vec::new();
    let mut j = open;
    while j > 0 {
        j -= 1;
        let t = fa.code_tok(j);
        if t.is_punct(b')') || t.is_punct(b']') {
            depth += 1;
            continue;
        }
        if t.is_punct(b'(') || t.is_punct(b'[') {
            if depth == 0 {
                // Unbalanced open: the block is an expression inside a call
                // (e.g. an un-piped async/closure-like argument) — treat as
                // transparent unless a keyword said otherwise.
                break;
            }
            depth -= 1;
            continue;
        }
        if depth > 0 {
            continue;
        }
        if t.is_punct(b';') || t.is_punct(b'{') || t.is_punct(b'}') || t.is_punct(b',') {
            break;
        }
        // `=>` (match arm) read backwards: `>` preceded by `=`.
        if t.is_punct(b'>') && j >= 1 && fa.code_tok(j - 1).is_punct(b'=') {
            break;
        }
        if t.kind == TokKind::Ident {
            saw.push(t.text(fa.src));
        }
    }
    for kw in &saw {
        match *kw {
            "impl" | "mod" | "trait" | "struct" | "enum" | "union" | "extern" => {
                return BlockKind::Boundary
            }
            _ => {}
        }
    }
    if saw.contains(&"fn") || saw.contains(&"for") {
        return BlockKind::Boundary;
    }
    if saw.contains(&"while") {
        return BlockKind::While;
    }
    if saw.contains(&"loop") {
        return BlockKind::Loop;
    }
    BlockKind::Transparent
}
