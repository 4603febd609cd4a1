//! Rule `atomics-protocol`: Relaxed writes need `// relaxed-ok:`, Release
//! stores need a machine-checked `// pairs-with: <fn>`.

use crate::analysis::FileAnalysis;
use crate::diag::Finding;
use crate::rules::Ctx;

const RULE: &str = "atomics-protocol";

/// Atomic write / RMW methods whose `Relaxed` use needs justification.
/// Loads are exempt: a Relaxed load cannot lose a happens-before edge that
/// a correctly-ordered write did not already establish.
const WRITE_METHODS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Scans `Ordering::Relaxed` / `Ordering::Release` arguments of atomic
/// write methods and checks their annotations.
pub fn check(fa: &FileAnalysis<'_>, ctx: &Ctx, out: &mut Vec<Finding>) {
    let n = fa.code.len();
    for ci in 0..n {
        if fa.code_text(ci) != "Ordering" {
            continue;
        }
        // Expect `Ordering :: Variant`.
        if ci + 3 > n || !fa.code_tok(ci + 1).is_punct(b':') || !fa.code_tok(ci + 2).is_punct(b':')
        {
            continue;
        }
        let variant = fa.code_text(ci + 3);
        if variant != "Relaxed" && variant != "Release" {
            continue;
        }
        let site = fa.code_tok(ci + 3);
        if fa.in_test_code(site.span.start) {
            continue;
        }
        let Some(method_ci) = enclosing_method(fa, ci) else {
            continue;
        };
        let method = fa.code_text(method_ci);
        if !WRITE_METHODS.contains(&method) {
            continue;
        }
        let field = receiver_name(fa, method_ci).unwrap_or("<atomic>");
        // The annotation may sit on/above the `Ordering` argument's line,
        // on the receiver's line, or above the first line of a multi-line
        // statement — query all three anchor tokens.
        let stmt_ci = fa.statement_start(method_ci);
        let lookup = |marker: &str| {
            fa.annotation(ci + 3, marker)
                .or_else(|| {
                    if method_ci >= 2 {
                        fa.annotation(method_ci - 2, marker)
                    } else {
                        None
                    }
                })
                .or_else(|| fa.annotation(stmt_ci, marker))
        };
        if variant == "Relaxed" {
            if lookup("relaxed-ok:").is_none() {
                out.push(Finding::new(
                    RULE,
                    fa.rel_path.clone(),
                    fa.src,
                    site.span,
                    format!("`Relaxed` {method} on `{field}` lacks a `// relaxed-ok:` annotation"),
                    Some(
                        "add `// relaxed-ok: <why>` on this line or the line above, or \
                         strengthen the ordering"
                            .into(),
                    ),
                ));
            }
        } else if method == "store" {
            // Release store: must name the paired Acquire load's function.
            match lookup("pairs-with:") {
                Some(value) => {
                    let name = first_fn_name(&value);
                    if name.is_empty() {
                        out.push(Finding::new(
                            RULE,
                            fa.rel_path.clone(),
                            fa.src,
                            site.span,
                            "`// pairs-with:` annotation has an empty value",
                            Some("name the function containing the paired Acquire load".into()),
                        ));
                    } else if !ctx.fn_names.contains(name) {
                        out.push(Finding::new(
                            RULE,
                            fa.rel_path.clone(),
                            fa.src,
                            site.span,
                            format!(
                                "`// pairs-with: {name}` names a function not defined anywhere \
                                 in the workspace"
                            ),
                            Some("did the paired Acquire load's function get renamed?".into()),
                        ));
                    }
                }
                None => out.push(Finding::new(
                    RULE,
                    fa.rel_path.clone(),
                    fa.src,
                    site.span,
                    format!(
                        "`Release` store on `{field}` lacks a `// pairs-with: <fn>` annotation"
                    ),
                    Some("name the function whose Acquire load consumes this publish".into()),
                )),
            }
        }
    }
}

/// Walks outward from the `Ordering` token (at code-index `ci`) to the
/// method call it is an argument of; returns the method ident's code-index.
fn enclosing_method(fa: &FileAnalysis<'_>, ci: usize) -> Option<usize> {
    let mut depth = 0isize;
    let mut j = ci;
    while j > 0 {
        j -= 1;
        let t = fa.code_tok(j);
        if t.is_punct(b')') || t.is_punct(b']') {
            depth += 1;
        } else if t.is_punct(b'(') {
            if depth == 0 {
                // `(` of the call; the token before it is the method name,
                // preceded by `.`.
                if j >= 2
                    && fa.code_tok(j - 1).kind == crate::lexer::TokKind::Ident
                    && fa.code_tok(j - 2).is_punct(b'.')
                {
                    return Some(j - 1);
                }
                return None;
            }
            depth -= 1;
        } else if t.is_punct(b'[') {
            if depth == 0 {
                return None;
            }
            depth -= 1;
        } else if (t.is_punct(b';') || t.is_punct(b'{') || t.is_punct(b'}')) && depth == 0 {
            return None;
        }
    }
    None
}

/// The identifier immediately before the `.` of the method call — the
/// atomic field's name.
fn receiver_name<'a>(fa: &FileAnalysis<'a>, method_ci: usize) -> Option<&'a str> {
    if method_ci >= 2
        && fa.code_tok(method_ci - 1).is_punct(b'.')
        && fa.code_tok(method_ci - 2).kind == crate::lexer::TokKind::Ident
    {
        Some(fa.code_text(method_ci - 2))
    } else {
        None
    }
}

/// Extracts the function name from a `pairs-with:` value: first
/// whitespace-separated word, trailing punctuation stripped, last `::`
/// path segment.
fn first_fn_name(value: &str) -> &str {
    let word = value.split_whitespace().next().unwrap_or("");
    let word = word.trim_end_matches(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'));
    word.rsplit("::").next().unwrap_or(word)
}

#[cfg(test)]
mod tests {
    use super::first_fn_name;

    #[test]
    fn extracts_fn_names_from_annotation_values() {
        assert_eq!(first_fn_name("head"), "head");
        assert_eq!(first_fn_name("CircularBuffer::head()"), "head");
        assert_eq!(first_fn_name("head(), which readers call"), "head");
        assert_eq!(first_fn_name(""), "");
    }
}
