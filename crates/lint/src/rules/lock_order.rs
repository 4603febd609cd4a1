//! Rule `lock-order`: intra-procedural double-acquisition must respect the
//! hierarchy declared in `crates/lint/lock-order.toml`.
//!
//! The walker visits each function body once, tracking live guards
//! structurally:
//!
//! * an acquisition is a zero-argument `.lock()` / `.read()` / `.write()`
//!   call; the receiver identifier names the lock. Every crate locks through
//!   `saber_types::sync`, whose calls return the guard itself (clippy's
//!   `disallowed_types` keeps `std` locks and their `.unwrap()` out);
//! * `let [mut] name = recv.lock();` binds a guard that lives until its
//!   enclosing block closes or an explicit `drop(name)`;
//! * an unbound temporary lives until the end of its statement;
//! * closure bodies are barriers — guards held outside are invisible inside,
//!   since the closure usually runs on another thread or later.
//!
//! At each acquisition the new lock's rank must be strictly greater
//! (more inner) than every live guard's rank.
//!
//! [`check_declared`] checks the hierarchy itself against the workspace: a
//! declared lock that no scanned file acquires orders nothing, so it is a
//! finding too.

use crate::analysis::FileAnalysis;
use crate::config::LockOrder;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::Ctx;
use std::collections::HashSet;

const RULE: &str = "lock-order";

/// A live guard inside the walker.
struct Guard {
    /// Binding name (`None` for statement temporaries).
    name: Option<String>,
    /// Rank in the declared hierarchy (0 = outermost).
    rank: usize,
    /// Level name, for diagnostics.
    class: String,
    /// The lock name as written at the acquisition site.
    lock: String,
    /// Brace depth at which the guard was bound; it dies when the walker
    /// leaves this depth.
    depth: usize,
    /// True for temporaries that die at the next `;` at `depth`.
    temp: bool,
}

/// Frame kinds on the block stack.
#[derive(PartialEq)]
enum Block {
    /// Ordinary block: guards pass through.
    Plain,
    /// Closure body: a barrier hiding outer guards.
    Closure,
}

/// Checks every function body in the file.
pub fn check(fa: &FileAnalysis<'_>, ctx: &Ctx, out: &mut Vec<Finding>) {
    let n = fa.code.len();
    let mut ci = 0usize;
    while ci < n {
        if fa.code_text(ci) == "fn" && ci + 1 < n {
            if let Some((open, close)) = fn_body(fa, ci) {
                if !fa.in_test_code(fa.code_tok(open).span.start) {
                    walk_body(fa, ctx, open, close, out);
                }
                ci = close;
                // Re-scan the body for nested fns/closures? Nested `fn`
                // items are rare; closures are handled by the barrier.
            }
        }
        ci += 1;
    }
}

/// Reports every lock of `order` (parsed from `config_src` at `config_path`)
/// whose file matches none of `files`, or that no non-test code of its file
/// acquires. The finding anchors on the stale `"file:name"` entry.
pub fn check_declared(
    order: &LockOrder,
    config_path: &str,
    config_src: &str,
    files: &[FileAnalysis<'_>],
    out: &mut Vec<Finding>,
) {
    let acquired: Vec<HashSet<String>> = files
        .iter()
        .map(|fa| {
            (0..fa.code.len())
                .filter(|&ci| !fa.in_test_code(fa.code_tok(ci).span.start))
                .filter_map(|ci| acquisition_name(fa, ci, fa.code.len()))
                .collect()
        })
        .collect();
    for level in &order.levels {
        for lock in &level.locks {
            let mut owners = files
                .iter()
                .zip(&acquired)
                .filter(|(fa, _)| fa.rel_path.ends_with(lock.file_suffix.as_str()))
                .peekable();
            let problem = if owners.peek().is_none() {
                "names a file no scanned file matches"
            } else if !owners.any(|(_, names)| names.contains(&lock.name)) {
                "is never acquired by non-test code of its file"
            } else {
                continue;
            };
            out.push(Finding::new(
                RULE,
                config_path,
                config_src,
                lock.span,
                format!(
                    "declared lock `{}:{}` (level `{}`) {problem}",
                    lock.file_suffix, lock.name, level.name
                ),
                Some("remove the stale entry, or the level if it has no locks left".into()),
            ));
        }
    }
}

/// Finds the `{ … }` body of the fn whose `fn` keyword is at `ci`.
/// Returns `None` for bodiless trait-method declarations.
fn fn_body(fa: &FileAnalysis<'_>, ci: usize) -> Option<(usize, usize)> {
    let n = fa.code.len();
    let mut depth = 0isize;
    for j in ci + 1..n {
        let t = fa.code_tok(j);
        if t.is_punct(b'(') || t.is_punct(b'[') {
            depth += 1;
        } else if t.is_punct(b')') || t.is_punct(b']') {
            depth -= 1;
        } else if t.is_punct(b';') && depth == 0 {
            return None;
        } else if t.is_punct(b'{') && depth == 0 {
            let close = fa.matching_brace(j)?;
            return Some((j, close));
        }
    }
    None
}

/// Walks one fn body (code indices `open ..= close`), reporting violations.
fn walk_body(fa: &FileAnalysis<'_>, ctx: &Ctx, open: usize, close: usize, out: &mut Vec<Finding>) {
    let mut guards: Vec<Guard> = Vec::new();
    // Block stack entries: (depth after entering, kind, #guards visible
    // below the barrier when a Closure was entered).
    let mut blocks: Vec<(usize, Block)> = Vec::new();
    let mut depth = 1usize; // inside the body brace
    let mut stmt_start = open + 1;
    let mut ci = open + 1;
    while ci < close {
        let t = fa.code_tok(ci);
        if t.is_punct(b'{') {
            let kind = if ci > 0 && fa.code_tok(ci - 1).is_punct(b'|') {
                Block::Closure
            } else {
                Block::Plain
            };
            depth += 1;
            blocks.push((depth, kind));
            stmt_start = ci + 1;
            ci += 1;
            continue;
        }
        if t.is_punct(b'}') {
            guards.retain(|g| g.depth < depth);
            blocks.pop();
            depth -= 1;
            stmt_start = ci + 1;
            ci += 1;
            continue;
        }
        if t.is_punct(b';') {
            guards.retain(|g| !(g.temp && g.depth == depth));
            stmt_start = ci + 1;
            ci += 1;
            continue;
        }
        // Explicit `drop(name)`.
        if t.is_ident(fa.src, "drop")
            && ci + 3 < close
            && fa.code_tok(ci + 1).is_punct(b'(')
            && fa.code_tok(ci + 2).kind == TokKind::Ident
            && fa.code_tok(ci + 3).is_punct(b')')
        {
            let name = fa.code_text(ci + 2);
            if let Some(pos) = guards.iter().rposition(|g| g.name.as_deref() == Some(name)) {
                guards.remove(pos);
            }
            ci += 4;
            continue;
        }
        // Acquisition?
        if let Some(lock_name) = acquisition_name(fa, ci, close) {
            // Anchor diagnostics on the receiver naming the lock.
            let anchor = fa.code_tok(ci - 2).span;
            if let Some((rank, class)) = ctx.lock_order.rank_of(&fa.rel_path, &lock_name) {
                if fa.annotation(ci, "lock-order-ok:").is_none() {
                    // Guards behind the nearest closure barrier are invisible.
                    let barrier_depth = blocks
                        .iter()
                        .rev()
                        .find(|(_, k)| *k == Block::Closure)
                        .map(|(d, _)| *d)
                        .unwrap_or(0);
                    for g in guards.iter().filter(|g| g.depth >= barrier_depth) {
                        if rank <= g.rank {
                            let msg = if rank == g.rank {
                                format!(
                                    "acquiring `{lock_name}` (level `{class}`) while already \
                                     holding `{}` of the same level",
                                    g.lock
                                )
                            } else {
                                format!(
                                    "acquiring `{lock_name}` (level `{class}`, rank {rank}) \
                                     while holding `{}` (level `{}`, rank {})",
                                    g.lock, g.class, g.rank
                                )
                            };
                            out.push(Finding::new(
                                RULE,
                                fa.rel_path.clone(),
                                fa.src,
                                anchor,
                                msg,
                                Some(format!(
                                    "the declared order is outermost-first in \
                                     crates/lint/lock-order.toml; acquire `{class}` before \
                                     `{}` or drop the outer guard first",
                                    g.class
                                )),
                            ));
                        }
                    }
                }
                let (name, temp) = binding_of(fa, stmt_start, ci);
                guards.push(Guard {
                    name,
                    rank,
                    class: class.to_string(),
                    lock: lock_name,
                    depth,
                    temp,
                });
            }
        }
        ci += 1;
    }
}

/// If the code token at `ci` is a zero-argument `.lock()` / `.read()` /
/// `.write()` call on an identifier, returns that receiver: the lock's name.
fn acquisition_name(fa: &FileAnalysis<'_>, ci: usize, close: usize) -> Option<String> {
    let t = fa.code_tok(ci);
    if t.kind != TokKind::Ident {
        return None;
    }
    if ci + 2 >= close || ci < 2 {
        return None;
    }
    if !fa.code_tok(ci + 1).is_punct(b'(') || !fa.code_tok(ci + 2).is_punct(b')') {
        return None;
    }
    if !fa.code_tok(ci - 1).is_punct(b'.') {
        return None;
    }
    let method = t.text(fa.src);
    if !matches!(method, "lock" | "read" | "write") || fa.code_tok(ci - 2).kind != TokKind::Ident {
        return None;
    }
    Some(fa.code_text(ci - 2).to_string())
}

/// Determines the binding of the statement starting at `stmt_start` that
/// contains the acquisition at `ci`: `let [mut] name = recv.lock();` gives a
/// named guard, anything else a temporary.
///
/// A `let` only captures the guard when the lock call is the *whole*
/// right-hand side — `let r = x.lock().field.len();` binds the length, with
/// the guard living as a statement temporary.
fn binding_of(fa: &FileAnalysis<'_>, stmt_start: usize, ci: usize) -> (Option<String>, bool) {
    if fa.code_text(stmt_start) != "let" {
        return (None, true);
    }
    let mut j = stmt_start + 1;
    if fa.code_text(j) == "mut" {
        j += 1;
    }
    if fa.code_tok(j).kind != TokKind::Ident {
        // Destructuring patterns never bind lock guards in this codebase.
        return (None, true);
    }
    let name = fa.code_text(j);
    if !(fa.code_tok(j + 1).is_punct(b'=') || fa.code_tok(j + 1).is_punct(b':')) {
        return (None, true);
    }
    // The acquisition is `ci ( )`; the guard is bound only if the
    // statement ends right after it.
    if fa.code_tok(ci + 3).is_punct(b';') {
        (Some(name.to_string()), false)
    } else {
        (None, true)
    }
}
