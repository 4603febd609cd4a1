//! Rule `sync-vocabulary`: blocking locks come from `saber_types::sync`.
//!
//! The workspace has one lock vocabulary: the non-poisoning `Mutex`,
//! `Condvar` and `RwLock` of `saber_types::sync`. A `std::sync` lock
//! anywhere else brings back hand-written poison handling, and the
//! `lock-order` rule — which binds a guard only when `recv.lock()` is the
//! whole right-hand side of its `let` — would track a
//! `let g = m.lock().unwrap();` guard as a statement temporary and miss
//! every acquisition nested under it. This rule flags those three types
//! named through a `std::sync::` path, directly or inside a `use` group,
//! everywhere except the wrapper module itself and test code.

use crate::analysis::FileAnalysis;
use crate::diag::Finding;

const RULE: &str = "sync-vocabulary";
/// The one file allowed to wrap the `std` locks.
const HOME: &str = "crates/types/src/sync.rs";
const BANNED: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// Flags `std::sync::{Mutex, RwLock, Condvar}` outside `HOME`.
pub fn check(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    if fa.rel_path == HOME {
        return;
    }
    let n = fa.code.len();
    for ci in 0..n.saturating_sub(6) {
        // `std :: sync :: <item or { group }>`
        if fa.code_text(ci) != "std"
            || !is_path_sep(fa, ci + 1)
            || fa.code_text(ci + 3) != "sync"
            || !is_path_sep(fa, ci + 4)
            || fa.in_test_code(fa.code_tok(ci).span.start)
        {
            continue;
        }
        let item = ci + 6;
        let last = if fa.code_tok(item).is_punct(b'{') {
            fa.matching_brace(item).unwrap_or(item)
        } else {
            item
        };
        for j in item..=last {
            let name = fa.code_text(j);
            if BANNED.contains(&name) {
                out.push(Finding::new(
                    RULE,
                    fa.rel_path.clone(),
                    fa.src,
                    fa.code_tok(j).span,
                    format!("`std::sync::{name}` outside `saber_types::sync`"),
                    Some(format!(
                        "use `saber_types::sync::{name}`: it does not poison, and \
                         `lock-order` tracks its guards"
                    )),
                ));
            }
        }
    }
}

/// True if the code tokens at `ci` and `ci + 1` spell `::`.
fn is_path_sep(fa: &FileAnalysis<'_>, ci: usize) -> bool {
    fa.code_tok(ci).is_punct(b':') && fa.code_tok(ci + 1).is_punct(b':')
}
