//! Rule `named-threads`: engine threads are named, long-lived and few.
//!
//! Every thread the engine starts goes through
//! `std::thread::Builder::new().name("saber-…")`, so a profile, a panic
//! message or a per-thread CPU ledger can charge it to a role. A bare
//! `std::thread::spawn` starts an anonymous thread, and `std::thread::scope`
//! is the shape of a per-call fork-join — a thread start and join on every
//! task. This rule flags both, named through a `thread::` path directly or
//! inside a `use` group, in non-test code. The benchmark and baseline
//! harnesses (`crates/bench`, `crates/baselines`) are exempt: they drive the
//! engine from outside it.

use crate::analysis::FileAnalysis;
use crate::diag::Finding;

const RULE: &str = "named-threads";
/// Crates whose threads are harness load, not engine threads.
const EXEMPT: [&str; 2] = ["crates/bench/", "crates/baselines/"];
const BANNED: [&str; 2] = ["spawn", "scope"];

/// Flags `thread::spawn` and `thread::scope` outside test code and the
/// harness crates.
pub fn check(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    if EXEMPT.iter().any(|dir| fa.rel_path.starts_with(dir)) {
        return;
    }
    let n = fa.code.len();
    for ci in 0..n.saturating_sub(3) {
        // `thread :: <item or { group }>`
        if fa.code_text(ci) != "thread"
            || !fa.code_tok(ci + 1).is_punct(b':')
            || !fa.code_tok(ci + 2).is_punct(b':')
            || fa.in_test_code(fa.code_tok(ci).span.start)
        {
            continue;
        }
        let item = ci + 3;
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
                    format!("`std::thread::{name}` starts an unnamed thread"),
                    Some(
                        "start a long-lived thread with \
                         `std::thread::Builder::new().name(\"saber-<role>\")`, \
                         or run the work on the calling thread"
                            .to_string(),
                    ),
                ));
            }
        }
    }
}
