//! The three concurrency-invariant rules no stock lint can hold (clippy
//! holds the other four; see the crate docs), plus the rationale check that
//! every suppression annotation shares.
//!
//! Every rule consumes a [`FileAnalysis`] plus the workspace-wide [`Ctx`]
//! (declared lock hierarchy, set of known function names) and appends
//! [`Finding`]s. Rules never bail early: the analyzer reports every
//! violation in one run, like `rustc`.

use crate::analysis::FileAnalysis;
use crate::config::LockOrder;
use crate::diag::{Finding, Span};
use std::collections::HashSet;

pub mod atomics;
pub mod condvar;
pub mod lock_order;

/// Workspace-wide context shared by all rules.
pub struct Ctx {
    /// The declared lock hierarchy from `crates/lint/lock-order.toml`.
    pub lock_order: LockOrder,
    /// Names of every `fn` defined anywhere in the scanned files; used to
    /// machine-check `// pairs-with: <fn>` annotations.
    pub fn_names: HashSet<String>,
}

/// Static description of one rule for `--list-rules` / `--explain`.
pub struct RuleInfo {
    /// Rule id as it appears in diagnostics, e.g. `lock-order`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Multi-paragraph explanation with the suppression syntax.
    pub explain: &'static str,
}

/// All rules, in the order they run.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "atomics-protocol",
        summary: "Relaxed stores/RMWs need `// relaxed-ok:`; Release stores need `// pairs-with:`",
        explain: "\
Atomic *loads* with `Ordering::Relaxed` are unrestricted. Atomic stores and
read-modify-write operations (store, swap, fetch_*, compare_exchange*) using
`Ordering::Relaxed` must carry a `// relaxed-ok: <why>` annotation explaining
why no other memory traffic synchronises through the value (typical reason:
monitoring counters read only for display).

`store(…, Ordering::Release)` publishes data to a paired `Acquire` load and
must carry `// pairs-with: <fn>` naming the function containing that load.
The function name is machine-checked against the workspace, so the
annotation cannot rot silently when the consumer is renamed.
",
    },
    RuleInfo {
        id: "lock-order",
        summary: "intra-procedural double-acquisition must follow crates/lint/lock-order.toml",
        explain: "\
`crates/lint/lock-order.toml` declares the workspace lock hierarchy as a
sequence of [[level]] tables, outermost first. Within one function body, a
declared lock may only be acquired while holding locks of strictly lower
rank number (outer levels). Acquiring out of order — or re-acquiring a lock
of the same level — is a finding, because two threads doing it in opposite
orders deadlock.

An acquisition is a zero-argument `.lock()` / `.read()` / `.write()` call;
the receiver identifier names the lock. Guard lifetimes are tracked
structurally: `let g = recv.lock();` binds a guard that lives until its
block ends or `drop(g)`; any other use is a temporary that lives until the
end of its statement. Closure bodies are analysis barriers (guards held outside are
not considered inside).

Suppress a deliberate exception with `// lock-order-ok: <why>`.

The hierarchy is checked against the workspace too: a declared lock whose
file no longer exists, or that no non-test code of its file acquires, is a
finding anchored in `lock-order.toml`. A stale entry orders nothing and
would hide a renamed lock; delete it (and its level once empty). There is
no suppression.
",
    },
    RuleInfo {
        id: "condvar-loop",
        summary: "condvar wait/wait_for/wait_timeout must sit inside a while/loop",
        explain: "\
Condition variables wake spuriously, so every `wait`, `wait_for` and
`wait_timeout` call must sit inside a `while`- or `loop`-guarded retry that
re-checks its predicate. The analyzer walks the enclosing blocks upward from
the call: `if`/`match`/plain blocks are transparent, `while`/`loop` satisfy
the rule, and a function or closure boundary ends the search (a wait whose
loop lives in the *caller* must be restructured or annotated).

`wait_while` / `wait_timeout_while` are self-guarding and exempt.

Suppress a deliberate one-shot wait (e.g. a periodic tick where timeout is
the normal wake path) with `// condvar-ok: <why>`.
",
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Rule id of an annotation whose rationale is empty.
pub const RATIONALE: &str = "rationale";

/// Suppression markers whose text after the marker must explain the site.
/// `// SAFETY:` is here because clippy's `undocumented_unsafe_blocks`
/// accepts the marker with nothing after it.
const MARKERS: [&str; 4] = ["SAFETY:", "relaxed-ok:", "lock-order-ok:", "condvar-ok:"];

/// Runs every rule on one file.
pub fn check_file(fa: &FileAnalysis<'_>, ctx: &Ctx, out: &mut Vec<Finding>) {
    check_rationales(fa, out);
    atomics::check(fa, ctx, out);
    lock_order::check(fa, ctx, out);
    condvar::check(fa, out);
}

/// Reports every comment in which a suppression marker is followed by
/// nothing: an unexplained suppression is itself a finding.
fn check_rationales(fa: &FileAnalysis<'_>, out: &mut Vec<Finding>) {
    for tok in fa.toks.iter().filter(|t| t.is_comment()) {
        let text = tok.text(fa.src);
        for marker in MARKERS {
            let Some(pos) = text.find(marker) else {
                continue;
            };
            let after = &text[pos + marker.len()..];
            if after.trim_end_matches("*/").trim().is_empty() {
                let start = tok.span.start + pos;
                out.push(Finding::new(
                    RATIONALE,
                    fa.rel_path.clone(),
                    fa.src,
                    Span::new(start, start + marker.len()),
                    format!("`// {marker}` annotation has an empty rationale"),
                    Some("explain after the marker why the site is sound".into()),
                ));
            }
        }
    }
}
