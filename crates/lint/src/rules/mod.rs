//! The seven concurrency-invariant rules.
//!
//! Every rule consumes a [`FileAnalysis`] plus the workspace-wide [`Ctx`]
//! (declared lock hierarchy, set of known function names) and appends
//! [`Finding`]s. Rules never bail early: the analyzer reports every
//! violation in one run, like `rustc`.

use crate::analysis::FileAnalysis;
use crate::config::LockOrder;
use crate::diag::Finding;
use std::collections::HashSet;

pub mod atomics;
pub mod condvar;
pub mod hot_path;
pub mod lock_order;
pub mod named_threads;
pub mod sync_vocabulary;
pub mod unsafe_audit;

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
    /// Rule id as it appears in diagnostics, e.g. `unsafe-audit`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Multi-paragraph explanation with the suppression syntax.
    pub explain: &'static str,
}

/// All rules, in the order they run.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "unsafe-audit",
        summary: "every `unsafe` block/fn/impl must carry a `// SAFETY:` comment",
        explain: "\
Every `unsafe` keyword outside test code must be immediately preceded by a
`// SAFETY: <why>` comment (same line, or the directly preceding comment
block; attribute lines in between are allowed). The rationale must be
non-empty — `// SAFETY:` alone is itself a finding.

The comment documents the proof obligation the surrounding code discharges:
why the raw pointer is valid, why the bounds hold, why the type is Send.

One refinement: an `unsafe fn` declaration may instead carry the idiomatic
rustdoc `# Safety` section, which documents the contract the *caller* must
uphold; blocks and impls always need `// SAFETY:`.
",
    },
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
",
    },
    RuleInfo {
        id: "sync-vocabulary",
        summary: "`std::sync::{Mutex, RwLock, Condvar}` only inside saber_types::sync",
        explain: "\
The workspace locks with one set of types: the non-poisoning `Mutex`,
`Condvar` and `RwLock` of `saber_types::sync`, whose `lock()` / `read()` /
`write()` return the guard directly. Naming the `std::sync` versions
anywhere else (a path or a `use` group; test code is exempt) is a finding:
they bring back hand-written poison handling, and `lock-order` would track
a `let g = m.lock().unwrap();` guard as a statement temporary, missing any
acquisition nested under it.

There is no suppression; `crates/types/src/sync.rs` is the one exception.
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
    RuleInfo {
        id: "hot-path-no-panic",
        summary: "hot-path modules reject unwrap/expect/panic!/slice-indexing",
        explain: "\
Modules whose module docs carry the marker (`//! saber-lint: hot-path` or
`#![doc = \"saber-lint: hot-path\"]`) are per-tuple code: the ingest ring,
the credit gate, the cutter and the operator kernels. In those files the
analyzer rejects `.unwrap()`, `.expect(…)`, `panic!` and `expr[index]`
slice-indexing outside test code, because a panic on the data path poisons
no lock we can recover and costs a bounds-check branch per tuple.

Suppress with `// hot-path-ok: <why>` on the expression, or on the enclosing
`fn` to cover a whole kernel whose indices are proven in-range by its loop
bounds.
",
    },
    RuleInfo {
        id: "named-threads",
        summary: "no `std::thread::spawn` / `std::thread::scope` outside tests and harnesses",
        explain: "\
Every engine thread starts through
`std::thread::Builder::new().name(\"saber-<role>\")` and lives as long as
its component: the CPU workers, the accelerator worker and its five
pipeline stages, the network loops, the WAL writer. The `saber-` prefix is what a profile,
a panic message or a per-thread CPU ledger reads to charge a thread to a
role. A bare `std::thread::spawn` starts an anonymous thread, and
`std::thread::scope` is a fork-join that starts and joins threads on every
call — on a per-task path that competes with the workers it serves.

The rule flags `thread::spawn` and `thread::scope`, as a path or inside a
`use` group, in non-test code of `crates/*/src`. Test code is exempt, and so
are the benchmark and baseline harnesses (`crates/bench`,
`crates/baselines`), which drive the engine from outside it.

There is no suppression: name the thread, or run the work on the calling
thread.
",
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Runs every rule on one file.
pub fn check_file(fa: &FileAnalysis<'_>, ctx: &Ctx, out: &mut Vec<Finding>) {
    unsafe_audit::check(fa, out);
    atomics::check(fa, ctx, out);
    lock_order::check(fa, ctx, out);
    sync_vocabulary::check(fa, out);
    named_threads::check(fa, out);
    condvar::check(fa, out);
    hot_path::check(fa, out);
}
