//! Fixture tests: one passing and one failing snippet per rule, with the
//! failing fixture's diagnostic span asserted exactly, plus a self-check
//! that the live workspace is clean under every rule.

use saber_lint::analysis::FileAnalysis;
use saber_lint::config::LockOrder;
use saber_lint::diag::Finding;
use saber_lint::rules::{self, Ctx};
use std::collections::HashSet;

/// Lock hierarchy used by the lock-order fixtures: `outer` above `inner`.
const FIXTURE_LOCK_ORDER: &str = r#"
[[level]]
name = "outer"
rationale = "fixture outer level"
locks = ["fixture.rs:outer"]

[[level]]
name = "inner"
rationale = "fixture inner level"
locks = ["fixture.rs:inner"]
"#;

/// Runs every rule over `src` as if it were `crates/x/src/fixture.rs`,
/// with `fns` as the workspace function-name set.
fn check(src: &str, fns: &[&str]) -> Vec<Finding> {
    let lock_order = LockOrder::parse(FIXTURE_LOCK_ORDER).unwrap();
    let ctx = Ctx {
        lock_order,
        fn_names: fns.iter().map(|s| s.to_string()).collect::<HashSet<_>>(),
    };
    let fa = FileAnalysis::new("crates/x/src/fixture.rs".to_string(), src);
    let mut out = Vec::new();
    rules::check_file(&fa, &ctx, &mut out);
    out
}

/// The findings for one rule id.
fn of<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------- unsafe

#[test]
fn unsafe_audit_passes_annotated_blocks_and_documented_unsafe_fns() {
    let src = "\
fn read(p: *const u8) -> u8 {
    // SAFETY: the caller checked the pointer is in bounds.
    unsafe { *p }
}

/// Reads a byte.
///
/// # Safety
/// `p` must be valid for reads.
unsafe fn read_raw(p: *const u8) -> u8 {
    // SAFETY: forwarded contract from this fn's own Safety section.
    unsafe { *p }
}
";
    assert!(of(&check(src, &[]), "unsafe-audit").is_empty());
}

#[test]
fn unsafe_audit_flags_a_bare_unsafe_block_at_its_exact_span() {
    let src = "\
fn read(p: *const u8) -> u8 {
    unsafe { *p }
}
";
    let findings = check(src, &[]);
    let hits = of(&findings, "unsafe-audit");
    assert_eq!(hits.len(), 1);
    // The `unsafe` keyword sits on line 2, column 5, and spans 6 bytes.
    assert_eq!(hits[0].line, 2);
    assert_eq!(hits[0].column, 5);
    assert_eq!(hits[0].span.end - hits[0].span.start, "unsafe".len());
    assert!(hits[0].message.contains("`unsafe` block"));
}

#[test]
fn unsafe_audit_rejects_an_empty_safety_rationale() {
    let src = "\
fn read(p: *const u8) -> u8 {
    // SAFETY:
    unsafe { *p }
}
";
    let hits = check(src, &[]);
    let hits = of(&hits, "unsafe-audit");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].message.contains("empty rationale"));
}

// --------------------------------------------------------------- atomics

#[test]
fn atomics_passes_annotated_relaxed_writes_and_checked_pairs_with() {
    let src = "\
fn bump(&self) {
    // relaxed-ok: monitoring counter, read only for display.
    self.hits.fetch_add(1, Ordering::Relaxed);
    // pairs-with: consume — the reader Acquire-loads before draining.
    self.head.store(7, Ordering::Release);
    // Relaxed loads are always exempt.
    let _ = self.hits.load(Ordering::Relaxed);
}
";
    assert!(of(&check(src, &["consume"]), "atomics-protocol").is_empty());
}

#[test]
fn atomics_flags_an_unannotated_relaxed_write_at_its_exact_span() {
    let src = "\
fn bump(&self) {
    self.hits.fetch_add(1, Ordering::Relaxed);
}
";
    let findings = check(src, &[]);
    let hits = of(&findings, "atomics-protocol");
    assert_eq!(hits.len(), 1);
    // `Relaxed` starts after `    self.hits.fetch_add(1, Ordering::`.
    assert_eq!(hits[0].line, 2);
    assert_eq!(
        hits[0].column,
        "    self.hits.fetch_add(1, Ordering::".len() + 1
    );
    assert_eq!(hits[0].span.end - hits[0].span.start, "Relaxed".len());
    assert!(hits[0].message.contains("relaxed-ok"));
}

#[test]
fn atomics_rejects_a_pairs_with_naming_an_unknown_function() {
    let src = "\
fn publish(&self) {
    // pairs-with: renamed_away
    self.head.store(7, Ordering::Release);
}
";
    let findings = check(src, &["consume"]);
    let hits = of(&findings, "atomics-protocol");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].message.contains("renamed_away"));
    assert!(hits[0].message.contains("not defined"));
}

// ------------------------------------------------------------ lock-order

#[test]
fn lock_order_passes_nested_acquisition_in_declared_order() {
    let src = "\
fn transfer(&self) {
    let a = self.outer.lock();
    let b = self.inner.lock();
    drop(b);
    drop(a);
}
";
    assert!(of(&check(src, &[]), "lock-order").is_empty());
}

#[test]
fn lock_order_flags_inverted_acquisition_at_its_exact_span() {
    let src = "\
fn transfer(&self) {
    let b = self.inner.lock();
    let a = self.outer.lock();
}
";
    let findings = check(src, &[]);
    let hits = of(&findings, "lock-order");
    assert_eq!(hits.len(), 1);
    // The diagnostic anchors on the out-of-order `outer` receiver.
    assert_eq!(hits[0].line, 3);
    assert_eq!(hits[0].column, "    let a = self.".len() + 1);
    assert_eq!(hits[0].span.end - hits[0].span.start, "outer".len());
    assert!(hits[0].message.contains("outer"));
    assert!(hits[0].message.contains("inner"));
}

/// Checks the lock hierarchy `config` against `src` as the one scanned file.
fn check_declared(config: &str, src: &str) -> Vec<Finding> {
    let order = LockOrder::parse(config).unwrap();
    let files = [FileAnalysis::new("crates/x/src/fixture.rs", src)];
    let mut out = Vec::new();
    rules::lock_order::check_declared(&order, "lock-order.toml", config, &files, &mut out);
    out
}

#[test]
fn lock_order_passes_a_hierarchy_whose_every_lock_is_acquired() {
    let src = "fn f(&self) { let a = self.outer.lock(); self.inner.write().push(1); }\n";
    assert!(check_declared(FIXTURE_LOCK_ORDER, src).is_empty());
}

#[test]
fn lock_order_flags_stale_declared_locks_at_their_exact_span() {
    let config = format!(
        "{FIXTURE_LOCK_ORDER}[[level]]\nname = \"gone\"\nrationale = \"file deleted\"\n\
         locks = [\"removed.rs:priors\"]\n"
    );
    // `outer` is taken by a real fn, `inner` only by test code.
    let src = "\
fn take(&self) { self.outer.lock().clear(); }

#[cfg(test)]
mod tests {
    fn probe(&self) { self.inner.lock().clear(); }
}
";
    let out = check_declared(&config, src);
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out[0].message.contains("`fixture.rs:inner`"));
    assert!(out[0].message.contains("never acquired"));
    assert!(out[1]
        .message
        .contains("`removed.rs:priors` (level `gone`)"));
    assert!(out[1].message.contains("no scanned file"));
    // The finding anchors on the quoted entry in the config.
    assert_eq!(out[1].file, "lock-order.toml");
    assert_eq!(out[1].line, config.lines().count());
    assert_eq!(out[1].column, "locks = [".len() + 1);
    let span = &config[out[1].span.start..out[1].span.end];
    assert_eq!(span, "\"removed.rs:priors\"");
}

// ------------------------------------------------------- sync-vocabulary

#[test]
fn sync_vocabulary_passes_workspace_locks_and_other_std_sync_items() {
    let src = "\
use saber_types::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

fn make() -> Arc<Mutex<u64>> {
    Arc::new(Mutex::new(0))
}

#[cfg(test)]
mod tests {
    fn poisoning_std_lock_in_a_test() {
        let m = std::sync::Mutex::new(0);
    }
}
";
    assert!(of(&check(src, &[]), "sync-vocabulary").is_empty());
}

#[test]
fn sync_vocabulary_flags_std_locks_at_their_exact_span() {
    let src = "\
use std::sync::{Arc, Mutex};

fn make() -> std::sync::RwLock<u64> {
    std::sync::RwLock::new(0)
}
";
    let findings = check(src, &[]);
    let hits = of(&findings, "sync-vocabulary");
    assert_eq!(hits.len(), 3);
    // The first hit anchors on `Mutex` inside the `use` group.
    assert_eq!(hits[0].line, 1);
    assert_eq!(hits[0].column, "use std::sync::{Arc, ".len() + 1);
    assert_eq!(hits[0].span.end - hits[0].span.start, "Mutex".len());
    assert!(hits[0].message.contains("std::sync::Mutex"));
    assert_eq!(hits[2].line, 4);
}

// --------------------------------------------------------- named-threads

#[test]
fn named_threads_passes_builder_threads_and_tests() {
    let src = "\
use std::thread::{self, Builder};

fn start() -> thread::JoinHandle<()> {
    Builder::new().name(\"saber-x\".into()).spawn(|| {}).unwrap()
}

#[cfg(test)]
mod tests {
    fn forks_in_a_test() {
        std::thread::scope(|s| { s.spawn(|| {}); });
        std::thread::spawn(|| {}).join().unwrap();
    }
}
";
    assert!(of(&check(src, &[]), "named-threads").is_empty());
}

#[test]
fn named_threads_flags_spawn_and_scope_at_their_exact_span() {
    let src = "\
use std::thread::{scope, sleep};

fn run(work: &[u64]) {
    std::thread::scope(|s| {
        s.spawn(|| work.len());
    });
    thread::spawn(|| {});
}
";
    let findings = check(src, &[]);
    let hits = of(&findings, "named-threads");
    assert_eq!(hits.len(), 3);
    // The first hit anchors on `scope` inside the `use` group.
    assert_eq!(hits[0].line, 1);
    assert_eq!(hits[0].column, "use std::thread::{".len() + 1);
    assert_eq!(hits[0].span.end - hits[0].span.start, "scope".len());
    assert!(hits[0].message.contains("std::thread::scope"));
    assert_eq!(hits[1].line, 4);
    assert_eq!(hits[1].column, "    std::thread::".len() + 1);
    assert_eq!(hits[2].line, 7);
    assert!(hits[2].message.contains("std::thread::spawn"));
}

#[test]
fn named_threads_exempts_the_harness_crates() {
    let src = "fn load() { std::thread::spawn(|| {}); }\n";
    for path in [
        "crates/bench/src/lib.rs",
        "crates/baselines/src/microbatch.rs",
    ] {
        let fa = FileAnalysis::new(path.to_string(), src);
        let mut out = Vec::new();
        saber_lint::rules::named_threads::check(&fa, &mut out);
        assert!(out.is_empty(), "{path}");
    }
}

// ---------------------------------------------------------- condvar-loop

#[test]
fn condvar_passes_waits_guarded_by_while_or_loop() {
    let src = "\
fn park(&self) {
    let mut ready = self.lock.lock();
    while !*ready {
        self.cv.wait(&mut ready);
    }
    loop {
        self.cv.wait_timeout(&mut ready, timeout);
        if *ready { break; }
    }
    // wait_while re-checks its predicate internally.
    self.cv.wait_while(&mut ready, |r| !*r);
}
";
    assert!(of(&check(src, &[]), "condvar-loop").is_empty());
}

#[test]
fn condvar_flags_an_if_guarded_wait_at_its_exact_span() {
    let src = "\
fn park(&self) {
    let mut ready = self.lock.lock();
    if !*ready {
        self.cv.wait(&mut ready);
    }
}
";
    let findings = check(src, &[]);
    let hits = of(&findings, "condvar-loop");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 4);
    assert_eq!(hits[0].column, "        self.cv.".len() + 1);
    assert_eq!(hits[0].span.end - hits[0].span.start, "wait".len());
}

// ------------------------------------------------------ hot-path-no-panic

#[test]
fn hot_path_passes_checked_patterns_and_fn_level_annotations() {
    let src = "\
//! Fixture kernel module.
//!
//! saber-lint: hot-path

fn safe_sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

// hot-path-ok: i < values.len() is guaranteed by the loop bound.
fn proven(values: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..values.len() {
        acc += values[i];
    }
    acc
}
";
    assert!(of(&check(src, &[]), "hot-path-no-panic").is_empty());
}

#[test]
fn hot_path_flags_an_unwrap_at_its_exact_span() {
    let src = "\
//! saber-lint: hot-path

fn first(values: &[f64]) -> f64 {
    *values.first().unwrap()
}
";
    let findings = check(src, &[]);
    let hits = of(&findings, "hot-path-no-panic");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 4);
    assert_eq!(hits[0].column, "    *values.first().".len() + 1);
    assert_eq!(hits[0].span.end - hits[0].span.start, "unwrap".len());
}

#[test]
fn unmarked_files_are_exempt_from_the_hot_path_rule() {
    let src = "\
fn first(values: &[f64]) -> f64 {
    *values.first().unwrap()
}
";
    assert!(of(&check(src, &[]), "hot-path-no-panic").is_empty());
}

// ------------------------------------------------------------- self-check

/// The audit invariant this PR establishes: the live workspace has zero
/// findings under every rule. Any regression (a new unannotated `unsafe`,
/// a renamed pairs-with target, an inverted lock acquisition) fails here
/// and in the `lint-invariants` CI job.
#[test]
fn live_workspace_is_clean_under_every_rule() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let findings = saber_lint::run_check(&root).unwrap();
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "workspace has {} lint finding(s):\n{}",
        findings.len(),
        rendered.join("\n\n")
    );
}
