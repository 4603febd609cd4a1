//! Fixture tests: one passing and one failing snippet per rule, with the
//! failing fixture's diagnostic span asserted exactly, plus a self-check
//! that the live workspace is clean under every rule. The rules clippy holds
//! have their fixtures in `crates/lint/clippy-fixtures`.

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

// ------------------------------------------------------------- rationale

#[test]
fn every_suppression_marker_needs_a_rationale() {
    let src = "\
fn read(&self, p: *const u8) -> u8 {
    // relaxed-ok:
    self.hits.fetch_add(1, Ordering::Relaxed);
    let g = self.outer.lock(); // lock-order-ok:
    /* condvar-ok: */
    // SAFETY:
    unsafe { *p }
}
";
    let findings = check(src, &[]);
    // An empty annotation still places the suppression; only the rationale
    // check reports, once per marker, anchored on the marker.
    assert!(findings.iter().all(|f| f.rule == rules::RATIONALE));
    let spans = findings.iter().map(|f| &src[f.span.start..f.span.end]);
    let want = ["relaxed-ok:", "lock-order-ok:", "condvar-ok:", "SAFETY:"];
    assert_eq!(spans.collect::<Vec<_>>(), want);
    // `SAFETY:` starts after `    // ` on line 6.
    assert_eq!((findings[3].line, findings[3].column), (6, 8));
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

// ------------------------------------------------------------- self-check

/// The live workspace has zero findings under every rule. Any regression
/// (an empty `// SAFETY:`, a renamed pairs-with target, an inverted lock
/// acquisition) fails here and in the `lint-invariants` CI job.
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
