//! `saber_lint` — workspace concurrency-invariant analyzer.
//!
//! Saber's performance story rests on hand-rolled lock-free code: the
//! CAS-reservation ingest ring, the permit-counter lifecycle, the credit
//! gate, the sharded task queue. The invariants those components rely on —
//! which `unsafe` is sound and why, which `Relaxed` is benign, which lock
//! nests inside which — are exactly the facts `rustc` cannot check and code
//! review forgets. This crate checks them mechanically.
//!
//! The analyzer walks every `crates/*/src/**/*.rs`, lexes each file into a
//! spanned Rust token stream (comments included — the suppression
//! annotations live there) and enforces the three rules no stock lint can
//! hold, reporting violations as compiler-style caret diagnostics:
//!
//! | rule | requirement |
//! |---|---|
//! | `atomics-protocol` | Relaxed writes need `// relaxed-ok:`; Release stores need `// pairs-with: <fn>` |
//! | `lock-order` | double-acquisition must follow `crates/lint/lock-order.toml` |
//! | `condvar-loop` | condvar waits must sit in a `while`/`loop` |
//!
//! The other four workspace rules (documented `unsafe`, one lock
//! vocabulary, named threads, panic-free hot paths) are clippy lints, set in
//! the root `clippy.toml` and `[workspace.lints.clippy]`; see
//! `docs/concurrency.md`.
//!
//! Every suppression annotation — `// SAFETY:` included — must carry a
//! non-empty rationale; an unexplained suppression is itself a finding
//! (`rationale`). `// pairs-with:` values are machine-checked against the
//! set of functions defined in the workspace, so renaming the consumer of a
//! Release store breaks the build until the annotation is updated.
//!
//! Like `saber_sql`, the crate is zero-dependency: it lexes with its own
//! single-pass tokenizer and parses its tiny TOML config by hand, so it
//! builds and runs before anything else in the workspace does.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

use analysis::FileAnalysis;
use config::LockOrder;
use diag::Finding;
use rules::Ctx;
use std::collections::HashSet;
use std::fs;
use std::path::Path;

/// Runs every rule on every `crates/*/src/**/*.rs` under `root`.
///
/// Returns the findings (empty = clean), or `Err` for I/O or config
/// problems (missing workspace, malformed `lock-order.toml`).
pub fn run_check(root: &Path) -> Result<Vec<Finding>, String> {
    let config_path = root.join("crates/lint/lock-order.toml");
    let config_text = fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
    let lock_order = LockOrder::parse(&config_text)?;

    let files = workspace::collect_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let text = fs::read_to_string(&f.path)
            .map_err(|e| format!("cannot read {}: {e}", f.path.display()))?;
        sources.push(text);
    }

    // Pass 1: collect every defined fn name (for pairs-with checking).
    let mut fn_names: HashSet<String> = HashSet::new();
    for src in &sources {
        collect_fn_names(src, &mut fn_names);
    }
    let ctx = Ctx {
        lock_order,
        fn_names,
    };

    // Pass 2: run the rules, then check the hierarchy against the files.
    let analyses: Vec<FileAnalysis<'_>> = files
        .iter()
        .zip(&sources)
        .map(|(f, src)| FileAnalysis::new(f.rel.clone(), src))
        .collect();
    let mut findings = Vec::new();
    for fa in &analyses {
        rules::check_file(fa, &ctx, &mut findings);
    }
    rules::lock_order::check_declared(
        &ctx.lock_order,
        "crates/lint/lock-order.toml",
        &config_text,
        &analyses,
        &mut findings,
    );
    Ok(findings)
}

/// Adds every identifier following a `fn` keyword in `src` to `out`.
fn collect_fn_names(src: &str, out: &mut HashSet<String>) {
    let toks = lexer::tokenize(src);
    let code: Vec<&lexer::Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    for w in code.windows(2) {
        if w[0].is_ident(src, "fn") && w[1].kind == lexer::TokKind::Ident {
            out.insert(w[1].text(src).to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_fn_names() {
        let mut names = HashSet::new();
        collect_fn_names(
            "pub fn alpha() {}\nunsafe fn beta() {}\n// fn ghost()\n",
            &mut names,
        );
        assert!(names.contains("alpha"));
        assert!(names.contains("beta"));
        assert!(!names.contains("ghost"));
    }
}
