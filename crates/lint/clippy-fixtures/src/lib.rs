//! Fixtures for the workspace rules clippy holds. CI runs clippy on this
//! crate with the root `clippy.toml` and diffs every `file:line lint` it
//! reports against `expected.txt`: each failing fixture reports its lint,
//! each passing one nothing.

#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "tests fork bare threads")
)]

pub mod harness;
pub mod hot_path;
pub mod named_threads;
pub mod sync_vocabulary;
pub mod unsafe_audit;
