//! `saber_net` — the readiness-based network core of the SABER
//! reproduction: a single epoll event loop multiplexing thousands of
//! nonblocking connections, a length-prefixed binary wire protocol (with
//! the newline-delimited text protocol retained for the REPL), shared-
//! secret authentication, and per-client quotas.
//!
//! The paper's engine is built around one latency-critical dispatch path;
//! a thread-per-connection frontend both wastes memory (stacks) at high
//! fan-out and introduces scheduler jitter on that path. This crate
//! replaces it with the classic C10k shape:
//!
//! * [`os`] — a minimal, libc-crate-free epoll + rlimit shim (raw
//!   syscalls through thin FFI, consistent with the workspace's
//!   no-external-dependencies rule).
//! * [`wire`] — the `[len][type][payload]` binary frame codec, version-
//!   negotiated through a HELLO exchange.
//! * [`quota`] — the per-connection row-rate token bucket.
//! * [`server`] — the event loop, per-connection state machines
//!   (read buffer → decoder → dispatch → write buffer with interest
//!   re-arming), the dispatch worker pool, and the [`server::App`]
//!   trait the application implements.
//! * [`client`] — a small blocking binary-protocol client for the REPL,
//!   tests and benches.
//!
//! The crate is engine-agnostic (its one workspace dependency is
//! `saber_types`, for the lock types): `saber_server` layers the SQL
//! command surface on top via [`server::App`].

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod os;
pub mod quota;
pub mod server;
pub mod wire;

pub use client::BinaryClient;
pub use server::{App, ConnHandle, ConnMode, NetConfig, NetMetricsHandle, NetServer, Request};
pub use wire::{ErrCode, Frame};
