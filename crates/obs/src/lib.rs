//! # saber_obs — observability primitives for the SABER workspace
//!
//! Zero-dependency, std-only building blocks for production metrics:
//!
//! * [`Histogram`] — a log-linear bucketed latency histogram with a
//!   **fixed-size atomic bucket array**: `record()` is a single `Relaxed`
//!   `fetch_add` on one bucket (plus one `Relaxed` `fetch_add` on the exact
//!   sum and one `Relaxed` `fetch_max` on the exact maximum — three
//!   uncontended cache lines, no locks, no allocation). Snapshots are
//!   mergeable and answer p50/p90/p99/p999 with a bounded relative error of
//!   `2^-4` (6.25%) per bucket.
//! * [`FlightRecorder`] — an always-on, fixed-size, lock-free ring of recent
//!   per-task pipeline traces (seqlock slots), dumpable on demand.
//! * [`PromWriter`] — the one renderer of the Prometheus text exposition,
//!   composed from snapshots (the server's scrape handler walks live
//!   engine state with it).
//!
//! The atomics protocol (orderings, seqlock validation) is documented in
//! `docs/concurrency.md` and machine-checked by `saber_lint`.

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "tests fork bare threads to race the code under test"
    )
)]

mod expo;
mod flight;
mod hist;

pub use expo::{escape_label_value, PromWriter};
pub use flight::{FlightRecord, FlightRecorder, STAGE_NAMES, TRACE_STAGES};
pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};
