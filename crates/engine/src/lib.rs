//! # saber-engine
//!
//! The SABER hybrid stream processing engine (paper §4): the runtime that
//! turns windowed streaming queries into fixed-size *query tasks*, schedules
//! them over heterogeneous processors (CPU worker threads and the simulated
//! accelerator) with **heterogeneous lookahead scheduling (HLS)**, and
//! reassembles ordered result streams from the out-of-order task results.
//!
//! Lifecycle of a tuple (Fig. 4):
//!
//! 1. **Dispatching stage** — [`ingest`](Saber::ingest)ed bytes (from any
//!    number of producer threads — see [`Saber::ingest_handle`]) land
//!    lock-free in a per-query, per-stream reservation-based
//!    [`circular::CircularBuffer`]; once a query has accumulated
//!    `query_task_size` bytes, the [`dispatcher::Dispatcher`]'s task cutter
//!    cuts a [`task::QueryTask`] (window computation is deferred to the
//!    task itself) and admits it — gated by the [`flow::FlowControl`]
//!    credit gate, which blocks producers precisely while the queue is
//!    saturated — into the per-query sharded [`queue::TaskQueue`]. Rows
//!    that have waited [`dispatcher::EARLY_CUT_AGE`] for that are cut into
//!    an undersized task by an idle worker instead ([`worker`]).
//! 2. **Scheduling stage** — idle workers pick tasks through the configured
//!    [`scheduler::SchedulingPolicyKind`]: HLS (Alg. 1), FCFS or Static.
//!    HLS scans the O(#queries) sub-queue heads instead of a global list.
//! 3. **Execution stage** — CPU workers run the task through
//!    `saber_cpu::CpuExecutor`; the accelerator worker drives the
//!    pipeline of `saber_gpu` on its own thread.
//! 4. **Result stage** — [`result::ResultStage`] reorders task results by
//!    task identifier, assembles window results from window fragments and
//!    appends them to the query's [`sink::QuerySink`].

//! ## Dynamic query lifecycle
//!
//! The query set is not frozen at [`engine::Saber::start`]: queries are
//! registered (and removed) through typed handles at any point of the
//! engine's life. [`engine::Saber::add_query`] returns a
//! [`engine::QueryHandle`] that owns the query's [`sink::QuerySink`] and
//! supports loss-free [`engine::QueryHandle::remove`]; results are consumed
//! push-style via [`sink::QuerySink::wait_for_window`] or
//! [`sink::QuerySink::subscribe`]. (The deprecated raw-`usize` `*_indexed`
//! shims of the 0.5 release have been removed; address queries with
//! [`ids::QueryId`] / [`ids::StreamId`].)
//!
//! ## Durability and crash recovery
//!
//! With a [`saber_store::DurabilityConfig`] on the builder, acknowledged
//! ingests and catalog mutations are group-committed to a write-ahead log,
//! catalog snapshots are taken as result windows close, and
//! [`engine::Saber::recover`] rebuilds a crashed engine — same query ids,
//! byte-identical replayed result windows (see the [`durability`] module
//! and `docs/persistence.md`).

#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "tests fork bare threads to race the code under test"
    )
)]

pub mod circular;
pub mod config;
pub mod dispatcher;
pub mod durability;
pub mod engine;
pub mod flow;
pub mod ids;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod result;
pub mod scheduler;
mod sharing;
pub mod sink;
pub mod task;
pub mod throughput;
pub mod worker;

pub use config::{EngineConfig, ExecutionMode, SaberBuilder};
pub use durability::{CheckpointReport, DurabilityStats, RecoveredQuery, RecoveryReport};
pub use engine::{IngestHandle, QueryHandle, Saber};
pub use flow::FlowControl;
pub use ids::{QueryId, StreamId};
pub use metrics::{EngineStats, PlanStats, QueryStats, StageHistograms, StatsSnapshot};
pub use queue::{TaskHead, TaskQueue};
pub use registry::QueryRegistry;
pub use scheduler::{Processor, SchedulingPolicyKind};
pub use sink::{QuerySink, WindowWait};
pub use task::{QueryTask, TaskStamps};
pub use throughput::{PlacementDecision, ThroughputMatrix};

// Observability re-exports, so engine users can consume flight-recorder
// traces and histogram snapshots without a direct `saber_obs` dependency.
pub use saber_obs::{FlightRecord, FlightRecorder, HistogramSnapshot, STAGE_NAMES, TRACE_STAGES};

// Durability configuration re-exports, so engine users do not need a
// direct `saber_store` dependency.
pub use saber_store::{DurabilityConfig, FsyncPolicy};
