//! # saber-baselines
//!
//! The comparator systems used by the SABER evaluation (§6.2), rebuilt as
//! small, self-contained engines:
//!
//! * [`naive`] — an Esper-like multi-threaded engine that processes tuples
//!   one at a time under a global window-state lock with per-tuple value
//!   materialisation. Its purpose is to reproduce the synchronisation +
//!   allocation overheads that put Esper two orders of magnitude behind
//!   SABER in Fig. 7.
//! * [`microbatch`] — a Spark-Streaming-like micro-batch engine whose batch
//!   size is *coupled* to the window slide (batch = k · slide) and which pays
//!   a fixed scheduling overhead per batch. It reproduces Fig. 1 (throughput
//!   collapse for small slides) and the Fig. 9 comparison.
//! * [`columnar`] — a MonetDB-like in-memory columnar table engine with
//!   partitioned parallel θ-joins and hash equi-joins, used by the §6.2
//!   MonetDB comparison.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_methods,
    reason = "a comparator harness that drives its own fork-join threads, not an engine thread"
)]

pub mod columnar;
pub mod microbatch;
pub mod naive;
