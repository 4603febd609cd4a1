//! # saber-types
//!
//! Stream data model for the SABER engine (paper §2.4 and §5.1).
//!
//! A stream is an unbounded sequence of fixed-width relational tuples carried
//! in byte buffers. Tuples are *not* deserialised when they enter the engine;
//! instead, operators view rows through [`TupleRef`] and decode individual
//! attributes lazily ("lazy deserialisation", paper §5.1). The building
//! blocks are:
//!
//! * [`DataType`] / [`Attribute`] / [`Schema`] — fixed-width row layout with
//!   per-attribute byte offsets,
//! * [`Value`] — a decoded attribute value (used at the edges of the system:
//!   tests, examples, result inspection),
//! * [`TupleRef`] / [`TupleMut`] — zero-copy views over one row,
//! * [`RowBuffer`] — a growable, contiguous buffer of rows sharing a schema,
//! * [`ColumnarBatch`] — dense per-attribute columns gathered from a row
//!   range, the operand format of the vectorized operator kernels,
//! * [`cpu_features`] — process-wide runtime SIMD capability detection
//!   shared by every vectorized code path,
//! * [`sync`] — the non-poisoning `Mutex` / `Condvar` / `RwLock` every
//!   crate locks with,
//! * [`SaberError`] — the crate-wide error type.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod columnar;
pub mod cpu_features;
pub mod error;
pub mod schema;
pub mod sync;
pub mod tuple;
pub mod value;

pub use buffer::RowBuffer;
pub use columnar::ColumnarBatch;
pub use error::{Result, SaberError};
pub use schema::{Attribute, DataType, Schema};
pub use tuple::{TupleMut, TupleRef};
pub use value::Value;

/// Logical application timestamp (paper §2.4): a discrete, ordered time
/// domain given as non-negative integers. The engine interprets these as
/// milliseconds for the time-based window definitions of the application
/// benchmarks, but nothing in the core model depends on the unit.
pub type Timestamp = i64;
