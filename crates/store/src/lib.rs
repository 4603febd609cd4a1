//! # saber-store
//!
//! The durability layer of the SABER reproduction (see `docs/persistence.md`):
//! a segmented, length-prefixed, CRC-checked **write-ahead log** for ingested
//! row batches and catalog mutations, plus atomic **catalog snapshots**, so a
//! crashed engine can be rebuilt with the same query ids and byte-identical
//! result windows.
//!
//! The design follows classic database recovery architecture (log +
//! snapshot + replay) adapted to a stream engine whose only mutable state
//! is the stream history itself:
//!
//! * **Records** ([`WalRecord`]) capture the four events that define an
//!   engine's logical state: stream declarations, query registrations (with
//!   their SQL text), query removals, and ingested row batches.
//! * **The log** ([`Store::append`]) is written with *group commit*: an
//!   append encodes into an in-memory buffer under a short mutex and
//!   returns; a dedicated flusher thread writes the accumulated batch
//!   sequentially every [`DurabilityConfig::flush_interval`] and applies the
//!   [`FsyncPolicy`]. Durability therefore costs one sequential write per
//!   flush interval, not one per row — the ingest hot path only pays a
//!   `memcpy`.
//! * **Segments** rotate at [`DurabilityConfig::segment_bytes`]; a
//!   [`Snapshot`] records the catalog plus each live query's replay
//!   position, after which wholly obsolete segments are deleted
//!   ([`Store::checkpoint`]).
//! * **Recovery** ([`Store::replay`]) scans the segments in order, verifying
//!   every record's CRC. A torn record at the *tail of the final segment* is
//!   the signature of a crash mid-write and is truncated away at
//!   [`Store::open`]; corruption anywhere else is reported as an error.
//!
//! The crate is std-only and engine-agnostic: it stores opaque byte
//! payloads (row batches, serialized schema layouts) and never interprets
//! them. `saber_engine` owns the mapping onto dispatcher cuts, query
//! registration and replay ingestion.

#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "tests fork bare threads to race the code under test"
    )
)]

mod config;
mod crc;
mod lockfile;
mod record;
mod snapshot;
mod store;
mod wal;

pub use config::{DurabilityConfig, FsyncPolicy};
pub use lockfile::{DirLock, LOCK_FILE_NAME};
pub use record::WalRecord;
pub use snapshot::{Snapshot, SnapshotQuery};
pub use store::{has_existing_state, ReplayStats, Store, StoreStats};
