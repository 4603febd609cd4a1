//! Durability and crash recovery for the engine (see `docs/persistence.md`).
//!
//! When an engine is built with a [`DurabilityConfig`](saber_store::DurabilityConfig),
//! every acknowledged
//! ingest and every catalog mutation (stream declaration, SQL query
//! registration, query removal) is appended to a `saber_store` write-ahead
//! log before the call returns — group-committed, so the hot path pays a
//! buffered copy, not a disk write. The same cut/flush discipline that makes
//! `stop()` and `remove()` loss-free orders the log: a query's ingest
//! records always precede its `RemoveQuery` record, because removal waits
//! out in-flight ingest permits before it deregisters.
//!
//! **Checkpoints** capture the engine's logical catalog — streams, live
//! queries (id + SQL + WAL cut position) and the id allocator — *not* row
//! data or operator state: windows are a deterministic function of the
//! ingested history, so recovery re-registers the queries through the
//! typed `add_query` path and replays each one's WAL suffix. A checkpoint
//! lets the store prune WAL segments wholly below the minimum live cut,
//! and that cut moves only when a physical plan retires. So the engine
//! checkpoints exactly then — when a removal takes a plan's last member —
//! plus once at `stop()` and on explicit [`Saber::checkpoint`] calls.
//! Recovery takes none.
//!
//! **Recovery** ([`Saber::recover`]) rebuilds a crashed engine from its
//! directory: load the newest readable snapshot, restore the catalog, then
//! scan the log with logging disabled — re-registering every retained query
//! at its `AddQuery` record under its original id, applying removals, and
//! re-ingesting the ingest records of live queries through the normal
//! ingest path. The result is an engine serving the same `QueryId`s whose
//! sinks hold result windows byte-identical to an uninterrupted run over
//! the durable prefix of the input.

use crate::engine::Saber;
use crate::ids::{QueryId, StreamId};
use saber_sql::SharedCatalog;
use saber_store::{Snapshot, SnapshotQuery, Store, WalRecord};
use saber_types::schema::SchemaRef;
use saber_types::sync::Mutex;
use saber_types::{Result, SaberError, Schema};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-query durability metadata: what a checkpoint needs to restore it.
pub(crate) struct QueryMeta {
    pub(crate) sql: String,
    /// WAL seq of the first `AddQuery` record of the query's physical plan
    /// — where its replay starts, and how far back the WAL is retained.
    pub(crate) replay_from: u64,
}

/// Everything the engine shares with its durability machinery. Lives in
/// `EngineCore` as `Option<Arc<Durability>>`.
pub(crate) struct Durability {
    pub(crate) store: Store,
    /// The engine-owned stream catalog (persisted by snapshots; the
    /// authority SQL queries are compiled against in durable deployments).
    pub(crate) catalog: SharedCatalog,
    /// False while recovery replays the log (replayed ingests must not be
    /// re-appended); true in normal operation.
    pub(crate) logging: AtomicBool,
    /// Live queries' durability metadata. The lock also serializes catalog
    /// *record appends* with checkpoint capture, so a snapshot at WAL
    /// position `p` reflects exactly the catalog records below `p`.
    pub(crate) meta: Mutex<HashMap<usize, QueryMeta>>,
    /// Rows re-ingested by the last recovery (surfaced through `STATS`).
    pub(crate) replayed_rows: AtomicU64,
}

impl Durability {
    pub(crate) fn new(store: Store, catalog: SharedCatalog, logging: bool) -> Self {
        Self {
            store,
            catalog,
            logging: AtomicBool::new(logging),
            meta: Mutex::new(HashMap::new()),
            replayed_rows: AtomicU64::new(0),
        }
    }

    /// True when acknowledged work must be appended to the WAL.
    pub(crate) fn logging(&self) -> bool {
        self.logging.load(Ordering::SeqCst)
    }
}

/// Durability counters of a running engine (the server surfaces these in
/// its `STATS` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Total framed bytes appended to the WAL over the engine's lifetime.
    pub wal_bytes: u64,
    /// WAL segment files currently on disk.
    pub wal_segments: usize,
    /// WAL position of the newest catalog snapshot, if one was taken (or
    /// found at recovery).
    pub last_checkpoint: Option<u64>,
    /// Rows re-ingested by recovery when this engine was built with
    /// [`Saber::recover`] (0 for a fresh engine).
    pub recovery_replayed_rows: u64,
}

/// One query restored by [`Saber::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredQuery {
    /// The query's original (and restored) id.
    pub id: QueryId,
    /// The SQL text it was re-registered from.
    pub sql: String,
}

/// What [`Saber::recover`] rebuilt.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Live queries after recovery, in id order.
    pub queries: Vec<RecoveredQuery>,
    /// Stream names in the restored catalog.
    pub streams: Vec<String>,
    /// WAL records scanned (including ones skipped as pre-snapshot or
    /// addressed to removed queries).
    pub replayed_records: u64,
    /// Rows re-ingested through the normal ingest path.
    pub replayed_rows: u64,
    /// Position of the snapshot recovery started from (None = full log).
    pub snapshot_wal_seq: Option<u64>,
    /// Bytes of a torn final group-commit write truncated at open.
    pub torn_tail_bytes: u64,
}

/// Outcome of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// WAL position the snapshot covers (its `next_wal_seq`).
    pub wal_seq: u64,
    /// Live queries captured.
    pub live_queries: usize,
    /// WAL segment files deleted by retention.
    pub pruned_segments: usize,
}

/// Takes one checkpoint of a durable engine whose query-id high-water mark
/// is `registry_high_water`. Plan retirement, `stop()` and the public
/// [`Saber::checkpoint`] share it.
pub(crate) fn checkpoint_engine(
    durability: &Durability,
    registry_high_water: usize,
) -> Result<CheckpointReport> {
    let snapshot = {
        // Captured under the meta lock: catalog-record appends take the
        // same lock, so `next_wal_seq` cleanly separates catalog records
        // reflected here from ones recovery must re-apply.
        let meta = durability.meta.lock();
        let mut queries: Vec<SnapshotQuery> = meta
            .iter()
            .map(|(id, m)| SnapshotQuery {
                id: *id as u64,
                sql: m.sql.clone(),
                replay_from: m.replay_from,
            })
            .collect();
        queries.sort_by_key(|q| q.id);
        Snapshot {
            next_wal_seq: durability.store.next_seq(),
            next_query_id: registry_high_water as u64,
            catalog: durability.catalog.serialize(),
            queries,
        }
    };
    let pruned_segments = durability.store.checkpoint(&snapshot)?;
    Ok(CheckpointReport {
        wal_seq: snapshot.next_wal_seq,
        live_queries: snapshot.queries.len(),
        pruned_segments,
    })
}

impl Saber {
    /// Rebuilds an engine from a durability directory written by a previous
    /// run (a crash or a clean shutdown — recovery does not distinguish):
    /// restores the catalog from the newest snapshot, replays the retained
    /// WAL — query registrations and removals at their records, ingests
    /// through the normal ingest path — and returns the engine **already
    /// started**, serving the same [`QueryId`]s with result windows
    /// byte-identical to an uninterrupted run over the durable input prefix.
    ///
    /// `config.durability` must be set; its `dir` may also be empty or
    /// nonexistent (trivial recovery — this is how a persistent server
    /// cold-starts). Queries registered without SQL text (the programmatic
    /// [`Saber::add_query`] path) are not recoverable and will be absent.
    pub fn recover(config: crate::config::EngineConfig) -> Result<(Saber, RecoveryReport)> {
        let durability_config = config.durability.clone().ok_or_else(|| {
            SaberError::Config("Saber::recover requires config.durability to be set".into())
        })?;
        durability_config.validate()?;
        let store = Store::open(&durability_config)?;
        let snapshot = store.load_snapshot()?;
        let durability = Arc::new(Durability::new(store, SharedCatalog::new(), false));
        let mut engine = Saber::with_durability(config, Some(durability.clone()))?;
        engine.start()?;
        let mut snap_seq = 0u64;
        let mut snapshot_wal_seq = None;
        let mut listed = HashMap::new();
        if let Some(snap) = snapshot {
            let restored = SharedCatalog::deserialize(&snap.catalog)?;
            durability.catalog.restore(restored.snapshot());
            engine.reserve_query_ids_through(snap.next_query_id as usize);
            snap_seq = snap.next_wal_seq;
            snapshot_wal_seq = Some(snap.next_wal_seq);
            listed = snap.queries.into_iter().map(|q| (q.id, q)).collect();
        }
        let mut replayed_rows = 0u64;
        let scan = durability.store.replay(&mut |seq, record| {
            match record {
                // Stream records below the snapshot position are already
                // reflected in its catalog.
                WalRecord::CreateStream { name, schema } => {
                    if seq >= snap_seq {
                        durability
                            .catalog
                            .register(name, Schema::decode_layout(&schema)?.into_ref());
                    }
                }
                // Queries register at their records, below the snapshot
                // position too: a later member of a plan attaches exactly
                // where it did live, to a plan rebuilt from its first
                // registration.
                WalRecord::AddQuery { id, sql } => {
                    let replayed = engine.replay_add_query(id as usize, &sql, seq);
                    match listed.remove(&id) {
                        // Removed before the snapshot: replayed only for the
                        // later members its plan may have carried, and
                        // skipped if the snapshot's catalog no longer
                        // compiles it.
                        None if seq < snap_seq => {}
                        _ => replayed?,
                    }
                }
                WalRecord::RemoveQuery { id } => {
                    if engine.query(QueryId(id as usize)).is_some() {
                        engine.remove_query(QueryId(id as usize))?;
                    }
                }
                WalRecord::Ingest {
                    query,
                    stream,
                    bytes,
                } => {
                    // Ingests for removed (or never-restored) queries are
                    // part of history but have no live target: skip.
                    if let Some(handle) = engine.query(QueryId(query as usize)) {
                        let row_size = handle.stream_row_size(StreamId(stream as usize))?;
                        handle.ingest(StreamId(stream as usize), &bytes)?;
                        replayed_rows += (bytes.len() / row_size) as u64;
                    }
                }
            }
            Ok(())
        })?;
        // A live query whose `AddQuery` record the log no longer holds (a
        // tail lost below the snapshot position) is restored from the
        // snapshot, with nothing left to replay.
        let mut unreplayed: Vec<_> = listed.into_values().collect();
        unreplayed.sort_by_key(|q| q.id);
        for q in unreplayed {
            engine.replay_add_query(q.id as usize, &q.sql, q.replay_from)?;
        }
        durability
            .replayed_rows
            .store(replayed_rows, Ordering::SeqCst);
        durability.logging.store(true, Ordering::SeqCst);
        let queries = {
            let meta = durability.meta.lock();
            let mut queries: Vec<RecoveredQuery> = meta
                .iter()
                .map(|(id, m)| RecoveredQuery {
                    id: QueryId(*id),
                    sql: m.sql.clone(),
                })
                .collect();
            queries.sort_by_key(|q| q.id.index());
            queries
        };
        let report = RecoveryReport {
            queries,
            streams: durability
                .catalog
                .streams()
                .into_iter()
                .map(|(name, _)| name)
                .collect(),
            replayed_records: scan.records,
            replayed_rows,
            snapshot_wal_seq,
            torn_tail_bytes: scan.torn_tail_bytes,
        };
        Ok((engine, report))
    }

    /// The engine-owned stream catalog of a durable engine (`None` for
    /// in-memory engines, which use caller-provided catalogs). Streams
    /// declared through [`Saber::create_stream`] — and the whole catalog —
    /// survive restarts via snapshots.
    pub fn shared_catalog(&self) -> Option<SharedCatalog> {
        self.durability().map(|d| d.catalog.clone())
    }

    /// Declares (or confirms) a stream in the durable catalog, logging it
    /// for recovery. Registering a name that already carries an identical
    /// schema is a cheap no-op; redefining a stream's schema is logged anew
    /// (note: queries compiled against the *old* schema stop being
    /// recoverable — see `docs/persistence.md`).
    ///
    /// Errors with [`SaberError::State`] on an in-memory engine.
    pub fn create_stream(&self, name: &str, schema: SchemaRef) -> Result<()> {
        let durability = self.durability().ok_or_else(|| {
            SaberError::State(
                "create_stream requires durability; in-memory engines use caller-owned catalogs"
                    .into(),
            )
        })?;
        let _meta = durability.meta.lock();
        if durability
            .catalog
            .get(name)
            .is_some_and(|existing| *existing == *schema)
        {
            return Ok(());
        }
        if durability.logging() {
            durability.store.append(&WalRecord::CreateStream {
                name: name.to_string(),
                schema: schema.encode_layout(),
            })?;
        }
        durability.catalog.register(name, schema);
        Ok(())
    }

    /// Takes a catalog snapshot now (and prunes obsolete WAL segments).
    /// Returns `None` on an in-memory engine. The engine checkpoints on its
    /// own when a removal retires a plan and at `stop()`; explicit calls
    /// are for tests and operational tooling. Concurrent checkpoints run
    /// one at a time.
    pub fn checkpoint(&self) -> Result<Option<CheckpointReport>> {
        match self.durability() {
            Some(durability) => Ok(Some(checkpoint_engine(
                durability,
                self.registered_queries(),
            )?)),
            None => Ok(None),
        }
    }

    /// Durability counters (`None` on an in-memory engine).
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let durability = self.durability()?;
        let stats = durability.store.stats();
        Some(DurabilityStats {
            wal_bytes: stats.wal_bytes,
            wal_segments: stats.wal_segments,
            last_checkpoint: stats.last_checkpoint,
            recovery_replayed_rows: durability.replayed_rows.load(Ordering::SeqCst),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::config::ExecutionMode;
    use saber_store::{DurabilityConfig, FsyncPolicy};
    use saber_types::{DataType, RowBuffer, Value};
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    struct TempDir {
        path: PathBuf,
    }

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "saber-engine-durability-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            Self { path }
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    fn durable_config(dir: &Path) -> EngineConfig {
        let mut durability = DurabilityConfig::new(dir);
        durability.flush_interval = Duration::from_millis(1);
        durability.fsync = FsyncPolicy::EveryFlush;
        EngineConfig {
            worker_threads: 2,
            query_task_size: 16 * 1024,
            execution_mode: ExecutionMode::CpuOnly,
            durability: Some(durability),
            ..EngineConfig::default()
        }
    }

    fn schema() -> SchemaRef {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
            ("key", DataType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    fn rows(n: usize, start: i64) -> Vec<u8> {
        let mut buf = RowBuffer::new(schema());
        for i in 0..n {
            let abs = start + i as i64;
            buf.push_values(&[
                Value::Timestamp(abs),
                Value::Float((abs % 100) as f32 / 100.0),
                Value::Int((abs % 8) as i32),
            ])
            .unwrap();
        }
        buf.into_bytes()
    }

    /// Reference: the same traffic on a fresh in-memory engine.
    fn reference_windows(sql: &str, batches: &[Vec<u8>]) -> Vec<u8> {
        let mut engine = Saber::builder()
            .worker_threads(2)
            .execution_mode(ExecutionMode::CpuOnly)
            .build()
            .unwrap();
        engine.start().unwrap();
        let catalog = saber_sql::Catalog::new().with_stream("S", schema());
        let handle = engine.add_query_sql(sql, &catalog).unwrap();
        for batch in batches {
            handle.ingest(StreamId(0), batch).unwrap();
        }
        engine.stop().unwrap();
        handle.take_rows().into_bytes()
    }

    #[test]
    fn with_config_refuses_an_existing_store_directory() {
        let dir = TempDir::new("refuse");
        let config = durable_config(&dir.path);
        {
            let mut engine = Saber::with_config(config.clone()).unwrap();
            engine.start().unwrap();
            engine
                .create_stream("S", schema())
                .expect("durable engine owns a catalog");
            engine.stop().unwrap();
        }
        let err = match Saber::with_config(config.clone()) {
            Err(e) => e,
            Ok(_) => panic!("building over an existing store directory must fail"),
        };
        assert!(err.to_string().contains("recover"), "{err}");
        // Recovery over the same directory works and restores the stream.
        let (engine, report) = Saber::recover(config).unwrap();
        assert_eq!(report.streams, vec!["S".to_string()]);
        assert!(engine.shared_catalog().unwrap().get("S").is_some());
        drop(engine);
    }

    #[test]
    fn durable_engine_recovers_queries_and_byte_identical_windows() {
        let dir = TempDir::new("roundtrip");
        let sql_a = "SELECT timestamp, key FROM S [ROWS 256]";
        let sql_b = "SELECT timestamp, key, COUNT(*) FROM S [ROWS 128] GROUP BY key";
        let batches: Vec<Vec<u8>> = (0..8).map(|i| rows(512, i * 512)).collect();
        {
            let mut engine = Saber::with_config(durable_config(&dir.path)).unwrap();
            engine.start().unwrap();
            engine.create_stream("S", schema()).unwrap();
            let catalog = engine.shared_catalog().unwrap();
            let a = engine.add_query_sql(sql_a, &catalog.snapshot()).unwrap();
            let b = engine.add_query_sql(sql_b, &catalog.snapshot()).unwrap();
            assert_eq!((a.id(), b.id()), (QueryId(0), QueryId(1)));
            for batch in &batches {
                a.ingest(StreamId(0), batch).unwrap();
                b.ingest(StreamId(0), batch).unwrap();
            }
            engine.stop().unwrap();
            // The engine processed everything pre-"crash" too.
            assert_eq!(a.tuples_emitted(), 4096);
        }
        let (mut engine, report) = Saber::recover(durable_config(&dir.path)).unwrap();
        assert_eq!(report.queries.len(), 2);
        assert_eq!(report.queries[0].id, QueryId(0));
        assert_eq!(report.queries[0].sql, sql_a);
        assert_eq!(report.queries[1].sql, sql_b);
        assert_eq!(report.replayed_rows, 2 * 4096);
        assert_eq!(engine.query_ids(), vec![QueryId(0), QueryId(1)]);
        let a = engine.query(QueryId(0)).unwrap();
        let b = engine.query(QueryId(1)).unwrap();
        engine.stop().unwrap();
        assert_eq!(
            a.take_rows().into_bytes(),
            reference_windows(sql_a, &batches)
        );
        assert_eq!(
            b.take_rows().into_bytes(),
            reference_windows(sql_b, &batches)
        );
        let stats = engine.durability_stats().unwrap();
        assert_eq!(stats.recovery_replayed_rows, 2 * 4096);
        assert!(stats.wal_bytes > 0);
    }

    #[test]
    fn removed_query_ids_stay_burnt_across_recovery() {
        let dir = TempDir::new("burnt-ids");
        {
            let mut engine = Saber::with_config(durable_config(&dir.path)).unwrap();
            engine.start().unwrap();
            engine.create_stream("S", schema()).unwrap();
            let catalog = engine.shared_catalog().unwrap().snapshot();
            let doomed = engine
                .add_query_sql("SELECT * FROM S [ROWS 64]", &catalog)
                .unwrap();
            let keeper = engine
                .add_query_sql("SELECT timestamp FROM S [ROWS 64]", &catalog)
                .unwrap();
            doomed.ingest(StreamId(0), &rows(128, 0)).unwrap();
            keeper.ingest(StreamId(0), &rows(128, 0)).unwrap();
            doomed.remove().unwrap();
            engine.stop().unwrap();
        }
        let (engine, report) = Saber::recover(durable_config(&dir.path)).unwrap();
        assert_eq!(report.queries.len(), 1);
        assert_eq!(report.queries[0].id, QueryId(1));
        assert_eq!(engine.query_ids(), vec![QueryId(1)]);
        // The removed id is burnt: the next registration continues past it.
        let catalog = engine.shared_catalog().unwrap().snapshot();
        let next = engine
            .add_query_sql("SELECT * FROM S [ROWS 32]", &catalog)
            .unwrap();
        assert_eq!(next.id(), QueryId(2));
        drop(engine);
    }

    #[test]
    fn checkpoint_bounds_replay_and_prunes_segments() {
        let dir = TempDir::new("checkpoint");
        let mut config = durable_config(&dir.path);
        if let Some(d) = config.durability.as_mut() {
            d.segment_bytes = 16 * 1024; // force rotation
        }
        let sql = "SELECT timestamp FROM S [ROWS 128]";
        let batches: Vec<Vec<u8>> = (0..16).map(|i| rows(512, i * 512)).collect();
        {
            let mut engine = Saber::with_config(config.clone()).unwrap();
            engine.start().unwrap();
            engine.create_stream("S", schema()).unwrap();
            let catalog = engine.shared_catalog().unwrap().snapshot();
            let doomed = engine.add_query_sql(sql, &catalog).unwrap();
            for batch in &batches[..8] {
                doomed.ingest(StreamId(0), batch).unwrap();
                // Segments rotate at group-commit boundaries; space the
                // appends out so the history spans several segments.
                std::thread::sleep(Duration::from_millis(3));
            }
            let before = engine.durability_stats().unwrap();
            assert_eq!(before.last_checkpoint, None);
            // Removing the plan's last member checkpoints: with no live
            // query, the horizon is the snapshot position and all
            // rotated-away history is pruned before remove() returns.
            doomed.remove().unwrap();
            let after = engine.durability_stats().unwrap();
            assert!(after.last_checkpoint.is_some());
            assert!(
                after.wal_segments < before.wal_segments,
                "expected retention to prune: {before:?} -> {after:?}"
            );
            let survivor = engine.add_query_sql(sql, &catalog).unwrap();
            assert_eq!(survivor.id(), QueryId(1));
            for batch in &batches[8..] {
                survivor.ingest(StreamId(0), batch).unwrap();
            }
            engine.stop().unwrap();
        }
        let (mut engine, report) = Saber::recover(config).unwrap();
        // Only the survivor's suffix replays; the pruned history is gone.
        assert_eq!(report.queries.len(), 1);
        assert_eq!(report.queries[0].id, QueryId(1));
        assert_eq!(report.replayed_rows, 8 * 512);
        assert!(report.snapshot_wal_seq.is_some());
        let survivor = engine.query(QueryId(1)).unwrap();
        engine.stop().unwrap();
        assert_eq!(
            survivor.take_rows().into_bytes(),
            reference_windows(sql, &batches[8..])
        );
    }

    #[test]
    fn removal_replayed_past_a_checkpoint_does_not_resurrect_the_query() {
        // Regression: a `RemoveQuery` record *after* the newest snapshot is
        // applied during replay with logging off; the removal must still
        // drop the query's durability metadata, or the recovered engine
        // would report it live and the next checkpoint would snapshot the
        // ghost — resurrecting a deleted query one recovery later.
        let dir = TempDir::new("replayed-removal");
        let image = TempDir::new("replayed-removal-image");
        let sql = "SELECT * FROM S [ROWS 64]";
        {
            let mut engine = Saber::with_config(durable_config(&dir.path)).unwrap();
            engine.start().unwrap();
            engine.create_stream("S", schema()).unwrap();
            let catalog = engine.shared_catalog().unwrap().snapshot();
            let q = engine.add_query_sql(sql, &catalog).unwrap();
            // A second member keeps the plan alive, so the removal below
            // retires no plan and takes no checkpoint of its own.
            let survivor = engine.add_query_sql(sql, &catalog).unwrap();
            assert_eq!(survivor.id(), QueryId(1));
            q.ingest(StreamId(0), &rows(128, 0)).unwrap();
            // Snapshot captures the query as live...
            engine.checkpoint().unwrap().unwrap();
            // ...then it is removed, with the RemoveQuery record past the
            // snapshot. Copy a crash image before stop() can take its
            // final checkpoint, which would mask the bug.
            q.remove().unwrap();
            std::thread::sleep(Duration::from_millis(50)); // group commit
            for entry in std::fs::read_dir(&dir.path).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), image.path.join(entry.file_name())).unwrap();
            }
            engine.stop().unwrap();
        }
        let only_survivor = vec![RecoveredQuery {
            id: QueryId(1),
            sql: sql.to_string(),
        }];
        let (engine, report) = Saber::recover(durable_config(&image.path)).unwrap();
        assert_eq!(report.queries, only_survivor);
        assert_eq!(engine.query_ids(), vec![QueryId(1)]);
        // Second-order check: a checkpoint on the recovered engine must not
        // snapshot a ghost either.
        engine.checkpoint().unwrap().unwrap();
        drop(engine);
        let (engine, report) = Saber::recover(durable_config(&image.path)).unwrap();
        assert_eq!(report.queries, only_survivor);
        assert_eq!(engine.query_ids(), vec![QueryId(1)]);
        drop(engine);
    }

    #[test]
    fn only_the_removal_that_retires_a_plan_checkpoints() {
        let dir = TempDir::new("retire-ckpt");
        let mut engine = Saber::with_config(durable_config(&dir.path)).unwrap();
        engine.start().unwrap();
        engine.create_stream("S", schema()).unwrap();
        let catalog = engine.shared_catalog().unwrap().snapshot();
        let sql = "SELECT * FROM S [ROWS 64]";
        let first = engine.add_query_sql(sql, &catalog).unwrap();
        let second = engine.add_query_sql(sql, &catalog).unwrap();
        first.ingest(StreamId(0), &rows(128, 0)).unwrap();
        let taken = engine.checkpoint().unwrap().unwrap().wal_seq;
        let last_checkpoint = || engine.durability_stats().unwrap().last_checkpoint;
        // The plan keeps a member: its history is still needed.
        first.remove().unwrap();
        assert_eq!(last_checkpoint(), Some(taken));
        // The plan's last member leaves: the horizon moves, so it checkpoints.
        second.remove().unwrap();
        assert!(last_checkpoint() > Some(taken), "{:?}", last_checkpoint());
        engine.stop().unwrap();
    }

    #[test]
    fn concurrent_checkpoints_all_succeed() {
        let dir = TempDir::new("concurrent-ckpt");
        let mut engine = Saber::with_config(durable_config(&dir.path)).unwrap();
        engine.start().unwrap();
        // Two checkpoints of an idle engine capture the same position and
        // so write the same snapshot file.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        engine.checkpoint().unwrap().unwrap();
                    }
                });
            }
        });
        // Two removals that each retire a plan checkpoint concurrently.
        engine.create_stream("S", schema()).unwrap();
        let catalog = engine.shared_catalog().unwrap().snapshot();
        let queries = [
            engine
                .add_query_sql("SELECT * FROM S [ROWS 64]", &catalog)
                .unwrap(),
            engine
                .add_query_sql("SELECT timestamp FROM S [ROWS 32]", &catalog)
                .unwrap(),
        ];
        std::thread::scope(|s| {
            let removals: Vec<_> = queries.iter().map(|q| s.spawn(|| q.remove())).collect();
            for removal in removals {
                removal.join().unwrap().unwrap();
            }
        });
        engine.stop().unwrap();
    }

    #[test]
    fn programmatic_queries_are_accepted_but_not_recovered() {
        let dir = TempDir::new("programmatic");
        {
            let mut engine = Saber::with_config(durable_config(&dir.path)).unwrap();
            engine.start().unwrap();
            let q = saber_query::QueryBuilder::new("prog", schema())
                .count_window(64, 64)
                .project(vec![(saber_query::Expr::column(0), "timestamp")])
                .build()
                .unwrap();
            let handle = engine.add_query(q).unwrap();
            handle.ingest(StreamId(0), &rows(64, 0)).unwrap();
            engine.stop().unwrap();
            assert_eq!(handle.tuples_emitted(), 64);
        }
        let (engine, report) = Saber::recover(durable_config(&dir.path)).unwrap();
        // The id is burnt, the query absent (no SQL text to recompile).
        assert!(report.queries.is_empty());
        assert!(engine.query_ids().is_empty());
        drop(engine);
    }
}
