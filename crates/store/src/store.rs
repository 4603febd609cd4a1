//! The [`Store`] facade: one durability directory = one WAL + its snapshots.

use crate::config::DurabilityConfig;
use crate::lockfile::DirLock;
use crate::record::WalRecord;
use crate::snapshot::{self, Snapshot};
use crate::wal::{list_segments, Wal};
use saber_types::sync::Mutex;
use saber_types::{Result, SaberError};
use std::path::Path;

/// True if `dir` already contains saber-store state (WAL segments or
/// snapshots). Engines refuse to *create* a store over existing state —
/// that is what recovery is for.
pub fn has_existing_state(dir: &Path) -> Result<bool> {
    if !dir.exists() {
        return Ok(false);
    }
    if !list_segments(dir)?.is_empty() {
        return Ok(true);
    }
    Ok(snapshot::load_latest(dir)?.is_some())
}

/// Counters describing a store (surfaced through the server's `STATS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Total framed bytes appended to the WAL over this store's lifetime.
    pub wal_bytes: u64,
    /// Segment files currently on disk.
    pub wal_segments: usize,
    /// WAL position (`next_wal_seq`) of the newest snapshot, if any was
    /// taken (or found at open).
    pub last_checkpoint: Option<u64>,
}

/// How much a [`Store::replay`] scan covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records handed to the replay callback.
    pub records: u64,
    /// Bytes truncated off the final segment at open (a torn group-commit
    /// write from the crash).
    pub torn_tail_bytes: u64,
}

/// One open durability directory: the segmented WAL plus catalog snapshots.
/// All methods are `&self` and internally synchronized; appends are group
/// committed (see the crate docs).
pub struct Store {
    config: DurabilityConfig,
    wal: Wal,
    torn_tail_bytes: u64,
    /// Held across a whole checkpoint, so two never race on one snapshot
    /// file and a slower, older one cannot replace a newer one.
    checkpointing: Mutex<()>,
    /// Position of the newest snapshot; its own lock, so [`Store::stats`]
    /// never waits out a checkpoint's fsync.
    last_checkpoint: Mutex<Option<u64>>,
    /// Exclusive data-directory lock, held until the store is dropped so a
    /// second process cannot open the same `--data-dir`.
    _lock: DirLock,
}

impl Store {
    /// Opens (or creates) the store rooted at `config.dir`: cleans up
    /// `.tmp` leftovers from a crashed checkpoint, truncates a torn WAL
    /// tail, and positions the append cursor after the last durable record.
    pub fn open(config: &DurabilityConfig) -> Result<Store> {
        config.validate()?;
        std::fs::create_dir_all(&config.dir).map_err(|e| {
            SaberError::Store(format!("failed to create {}: {e}", config.dir.display()))
        })?;
        // One process per data directory: a second engine on the same dir
        // would interleave WAL appends. Stale locks (SIGKILLed owner) are
        // replaced, so crash recovery needs no manual cleanup.
        let lock = DirLock::acquire(&config.dir)?;
        snapshot::remove_stale_tmp(&config.dir)?;
        // The snapshot floors the append cursor in case every segment at or
        // past its position was pruned (ids and positions must stay
        // monotonic across restarts).
        let latest = snapshot::load_latest(&config.dir)?;
        let min_next_seq = latest.as_ref().map(|s| s.next_wal_seq).unwrap_or(0);
        let (wal, info) = Wal::open(config, min_next_seq)?;
        Ok(Store {
            config: config.clone(),
            wal,
            torn_tail_bytes: info.torn_tail_bytes,
            checkpointing: Mutex::new(()),
            last_checkpoint: Mutex::new(latest.map(|s| s.next_wal_seq)),
            _lock: lock,
        })
    }

    /// Appends one record to the group-commit buffer, returning its WAL
    /// sequence number. The record is durable after the next flush (bounded
    /// by [`DurabilityConfig::flush_interval`] plus the fsync policy).
    pub fn append(&self, record: &WalRecord) -> Result<u64> {
        self.wal.append(record)
    }

    /// [`Store::append`] for an [`WalRecord::Ingest`] record with borrowed
    /// row bytes — the engine's per-ingest hot path, one copy into the
    /// group-commit buffer and no intermediate allocation.
    pub fn append_ingest(&self, query: u64, stream: u32, bytes: &[u8]) -> Result<u64> {
        self.wal.append_ingest(query, stream, bytes)
    }

    /// Flushes and fsyncs everything appended so far, blocking until
    /// durable. Used by clean shutdown and checkpoints.
    pub fn sync(&self) -> Result<()> {
        self.wal.sync()
    }

    /// The sequence number the next appended record will receive.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// The newest readable snapshot, if any.
    pub fn load_snapshot(&self) -> Result<Option<Snapshot>> {
        snapshot::load_latest(&self.config.dir)
    }

    /// Takes a checkpoint: syncs the WAL (so the snapshot never references
    /// records that are not yet durable), atomically writes `snapshot`,
    /// prunes old snapshot generations and deletes WAL segments wholly
    /// below the snapshot's [`Snapshot::prune_horizon`]. Returns the number
    /// of pruned segments. Checkpoints run one at a time; a snapshot older
    /// than the newest one written is superseded by it and skipped.
    pub fn checkpoint(&self, snapshot: &Snapshot) -> Result<usize> {
        let _checkpointing = self.checkpointing.lock();
        if self
            .last_checkpoint
            .lock()
            .is_some_and(|last| last > snapshot.next_wal_seq)
        {
            return Ok(0);
        }
        self.wal.sync()?;
        snapshot::write(&self.config.dir, snapshot)?;
        *self.last_checkpoint.lock() = Some(snapshot.next_wal_seq);
        self.wal.prune(snapshot.prune_horizon())
    }

    /// Scans every durable record in order, calling `f(seq, record)`. Meant
    /// to run on a freshly opened store before any append (records still in
    /// the group-commit buffer are not visible). Mid-log corruption is an
    /// error; the (already truncated) torn tail of the final segment is not.
    pub fn replay(&self, f: &mut dyn FnMut(u64, WalRecord) -> Result<()>) -> Result<ReplayStats> {
        let range = self.wal.replay(f)?;
        Ok(ReplayStats {
            records: range.records,
            torn_tail_bytes: self.torn_tail_bytes,
        })
    }

    /// Current store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            wal_bytes: self.wal.wal_bytes(),
            wal_segments: self.wal.num_segments(),
            last_checkpoint: *self.last_checkpoint.lock(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsyncPolicy;
    use crate::snapshot::SnapshotQuery;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// Unique scratch directory under the system temp dir, removed on drop
    /// (tests must never leak WAL directories into the workspace).
    struct TempDir {
        path: PathBuf,
    }

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "saber-store-{tag}-{}-{}",
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

    fn config(dir: &Path) -> DurabilityConfig {
        let mut config = DurabilityConfig::new(dir);
        config.flush_interval = Duration::from_millis(1);
        config.fsync = FsyncPolicy::EveryFlush;
        config
    }

    fn ingest(query: u64, n: u64) -> WalRecord {
        WalRecord::Ingest {
            query,
            stream: 0,
            bytes: (0..n).flat_map(|i| (i as u32).to_le_bytes()).collect(),
        }
    }

    fn collect(store: &Store) -> Vec<(u64, WalRecord)> {
        let mut out = Vec::new();
        store
            .replay(&mut |seq, record| {
                out.push((seq, record));
                Ok(())
            })
            .unwrap();
        out
    }

    #[test]
    fn open_refuses_a_directory_that_is_already_open() {
        let dir = TempDir::new("locked");
        let held = Store::open(&config(&dir.path)).unwrap();
        let err = match Store::open(&config(&dir.path)) {
            Ok(_) => panic!("second open of a locked directory must fail"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("locked by running process"), "{err}");
        // Dropping the first store releases the lock.
        drop(held);
        Store::open(&config(&dir.path)).unwrap();
    }

    #[test]
    fn append_sync_reopen_replays_in_order() {
        let dir = TempDir::new("roundtrip");
        let records: Vec<WalRecord> = (0..100).map(|i| ingest(i % 3, i)).collect();
        {
            let store = Store::open(&config(&dir.path)).unwrap();
            assert!(!has_existing_state(&dir.path).unwrap() || store.next_seq() == 0);
            for (i, record) in records.iter().enumerate() {
                assert_eq!(store.append(record).unwrap(), i as u64);
            }
            store.sync().unwrap();
            assert!(store.stats().wal_bytes > 0);
        }
        assert!(has_existing_state(&dir.path).unwrap());
        let store = Store::open(&config(&dir.path)).unwrap();
        assert_eq!(store.next_seq(), 100);
        let replayed = collect(&store);
        assert_eq!(replayed.len(), 100);
        for (i, (seq, record)) in replayed.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(record, &records[i]);
        }
        // Appends continue after the replayed history.
        assert_eq!(store.append(&ingest(0, 1)).unwrap(), 100);
    }

    #[test]
    fn drop_flushes_the_pending_buffer() {
        let dir = TempDir::new("drop-flush");
        {
            let store = Store::open(&config(&dir.path)).unwrap();
            for i in 0..10 {
                store.append(&ingest(0, i)).unwrap();
            }
            // No explicit sync: Drop must drain the group-commit buffer.
        }
        let store = Store::open(&config(&dir.path)).unwrap();
        assert_eq!(collect(&store).len(), 10);
    }

    #[test]
    fn segments_rotate_and_torn_tails_are_truncated() {
        let dir = TempDir::new("rotate");
        let mut cfg = config(&dir.path);
        cfg.segment_bytes = 4096;
        {
            let store = Store::open(&cfg).unwrap();
            for i in 0..200 {
                store.append(&ingest(0, i % 50)).unwrap();
                if i % 10 == 0 {
                    // Force frequent flushes so rotation points vary.
                    store.sync().unwrap();
                }
            }
            store.sync().unwrap();
            assert!(store.stats().wal_segments > 1, "expected rotation");
        }
        // Tear bytes off the final segment: recovery must truncate to the
        // record boundary and keep everything before it.
        let full = {
            let store = Store::open(&cfg).unwrap();
            collect(&store).len()
        };
        let segments = list_segments(&dir.path).unwrap();
        let (_, last) = segments.last().unwrap();
        let len = std::fs::metadata(last).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(last)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let store = Store::open(&cfg).unwrap();
        let replayed = collect(&store);
        assert_eq!(replayed.len(), full - 1);
        // The open recorded how many torn bytes it truncated away.
        assert!(store
            .replay(&mut |_, _| Ok(()))
            .is_ok_and(|s| s.torn_tail_bytes > 0));
        // New appends land after the truncated history.
        assert_eq!(store.next_seq(), replayed.len() as u64);
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_silent_skip() {
        let dir = TempDir::new("corrupt");
        let mut cfg = config(&dir.path);
        cfg.segment_bytes = 4096;
        {
            let store = Store::open(&cfg).unwrap();
            for i in 0..200 {
                store.append(&ingest(0, 40 + (i % 10))).unwrap();
                if i % 20 == 0 {
                    store.sync().unwrap();
                }
            }
            store.sync().unwrap();
            assert!(store.stats().wal_segments > 2);
        }
        // Flip a byte in the middle of the *first* segment.
        let segments = list_segments(&dir.path).unwrap();
        let (_, first) = &segments[0];
        let mut bytes = std::fs::read(first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(first, &bytes).unwrap();
        let store = Store::open(&cfg).unwrap();
        let err = store.replay(&mut |_, _| Ok(())).unwrap_err();
        assert_eq!(err.category(), "store");
    }

    #[test]
    fn checkpoint_prunes_segments_below_the_horizon() {
        let dir = TempDir::new("prune");
        let mut cfg = config(&dir.path);
        cfg.segment_bytes = 4096;
        let store = Store::open(&cfg).unwrap();
        for i in 0..300 {
            store.append(&ingest(0, 40 + (i % 10))).unwrap();
            if i % 20 == 0 {
                store.sync().unwrap();
            }
        }
        store.sync().unwrap();
        let before = store.stats().wal_segments;
        assert!(before > 3);
        // A snapshot whose only live query cut is recent: old segments go.
        let snapshot = Snapshot {
            next_wal_seq: store.next_seq(),
            next_query_id: 1,
            catalog: vec![1],
            queries: vec![SnapshotQuery {
                id: 0,
                sql: "q".into(),
                replay_from: 290,
            }],
        };
        let pruned = store.checkpoint(&snapshot).unwrap();
        assert!(pruned > 0);
        assert!(store.stats().wal_segments < before);
        assert_eq!(store.stats().last_checkpoint, Some(snapshot.next_wal_seq));
        // The retained suffix still replays cleanly and starts at or before
        // the horizon.
        let replayed = collect(&store);
        assert!(!replayed.is_empty());
        assert!(replayed.first().unwrap().0 <= 290);
        assert_eq!(replayed.last().unwrap().0, 299);
        // Reopening after a full prune of history keeps the cursor
        // monotonic.
        drop(store);
        let store = Store::open(&cfg).unwrap();
        assert_eq!(store.next_seq(), 300);
        assert_eq!(store.load_snapshot().unwrap().unwrap().next_wal_seq, 300);
    }

    #[test]
    fn checkpoints_run_one_at_a_time_and_never_move_back() {
        let dir = TempDir::new("serial");
        let store = Store::open(&config(&dir.path)).unwrap();
        for i in 0..10 {
            store.append(&ingest(0, i)).unwrap();
        }
        let snapshot = |next_wal_seq| Snapshot {
            next_wal_seq,
            next_query_id: 1,
            catalog: Vec::new(),
            queries: Vec::new(),
        };
        // Checkpoints of one position share one snapshot file name.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..50 {
                        store.checkpoint(&snapshot(3)).unwrap();
                    }
                });
            }
        });
        // An older snapshot arriving after a newer one is superseded.
        store.checkpoint(&snapshot(7)).unwrap();
        assert_eq!(store.checkpoint(&snapshot(5)).unwrap(), 0);
        assert_eq!(store.stats().last_checkpoint, Some(7));
        assert_eq!(store.load_snapshot().unwrap().unwrap().next_wal_seq, 7);
    }

    #[test]
    fn open_refuses_nothing_but_recover_flow_sees_snapshot_floor() {
        let dir = TempDir::new("floor");
        let cfg = config(&dir.path);
        {
            let store = Store::open(&cfg).unwrap();
            for i in 0..10 {
                store.append(&ingest(0, i)).unwrap();
            }
            let snapshot = Snapshot {
                next_wal_seq: 10,
                next_query_id: 1,
                catalog: Vec::new(),
                queries: Vec::new(),
            };
            store.checkpoint(&snapshot).unwrap();
        }
        // Simulate retention having removed every segment (no live query):
        // the reopened cursor must still resume at the snapshot position.
        for (_, path) in list_segments(&dir.path).unwrap() {
            std::fs::remove_file(path).unwrap();
        }
        let store = Store::open(&cfg).unwrap();
        assert_eq!(store.next_seq(), 10);
        assert_eq!(collect(&store).len(), 0);
    }

    #[test]
    fn concurrent_appends_get_unique_ordered_seqs() {
        let dir = TempDir::new("concurrent");
        let store = std::sync::Arc::new(Store::open(&config(&dir.path)).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    (0..250)
                        .map(|i| store.append(&ingest(t, i)).unwrap())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut seqs: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        store.sync().unwrap();
        seqs.sort_unstable();
        let expected: Vec<u64> = (0..1000).collect();
        assert_eq!(seqs, expected);
        assert_eq!(collect(&store).len(), 1000);
    }
}
