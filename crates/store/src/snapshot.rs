//! Catalog snapshots: the checkpoint half of the recovery architecture.
//!
//! A snapshot captures the engine's *logical catalog* at one WAL position —
//! the stream set (an opaque serialized catalog blob), every live query's
//! id + SQL text + replay position, and the id allocator's high-water
//! mark. It deliberately contains no row data and no operator state:
//! recovery re-registers the queries and replays their WAL suffix, which
//! reproduces the windows deterministically.
//!
//! Snapshots are written atomically (`.tmp` + fsync + rename + directory
//! fsync) so a crash mid-checkpoint leaves either the old snapshot set or
//! the new one, never a half file. Loading walks generations newest-first
//! and falls back past corrupt or torn candidates.

use crate::crc::crc32;
use crate::record::{take, take_string, take_u32, take_u64};
use saber_types::{Result, SaberError};
use std::fs::File;
use std::path::{Path, PathBuf};

const SNAPSHOT_PREFIX: &str = "snap-";
const SNAPSHOT_SUFFIX: &str = ".snap";
const SNAPSHOT_MAGIC: &[u8; 8] = b"SBRSNAP1";
/// Snapshot generations retained: the newest, plus one to fall back on if
/// the newest turns out unreadable.
const SNAPSHOTS_KEPT: usize = 2;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> SaberError {
    SaberError::Store(format!("{what} {}: {e}", path.display()))
}

fn snapshot_file_name(next_wal_seq: u64) -> String {
    format!("{SNAPSHOT_PREFIX}{next_wal_seq:020}{SNAPSHOT_SUFFIX}")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix(SNAPSHOT_PREFIX)?
        .strip_suffix(SNAPSHOT_SUFFIX)?
        .parse()
        .ok()
}

/// One live query as captured by a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotQuery {
    /// The engine-assigned query id (restored verbatim by recovery).
    pub id: u64,
    /// The SQL text recovery recompiles through the typed `add_query` path.
    pub sql: String,
    /// WAL sequence number of the query's `AddQuery` record: the position
    /// its ingest replay starts from (its *cut position* — everything below
    /// the minimum cut over live queries is prunable).
    pub replay_from: u64,
}

/// A point-in-time catalog snapshot (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Exclusive WAL bound: every *catalog* record (stream/query add/remove)
    /// with `seq < next_wal_seq` is reflected in this snapshot; recovery
    /// applies catalog records at or past it and ingest records from each
    /// query's `replay_from`.
    pub next_wal_seq: u64,
    /// High-water mark of the query-id allocator, so recovery never reuses
    /// an id burnt by a removed or abandoned query.
    pub next_query_id: u64,
    /// Serialized stream catalog
    /// ([`SharedCatalog::serialize`](../saber_sql/struct.SharedCatalog.html)
    /// blob — opaque to the store).
    pub catalog: Vec<u8>,
    /// Live queries at the snapshot position.
    pub queries: Vec<SnapshotQuery>,
}

impl Snapshot {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 + self.catalog.len());
        payload.extend_from_slice(&self.next_wal_seq.to_le_bytes());
        payload.extend_from_slice(&self.next_query_id.to_le_bytes());
        payload.extend_from_slice(&(self.catalog.len() as u32).to_le_bytes());
        payload.extend_from_slice(&self.catalog);
        payload.extend_from_slice(&(self.queries.len() as u32).to_le_bytes());
        for q in &self.queries {
            payload.extend_from_slice(&q.id.to_le_bytes());
            payload.extend_from_slice(&q.replay_from.to_le_bytes());
            payload.extend_from_slice(&(q.sql.len() as u32).to_le_bytes());
            payload.extend_from_slice(q.sql.as_bytes());
        }
        let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 4 + payload.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Snapshot> {
        let err = |what: &str| SaberError::Store(format!("corrupt snapshot: {what}"));
        if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
            return Err(err("truncated header"));
        }
        if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(err("bad magic"));
        }
        let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let payload = &bytes[12..];
        if crc32(payload) != crc {
            return Err(err("CRC mismatch"));
        }
        let mut at = 0usize;
        let next_wal_seq = take_u64(payload, &mut at)?;
        let next_query_id = take_u64(payload, &mut at)?;
        let catalog_len = take_u32(payload, &mut at)? as usize;
        let catalog = take(payload, &mut at, catalog_len)?.to_vec();
        let nqueries = take_u32(payload, &mut at)? as usize;
        let mut queries = Vec::with_capacity(nqueries.min(4096));
        for _ in 0..nqueries {
            let id = take_u64(payload, &mut at)?;
            let replay_from = take_u64(payload, &mut at)?;
            let sql_len = take_u32(payload, &mut at)? as usize;
            let sql = take_string(payload, &mut at, sql_len)?;
            queries.push(SnapshotQuery {
                id,
                sql,
                replay_from,
            });
        }
        if at != payload.len() {
            return Err(err("trailing bytes"));
        }
        Ok(Snapshot {
            next_wal_seq,
            next_query_id,
            catalog,
            queries,
        })
    }

    /// The prune horizon this snapshot implies: the lowest WAL position
    /// still needed by a future recovery (the minimum live-query cut, or
    /// the snapshot position itself when no query is live).
    pub fn prune_horizon(&self) -> u64 {
        self.queries
            .iter()
            .map(|q| q.replay_from)
            .min()
            .unwrap_or(self.next_wal_seq)
    }
}

/// Lists `(next_wal_seq, path)` of the snapshots in `dir`, sorted ascending.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut snapshots = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("failed to read", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("failed to read", dir, e))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            snapshots.push((seq, entry.path()));
        }
    }
    snapshots.sort_by_key(|(seq, _)| *seq);
    Ok(snapshots)
}

/// Loads the newest readable snapshot, skipping corrupt candidates (a crash
/// can tear at most the newest one; older generations are immutable).
pub(crate) fn load_latest(dir: &Path) -> Result<Option<Snapshot>> {
    for (_, path) in list_snapshots(dir)?.iter().rev() {
        let bytes = std::fs::read(path).map_err(|e| io_err("failed to read", path, e))?;
        if let Ok(snapshot) = Snapshot::decode(&bytes) {
            return Ok(Some(snapshot));
        }
    }
    Ok(None)
}

/// Removes stale `.tmp` leftovers from a checkpoint that crashed before its
/// rename (called at open).
pub(crate) fn remove_stale_tmp(dir: &Path) -> Result<()> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("failed to read", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("failed to read", dir, e))?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.ends_with(".tmp")) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Atomically writes `snapshot` into `dir` and deletes generations beyond
/// the [`SNAPSHOTS_KEPT`] newest.
pub(crate) fn write(dir: &Path, snapshot: &Snapshot) -> Result<()> {
    let final_path = dir.join(snapshot_file_name(snapshot.next_wal_seq));
    let tmp_path = final_path.with_extension("tmp");
    let bytes = snapshot.encode();
    std::fs::write(&tmp_path, &bytes).map_err(|e| io_err("failed to write", &tmp_path, e))?;
    let file = File::open(&tmp_path).map_err(|e| io_err("failed to open", &tmp_path, e))?;
    file.sync_all()
        .map_err(|e| io_err("failed to sync", &tmp_path, e))?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| io_err("failed to rename", &tmp_path, e))?;
    crate::wal::sync_dir(dir)?;
    let snapshots = list_snapshots(dir)?;
    if snapshots.len() > SNAPSHOTS_KEPT {
        for (_, path) in &snapshots[..snapshots.len() - SNAPSHOTS_KEPT] {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(next_wal_seq: u64) -> Snapshot {
        Snapshot {
            next_wal_seq,
            next_query_id: 5,
            catalog: vec![9, 8, 7],
            queries: vec![
                SnapshotQuery {
                    id: 0,
                    sql: "SELECT * FROM S [ROWS 4]".into(),
                    replay_from: 2,
                },
                SnapshotQuery {
                    id: 4,
                    sql: "SELECT COUNT(*) FROM S [ROWS 8]".into(),
                    replay_from: 17,
                },
            ],
        }
    }

    #[test]
    fn codec_round_trips_and_rejects_corruption() {
        let snapshot = sample(42);
        let bytes = snapshot.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), snapshot);
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x10;
            assert!(Snapshot::decode(&copy).is_err(), "flip at {i}");
        }
        assert_eq!(snapshot.prune_horizon(), 2);
        assert_eq!(
            Snapshot {
                queries: Vec::new(),
                ..snapshot
            }
            .prune_horizon(),
            42
        );
    }

    #[test]
    fn write_load_falls_back_past_corrupt_generations() {
        let dir = std::env::temp_dir().join(format!(
            "saber-store-snap-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        write(&dir, &sample(10)).unwrap();
        write(&dir, &sample(20)).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().next_wal_seq, 20);
        // Corrupt the newest generation: loading falls back to the older.
        std::fs::write(dir.join(snapshot_file_name(20)), b"garbage").unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().next_wal_seq, 10);
        // Stale tmp files from a crashed checkpoint are cleaned up.
        std::fs::write(dir.join("snap-x.tmp"), b"half").unwrap();
        remove_stale_tmp(&dir).unwrap();
        assert!(!dir.join("snap-x.tmp").exists());
        // Retention: a third generation evicts the oldest.
        std::fs::write(dir.join(snapshot_file_name(20)), sample(20).encode()).unwrap();
        write(&dir, &sample(30)).unwrap();
        assert_eq!(list_snapshots(&dir).unwrap().len(), 2);
        assert!(!dir.join(snapshot_file_name(10)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
