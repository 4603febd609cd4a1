//! The segmented write-ahead log with group commit.
//!
//! Appends encode into an in-memory buffer under a short mutex and return
//! immediately; a dedicated flusher thread (`saber-wal`) writes the
//! accumulated batch to the active segment file in one sequential write per
//! [`DurabilityConfig::flush_interval`], rotating segments at
//! [`DurabilityConfig::segment_bytes`] and applying the [`FsyncPolicy`].
//! [`Wal::sync`] forces a flush + fsync and blocks until every record
//! appended before the call is durable (clean shutdown, checkpoints).
//!
//! A WAL I/O failure is **fail-stop**: the flusher records the error and
//! exits, and every subsequent append or sync reports it — the engine stops
//! acknowledging ingests instead of silently running non-durable.

use crate::config::{DurabilityConfig, FsyncPolicy};
use crate::record::{read_frame, Frame, WalRecord};
use saber_types::sync::{Condvar, Mutex};
use saber_types::{Result, SaberError};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".seg";
/// Backpressure bound: an append that finds the group-commit buffer this
/// full blocks until the flusher drains it, so a stalled disk cannot
/// balloon memory.
const MAX_BUFFERED_BYTES: usize = 32 << 20;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> SaberError {
    SaberError::Store(format!("{what} {}: {e}", path.display()))
}

/// `wal-<first record seq, zero padded>.seg`
pub(crate) fn segment_file_name(first_seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_seq:020}{SEGMENT_SUFFIX}")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Lists the `(first_seq, path)` of every segment in `dir`, sorted by seq.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("failed to read", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("failed to read", dir, e))?;
        if let Some(first_seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            segments.push((first_seq, entry.path()));
        }
    }
    segments.sort_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Syncs the directory entry itself so a segment or snapshot created,
/// renamed or removed in `dir` survives a power loss. A failure means the
/// entry may not be durable, and is reported like any other I/O error.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|handle| handle.sync_all())
        .map_err(|e| io_err("failed to sync directory", dir, e))
}

/// Appended-but-unflushed records plus the append cursor.
struct Pending {
    buf: Vec<u8>,
    /// Seq of the first record in `buf` (meaningful when `buf` is non-empty).
    first_seq: u64,
    /// Seq the next appended record receives.
    next_seq: u64,
    /// Set by `sync()`: the flusher must fsync and report, even if idle.
    sync_requested: bool,
    shutdown: bool,
    /// First I/O error observed; fail-stop for all later operations.
    poisoned: Option<String>,
}

/// What the flusher has made durable so far (exclusive seq bounds).
struct Progress {
    synced_seq: u64,
    error: Option<String>,
}

struct WalInner {
    dir: PathBuf,
    config: DurabilityConfig,
    pending: Mutex<Pending>,
    /// Wakes the flusher early (sync request, backpressure, shutdown).
    work_cv: Condvar,
    /// Wakes producers blocked on the [`MAX_BUFFERED_BYTES`] bound.
    space_cv: Condvar,
    progress: Mutex<Progress>,
    /// Signalled when `progress` advances.
    progress_cv: Condvar,
    /// Total framed bytes ever appended (monitoring).
    wal_bytes: AtomicU64,
    /// Segment files currently on disk (maintained at open, rotation and
    /// prune so stats never touch the directory).
    num_segments: AtomicUsize,
}

impl WalInner {
    fn poison(&self, message: String) {
        self.pending.lock().poisoned = Some(message.clone());
        self.progress.lock().error = Some(message);
        self.work_cv.notify_all();
        self.space_cv.notify_all();
        self.progress_cv.notify_all();
    }
}

/// Result of opening a log directory: where the next record goes and how
/// many torn tail bytes were truncated away.
pub(crate) struct OpenInfo {
    pub(crate) torn_tail_bytes: u64,
}

/// The segmented, group-committed write-ahead log.
pub(crate) struct Wal {
    inner: Arc<WalInner>,
    flusher: Option<JoinHandle<()>>,
}

impl Wal {
    /// Opens (or creates) the log in `config.dir`, truncating a torn tail
    /// off the final segment. `min_next_seq` floors the append cursor (the
    /// latest snapshot's position, in case every segment was pruned).
    pub(crate) fn open(config: &DurabilityConfig, min_next_seq: u64) -> Result<(Wal, OpenInfo)> {
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| io_err("failed to create", &config.dir, e))?;
        let segments = list_segments(&config.dir)?;
        // Seed the byte counter with the surviving history, so a recovered
        // store reports the directory's cumulative size, not zero.
        let mut existing_bytes = 0u64;
        for (_, path) in &segments {
            existing_bytes += std::fs::metadata(path)
                .map_err(|e| io_err("failed to stat", path, e))?
                .len();
        }
        let mut torn_tail_bytes = 0u64;
        let mut next_seq = min_next_seq;
        let mut active: Option<(u64, PathBuf, u64)> = None; // (first_seq, path, valid_len)
        if let Some((first_seq, path)) = segments.last() {
            let bytes = std::fs::read(path).map_err(|e| io_err("failed to read", path, e))?;
            let mut at = 0usize;
            let mut seq = *first_seq;
            loop {
                match read_frame(&bytes, at) {
                    Frame::Record {
                        seq: frame_seq,
                        next,
                        ..
                    } => {
                        if frame_seq != seq {
                            return Err(SaberError::Store(format!(
                                "segment {} is corrupt: expected record seq {seq}, found \
                                 {frame_seq}",
                                path.display()
                            )));
                        }
                        seq += 1;
                        at = next;
                    }
                    Frame::End => break,
                    // A torn or CRC-failing tail is the normal signature of
                    // a crash mid-group-commit: drop it. (Sequential writes
                    // cannot leave valid frames beyond the first bad one.)
                    Frame::Torn | Frame::Corrupt(_) => {
                        torn_tail_bytes = (bytes.len() - at) as u64;
                        break;
                    }
                }
            }
            if torn_tail_bytes > 0 {
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err("failed to open", path, e))?;
                file.set_len(at as u64)
                    .map_err(|e| io_err("failed to truncate", path, e))?;
                file.sync_all()
                    .map_err(|e| io_err("failed to sync", path, e))?;
            }
            next_seq = next_seq.max(seq);
            active = Some((*first_seq, path.clone(), at as u64));
        }
        let inner = Arc::new(WalInner {
            dir: config.dir.clone(),
            config: config.clone(),
            pending: Mutex::new(Pending {
                buf: Vec::new(),
                first_seq: next_seq,
                next_seq,
                sync_requested: false,
                shutdown: false,
                poisoned: None,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            progress: Mutex::new(Progress {
                synced_seq: next_seq,
                error: None,
            }),
            progress_cv: Condvar::new(),
            wal_bytes: AtomicU64::new(existing_bytes.saturating_sub(torn_tail_bytes)),
            num_segments: AtomicUsize::new(segments.len()),
        });
        let flusher = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("saber-wal".into())
                .spawn(move || flusher_loop(inner, active))
                .map_err(|e| SaberError::Store(format!("failed to spawn WAL flusher: {e}")))?
        };
        Ok((
            Wal {
                inner,
                flusher: Some(flusher),
            },
            OpenInfo { torn_tail_bytes },
        ))
    }

    /// Appends one record to the group-commit buffer, returning its sequence
    /// number. Blocks only when the buffer exceeds [`MAX_BUFFERED_BYTES`]
    /// (backpressure against a stalled disk) — never on the disk itself.
    pub(crate) fn append(&self, record: &WalRecord) -> Result<u64> {
        self.append_encoded(|seq, buf| record.encode_into(seq, buf))
    }

    /// [`Wal::append`] for an ingest record with borrowed row bytes (the
    /// engine's hot path: no owned record, one copy into the buffer).
    pub(crate) fn append_ingest(&self, query: u64, stream: u32, bytes: &[u8]) -> Result<u64> {
        self.append_encoded(|seq, buf| WalRecord::encode_ingest(seq, query, stream, bytes, buf))
    }

    fn append_encoded(&self, encode: impl FnOnce(u64, &mut Vec<u8>) -> usize) -> Result<u64> {
        let inner = &*self.inner;
        let mut pending = inner.pending.lock();
        loop {
            if let Some(message) = &pending.poisoned {
                return Err(SaberError::Store(message.clone()));
            }
            if pending.shutdown {
                return Err(SaberError::Store(
                    "write-ahead log is shut down".to_string(),
                ));
            }
            if pending.buf.len() < MAX_BUFFERED_BYTES {
                break;
            }
            inner.work_cv.notify_all();
            inner.space_cv.wait(&mut pending);
        }
        let seq = pending.next_seq;
        pending.next_seq += 1;
        let frame_len = encode(seq, &mut pending.buf);
        // relaxed-ok: monitoring counter, read only for stats display.
        inner
            .wal_bytes
            .fetch_add(frame_len as u64, Ordering::Relaxed);
        Ok(seq)
    }

    /// Forces a flush + fsync of everything appended so far and blocks until
    /// it is durable (or the log is poisoned).
    pub(crate) fn sync(&self) -> Result<()> {
        let inner = &*self.inner;
        let target = {
            let mut pending = inner.pending.lock();
            if let Some(message) = &pending.poisoned {
                return Err(SaberError::Store(message.clone()));
            }
            pending.sync_requested = true;
            pending.next_seq
        };
        inner.work_cv.notify_all();
        let mut progress = inner.progress.lock();
        while progress.synced_seq < target {
            if let Some(message) = &progress.error {
                return Err(SaberError::Store(message.clone()));
            }
            inner.progress_cv.wait(&mut progress);
        }
        Ok(())
    }

    /// The sequence number the next appended record will receive.
    pub(crate) fn next_seq(&self) -> u64 {
        self.inner.pending.lock().next_seq
    }

    /// Total framed bytes appended over this log's lifetime.
    pub(crate) fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes.load(Ordering::Relaxed)
    }

    /// Number of segment files currently on disk. Served from a counter —
    /// `stats()` runs under the server's command lock, so it must not do
    /// directory I/O.
    pub(crate) fn num_segments(&self) -> usize {
        self.inner.num_segments.load(Ordering::Relaxed)
    }

    /// Deletes segments every record of which is below `horizon` (exclusive
    /// replay start). The newest segment is always kept. Returns how many
    /// files were removed.
    pub(crate) fn prune(&self, horizon: u64) -> Result<usize> {
        let segments = list_segments(&self.inner.dir)?;
        let mut removed = 0usize;
        for pair in segments.windows(2) {
            let (_, path) = &pair[0];
            let (next_first, _) = pair[1];
            if next_first <= horizon {
                std::fs::remove_file(path).map_err(|e| io_err("failed to remove", path, e))?;
                removed += 1;
            }
        }
        if removed > 0 {
            // relaxed-ok: monitoring counter, read only for stats display.
            self.inner
                .num_segments
                .fetch_sub(removed, Ordering::Relaxed);
            sync_dir(&self.inner.dir)?;
        }
        Ok(removed)
    }

    /// Scans every on-disk record in order, calling `f(seq, record)`.
    /// Records still in the group-commit buffer are not visible — replay is
    /// meant to run on a freshly opened log before any append. A torn tail
    /// on the final segment ends the scan cleanly; any other inconsistency
    /// (CRC failure, sequence gap, mid-log tear) is an error.
    pub(crate) fn replay(
        &self,
        f: &mut dyn FnMut(u64, WalRecord) -> Result<()>,
    ) -> Result<ReplayedRange> {
        let segments = list_segments(&self.inner.dir)?;
        let mut replayed = ReplayedRange::default();
        let mut expected: Option<u64> = None;
        for (index, (first_seq, path)) in segments.iter().enumerate() {
            let last_segment = index + 1 == segments.len();
            if let Some(expected) = expected {
                if *first_seq != expected {
                    return Err(SaberError::Store(format!(
                        "write-ahead log is missing records {expected}..{first_seq} (segment \
                         gap before {})",
                        path.display()
                    )));
                }
            }
            let bytes = std::fs::read(path).map_err(|e| io_err("failed to read", path, e))?;
            let mut at = 0usize;
            let mut seq = *first_seq;
            loop {
                match read_frame(&bytes, at) {
                    Frame::Record {
                        seq: frame_seq,
                        record,
                        next,
                    } => {
                        if frame_seq != seq {
                            return Err(SaberError::Store(format!(
                                "segment {} is corrupt: expected record seq {seq}, found \
                                 {frame_seq}",
                                path.display()
                            )));
                        }
                        f(seq, record)?;
                        replayed.records += 1;
                        seq += 1;
                        at = next;
                    }
                    Frame::End => break,
                    Frame::Torn if last_segment => break,
                    Frame::Torn => {
                        return Err(SaberError::Store(format!(
                            "segment {} is torn mid-log (only the final segment may have a \
                             torn tail)",
                            path.display()
                        )));
                    }
                    Frame::Corrupt(what) => {
                        return Err(SaberError::Store(format!(
                            "segment {} is corrupt at byte {at}: {what}",
                            path.display()
                        )));
                    }
                }
            }
            expected = Some(seq);
            replayed.next_seq = seq;
        }
        Ok(replayed)
    }
}

/// How much a [`Wal::replay`] scan covered.
#[derive(Debug, Default)]
pub(crate) struct ReplayedRange {
    pub(crate) records: u64,
    pub(crate) next_seq: u64,
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.inner.pending.lock().shutdown = true;
        self.inner.work_cv.notify_all();
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }
}

/// The flusher's view of the active segment file.
struct ActiveSegment {
    file: File,
    path: PathBuf,
    len: u64,
    /// Bytes written since the last fsync.
    unsynced: bool,
}

fn open_segment(dir: &Path, first_seq: u64, existing_len: Option<u64>) -> Result<ActiveSegment> {
    let path = dir.join(segment_file_name(first_seq));
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| io_err("failed to open", &path, e))?;
    let len = match existing_len {
        Some(len) => len,
        None => {
            sync_dir(dir)?;
            0
        }
    };
    Ok(ActiveSegment {
        file,
        path,
        len,
        unsynced: false,
    })
}

fn flusher_loop(inner: Arc<WalInner>, active: Option<(u64, PathBuf, u64)>) {
    let mut segment: Option<ActiveSegment> = match active {
        Some((first_seq, _, valid_len)) => {
            match open_segment(&inner.dir, first_seq, Some(valid_len)) {
                Ok(segment) => Some(segment),
                Err(e) => {
                    inner.poison(e.message().to_string());
                    return;
                }
            }
        }
        None => None,
    };
    let mut last_fsync = Instant::now();
    // Reuse batch allocations: buffers swap between the producers and the
    // flusher instead of being reallocated every interval.
    let mut spare: VecDeque<Vec<u8>> = VecDeque::new();
    loop {
        let (mut batch, batch_first_seq, batch_end_seq, sync_requested, shutdown) = {
            let mut pending = inner.pending.lock();
            // Pace the group commit: accumulate appends for one flush
            // interval (appends do not wake the flusher — that is the whole
            // point), but wake early for sync requests, backpressure and
            // shutdown, which notify `work_cv`.
            if !pending.shutdown && !pending.sync_requested {
                inner
                    .work_cv
                    .wait_for(&mut pending, inner.config.flush_interval);
            }
            let mut batch = spare.pop_front().unwrap_or_default();
            batch.clear();
            std::mem::swap(&mut batch, &mut pending.buf);
            let first = pending.first_seq;
            pending.first_seq = pending.next_seq;
            let sync_requested = std::mem::take(&mut pending.sync_requested);
            (
                batch,
                first,
                pending.next_seq,
                sync_requested,
                pending.shutdown,
            )
        };
        inner.space_cv.notify_all();
        let mut failure: Option<SaberError> = None;
        if !batch.is_empty() {
            // Rotate at the first group-commit boundary past the target
            // size; the new segment is named after the batch's first record.
            let rotate = segment
                .as_ref()
                .map(|s| s.len >= inner.config.segment_bytes as u64)
                .unwrap_or(true);
            if rotate {
                if let Some(old) = segment.take() {
                    // The outgoing segment's unsynced bytes must reach
                    // stable storage before the durable bound can ever
                    // advance past them — dropping this error would let a
                    // later fsync of the *new* segment report records in
                    // the old one as durable.
                    if old.unsynced {
                        if let Err(e) = old.file.sync_all() {
                            failure = Some(io_err("failed to sync", &old.path, e));
                        }
                    }
                }
                if failure.is_none() {
                    match open_segment(&inner.dir, batch_first_seq, None) {
                        Ok(new_segment) => {
                            // relaxed-ok: monitoring counter only.
                            inner.num_segments.fetch_add(1, Ordering::Relaxed);
                            segment = Some(new_segment);
                        }
                        Err(e) => failure = Some(e),
                    }
                }
            }
            if failure.is_none() {
                let active = segment.as_mut().expect("segment opened above");
                match active.file.write_all(&batch) {
                    Ok(()) => {
                        active.len += batch.len() as u64;
                        active.unsynced = true;
                    }
                    Err(e) => failure = Some(io_err("failed to write", &active.path, e)),
                }
            }
        }
        batch.clear();
        if spare.len() < 2 {
            spare.push_back(batch);
        }
        if failure.is_none() {
            let due = match inner.config.fsync {
                FsyncPolicy::EveryFlush => true,
                FsyncPolicy::Interval(interval) => last_fsync.elapsed() >= interval,
                FsyncPolicy::Never => false,
            };
            if let Some(active) = segment.as_mut() {
                if active.unsynced && (due || sync_requested || shutdown) {
                    match active.file.sync_all() {
                        Ok(()) => {
                            active.unsynced = false;
                            last_fsync = Instant::now();
                        }
                        Err(e) => failure = Some(io_err("failed to sync", &active.path, e)),
                    }
                }
            }
        }
        match failure {
            Some(e) => {
                inner.poison(e.message().to_string());
                return;
            }
            None => {
                let durable = segment.as_ref().map(|s| !s.unsynced).unwrap_or(true);
                if durable {
                    let mut progress = inner.progress.lock();
                    if batch_end_seq > progress.synced_seq {
                        progress.synced_seq = batch_end_seq;
                    }
                    drop(progress);
                    inner.progress_cv.notify_all();
                }
            }
        }
        if shutdown && inner.pending.lock().buf.is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_dir_reports_a_directory_it_cannot_sync() {
        let dir = std::env::temp_dir().join(format!(
            "saber-store-wal-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        sync_dir(&dir).unwrap();
        std::fs::remove_dir(&dir).unwrap();
        let err = sync_dir(&dir).unwrap_err();
        assert!(
            err.to_string().contains("failed to sync directory"),
            "{err}"
        );
    }
}
