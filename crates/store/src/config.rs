//! Durability configuration shared by the store and the engine layer that
//! embeds it.

use saber_types::{Result, SaberError};
use std::path::PathBuf;
use std::time::Duration;

/// When the flusher thread calls `fsync` on the active WAL segment.
///
/// The group-commit *write* (buffer → file) always happens at every flush
/// interval; this policy only controls how often the write is forced through
/// the OS page cache to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every group-commit write. Strongest durability: once
    /// the flush interval has passed, an acknowledged ingest survives power
    /// loss, not just process death.
    EveryFlush,
    /// `fsync` at most once per the given interval. Process crashes lose
    /// nothing beyond the flush interval; power loss can additionally lose
    /// up to this interval of page-cached writes.
    Interval(Duration),
    /// Never `fsync` (the OS writes pages back on its own schedule).
    /// Survives process crashes — the write() already reached the kernel —
    /// but not power loss.
    Never,
}

/// Configuration of a [`Store`](crate::Store): where the log lives and how
/// aggressively it is flushed and rotated.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments and catalog snapshots. Created on
    /// open if missing. One engine per directory.
    pub dir: PathBuf,
    /// Target size of one WAL segment file. Rotation happens at the first
    /// group-commit boundary past this size, so segments can overshoot by up
    /// to one flush batch.
    pub segment_bytes: usize,
    /// The group-commit interval: appended records are buffered in memory
    /// and written to the active segment in one sequential write at this
    /// cadence. This is the upper bound on acknowledged-but-lost data when
    /// the process dies.
    pub flush_interval: Duration,
    /// When to force group-commit writes to stable storage.
    pub fsync: FsyncPolicy,
}

impl DurabilityConfig {
    /// A configuration with production-leaning defaults rooted at `dir`:
    /// 8 MiB segments, 2 ms group-commit interval, 20 ms fsync interval.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            flush_interval: Duration::from_millis(2),
            fsync: FsyncPolicy::Interval(Duration::from_millis(20)),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.segment_bytes < 4096 {
            return Err(SaberError::Config(
                "durability segment_bytes must be at least 4096".into(),
            ));
        }
        if self.flush_interval.is_zero() {
            return Err(SaberError::Config(
                "durability flush_interval must be positive".into(),
            ));
        }
        if let FsyncPolicy::Interval(interval) = self.fsync {
            if interval.is_zero() {
                return Err(SaberError::Config(
                    "durability fsync interval must be positive (use EveryFlush)".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(DurabilityConfig::new("/tmp/x").validate().is_ok());
    }

    #[test]
    fn invalid_knobs_are_rejected() {
        let base = DurabilityConfig::new("/tmp/x");
        let mut c = base.clone();
        c.segment_bytes = 16;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.flush_interval = Duration::ZERO;
        assert!(c.validate().is_err());
        let mut c = base;
        c.fsync = FsyncPolicy::Interval(Duration::ZERO);
        assert!(c.validate().is_err());
    }
}
