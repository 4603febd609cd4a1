//! Device global memory accounting.
//!
//! Executing a query task on the accelerator moves its data through four
//! memory regions (paper Fig. 6): engine heap → pinned host input buffer →
//! device global memory → pinned host output buffer → engine heap. Here a
//! task's batches are already a buffer of its own, cut from the ingest
//! ring, and serve as the pinned copy, so there are no `copyin`/`copyout`
//! copies; device memory is only a capacity ledger, so a task larger than
//! the device is refused at `movein` as on the paper's hardware.

use saber_types::{Result, SaberError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tracks the accelerator's global-memory budget: a task reserves its input
/// bytes before `movein` and releases them once its output has moved out.
/// It is a ledger only; no bytes are stored.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    allocated: AtomicU64,
    peak: AtomicU64,
}

impl DeviceMemory {
    /// Creates an accounting pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            allocated: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Reserves `bytes`; fails if the device memory would be exhausted.
    pub fn allocate(&self, bytes: u64) -> Result<()> {
        let mut current = self.allocated.load(Ordering::Relaxed);
        loop {
            let next = current + bytes;
            if next > self.capacity {
                return Err(SaberError::Device(format!(
                    "device memory exhausted: {next} > {} bytes",
                    self.capacity
                )));
            }
            // relaxed-ok: the counter models capacity, not memory it
            // guards — no data is published through a successful claim, so
            // the CAS only needs atomicity.
            match self.allocated.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // relaxed-ok: high-water mark, read only for reports.
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Releases `bytes` back to the pool.
    pub fn free(&self, bytes: u64) {
        // relaxed-ok: capacity bookkeeping only; nothing synchronises
        // through the counter (see the CAS in alloc).
        self.allocated.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Currently allocated bytes.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Peak allocation seen so far.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_memory_accounting() {
        let mem = DeviceMemory::new(1000);
        mem.allocate(400).unwrap();
        mem.allocate(500).unwrap();
        assert!(mem.allocate(200).is_err());
        assert_eq!(mem.allocated(), 900);
        mem.free(500);
        assert_eq!(mem.allocated(), 400);
        assert_eq!(mem.peak(), 900);
        assert_eq!(mem.capacity(), 1000);
    }
}
