//! Credit-based admission control for query tasks (replaces sleep-polling
//! backpressure).
//!
//! Every dispatched task takes one credit before it is pushed onto the task
//! queue and returns it when a worker finishes processing it. When all
//! credits are outstanding, producers block on a condition variable and are
//! woken *precisely* when a worker completes a task — there is no polling
//! loop anywhere on the ingest path. The same mechanism drives
//! [`FlowControl::wait_idle`], which `Saber::drain` uses to wait for the
//! engine to run dry.
//!
//! # Synchronization protocol
//!
//! The outstanding-credit count lives under a mutex paired with a condvar:
//! acquire/release and the emptiness test are mutually ordered by the lock,
//! so no Acquire/Release atomic reasoning is needed for correctness. The
//! wait-time counters are plain `Relaxed` atomics — they are monitoring
//! data, read without synchronization.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use saber_types::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A counting credit gate bounding the number of in-flight query tasks
/// (queued + executing).
#[derive(Debug)]
pub struct FlowControl {
    capacity: u64,
    /// Number of credits currently held by in-flight tasks.
    outstanding: Mutex<u64>,
    /// Signalled on every release (wakes blocked producers and drainers).
    released: Condvar,
    /// Once set, `acquire` stops blocking: the engine is shutting down, so
    /// the bound no longer matters and stranded producers must not hang.
    shutdown: AtomicBool,
    /// Total nanoseconds producers spent blocked waiting for a credit.
    wait_nanos: AtomicU64,
    /// Number of acquisitions that had to block.
    waits: AtomicU64,
    /// Total acquisitions.
    acquisitions: AtomicU64,
}

impl FlowControl {
    /// Creates a gate with `capacity` credits.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1) as u64,
            outstanding: Mutex::new(0),
            released: Condvar::new(),
            shutdown: AtomicBool::new(false),
            wait_nanos: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
        }
    }

    /// Maximum number of in-flight tasks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Takes one credit, blocking while all credits are outstanding.
    /// Returns how long the caller was blocked (zero on the fast path).
    /// After [`FlowControl::signal_shutdown`] the gate stops blocking, so
    /// producers stranded mid-ingest when the engine stops cannot hang.
    pub fn acquire(&self) -> Duration {
        // relaxed-ok: monitoring counter, read only by wait_stats displays.
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let mut outstanding = self.outstanding.lock();
        if *outstanding < self.capacity {
            *outstanding += 1;
            return Duration::ZERO;
        }
        // Counted when the wait begins, so a producer blocked right now is
        // already visible in `wait_stats`.
        // relaxed-ok: monitoring counter, read only by wait_stats displays.
        self.waits.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        while *outstanding >= self.capacity && !self.is_shutdown() {
            self.released
                .wait_for(&mut outstanding, Duration::from_secs(1));
        }
        *outstanding += 1;
        drop(outstanding);
        let waited = started.elapsed();
        // relaxed-ok: monitoring counter, read only by wait_stats displays.
        self.wait_nanos
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        waited
    }

    /// Takes one credit only if one is free right now; never blocks. This is
    /// the only acquisition a *worker* may make: credits are returned by
    /// workers alone, so a worker blocking in [`FlowControl::acquire`] could
    /// wait on itself forever.
    pub fn try_acquire(&self) -> bool {
        let mut outstanding = self.outstanding.lock();
        if *outstanding >= self.capacity {
            return false;
        }
        *outstanding += 1;
        drop(outstanding);
        // relaxed-ok: monitoring counter, read only by wait_stats displays.
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Returns one credit and wakes blocked producers/drainers.
    pub fn release(&self) {
        let mut outstanding = self.outstanding.lock();
        debug_assert!(*outstanding > 0, "release without matching acquire");
        *outstanding = outstanding.saturating_sub(1);
        drop(outstanding);
        self.released.notify_all();
    }

    /// Number of credits currently held (tasks dispatched but not finished).
    pub fn outstanding(&self) -> u64 {
        *self.outstanding.lock()
    }

    /// Disables blocking in `acquire` and wakes every waiter (engine
    /// shutdown). `wait_idle` is unaffected.
    pub fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        drop(self.outstanding.lock());
        self.released.notify_all();
    }

    /// True once shutdown has been signalled.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until every credit has been returned, or until `timeout`
    /// elapses. Returns true if the gate went idle in time.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut outstanding = self.outstanding.lock();
        while *outstanding > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.released.wait_for(&mut outstanding, deadline - now);
        }
        true
    }

    /// `(blocking acquisitions, total blocked time)` across all producers.
    pub fn wait_stats(&self) -> (u64, Duration) {
        (
            self.waits.load(Ordering::Relaxed),
            Duration::from_nanos(self.wait_nanos.load(Ordering::Relaxed)),
        )
    }

    /// Total number of credits ever acquired.
    pub fn total_acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_up_to_capacity_without_blocking() {
        let flow = FlowControl::new(3);
        for _ in 0..3 {
            assert_eq!(flow.acquire(), Duration::ZERO);
        }
        assert_eq!(flow.outstanding(), 3);
        // A saturated gate refuses the non-blocking form instead of waiting.
        assert!(!flow.try_acquire());
        flow.release();
        assert_eq!(flow.outstanding(), 2);
        assert!(flow.try_acquire());
        assert_eq!(flow.outstanding(), 3);
        assert_eq!(flow.total_acquisitions(), 4);
    }

    #[test]
    fn saturated_gate_blocks_until_release() {
        let flow = Arc::new(FlowControl::new(1));
        flow.acquire();
        let flow2 = flow.clone();
        let t = std::thread::spawn(move || flow2.acquire());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(flow.outstanding(), 1);
        flow.release();
        let waited = t.join().unwrap();
        assert!(waited >= Duration::from_millis(5), "waited {waited:?}");
        let (waits, total) = flow.wait_stats();
        assert_eq!(waits, 1);
        assert!(total >= waited);
        assert_eq!(flow.total_acquisitions(), 2);
    }

    #[test]
    fn wait_idle_observes_the_last_release() {
        let flow = Arc::new(FlowControl::new(4));
        flow.acquire();
        flow.acquire();
        assert!(!flow.wait_idle(Duration::from_millis(10)));
        let flow2 = flow.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            flow2.release();
            flow2.release();
        });
        assert!(flow.wait_idle(Duration::from_secs(5)));
        t.join().unwrap();
        assert_eq!(flow.outstanding(), 0);
    }

    #[test]
    fn shutdown_unblocks_stranded_producers() {
        let flow = Arc::new(FlowControl::new(1));
        flow.acquire();
        let flow2 = flow.clone();
        let t = std::thread::spawn(move || flow2.acquire());
        std::thread::sleep(Duration::from_millis(20));
        // No release will ever come (workers are gone); shutdown must free
        // the producer instead of leaving it hung.
        flow.signal_shutdown();
        t.join().unwrap();
        assert!(flow.is_shutdown());
        // Post-shutdown acquisitions never block either.
        assert!(flow.acquire() < Duration::from_millis(200));
    }

    #[test]
    fn many_producers_and_consumers_balance() {
        let flow = Arc::new(FlowControl::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let flow = flow.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    flow.acquire();
                    flow.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(flow.outstanding(), 0);
        assert_eq!(flow.total_acquisitions(), 2000);
    }
}
