//! Per-query, per-stream circular input buffers (paper §4.1).
//!
//! Incoming tuples are stored without deserialisation in a circular byte
//! buffer backed by a fixed array. The buffer is *reservation based*:
//! producers claim a byte range with a compare-and-swap on the claim
//! pointer, copy their payload into the claimed slots without holding any
//! lock, and then publish the range by advancing the head pointer in claim
//! order. The dispatcher's task cutter concurrently reads contiguous ranges
//! below the head and releases consumed data by moving the *free pointer*
//! forward (for join queries a window-sized lookback is retained so tasks
//! can rebuild the opposite stream's window).
//!
//! # Memory-ordering protocol
//!
//! Three monotonically increasing absolute byte positions partition the ring:
//!
//! * `tail` (free pointer) ≤ `head` (publish pointer) ≤ `claim`.
//! * Producers CAS `claim` forward to reserve `[claim, claim + len)`. The
//!   reservation succeeds only while `claim + len - tail ≤ capacity`, so a
//!   claimed range never aliases bytes that are still readable.
//! * After copying, a producer waits until `head` reaches its reservation
//!   start and then stores `head = end` with `Release`. Readers load `head`
//!   with `Acquire`; the Release/Acquire pair makes the copied bytes visible
//!   before the range appears readable.
//! * Only the (single) task cutter advances `tail`, with `fetch_max`
//!   (`AcqRel`) so it never moves backwards. Producers load `tail` with
//!   `Acquire` before reusing freed slots, which orders slot reuse after
//!   every read the cutter performed below the old tail.
//!
//! Readers must not race `release_until` for ranges they are still copying;
//! the dispatcher guarantees this by reading and releasing only from within
//! the cutter critical section.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use saber_types::{Result, SaberError};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A multi-producer, single-consumer circular byte buffer with explicit
/// free-pointer management. Appends are lock-free; see the module docs for
/// the full protocol.
pub struct CircularBuffer {
    data: Box<[UnsafeCell<u8>]>,
    capacity: usize,
    /// Next absolute byte a producer may claim.
    claim: AtomicU64,
    /// Absolute number of bytes published (the write pointer).
    head: AtomicU64,
    /// Absolute number of bytes released (the free pointer).
    tail: AtomicU64,
}

// SAFETY: the buffer owns its storage and holds no thread-affine state, so
// moving it between threads is sound.
unsafe impl Send for CircularBuffer {}
// SAFETY: all shared mutation goes through the atomic pointers; byte slots
// are only written inside a claimed (exclusive) reservation and only read
// once published, per the protocol above.
unsafe impl Sync for CircularBuffer {}

impl std::fmt::Debug for CircularBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircularBuffer")
            .field("capacity", &self.capacity)
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .field("claim", &self.claim.load(Ordering::Relaxed))
            .finish()
    }
}

impl CircularBuffer {
    /// Creates a buffer of `capacity` bytes (rounded up to a power of two).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(1024);
        let data = (0..capacity).map(|_| UnsafeCell::new(0u8)).collect();
        Self {
            data,
            capacity,
            claim: AtomicU64::new(0),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
        }
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently held (published but not yet released).
    pub fn len(&self) -> usize {
        // Load `tail` first: both pointers only grow and `tail ≤ head` holds
        // at every instant, so a tail snapshot taken *before* the head
        // snapshot can never exceed it. (The reverse order could race with a
        // concurrent publish+release and underflow.)
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        (head - tail) as usize
    }

    /// True if no unreleased bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free space available for new reservations (excludes claimed but not
    /// yet published bytes).
    pub fn available(&self) -> usize {
        // Tail-first snapshot order for the same reason as in `len`.
        let tail = self.tail.load(Ordering::Acquire);
        let claim = self.claim.load(Ordering::Acquire);
        self.capacity - (claim - tail) as usize
    }

    /// Absolute position of the publish pointer (bytes ever published).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Absolute position of the free pointer.
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// Attempts to append `bytes` without blocking. Returns `Ok(false)` when
    /// the buffer currently lacks space (the caller applies backpressure) and
    /// an error when `bytes` can never fit.
    #[expect(
        clippy::indexing_slicing,
        reason = "slot offsets are masked with `capacity - 1` (a power of two \
                  equal to `data.len()`), so every index is in range"
    )]
    pub fn try_insert(&self, bytes: &[u8]) -> Result<bool> {
        if bytes.is_empty() {
            return Ok(true);
        }
        if bytes.len() > self.capacity {
            return Err(SaberError::Buffer(format!(
                "{} bytes can never fit a {}-byte circular buffer",
                bytes.len(),
                self.capacity
            )));
        }
        // Reserve [start, start + len) by advancing the claim pointer.
        let len = bytes.len() as u64;
        let mut start = self.claim.load(Ordering::Acquire);
        loop {
            // `start` may be stale by the time `tail` is read (another
            // producer claimed past it and the cutter released), so the
            // subtraction must saturate; a stale `start` then passes the
            // bound check but fails the CAS below and retries fresh.
            let tail = self.tail.load(Ordering::Acquire);
            if (start + len).saturating_sub(tail) > self.capacity as u64 {
                return Ok(false);
            }
            match self.claim.compare_exchange_weak(
                start,
                start + len,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(observed) => start = observed,
            }
        }

        // Copy into the claimed slots (exclusive: no lock needed).
        let offset = (start as usize) & (self.capacity - 1);
        let first = bytes.len().min(self.capacity - offset);
        // SAFETY: the CAS above granted this thread exclusive ownership of
        // `[start, start + len)`; `offset` is masked into range, `first ≤
        // capacity - offset` bounds the first copy and the wrapped remainder
        // `len - first` starts at slot 0, so both copies stay inside `data`
        // and never overlap bytes another thread may touch.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.data[offset].get(), first);
            if first < bytes.len() {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr().add(first),
                    self.data[0].get(),
                    bytes.len() - first,
                );
            }
        }

        // Publish in claim order so the readable prefix is always complete.
        let mut spins = 0u32;
        while self.head.load(Ordering::Acquire) != start {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // pairs-with: head — readers (the cutter via `head()`/`len()`/
        // `read_range`) load the publish pointer with Acquire, making the
        // bytes copied above visible before the range appears readable.
        self.head.store(start + len, Ordering::Release);
        Ok(true)
    }

    /// Appends `bytes`, failing if the buffer would overflow (the caller
    /// applies backpressure).
    pub fn insert(&self, bytes: &[u8]) -> Result<()> {
        if self.try_insert(bytes)? {
            Ok(())
        } else {
            Err(SaberError::Buffer(format!(
                "circular buffer overflow: {} bytes, {} available",
                bytes.len(),
                self.available()
            )))
        }
    }

    /// Copies the absolute byte range `[from, to)` out of the buffer. The
    /// range must still be resident (`from >= tail`, `to <= head`).
    #[expect(
        clippy::indexing_slicing,
        reason = "slot offsets are masked with `capacity - 1` (a power of two \
                  equal to `data.len()`), so every index is in range"
    )]
    pub fn read_range(&self, from: u64, to: u64) -> Result<Vec<u8>> {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        if from < tail || to > head || from > to {
            return Err(SaberError::Buffer(format!(
                "range [{from}, {to}) outside resident data [{tail}, {head})"
            )));
        }
        let len = (to - from) as usize;
        let mut out = vec![0u8; len];
        let offset = (from as usize) & (self.capacity - 1);
        let first = len.min(self.capacity - offset);
        // SAFETY: the bounds check above proved `[from, to)` lies between
        // `tail` and the Acquire-loaded `head`, so the slots were published
        // (visible) and cannot be reused until the single consumer — this
        // caller — releases them; offsets are masked into `data`'s range.
        unsafe {
            std::ptr::copy_nonoverlapping(self.data[offset].get(), out.as_mut_ptr(), first);
            if first < len {
                std::ptr::copy_nonoverlapping(
                    self.data[0].get(),
                    out.as_mut_ptr().add(first),
                    len - first,
                );
            }
        }
        Ok(out)
    }

    /// Moves the free pointer forward to absolute position `free`, releasing
    /// everything before it. Never moves backwards or past the publish
    /// pointer.
    pub fn release_until(&self, free: u64) {
        let head = self.head.load(Ordering::Acquire);
        self.tail.fetch_max(free.min(head), Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_and_read_round_trip() {
        let buf = CircularBuffer::new(1024);
        buf.insert(&[1, 2, 3, 4]).unwrap();
        buf.insert(&[5, 6]).unwrap();
        assert_eq!(buf.len(), 6);
        assert_eq!(buf.read_range(0, 6).unwrap(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(buf.read_range(2, 4).unwrap(), vec![3, 4]);
    }

    #[test]
    fn wrap_around_preserves_data() {
        let buf = CircularBuffer::new(1024); // capacity 1024
        let chunk: Vec<u8> = (0..200u16).map(|v| (v % 251) as u8).collect();
        let mut written = 0u64;
        for round in 0..20 {
            buf.insert(&chunk).unwrap();
            written += chunk.len() as u64;
            // Release all but the last chunk to make room.
            buf.release_until(written - chunk.len() as u64);
            let got = buf
                .read_range(written - chunk.len() as u64, written)
                .unwrap();
            assert_eq!(got, chunk, "round {round}");
        }
        assert_eq!(buf.head(), written);
    }

    #[test]
    fn overflow_is_rejected_until_released() {
        let buf = CircularBuffer::new(1024);
        buf.insert(&vec![7u8; 1000]).unwrap();
        assert!(buf.insert(&[8u8; 100]).is_err());
        assert!(!buf.try_insert(&[8u8; 100]).unwrap());
        buf.release_until(512);
        buf.insert(&[8u8; 100]).unwrap();
        assert_eq!(buf.len(), 1000 - 512 + 100);
    }

    #[test]
    fn oversized_inserts_are_a_hard_error() {
        let buf = CircularBuffer::new(1024);
        // Retryable overflow reports Ok(false)…
        buf.insert(&vec![1u8; 1000]).unwrap();
        assert!(!buf.try_insert(&[0u8; 100]).unwrap());
        // …but a payload larger than the whole ring can never succeed.
        assert!(buf.try_insert(&vec![2u8; 2048]).is_err());
    }

    #[test]
    fn reading_released_data_is_an_error() {
        let buf = CircularBuffer::new(1024);
        buf.insert(&[1, 2, 3, 4]).unwrap();
        buf.release_until(2);
        assert!(buf.read_range(0, 4).is_err());
        assert!(buf.read_range(2, 4).is_ok());
        assert!(buf.read_range(2, 8).is_err());
    }

    #[test]
    fn release_never_moves_backwards_or_past_head() {
        let buf = CircularBuffer::new(1024);
        buf.insert(&[0; 100]).unwrap();
        buf.release_until(60);
        buf.release_until(40);
        assert_eq!(buf.tail(), 60);
        buf.release_until(1_000_000);
        assert_eq!(buf.tail(), buf.head());
    }

    /// Concurrent producers + one reader/releaser: every 8-byte record must
    /// come out exactly once and intact despite wraparound and reservation
    /// contention.
    #[test]
    fn concurrent_producers_never_lose_or_tear_records() {
        const PRODUCERS: u64 = 4;
        const RECORDS: u64 = 4000;
        let buf = Arc::new(CircularBuffer::new(4096));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let buf = buf.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..RECORDS {
                    let record = (p << 32 | i).to_le_bytes();
                    while !buf.try_insert(&record).unwrap() {
                        std::thread::yield_now();
                    }
                }
            }));
        }

        let total_bytes = PRODUCERS * RECORDS * 8;
        let mut cursor = 0u64;
        let mut counts = vec![0u64; PRODUCERS as usize];
        let mut last_seen = vec![-1i64; PRODUCERS as usize];
        while cursor < total_bytes {
            let head = buf.head();
            if head == cursor {
                std::thread::yield_now();
                continue;
            }
            let bytes = buf.read_range(cursor, head).unwrap();
            for record in bytes.chunks_exact(8) {
                let value = u64::from_le_bytes(record.try_into().unwrap());
                let (p, i) = ((value >> 32) as usize, (value & 0xffff_ffff) as i64);
                assert!(p < PRODUCERS as usize, "torn record {value:#x}");
                // Per-producer records are published in order.
                assert!(i > last_seen[p], "producer {p} record {i} out of order");
                last_seen[p] = i;
                counts[p] += 1;
            }
            cursor = head;
            buf.release_until(cursor);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counts, vec![RECORDS; PRODUCERS as usize]);
        assert_eq!(buf.head(), total_bytes);
    }
}
