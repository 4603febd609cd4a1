//! The flight recorder: an always-on, fixed-size, lock-free ring of recent
//! per-task pipeline traces.
//!
//! Every completed task writes one slot (six stage durations plus identity)
//! and the ring wraps — the cost is a handful of `Relaxed` atomic stores
//! per task, no locks, no allocation, whether or not anybody ever reads it.
//! [`FlightRecorder::dump`] walks the ring and returns the readable slots.
//!
//! ## Seqlock slots
//!
//! Each slot carries a version counter: a writer picks a slot index from
//! the `head` ticket, claims the slot by moving its version from even to
//! odd with a `compare_exchange`, stores the fields, then publishes the even
//! successor version with `Release`. A writer that finds the slot already
//! claimed (another writer lapped the ring onto it) drops its trace, so one
//! slot never has two writers. Readers load the version with `Acquire`, copy
//! the fields, fence, and re-check the version — a torn read (version odd,
//! or changed between the two loads) is discarded, never surfaced. All
//! fields are plain atomics, so the worst outcome of any race is a dropped
//! trace row — never undefined behaviour.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of per-task stage durations a trace carries.
pub const TRACE_STAGES: usize = 6;

/// Names of the trace stages, in storage order: time from first
/// unacknowledged ingest to the dispatcher cut, time in the task queue,
/// scheduling delay from queue pop to worker start, worker execution,
/// result-stage reorder plus sink delivery, and end-to-end total.
pub const STAGE_NAMES: [&str; TRACE_STAGES] = [
    "ingest_wait",
    "queue",
    "schedule",
    "exec",
    "deliver",
    "total",
];

struct TraceSlot {
    version: AtomicU64,
    query: AtomicU64,
    seq: AtomicU64,
    /// Completion time, nanoseconds since the recorder's anchor instant.
    at_ns: AtomicU64,
    stages: [AtomicU64; TRACE_STAGES],
}

impl TraceSlot {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            query: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            at_ns: AtomicU64::new(0),
            stages: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One dumped task trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// The query the task belonged to.
    pub query: u64,
    /// The task's sequence number within its query.
    pub seq: u64,
    /// Completion time, as an offset from the recorder's creation.
    pub at: Duration,
    /// Stage durations in nanoseconds, indexed like [`STAGE_NAMES`].
    pub stages: [u64; TRACE_STAGES],
}

/// The fixed-size trace ring. Share it with `Arc`; `record` is lock-free.
pub struct FlightRecorder {
    anchor: Instant,
    head: AtomicU64,
    slots: Box<[TraceSlot]>,
    mask: u64,
}

impl FlightRecorder {
    /// Creates a ring holding `capacity` traces, rounded up to a power of
    /// two (minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Self {
            anchor: Instant::now(),
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| TraceSlot::new()).collect(),
            mask: cap as u64 - 1,
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever recorded (wraps the ring past `capacity`).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one completed task's trace. Lock-free, allocation-free; the
    /// trace is dropped if another writer holds the slot.
    pub fn record(&self, query: u64, seq: u64, stages: [u64; TRACE_STAGES]) {
        let at_ns = self.anchor.elapsed().as_nanos() as u64;
        // relaxed-ok: the ticket only picks a slot; readers validate the
        // slot's own version, not the head.
        let idx = (self.head.fetch_add(1, Ordering::Relaxed) & self.mask) as usize;
        let slot = &self.slots[idx];
        let v0 = slot.version.load(Ordering::Relaxed);
        // Claim: even -> odd. Acquire orders this write after the previous
        // writer's; the Release fence below orders the odd version before
        // the field stores for readers.
        if v0 % 2 == 1
            || slot
                .version
                // relaxed-ok: a failed claim writes nothing.
                .compare_exchange(v0, v0 + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        // relaxed-ok: seqlock payload; published by the version store below.
        slot.query.store(query, Ordering::Relaxed);
        // relaxed-ok: seqlock payload; published by the version store below.
        slot.seq.store(seq, Ordering::Relaxed);
        // relaxed-ok: seqlock payload; published by the version store below.
        slot.at_ns.store(at_ns, Ordering::Relaxed);
        for (s, v) in slot.stages.iter().zip(stages) {
            // relaxed-ok: seqlock payload; published by the version store
            // below.
            s.store(v, Ordering::Relaxed);
        }
        // pairs-with: dump
        slot.version.store(v0.wrapping_add(2), Ordering::Release);
    }

    /// Dumps every readable trace, most recent first. Slots written during
    /// the read are skipped.
    pub fn dump(&self) -> Vec<FlightRecord> {
        let mut records = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                continue; // never written, or a write is in progress
            }
            let record = FlightRecord {
                query: slot.query.load(Ordering::Relaxed),
                seq: slot.seq.load(Ordering::Relaxed),
                at: Duration::from_nanos(slot.at_ns.load(Ordering::Relaxed)),
                stages: std::array::from_fn(|i| slot.stages[i].load(Ordering::Relaxed)),
            };
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != v1 {
                continue; // rewritten while we read it
            }
            records.push(record);
        }
        records.sort_by_key(|r| std::cmp::Reverse(r.at));
        records
    }

    /// Renders the ring as a human-readable table (the `/traces` dump).
    pub fn dump_text(&self) -> String {
        use std::fmt::Write as _;
        let records = self.dump();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# flight recorder: {} of {} slots filled, {} traces recorded",
            records.len(),
            self.capacity(),
            self.recorded()
        );
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>8}  {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "t(s)",
            "query",
            "seq",
            STAGE_NAMES[0],
            STAGE_NAMES[1],
            STAGE_NAMES[2],
            STAGE_NAMES[3],
            STAGE_NAMES[4],
            STAGE_NAMES[5],
        );
        for r in &records {
            let _ = write!(
                out,
                "{:>10.3} {:>6} {:>8} ",
                r.at.as_secs_f64(),
                r.query,
                r.seq
            );
            for s in r.stages {
                let _ = write!(out, " {:>10.3}us", s as f64 / 1e3);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_round_trip_and_wrap() {
        let r = FlightRecorder::new(8);
        assert_eq!(r.capacity(), 8);
        for i in 0..20u64 {
            r.record(1, i, [i, i + 1, i + 2, i + 3, i + 4, i + 5]);
        }
        assert_eq!(r.recorded(), 20);
        let dump = r.dump();
        assert_eq!(dump.len(), 8);
        // The newest trace survives; the oldest surviving seq is 12.
        assert_eq!(dump[0].seq, 19);
        assert!(dump.iter().all(|t| t.seq >= 12));
        assert_eq!(dump[0].stages, [19, 20, 21, 22, 23, 24]);
    }

    #[test]
    fn empty_ring_dumps_nothing() {
        let r = FlightRecorder::new(16);
        assert!(r.dump().is_empty());
        assert!(r.dump_text().contains("0 of 16 slots"));
    }

    #[test]
    fn a_write_onto_a_claimed_slot_is_dropped() {
        let r = FlightRecorder::new(8);
        // A writer holds slot 0 (odd version) when the next ticket lands on
        // it: the trace is dropped and the slot left to its holder.
        r.slots[0].version.store(1, Ordering::Relaxed);
        r.record(7, 7, [7; TRACE_STAGES]);
        assert_eq!(r.recorded(), 1);
        assert_eq!(r.slots[0].version.load(Ordering::Relaxed), 1);
        assert_eq!(r.slots[0].query.load(Ordering::Relaxed), 0);
        assert!(r.slots[0]
            .stages
            .iter()
            .all(|s| s.load(Ordering::Relaxed) == 0));
        assert!(r.dump().is_empty());
    }

    #[test]
    fn concurrent_writers_and_readers_never_surface_torn_slots() {
        let r = Arc::new(FlightRecorder::new(64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let r = r.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Every field of a trace encodes its writer+index,
                        // so a torn slot is detectable below.
                        let tag = t * 1_000_000 + i;
                        r.record(tag, tag, [tag; TRACE_STAGES]);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..2_000 {
            for trace in r.dump() {
                assert_eq!(trace.query, trace.seq, "torn trace surfaced");
                assert!(
                    trace.stages.iter().all(|&s| s == trace.query),
                    "torn stage vector surfaced"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
