//! The system-wide query task queue (paper §4.1), sharded per query.
//!
//! Logically all queries share one queue of tasks; physically each query has
//! its own sub-queue under a small per-shard mutex, plus lock-free metadata
//! (head arrival stamp and depth) that the scheduling stage reads without
//! taking any lock. HLS lookahead therefore scans O(#queries) sub-queue
//! heads instead of walking an O(queue-length) list under one global lock,
//! and workers popping tasks of different queries never contend.
//!
//! Global FIFO order across queries is preserved by stamping every pushed
//! task with a monotonically increasing *arrival* number; head snapshots are
//! handed to the scheduler sorted by arrival, so FCFS is "pop the smallest
//! arrival" and HLS walks heads in true queue order.
//!
//! The queue also carries the engine's shutdown signal so that parked
//! workers wake up promptly, and the *early-cut deadline*: the instant at
//! which the oldest pending (not yet dispatched) row of any query will have
//! waited long enough for an idle worker to cut it into an undersized task
//! (see [`crate::dispatcher::EARLY_CUT_AGE`]). Parked workers sleep no
//! later than that deadline; nothing is armed while nothing is pending, so
//! an idle engine wakes only once per 20 ms park slice.

use crate::task::QueryTask;
use saber_types::sync::{Condvar, Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest single park of a worker waiting for a task.
const PARK_SLICE: Duration = Duration::from_millis(20);

/// Scheduler-visible snapshot of one non-empty sub-queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskHead {
    /// The query whose sub-queue this is.
    pub query_id: usize,
    /// Global FIFO stamp of the task at the head of the sub-queue.
    pub arrival: u64,
    /// Number of tasks queued for this query (the query's backlog).
    pub depth: usize,
}

#[derive(Debug)]
struct Shard {
    inner: Mutex<VecDeque<(u64, QueryTask)>>,
    /// Arrival stamp of the head task; `u64::MAX` when empty. Updated under
    /// the shard lock, read lock-free by head snapshots.
    head_arrival: AtomicU64,
    /// Sub-queue depth mirror (same discipline as `head_arrival`).
    depth: AtomicUsize,
}

impl Default for Shard {
    fn default() -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            head_arrival: AtomicU64::new(u64::MAX),
            depth: AtomicUsize::new(0),
        }
    }
}

impl Shard {
    fn sync_meta(&self, queue: &VecDeque<(u64, QueryTask)>) {
        // pairs-with: snapshot_heads — the scheduler Acquire-loads the head
        // stamp lock-free when building its per-query backlog snapshot.
        self.head_arrival.store(
            queue.front().map(|(a, _)| *a).unwrap_or(u64::MAX),
            Ordering::Release,
        );
        // pairs-with: snapshot_heads (and the depth() accessor), which
        // Acquire-load the mirror without taking the shard lock.
        self.depth.store(queue.len(), Ordering::Release);
    }
}

/// The sharded task queue.
///
/// Sub-queues are registered per query and *retired* when the query is
/// removed: retired slots keep their index (query ids are never reused) but
/// are skipped by head snapshots and reject lookups, so scheduler scans stay
/// O(#live queries) under query churn.
#[derive(Debug)]
pub struct TaskQueue {
    shards: RwLock<Vec<Option<Arc<Shard>>>>,
    /// Global FIFO stamp source.
    arrivals: AtomicU64,
    /// Total queued tasks across all shards.
    len: AtomicUsize,
    /// High-water mark of `len` (queue-depth metric).
    max_depth: AtomicUsize,
    /// Backs `not_empty`; held briefly by pushers to serialize with waiters.
    sleep: Mutex<()>,
    not_empty: Condvar,
    shutdown: AtomicBool,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    /// Reference instant of `early_cut_at`.
    epoch: Instant,
    /// Earliest armed early-cut deadline in nanoseconds since `epoch`;
    /// `u64::MAX` while none is armed. Lowered by producers
    /// ([`TaskQueue::arm_early_cut`]), reset by the worker that acts on it
    /// ([`TaskQueue::take_early_cut`]), read by parking workers under the
    /// sleep lock.
    early_cut_at: AtomicU64,
    /// Number of times a worker parked in [`TaskQueue::take_with`]; like
    /// the next one, a slow-path count the unit tests pin the park protocol
    /// with (no fixed-period poll, one hand-on per queue version).
    parks: AtomicU64,
    /// Number of wakes a declining worker handed on to another.
    wakes_passed_on: AtomicU64,
}

impl Default for TaskQueue {
    fn default() -> Self {
        Self {
            shards: RwLock::default(),
            arrivals: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            max_depth: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            not_empty: Condvar::new(),
            shutdown: AtomicBool::new(false),
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            epoch: Instant::now(),
            early_cut_at: AtomicU64::new(u64::MAX),
            parks: AtomicU64::new(0),
            wakes_passed_on: AtomicU64::new(0),
        }
    }
}

impl TaskQueue {
    /// Creates an empty queue with no registered queries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a queue with `n` query sub-queues (ids `0..n`).
    pub fn with_queries(n: usize) -> Self {
        let queue = Self::default();
        for _ in 0..n {
            queue.register_query();
        }
        queue
    }

    /// Adds a sub-queue for the next query id and returns that id.
    pub fn register_query(&self) -> usize {
        let mut shards = self.shards.write();
        shards.push(Some(Arc::new(Shard::default())));
        shards.len() - 1
    }

    /// Adds a sub-queue for an externally assigned query id (the engine
    /// reserves ids from its registry's counter, so shards may be created
    /// out of order; gaps read as retired slots, which nobody can push to
    /// before their registration completes).
    pub fn register_query_at(&self, query_id: usize) {
        let mut shards = self.shards.write();
        if shards.len() <= query_id {
            shards.resize_with(query_id + 1, || None);
        }
        shards[query_id] = Some(Arc::new(Shard::default()));
    }

    /// Retires a query's sub-queue: the slot keeps its index (ids are never
    /// reused) but is skipped by snapshots, depth reads and pops from now
    /// on. Returns any tasks still queued — the caller removed the query
    /// loss-free, so this is normally empty; on an unclean removal the
    /// caller must account for the orphans (their flow credits).
    pub fn retire_query(&self, query_id: usize) -> Vec<QueryTask> {
        let shard = {
            let mut shards = self.shards.write();
            match shards.get_mut(query_id) {
                Some(slot) => slot.take(),
                None => None,
            }
        };
        let Some(shard) = shard else {
            return Vec::new();
        };
        let orphans: Vec<QueryTask> = {
            let mut q = shard.inner.lock();
            let drained = q.drain(..).map(|(_, task)| task).collect();
            shard.sync_meta(&q);
            drained
        };
        if !orphans.is_empty() {
            self.len.fetch_sub(orphans.len(), Ordering::AcqRel);
            // relaxed-ok: monitoring counter, read only for stats display.
            self.dequeued
                .fetch_add(orphans.len() as u64, Ordering::Relaxed);
        }
        orphans
    }

    /// Number of live (registered, not retired) query sub-queues.
    pub fn num_queries(&self) -> usize {
        self.shards.read().iter().filter(|s| s.is_some()).count()
    }

    fn shard(&self, query_id: usize) -> Option<Arc<Shard>> {
        self.shards.read().get(query_id).and_then(|s| s.clone())
    }

    /// Appends a task to its query's sub-queue and wakes one worker.
    /// Returns false — leaving the task dropped — if the query's shard has
    /// been *retired*: that only happens when an ingest outlived an unclean
    /// (timed-out) removal, and the caller must return the task's flow
    /// credit. Panics if the query was never registered at all — tasks for
    /// truly unknown queries would be lost silently otherwise.
    ///
    /// The shard-table read lock is held across the insert, so a concurrent
    /// [`TaskQueue::retire_query`] (which takes the write lock) either
    /// observes the task in its drain or rejects this push entirely — a
    /// task can never land in a detached shard.
    pub fn push(&self, task: QueryTask) -> bool {
        let shards = self.shards.read();
        let shard = match shards.get(task.query_id) {
            Some(Some(shard)) => shard,
            Some(None) => return false, // retired
            None => panic!("query {} not registered with the task queue", task.query_id),
        };
        // relaxed-ok: the stamp only needs global uniqueness and
        // monotonicity, which the atomic RMW provides at any ordering; FIFO
        // position is fixed under the shard lock where the task is inserted.
        let arrival = self.arrivals.fetch_add(1, Ordering::Relaxed);
        // Count the task *before* it becomes poppable: a worker that pops it
        // concurrently decrements `len` only after this increment, so the
        // counter can transiently overcount but never wrap below zero.
        let len = self.len.fetch_add(1, Ordering::AcqRel) + 1;
        self.max_depth.fetch_max(len, Ordering::AcqRel);
        {
            let mut q = shard.inner.lock();
            q.push_back((arrival, task));
            shard.sync_meta(&q);
        }
        drop(shards);
        // relaxed-ok: monitoring counter, read only for stats display.
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        // Serialize with `take_with` waiters so the wakeup cannot be lost:
        // a waiter holds the sleep lock between its emptiness check and its
        // wait, so by the time we acquire it the waiter is parked.
        drop(self.sleep.lock());
        self.not_empty.notify_one();
        true
    }

    /// Number of tasks currently queued across all queries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True if no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest number of simultaneously queued tasks observed.
    pub fn max_depth(&self) -> usize {
        self.max_depth.load(Ordering::Acquire)
    }

    /// Number of tasks queued for one query (0 for unknown or retired
    /// queries).
    pub fn depth(&self, query_id: usize) -> usize {
        self.shard(query_id)
            .map(|s| s.depth.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// Total number of tasks ever enqueued.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Total number of tasks ever removed by workers.
    pub fn total_dequeued(&self) -> u64 {
        self.dequeued.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn total_parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn total_wakes_passed_on(&self) -> u64 {
        self.wakes_passed_on.load(Ordering::Relaxed)
    }

    /// Arms the early-cut deadline: no worker parks past `at` from now on.
    /// Called by the producer that stamps a query's first pending row (once
    /// per task, not per ingest) and by a worker re-arming what its scan
    /// left pending. A parked worker is woken only when `at` is earlier
    /// than the deadline already armed — later ones it will meet anyway.
    pub fn arm_early_cut(&self, at: Instant) {
        let ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        // AcqRel: the lowered deadline is read back by `take_with` (under
        // the sleep lock) and consumed by `take_early_cut`, whose caller
        // must then see the pending stamp this producer wrote before arming.
        let armed = self.early_cut_at.fetch_min(ns, Ordering::AcqRel);
        if ns < armed {
            // Same discipline as `push`: a worker holds the sleep lock from
            // reading the deadline until it is parked, so either it read
            // the new value or this notify finds it waiting.
            drop(self.sleep.lock());
            self.not_empty.notify_one();
        }
    }

    /// Disarms the early-cut deadline and returns it. The worker that calls
    /// this owns the follow-up: it scans every query with pending rows and
    /// re-arms for whatever it does not cut.
    pub fn take_early_cut(&self) -> Option<Instant> {
        self.deadline_at(self.early_cut_at.swap(u64::MAX, Ordering::AcqRel))
    }

    fn deadline_at(&self, ns: u64) -> Option<Instant> {
        (ns != u64::MAX).then(|| self.epoch + Duration::from_nanos(ns))
    }

    /// Signals shutdown and wakes all parked workers.
    pub fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        drop(self.sleep.lock());
        self.not_empty.notify_all();
    }

    /// True once shutdown has been signalled.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Fills `out` with a snapshot of all non-empty sub-queue heads, sorted
    /// by arrival (global FIFO order). Lock-free: reads only shard metadata.
    pub fn snapshot_heads(&self, out: &mut Vec<TaskHead>) {
        out.clear();
        let shards = self.shards.read();
        for (query_id, shard) in shards.iter().enumerate() {
            let Some(shard) = shard else {
                continue; // retired query
            };
            let arrival = shard.head_arrival.load(Ordering::Acquire);
            if arrival != u64::MAX {
                out.push(TaskHead {
                    query_id,
                    arrival,
                    depth: shard.depth.load(Ordering::Acquire).max(1),
                });
            }
        }
        out.sort_by_key(|h| h.arrival);
    }

    /// Pops the head task of `query_id`'s sub-queue, if any.
    pub fn try_pop(&self, query_id: usize) -> Option<QueryTask> {
        let shard = self.shard(query_id)?;
        let task = {
            let mut q = shard.inner.lock();
            let task = q.pop_front();
            shard.sync_meta(&q);
            task
        };
        let (_, task) = task?;
        self.len.fetch_sub(1, Ordering::AcqRel);
        // relaxed-ok: monitoring counter, read only for stats display.
        self.dequeued.fetch_add(1, Ordering::Relaxed);
        Some(task)
    }

    /// Removes and returns the task chosen by `select`, blocking for up to
    /// `timeout` while nothing selectable is queued. `select` receives the
    /// non-empty sub-queue heads in arrival order and returns the index of
    /// the head to pop (or `None` to decline all currently queued tasks).
    /// Also returns `None` as soon as an armed early-cut deadline has
    /// passed, so the calling worker can act on it.
    pub fn take_with<F>(&self, timeout: Duration, mut select: F) -> Option<QueryTask>
    where
        F: FnMut(&[TaskHead]) -> Option<usize>,
    {
        let deadline = Instant::now() + timeout;
        let mut heads = Vec::new();
        // Queue version at which this call last declined queued tasks.
        let mut declined_at = None;
        loop {
            // Version check: a push between our snapshot and our wait bumps
            // `enqueued`, which we re-check under the sleep lock below.
            let version = self.enqueued.load(Ordering::Acquire);
            self.snapshot_heads(&mut heads);
            let mut pass_wake_on = false;
            if !heads.is_empty() {
                if let Some(idx) = select(&heads) {
                    let head = heads.get(idx)?;
                    if let Some(task) = self.try_pop(head.query_id) {
                        return Some(task);
                    }
                    // Raced with another worker; rescan immediately.
                    continue;
                }
                // Declined (HLS leaves these tasks to the other processor).
                // `push` wakes one worker per task; if this one swallowed
                // that wake, a worker who would run the task sleeps on. So
                // hand it on — once per queue version, which is what keeps
                // two decliners from waking each other forever.
                pass_wake_on = declined_at.replace(version) != Some(version);
            }
            if self.is_shutdown() {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let mut guard = self.sleep.lock();
            if self.enqueued.load(Ordering::Acquire) != version {
                continue; // new task arrived while scanning
            }
            // Read under the sleep lock (see `arm_early_cut`).
            let early_cut = self.deadline_at(self.early_cut_at.load(Ordering::Acquire));
            let until = early_cut.map_or(deadline, |at| at.min(deadline));
            if until <= now {
                return None;
            }
            if pass_wake_on {
                // relaxed-ok: a count read by unit tests only.
                self.wakes_passed_on.fetch_add(1, Ordering::Relaxed);
                self.not_empty.notify_one();
            }
            // relaxed-ok: a count read by unit tests only.
            self.parks.fetch_add(1, Ordering::Relaxed);
            self.not_empty
                .wait_for(&mut guard, (until - now).min(PARK_SLICE));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_cpu::plan::CompiledPlan;
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, RowBuffer, Schema};
    use std::time::Instant;

    fn task(id: u64, query_id: usize) -> QueryTask {
        let schema = Schema::from_pairs(&[("ts", DataType::Timestamp)])
            .unwrap()
            .into_ref();
        let q = QueryBuilder::new("q", schema.clone())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        QueryTask {
            id,
            query_id,
            seq: id,
            plan: Arc::new(CompiledPlan::compile(&q).unwrap()),
            batches: vec![saber_cpu::exec::StreamBatch::new(
                RowBuffer::new(schema),
                0,
                0,
            )],
            created: Instant::now(),
            ingest_ack: Instant::now(),
        }
    }

    #[test]
    fn push_and_take_in_fifo_order_across_queries() {
        let q = TaskQueue::with_queries(2);
        q.push(task(1, 0));
        q.push(task(2, 1));
        assert_eq!(q.len(), 2);
        // FCFS: always pop the smallest arrival (index 0 of the sorted heads).
        let t = q.take_with(Duration::from_millis(10), |_| Some(0)).unwrap();
        assert_eq!(t.id, 1);
        let t = q.take_with(Duration::from_millis(10), |_| Some(0)).unwrap();
        assert_eq!(t.id, 2);
        assert_eq!(q.total_dequeued(), 2);
        assert_eq!(q.total_enqueued(), 2);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn heads_expose_per_query_backlog_in_arrival_order() {
        let q = TaskQueue::with_queries(3);
        q.push(task(0, 1));
        q.push(task(1, 1));
        q.push(task(2, 0));
        let mut heads = Vec::new();
        q.snapshot_heads(&mut heads);
        assert_eq!(heads.len(), 2);
        // Query 1 arrived first and has depth 2; query 2 has no tasks.
        assert_eq!(heads[0].query_id, 1);
        assert_eq!(heads[0].depth, 2);
        assert_eq!(heads[1].query_id, 0);
        assert_eq!(heads[1].depth, 1);
        assert_eq!(q.depth(1), 2);
        assert_eq!(q.depth(2), 0);
    }

    #[test]
    fn selector_can_pick_a_non_head_query() {
        let q = TaskQueue::with_queries(2);
        for i in 0..4 {
            q.push(task(i, i as usize % 2));
        }
        // Pick query 1's sub-queue head (arrival order: q0, q1 → index 1).
        let t = q
            .take_with(Duration::from_millis(10), |heads| {
                heads.iter().position(|h| h.query_id == 1)
            })
            .unwrap();
        assert_eq!(t.id, 1);
        assert_eq!(t.query_id, 1);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn empty_queue_times_out_with_none() {
        let q = TaskQueue::with_queries(1);
        let got = q.take_with(Duration::from_millis(5), |_| Some(0));
        assert!(got.is_none());
    }

    #[test]
    fn selector_declining_returns_none_but_keeps_tasks() {
        let q = TaskQueue::with_queries(1);
        q.push(task(7, 0));
        let got = q.take_with(Duration::from_millis(5), |_| None);
        assert!(got.is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn retired_queries_disappear_from_snapshots_and_lookups() {
        let q = TaskQueue::with_queries(3);
        q.push(task(0, 0));
        q.push(task(1, 1));
        q.push(task(2, 1));
        assert_eq!(q.num_queries(), 3);
        // Loss-free path: query 0's backlog was drained by the caller, so
        // retiring returns nothing; the slot index stays reserved.
        assert_eq!(q.try_pop(0).unwrap().id, 0);
        assert!(q.retire_query(0).is_empty());
        assert_eq!(q.num_queries(), 2);
        assert_eq!(q.depth(0), 0);
        assert!(q.try_pop(0).is_none());
        let mut heads = Vec::new();
        q.snapshot_heads(&mut heads);
        assert_eq!(heads.len(), 1);
        assert_eq!(heads[0].query_id, 1);
        // Unclean path: retiring with a backlog hands the orphans back and
        // keeps the global length honest.
        let orphans = q.retire_query(1);
        assert_eq!(orphans.len(), 2);
        assert_eq!(q.len(), 0);
        // A push against a retired slot is rejected (not panicked): the
        // caller owns the task's credit accounting on this unclean path.
        assert!(!q.push(task(8, 0)));
        assert_eq!(q.len(), 0);
        // Ids are never reused: the next registration gets a fresh slot.
        assert_eq!(q.register_query(), 3);
        // Retiring twice (or an unknown id) is a no-op.
        assert!(q.retire_query(1).is_empty());
        assert!(q.retire_query(99).is_empty());
    }

    #[test]
    fn shutdown_wakes_waiters() {
        let q = Arc::new(TaskQueue::with_queries(1));
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.take_with(Duration::from_secs(5), |_| Some(0)));
        std::thread::sleep(Duration::from_millis(20));
        q.signal_shutdown();
        let result = handle.join().unwrap();
        assert!(result.is_none());
        assert!(q.is_shutdown());
    }

    #[test]
    fn waiters_are_woken_by_a_push_not_by_polling() {
        let q = Arc::new(TaskQueue::with_queries(1));
        let q2 = q.clone();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let t = q2.take_with(Duration::from_secs(5), |_| Some(0));
            (t, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        q.push(task(9, 0));
        let (t, elapsed) = handle.join().unwrap();
        assert_eq!(t.unwrap().id, 9);
        // Woken promptly after the push, well before the 5 s timeout.
        assert!(elapsed < Duration::from_secs(1));
    }

    #[test]
    fn a_declined_wake_is_handed_on_once_per_queue_version() {
        let q = TaskQueue::with_queries(1);
        q.push(task(0, 0));
        // Three slices of declining the same queued task: the wake its
        // push spent on this waiter goes to another one, once.
        assert!(q.take_with(3 * PARK_SLICE, |_| None).is_none());
        assert_eq!(q.total_wakes_passed_on(), 1);
        // A new task is a new wake to hand on.
        q.push(task(1, 0));
        assert!(q.take_with(PARK_SLICE, |_| None).is_none());
        assert_eq!(q.total_wakes_passed_on(), 2);
        // A waiter that takes what is queued has nothing to hand on.
        assert_eq!(q.take_with(PARK_SLICE, |_| Some(0)).unwrap().id, 0);
        assert_eq!(q.total_wakes_passed_on(), 2);
    }

    #[test]
    fn an_idle_queue_parks_its_waiter_once_per_slice() {
        // Nothing pending, nothing armed: three slices of waiting are three
        // parks (a spurious condvar wake may add one), not a poll.
        let q = TaskQueue::with_queries(1);
        assert!(q.take_with(3 * PARK_SLICE, |_| Some(0)).is_none());
        assert!((3..=4).contains(&q.total_parks()), "{}", q.total_parks());
        // A deadline armed beyond the horizon does not add wakeups either.
        q.arm_early_cut(Instant::now() + Duration::from_secs(3600));
        assert!(q.take_with(3 * PARK_SLICE, |_| Some(0)).is_none());
        assert!((6..=8).contains(&q.total_parks()), "{}", q.total_parks());
    }

    #[test]
    fn an_earlier_early_cut_deadline_wakes_a_parked_waiter() {
        let q = Arc::new(TaskQueue::with_queries(1));
        let far = Instant::now() + Duration::from_secs(3600);
        q.arm_early_cut(far);
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                let task = q.take_with(Duration::from_secs(60), |_| Some(0));
                (task, started.elapsed())
            })
        };
        while q.total_parks() == 0 {
            std::thread::yield_now();
        }
        // A later deadline than the armed one is not news; an earlier one
        // is, and one already due sends the waiter back empty-handed.
        q.arm_early_cut(far + Duration::from_secs(1));
        q.arm_early_cut(Instant::now());
        let (task, elapsed) = waiter.join().unwrap();
        assert!(task.is_none());
        assert!(elapsed < Duration::from_secs(30), "{elapsed:?}");
        // The deadline stays armed until a worker takes it (and with it the
        // duty to re-arm whatever it leaves pending).
        assert!(q.take_with(Duration::from_secs(60), |_| Some(0)).is_none());
        assert!(q.take_early_cut().is_some_and(|at| at < far));
        assert!(q.take_early_cut().is_none());
    }

    #[test]
    fn concurrent_workers_drain_everything_exactly_once() {
        const TASKS: u64 = 2000;
        let q = Arc::new(TaskQueue::with_queries(4));
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let q = q.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match q.take_with(Duration::from_millis(50), |_| Some(0)) {
                        Some(t) => got.push(t.id),
                        None => {
                            if q.is_shutdown() && q.is_empty() {
                                break;
                            }
                        }
                    }
                }
                got
            }));
        }
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..TASKS {
                    q.push(task(i, (i % 4) as usize));
                }
            })
        };
        producer.join().unwrap();
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.signal_shutdown();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..TASKS).collect::<Vec<u64>>());
        assert_eq!(q.total_dequeued(), TASKS);
    }
}
