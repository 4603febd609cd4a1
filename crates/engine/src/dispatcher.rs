//! The dispatching stage (paper §4.1): buffering incoming data and creating
//! fixed-size query tasks.
//!
//! One dispatcher exists per query, split into two halves so that producers
//! and the task cutter never serialize on each other:
//!
//! * **Ingest front-ends** ([`StreamIngest`], one per input stream) append
//!   incoming bytes to the stream's reservation-based
//!   [`CircularBuffer`](crate::circular) without taking any
//!   lock. Many producer threads may append to the same stream concurrently;
//!   the ring serializes them with a compare-and-swap claim.
//! * **The task cutter** (a small mutex over the per-stream pending cursors
//!   and the task sequence counter) runs when the sum of the pending stream
//!   batch sizes reaches the query task size φ. It copies the pending
//!   regions out of the rings, advances the cursors and releases consumed
//!   bytes. The cutter lock is never held during a producer's buffer copy —
//!   only while cutting, which is the one step that must serialize.
//!
//! φ is the task size under load and a ceiling otherwise: a dispatcher on
//! its own cuts at φ and on [`Dispatcher::flush`] only, but inside an engine
//! an *idle worker* flushes pending rows that have waited [`EARLY_CUT_AGE`]
//! (see `WorkerContext::cut_aged`), so a slow stream's latency is bounded by
//! that age instead of by the time φ bytes take to arrive. The dispatcher's
//! part is to say how old its oldest pending row is
//! ([`Dispatcher::oldest_pending_age`]) and to arm the task queue's
//! early-cut deadline when a row starts waiting.
//!
//! Window computation is *not* performed here — the task only records the
//! absolute tuple index / first timestamp of its batches so the execution
//! stage can derive window boundaries in parallel (deferred window
//! computation). For join queries each batch additionally carries a
//! window-sized lookback prefix so tasks can rebuild the opposite stream's
//! window without cross-task state.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::circular::CircularBuffer;
use crate::queue::TaskQueue;
use crate::task::QueryTask;
use saber_cpu::exec::StreamBatch;
use saber_cpu::plan::CompiledPlan;
use saber_query::WindowSpec;
use saber_types::sync::{Condvar, Mutex};
use saber_types::{Result, RowBuffer, SaberError};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// τ: how long a pending row waits for its task to fill before an idle
/// worker cuts an undersized task for it. The bound on window latency a
/// stream slower than φ per τ pays for batching; streams that fill φ faster,
/// and any stream while its task-queue shard holds a backlog, never see it.
pub const EARLY_CUT_AGE: Duration = Duration::from_millis(4);

/// Lock-free ingest front-end of one input stream.
#[derive(Debug)]
pub struct StreamIngest {
    buffer: CircularBuffer,
    /// Row size in bytes.
    row_size: usize,
    /// Byte offset of the timestamp attribute within a row.
    ts_offset: usize,
    /// Lookback retained before the pending region, in rows (join queries).
    lookback_rows: usize,
    /// Total tuples published on this input (monitoring; `Relaxed`).
    rows_ingested: AtomicU64,
    /// Absolute byte offset of the first *pending* (not yet dispatched)
    /// byte. Written only by the cutter (under the cutter lock), read by
    /// producers when checking the φ threshold.
    pending_from: AtomicU64,
    /// Absolute tuple index of the first pending row (cutter-owned).
    next_row_index: AtomicU64,
    /// Nanoseconds (from the dispatcher anchor, offset by 1 so 0 means
    /// "nothing pending") at which the oldest still-pending byte arrived.
    /// Producers CAS it from 0 after an append; the cutter swaps it back to
    /// 0 when it consumes the pending region, then stamps anew whatever
    /// arrived while it was cutting (`seal_task`). Invariant the early cut
    /// rests on: pending rows never sit without a stamp. Feeds the
    /// `ingest_wait` stage and the workers' early cut.
    first_pending_ns: AtomicU64,
    /// Backs `space_freed`; held only around blocking waits for ring space.
    space: Mutex<()>,
    /// Signalled whenever the cutter releases ring space.
    space_freed: Condvar,
}

impl StreamIngest {
    fn new(
        buffer_capacity: usize,
        row_size: usize,
        ts_offset: usize,
        lookback_rows: usize,
    ) -> Self {
        Self {
            buffer: CircularBuffer::new(buffer_capacity),
            row_size,
            ts_offset,
            lookback_rows,
            rows_ingested: AtomicU64::new(0),
            pending_from: AtomicU64::new(0),
            next_row_index: AtomicU64::new(0),
            first_pending_ns: AtomicU64::new(0),
            space: Mutex::new(()),
            space_freed: Condvar::new(),
        }
    }

    /// Row size of this stream in bytes.
    pub fn row_size(&self) -> usize {
        self.row_size
    }

    /// The stream's circular input buffer.
    pub fn buffer(&self) -> &CircularBuffer {
        &self.buffer
    }

    /// Total tuples published on this input.
    pub fn rows_ingested(&self) -> u64 {
        self.rows_ingested.load(Ordering::Relaxed)
    }

    /// Bytes published but not yet dispatched into a task.
    pub fn pending_bytes(&self) -> u64 {
        let head = self.buffer.head();
        head.saturating_sub(self.pending_from.load(Ordering::Acquire))
    }

    /// Anchor-relative nanoseconds at which the oldest pending row arrived.
    fn first_pending(&self) -> Option<u64> {
        match self.first_pending_ns.load(Ordering::Acquire) {
            0 => None,
            ns => Some(ns - 1),
        }
    }

    /// Appends whole rows, blocking while the ring lacks space. Space frees
    /// up when the cutter consumes pending data, so `on_full` is invoked
    /// before each wait to give the caller a chance to cut tasks itself.
    fn append(&self, bytes: &[u8], mut on_full: impl FnMut() -> Result<()>) -> Result<()> {
        // Cutting can never release the retained lookback, so an append that
        // needs more than `capacity - lookback` would wait forever. Reject it
        // up front instead of hanging.
        let reserved = self.lookback_rows * self.row_size;
        if bytes.len() + reserved > self.buffer.capacity() {
            return Err(SaberError::Buffer(format!(
                "{} bytes cannot fit: the {}-byte input buffer permanently retains {} bytes of \
                 join-window lookback; increase input_buffer_capacity",
                bytes.len(),
                self.buffer.capacity(),
                reserved
            )));
        }
        while !self.buffer.try_insert(bytes)? {
            on_full()?;
            let mut guard = self.space.lock();
            // Re-check under the lock: `release_and_notify` takes the same
            // lock before notifying, so a release between our failed insert
            // and this wait cannot be missed. The bounded wait is defensive.
            if self.buffer.available() < bytes.len() {
                self.space_freed
                    .wait_for(&mut guard, Duration::from_millis(10));
            }
        }
        // relaxed-ok: monitoring counter, read only by rows_ingested() displays
        // and test assertions after producers have joined.
        self.rows_ingested
            .fetch_add((bytes.len() / self.row_size) as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Releases ring bytes below `free` and wakes producers blocked on
    /// space (called by the cutter).
    fn release_and_notify(&self, free: u64) {
        self.buffer.release_until(free);
        drop(self.space.lock());
        self.space_freed.notify_all();
    }

    /// Timestamp of the row starting at absolute byte `at`, read directly
    /// out of the ring.
    #[expect(
        clippy::unwrap_used,
        reason = "read_range(from, from + 8) returns exactly 8 bytes on success, \
                  so the fixed-size array conversion cannot fail"
    )]
    fn timestamp_at(&self, at: u64) -> Result<i64> {
        let from = at + self.ts_offset as u64;
        let bytes = self.buffer.read_range(from, from + 8)?;
        Ok(i64::from_le_bytes(bytes.as_slice().try_into().unwrap()))
    }
}

/// Cutter-owned state (everything the φ-threshold cut must serialize on).
#[derive(Debug)]
struct CutterState {
    next_seq: u64,
}

/// The dispatching stage of one query. Internally synchronized: `&self`
/// methods are safe to call from many producer threads.
#[derive(Debug)]
pub struct Dispatcher {
    plan: Arc<CompiledPlan>,
    query_id: usize,
    task_size: usize,
    streams: Vec<Arc<StreamIngest>>,
    cutter: Mutex<CutterState>,
    global_task_ids: Arc<AtomicU64>,
    /// Reference instant for the `first_pending_ns` offsets.
    anchor: Instant,
    /// Total tasks ever cut, incremented under the cutter lock *during* the
    /// cut. Query removal drains by waiting for the result stage's completed
    /// count to reach this value: because the counter is committed while the
    /// cutter lock is held, a removal that flushes (taking the same lock)
    /// afterwards observes every cut that could still produce a task — even
    /// one cut whose submission into the task queue is still in flight on
    /// another thread.
    tasks_cut: AtomicU64,
    /// The engine's task queue, whose early-cut deadline this dispatcher
    /// arms when a row starts waiting. `None` for a dispatcher used on its
    /// own: nothing then cuts below φ but [`Dispatcher::flush`].
    early_cut: Option<Arc<TaskQueue>>,
}

impl Dispatcher {
    /// Creates the dispatcher for a compiled query.
    pub fn new(
        plan: Arc<CompiledPlan>,
        task_size: usize,
        buffer_capacity: usize,
        global_task_ids: Arc<AtomicU64>,
        // Accepted and ignored: `benchmark/src/layers.rs` still passes five arguments.
        _stage_timestamps: bool,
    ) -> Self {
        let streams = plan
            .input_schemas()
            .iter()
            .zip(plan.windows().iter())
            .map(|(schema, window)| {
                let ts_offset = schema.offset(schema.timestamp_index());
                Arc::new(StreamIngest::new(
                    buffer_capacity,
                    schema.row_size(),
                    ts_offset,
                    lookback_rows(plan.num_inputs(), window),
                ))
            })
            .collect();
        Self {
            query_id: plan.query_id(),
            plan,
            task_size: task_size.max(1),
            streams,
            cutter: Mutex::new(CutterState { next_seq: 0 }),
            global_task_ids,
            anchor: Instant::now(),
            tasks_cut: AtomicU64::new(0),
            early_cut: None,
        }
    }

    /// Makes every first pending row arm `queue`'s early-cut deadline
    /// [`EARLY_CUT_AGE`] ahead, waking a parked worker if need be.
    pub fn arming_early_cuts(mut self, queue: Arc<TaskQueue>) -> Self {
        self.early_cut = Some(queue);
        self
    }

    /// Total tasks ever cut for this query (see the field docs for the
    /// role this plays in loss-free query removal).
    pub fn tasks_cut(&self) -> u64 {
        self.tasks_cut.load(Ordering::SeqCst)
    }

    /// The query this dispatcher feeds.
    pub fn query_id(&self) -> usize {
        self.query_id
    }

    /// The ingest front-end of input `stream`.
    pub fn stream(&self, stream: usize) -> Option<&Arc<StreamIngest>> {
        self.streams.get(stream)
    }

    /// Number of input streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Total rows ingested across all inputs.
    pub fn rows_ingested(&self) -> u64 {
        self.streams.iter().map(|s| s.rows_ingested()).sum()
    }

    /// Bytes currently pending (ingested but not yet dispatched).
    pub fn pending_bytes(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.pending_bytes() as usize)
            .sum()
    }

    /// How long the oldest pending row has waited to be cut into a task;
    /// `None` while no input holds an arrival stamp. The stamp is placed
    /// after the append it covers, so a `Some` may briefly outlive rows
    /// that a concurrent cut already took — callers that act on the age
    /// check [`Dispatcher::pending_bytes`] too.
    pub fn oldest_pending_age(&self) -> Option<Duration> {
        let oldest = self
            .streams
            .iter()
            .filter_map(|s| s.first_pending())
            .min()?;
        Some(
            self.anchor
                .elapsed()
                .saturating_sub(Duration::from_nanos(oldest)),
        )
    }

    /// Ingests `bytes` (whole rows) into input `stream`, returning any query
    /// tasks that became ready. The buffer copy itself is lock-free; only
    /// cutting serializes (on the cutter mutex). Inputs larger than the ring
    /// are appended in half-ring slices with cuts in between, so a single
    /// call may ingest arbitrarily more data than the ring holds — but all
    /// cut tasks are materialized in the returned Vec; callers that need
    /// bounded memory should use [`Dispatcher::ingest_with`].
    pub fn ingest(&self, stream: usize, bytes: &[u8]) -> Result<Vec<QueryTask>> {
        let mut tasks = Vec::new();
        self.ingest_with(stream, bytes, &mut |task| {
            tasks.push(task);
            Ok(())
        })?;
        Ok(tasks)
    }

    /// Like [`Dispatcher::ingest`], but hands each cut task to `sink` as soon
    /// as it is cut. A sink that applies admission control (blocking on queue
    /// credits) therefore bounds the memory of arbitrarily large ingests: at
    /// most one ring's worth of data plus the admitted tasks is resident.
    pub fn ingest_with(
        &self,
        stream: usize,
        bytes: &[u8],
        sink: &mut dyn FnMut(QueryTask) -> Result<()>,
    ) -> Result<()> {
        let input = self
            .streams
            .get(stream)
            .ok_or_else(|| SaberError::Query(format!("query has no input stream {stream}")))?;
        if !bytes.len().is_multiple_of(input.row_size) {
            return Err(SaberError::Buffer(format!(
                "ingested {} bytes is not a multiple of the row size {}",
                bytes.len(),
                input.row_size
            )));
        }
        if bytes.is_empty() {
            return Ok(());
        }

        // Slice inputs so one call can ingest more than the ring holds;
        // half the ring bounds a slice so concurrent producers still fit.
        let half_ring = input.buffer().capacity() / 2;
        let slice_bytes = (half_ring - half_ring % input.row_size).max(input.row_size);
        for chunk in bytes.chunks(slice_bytes) {
            input.append(chunk, || {
                // Ring full: consume pending data ourselves before waiting.
                // If the φ threshold is not reached the ring is full of
                // sub-φ pending data (small ring or heavy lookback), so cut
                // an undersized task — the only way space ever frees up.
                if !self.cut_ready(sink)? {
                    let mut state = self.cutter.lock();
                    if let Some(task) = self.flush_locked(&mut state)? {
                        sink(task)?;
                    }
                }
                Ok(())
            })?;
            // Publish-then-look, against the cutter's clear-then-look in
            // `seal_task`: of a producer that appends while a cut is under
            // way and the cutter that clears the stamp over those rows, at
            // least one sees the other, so the rows end up stamped.
            fence(Ordering::SeqCst);
            self.stamp_pending(input, Instant::now());
            self.cut_ready(sink)?;
        }
        Ok(())
    }

    /// Stamps `input`'s pending rows as waiting since `now` unless an older
    /// stamp already stands for them. Only the first caller after a cut wins
    /// the CAS, and with it the duty to arm the early-cut deadline — once
    /// per task, not per ingest.
    fn stamp_pending(&self, input: &StreamIngest, now: Instant) {
        let ns = (now.saturating_duration_since(self.anchor).as_nanos() as u64).saturating_add(1);
        // pairs-with: first_pending — a worker that reads the stamp also
        // sees the append it was placed after, so the cut it then attempts
        // finds the rows the stamp stands for.
        // relaxed-ok: the failure load is discarded — a stamp already there
        // stands for these rows too.
        let stamped =
            input
                .first_pending_ns
                .compare_exchange(0, ns, Ordering::Release, Ordering::Relaxed);
        if let (Ok(_), Some(queue)) = (stamped, &self.early_cut) {
            queue.arm_early_cut(now + EARLY_CUT_AGE);
        }
    }

    /// Cuts tasks while the φ threshold is met, handing them to `sink`.
    /// Returns whether any task was cut.
    fn cut_ready(&self, sink: &mut dyn FnMut(QueryTask) -> Result<()>) -> Result<bool> {
        if self.pending_bytes() < self.task_size {
            return Ok(false);
        }
        let mut state = self.cutter.lock();
        let mut cut_any = false;
        while self.pending_bytes() >= self.task_size {
            let task = self.cut_task(&mut state)?;
            sink(task)?;
            cut_any = true;
        }
        Ok(cut_any)
    }

    /// Flushes any remaining pending data into a (possibly undersized) task.
    /// Returns `None` if nothing is pending.
    pub fn flush(&self) -> Result<Option<QueryTask>> {
        self.flush_locked(&mut self.cutter.lock())
    }

    /// [`Dispatcher::flush`] for a caller that must not wait: returns `None`
    /// when another thread holds the cutter lock, too. The cutter runs the
    /// task sink inline, so a producer can sit on that lock for as long as
    /// backpressure lasts — waiting for credits only workers return. A
    /// worker therefore never blocks here (and whoever holds the lock is
    /// cutting these rows anyway, or has a backlog that puts φ in charge).
    pub fn try_flush(&self) -> Result<Option<QueryTask>> {
        match self.cutter.try_lock() {
            Some(mut state) => self.flush_locked(&mut state),
            None => Ok(None),
        }
    }

    fn flush_locked(&self, state: &mut CutterState) -> Result<Option<QueryTask>> {
        if self.pending_bytes() == 0 {
            return Ok(None);
        }
        self.cut_task(state).map(Some)
    }

    /// Cuts one query task from the pending regions of all inputs. Must be
    /// called with the cutter lock held.
    fn cut_task(&self, state: &mut CutterState) -> Result<QueryTask> {
        let batches = self.take_pending()?;
        Ok(self.seal_task(state, batches))
    }

    /// First half of a cut: copies every input's pending region (up to a
    /// snapshot of its publish pointer) out of the ring and advances the
    /// cursors past it. Cutter lock held.
    fn take_pending(&self) -> Result<Vec<StreamBatch>> {
        let mut batches = Vec::with_capacity(self.streams.len());
        let schemas = self.plan.input_schemas();
        for (idx, input) in self.streams.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "`streams` is built in `new` by zipping input_schemas, \
                          so idx < schemas.len() always holds"
            )]
            let schema = &schemas[idx];
            let pending_from = input.pending_from.load(Ordering::Acquire);
            // Snapshot the publish pointer: everything below it is complete
            // and immutable until released.
            let to = input.buffer.head();
            let pending_bytes = (to - pending_from) as usize;
            // Include lookback context before the pending region if retained.
            let lookback_bytes = (input.lookback_rows * input.row_size) as u64;
            let from = pending_from
                .saturating_sub(lookback_bytes)
                .max(input.buffer.tail());
            let lookback_actual_rows = ((pending_from - from) / input.row_size as u64) as usize;
            let start_timestamp = if pending_bytes > 0 {
                input.timestamp_at(pending_from)?
            } else if to > from {
                input.timestamp_at(from)?
            } else {
                0
            };
            let bytes = input.buffer.read_range(from, to)?;
            let rows = RowBuffer::from_bytes(schema.clone(), bytes)?;
            let batch = StreamBatch::with_lookback(
                rows,
                input.next_row_index.load(Ordering::Acquire),
                start_timestamp,
                lookback_actual_rows,
            );
            // Advance the pending region and release data that is no longer
            // needed (everything before the new lookback horizon).
            input
                .next_row_index
                .fetch_add((pending_bytes / input.row_size) as u64, Ordering::AcqRel);
            // pairs-with: pending_bytes — producers Acquire-load the cursor
            // when checking the φ threshold (and cut_task re-reads it under
            // the cutter lock at the start of the next cut).
            input.pending_from.store(to, Ordering::Release);
            let new_lookback_start = to.saturating_sub(lookback_bytes);
            input.release_and_notify(new_lookback_start);
            batches.push(batch);
        }
        Ok(batches)
    }

    /// Second half of a cut: numbers the task, commits it to `tasks_cut`
    /// and hands the arrival stamps over to the next task. Cutter lock held.
    fn seal_task(&self, state: &mut CutterState, batches: Vec<StreamBatch>) -> QueryTask {
        // relaxed-ok: engine-wide task-id allocation only needs uniqueness,
        // which the atomic RMW provides at any ordering.
        let id = self.global_task_ids.fetch_add(1, Ordering::Relaxed);
        let seq = state.next_seq;
        state.next_seq += 1;
        self.tasks_cut.fetch_add(1, Ordering::SeqCst);
        let created = Instant::now();
        // Oldest acknowledged-but-undispatched instant across inputs; the
        // swap re-arms each stream's stamp for the next task.
        let ingest_ack = self
            .streams
            .iter()
            .filter_map(|input| {
                // relaxed-ok: monitoring timestamp consumed under the
                // cutter lock; see first_pending_ns.
                match input.first_pending_ns.swap(0, Ordering::Relaxed) {
                    0 => None,
                    ns => Some(ns - 1),
                }
            })
            .min()
            .map(|ns| self.anchor + Duration::from_nanos(ns))
            .unwrap_or(created);
        // A producer that appended after `take_pending` snapshotted its
        // stream's head found the old stamp still in place, so it stamped
        // and armed nothing — and the swap above has just cleared the stamp
        // over its rows. They open the next task: their wait starts here.
        // Clear-then-look, against the producer's publish-then-look in
        // `ingest_with`; without the pair such rows could sit unstamped,
        // which no worker would ever act on.
        fence(Ordering::SeqCst);
        for input in &self.streams {
            if input.pending_bytes() > 0 {
                self.stamp_pending(input, created);
            }
        }
        QueryTask {
            id,
            query_id: self.query_id,
            seq,
            plan: self.plan.clone(),
            batches,
            created,
            ingest_ack,
        }
    }
}

/// Number of lookback rows retained per input: join queries keep one window
/// of context, single-input queries none (their window state is handled by
/// pane-partial assembly in the result stage).
fn lookback_rows(num_inputs: usize, window: &WindowSpec) -> usize {
    if num_inputs < 2 {
        0
    } else if window.is_count_based() {
        window.size().min(64 * 1024) as usize
    } else {
        // Time-based join windows: retain a generous fixed number of rows
        // (the workloads' time-joins use small windows).
        4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, Schema, Value};

    fn schema() -> saber_types::schema::SchemaRef {
        // 16-byte rows so the byte arithmetic in the tests stays simple.
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("v", DataType::Float),
            ("k", DataType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    fn rows(n: usize, start: i64) -> Vec<u8> {
        let mut buf = RowBuffer::new(schema());
        for i in 0..n {
            buf.push_values(&[
                Value::Timestamp(start + i as i64),
                Value::Float(i as f32),
                Value::Int(i as i32),
            ])
            .unwrap();
        }
        buf.into_bytes()
    }

    fn dispatcher(task_size: usize) -> Dispatcher {
        let q = QueryBuilder::new("sel", schema())
            .count_window(64, 64)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = Arc::new(CompiledPlan::compile(&q).unwrap());
        Dispatcher::new(plan, task_size, 1 << 20, Arc::new(AtomicU64::new(0)), true)
    }

    #[test]
    fn tasks_are_cut_at_the_task_size() {
        // Task size of 64 rows (16 bytes each = 1024 bytes).
        let d = dispatcher(1024);
        // 50 rows: not enough for a task yet.
        assert!(d.ingest(0, &rows(50, 0)).unwrap().is_empty());
        assert_eq!(d.pending_bytes(), 50 * 16);
        // 100 more rows: the dispatcher cuts as soon as pending >= φ, taking
        // the entire pending region at that moment.
        let tasks = d.ingest(0, &rows(100, 50)).unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].rows(), 150);
        assert_eq!(tasks[0].batches[0].start_index, 0);
        assert_eq!(d.pending_bytes(), 0);
        assert_eq!(d.rows_ingested(), 150);
    }

    #[test]
    fn consecutive_tasks_have_increasing_positions_and_ids() {
        let d = dispatcher(16 * 16); // 16 rows per task
        let mut all = Vec::new();
        for chunk in 0..8 {
            all.extend(d.ingest(0, &rows(16, chunk * 16)).unwrap());
        }
        assert_eq!(all.len(), 8);
        for (i, t) in all.iter().enumerate() {
            assert_eq!(t.seq, i as u64);
            assert_eq!(t.batches[0].start_index, i as u64 * 16);
            assert_eq!(t.batches[0].start_timestamp, i as i64 * 16);
        }
    }

    #[test]
    fn ingest_rejects_partial_rows_and_unknown_streams() {
        let d = dispatcher(1024);
        assert!(d.ingest(0, &[0u8; 7]).is_err());
        assert!(d.ingest(3, &rows(1, 0)).is_err());
        assert!(d.ingest(0, &[]).unwrap().is_empty());
    }

    #[test]
    fn flush_emits_the_remaining_partial_task() {
        let d = dispatcher(1 << 20);
        d.ingest(0, &rows(10, 0)).unwrap();
        let t = d.flush().unwrap().unwrap();
        assert_eq!(t.rows(), 10);
        assert!(d.flush().unwrap().is_none());
    }

    #[test]
    fn first_pending_row_arms_the_early_cut_once_per_task() {
        let queue = Arc::new(TaskQueue::with_queries(1));
        let d = dispatcher(1 << 20).arming_early_cuts(queue.clone());
        assert!(d.oldest_pending_age().is_none());
        let before = Instant::now();
        d.ingest(0, &rows(10, 0)).unwrap();
        let age = d.oldest_pending_age().unwrap();
        assert!(age <= before.elapsed());
        let armed = queue.take_early_cut().unwrap();
        assert!(armed >= before + EARLY_CUT_AGE);
        // Rows joining a stamped task neither re-stamp nor re-arm.
        d.ingest(0, &rows(10, 10)).unwrap();
        assert!(d.oldest_pending_age().unwrap() >= age);
        assert!(queue.take_early_cut().is_none());
        // The cut clears the stamp; the next row starts a new wait.
        assert_eq!(d.flush().unwrap().unwrap().rows(), 20);
        assert!(d.oldest_pending_age().is_none());
        d.ingest(0, &rows(1, 20)).unwrap();
        assert!(queue.take_early_cut().is_some());
    }

    #[test]
    fn rows_appended_during_a_cut_are_stamped_for_the_next_task() {
        let queue = Arc::new(TaskQueue::with_queries(1));
        let d = dispatcher(1 << 20).arming_early_cuts(queue.clone());
        d.ingest(0, &rows(10, 0)).unwrap();
        assert!(queue.take_early_cut().is_some());
        // A cut snapshots the head and copies the ten rows out...
        let mut state = d.cutter.lock();
        let batches = d.take_pending().unwrap();
        // ...while a producer appends four more. The first task's stamp is
        // still in place, so the producer neither stamps nor arms...
        assert!(d.ingest(0, &rows(4, 10)).unwrap().is_empty());
        assert!(queue.take_early_cut().is_none());
        // ...and the cut, clearing that stamp, must not leave the four
        // without one: nothing but an explicit flush would ever cut them.
        let task = d.seal_task(&mut state, batches);
        drop(state);
        assert_eq!(task.rows(), 10);
        assert_eq!(d.pending_bytes(), 4 * 16);
        assert!(d.oldest_pending_age().is_some());
        assert!(queue.take_early_cut().is_some());
        assert_eq!(d.try_flush().unwrap().unwrap().rows(), 4);
        assert!(d.oldest_pending_age().is_none());
    }

    #[test]
    fn try_flush_never_waits_behind_a_producer_stuck_in_its_sink() {
        // The cutter runs the sink inline: a producer waiting for a credit
        // holds the cutter lock meanwhile. A worker that blocked on it —
        // holding the credit that producer waits for — would deadlock.
        let d = Arc::new(dispatcher(64 * 16));
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let producer = {
            let d = d.clone();
            std::thread::spawn(move || {
                d.ingest_with(0, &rows(64, 0), &mut |_task| {
                    entered_tx.send(()).unwrap();
                    released.recv().unwrap();
                    Ok(())
                })
            })
        };
        entered.recv().unwrap();
        // Sub-φ rows arrive meanwhile (no cut, so no lock needed)...
        assert!(d.ingest(0, &rows(10, 64)).unwrap().is_empty());
        // ...and the non-blocking flush gives up rather than wait.
        assert!(d.try_flush().unwrap().is_none());
        release.send(()).unwrap();
        producer.join().unwrap().unwrap();
        assert_eq!(d.try_flush().unwrap().unwrap().rows(), 10);
    }

    #[test]
    fn ingest_larger_than_the_ring_is_sliced_into_tasks() {
        // Ring of 16 KB (1024 rows), one big 4096-row ingest: the dispatcher
        // must slice the input and cut tasks in between to stay in bounds.
        let q = QueryBuilder::new("sel", schema())
            .count_window(64, 64)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = Arc::new(CompiledPlan::compile(&q).unwrap());
        let d = Dispatcher::new(plan, 256 * 16, 16 * 1024, Arc::new(AtomicU64::new(0)), true);
        let tasks = d.ingest(0, &rows(4096, 0)).unwrap();
        let total: usize = tasks.iter().map(|t| t.rows()).sum();
        assert_eq!(total, 4096);
        // Half-ring slices of 512 rows, each cut as one ≥φ task.
        assert_eq!(tasks.len(), 8);
        // Tasks tile the input without gaps or overlaps.
        let mut next = 0u64;
        for t in &tasks {
            assert_eq!(t.batches[0].start_index, next);
            next += t.batches[0].new_rows() as u64;
        }
    }

    #[test]
    fn join_dispatcher_cuts_tasks_with_lookback() {
        let q = QueryBuilder::new("join", schema())
            .count_window(8, 8)
            .theta_join(
                schema(),
                saber_query::WindowSpec::count(8, 8),
                Expr::column(1).eq(Expr::column(3 + 1)),
            )
            .build()
            .unwrap();
        let plan = Arc::new(CompiledPlan::compile(&q).unwrap());
        let d = Dispatcher::new(plan, 32 * 16, 1 << 20, Arc::new(AtomicU64::new(0)), true);
        // Fill both inputs; a task is cut when the *sum* of pending bytes
        // reaches φ (here 32 rows total).
        let t1 = d.ingest(0, &rows(16, 0)).unwrap();
        assert!(t1.is_empty());
        let t2 = d.ingest(1, &rows(16, 0)).unwrap();
        assert_eq!(t2.len(), 1);
        assert_eq!(t2[0].batches.len(), 2);
        assert_eq!(t2[0].batches[0].lookback_rows, 0);

        // The second round of tasks must carry lookback rows from the first.
        d.ingest(0, &rows(16, 16)).unwrap();
        let t3 = d.ingest(1, &rows(16, 16)).unwrap();
        assert_eq!(t3.len(), 1);
        assert!(t3[0].batches[0].lookback_rows > 0);
        assert_eq!(t3[0].batches[0].start_index, 16);
        // New rows exclude the lookback prefix.
        assert_eq!(t3[0].batches[0].new_rows(), 16);
    }

    #[test]
    fn lookback_exceeding_the_ring_is_an_error_not_a_hang() {
        // An 8192-row join lookback (128 KB) against a 4 KB ring: cutting
        // can never free enough space, so ingest must fail fast.
        let q = QueryBuilder::new("join", schema())
            .count_window(8192, 8192)
            .theta_join(
                schema(),
                saber_query::WindowSpec::count(8192, 8192),
                Expr::column(1).eq(Expr::column(3 + 1)),
            )
            .build()
            .unwrap();
        let plan = Arc::new(CompiledPlan::compile(&q).unwrap());
        let d = Dispatcher::new(plan, 1 << 20, 4096, Arc::new(AtomicU64::new(0)), true);
        let err = d.ingest(0, &rows(256, 0)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("lookback"), "unexpected error: {msg}");
    }

    #[test]
    fn lookback_survives_ring_wraparound() {
        // A small ring forces many wraparounds; lookback rows must always be
        // retained and resident when the next task is cut.
        let q = QueryBuilder::new("join", schema())
            .count_window(8, 8)
            .theta_join(
                schema(),
                saber_query::WindowSpec::count(8, 8),
                Expr::column(1).eq(Expr::column(3 + 1)),
            )
            .build()
            .unwrap();
        let plan = Arc::new(CompiledPlan::compile(&q).unwrap());
        let d = Dispatcher::new(plan, 32 * 16, 1024, Arc::new(AtomicU64::new(0)), true);
        let mut tasks = Vec::new();
        for round in 0..64 {
            tasks.extend(d.ingest(0, &rows(16, round * 16)).unwrap());
            tasks.extend(d.ingest(1, &rows(16, round * 16)).unwrap());
        }
        assert_eq!(tasks.len(), 64);
        for (i, t) in tasks.iter().enumerate().skip(1) {
            assert_eq!(t.batches[0].lookback_rows, 8, "task {i}");
            assert_eq!(t.batches[0].start_index, i as u64 * 16);
        }
    }

    /// The tentpole invariant: concurrent producers on the same stream never
    /// lose, duplicate or tear a row, and the cut tasks tile the input.
    #[test]
    fn concurrent_ingest_and_cut_preserves_every_row() {
        const PRODUCERS: usize = 4;
        const ROWS_PER_PRODUCER: usize = 8000;
        let d = Arc::new(dispatcher(128 * 16));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                let mut tasks = Vec::new();
                // Each producer stamps rows with a disjoint timestamp range.
                let base = (p * 10_000_000) as i64;
                for chunk in 0..(ROWS_PER_PRODUCER / 100) {
                    tasks.extend(d.ingest(0, &rows(100, base + chunk as i64 * 100)).unwrap());
                }
                tasks
            }));
        }
        let mut tasks: Vec<QueryTask> = Vec::new();
        for h in handles {
            tasks.extend(h.join().unwrap());
        }
        tasks.extend(d.flush().unwrap());

        let total = PRODUCERS * ROWS_PER_PRODUCER;
        assert_eq!(d.rows_ingested() as usize, total);
        assert_eq!(tasks.iter().map(|t| t.rows()).sum::<usize>(), total);

        // Tasks tile [0, total) by start index without gaps or overlaps.
        tasks.sort_by_key(|t| t.batches[0].start_index);
        let mut next = 0u64;
        for t in &tasks {
            assert_eq!(t.batches[0].start_index, next);
            next += t.batches[0].new_rows() as u64;
        }
        assert_eq!(next, total as u64);

        // Every row arrived exactly once with its payload intact.
        let mut timestamps: Vec<i64> = tasks
            .iter()
            .flat_map(|t| {
                let b = &t.batches[0];
                (b.lookback_rows..b.rows.len()).map(|i| b.rows.row(i).timestamp())
            })
            .collect();
        timestamps.sort_unstable();
        let mut expected: Vec<i64> = (0..PRODUCERS)
            .flat_map(|p| (0..ROWS_PER_PRODUCER).map(move |i| (p * 10_000_000) as i64 + i as i64))
            .collect();
        expected.sort_unstable();
        assert_eq!(timestamps, expected);
    }
}
