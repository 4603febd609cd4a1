//! Output streams.
//!
//! Each query has a [`QuerySink`]: the ordered output data stream constructed
//! by the result stage. Applications can drain the emitted rows or just
//! observe the counters (the benchmark harness measures throughput without
//! retaining output).
//!
//! Consumption is **push-based**: instead of polling
//! [`QuerySink::take_rows`] in a loop, a consumer either blocks on
//! [`QuerySink::wait_for_window`] (a condvar, signalled exactly when the
//! result stage appends newly closed windows) or registers a
//! [`QuerySink::subscribe`] callback that is invoked with every appended
//! batch on the worker thread that released it. When the query is removed
//! or the engine stops, the sink is [closed](QuerySink::is_closed): waiters
//! wake with [`WindowWait::Closed`] once the buffered rows are drained, so
//! no consumer is left blocking on a stream that will never produce again.

use saber_types::schema::SchemaRef;
use saber_types::sync::{Condvar, Mutex};
use saber_types::RowBuffer;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one [`QuerySink::wait_for_window`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowWait {
    /// New result rows are available ([`QuerySink::take_rows`] will return
    /// data for retaining sinks; for counting sinks, an append happened
    /// since the wait began).
    Ready,
    /// The sink was closed (query removed or engine stopped) and no
    /// unconsumed rows remain: no further windows will ever arrive.
    Closed,
    /// The timeout elapsed with no new windows.
    TimedOut,
}

/// A push subscription callback: invoked with each appended result batch.
type WindowCallback = Box<dyn Fn(&RowBuffer) + Send + Sync>;

#[derive(Default)]
struct Callbacks {
    entries: Vec<(u64, WindowCallback)>,
}

impl std::fmt::Debug for Callbacks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Callbacks({})", self.entries.len())
    }
}

#[derive(Debug, Default)]
struct Appends {
    generation: u64,
    waiters: usize,
}

#[derive(Debug)]
struct SinkInner {
    schema: SchemaRef,
    /// Buffered output rows (only kept while `retain` is true).
    rows: Mutex<RowBuffer>,
    /// Whether appends buffer rows. Atomic so a push-only consumer can stop
    /// buffering without dropping what was buffered before (see
    /// [`QuerySink::stop_retaining`]).
    retain: AtomicBool,
    tuples: AtomicU64,
    bytes: AtomicU64,
    /// Mirror of the buffered row count, readable without the rows lock
    /// (lets `wait_for_window` test readiness without nesting locks).
    buffered: AtomicUsize,
    /// Set once: no further windows will be appended.
    closed: AtomicBool,
    /// Append generation counter and the number of parked
    /// `wait_for_window` callers; the mutex backs `appended` so wakeups
    /// cannot be lost between a waiter's readiness check and its wait.
    appends: Mutex<Appends>,
    appended: Condvar,
    callbacks: Mutex<Callbacks>,
    next_subscription: AtomicU64,
}

/// Handle to a query's output stream.
#[derive(Debug, Clone)]
pub struct QuerySink {
    inner: Arc<SinkInner>,
}

impl QuerySink {
    /// Creates a sink for rows of `schema`. When `retain` is false only the
    /// counters are maintained (benchmarks over long streams).
    pub fn new(schema: SchemaRef, retain: bool) -> Self {
        Self {
            inner: Arc::new(SinkInner {
                rows: Mutex::new(RowBuffer::new(schema.clone())),
                schema,
                retain: AtomicBool::new(retain),
                tuples: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                buffered: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
                appends: Mutex::new(Appends::default()),
                appended: Condvar::new(),
                callbacks: Mutex::new(Callbacks::default()),
                next_subscription: AtomicU64::new(0),
            }),
        }
    }

    /// The output schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.inner.schema
    }

    /// Appends output rows (called by the result stage), then notifies
    /// blocked [`QuerySink::wait_for_window`] callers and invokes every
    /// subscribed callback with the batch, under the contract documented
    /// on [`QuerySink::subscribe`].
    pub fn append(&self, rows: &RowBuffer) {
        // relaxed-ok: monitoring counter, read only for stats display.
        self.inner
            .tuples
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        // relaxed-ok: monitoring counter, read only for stats display.
        self.inner
            .bytes
            .fetch_add(rows.byte_len() as u64, Ordering::Relaxed);
        if rows.is_empty() {
            return;
        }
        if self.inner.retain.load(Ordering::Acquire) {
            let mut buf = self.inner.rows.lock();
            // Re-checked under the lock `stop_retaining` switches under, so
            // no batch is buffered after the switch.
            if self.inner.retain.load(Ordering::Acquire) {
                let _ = buf.extend_from_bytes(rows.bytes());
                // pairs-with: wait_for_window — waiters Acquire-load the
                // count lock-free before parking (buffered_rows() reads it
                // the same way for display).
                self.inner.buffered.store(buf.len(), Ordering::Release);
            }
        }
        let waiters = {
            // Taking the lock (even briefly) orders this append against any
            // waiter that checked readiness and is about to park.
            let mut appends = self.inner.appends.lock();
            appends.generation += 1;
            appends.waiters
        };
        // A futex wake is a syscall even with nobody waiting; a shared plan
        // appends to every member's sink per window batch.
        if waiters > 0 {
            self.inner.appended.notify_all();
        }
        // Callbacks run on the appending (worker) thread under this lock
        // (see `subscribe` for what they may do).
        let callbacks = self.inner.callbacks.lock();
        for (_, callback) in &callbacks.entries {
            callback(rows);
        }
    }

    /// Blocks until new result windows are available, the sink is closed, or
    /// `timeout` elapses.
    ///
    /// For retaining sinks "available" means [`QuerySink::take_rows`] would
    /// return buffered rows (including rows appended *before* the call, so a
    /// consumer can never sleep through data it has not drained). For
    /// counting sinks it means an append happened after the wait began.
    /// [`WindowWait::Closed`] is only returned once no unconsumed rows
    /// remain, so a drain loop of `wait_for_window` + `take_rows` always
    /// observes the final windows before the close.
    pub fn wait_for_window(&self, timeout: Duration) -> WindowWait {
        // `Duration::MAX`-style timeouts overflow `Instant` arithmetic;
        // treat them as "no deadline" instead of panicking.
        let deadline = Instant::now().checked_add(timeout);
        let mut appends = self.inner.appends.lock();
        let entered_at = appends.generation;
        loop {
            if self.inner.buffered.load(Ordering::Acquire) > 0 || appends.generation != entered_at {
                return WindowWait::Ready;
            }
            if self.inner.closed.load(Ordering::SeqCst) {
                return WindowWait::Closed;
            }
            match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return WindowWait::TimedOut;
                    }
                    appends.waiters += 1;
                    self.inner.appended.wait_for(&mut appends, deadline - now);
                    appends.waiters -= 1;
                }
                None => {
                    appends.waiters += 1;
                    self.inner.appended.wait(&mut appends);
                    appends.waiters -= 1;
                }
            }
        }
    }

    /// Registers a push callback invoked (on the releasing worker thread)
    /// with every batch of result rows appended from now on. Returns a
    /// subscription id for [`QuerySink::unsubscribe`].
    ///
    /// Callbacks run on the worker that releases the batch, under the
    /// result stage's reorder lock, its plan's member-list lock and this
    /// sink's callback lock, so the plan's next window waits for them. They may encode the batch and
    /// enqueue it without blocking (the network server formats each batch
    /// once per encoding and appends it to its subscribers' outboxes). They
    /// must not block, must not take a lock declared above `sink-callbacks`
    /// in `crates/lint/lock-order.toml`, and must not call back into this
    /// sink's subscribe/unsubscribe.
    pub fn subscribe(&self, callback: impl Fn(&RowBuffer) + Send + Sync + 'static) -> u64 {
        // relaxed-ok: subscription-id allocation only needs uniqueness,
        // which the atomic RMW provides at any ordering.
        let id = self.inner.next_subscription.fetch_add(1, Ordering::Relaxed);
        self.inner
            .callbacks
            .lock()
            .entries
            .push((id, Box::new(callback)));
        id
    }

    /// Removes a subscription. Returns false if the id was unknown (already
    /// removed).
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut callbacks = self.inner.callbacks.lock();
        let before = callbacks.entries.len();
        callbacks.entries.retain(|(cid, _)| *cid != id);
        callbacks.entries.len() != before
    }

    /// Number of registered push subscriptions.
    pub fn subscriptions(&self) -> usize {
        self.inner.callbacks.lock().entries.len()
    }

    /// Marks the sink closed (no further windows will arrive) and wakes all
    /// [`QuerySink::wait_for_window`] callers. Called by the engine when the
    /// query is removed or the engine stops; buffered rows stay drainable.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        drop(self.inner.appends.lock());
        self.inner.appended.notify_all();
    }

    /// Stops buffering future appends without discarding rows already
    /// buffered (they stay drainable via [`QuerySink::take_rows`]); counters,
    /// waiters and subscribed callbacks see every append as before. A
    /// consumer that reads results only through [`QuerySink::subscribe`]
    /// (the network server's query slots) calls it, then drains what was
    /// already buffered with one [`QuerySink::take_rows`]: no batch appended
    /// after this returns is buffered.
    pub fn stop_retaining(&self) {
        let _rows = self.inner.rows.lock();
        // pairs-with: append — workers Acquire-load the flag before taking
        // the row lock and again under it, so a batch either lands before
        // the caller's drain or is not buffered at all.
        self.inner.retain.store(false, Ordering::Release);
    }

    /// True once the sink is closed: every window this query will ever emit
    /// has been appended.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Number of rows currently buffered (0 for counting sinks).
    pub fn buffered_rows(&self) -> usize {
        self.inner.buffered.load(Ordering::Acquire)
    }

    /// Total tuples emitted to this sink.
    pub fn tuples_emitted(&self) -> u64 {
        self.inner.tuples.load(Ordering::Relaxed)
    }

    /// Total bytes emitted to this sink.
    pub fn bytes_emitted(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Takes the buffered output rows (empties the sink buffer).
    pub fn take_rows(&self) -> RowBuffer {
        let mut buf = self.inner.rows.lock();
        // pairs-with: wait_for_window — the count must be cleared before the
        // buffer is emptied so waiters never see stale readiness.
        self.inner.buffered.store(0, Ordering::Release);
        let schema = self.inner.schema.clone();
        std::mem::replace(&mut *buf, RowBuffer::new(schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_types::{DataType, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::from_pairs(&[("ts", DataType::Timestamp), ("v", DataType::Int)])
            .unwrap()
            .into_ref()
    }

    fn rows(n: usize) -> RowBuffer {
        let mut b = RowBuffer::new(schema());
        for i in 0..n {
            b.push_values(&[Value::Timestamp(i as i64), Value::Int(i as i32)])
                .unwrap();
        }
        b
    }

    #[test]
    fn retaining_sink_buffers_rows_and_counts() {
        let sink = QuerySink::new(schema(), true);
        sink.append(&rows(3));
        sink.append(&rows(2));
        assert_eq!(sink.tuples_emitted(), 5);
        assert_eq!(sink.bytes_emitted(), 5 * 12);
        assert_eq!(sink.buffered_rows(), 5);
        let drained = sink.take_rows();
        assert_eq!(drained.len(), 5);
        assert_eq!(sink.take_rows().len(), 0);
        assert_eq!(sink.buffered_rows(), 0);
        // Counters are cumulative, not reset by draining.
        assert_eq!(sink.tuples_emitted(), 5);
    }

    #[test]
    fn counting_sink_does_not_retain_rows() {
        let sink = QuerySink::new(schema(), false);
        sink.append(&rows(10));
        assert_eq!(sink.tuples_emitted(), 10);
        assert_eq!(sink.take_rows().len(), 0);
        assert_eq!(sink.buffered_rows(), 0);
    }

    #[test]
    fn a_sink_that_stops_retaining_keeps_what_it_buffered_and_nothing_more() {
        let sink = QuerySink::new(schema(), true);
        sink.append(&rows(2));
        sink.stop_retaining();
        sink.append(&rows(3));
        assert_eq!(sink.tuples_emitted(), 5);
        assert_eq!(sink.take_rows().len(), 2);
        sink.append(&rows(1));
        assert_eq!(sink.buffered_rows(), 0);
    }

    #[test]
    fn clones_share_state() {
        let sink = QuerySink::new(schema(), true);
        let clone = sink.clone();
        clone.append(&rows(1));
        assert_eq!(sink.tuples_emitted(), 1);
    }

    #[test]
    fn wait_returns_ready_for_rows_buffered_before_the_call() {
        let sink = QuerySink::new(schema(), true);
        sink.append(&rows(2));
        // Data already buffered: no blocking at all.
        assert_eq!(sink.wait_for_window(Duration::ZERO), WindowWait::Ready);
        sink.take_rows();
        assert_eq!(
            sink.wait_for_window(Duration::from_millis(5)),
            WindowWait::TimedOut
        );
    }

    #[test]
    fn wait_is_woken_by_an_append_not_by_polling() {
        let sink = QuerySink::new(schema(), true);
        let waiter = {
            let sink = sink.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                let outcome = sink.wait_for_window(Duration::from_secs(10));
                (outcome, started.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        sink.append(&rows(1));
        let (outcome, elapsed) = waiter.join().unwrap();
        assert_eq!(outcome, WindowWait::Ready);
        assert!(elapsed < Duration::from_secs(5), "woken promptly");
    }

    #[test]
    fn unbounded_timeouts_block_until_an_event_instead_of_panicking() {
        let sink = QuerySink::new(schema(), true);
        let waiter = {
            let sink = sink.clone();
            // Duration::MAX is the idiomatic "wait until closed".
            std::thread::spawn(move || sink.wait_for_window(Duration::MAX))
        };
        std::thread::sleep(Duration::from_millis(20));
        sink.close();
        assert_eq!(waiter.join().unwrap(), WindowWait::Closed);
    }

    #[test]
    fn counting_sinks_wake_on_the_next_append() {
        let sink = QuerySink::new(schema(), false);
        sink.append(&rows(1)); // before the wait: not observable
        let waiter = {
            let sink = sink.clone();
            std::thread::spawn(move || sink.wait_for_window(Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        sink.append(&rows(1));
        assert_eq!(waiter.join().unwrap(), WindowWait::Ready);
    }

    #[test]
    fn close_wakes_waiters_and_ready_takes_precedence_over_closed() {
        let sink = QuerySink::new(schema(), true);
        let waiter = {
            let sink = sink.clone();
            std::thread::spawn(move || sink.wait_for_window(Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        sink.close();
        assert_eq!(waiter.join().unwrap(), WindowWait::Closed);
        assert!(sink.is_closed());

        // A closed sink with undrained rows reports Ready until drained, so
        // final windows are never lost to the close signal.
        let sink = QuerySink::new(schema(), true);
        sink.append(&rows(2));
        sink.close();
        assert_eq!(sink.wait_for_window(Duration::ZERO), WindowWait::Ready);
        assert_eq!(sink.take_rows().len(), 2);
        assert_eq!(sink.wait_for_window(Duration::ZERO), WindowWait::Closed);
    }

    #[test]
    fn subscriptions_push_every_batch_until_unsubscribed() {
        let sink = QuerySink::new(schema(), false);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let id = sink.subscribe(move |batch| {
            seen2.fetch_add(batch.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(sink.subscriptions(), 1);
        sink.append(&rows(3));
        sink.append(&rows(2));
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        assert!(sink.unsubscribe(id));
        assert!(!sink.unsubscribe(id));
        sink.append(&rows(4));
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        assert_eq!(sink.subscriptions(), 0);
    }
}
