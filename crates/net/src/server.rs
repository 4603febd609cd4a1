//! The readiness-based server core: one epoll event loop driving every
//! connection's state machine, plus a small dispatch pool that runs the
//! application's (possibly blocking) command handlers off the loop thread.
//!
//! ## Threading model
//!
//! * **The event loop** (`saber-net-loop`) owns every socket. It accepts,
//!   reads, detects the protocol mode (text lines vs. the binary frame
//!   protocol, see [`crate::wire`]), decodes complete requests, enforces
//!   authentication and per-client quotas, and performs all writes —
//!   partial-write aware, re-arming `EPOLLOUT` only while bytes are
//!   pending. It never calls into the application except for the
//!   lock-free-to-net callbacks `on_connect` / `on_disconnect`.
//! * **Dispatch workers** (`saber-net-dispatch-*`) pull decoded requests
//!   and run [`App::on_request`]. Handlers may block (the engine's credit
//!   gate does, under backpressure) without stalling the loop: only the
//!   requests of *other connections hashed to the same busy worker queue*
//!   wait, and per-connection quotas bound how much work one client can
//!   have in flight. Requests of one connection are processed strictly in
//!   order.
//! * **Any thread** may push bytes to a connection through its
//!   [`ConnHandle`] (engine workers do, delivering query results from a
//!   sink callback): the bytes land in the
//!   connection's outbox and the loop is woken through a wakeup socket
//!   pair to flush them.
//!
//! ## Backpressure
//!
//! Three mechanisms compose, all scoped to the one connection that earned
//! them:
//!
//! 1. **In-flight bytes**: while a connection has more than
//!    `max_inflight_bytes` of decoded-but-unanswered requests, the loop
//!    stops reading from it — the TCP window fills and the client blocks.
//! 2. **Row-rate token bucket**: the application charges rows per
//!    `INSERT`; while the bucket is in debt the loop pauses reads until it
//!    refills ([`crate::quota`]).
//! 3. **Outbox cap / write stall**: a subscriber that stops reading
//!    accumulates pending output; past `max_outbox_bytes` (or after
//!    `write_stall_timeout` without progress) it is disconnected instead
//!    of growing server memory or wedging shutdown.

use crate::os::{Event, Events, Poller};
use crate::quota::TokenBucket;
use crate::wire::{self, Decoded, ErrCode, Frame};
use saber_types::sync::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum accepted text-mode request line, in bytes. An overlong line
    /// is answered with a structured `ERR protocol` response (the framing
    /// cannot resynchronise, so the connection then closes).
    pub max_line_bytes: usize,
    /// Maximum accepted binary frame (type byte + payload), in bytes.
    /// Oversized frames are rejected from their header alone — the payload
    /// is never buffered.
    pub max_frame_bytes: usize,
    /// Shared-secret authentication token. With `Some(_)`, every command
    /// except `HELLO` / `AUTH` / `PING` / `QUIT` is rejected with
    /// `ERR auth` until the client authenticates; three failed attempts
    /// close the connection.
    pub auth_token: Option<String>,
    /// Sustained per-connection ingest limit in rows per second (`None`
    /// disables the quota). Over-quota connections are throttled by
    /// pausing reads — never by dropping data.
    pub quota_rows_per_sec: Option<u64>,
    /// Burst allowance of the row-rate bucket, in rows.
    pub quota_burst_rows: u64,
    /// Per-connection cap on decoded-but-unanswered request bytes; reads
    /// pause above it so one client cannot queue unbounded work.
    pub max_inflight_bytes: usize,
    /// Per-connection cap on pending outbound bytes; a consumer that falls
    /// further behind than this is disconnected.
    pub max_outbox_bytes: usize,
    /// How long a connection may make zero write progress with bytes
    /// pending before it is disconnected.
    pub write_stall_timeout: Duration,
    /// Cadence of `NOP` keepalives to connections that enabled them
    /// ([`ConnHandle::set_keepalive`]); `None` disables keepalives.
    pub keepalive_interval: Option<Duration>,
    /// Number of dispatch worker threads running [`App::on_request`].
    pub dispatch_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_line_bytes: 1 << 20,
            max_frame_bytes: 4 << 20,
            auth_token: None,
            quota_rows_per_sec: None,
            quota_burst_rows: 1 << 20,
            max_inflight_bytes: 4 << 20,
            max_outbox_bytes: 64 << 20,
            write_stall_timeout: Duration::from_secs(10),
            keepalive_interval: Some(Duration::from_secs(15)),
            dispatch_threads: 4,
        }
    }
}

/// One decoded client request, handed to [`App::on_request`] on a dispatch
/// worker thread.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A text-protocol line (without its terminator).
    Line(String),
    /// A binary-protocol frame.
    Frame(Frame),
    /// An HTTP/1.x `GET` (the scrape mode, see [`ConnMode::Http`]). The
    /// handler answers with [`ConnHandle::send_bytes`] (a full HTTP
    /// response) and closes after flush. HTTP requests bypass the auth
    /// gate: the scrape surface is read-only monitoring data, and scrape
    /// agents cannot speak the `AUTH` exchange.
    HttpGet {
        /// The request path, without any query string.
        path: String,
    },
}

/// The application behind a [`NetServer`]: protocol-level connection and
/// request callbacks.
///
/// `on_connect` and `on_disconnect` run on the event-loop thread and must
/// not block; `on_request` runs on a dispatch worker and may (bounded
/// blocking, e.g. on the engine's ingest backpressure, is the point of the
/// worker pool).
pub trait App: Send + Sync + 'static {
    /// A connection was accepted. Runs on the loop thread; must not block.
    fn on_connect(&self, conn: &ConnHandle) {
        let _ = conn;
    }

    /// One decoded request, in per-connection order. Runs on a dispatch
    /// worker thread.
    fn on_request(&self, conn: &ConnHandle, request: Request);

    /// The connection closed (peer close, error, quota/backpressure
    /// disconnect or server shutdown). Runs on the loop thread; must not
    /// block. Not called for connections still open when the server shuts
    /// down.
    fn on_disconnect(&self, conn: &ConnHandle) {
        let _ = conn;
    }
}

/// Protocol mode of a connection, detected from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// No bytes received yet.
    Detecting,
    /// Newline-delimited text protocol.
    Text,
    /// Length-prefixed binary frame protocol ([`crate::wire`]).
    Binary,
    /// HTTP/1.x scrape mode, detected from a leading `GET ` — one request,
    /// one response, close (Prometheus-style metric scrapes).
    Http,
}

const MODE_DETECTING: u8 = 0;
const MODE_TEXT: u8 = 1;
const MODE_BINARY: u8 = 2;
const MODE_HTTP: u8 = 3;

const CLOSE_OPEN: u8 = 0;
const CLOSE_AFTER_FLUSH: u8 = 1;
const CLOSE_NOW: u8 = 2;

/// State of one connection shared between the loop, the dispatch workers
/// and any [`ConnHandle`] clones the application holds.
struct ConnShared {
    id: u64,
    peer: SocketAddr,
    mode: AtomicU8,
    authed: AtomicBool,
    /// Keepalive-enabled ("push") connections also survive a read-side EOF:
    /// a subscriber may half-close and keep receiving.
    keepalive: AtomicBool,
    close: AtomicU8,
    /// True once the loop has torn the connection down; sends become no-ops.
    gone: AtomicBool,
    /// Bytes of decoded requests not yet answered by the application.
    inflight: AtomicUsize,
    /// True while the connection sits in a worker's run queue.
    scheduled: AtomicBool,
    /// Decoded requests awaiting dispatch, in arrival order.
    pending: Mutex<VecDeque<(Request, usize)>>,
    /// Outbound bytes enqueued by the application, drained by the loop.
    outbox: Mutex<Vec<u8>>,
    /// Row-rate quota bucket.
    bucket: Mutex<TokenBucket>,
    /// True while the connection is already on the loop's dirty list.
    dirty: AtomicBool,
    net: Arc<NetShared>,
}

/// A cloneable handle to one live connection. Cheap to clone (an `Arc`);
/// stays valid after the connection closes (operations become no-ops).
#[derive(Clone)]
pub struct ConnHandle {
    shared: Arc<ConnShared>,
}

impl std::fmt::Debug for ConnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnHandle")
            .field("id", &self.shared.id)
            .field("peer", &self.shared.peer)
            .field("mode", &self.mode())
            .finish()
    }
}

impl ConnHandle {
    /// The connection's id, unique over the server's lifetime.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The peer's socket address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.shared.peer
    }

    /// The detected protocol mode.
    pub fn mode(&self) -> ConnMode {
        match self.shared.mode.load(Ordering::SeqCst) {
            MODE_TEXT => ConnMode::Text,
            MODE_BINARY => ConnMode::Binary,
            MODE_HTTP => ConnMode::Http,
            _ => ConnMode::Detecting,
        }
    }

    /// True once the binary preamble has been seen on this connection.
    pub fn is_binary(&self) -> bool {
        self.mode() == ConnMode::Binary
    }

    /// True once the connection has been torn down.
    pub fn is_closed(&self) -> bool {
        self.shared.gone.load(Ordering::SeqCst)
    }

    /// Enqueues raw bytes for delivery and wakes the loop to flush them.
    pub fn send_bytes(&self, bytes: &[u8]) {
        if bytes.is_empty() || self.is_closed() {
            return;
        }
        {
            let mut outbox = self.shared.outbox.lock();
            outbox.extend_from_slice(bytes);
        }
        NetCounters::add(&self.shared.net.counters.outbox_bytes, bytes.len() as u64);
        self.shared.net.mark_dirty(&self.shared);
    }

    /// Enqueues one text line (a terminating `\n` is appended).
    pub fn send_line(&self, line: &str) {
        if self.is_closed() {
            return;
        }
        {
            let mut outbox = self.shared.outbox.lock();
            outbox.reserve(line.len() + 1);
            outbox.extend_from_slice(line.as_bytes());
            outbox.push(b'\n');
        }
        NetCounters::add(
            &self.shared.net.counters.outbox_bytes,
            line.len() as u64 + 1,
        );
        self.shared.net.mark_dirty(&self.shared);
    }

    /// Enqueues one binary frame.
    pub fn send_frame(&self, frame: &Frame) {
        if self.is_closed() {
            return;
        }
        let encoded = {
            let mut outbox = self.shared.outbox.lock();
            let before = outbox.len();
            frame.encode_into(&mut outbox);
            outbox.len() - before
        };
        NetCounters::add(&self.shared.net.counters.outbox_bytes, encoded as u64);
        self.shared.net.mark_dirty(&self.shared);
    }

    /// Enqueues a one-line text response. A `\r`/`\n` inside it (say a
    /// binary client's multi-line SQL echoed by `QUERIES`) would split the
    /// reply and leave the tail to answer the client's next request, so
    /// both are flattened to spaces.
    fn send_response_line(&self, line: String) {
        if line.contains(['\r', '\n']) {
            self.send_line(&line.replace(['\r', '\n'], " "));
        } else {
            self.send_line(&line);
        }
    }

    /// Sends a success ack in the connection's protocol mode: the frame
    /// `OK(message)` on binary connections (message verbatim), the line
    /// `OK <message>` on text connections.
    pub fn reply_ok(&self, message: &str) {
        if self.is_binary() {
            self.send_frame(&Frame::Ok {
                message: message.to_string(),
            });
        } else {
            self.send_response_line(format!("OK {message}"));
        }
    }

    /// Sends a structured error in the connection's protocol mode.
    pub fn reply_err(&self, code: ErrCode, message: &str) {
        if self.is_binary() {
            self.send_frame(&Frame::Err {
                code,
                message: message.to_string(),
            });
        } else {
            self.send_response_line(format!("ERR {} {message}", code.as_str()));
        }
    }

    /// Marks this a push connection: it receives periodic `NOP` keepalives
    /// and survives a read-side half-close (the subscriber contract).
    pub fn set_keepalive(&self, enabled: bool) {
        self.shared.keepalive.store(enabled, Ordering::SeqCst);
    }

    /// Charges `rows` against the connection's row-rate quota. While the
    /// bucket is in debt the loop pauses reads from this connection.
    pub fn charge_rows(&self, rows: u64) {
        let now = Instant::now();
        self.shared.bucket.lock().charge(rows, now);
        // The loop re-evaluates the throttle state on its next pass over
        // the connection; nudge it in case the socket stays quiet.
        self.shared.net.mark_dirty(&self.shared);
    }

    /// Closes the connection once every pending byte has been written.
    pub fn close_after_flush(&self) {
        let _ = self.shared.close.compare_exchange(
            CLOSE_OPEN,
            CLOSE_AFTER_FLUSH,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.shared.net.mark_dirty(&self.shared);
    }

    /// Closes the connection immediately, discarding pending output.
    pub fn close_now(&self) {
        self.shared.close.store(CLOSE_NOW, Ordering::SeqCst);
        self.shared.net.mark_dirty(&self.shared);
    }
}

/// The loop's cross-thread wakeup: one byte down a socket pair, de-duplicated
/// so a burst of sends costs one syscall.
struct Waker {
    tx: UnixStream,
    armed: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

/// Aggregate transport counters, updated by the loop, the workers and the
/// send handles, read by [`NetMetricsHandle`]. Pure monitoring data: every
/// access is `Relaxed`, and the two gauges (`inflight_bytes`,
/// `outbox_bytes`) use saturating updates so the benign races around
/// connection teardown cannot wrap them below zero.
#[derive(Default)]
struct NetCounters {
    /// Bytes read off all sockets over the server's life.
    bytes_read: AtomicU64,
    /// Bytes written to all sockets over the server's life.
    bytes_written: AtomicU64,
    /// Connections ever accepted.
    accepted_total: AtomicU64,
    /// Requests decoded and dispatched (all protocol modes).
    requests_total: AtomicU64,
    /// HTTP scrape requests decoded.
    http_requests_total: AtomicU64,
    /// Nanoseconds of read-pause scheduled by the row-rate quota.
    throttle_nanos: AtomicU64,
    /// Connections dropped for falling behind on writes.
    slow_consumer_closes: AtomicU64,
    /// Bytes of decoded-but-unanswered requests, across all connections.
    inflight_bytes: AtomicU64,
    /// Bytes of pending (unwritten) output, across all connections.
    outbox_bytes: AtomicU64,
}

impl NetCounters {
    fn add(counter: &AtomicU64, v: u64) {
        if v != 0 {
            // relaxed-ok: monitoring counter, read only by the metrics handle.
            counter.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn sat_sub(counter: &AtomicU64, v: u64) {
        if v != 0 {
            // relaxed-ok: monitoring gauge; the saturating update tolerates
            // the benign send/teardown races instead of wrapping below zero.
            let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_sub(v))
            });
        }
    }
}

/// A cloneable, read-only view of a [`NetServer`]'s aggregate transport
/// counters — connection count, byte/request totals, quota throttle time,
/// in-flight and outbox backlogs. Cheap to clone and valid for the server's
/// whole life; the scrape endpoint renders these as `saber_net_*` families.
#[derive(Clone)]
pub struct NetMetricsHandle {
    shared: Arc<NetShared>,
}

impl NetMetricsHandle {
    /// Currently open connections.
    pub fn connections(&self) -> usize {
        self.shared.conn_count.load(Ordering::SeqCst)
    }

    /// Connections ever accepted.
    pub fn accepted_total(&self) -> u64 {
        self.shared.counters.accepted_total.load(Ordering::Relaxed)
    }

    /// Bytes read off all sockets.
    pub fn bytes_read(&self) -> u64 {
        self.shared.counters.bytes_read.load(Ordering::Relaxed)
    }

    /// Bytes written to all sockets.
    pub fn bytes_written(&self) -> u64 {
        self.shared.counters.bytes_written.load(Ordering::Relaxed)
    }

    /// Requests decoded and dispatched, all protocol modes.
    pub fn requests_total(&self) -> u64 {
        self.shared.counters.requests_total.load(Ordering::Relaxed)
    }

    /// HTTP scrape requests decoded.
    pub fn http_requests_total(&self) -> u64 {
        self.shared
            .counters
            .http_requests_total
            .load(Ordering::Relaxed)
    }

    /// Total nanoseconds of read-pause scheduled by the row-rate quota.
    pub fn throttle_nanos(&self) -> u64 {
        self.shared.counters.throttle_nanos.load(Ordering::Relaxed)
    }

    /// Connections dropped for falling behind on writes (outbox cap or
    /// write stall).
    pub fn slow_consumer_closes(&self) -> u64 {
        self.shared
            .counters
            .slow_consumer_closes
            .load(Ordering::Relaxed)
    }

    /// Bytes of decoded-but-unanswered requests across all connections.
    pub fn inflight_bytes(&self) -> u64 {
        self.shared.counters.inflight_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of pending (unwritten) output across all connections.
    pub fn outbox_bytes(&self) -> u64 {
        self.shared.counters.outbox_bytes.load(Ordering::Relaxed)
    }
}

/// State shared between the loop, the workers and every handle.
struct NetShared {
    config: NetConfig,
    waker: Waker,
    /// Connections with new output / state changes for the loop to visit.
    dirty: Mutex<Vec<u64>>,
    /// Run queue of connections with undispatched requests.
    ready: Mutex<VecDeque<Arc<ConnShared>>>,
    ready_cv: Condvar,
    workers_stop: AtomicBool,
    /// Requests decoded but not yet fully handled, across all connections;
    /// `quiesce` waits for it to reach zero.
    outstanding: Mutex<usize>,
    outstanding_cv: Condvar,
    accepting: AtomicBool,
    reading: AtomicBool,
    finishing: AtomicBool,
    conn_count: AtomicUsize,
    counters: NetCounters,
}

impl NetShared {
    fn mark_dirty(&self, conn: &Arc<ConnShared>) {
        if !conn.dirty.swap(true, Ordering::SeqCst) {
            let mut dirty = self.dirty.lock();
            dirty.push(conn.id);
        }
        self.waker.wake();
    }

    fn enqueue_request(&self, conn: &Arc<ConnShared>, request: Request, cost: usize) {
        NetCounters::add(&self.counters.requests_total, 1);
        NetCounters::add(&self.counters.inflight_bytes, cost as u64);
        conn.inflight.fetch_add(cost, Ordering::SeqCst);
        {
            let mut pending = conn.pending.lock();
            pending.push_back((request, cost));
        }
        {
            let mut outstanding = self.outstanding.lock();
            *outstanding += 1;
        }
        if !conn.scheduled.swap(true, Ordering::SeqCst) {
            let mut ready = self.ready.lock();
            ready.push_back(conn.clone());
            drop(ready);
            self.ready_cv.notify_one();
        }
    }

    fn finish_request(&self, conn: &Arc<ConnShared>, cost: usize) {
        NetCounters::sat_sub(&self.counters.inflight_bytes, cost as u64);
        let cap = self.config.max_inflight_bytes;
        let before = conn.inflight.fetch_sub(cost, Ordering::SeqCst);
        {
            let mut outstanding = self.outstanding.lock();
            *outstanding -= 1;
            if *outstanding == 0 {
                self.outstanding_cv.notify_all();
            }
        }
        // Crossing back under the in-flight cap may unpause reads; the loop
        // owns the interest set, so hand it the connection.
        if before >= cap && before - cost < cap {
            self.mark_dirty(conn);
        }
    }

    /// Runs one dispatch worker until shutdown.
    fn worker_loop(self: &Arc<Self>, app: &Arc<dyn App>) {
        loop {
            let conn = {
                let mut ready = self.ready.lock();
                loop {
                    if let Some(conn) = ready.pop_front() {
                        break conn;
                    }
                    if self.workers_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    self.ready_cv.wait(&mut ready);
                }
            };
            let handle = ConnHandle {
                shared: conn.clone(),
            };
            loop {
                let next = {
                    let mut pending = conn.pending.lock();
                    pending.pop_front()
                };
                match next {
                    Some((request, cost)) => {
                        app.on_request(&handle, request);
                        self.finish_request(&conn, cost);
                    }
                    None => {
                        conn.scheduled.store(false, Ordering::SeqCst);
                        // Re-claim if a request slipped in between the empty
                        // pop and the flag clear — otherwise it would wait
                        // for the *next* enqueue to reschedule the conn.
                        let raced = !conn.pending.lock().is_empty()
                            && !conn.scheduled.swap(true, Ordering::SeqCst);
                        if !raced {
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Why the event loop is closing a connection (reported to `on_disconnect`
/// indirectly via logs/tests; the variants drive the teardown behaviour).
enum CloseReason {
    /// Peer closed / protocol requested close.
    Normal,
    /// The connection fell too far behind or stalled its reads.
    SlowConsumer,
}

/// Per-connection state owned exclusively by the event-loop thread.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    rbuf: Vec<u8>,
    /// Consumed prefix of `rbuf` (compacted opportunistically).
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    interest: u32,
    read_eof: bool,
    /// Set after a fatal protocol error: the error response is flushed,
    /// nothing further is read.
    hello_done: bool,
    auth_failures: u32,
    throttled_until: Option<Instant>,
    paused_inflight: bool,
    last_progress: Instant,
    next_nop: Instant,
}

impl Conn {
    fn mode(&self) -> u8 {
        self.shared.mode.load(Ordering::SeqCst)
    }

    fn pending_write_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos + self.shared.outbox.lock().len()
    }
}

/// A running readiness-based server: an epoll event loop plus a dispatch
/// worker pool, serving an [`App`].
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shut_down: bool,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

impl NetServer {
    /// Binds the listener, spawns the event loop and the dispatch workers,
    /// and starts serving `app`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: NetConfig,
        app: Arc<dyn App>,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let dispatch_threads = config.dispatch_threads.max(1);
        let shared = Arc::new(NetShared {
            config,
            waker: Waker {
                tx: wake_tx,
                armed: AtomicBool::new(false),
            },
            dirty: Mutex::new(Vec::new()),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            workers_stop: AtomicBool::new(false),
            outstanding: Mutex::new(0),
            outstanding_cv: Condvar::new(),
            accepting: AtomicBool::new(true),
            reading: AtomicBool::new(true),
            finishing: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            counters: NetCounters::default(),
        });
        // Create the poller up front so bind fails cleanly on unsupported
        // platforms instead of panicking inside the loop thread.
        let poller = Poller::new()?;
        let loop_thread = {
            let shared = shared.clone();
            let app = app.clone();
            std::thread::Builder::new()
                .name("saber-net-loop".into())
                .spawn(move || event_loop(shared, app, listener, wake_rx, poller))?
        };
        let mut workers = Vec::with_capacity(dispatch_threads);
        for i in 0..dispatch_threads {
            let shared = shared.clone();
            let app = app.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("saber-net-dispatch-{i}"))
                    .spawn(move || shared.worker_loop(&app))?,
            );
        }
        Ok(NetServer {
            shared,
            local_addr,
            loop_thread: Some(loop_thread),
            workers,
            shut_down: false,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The number of currently open connections.
    pub fn connection_count(&self) -> usize {
        self.shared.conn_count.load(Ordering::SeqCst)
    }

    /// A cloneable, read-only view of the server's aggregate transport
    /// counters (see [`NetMetricsHandle`]). Valid for the server's whole
    /// life; safe to read from any thread.
    pub fn metrics_handle(&self) -> NetMetricsHandle {
        NetMetricsHandle {
            shared: self.shared.clone(),
        }
    }

    /// Phase 1 of shutdown: stop accepting connections and stop reading
    /// from the existing ones. Requests already decoded keep flowing to the
    /// application; writes keep flushing.
    pub fn begin_shutdown(&self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.reading.store(false, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Phase 2: blocks until every decoded request has been fully handled
    /// by the application (so, with reads stopped, no command is in
    /// flight). Call after [`NetServer::begin_shutdown`].
    pub fn quiesce(&self) {
        let mut outstanding = self.shared.outstanding.lock();
        while *outstanding != 0 {
            self.shared.outstanding_cv.wait(&mut outstanding);
        }
    }

    /// Phase 3: flushes every connection's pending output (bounded by
    /// `flush_deadline`), closes all connections, and joins the loop and
    /// worker threads. The listener closes with the loop, so the port is
    /// released when this returns.
    pub fn shutdown(mut self, flush_deadline: Duration) {
        self.shutdown_inner(flush_deadline);
    }

    fn shutdown_inner(&mut self, flush_deadline: Duration) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        self.begin_shutdown();
        self.shared.workers_stop.store(true, Ordering::SeqCst);
        self.shared.ready_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Tell the loop to enter its flush-and-exit phase. The deadline is
        // passed through a relaxed path: the loop re-reads `finishing` every
        // iteration and bounds itself.
        self.shared.finishing.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        let deadline = Instant::now() + flush_deadline;
        if let Some(t) = self.loop_thread.take() {
            // The loop exits promptly once `finishing` is set; the join is
            // bounded by its internal flush deadline handling. If the loop
            // somehow outlives the deadline substantially, joining is still
            // the correct (and only loss-free) behaviour.
            let _ = deadline;
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner(Duration::from_secs(1));
    }
}

/// How long the loop's housekeeping pass (keepalives, write-stall checks,
/// quota resumes) may lag behind its ideal schedule.
const HOUSEKEEP_FLOOR: Duration = Duration::from_millis(20);

struct EventLoop {
    shared: Arc<NetShared>,
    app: Arc<dyn App>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    /// Earliest instant any timed state (keepalive, throttle, stall) needs
    /// service; the epoll timeout is derived from it.
    next_housekeep: Instant,
}

fn event_loop(
    shared: Arc<NetShared>,
    app: Arc<dyn App>,
    listener: TcpListener,
    wake_rx: UnixStream,
    poller: Poller,
) {
    let mut el = EventLoop {
        shared,
        app,
        poller,
        listener,
        wake_rx,
        conns: HashMap::new(),
        next_id: 0,
        next_housekeep: Instant::now(),
    };
    if el
        .poller
        .add(el.listener.as_raw_fd(), Events::IN, TOKEN_LISTENER)
        .is_err()
    {
        return;
    }
    if el
        .poller
        .add(el.wake_rx.as_raw_fd(), Events::IN, TOKEN_WAKER)
        .is_err()
    {
        return;
    }
    let mut events: Vec<Event> = Vec::new();
    let mut finish_deadline: Option<Instant> = None;
    loop {
        let finishing = el.shared.finishing.load(Ordering::SeqCst);
        if finishing {
            let deadline =
                *finish_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(5));
            el.flush_phase(deadline);
            if el.conns.is_empty() || Instant::now() >= deadline {
                return;
            }
        }
        let now = Instant::now();
        let timeout = if finishing {
            Some(10)
        } else {
            let until = el.next_housekeep.saturating_duration_since(now);
            Some((until.as_millis() as i32).clamp(1, 60_000))
        };
        events.clear();
        if el.poller.wait(timeout, &mut events).is_err() {
            // A failing epoll_wait (EBADF at teardown, resource pressure)
            // cannot be retried meaningfully; degrade to a paced loop.
            std::thread::sleep(Duration::from_millis(5));
        }
        for event in &events {
            match event.token {
                TOKEN_LISTENER => el.accept_ready(),
                TOKEN_WAKER => el.drain_waker(),
                token => el.conn_event(token - TOKEN_BASE, event.events),
            }
        }
        el.service_dirty();
        let now = Instant::now();
        if now >= el.next_housekeep {
            el.housekeep(now);
        }
    }
}

impl EventLoop {
    fn housekeep_interval(&self) -> Duration {
        self.shared
            .config
            .keepalive_interval
            .map(|k| (k / 2).max(HOUSEKEEP_FLOOR))
            .unwrap_or(Duration::from_millis(500))
            .min(Duration::from_millis(500))
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent accept errors (EMFILE under fd pressure)
                    // would otherwise spin the loop: pace and retry on the
                    // next readiness report.
                    std::thread::sleep(Duration::from_millis(2));
                    return;
                }
            };
            if !self.shared.accepting.load(Ordering::SeqCst) {
                continue; // drop the socket: shutting down
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let id = self.next_id;
            self.next_id += 1;
            let shared = Arc::new(ConnShared {
                id,
                peer,
                mode: AtomicU8::new(MODE_DETECTING),
                authed: AtomicBool::new(self.shared.config.auth_token.is_none()),
                keepalive: AtomicBool::new(false),
                close: AtomicU8::new(CLOSE_OPEN),
                gone: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                scheduled: AtomicBool::new(false),
                pending: Mutex::new(VecDeque::new()),
                outbox: Mutex::new(Vec::new()),
                bucket: Mutex::new(TokenBucket::new(
                    self.shared.config.quota_rows_per_sec,
                    self.shared.config.quota_burst_rows,
                )),
                dirty: AtomicBool::new(false),
                net: self.shared.clone(),
            });
            let now = Instant::now();
            let keepalive = self
                .shared
                .config
                .keepalive_interval
                .unwrap_or(Duration::from_secs(3600));
            let conn = Conn {
                stream,
                shared: shared.clone(),
                rbuf: Vec::new(),
                rpos: 0,
                wbuf: Vec::new(),
                wpos: 0,
                interest: 0,
                read_eof: false,
                hello_done: false,
                auth_failures: 0,
                throttled_until: None,
                paused_inflight: false,
                last_progress: now,
                next_nop: now + keepalive,
            };
            if self
                .poller
                .add(
                    conn.stream.as_raw_fd(),
                    Events::IN | Events::RDHUP,
                    TOKEN_BASE + id,
                )
                .is_err()
            {
                continue;
            }
            self.conns.insert(id, conn);
            self.shared.conn_count.fetch_add(1, Ordering::SeqCst);
            NetCounters::add(&self.shared.counters.accepted_total, 1);
            let handle = ConnHandle { shared };
            self.app.on_connect(&handle);
            // Anything on_connect enqueued goes out now, without waiting
            // for a readiness round trip.
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.interest = Events::IN | Events::RDHUP;
                self.flush_conn(id);
            }
        }
    }

    fn drain_waker(&mut self) {
        self.shared.waker.armed.store(false, Ordering::SeqCst);
        let mut scratch = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut scratch) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Visits every connection the application (or a worker) flagged:
    /// flushes its outbox, re-evaluates pauses, applies close requests.
    fn service_dirty(&mut self) {
        loop {
            let ids: Vec<u64> = {
                let mut dirty = self.shared.dirty.lock();
                std::mem::take(&mut *dirty)
            };
            if ids.is_empty() {
                return;
            }
            for id in ids {
                if let Some(conn) = self.conns.get(&id) {
                    conn.shared.dirty.store(false, Ordering::SeqCst);
                }
                if self.conns.contains_key(&id) {
                    self.resume_reads_if_unpaused(id);
                    self.flush_conn(id);
                }
            }
        }
    }

    fn conn_event(&mut self, id: u64, events: Events) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if events.has(Events::ERR) {
            self.close_conn(id, CloseReason::Normal);
            return;
        }
        // HUP alone (without ERR) can accompany a final readable payload;
        // let the read path observe the EOF ordering-correctly.
        let _ = conn;
        if events.has(Events::OUT) {
            self.flush_conn(id);
        }
        if events.has(Events::IN | Events::HUP | Events::RDHUP) {
            self.read_conn(id);
        }
    }

    /// Reads until `WouldBlock` (or a per-pass budget), then decodes and
    /// dispatches as much of the buffer as pauses allow.
    fn read_conn(&mut self, id: u64) {
        const READ_CHUNK: usize = 64 * 1024;
        const READ_BUDGET: usize = 256 * 1024;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.read_eof || !self.shared.reading.load(Ordering::SeqCst) {
            self.update_interest(id);
            return;
        }
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut total = 0usize;
        let mut eof = false;
        let mut dead = false;
        while total < READ_BUDGET {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        NetCounters::add(&self.shared.counters.bytes_read, total as u64);
        if dead {
            self.close_conn(id, CloseReason::Normal);
            return;
        }
        if eof {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            conn.read_eof = true;
        }
        self.process_rbuf(id);
        self.maybe_close_after_eof(id);
        self.update_interest(id);
    }

    /// A read-side EOF ends a plain connection once its work has drained;
    /// push (keepalive) connections stay open half-closed — the subscriber
    /// contract — until their query ends or a write fails.
    fn maybe_close_after_eof(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        if !conn.read_eof || conn.shared.keepalive.load(Ordering::SeqCst) {
            return;
        }
        let idle = conn.shared.inflight.load(Ordering::SeqCst) == 0
            && conn.pending_write_bytes() == 0
            && conn.rbuf.len() == conn.rpos;
        if idle {
            self.close_conn(id, CloseReason::Normal);
        }
    }

    /// Decodes requests out of the connection's read buffer: protocol-mode
    /// detection, then text lines or binary frames, respecting the
    /// in-flight and quota pauses.
    fn process_rbuf(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.shared.close.load(Ordering::SeqCst) != CLOSE_OPEN {
                return;
            }
            // Pause gates, re-checked between requests: in-flight bytes and
            // the row-rate bucket.
            let cap = self.shared.config.max_inflight_bytes;
            if conn.shared.inflight.load(Ordering::SeqCst) >= cap {
                conn.paused_inflight = true;
                return;
            }
            conn.paused_inflight = false;
            let now = Instant::now();
            if let Some(wait) = conn.shared.bucket.lock().throttle_for(now) {
                let until = now + wait;
                // Count the scheduled pause once per throttle episode: the
                // loop re-enters here while already throttled (dirty marks,
                // housekeeping) without extending the pause.
                if conn.throttled_until.is_none() {
                    NetCounters::add(&self.shared.counters.throttle_nanos, wait.as_nanos() as u64);
                }
                conn.throttled_until = Some(until);
                self.next_housekeep = self.next_housekeep.min(until);
                return;
            }
            conn.throttled_until = None;
            let buf = &conn.rbuf[conn.rpos..];
            if buf.is_empty() {
                self.compact_rbuf(id);
                return;
            }
            match conn.mode() {
                MODE_DETECTING => {
                    if buf[0] == wire::MAGIC[0] {
                        if buf.len() < wire::MAGIC.len() {
                            return; // wait for the full preamble
                        }
                        if buf[..4] != wire::MAGIC {
                            self.fail_conn(
                                id,
                                ErrCode::Protocol,
                                "bad binary preamble (expected \\0SBP magic)",
                            );
                            return;
                        }
                        conn.rpos += 4;
                        conn.shared.mode.store(MODE_BINARY, Ordering::SeqCst);
                    } else if buf[0] == b'G' && !buf.iter().take(4).any(|&b| b == b'\n') {
                        // Could be `GET ` (the HTTP scrape mode) or a text
                        // verb; no text verb starts with G, but don't stall
                        // a short line like `GO\n` waiting for byte four.
                        if buf.len() < 4 {
                            self.compact_rbuf(id);
                            return; // wait for enough bytes to tell
                        }
                        conn.shared.mode.store(
                            if buf[..4] == *b"GET " {
                                MODE_HTTP
                            } else {
                                MODE_TEXT
                            },
                            Ordering::SeqCst,
                        );
                    } else {
                        conn.shared.mode.store(MODE_TEXT, Ordering::SeqCst);
                    }
                }
                MODE_TEXT => {
                    let cap = self.shared.config.max_line_bytes;
                    match buf.iter().position(|&b| b == b'\n') {
                        Some(pos) => {
                            if pos > cap {
                                self.fail_conn(
                                    id,
                                    ErrCode::Protocol,
                                    &format!("line exceeds the {cap}-byte limit"),
                                );
                                return;
                            }
                            let mut line = buf[..pos].to_vec();
                            if line.last() == Some(&b'\r') {
                                line.pop();
                            }
                            conn.rpos += pos + 1;
                            match String::from_utf8(line) {
                                Ok(line) => self.dispatch_text(id, line),
                                Err(_) => {
                                    self.fail_conn(
                                        id,
                                        ErrCode::Protocol,
                                        "line is not valid UTF-8",
                                    );
                                    return;
                                }
                            }
                        }
                        None => {
                            if buf.len() > cap {
                                // The structured over-cap error goes out
                                // *before* the connection closes, so the
                                // client learns why instead of seeing a
                                // silent reset mid-line.
                                self.fail_conn(
                                    id,
                                    ErrCode::Protocol,
                                    &format!("line exceeds the {cap}-byte limit"),
                                );
                            } else {
                                self.compact_rbuf(id);
                            }
                            return;
                        }
                    }
                }
                MODE_HTTP => {
                    let cap = self.shared.config.max_line_bytes;
                    match find_http_head_end(buf) {
                        None => {
                            if buf.len() > cap {
                                // An unterminated, overlong request head:
                                // there is nothing well-formed to answer.
                                self.close_conn(id, CloseReason::Normal);
                            } else {
                                self.compact_rbuf(id);
                            }
                            return;
                        }
                        Some(end) => {
                            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
                            conn.rpos += end;
                            let shared = conn.shared.clone();
                            match parse_http_get_path(&head) {
                                Some(path) => {
                                    NetCounters::add(&self.shared.counters.http_requests_total, 1);
                                    self.shared.enqueue_request(
                                        &shared,
                                        Request::HttpGet { path },
                                        end + 64,
                                    );
                                }
                                None => {
                                    conn.rbuf.clear();
                                    conn.rpos = 0;
                                    let handle = ConnHandle { shared };
                                    handle.send_bytes(HTTP_BAD_REQUEST);
                                    handle.close_after_flush();
                                    self.flush_conn(id);
                                }
                            }
                            // One request per HTTP connection: the handler
                            // (or the 400 above) closes after flush.
                            return;
                        }
                    }
                }
                _ => {
                    // Binary mode.
                    match wire::decode_frame(buf, self.shared.config.max_frame_bytes) {
                        Ok(Decoded::Frame(frame, used)) => {
                            conn.rpos += used;
                            self.dispatch_frame(id, frame);
                        }
                        Ok(Decoded::Incomplete) => {
                            self.compact_rbuf(id);
                            return;
                        }
                        Err(e) => {
                            self.fail_conn(id, ErrCode::Protocol, e.message());
                            return;
                        }
                    }
                }
            }
        }
    }

    fn compact_rbuf(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.rpos > 0 {
            conn.rbuf.drain(..conn.rpos);
            conn.rpos = 0;
        }
    }

    /// Sends a structured error (mode-appropriate) and closes after flush:
    /// used for unrecoverable protocol errors where the framing cannot
    /// resynchronise.
    fn fail_conn(&mut self, id: u64, code: ErrCode, message: &str) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let handle = ConnHandle {
            shared: conn.shared.clone(),
        };
        handle.reply_err(code, message);
        handle.close_after_flush();
        // Drop whatever unread input remains: the connection is done.
        conn.rbuf.clear();
        conn.rpos = 0;
        self.flush_conn(id);
    }

    /// Handles one complete text line on the loop thread: the auth gate is
    /// enforced here (AUTH itself, plus the PING/QUIT liveness exemptions);
    /// everything else is queued for the dispatch workers.
    fn dispatch_text(&mut self, id: u64, line: String) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let verb = trimmed
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        if verb == "AUTH" {
            let token = trimmed[4..].trim();
            self.try_auth(id, token.to_string());
            return;
        }
        if !conn.shared.authed.load(Ordering::SeqCst)
            && !matches!(verb.as_str(), "PING" | "QUIT" | "EXIT")
        {
            let handle = ConnHandle {
                shared: conn.shared.clone(),
            };
            handle.reply_err(ErrCode::Auth, "authentication required (send AUTH <token>)");
            self.flush_conn(id);
            return;
        }
        let cost = line.len() + 64;
        let shared = conn.shared.clone();
        self.shared
            .enqueue_request(&shared, Request::Line(line), cost);
    }

    /// Handles one complete binary frame on the loop thread: HELLO
    /// negotiation and the auth gate live here; everything else is queued
    /// for the dispatch workers.
    fn dispatch_frame(&mut self, id: u64, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let handle = ConnHandle {
            shared: conn.shared.clone(),
        };
        if !conn.hello_done {
            match frame {
                Frame::Hello { max_version } => {
                    if max_version < wire::PROTOCOL_VERSION {
                        self.fail_conn(
                            id,
                            ErrCode::Protocol,
                            &format!(
                                "unsupported protocol version {max_version} (server speaks {})",
                                wire::PROTOCOL_VERSION
                            ),
                        );
                        return;
                    }
                    conn.hello_done = true;
                    let mut flags = 0u8;
                    if self.shared.config.auth_token.is_some() {
                        flags |= wire::FLAG_AUTH_REQUIRED;
                    }
                    handle.send_frame(&Frame::HelloAck {
                        version: wire::PROTOCOL_VERSION,
                        flags,
                    });
                    self.flush_conn(id);
                }
                _ => {
                    self.fail_conn(
                        id,
                        ErrCode::Protocol,
                        "the first binary frame must be HELLO",
                    );
                }
            }
            return;
        }
        match frame {
            Frame::Hello { .. } => {
                self.fail_conn(id, ErrCode::Protocol, "duplicate HELLO");
            }
            Frame::Auth { token } => {
                self.try_auth(id, token);
            }
            frame => {
                if !conn.shared.authed.load(Ordering::SeqCst)
                    && !matches!(frame, Frame::Ping | Frame::Quit)
                {
                    handle.reply_err(
                        ErrCode::Auth,
                        "authentication required (send an AUTH frame)",
                    );
                    self.flush_conn(id);
                    return;
                }
                let cost = frame_cost(&frame);
                let shared = conn.shared.clone();
                self.shared
                    .enqueue_request(&shared, Request::Frame(frame), cost);
            }
        }
    }

    /// Validates a shared-secret token (constant-time compare). Three
    /// failures close the connection.
    fn try_auth(&mut self, id: u64, token: String) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let handle = ConnHandle {
            shared: conn.shared.clone(),
        };
        let Some(expected) = self.shared.config.auth_token.as_deref() else {
            handle.reply_ok("authenticated (no auth required)");
            self.flush_conn(id);
            return;
        };
        if constant_time_eq(expected.as_bytes(), token.as_bytes()) {
            conn.shared.authed.store(true, Ordering::SeqCst);
            handle.reply_ok("authenticated");
            self.flush_conn(id);
            return;
        }
        conn.auth_failures += 1;
        if conn.auth_failures >= 3 {
            self.fail_conn(id, ErrCode::Auth, "too many failed authentication attempts");
        } else {
            handle.reply_err(ErrCode::Auth, "invalid token");
            self.flush_conn(id);
        }
    }

    /// Re-arms reads for a connection whose pause condition may have
    /// cleared (in-flight drained, quota refilled), re-processing any
    /// bytes that were left buffered while paused.
    fn resume_reads_if_unpaused(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        let was_paused = conn.paused_inflight || conn.throttled_until.is_some();
        if was_paused {
            self.process_rbuf(id);
        }
        self.maybe_close_after_eof(id);
        self.update_interest(id);
    }

    /// Moves the shared outbox into the loop-owned write buffer, writes as
    /// much as the socket accepts, applies close requests and the slow-
    /// consumer caps, and re-arms `EPOLLOUT` only if bytes remain.
    fn flush_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let close = conn.shared.close.load(Ordering::SeqCst);
        if close == CLOSE_NOW {
            self.close_conn(id, CloseReason::Normal);
            return;
        }
        {
            let mut outbox = conn.shared.outbox.lock();
            if !outbox.is_empty() {
                if conn.wpos == conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    std::mem::swap(&mut conn.wbuf, &mut *outbox);
                } else {
                    conn.wbuf.extend_from_slice(&outbox);
                    outbox.clear();
                }
            }
        }
        if conn.wbuf.len() - conn.wpos > self.shared.config.max_outbox_bytes {
            self.close_conn(id, CloseReason::SlowConsumer);
            return;
        }
        let wpos_before = conn.wpos;
        let mut dead = false;
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let written = (conn.wpos - wpos_before) as u64;
        NetCounters::add(&self.shared.counters.bytes_written, written);
        NetCounters::sat_sub(&self.shared.counters.outbox_bytes, written);
        if dead {
            self.close_conn(id, CloseReason::Normal);
            return;
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            if close == CLOSE_AFTER_FLUSH && conn.shared.outbox.lock().is_empty() {
                // Everything the application wanted delivered is in the
                // kernel's hands; shut the write side down so the peer sees
                // a clean EOF after the final bytes.
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                self.close_conn(id, CloseReason::Normal);
                return;
            }
        }
        self.maybe_close_after_eof(id);
        self.update_interest(id);
    }

    /// Computes and applies the connection's epoll interest set from its
    /// current state.
    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let reading_globally = self.shared.reading.load(Ordering::SeqCst);
        let paused = conn.paused_inflight || conn.throttled_until.is_some();
        let mut want = 0u32;
        if !conn.read_eof && reading_globally && !paused {
            want |= Events::IN | Events::RDHUP;
        }
        if conn.wpos < conn.wbuf.len() || !conn.shared.outbox.lock().is_empty() {
            want |= Events::OUT;
        }
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), want, TOKEN_BASE + id)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Periodic pass: quota resumes, keepalive NOPs, write-stall eviction.
    fn housekeep(&mut self, now: Instant) {
        let interval = self.housekeep_interval();
        self.next_housekeep = now + interval;
        let keepalive = self.shared.config.keepalive_interval;
        let stall = self.shared.config.write_stall_timeout;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            // Quota refill: resume reads when the debt has cleared.
            if let Some(until) = conn.throttled_until {
                if now >= until {
                    conn.throttled_until = None;
                    self.process_rbuf(id);
                    self.update_interest(id);
                } else {
                    self.next_housekeep = self.next_housekeep.min(until);
                }
            }
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            // Write stall: pending bytes and no progress for too long.
            if conn.pending_write_bytes() > 0
                && now.saturating_duration_since(conn.last_progress) > stall
            {
                self.close_conn(id, CloseReason::SlowConsumer);
                continue;
            }
            // Keepalives to push connections: a NOP per interval lets the
            // server discover fully-closed quiet subscribers (TCP only
            // reports a full close when a write fails).
            if let Some(interval) = keepalive {
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if conn.shared.keepalive.load(Ordering::SeqCst) && now >= conn.next_nop {
                    conn.next_nop = now + interval;
                    let nop: &[u8] = if conn.mode() == MODE_BINARY {
                        &NOP_FRAME_BYTES
                    } else {
                        b"NOP\n"
                    };
                    conn.wbuf.extend_from_slice(nop);
                    NetCounters::add(&self.shared.counters.outbox_bytes, nop.len() as u64);
                    self.flush_conn(id);
                }
            }
        }
    }

    /// Tears one connection down: deregisters it, marks the handle dead,
    /// notifies the application, drops the socket.
    fn close_conn(&mut self, id: u64, reason: CloseReason) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        if matches!(reason, CloseReason::SlowConsumer) {
            NetCounters::add(&self.shared.counters.slow_consumer_closes, 1);
        }
        NetCounters::sat_sub(
            &self.shared.counters.outbox_bytes,
            conn.pending_write_bytes() as u64,
        );
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        conn.shared.gone.store(true, Ordering::SeqCst);
        self.shared.conn_count.fetch_sub(1, Ordering::SeqCst);
        let handle = ConnHandle {
            shared: conn.shared.clone(),
        };
        // The socket closes when `conn` drops at the end of this scope; the
        // callback runs with no loop state borrowed and no net locks held.
        self.app.on_disconnect(&handle);
    }

    /// Shutdown flush phase: push every outbox out, close connections as
    /// they drain (or at the deadline), normal-event processing suspended.
    fn flush_phase(&mut self, deadline: Instant) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        let expired = Instant::now() >= deadline;
        for id in ids {
            self.flush_conn(id);
            let Some(conn) = self.conns.get(&id) else {
                continue; // closed by flush
            };
            if conn.pending_write_bytes() == 0 || expired {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                let Some(conn) = self.conns.remove(&id) else {
                    continue;
                };
                NetCounters::sat_sub(
                    &self.shared.counters.outbox_bytes,
                    conn.pending_write_bytes() as u64,
                );
                conn.shared.gone.store(true, Ordering::SeqCst);
                self.shared.conn_count.fetch_sub(1, Ordering::SeqCst);
                // No on_disconnect during the final teardown: the
                // application initiated the shutdown and has already
                // retired its connection state.
            }
        }
    }
}

/// Pre-encoded NOP frame (`len=1, type=NOP`).
const NOP_FRAME_BYTES: [u8; 5] = [1, 0, 0, 0, 0x22];

/// The canned response to a malformed HTTP request head.
const HTTP_BAD_REQUEST: &[u8] =
    b"HTTP/1.0 400 Bad Request\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";

/// Finds the end of an HTTP request head (the index one past the blank
/// line), accepting both CRLF and bare-LF framing.
fn find_http_head_end(buf: &[u8]) -> Option<usize> {
    if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some(pos + 4);
    }
    buf.windows(2).position(|w| w == b"\n\n").map(|pos| pos + 2)
}

/// Parses the request-target path out of an HTTP `GET` request line,
/// stripping any query string. `None` for anything that is not a
/// well-formed `GET <target> HTTP/x.y` line.
fn parse_http_get_path(head: &str) -> Option<String> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") || parts.next().is_some() {
        return None;
    }
    Some(target.split('?').next().unwrap_or(target).to_string())
}

/// Dispatch-cost estimate of a frame: payload size plus fixed overhead.
fn frame_cost(frame: &Frame) -> usize {
    64 + match frame {
        Frame::Insert { rows, .. } => rows.len(),
        Frame::Query { sql } => sql.len(),
        Frame::CreateStream { definition } => definition.len(),
        Frame::Data { rows, .. } => rows.len(),
        Frame::Auth { token } => token.len(),
        Frame::MetricsText { text } => text.len(),
        Frame::Ok { message } | Frame::Err { message, .. } => message.len(),
        _ => 0,
    }
}

/// Timing-independent byte-slice equality (length leaks, contents do not).
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_frame_bytes_match_the_codec() {
        assert_eq!(Frame::Nop.encode(), NOP_FRAME_BYTES.to_vec());
    }

    #[test]
    fn constant_time_eq_compares_correctly() {
        assert!(constant_time_eq(b"secret", b"secret"));
        assert!(!constant_time_eq(b"secret", b"secreT"));
        assert!(!constant_time_eq(b"secret", b"secre"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn http_head_end_accepts_both_framings() {
        assert_eq!(
            find_http_head_end(b"GET /metrics HTTP/1.0\r\n\r\nrest"),
            Some(25)
        );
        assert_eq!(find_http_head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(find_http_head_end(b"GET /metrics HTTP/1.0\r\n"), None);
        assert_eq!(find_http_head_end(b""), None);
    }

    #[test]
    fn http_get_path_parsing() {
        assert_eq!(
            parse_http_get_path("GET /metrics HTTP/1.1\r\nHost: x\r\n"),
            Some("/metrics".to_string())
        );
        assert_eq!(
            parse_http_get_path("GET /metrics?name=q0 HTTP/1.0"),
            Some("/metrics".to_string())
        );
        assert_eq!(parse_http_get_path("POST /metrics HTTP/1.1"), None);
        assert_eq!(parse_http_get_path("GET /metrics"), None);
        assert_eq!(parse_http_get_path("GET /metrics SMTP/1.0"), None);
        assert_eq!(parse_http_get_path("GET /a b HTTP/1.1"), None);
    }

    #[test]
    fn frame_costs_scale_with_payload() {
        let small = frame_cost(&Frame::Ping);
        let big = frame_cost(&Frame::Insert {
            query: 0,
            stream: 0,
            rows: vec![0; 4096],
        });
        assert!(big >= small + 4096);
    }
}
