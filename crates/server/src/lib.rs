//! # saber-server
//!
//! A TCP network frontend for the SABER engine: the piece that turns the
//! embedded library into a system serving many concurrent clients. Since
//! the `saber_net` rewrite the frontend is **readiness-based**: one epoll
//! event loop multiplexes every connection (no thread per connection, so
//! tens of thousands of concurrent clients fit in one engine process), and
//! a small dispatch pool runs the command handlers so an `INSERT` blocked
//! on the engine's credit gate never stalls the loop.
//!
//! Two wire protocols share the port, distinguished by the first byte a
//! client sends (see `docs/server.md`):
//!
//! * the newline-delimited **text protocol** — unchanged, REPL-friendly:
//!   `CREATE STREAM`, `QUERY`, `DROP QUERY`, `INSERT ... CSV|B64`,
//!   `SUBSCRIBE`, `STATS`, ...
//! * the length-prefixed **binary protocol** ([`saber_net::wire`]) — a
//!   `\0SBP` magic followed by `[len][type][payload]` frames, version-
//!   negotiated via `HELLO`, carrying the same verbs plus raw (unencoded)
//!   row payloads and `DATA` result frames.
//!
//! Connections optionally authenticate with a shared-secret token
//! ([`ServerConfig::auth_token`]) and are individually rate-limited
//! ([`ServerConfig::quota_rows_per_sec`]): throttling pauses that one
//! connection's reads — backpressure reaches the client through TCP, and
//! nobody else slows down.
//!
//! All connections multiplex onto **one** [`Saber`] engine, so producers
//! share the engine's credit-gate backpressure (a slow engine blocks
//! `INSERT` acks, which blocks the TCP stream — backpressure propagates to
//! the client for free).
//!
//! Result delivery is **push-driven end to end**: every query's
//! [`QuerySink`](saber_engine::QuerySink) carries a subscription hook that
//! wakes the broadcaster the moment the result stage appends a closed
//! window; the broadcaster encodes each batch at most once per encoding in
//! use and appends it to the subscribers' outboxes, where the event loop's
//! write-interest scheduling takes over.
//!
//! [`Server::shutdown`] is deterministic and loss-free, built on the
//! engine's reject-then-drain `stop()` semantics: it stops accepting and
//! reading, quiesces the dispatch pool (so no ingest is in flight), stops
//! the engine (every acknowledged row is processed), then delivers the
//! final result windows and an `END` marker to all subscribers.
//!
//! ```no_run
//! use saber_server::{Server, ServerConfig};
//! use std::io::Write;
//! use std::net::TcpStream;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = TcpStream::connect(server.local_addr()).unwrap();
//! writeln!(client, "CREATE STREAM S (timestamp TIMESTAMP, v FLOAT)").unwrap();
//! writeln!(client, "QUERY SELECT * FROM S [ROWS 2] WHERE v > 0").unwrap();
//! writeln!(client, "INSERT 0 0 CSV 1,0.5;2,1.5").unwrap();
//! // A second query can be registered now — after rows have flowed.
//! writeln!(client, "QUERY SELECT * FROM S [ROWS 4]").unwrap();
//! writeln!(client, "DROP QUERY 0").unwrap();
//! server.shutdown().unwrap();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod protocol;

use protocol::{data_type_name, format_batch, parse_command, Command, Encoding, Payload};
use saber_engine::{
    EngineConfig, IngestHandle, Processor, QueryHandle, QueryId, QueryStats, Saber, StreamId,
};
use saber_net::wire::{ErrCode, Frame};
use saber_net::{App, ConnHandle, NetConfig, NetMetricsHandle, NetServer, Request};
use saber_obs::PromWriter;
use saber_sql::SharedCatalog;
use saber_types::schema::SchemaRef;
use saber_types::sync::{Condvar, Mutex};
use saber_types::{Result, RowBuffer, SaberError, Schema};
use std::collections::HashSet;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
///
/// Durability is configured through the embedded engine:
/// `config.engine.durability` (see
/// [`DurabilityConfig`](saber_engine::DurabilityConfig) and
/// `docs/persistence.md`). With it set, [`Server::bind`] *recovers* from the
/// directory when it holds state from a previous run — same query ids,
/// replayed result windows — and otherwise starts fresh; the engine's
/// checkpoint cadence lives in `DurabilityConfig::checkpoint_interval`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Configuration of the embedded engine.
    pub engine: EngineConfig,
    /// Maximum accepted request size in bytes: text lines *and* binary
    /// frames share this cap. Oversized requests are answered with a
    /// structured `ERR protocol` response before the connection closes
    /// (the framing cannot resynchronise).
    pub max_line_bytes: usize,
    /// How long a subscriber may make zero write progress (full TCP
    /// receive window) with result bytes pending before it is dropped, so
    /// one stalled client can neither starve the other subscribers nor
    /// wedge [`Server::shutdown`].
    pub subscriber_write_timeout: Duration,
    /// How often the server writes a `NOP` keepalive to quiet subscribers.
    /// TCP cannot distinguish a half-close ("no more input, still
    /// receiving" — which subscriptions honour) from a full close until a
    /// write fails, so the keepalive bounds how long a fully disconnected
    /// subscriber of an idle query can linger unreaped.
    pub keepalive_interval: Duration,
    /// Shared-secret authentication token. When set, clients must
    /// authenticate (text `AUTH <token>`, binary `AUTH` frame) before any
    /// command other than `PING`/`QUIT` is accepted.
    pub auth_token: Option<String>,
    /// Per-connection sustained ingest limit in rows per second; `None`
    /// disables the quota. Over-quota connections are throttled by pausing
    /// their reads (TCP backpressure) — data is never dropped, and other
    /// connections are unaffected.
    pub quota_rows_per_sec: Option<u64>,
    /// Burst allowance of the per-connection row quota, in rows.
    pub quota_burst_rows: u64,
    /// Per-connection cap on decoded-but-unanswered request bytes; reads
    /// pause above it so one client cannot queue unbounded work in the
    /// dispatch pool.
    pub max_inflight_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            max_line_bytes: 1 << 20,
            subscriber_write_timeout: Duration::from_secs(10),
            keepalive_interval: Duration::from_secs(15),
            auth_token: None,
            quota_rows_per_sec: None,
            quota_burst_rows: 1 << 20,
            max_inflight_bytes: 4 << 20,
        }
    }
}

/// Final per-query counters returned by [`Server::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReport {
    /// Rows accepted into the query's input buffers over the server's life.
    pub tuples_in: u64,
    /// Result rows emitted by the query.
    pub tuples_out: u64,
}

/// Summary of a completed [`Server::shutdown`]: every row counted in
/// `tuples_in` was fully processed before the engine stopped. Indexed by
/// query id and covering every query ever registered — including queries
/// dropped with `DROP QUERY` (ids are never reused).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Per-query counters, indexed by query id.
    pub queries: Vec<QueryReport>,
}

/// How a subscriber wants its result windows rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubEncoding {
    /// Text protocol: `ROW ...` CSV lines or `DATA n <base64>` lines.
    Text(Encoding),
    /// Binary protocol: `DATA` frames carrying the raw row bytes.
    Binary,
}

/// One registered query: its SQL text, engine handle, input schemas (for
/// decoding `INSERT` payloads), one cached [`IngestHandle`] per input stream
/// (handles are cheap `Arc` clones, so the hot `INSERT` path neither
/// re-resolves nor re-allocates), and current subscribers.
struct QueryReg {
    sql: String,
    handle: QueryHandle,
    input_schemas: Vec<SchemaRef>,
    ingest: Vec<IngestHandle>,
    subscribers: Vec<Subscriber>,
    /// Set once the engine-side removal (`DROP QUERY`) has drained the
    /// query: the broadcaster delivers the final windows plus `END` to the
    /// subscribers and then clears the slot.
    dropped: bool,
}

/// A result subscriber: a handle to its connection plus its encoding.
struct Subscriber {
    id: u64,
    conn: ConnHandle,
    encoding: SubEncoding,
    /// False until the `OK subscribed` ack has been enqueued. The
    /// broadcaster holds a query's drain back while any of its subscribers
    /// is pending, so no window closed after the ack can be dropped, and no
    /// `ROW` can precede the ack (both travel the same in-order outbox).
    ready: Arc<AtomicBool>,
}

struct State {
    engine: Saber,
    /// Indexed by query id; `None` marks a dropped query's retired slot.
    queries: Vec<Option<QueryReg>>,
}

/// The broadcaster's wake signal: set by sink push-notifications, new
/// subscriptions, `DROP QUERY` and shutdown. Replaces the old poll loop.
#[derive(Default)]
struct Notifier {
    dirty: Mutex<bool>,
    cv: Condvar,
}

impl Notifier {
    /// Marks the broadcaster due. Only the wake that finds the flag clear
    /// notifies (and returns true): the broadcaster clears it under this
    /// mutex before it drains, so a set flag means a pass that will see the
    /// caller's rows is already owed — and a futex wake is a syscall even
    /// with nobody waiting, which a shared plan would pay once per follower
    /// per window batch.
    fn wake(&self) -> bool {
        let mut dirty = self.dirty.lock();
        let notify = !*dirty;
        if notify {
            *dirty = true;
            self.cv.notify_all();
        }
        notify
    }

    /// Blocks until woken or `timeout` elapses, consuming the wake flag.
    fn wait(&self, timeout: Duration) {
        let mut dirty = self.dirty.lock();
        if !*dirty {
            // condvar-ok: bounded-latency wait — a spurious or timed-out
            // wake only costs one idle broadcast pass; the dirty flag is
            // consumed under the lock either way.
            self.cv.wait_for(&mut dirty, timeout);
        }
        *dirty = false;
    }
}

struct Shared {
    state: Mutex<State>,
    catalog: SharedCatalog,
    notifier: Arc<Notifier>,
    /// Set first during shutdown: tells disconnect callbacks not to touch
    /// subscriber state the shutdown path owns.
    shutting_down: AtomicBool,
    /// Set after the engine has stopped: the broadcaster performs one final
    /// drain, delivers `END` to every subscriber and exits.
    finish_broadcast: AtomicBool,
    next_subscriber_id: AtomicU64,
    /// Connections that have become push-only result streams: further input
    /// on them is ignored (the subscriber contract).
    push_conns: Mutex<HashSet<u64>>,
    /// When the server came up — `STATS` and `/metrics` report uptime.
    started: Instant,
    /// Transport counters of the net layer, set once the listener is bound
    /// (command handlers only run after that).
    net_metrics: OnceLock<NetMetricsHandle>,
}

impl Shared {
    /// Renders the structured "unknown query" error: the offending id plus
    /// the ids that *are* live, so a client can recover without a round
    /// trip through `QUERIES`.
    fn unknown_query(&self, st: &State, id: usize) -> Response {
        let known: Vec<String> = st
            .queries
            .iter()
            .enumerate()
            .filter_map(|(i, q)| match q {
                Some(reg) if !reg.dropped => Some(i.to_string()),
                _ => None,
            })
            .collect();
        let message = if known.is_empty() {
            format!("unknown query {id} (no queries registered; send QUERY first)")
        } else {
            format!("unknown query {id} (known queries: {})", known.join(", "))
        };
        Response::Err(ErrCode::Query, message)
    }
}

/// A running SABER network server (see the crate docs for the protocol).
pub struct Server {
    shared: Arc<Shared>,
    net: Option<NetServer>,
    local_addr: SocketAddr,
    broadcaster: Option<JoinHandle<()>>,
    shut_down: bool,
}

impl Server {
    /// Binds a server with an empty catalog. Use port 0 to let the OS pick a
    /// free port (see [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Server> {
        Self::bind_with_catalog(addr, config, saber_sql::Catalog::new())
    }

    /// Binds a server whose catalog is pre-populated with `catalog` (clients
    /// can reference those streams immediately and still `CREATE STREAM`
    /// more).
    ///
    /// The engine starts immediately with zero queries: `QUERY` registers
    /// queries dynamically on the running engine, so there is no
    /// registration freeze at the first `INSERT`.
    ///
    /// With `config.engine.durability` set, a directory holding state from a
    /// previous run is **recovered** first: streams, query ids and SQL texts
    /// are restored and the un-checkpointed WAL suffix is replayed, so the
    /// server comes back serving the same query ids (`QUERIES`, `INSERT`,
    /// `SUBSCRIBE` all keep working against ids handed out before the
    /// restart). Pre-populated `catalog` streams are merged into the durable
    /// catalog (identical redefinitions are no-ops).
    pub fn bind_with_catalog(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        catalog: saber_sql::Catalog,
    ) -> Result<Server> {
        let durable = config.engine.durability.is_some();
        let (engine, recovered) = if durable {
            let (engine, report) = Saber::recover(config.engine.clone())?;
            (engine, Some(report))
        } else {
            let mut engine = Saber::with_config(config.engine.clone())?;
            engine.start()?;
            (engine, None)
        };
        let shared_catalog = if durable {
            // The durable catalog is the engine's: CREATE STREAM persists
            // through it, and recovery restored previous declarations into
            // it. Seed it with the caller's pre-populated streams.
            for (name, schema) in catalog.streams() {
                engine.create_stream(name, schema.clone())?;
            }
            engine
                .shared_catalog()
                .expect("durable engines own a shared catalog")
        } else {
            SharedCatalog::from_catalog(catalog)
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                engine,
                queries: Vec::new(),
            }),
            catalog: shared_catalog,
            notifier: Arc::new(Notifier::default()),
            shutting_down: AtomicBool::new(false),
            finish_broadcast: AtomicBool::new(false),
            next_subscriber_id: AtomicU64::new(0),
            push_conns: Mutex::new(HashSet::new()),
            started: Instant::now(),
            net_metrics: OnceLock::new(),
        });
        // Rebuild the protocol-level slots of recovered queries so INSERT,
        // SUBSCRIBE, STATS and DROP address them under their original ids.
        if let Some(report) = recovered {
            let mut st = shared.state.lock();
            for rq in &report.queries {
                let Some(handle) = st.engine.query(rq.id) else {
                    continue;
                };
                let query = shared.catalog.compile(&rq.sql).map_err(|e| {
                    SaberError::Store(format!(
                        "recovered query {} no longer compiles: {}",
                        rq.id.index(),
                        e.message()
                    ))
                })?;
                let input_schemas: Vec<SchemaRef> = (0..query.num_inputs())
                    .map(|i| query.input_schema(i).clone())
                    .collect();
                register_query_slot(
                    &mut st,
                    &shared.notifier,
                    rq.sql.clone(),
                    input_schemas,
                    handle,
                )?;
            }
        }
        let net_config = NetConfig {
            max_line_bytes: config.max_line_bytes,
            max_frame_bytes: config.max_line_bytes,
            auth_token: config.auth_token.clone(),
            quota_rows_per_sec: config.quota_rows_per_sec,
            quota_burst_rows: config.quota_burst_rows,
            max_inflight_bytes: config.max_inflight_bytes,
            max_outbox_bytes: 64 << 20,
            write_stall_timeout: config.subscriber_write_timeout,
            keepalive_interval: Some(config.keepalive_interval),
            dispatch_threads: 4,
        };
        let app = Arc::new(SaberApp {
            shared: shared.clone(),
        });
        let net = NetServer::bind(addr, net_config, app)
            .map_err(|e| SaberError::State(format!("failed to bind server socket: {e}")))?;
        let _ = shared.net_metrics.set(net.metrics_handle());
        let local_addr = net.local_addr();
        let broadcaster = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("saber-broadcast".into())
                .spawn(move || broadcast_loop(shared))
                .map_err(|e| SaberError::State(format!("failed to spawn broadcaster: {e}")))?
        };
        Ok(Server {
            shared,
            net: Some(net),
            local_addr,
            broadcaster: Some(broadcaster),
            shut_down: false,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shuts the server down deterministically and loss-free:
    ///
    /// 1. stop accepting connections and stop reading from existing ones,
    /// 2. quiesce the dispatch pool — after this no `INSERT` is in flight,
    ///    and every acknowledged one has reached the engine,
    /// 3. stop the engine (reject-then-drain: all accepted rows are
    ///    processed),
    /// 4. deliver the final result windows plus an `END` marker to every
    ///    subscriber and flush every connection's pending output.
    ///
    /// Returns the final per-query counters (indexed by query id, covering
    /// dropped queries too); an error (with workers already shut down) if
    /// the engine failed to drain within its timeout.
    pub fn shutdown(mut self) -> Result<ShutdownReport> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<ShutdownReport> {
        if self.shut_down {
            return Err(SaberError::State("server already shut down".into()));
        }
        self.shut_down = true;
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let net = self.net.take();
        if let Some(net) = &net {
            // Stop accepting and reading, then wait until every decoded
            // request has been fully handled: after this no ingest is in
            // flight, and every acknowledged INSERT has reached the engine.
            net.begin_shutdown();
            net.quiesce();
        }
        // Stop the engine — reject-then-drain makes this deterministic.
        let stop_result = self.shared.state.lock().engine.stop();
        // Engine results are final; let the broadcaster flush them and
        // append END to every subscriber's outbox.
        self.shared.finish_broadcast.store(true, Ordering::SeqCst);
        self.shared.notifier.wake();
        if let Some(t) = self.broadcaster.take() {
            let _ = t.join();
        }
        // Flush the outboxes (final windows + END) and close every socket;
        // the listener closes with the event loop.
        if let Some(net) = net {
            net.shutdown(Duration::from_secs(5));
        }
        let report = {
            let st = self.shared.state.lock();
            ShutdownReport {
                queries: (0..st.engine.registered_queries())
                    .map(|i| {
                        let snap = st
                            .engine
                            .query_stats(QueryId(i))
                            .expect("stats are retained for every registered query")
                            .snapshot();
                        QueryReport {
                            tuples_in: snap.tuples_in,
                            tuples_out: snap.tuples_out,
                        }
                    })
                    .collect(),
            }
        };
        stop_result?;
        Ok(report)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shut_down {
            let _ = self.shutdown_inner();
        }
    }
}

/// Builds one protocol-level [`QueryReg`] slot around an engine handle:
/// cached ingest handles per input stream, the broadcaster's push hook, and
/// the slot table entry (indexed by the engine's id — never reused, possibly
/// sparse). Shared by `QUERY` registration and restart recovery.
fn register_query_slot(
    st: &mut State,
    notifier: &Arc<Notifier>,
    sql: String,
    input_schemas: Vec<SchemaRef>,
    handle: QueryHandle,
) -> Result<()> {
    let id = handle.id().index();
    let ingest: std::result::Result<Vec<IngestHandle>, SaberError> = (0..input_schemas.len())
        .map(|i| handle.ingest_handle(StreamId(i)))
        .collect();
    let ingest = ingest?;
    // The push hook: every closed window wakes the broadcaster, which
    // blocks on the notifier in between.
    let notifier = notifier.clone();
    handle.sink().subscribe(move |_rows| {
        notifier.wake();
    });
    if st.queries.len() <= id {
        st.queries.resize_with(id + 1, || None);
    }
    st.queries[id] = Some(QueryReg {
        sql,
        handle,
        input_schemas,
        ingest,
        subscribers: Vec::new(),
        dropped: false,
    });
    Ok(())
}

/// One reply to one request. [`execute`] answers every command with this
/// value, whichever protocol the request arrived in; [`send`] is the only
/// place that knows how each mode spells it.
enum Response {
    /// `OK <message>` / `Frame::Ok`.
    Ok(String),
    /// `ERR <category> <message>` / `Frame::Err`.
    Err(ErrCode, String),
    /// `PONG` / `Frame::Pong`.
    Pong,
    /// `BYE` / `Frame::Bye`; the connection closes once it has flushed.
    Bye,
    /// The Prometheus exposition body.
    Metrics(String),
}

/// The typed error of a failed engine call. `SaberError` categories the
/// wire has no code for (`schema`, `buffer`, `device`) are `other`.
fn saber_err(e: &SaberError) -> Response {
    Response::Err(
        ErrCode::from_category(e.category()),
        e.message().to_string(),
    )
}

/// Encodes `response` for the connection's protocol mode.
fn send(conn: &ConnHandle, response: Response) {
    match response {
        Response::Ok(message) => conn.reply_ok(&message),
        Response::Err(code, message) => conn.reply_err(code, &message),
        Response::Pong if conn.is_binary() => conn.send_frame(&Frame::Pong),
        Response::Pong => conn.send_line("PONG"),
        Response::Bye => {
            if conn.is_binary() {
                conn.send_frame(&Frame::Bye);
            } else {
                conn.send_line("BYE");
            }
            conn.close_after_flush();
        }
        Response::Metrics(text) if conn.is_binary() => {
            conn.send_frame(&Frame::MetricsText { text });
        }
        Response::Metrics(text) => {
            // Multi-line response: a sized header, the exposition body, a
            // terminator — so line-oriented clients know where it ends.
            conn.send_line(&format!("OK metrics bytes={}", text.len()));
            conn.send_bytes(text.as_bytes());
            conn.send_line("END");
        }
    }
}

/// The [`App`] gluing the SABER command surface onto the `saber_net` event
/// loop.
struct SaberApp {
    shared: Arc<Shared>,
}

impl App for SaberApp {
    fn on_request(&self, conn: &ConnHandle, request: Request) {
        // Push connections ignore further input (the subscriber contract).
        if self.shared.push_conns.lock().contains(&conn.id()) {
            return;
        }
        // Both protocols decode to one `Command`; a request that does not
        // decode is a protocol error in either.
        let command = match request {
            Request::Line(line) => parse_command(&line),
            Request::Frame(frame) => Command::from_frame(frame),
            Request::HttpGet { path } => return handle_http(&self.shared, conn, &path),
        };
        match command {
            Ok(command) => execute(&self.shared, conn, command),
            Err(message) => send(conn, Response::Err(ErrCode::Protocol, message)),
        }
    }

    fn on_disconnect(&self, conn: &ConnHandle) {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return; // the shutdown path owns subscriber state now
        }
        self.shared.push_conns.lock().remove(&conn.id());
        let mut st = self.shared.state.lock();
        for reg in st.queries.iter_mut().flatten() {
            reg.subscribers.retain(|s| s.conn.id() != conn.id());
        }
    }
}

/// Handles one HTTP scrape request ([`Request::HttpGet`]) on a dispatch
/// worker: `/metrics` serves the Prometheus text exposition, `/traces` the
/// flight recorder's recent pipeline traces. The full response is enqueued
/// and the connection closes once it has flushed (one request, one
/// response — the scrape contract).
fn handle_http(shared: &Arc<Shared>, conn: &ConnHandle, path: &str) {
    let (status, body) = match path {
        "/metrics" => ("200 OK", render_metrics(shared)),
        "/traces" => (
            "200 OK",
            shared.state.lock().engine.flight_recorder().dump_text(),
        ),
        _ => (
            "404 Not Found",
            "not found (try /metrics or /traces)\n".to_string(),
        ),
    };
    let head = format!(
        "HTTP/1.0 {status}\r\n\
         content-type: text/plain; version=0.0.4; charset=utf-8\r\n\
         content-length: {}\r\n\
         connection: close\r\n\r\n",
        body.len()
    );
    let mut response = head.into_bytes();
    response.extend_from_slice(body.as_bytes());
    conn.send_bytes(&response);
    conn.close_after_flush();
}

/// Renders the full Prometheus text exposition (format 0.0.4): server
/// uptime, engine totals, per-query counters and stage-latency histograms,
/// placement/scheduler state, durability and transport counters. Served by
/// the HTTP scrape path, the text `METRICS` verb and the binary `Metrics`
/// frame (see `docs/observability.md` for the catalog).
fn render_metrics(shared: &Arc<Shared>) -> String {
    let mut out = String::with_capacity(8192);
    let mut w = PromWriter::new(&mut out);
    w.gauge(
        "saber_uptime_seconds",
        "Seconds since the server started.",
        &[],
        shared.started.elapsed().as_secs_f64(),
    );
    // Sample under the state lock — the one every `INSERT` takes to resolve
    // its target — only what needs it; snapshotting and formatting six
    // 976-bucket histograms per live query happens after it is released.
    let st = shared.state.lock();
    let stats = st.engine.stats();
    let tuples_in = stats.total_tuples_in();
    let bytes_in = stats.total_bytes_in();
    let tuples_out = stats.total_tuples_out();
    let backpressure_wait = stats.total_backpressure_wait();
    let physical_plans = st.engine.num_physical_plans();
    let queued_tasks = st.engine.queued_tasks();
    let queued_tasks_peak = st.engine.max_queued_tasks_observed();
    let in_flight_tasks = st.engine.in_flight_tasks();
    // (id, stats block, subscribers, queue depth) per live query.
    let queries: Vec<(usize, Arc<QueryStats>, usize, usize)> = st
        .queries
        .iter()
        .enumerate()
        .filter_map(|(id, slot)| {
            let reg = slot.as_ref().filter(|reg| !reg.dropped)?;
            let qstats = st.engine.query_stats(QueryId(id))?;
            let depth = st.engine.queue_depth(QueryId(id));
            Some((id, qstats, reg.subscribers.len(), depth))
        })
        .collect();
    let placements = st.engine.placements();
    let durability = st.engine.durability_stats();
    let traces = st.engine.flight_recorder().recorded();
    drop(st);
    w.counter(
        "saber_engine_tuples_in_total",
        "Rows accepted into input buffers, across all queries ever registered.",
        &[],
        tuples_in as f64,
    );
    w.counter(
        "saber_engine_bytes_in_total",
        "Bytes accepted into input buffers.",
        &[],
        bytes_in as f64,
    );
    w.counter(
        "saber_engine_tuples_out_total",
        "Result rows emitted, across all queries.",
        &[],
        tuples_out as f64,
    );
    w.counter(
        "saber_engine_backpressure_wait_seconds_total",
        "Time producers spent blocked on the credit gate.",
        &[],
        backpressure_wait.as_secs_f64(),
    );
    w.gauge(
        "saber_queries",
        "Live registered queries.",
        &[],
        queries.len() as f64,
    );
    w.gauge(
        "saber_physical_plans",
        "Physical plan instances executing (shared plans count once).",
        &[],
        physical_plans as f64,
    );
    w.gauge(
        "saber_queued_tasks",
        "Query tasks currently queued for the scheduler.",
        &[],
        queued_tasks as f64,
    );
    w.gauge(
        "saber_queued_tasks_peak",
        "High-water mark of the task queue depth.",
        &[],
        queued_tasks_peak as f64,
    );
    w.gauge(
        "saber_in_flight_tasks",
        "Tasks dispatched to a processor and not yet returned.",
        &[],
        in_flight_tasks as f64,
    );
    for (id, qstats, subscribers, queue_depth) in queries {
        let q = id.to_string();
        let labels: [(&str, &str); 1] = [("query", q.as_str())];
        let snap = qstats.snapshot();
        w.counter(
            "saber_query_tuples_in_total",
            "Rows accepted into this query's input buffers.",
            &labels,
            snap.tuples_in as f64,
        );
        w.counter(
            "saber_query_bytes_in_total",
            "Bytes accepted into this query's input buffers.",
            &labels,
            snap.bytes_in as f64,
        );
        w.counter(
            "saber_query_tuples_out_total",
            "Result rows emitted by this query.",
            &labels,
            snap.tuples_out as f64,
        );
        w.counter(
            "saber_query_tasks_created_total",
            "Query tasks cut by the dispatcher for this query.",
            &labels,
            snap.tasks_created as f64,
        );
        w.counter(
            "saber_query_tasks_cut_early_total",
            "Of those, undersized tasks an idle worker cut for rows that had waited the early-cut age.",
            &labels,
            snap.tasks_cut_early as f64,
        );
        w.counter(
            "saber_query_exec_errors_total",
            "Tasks whose execution failed; each finished with no output.",
            &labels,
            snap.exec_errors as f64,
        );
        w.counter(
            "saber_query_tasks_total",
            "Tasks executed, by processor.",
            &[("query", q.as_str()), ("processor", "cpu")],
            snap.tasks_cpu as f64,
        );
        w.counter(
            "saber_query_tasks_total",
            "Tasks executed, by processor.",
            &[("query", q.as_str()), ("processor", "gpgpu")],
            snap.tasks_gpu as f64,
        );
        w.gauge(
            "saber_query_latency_max_seconds",
            "Worst end-to-end result latency observed.",
            &labels,
            snap.latency_max_nanos as f64 / 1e9,
        );
        w.counter(
            "saber_query_backpressure_wait_seconds_total",
            "Time this query's producers spent blocked on the credit gate.",
            &labels,
            snap.backpressure_wait().as_secs_f64(),
        );
        w.gauge(
            "saber_query_queue_depth",
            "Tasks of this query currently queued.",
            &labels,
            queue_depth as f64,
        );
        w.gauge(
            "saber_query_subscribers",
            "Connections subscribed to this query's results.",
            &labels,
            subscribers as f64,
        );
        for (stage, stage_snap) in qstats.stages.snapshots() {
            w.histogram(
                "saber_query_stage_latency_seconds",
                "Per-task pipeline stage latency (total = ingest-ack to sink-delivered).",
                &[("query", q.as_str()), ("stage", stage)],
                &stage_snap,
                1e9,
            );
        }
    }
    for d in placements {
        let q = d.query.0.to_string();
        let labels: [(&str, &str); 1] = [("query", q.as_str())];
        w.gauge(
            "saber_placement_gpu_preferred",
            "1 while the scheduler routes this query's tasks to the accelerator.",
            &labels,
            if d.preferred == Processor::Gpu {
                1.0
            } else {
                0.0
            },
        );
        w.gauge(
            "saber_placement_modeled_speedup",
            "Cost model's CPU-time / GPU-time ratio for one task.",
            &labels,
            d.modeled_speedup,
        );
        w.gauge(
            "saber_sched_task_rate",
            "Observed task throughput of the HLS matrix, by processor (tasks/s).",
            &[("query", q.as_str()), ("processor", "cpu")],
            d.cpu_rate,
        );
        w.gauge(
            "saber_sched_task_rate",
            "Observed task throughput of the HLS matrix, by processor (tasks/s).",
            &[("query", q.as_str()), ("processor", "gpgpu")],
            d.gpu_rate,
        );
    }
    if let Some(d) = durability {
        w.gauge(
            "saber_wal_bytes",
            "Framed bytes appended to the write-ahead log.",
            &[],
            d.wal_bytes as f64,
        );
        w.gauge(
            "saber_wal_segments",
            "WAL segment files currently on disk.",
            &[],
            d.wal_segments as f64,
        );
        if let Some(cp) = d.last_checkpoint {
            w.gauge(
                "saber_wal_last_checkpoint",
                "WAL position of the newest catalog snapshot.",
                &[],
                cp as f64,
            );
        }
        w.counter(
            "saber_recovery_replayed_rows_total",
            "Rows re-ingested by crash recovery at startup.",
            &[],
            d.recovery_replayed_rows as f64,
        );
    }
    w.counter(
        "saber_trace_records_total",
        "Pipeline task traces captured by the flight recorder.",
        &[],
        traces as f64,
    );
    if let Some(net) = shared.net_metrics.get() {
        w.gauge(
            "saber_net_connections",
            "Currently open connections.",
            &[],
            net.connections() as f64,
        );
        w.counter(
            "saber_net_accepted_total",
            "Connections ever accepted.",
            &[],
            net.accepted_total() as f64,
        );
        w.counter(
            "saber_net_bytes_read_total",
            "Bytes read off all sockets.",
            &[],
            net.bytes_read() as f64,
        );
        w.counter(
            "saber_net_bytes_written_total",
            "Bytes written to all sockets.",
            &[],
            net.bytes_written() as f64,
        );
        w.counter(
            "saber_net_requests_total",
            "Requests decoded and dispatched, all protocol modes.",
            &[],
            net.requests_total() as f64,
        );
        w.counter(
            "saber_net_http_requests_total",
            "HTTP scrape requests decoded.",
            &[],
            net.http_requests_total() as f64,
        );
        w.counter(
            "saber_net_quota_throttle_seconds_total",
            "Read-pause time scheduled by the per-connection row quota.",
            &[],
            net.throttle_nanos() as f64 / 1e9,
        );
        w.counter(
            "saber_net_slow_consumer_closes_total",
            "Connections dropped for falling behind on writes.",
            &[],
            net.slow_consumer_closes() as f64,
        );
        w.gauge(
            "saber_net_inflight_bytes",
            "Decoded-but-unanswered request bytes, across all connections.",
            &[],
            net.inflight_bytes() as f64,
        );
        w.gauge(
            "saber_net_outbox_bytes",
            "Pending (unwritten) output bytes, across all connections.",
            &[],
            net.outbox_bytes() as f64,
        );
    }
    out
}

/// Registers the connection as a subscriber of `query`.
///
/// The subscriber is registered *pending* first, then acked, then marked
/// ready: the broadcaster holds the query's drain back while a pending
/// subscriber exists, so a window closing between ack and readiness cannot
/// be dropped — and since only ready subscribers are pushed to (and ack and
/// rows travel the same in-order outbox), no `ROW` can precede the ack.
fn subscribe(shared: &Arc<Shared>, conn: &ConnHandle, query: usize, encoding: Encoding) {
    let encoding = if conn.is_binary() {
        SubEncoding::Binary
    } else {
        SubEncoding::Text(encoding)
    };
    // Mark the connection push-only *before* the ack goes out: once the
    // client holds an `OK subscribed`, anything further it sends is ignored
    // rather than interpreted.
    shared.push_conns.lock().insert(conn.id());
    let id = shared.next_subscriber_id.fetch_add(1, Ordering::SeqCst);
    let ready = Arc::new(AtomicBool::new(false));
    {
        let mut st = shared.state.lock();
        match st.queries.get_mut(query) {
            Some(Some(reg)) if !reg.dropped => {
                reg.subscribers.push(Subscriber {
                    id,
                    conn: conn.clone(),
                    encoding,
                    ready: ready.clone(),
                });
            }
            _ => {
                let unknown = shared.unknown_query(&st, query);
                drop(st);
                shared.push_conns.lock().remove(&conn.id());
                send(conn, unknown);
                return;
            }
        }
    }
    // Push connections get NOP keepalives and survive a read-side
    // half-close ("no more input, still receiving").
    conn.set_keepalive(true);
    send(conn, Response::Ok(format!("subscribed {query}")));
    ready.store(true, Ordering::SeqCst);
    // Windows held back while our ack was pending can flow now.
    shared.notifier.wake();
}

/// Executes one command on a dispatch worker and sends its [`Response`].
fn execute(shared: &Arc<Shared>, conn: &ConnHandle, command: Command) {
    let response = match command {
        // Acks for itself: the ack must be enqueued before the subscriber
        // turns ready.
        Command::Subscribe { query, encoding } => return subscribe(shared, conn, query, encoding),
        Command::Ping => Response::Pong,
        Command::Quit => Response::Bye,
        Command::Metrics => Response::Metrics(render_metrics(shared)),
        Command::CreateStream { name, schema } => create_stream(shared, name, schema),
        Command::Query { sql } => register_query(shared, sql),
        Command::DropQuery { query } => drop_query(shared, query),
        Command::Insert {
            query,
            stream,
            payload,
        } => insert(shared, conn, query, stream, &payload),
        Command::Flush => flush(shared),
        Command::Streams => list_streams(shared),
        Command::Queries => list_queries(shared),
        Command::Stats { query: None } => engine_stats(shared),
        Command::Stats { query: Some(query) } => query_stats(shared, query),
    };
    send(conn, response);
}

/// `CREATE STREAM`: declares (or replaces) a stream schema.
fn create_stream(shared: &Shared, name: String, schema: Schema) -> Response {
    let schema = schema.into_ref();
    // On a durable server the engine owns the catalog: declaring through it
    // logs the stream for recovery (identical redefinitions are no-ops).
    // `shared.catalog` is the same handle, so compilation sees the stream
    // either way.
    let durable = {
        let st = shared.state.lock();
        match st.engine.shared_catalog() {
            Some(_) => match st.engine.create_stream(&name, schema.clone()) {
                Ok(()) => true,
                Err(e) => return saber_err(&e),
            },
            None => false,
        }
    };
    if !durable {
        shared.catalog.register(&name, schema);
    }
    Response::Ok(format!("stream {name}"))
}

/// `QUERY`: compiles the statement and registers it on the running engine.
fn register_query(shared: &Shared, sql: String) -> Response {
    // Compile against the shared catalog *outside* the state lock.
    let query = match shared.catalog.compile(&sql) {
        Ok(q) => q,
        Err(e) => {
            return Response::Err(
                ErrCode::Query,
                format!("line {} col {}: {}", e.line(), e.column(), e.message()),
            )
        }
    };
    let input_schemas: Vec<SchemaRef> = (0..query.num_inputs())
        .map(|i| query.input_schema(i).clone())
        .collect();
    let clean_sql = sql.trim().trim_end_matches(';').to_string();
    let mut st = shared.state.lock();
    // Registration works on the running engine: queries join the live set
    // immediately, whatever traffic is already flowing. The SQL text rides
    // along so a durable engine can log the registration and restore it on
    // recovery.
    match st.engine.add_query_with_sql(query, &clean_sql) {
        Ok(handle) => {
            // Engine ids are monotonic but may skip a value if a
            // registration was abandoned; index the slot table by the
            // engine's id rather than assuming density.
            let id = handle.id().index();
            match register_query_slot(&mut st, &shared.notifier, clean_sql, input_schemas, handle) {
                Ok(()) => Response::Ok(format!("query {id}")),
                Err(e) => saber_err(&e),
            }
        }
        Err(e) => saber_err(&e),
    }
}

/// `FLUSH`: cuts every live query's pending rows into (undersized) tasks.
fn flush(shared: &Shared) -> Response {
    // Resolve per-query handles under the lock, flush outside it: flushing
    // admits tasks through the credit gate, which can block under
    // backpressure and must not stall other clients.
    let handles: Vec<QueryHandle> = {
        let st = shared.state.lock();
        st.queries
            .iter()
            .flatten()
            .filter(|reg| !reg.dropped)
            .map(|reg| reg.handle.clone())
            .collect()
    };
    for handle in &handles {
        if let Err(e) = handle.flush() {
            // A query removed between resolve and flush is not an error for
            // the caller: the removal drained it anyway.
            if matches!(e, SaberError::State(_)) {
                continue;
            }
            return saber_err(&e);
        }
    }
    Response::Ok("flushed".to_string())
}

/// `STREAMS`: lists the catalog.
fn list_streams(shared: &Shared) -> Response {
    let mut entries = Vec::new();
    for (name, schema) in shared.catalog.streams() {
        let attrs: Vec<String> = schema
            .attributes()
            .iter()
            .map(|a| format!("{}:{}", a.name(), data_type_name(a.data_type())))
            .collect();
        entries.push(format!("{name}({})", attrs.join(",")));
    }
    Response::Ok(format!("streams {}", entries.join(" ")))
}

/// `QUERIES`: lists the live queries with their SQL.
fn list_queries(shared: &Shared) -> Response {
    let st = shared.state.lock();
    let live: Vec<(usize, &QueryReg)> = st
        .queries
        .iter()
        .enumerate()
        .filter_map(|(i, q)| match q {
            Some(reg) if !reg.dropped => Some((i, reg)),
            _ => None,
        })
        .collect();
    let mut out = format!("queries {}", live.len());
    for (id, reg) in live {
        out.push_str(&format!(" [{id}] {}", reg.sql));
    }
    Response::Ok(out)
}

/// `STATS`: the engine-wide summary — uptime, totals across every query
/// (live and dropped — ids are never reused), plan count, connections.
fn engine_stats(shared: &Shared) -> Response {
    let st = shared.state.lock();
    let live = st
        .queries
        .iter()
        .flatten()
        .filter(|reg| !reg.dropped)
        .count();
    let stats = st.engine.stats();
    let connections = shared
        .net_metrics
        .get()
        .map(|m| m.connections())
        .unwrap_or(0);
    Response::Ok(format!(
        "stats uptime_secs={} queries={live} tuples_in={} tuples_out={} \
         physical_queries={} queued_tasks={} connections={connections}",
        shared.started.elapsed().as_secs(),
        stats.total_tuples_in(),
        stats.total_tuples_out(),
        st.engine.num_physical_plans(),
        st.engine.queued_tasks(),
    ))
}

/// `STATS <query>`: one query's counters.
fn query_stats(shared: &Shared, query: usize) -> Response {
    let st = shared.state.lock();
    let subscribers = match st.queries.get(query) {
        Some(Some(reg)) if !reg.dropped => reg.subscribers.len(),
        _ => return shared.unknown_query(&st, query),
    };
    let snap = st
        .engine
        .query_stats(QueryId(query))
        .expect("registered query")
        .snapshot();
    let mut line = format!(
        "stats query={query} tuples_in={} bytes_in={} tuples_out={} \
         tasks_created={} queued_tasks={} subscribers={subscribers} \
         avg_latency_us={} max_latency_us={}",
        snap.tuples_in,
        snap.bytes_in,
        snap.tuples_out,
        snap.tasks_created,
        st.engine.queue_depth(QueryId(query)),
        snap.avg_latency().as_micros(),
        snap.max_latency().as_micros(),
    );
    // Plan-sharing section: which physical plan instance this query
    // executes on and how many logical queries share it, plus the
    // engine-wide physical plan count (so clients can observe that N
    // identical QUERYs cost one plan, not N).
    if let Some((phys, members)) = st.engine.sharing_info(QueryId(query)) {
        line.push_str(&format!(" physical={} members={members}", phys.0));
    }
    line.push_str(&format!(
        " physical_queries={}",
        st.engine.num_physical_plans()
    ));
    // Durability section (engine-wide, appended on durable servers only):
    // WAL volume, checkpoint position, recovery replay count.
    if let Some(durability) = st.engine.durability_stats() {
        let last_checkpoint = match durability.last_checkpoint {
            Some(seq) => seq.to_string(),
            None => "none".to_string(),
        };
        line.push_str(&format!(
            " wal_bytes={} wal_segments={} last_checkpoint={last_checkpoint} \
             recovery_replayed_rows={}",
            durability.wal_bytes, durability.wal_segments, durability.recovery_replayed_rows
        ));
    }
    Response::Ok(line)
}

/// Resolves an `INSERT` target: the input schema and cached ingest handle.
fn resolve_insert(
    shared: &Shared,
    query: usize,
    stream: usize,
) -> std::result::Result<(SchemaRef, IngestHandle), Response> {
    let st = shared.state.lock();
    let Some(Some(reg)) = st.queries.get(query) else {
        return Err(shared.unknown_query(&st, query));
    };
    if reg.dropped {
        return Err(shared.unknown_query(&st, query));
    }
    let Some(schema) = reg.input_schemas.get(stream).cloned() else {
        return Err(Response::Err(
            ErrCode::Query,
            format!("query {query} has no input stream {stream}"),
        ));
    };
    Ok((schema, reg.ingest[stream].clone()))
}

/// Handles `INSERT` in either protocol: resolve the target under the state
/// lock, then decode and ingest *outside* it, so one client blocked on the
/// engine's credit gate never stalls the others' commands. A binary
/// frame's raw rows are validated and ingested in place — no CSV or base64
/// decode and no copy on the hot path, the point of the binary protocol.
fn insert(
    shared: &Shared,
    conn: &ConnHandle,
    query: usize,
    stream: usize,
    payload: &Payload,
) -> Response {
    // Queries are slot-stable (ids are never reused), so the resolved
    // handle stays valid across lock acquisitions; in the steady state this
    // is one short lock plus an Arc clone of the cached handle.
    let (schema, handle) = match resolve_insert(shared, query, stream) {
        Ok(target) => target,
        Err(response) => return response,
    };
    let bytes = match payload.decode(&schema) {
        Ok(bytes) => bytes,
        Err(message) => return Response::Err(ErrCode::Payload, message),
    };
    let rows = bytes.len() / schema.row_size();
    // Charge the row quota for what was decoded — the charge always
    // succeeds; over-quota connections get their *next* read delayed.
    conn.charge_rows(rows as u64);
    match handle.ingest(&bytes) {
        Ok(()) => Response::Ok(format!("rows {rows}")),
        Err(e) => saber_err(&e),
    }
}

/// Handles `DROP QUERY`: the engine-side removal runs *outside* the state
/// lock (it drains the query's in-flight rows and task backlog, which may
/// block on the workers), then the slot is marked dropped and the
/// broadcaster — woken through the notifier — delivers the final windows
/// plus `END` to the query's subscribers and clears the slot.
fn drop_query(shared: &Shared, query: usize) -> Response {
    let handle = {
        let st = shared.state.lock();
        match st.queries.get(query) {
            Some(Some(reg)) if !reg.dropped => reg.handle.clone(),
            _ => return shared.unknown_query(&st, query),
        }
    };
    // Loss-free drain: every acknowledged INSERT is reflected in the sink
    // before the query disappears. Concurrent DROPs of the same id are
    // single-shot — the loser gets a state error from the engine.
    let result = handle.remove();
    // `remove` can fail in two very different ways: losing the race to a
    // concurrent DROP (the winner finishes the lifecycle; nothing for us to
    // do) or an unclean drain timeout, after which the engine HAS
    // deregistered the query. The engine itself is the source of truth: if
    // the id is no longer live, the slot must be finalized regardless of
    // the error, or its subscribers would never receive `END` and the dead
    // query would haunt `QUERIES` forever.
    let deregistered = {
        let mut st = shared.state.lock();
        if st.engine.query(QueryId(query)).is_none() {
            if let Some(Some(reg)) = st.queries.get_mut(query) {
                reg.dropped = true;
            }
            true
        } else {
            false
        }
    };
    if deregistered {
        shared.notifier.wake();
    }
    match result {
        Ok(()) => Response::Ok(format!("dropped {query}")),
        Err(e) => saber_err(&e),
    }
}

/// One endpoint a result batch is fanned out to: subscriber id, connection
/// handle, encoding.
type FanoutTarget = (u64, ConnHandle, SubEncoding);

/// Writes one result batch to every target, encoding it at most once per
/// encoding actually in use (not once per subscriber): CSV text, base64
/// text, or one pre-encoded binary `DATA` frame. Sends are buffered (the
/// event loop flushes them), so there is no per-subscriber failure here;
/// dead connections are reaped via their disconnect callback.
fn fanout(rows: &RowBuffer, targets: &[FanoutTarget]) {
    let mut csv: Option<String> = None;
    let mut b64: Option<String> = None;
    let mut bin: Option<Vec<u8>> = None;
    for (_, conn, encoding) in targets {
        match encoding {
            SubEncoding::Text(Encoding::Csv) => {
                let text = csv.get_or_insert_with(|| format_batch(rows, Encoding::Csv));
                conn.send_bytes(text.as_bytes());
            }
            SubEncoding::Text(Encoding::B64) => {
                let text = b64.get_or_insert_with(|| format_batch(rows, Encoding::B64));
                conn.send_bytes(text.as_bytes());
            }
            SubEncoding::Binary => {
                let bytes = bin.get_or_insert_with(|| {
                    Frame::Data {
                        nrows: rows.len() as u32,
                        rows: rows.bytes().to_vec(),
                    }
                    .encode()
                });
                conn.send_bytes(bytes);
            }
        }
    }
}

/// Sends the end-of-stream marker in the subscriber's protocol and closes
/// its connection once everything has flushed.
fn send_end(sub: &Subscriber) {
    match sub.encoding {
        SubEncoding::Binary => sub.conn.send_frame(&Frame::End),
        SubEncoding::Text(_) => sub.conn.send_line("END"),
    }
    sub.conn.close_after_flush();
}

/// The result broadcaster: fans each query's closed windows out to that
/// query's subscribers, in order. Event-driven: it blocks on the
/// [`Notifier`] — woken by the sinks' push hooks, new subscriptions,
/// `DROP QUERY` and shutdown. Keepalives and dead-subscriber reaping live
/// in the net layer now (`NOP`s to keepalive connections; write failures
/// close the connection, whose disconnect callback removes the
/// subscriber). After the engine has stopped the broadcaster performs one
/// final drain, appends `END` everywhere and exits.
fn broadcast_loop(shared: Arc<Shared>) {
    loop {
        // Read the finish flag *before* draining: it is set only after the
        // engine has stopped, so a drain that observes it is final.
        let finish = shared.finish_broadcast.load(Ordering::SeqCst);
        let mut finished_queries: Vec<(RowBuffer, Vec<Subscriber>)> = Vec::new();
        let batches: Vec<(RowBuffer, Vec<FanoutTarget>)> = {
            let mut st = shared.state.lock();
            let mut out = Vec::new();
            for slot in st.queries.iter_mut() {
                let Some(reg) = slot else { continue };
                // Opportunistically drop subscribers whose connection died
                // (their disconnect callback races this loop harmlessly).
                reg.subscribers.retain(|s| !s.conn.is_closed());
                // Hold the drain back while a subscriber's ack is still in
                // flight: rows stay buffered in the sink (order preserved)
                // so a window closing right after the ack is not lost.
                // The dispatch pool is quiesced before `finish`, so no
                // subscriber is pending then.
                if reg
                    .subscribers
                    .iter()
                    .any(|s| !s.ready.load(Ordering::SeqCst))
                {
                    continue;
                }
                if reg.dropped {
                    // The engine-side removal has drained every result into
                    // the sink: deliver the final windows + END and retire
                    // the slot.
                    let rows = reg.handle.take_rows();
                    let subscribers = std::mem::take(&mut reg.subscribers);
                    finished_queries.push((rows, subscribers));
                    *slot = None;
                    continue;
                }
                // Taking swaps a freshly allocated buffer in: not worth it
                // for a sink that buffered nothing since the last pass.
                if reg.handle.sink().buffered_rows() == 0 {
                    continue;
                }
                let rows = reg.handle.take_rows();
                if rows.is_empty() || reg.subscribers.is_empty() {
                    // Windows closed before anyone subscribed are dropped;
                    // subscriptions only cover windows from that point on.
                    continue;
                }
                out.push((
                    rows,
                    reg.subscribers
                        .iter()
                        .map(|s| (s.id, s.conn.clone(), s.encoding))
                        .collect(),
                ));
            }
            out
        };
        for (rows, subscribers) in &batches {
            fanout(rows, subscribers);
        }
        // Dropped queries: final windows, END, close-after-flush. The
        // event loop delivers the remaining bytes and then closes, so the
        // client sees rows, END, EOF — in that order.
        for (rows, subscribers) in &finished_queries {
            if !rows.is_empty() {
                let targets: Vec<FanoutTarget> = subscribers
                    .iter()
                    .map(|s| (s.id, s.conn.clone(), s.encoding))
                    .collect();
                fanout(rows, &targets);
            }
            for sub in subscribers {
                send_end(sub);
            }
        }
        if finish {
            let subscribers: Vec<Subscriber> = {
                let mut st = shared.state.lock();
                st.queries
                    .iter_mut()
                    .flatten()
                    .flat_map(|reg| reg.subscribers.drain(..))
                    .collect()
            };
            for sub in &subscribers {
                send_end(sub);
            }
            return;
        }
        // Block until a sink push, subscription, drop or shutdown wakes us.
        // The bounded wait is a safety net against a lost wake, not a poll.
        shared.notifier.wait(Duration::from_millis(500));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_of_wakes_notifies_once_per_broadcaster_pass() {
        let notifier = Notifier::default();
        // 100 followers' hooks firing for one window batch: one notify.
        let notified = (0..100).filter(|_| notifier.wake()).count();
        assert_eq!(notified, 1);
        // The pending flag makes the broadcaster's wait return at once (the
        // hour is how long a lost wake would hang this test)...
        notifier.wait(Duration::from_secs(3600));
        // ...and consuming it re-arms the notification for the next burst.
        assert!(notifier.wake());
        assert!(!notifier.wake());
    }
}
