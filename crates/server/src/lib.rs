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
//! Result delivery rides the result stage: every query's
//! [`QuerySink`](saber_engine::QuerySink) carries one callback that, on the
//! worker releasing a batch of closed windows, encodes the batch at most
//! once per encoding in use and appends it to the query's subscribers'
//! outboxes, where the event loop's write-interest scheduling takes over.
//! No result row is buffered in the server, and no thread sits between the
//! sink and the socket.
//!
//! [`Server::shutdown`] is deterministic and loss-free, built on the
//! engine's reject-then-drain `stop()` semantics: it stops accepting and
//! reading, quiesces the dispatch pool (so no ingest is in flight), stops
//! the engine (every acknowledged row is processed and its windows pushed),
//! then sends an `END` marker to all subscribers.
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
use saber_types::sync::Mutex;
use saber_types::{Result, RowBuffer, SaberError, Schema};
use std::collections::HashSet;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
///
/// Durability is configured through the embedded engine:
/// `config.engine.durability` (see
/// [`DurabilityConfig`](saber_engine::DurabilityConfig) and
/// `docs/persistence.md`). With it set, [`Server::bind`] *recovers* from the
/// directory when it holds state from a previous run — same query ids,
/// replayed result windows — and otherwise starts fresh. The engine
/// checkpoints when a `DROP QUERY` retires a plan and at shutdown.
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
/// re-resolves nor re-allocates), and its subscriber list.
struct QueryReg {
    sql: String,
    handle: QueryHandle,
    input_schemas: Vec<SchemaRef>,
    ingest: Vec<IngestHandle>,
    /// Shared with the sink callback `hook`, which fans every appended
    /// batch out to it.
    subscribers: Arc<Mutex<Subscribers>>,
    /// The sink subscription id of that callback.
    hook: u64,
}

impl QueryReg {
    /// Ends the query's subscriptions once every window it will deliver has
    /// been appended (after `remove` or the engine's `stop`): marks the list
    /// closed, sends `END` to each subscriber and closes its connection once
    /// flushed, then unhooks the sink callback (which holds a clone of the
    /// sink, so the hook would otherwise keep the sink alive forever).
    fn end_subscriptions(&self) {
        {
            let mut subscribers = self.subscribers.lock();
            subscribers.closed = true;
            for sub in subscribers.list.drain(..) {
                match sub.encoding {
                    SubEncoding::Binary => sub.conn.send_frame(&Frame::End),
                    SubEncoding::Text(_) => sub.conn.send_line("END"),
                }
                sub.conn.close_after_flush();
            }
        }
        self.handle.sink().unsubscribe(self.hook);
    }
}

/// One query's subscribers.
#[derive(Default)]
struct Subscribers {
    /// Set once `END` has gone out: the list stays empty and `SUBSCRIBE`
    /// answers "unknown query".
    closed: bool,
    list: Vec<Subscriber>,
}

/// A result subscriber: a handle to its connection plus its encoding.
struct Subscriber {
    conn: ConnHandle,
    encoding: SubEncoding,
}

struct State {
    engine: Saber,
    /// Indexed by query id; `None` marks a dropped query's retired slot.
    queries: Vec<Option<QueryReg>>,
}

struct Shared {
    state: Mutex<State>,
    catalog: SharedCatalog,
    /// Set first during shutdown: tells disconnect callbacks not to touch
    /// subscriber state the shutdown path owns.
    shutting_down: AtomicBool,
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
            .filter_map(|(i, q)| q.as_ref().map(|_| i.to_string()))
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
            shutting_down: AtomicBool::new(false),
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
                register_query_slot(&mut st, rq.sql.clone(), input_schemas, handle)?;
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
        Ok(Server {
            shared,
            net: Some(net),
            local_addr,
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
    ///    processed, and the sink callbacks push every final result window
    ///    to its subscribers),
    /// 4. send an `END` marker to every subscriber and flush every
    ///    connection's pending output.
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
        // Stop the engine — reject-then-drain makes this deterministic, and
        // the sink callbacks have pushed every final window once it returns.
        let stop_result = {
            let mut st = self.shared.state.lock();
            let stopped = st.engine.stop();
            for reg in st.queries.iter().flatten() {
                reg.end_subscriptions();
            }
            stopped
        };
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
                        // Ids burnt without a registration (a failed one, or
                        // one a previous run removed) report zeros.
                        let snap = st
                            .engine
                            .query_stats(QueryId(i))
                            .map(|stats| stats.snapshot())
                            .unwrap_or_default();
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
/// cached ingest handles per input stream, the sink callback that pushes
/// results to subscribers, and the slot table entry (indexed by the
/// engine's id — never reused, possibly sparse). Shared by `QUERY`
/// registration and restart recovery.
fn register_query_slot(
    st: &mut State,
    sql: String,
    input_schemas: Vec<SchemaRef>,
    handle: QueryHandle,
) -> Result<()> {
    let id = handle.id().index();
    let ingest: std::result::Result<Vec<IngestHandle>, SaberError> = (0..input_schemas.len())
        .map(|i| handle.ingest_handle(StreamId(i)))
        .collect();
    let ingest = ingest?;
    // Results leave through the callback only: the sink keeps no rows, and
    // whatever recovery replay or registration already buffered goes.
    let sink = handle.sink();
    sink.stop_retaining();
    drop(sink.take_rows());
    let subscribers = Arc::new(Mutex::new(Subscribers::default()));
    let hook = {
        let subscribers = subscribers.clone();
        sink.subscribe(move |rows| fanout(rows, &subscribers.lock().list))
    };
    if st.queries.len() <= id {
        st.queries.resize_with(id + 1, || None);
    }
    st.queries[id] = Some(QueryReg {
        sql,
        handle,
        input_schemas,
        ingest,
        subscribers,
        hook,
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
        let st = self.shared.state.lock();
        for reg in st.queries.iter().flatten() {
            let mut subscribers = reg.subscribers.lock();
            subscribers.list.retain(|s| s.conn.id() != conn.id());
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
    let (_, backpressure_wait) = st.engine.backpressure_stats();
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
            let reg = slot.as_ref()?;
            let qstats = st.engine.query_stats(QueryId(id))?;
            let depth = st.engine.queue_depth(QueryId(id));
            Some((id, qstats, reg.subscribers.lock().list.len(), depth))
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
/// The ack is enqueued under the query's subscriber-list lock and the
/// subscriber pushed before it is released: every window appended after the
/// ack reaches the subscriber, and since ack and rows travel the same
/// in-order outbox, no `ROW` can precede the ack.
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
    let list = {
        let st = shared.state.lock();
        st.queries
            .get(query)
            .and_then(Option::as_ref)
            .map(|reg| reg.subscribers.clone())
    };
    let subscribed = list.is_some_and(|list| {
        let mut subscribers = list.lock();
        if subscribers.closed {
            return false; // dropped: END has gone out already
        }
        // Push connections get NOP keepalives and survive a read-side
        // half-close ("no more input, still receiving").
        conn.set_keepalive(true);
        send(conn, Response::Ok(format!("subscribed {query}")));
        // A connection closed before this lock was taken has had its
        // disconnect sweep already; pushing it would leave it behind.
        if !conn.is_closed() {
            subscribers.list.push(Subscriber {
                conn: conn.clone(),
                encoding,
            });
        }
        true
    });
    if !subscribed {
        shared.push_conns.lock().remove(&conn.id());
        let unknown = shared.unknown_query(&shared.state.lock(), query);
        send(conn, unknown);
    }
}

/// Executes one command on a dispatch worker and sends its [`Response`].
fn execute(shared: &Arc<Shared>, conn: &ConnHandle, command: Command) {
    let response = match command {
        // Acks for itself, under the subscriber-list lock.
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
            match register_query_slot(&mut st, clean_sql, input_schemas, handle) {
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
        .filter_map(|(i, q)| q.as_ref().map(|reg| (i, reg)))
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
    let live = st.queries.iter().flatten().count();
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
        Some(Some(reg)) => reg.subscribers.lock().list.len(),
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
/// block on the workers, and the sink callback pushes the final windows as
/// they drain); then the slot is cleared and the query's subscribers get
/// `END` — all before the `OK dropped` reply.
fn drop_query(shared: &Shared, query: usize) -> Response {
    let handle = {
        let st = shared.state.lock();
        match st.queries.get(query) {
            Some(Some(reg)) => reg.handle.clone(),
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
    let removed = {
        let mut st = shared.state.lock();
        match st.engine.query(QueryId(query)) {
            Some(_) => None,
            None => st.queries.get_mut(query).and_then(Option::take),
        }
    };
    if let Some(reg) = removed {
        reg.end_subscriptions();
    }
    match result {
        Ok(()) => Response::Ok(format!("dropped {query}")),
        Err(e) => saber_err(&e),
    }
}

/// Writes one result batch to every subscriber, encoding it at most once
/// per encoding actually in use (not once per subscriber): CSV text, base64
/// text, or one pre-encoded binary `DATA` frame. Sends are buffered (the
/// event loop flushes them), so there is no per-subscriber failure here;
/// dead connections are reaped via their disconnect callback.
fn fanout(rows: &RowBuffer, subscribers: &[Subscriber]) {
    let mut csv: Option<String> = None;
    let mut b64: Option<String> = None;
    let mut bin: Option<Vec<u8>> = None;
    for Subscriber { conn, encoding } in subscribers {
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

#[cfg(test)]
mod tests {
    use super::*;
    use saber_engine::{DurabilityConfig, ExecutionMode};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::path::Path;

    /// A one-worker server, durable over `dir`, and a text client of it.
    fn bind_durable(dir: &Path) -> (Server, BufReader<TcpStream>) {
        let config = ServerConfig {
            engine: EngineConfig {
                worker_threads: 1,
                query_task_size: 1024,
                execution_mode: ExecutionMode::CpuOnly,
                durability: Some(DurabilityConfig::new(dir)),
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        (server, BufReader::new(stream))
    }

    /// Sends one text command and returns its reply line.
    fn send(client: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(client.get_mut(), "{line}").unwrap();
        let mut reply = String::new();
        client.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    /// Waits until query 0's sink has emitted `rows` result rows in all,
    /// then asserts that it holds none of them.
    fn assert_no_rows_kept(server: &Server, rows: u64) {
        let sink = server.shared.state.lock().engine.sink(QueryId(0)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while sink.tuples_emitted() < rows {
            assert!(Instant::now() < deadline, "windows never closed");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sink.buffered_rows(), 0);
    }

    #[test]
    fn registered_and_recovered_queries_keep_no_result_rows() {
        let dir = std::env::temp_dir().join(format!("saber-server-no-rows-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A [ROWS 4] projection emits one result row per input row.
        let insert = format!(
            "INSERT 0 0 CSV {}",
            (0..64)
                .map(|i| format!("{i},0.5"))
                .collect::<Vec<_>>()
                .join(";")
        );

        // A live query with no subscriber.
        let (server, mut client) = bind_durable(&dir);
        assert_eq!(
            send(&mut client, "CREATE STREAM S (ts TIMESTAMP, v FLOAT)"),
            "OK stream S"
        );
        assert_eq!(
            send(&mut client, "QUERY SELECT ts, v FROM S [ROWS 4]"),
            "OK query 0"
        );
        assert_eq!(send(&mut client, &insert), "OK rows 64");
        assert_no_rows_kept(&server, 64);
        server.shutdown().unwrap();

        // The same query recovered over the same directory: neither its
        // 64 replayed rows nor 64 new ones stay behind.
        let (server, mut client) = bind_durable(&dir);
        assert_no_rows_kept(&server, 64);
        assert_eq!(send(&mut client, &insert), "OK rows 64");
        assert_no_rows_kept(&server, 128);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
