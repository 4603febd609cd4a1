//! The network driver: `Server::bind` in this process on loopback, one
//! producer connection written by the generator thread, one subscriber
//! connection, and a receiver thread that reads both (result pushes and
//! insert acks) off one epoll set.

use crate::gen::{sleep_until, Pool, Schedule, ROW};
use crate::host::{CacheSweep, Housekeeping};
use crate::inproc::wait_for;
use crate::procstat;
use crate::run::{
    paced_wall, watch_paced_phase, BatchLog, Clock, History, Received, RunConfig, Statements,
    DRAIN_TIMEOUT,
};
use crate::scrape::{stage_delta, Scrape};
use crate::spec::{Transport, SYN_DEFINITION};
use crate::trace::Layers;
use saber::engine::{DurabilityConfig, EngineConfig, ExecutionMode, FsyncPolicy};
use saber::net::os::{Event, Events, Poller};
use saber::net::wire::{self, Decoded, Frame};
use saber::net::BinaryClient;
use saber::server::protocol::format_csv_row;
use saber::server::{Server, ServerConfig};
use saber::types::schema::SchemaRef;
use saber::types::{DataType, TupleRef, Value};
use saber::workloads::synthetic;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

const MAX_FRAME: usize = 64 << 20;
const SUBSCRIBER: u64 = 0;
const PRODUCER: u64 = 1;

/// Bytes read off a socket and not yet consumed as frames or lines.
#[derive(Default)]
struct ReadBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl ReadBuf {
    /// One `read` call; `Ok(0)` is end of stream.
    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > (1 << 20) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (256 << 10), 0);
        let n = match stream.read(&mut self.buf[len..]) {
            Ok(n) => n,
            Err(e) => {
                self.buf.truncate(len);
                return Err(e);
            }
        };
        self.buf.truncate(len + n);
        Ok(n)
    }

    fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        match wire::decode_frame(&self.buf[self.pos..], MAX_FRAME) {
            Ok(Decoded::Frame(frame, used)) => {
                self.pos += used;
                Ok(Some(frame))
            }
            Ok(Decoded::Incomplete) => Ok(None),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.message())),
        }
    }

    fn next_line(&mut self) -> Option<&str> {
        let rest = &self.buf[self.pos..];
        let end = rest.iter().position(|b| *b == b'\n')?;
        let start = self.pos;
        self.pos += end + 1;
        std::str::from_utf8(&self.buf[start..start + end])
            .ok()
            .map(|l| l.trim_end_matches('\r'))
    }
}

/// A connection in one of the server's two protocols, blocking, used for
/// set-up exchanges; the hot paths take its parts.
struct Conn {
    stream: TcpStream,
    rbuf: ReadBuf,
    binary: bool,
}

impl Conn {
    fn connect(addr: SocketAddr, binary: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DRAIN_TIMEOUT))?;
        let mut conn = Conn {
            stream,
            rbuf: ReadBuf::default(),
            binary,
        };
        if binary {
            conn.stream.write_all(&wire::MAGIC)?;
            let hello = Frame::Hello {
                max_version: wire::PROTOCOL_VERSION,
            };
            conn.stream.write_all(&hello.encode())?;
            match conn.recv_frame()? {
                Frame::HelloAck { .. } => {}
                other => return Err(io::Error::other(format!("handshake: {other:?}"))),
            }
        }
        Ok(conn)
    }

    fn recv_frame(&mut self) -> io::Result<Frame> {
        loop {
            match self.rbuf.next_frame()? {
                Some(Frame::Nop) => {}
                Some(frame) => return Ok(frame),
                None => {
                    if self.rbuf.fill(&mut self.stream)? == 0 {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                }
            }
        }
    }

    fn recv_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.rbuf.next_line() {
                if line != "NOP" {
                    return Ok(line.to_string());
                }
            } else if self.rbuf.fill(&mut self.stream)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
    }

    /// One request in this connection's protocol; the `OK` message or an
    /// error carrying the server's refusal.
    fn request(&mut self, frame: Frame, line: &str) -> io::Result<String> {
        if self.binary {
            self.stream.write_all(&frame.encode())?;
            match self.recv_frame()? {
                Frame::Ok { message } => Ok(message),
                other => Err(io::Error::other(format!("{line}: {other:?}"))),
            }
        } else {
            writeln!(self.stream, "{line}")?;
            let reply = self.recv_line()?;
            match reply.strip_prefix("OK ") {
                Some(message) => Ok(message.to_string()),
                None => Err(io::Error::other(format!("{line}: {reply}"))),
            }
        }
    }
}

/// Parses one `ROW v1,v2,...` payload into row bytes of `schema`.
fn encode_csv_row(schema: &SchemaRef, csv: &str, out: &mut Vec<u8>) -> Option<()> {
    let mut values = Vec::with_capacity(schema.len());
    for (i, field) in csv.split(',').enumerate() {
        values.push(match schema.data_type(i) {
            DataType::Int => Value::Int(field.parse().ok()?),
            DataType::Long => Value::Long(field.parse().ok()?),
            DataType::Float => Value::Float(field.parse().ok()?),
            DataType::Double => Value::Double(field.parse().ok()?),
            DataType::Timestamp => Value::Timestamp(field.parse().ok()?),
        });
    }
    schema.encode_row(&values, out).ok()
}

struct Receiving<'a> {
    binary: bool,
    clock: Clock,
    out_schema: SchemaRef,
    seen: &'a AtomicU64,
    /// Acks read so far, for the coordinator.
    acked: &'a AtomicU64,
    received: Received,
    /// Set when the server's `END` arrives: nothing follows it.
    ended: &'a AtomicBool,
}

impl Receiving<'_> {
    /// Consumes whatever complete pushes `rbuf` holds, all stamped `t_ns`.
    fn on_subscriber(&mut self, rbuf: &mut ReadBuf, t_ns: u64) -> io::Result<()> {
        if self.binary {
            while let Some(frame) = rbuf.next_frame()? {
                match frame {
                    Frame::Data { rows, .. } => self.deliver(t_ns, &rows),
                    Frame::End => self.ended.store(true, Ordering::SeqCst),
                    _ => {}
                }
            }
        } else {
            let mut rows = Vec::new();
            while let Some(line) = rbuf.next_line() {
                if let Some(csv) = line.strip_prefix("ROW ") {
                    if encode_csv_row(&self.out_schema, csv, &mut rows).is_none() {
                        self.received.garbled += 1;
                    }
                } else if line == "END" {
                    self.ended.store(true, Ordering::SeqCst);
                }
            }
            if !rows.is_empty() {
                self.deliver(t_ns, &rows);
            }
        }
        Ok(())
    }

    fn deliver(&mut self, t_ns: u64, rows: &[u8]) {
        let checker = &mut self.received.checkers[0];
        checker.on_batch(t_ns, rows);
        // relaxed-ok: a progress counter the coordinator polls.
        self.seen.store(checker.windows_seen(), Ordering::Relaxed);
        self.received.deliveries += 1;
    }

    fn on_producer(&mut self, rbuf: &mut ReadBuf, t_ns: u64) -> io::Result<()> {
        if self.binary {
            while let Some(frame) = rbuf.next_frame()? {
                match frame {
                    Frame::Ok { .. } => self.received.ack_ns.push(t_ns),
                    Frame::Err { .. } => {
                        self.received.ack_ns.push(t_ns);
                        self.received.err_acks += 1;
                    }
                    _ => {}
                }
            }
        } else {
            while let Some(line) = rbuf.next_line() {
                if line.starts_with("OK") {
                    self.received.ack_ns.push(t_ns);
                } else if line.starts_with("ERR") {
                    self.received.ack_ns.push(t_ns);
                    self.received.err_acks += 1;
                }
            }
        }
        // relaxed-ok: a progress counter the coordinator polls.
        self.acked
            .store(self.received.ack_ns.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// The receiver thread: result pushes and insert acks off one epoll set. The
/// subscriber socket arrives over `subscribers` once it is subscribed (at
/// once normally, at the paced phase's start with the late-subscriber fault).
fn receive(
    mut state: Receiving<'_>,
    mut acks: TcpStream,
    subscribers: Receiver<(TcpStream, ReadBuf)>,
    stop: &AtomicBool,
) -> io::Result<Received> {
    let mut poller = Poller::new()?;
    poller.add(acks.as_raw_fd(), Events::IN, PRODUCER)?;
    let mut ack_buf = ReadBuf::default();
    let mut subscriber: Option<(TcpStream, ReadBuf)> = None;
    let mut events: Vec<Event> = Vec::new();
    // SeqCst: the flag is set once, after the server has shut down.
    while !stop.load(Ordering::SeqCst) {
        if subscriber.is_none() {
            if let Ok((stream, mut rbuf)) = subscribers.try_recv() {
                poller.add(stream.as_raw_fd(), Events::IN, SUBSCRIBER)?;
                state.on_subscriber(&mut rbuf, state.clock.now_ns())?;
                subscriber = Some((stream, rbuf));
            }
        }
        events.clear();
        poller.wait(Some(20), &mut events)?;
        for event in &events {
            let (stream, rbuf) = match (event.token, subscriber.as_mut()) {
                (SUBSCRIBER, Some((stream, rbuf))) => (stream, rbuf),
                _ => (&mut acks, &mut ack_buf),
            };
            let n = rbuf.fill(stream)?;
            let t_ns = state.clock.now_ns();
            if n == 0 {
                // Peer closed: nothing more will come from this socket.
                poller.remove(stream.as_raw_fd())?;
                continue;
            }
            if event.token == SUBSCRIBER {
                state.on_subscriber(rbuf, t_ns)?;
            } else {
                state.on_producer(rbuf, t_ns)?;
            }
        }
        if !events.is_empty() {
            state.received.cpu[0].record(state.clock.now_ns());
        }
    }
    Ok(state.received)
}

/// Builds the `Insert` frame or `INSERT` line for one batch.
pub struct Encoder {
    transport: Transport,
    schema: SchemaRef,
    rows: Vec<u8>,
    out: Vec<u8>,
}

impl Encoder {
    pub fn new(transport: Transport) -> Encoder {
        Encoder {
            transport,
            schema: synthetic::schema(),
            rows: Vec::new(),
            out: Vec::new(),
        }
    }

    /// What the producer writes for `batch` (whole `Syn` rows): the encoded
    /// frame, or the line with its newline.
    pub fn encode(&mut self, batch: &[u8]) -> &[u8] {
        self.out.clear();
        if self.transport == Transport::NetBinary {
            let mut rows = std::mem::take(&mut self.rows);
            rows.clear();
            rows.extend_from_slice(batch);
            let frame = Frame::Insert {
                query: 0,
                stream: 0,
                rows,
            };
            frame.encode_into(&mut self.out);
            if let Frame::Insert { rows, .. } = frame {
                self.rows = rows;
            }
        } else {
            self.out.extend_from_slice(b"INSERT 0 0 CSV ");
            for (i, row) in batch.chunks_exact(ROW).enumerate() {
                if i > 0 {
                    self.out.push(b';');
                }
                let csv = format_csv_row(&TupleRef::new(&self.schema, row));
                self.out.extend_from_slice(csv.as_bytes());
            }
            self.out.push(b'\n');
        }
        &self.out
    }
}

/// Per-connection cap on decoded-but-unanswered request bytes. The default
/// (4 MB, an eighth of a second of `net_binary_wal`) turns any hiccup into a
/// read pause of the producer, and a paused producer resumes on the server's
/// 500 ms housekeeping grid (ROADMAP item 1) and never catches up: the rest
/// of the run measures that stall mode, not the path. With room for two
/// seconds of input a hiccup queues, shows in a slice or two, and drains.
const MAX_INFLIGHT_BYTES: usize = 64 << 20;

/// The WAL as `DurabilityConfig::new` sets it up (2 ms group commit, 8 MB
/// segments) but without forced fsync: on this box's virtual disk an fsync
/// stalls for 100 ms and more at random, which swells the group-commit
/// buffer by tens of MB and made two runs in five outliers in RSS or
/// latency — the disk's behaviour, not the program's. Append, group commit
/// and the write syscalls stay on the path; `store.sync_ms` still times a
/// forced sync in isolation.
fn wal_config(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Never,
        ..DurabilityConfig::new(dir)
    }
}

/// A directory for the WAL inside the benchmark's own results directory,
/// removed when the run ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(results_dir: &Path) -> io::Result<ScratchDir> {
        let dir = results_dir.join(format!("tmp-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn scrape(conn: &mut BinaryClient) -> io::Result<Scrape> {
    conn.send(&Frame::Metrics)?;
    match conn.recv_skip_nops()? {
        Frame::MetricsText { text } => Ok(Scrape::parse(&text)),
        other => Err(io::Error::other(format!("metrics: {other:?}"))),
    }
}

fn subscribe(addr: SocketAddr, binary: bool, query: usize) -> io::Result<(TcpStream, ReadBuf)> {
    let mut conn = Conn::connect(addr, binary)?;
    conn.request(
        Frame::Subscribe {
            query: query as u32,
        },
        &format!("SUBSCRIBE {query} CSV"),
    )?;
    conn.stream.set_read_timeout(None)?;
    Ok((conn.stream, conn.rbuf))
}

pub fn run(
    cfg: &RunConfig,
    pool: &mut Pool,
    layers: &mut Layers,
    results_dir: &Path,
) -> io::Result<History> {
    let workload = cfg.workload;
    let binary = workload.transport == Transport::NetBinary;
    let statements = Statements::compile(workload);
    let plan = cfg.batch_plan();
    let clock = Clock::start();

    // ---- set-up: server, stream, statements, connections.
    let setup_started = Instant::now();
    let scratch = workload
        .wal
        .then(|| ScratchDir::create(results_dir))
        .transpose()?;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig {
                worker_threads: 1,
                execution_mode: ExecutionMode::CpuOnly,
                durability: scratch.as_ref().map(|dir| wal_config(&dir.0)),
                ..EngineConfig::default()
            },
            max_inflight_bytes: MAX_INFLIGHT_BYTES,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| io::Error::other(e.to_string()))?;
    let addr = server.local_addr();
    let mut admin = Conn::connect(addr, binary)?;
    admin.request(
        Frame::CreateStream {
            definition: SYN_DEFINITION.into(),
        },
        &format!("CREATE STREAM {SYN_DEFINITION}"),
    )?;
    let register_started = Instant::now();
    let sql = workload.queries[0];
    for _ in 0..workload.copies {
        admin.request(Frame::Query { sql: sql.into() }, &format!("QUERY {sql}"))?;
    }
    layers.set(
        "server.query_register_ms",
        register_started.elapsed().as_secs_f64() * 1e3,
    );
    let watched = workload.copies - 1;
    let (subscriber_tx, subscriber_rx) = mpsc::channel();
    if !cfg.late_subscriber {
        let _ = subscriber_tx.send(subscribe(addr, binary, watched)?);
    }
    let mut producer = Conn::connect(addr, binary)?.stream;
    let acks = producer.try_clone()?;
    acks.set_read_timeout(None)?;
    let mut metrics = cfg.trace.then(|| BinaryClient::connect(addr)).transpose()?;

    let (seen, acked) = (AtomicU64::new(0), AtomicU64::new(0));
    let (stop, ended) = (AtomicBool::new(false), AtomicBool::new(false));
    let receiving = Receiving {
        binary,
        clock,
        out_schema: statements.shapes[0].out_schema.clone(),
        seen: &seen,
        acked: &acked,
        received: Received::new(statements.checkers()),
        ended: &ended,
    };
    let (schedule_tx, schedule_rx) = mpsc::channel::<(Instant, Instant)>();
    let mut setup_s = 0.0;
    let mut paced_edges = Vec::new();

    let (log, received) = std::thread::scope(|scope| -> io::Result<_> {
        // Whatever ends this closure — an error included — releases the
        // receiver, which the scope joins on the way out.
        let _release = StopOnDrop(&stop);
        let (seen, stop) = (&seen, &stop);
        let receiver = scope.spawn(move || receive(receiving, acks, subscriber_rx, stop));
        let generator = scope.spawn(move || -> io::Result<(BatchLog, Instant)> {
            let mut log = BatchLog::default();
            let mut encoder = Encoder::new(workload.transport);
            let mut send = |k: u64, due: Option<Instant>, log: &mut BatchLog| -> io::Result<()> {
                let payload = encoder.encode(pool.batch(k));
                if let Some(due) = due {
                    sleep_until(due);
                }
                let sent = Instant::now();
                producer.write_all(payload)?;
                // Over a socket everything this thread burns is the
                // benchmark's own.
                log.own_cpu_ns
                    .push(procstat::thread_cpu().as_nanos() as u64);
                log.due_ns.push(clock.ns(due.unwrap_or(sent)));
                log.sent_ns.push(clock.ns(sent));
                log.done_ns.push(clock.now_ns());
                Ok(())
            };
            for k in 0..plan.setup {
                send(k, None, &mut log)?;
            }
            if !cfg.late_subscriber {
                // relaxed-ok: progress counter.
                wait_for(DRAIN_TIMEOUT, || seen.load(Ordering::Relaxed) > 0);
            }
            let setup_done = Instant::now();
            if cfg.setup_only {
                return Ok((log, setup_done));
            }
            let schedule = Schedule::new(
                setup_done + Duration::from_millis(2),
                workload.paced_rows_per_s,
                workload.batch_rows,
            );
            let _ = schedule_tx.send((
                schedule.due(plan.warm),
                schedule.due(plan.warm + plan.paced),
            ));
            for i in 0..plan.warm + plan.paced {
                send(plan.setup + i, Some(schedule.due(i)), &mut log)?;
            }
            log.thread_cpu = procstat::thread_cpu();
            Ok((log, setup_done))
        });

        // ---- coordinator: CPU and metrics at the paced phase's edges.
        let mut edge_scrapes = Vec::new();
        if let Ok((paced_start, paced_end)) = schedule_rx.recv() {
            // The WAL grows by 32 MB a second; its finished segments leave
            // the page cache as the run goes, warm-up included (see `host`).
            let mut housekeeping = Housekeeping {
                sweep: scratch.as_ref().map(|dir| CacheSweep::new(&dir.0)),
                ..Housekeeping::default()
            };
            housekeeping.until(paced_start);
            if cfg.late_subscriber {
                let _ = subscriber_tx.send(subscribe(addr, binary, watched)?);
            }
            if let Some(conn) = metrics.as_mut() {
                edge_scrapes.push(scrape(conn)?);
            }
            paced_edges = watch_paced_phase(clock, paced_start, paced_end, &mut housekeeping);
            if let Some(conn) = metrics.as_mut() {
                edge_scrapes.push(scrape(conn)?);
            }
        }
        let (log, setup_done) = generator.join().expect("generator thread")?;
        setup_s = (setup_done - setup_started).as_secs_f64();

        // ---- wind down: once every insert is acked (so none is still on
        // its way to the ring), cut the tail task and wait for its windows.
        if !cfg.setup_only {
            // relaxed-ok: progress counters.
            wait_for(DRAIN_TIMEOUT, || {
                acked.load(Ordering::Relaxed) >= log.batches()
            });
            admin.request(Frame::Flush, "FLUSH")?;
            let total_rows = log.batches() * workload.batch_rows as u64;
            let expected = statements.shapes[0].complete_windows(total_rows);
            if !wait_for(DRAIN_TIMEOUT, || seen.load(Ordering::Relaxed) >= expected) {
                eprintln!(
                    "[{}] windows still missing after the drain timeout",
                    workload.name
                );
            }
        }
        if let (Some(conn), [before, after]) = (metrics.as_mut(), edge_scrapes.as_slice()) {
            let last = scrape(conn)?;
            let wall = paced_wall(&paced_edges);
            let paced_s = (wall.1 - wall.0) as f64 / 1e9;
            let paced_rows = (plan.paced * workload.batch_rows as u64) as f64;
            let gained = |name: &str| after.sum(name, &[]) - before.sum(name, &[]);
            layers.set(
                "engine.backpressure_wait_share",
                gained("saber_engine_backpressure_wait_seconds_total") / paced_s.max(1e-9),
            );
            layers.set(
                "engine.tasks_total",
                last.sum("saber_query_tasks_created_total", &[]),
            );
            layers.set(
                "engine.queue_depth_peak",
                last.sum("saber_queued_tasks_peak", &[]),
            );
            layers.set(
                "engine.physical_plans",
                last.sum("saber_physical_plans", &[]),
            );
            layers.set_stages(&stage_delta(&before.stages("0"), &after.stages("0")));
            layers.set(
                "net.bytes_read_per_row",
                gained("saber_net_bytes_read_total") / paced_rows,
            );
            layers.set(
                "net.bytes_written_per_row",
                gained("saber_net_bytes_written_total") / paced_rows,
            );
            layers.set(
                "store.wal_bytes_per_row",
                gained("saber_wal_bytes") / paced_rows,
            );
        }
        drop(metrics);
        server
            .shutdown()
            .map_err(|e| io::Error::other(e.to_string()))?;
        // The receiver stops once it has read END off its socket (a late
        // subscriber that never got one is not waited for long).
        wait_for(Duration::from_secs(1), || ended.load(Ordering::SeqCst));
        stop.store(true, Ordering::SeqCst);
        let received = receiver.join().expect("receiver thread")?;
        Ok((log, received))
    })?;
    drop(scratch);

    let acks_expected = Some(log.batches());
    Ok(History {
        statements,
        plan,
        log,
        received,
        paced_edges,
        setup_s,
        acks_expected,
    })
}
