//! End-to-end acceptance test for the network frontend: several concurrent
//! TCP clients ingest into the same query, and every subscriber receives
//! results byte-identical to the in-process [`QuerySink`] path. The final
//! shutdown is deterministic: every acknowledged row is processed.
//!
//! The query is a single 4096-row tumbling-window aggregation over rows that
//! all share one timestamp, so its one result row is independent of how the
//! producers' inserts interleave — which is what makes byte-identity a
//! meaningful assertion under true concurrency.

#![allow(
    clippy::disallowed_methods,
    reason = "tests fork bare threads to race the code under test"
)]

use saber::engine::{EngineConfig, ExecutionMode, Saber};
use saber::prelude::*;
use saber::server::protocol::{b64_decode, b64_encode};
use saber::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const PRODUCERS: usize = 4;
const ROWS_PER_PRODUCER: usize = 1024;
const TOTAL_ROWS: usize = PRODUCERS * ROWS_PER_PRODUCER;
const SQL: &str = "SELECT timestamp, SUM(v) AS total, COUNT(*) AS n FROM S [ROWS 4096]";

fn engine_config() -> EngineConfig {
    EngineConfig {
        worker_threads: 2,
        query_task_size: 16 * 1024,
        execution_mode: ExecutionMode::CpuOnly,
        ..EngineConfig::default()
    }
}

fn schema() -> saber::types::schema::SchemaRef {
    Schema::from_pairs(&[
        ("timestamp", DataType::Timestamp),
        ("v", DataType::Int),
        ("k", DataType::Int),
    ])
    .unwrap()
    .into_ref()
}

/// The rows producer `p` sends: every row shares timestamp 1 (one window,
/// order-insensitive aggregates) and carries only small integer values, so
/// every partial sum is exactly representable at any accumulator width.
fn producer_rows(p: usize) -> RowBuffer {
    let mut rows = RowBuffer::new(schema());
    for i in 0..ROWS_PER_PRODUCER {
        rows.push_values(&[
            Value::Timestamp(1),
            Value::Int(((p * ROWS_PER_PRODUCER + i) % 10) as i32),
            Value::Int(p as i32),
        ])
        .unwrap();
    }
    rows
}

/// The reference: the same rows through an embedded engine and its sink.
fn in_process_result() -> Vec<u8> {
    let catalog = Catalog::new().with_stream("S", schema());
    let mut engine = Saber::with_config(engine_config()).unwrap();
    let sink = engine.add_query_sql(SQL, &catalog).unwrap();
    engine.start().unwrap();
    for p in 0..PRODUCERS {
        engine
            .ingest(QueryId(0), StreamId(0), producer_rows(p).bytes())
            .unwrap();
    }
    engine.stop().unwrap();
    let out = sink.take_rows();
    assert_eq!(out.len(), 1, "one tumbling window covering all rows");
    // COUNT(*) is the last attribute: all rows were processed.
    assert_eq!(out.to_rows()[0][2].as_i64(), TOTAL_ROWS as i64);
    out.into_bytes()
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("write");
        self.read_line()
    }

    /// Next pushed line that is not a `NOP` keepalive.
    fn read_push_line(&mut self) -> String {
        loop {
            let line = self.read_line();
            if line != "NOP" {
                return line;
            }
        }
    }

    /// Asserts the server has closed the connection: nothing but `NOP`s
    /// precede the end of the stream.
    fn expect_eof(&mut self) {
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line).expect("read") {
                0 => return,
                _ if line.trim_end() == "NOP" => continue,
                _ => panic!("expected EOF, got `{}`", line.trim_end()),
            }
        }
    }
}

/// The redesign's acceptance scenario: a second client issues `QUERY` over
/// TCP *after* rows have already been ingested, and the new query starts
/// producing windows without any restart; `DROP QUERY` then drains it
/// loss-free while the first query keeps serving.
#[test]
fn query_registered_after_ingest_produces_windows_without_restart() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: engine_config(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Client 1 declares the stream, registers a query and ingests.
    let mut first = Client::connect(addr);
    assert_eq!(
        first.send("CREATE STREAM S (timestamp TIMESTAMP, v INT, k INT)"),
        "OK stream S"
    );
    assert_eq!(first.send(&format!("QUERY {SQL}")), "OK query 0");
    let rows = producer_rows(0);
    assert_eq!(
        first.send(&format!("INSERT 0 0 B64 {}", b64_encode(rows.bytes()))),
        format!("OK rows {ROWS_PER_PRODUCER}")
    );

    // Client 2 arrives *after* the ingest and registers its own query —
    // previously this froze with an `ERR state` once the engine had started.
    let mut second = Client::connect(addr);
    assert_eq!(
        second.send("QUERY SELECT timestamp, COUNT(*) AS n FROM S [ROWS 512]"),
        "OK query 1"
    );
    let mut sub = Client::connect(addr);
    assert_eq!(sub.send("SUBSCRIBE 1"), "OK subscribed 1");

    // Data ingested from now on feeds both queries; the late query's
    // 512-row tumbling windows close twice per insert below.
    assert_eq!(
        second.send(&format!("INSERT 1 0 B64 {}", b64_encode(rows.bytes()))),
        format!("OK rows {ROWS_PER_PRODUCER}")
    );
    let mut window_rows = Vec::new();
    while window_rows.len() < 2 {
        let line = sub.read_line();
        if line == "NOP" {
            continue;
        }
        assert!(line.starts_with("ROW "), "unexpected line `{line}`");
        window_rows.push(line[4..].to_string());
    }
    // Each closed 512-row tumbling window counted exactly its 512 rows.
    assert!(window_rows[0].ends_with(",512"), "{:?}", window_rows);
    assert!(window_rows[1].ends_with(",512"), "{:?}", window_rows);

    // Drop the late query: its subscriber sees END, the first query and
    // the rest of the server keep working.
    assert_eq!(second.send("DROP QUERY 1"), "OK dropped 1");
    assert_eq!(sub.read_push_line(), "END");
    assert_eq!(
        first.send(&format!("INSERT 0 0 B64 {}", b64_encode(rows.bytes()))),
        format!("OK rows {ROWS_PER_PRODUCER}")
    );

    let report = server.shutdown().expect("clean shutdown");
    assert_eq!(report.queries.len(), 2);
    assert_eq!(report.queries[0].tuples_in, 2 * ROWS_PER_PRODUCER as u64);
    assert_eq!(report.queries[1].tuples_in, ROWS_PER_PRODUCER as u64);
    assert_eq!(report.queries[1].tuples_out, 2);
}

/// A quiet stream still delivers: two windows' worth of rows, far short of a
/// task (φ is the default 1 MB), reach the subscriber with nobody sending
/// `FLUSH` — the idle worker cuts them once they have waited the early-cut
/// age.
#[test]
fn subscriber_receives_windows_of_a_quiet_stream_without_flush() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig {
                worker_threads: 1,
                execution_mode: ExecutionMode::CpuOnly,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    assert_eq!(
        client.send("CREATE STREAM S (timestamp TIMESTAMP, v INT, k INT)"),
        "OK stream S"
    );
    assert_eq!(
        client.send("QUERY SELECT timestamp, COUNT(*) AS n FROM S [ROWS 4]"),
        "OK query 0"
    );
    let mut sub = Client::connect(addr);
    assert_eq!(sub.send("SUBSCRIBE 0"), "OK subscribed 0");
    let rows: Vec<String> = (0..8).map(|i| format!("{i},1,0")).collect();
    assert_eq!(
        client.send(&format!("INSERT 0 0 CSV {}", rows.join(";"))),
        "OK rows 8"
    );
    // Keepalive `NOP`s would keep a plain read loop alive forever if the
    // windows never came, so the wait has its own (generous) deadline.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut windows = Vec::new();
    while windows.len() < 2 {
        assert!(Instant::now() < deadline, "no windows without FLUSH");
        let line = sub.read_line();
        if line != "NOP" {
            windows.push(line);
        }
    }
    for line in &windows {
        assert!(
            line.starts_with("ROW ") && line.ends_with(",4"),
            "{windows:?}"
        );
    }
    let report = server.shutdown().expect("clean shutdown");
    assert_eq!(report.queries[0].tuples_in, 8);
    assert_eq!(report.queries[0].tuples_out, 2);
}

/// Plan sharing over the wire: two TCP clients register the *same* CQL text
/// (modulo attribute renaming) and get distinct logical query ids backed by
/// one physical plan instance — observable through `STATS`. Data inserted
/// through either id reaches both subscribers, and `DROP QUERY` by one
/// client ends its subscribers' streams but leaves the other's flowing.
#[test]
fn two_clients_same_query_share_one_physical_instance() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: engine_config(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut alice = Client::connect(addr);
    assert_eq!(
        alice.send("CREATE STREAM S (timestamp TIMESTAMP, v INT, k INT)"),
        "OK stream S"
    );
    let shape = "SELECT timestamp, COUNT(*) AS n FROM S [ROWS 512]";
    assert_eq!(alice.send(&format!("QUERY {shape}")), "OK query 0");
    // Same shape from a second client, with renamed output attributes: a
    // new logical id, but the same physical plan.
    let mut bob = Client::connect(addr);
    assert_eq!(
        bob.send("QUERY SELECT timestamp, COUNT(*) AS cnt FROM S AS src [ROWS 512]"),
        "OK query 1"
    );

    let stats0 = alice.send("STATS 0");
    let stats1 = bob.send("STATS 1");
    // One physical instance carries both logical queries.
    assert!(
        stats0.contains(" physical=0 members=2") && stats0.contains(" physical_queries=1"),
        "unexpected STATS: {stats0}"
    );
    assert!(
        stats1.contains(" physical=0 members=2") && stats1.contains(" physical_queries=1"),
        "unexpected STATS: {stats1}"
    );

    // Bob subscribes to his own id; rows inserted under *either* logical id
    // must reach him (the demultiplexer fans one physical stream out).
    let mut sub = Client::connect(addr);
    assert_eq!(sub.send("SUBSCRIBE 1"), "OK subscribed 1");
    // Alice subscribes to the anchor.
    let mut anchor_sub = Client::connect(addr);
    assert_eq!(anchor_sub.send("SUBSCRIBE 0"), "OK subscribed 0");
    let rows = producer_rows(0);
    assert_eq!(
        alice.send(&format!("INSERT 0 0 B64 {}", b64_encode(rows.bytes()))),
        format!("OK rows {ROWS_PER_PRODUCER}")
    );
    for client in [&mut sub, &mut anchor_sub] {
        for w in 0..2 {
            let line = client.read_push_line();
            assert!(
                line.starts_with("ROW ") && line.ends_with(",512"),
                "window {w}: `{line}`"
            );
        }
    }

    // Alice drops her query (the anchor). Bob's stays registered and keeps
    // streaming off the same physical plan.
    assert_eq!(alice.send("DROP QUERY 0"), "OK dropped 0");
    let stats1 = bob.send("STATS 1");
    assert!(
        stats1.contains(" physical=0 members=1") && stats1.contains(" physical_queries=1"),
        "post-drop STATS: {stats1}"
    );
    assert_eq!(
        bob.send(&format!("INSERT 1 0 B64 {}", b64_encode(rows.bytes()))),
        format!("OK rows {ROWS_PER_PRODUCER}")
    );
    for w in 0..2 {
        let line = sub.read_push_line();
        assert!(
            line.starts_with("ROW ") && line.ends_with(",512"),
            "post-drop window {w}: `{line}`"
        );
    }
    // The dropped anchor still computes those windows for Bob, but none
    // reaches its own subscriber: `END` went out before `OK dropped 0`,
    // and then the connection closed.
    assert_eq!(anchor_sub.read_push_line(), "END");
    anchor_sub.expect_eof();

    let report = server.shutdown().expect("clean shutdown");
    assert_eq!(report.queries.len(), 2);
    // Bob's logical query saw all four 512-row windows.
    assert_eq!(report.queries[1].tuples_out, 4);
}

/// `SUBSCRIBE` racing `DROP QUERY` on a query with rows flowing: each
/// subscriber is either refused as an unknown query, or acked and then
/// streamed windows, `END` and EOF — never left hanging.
#[test]
fn every_member_of_a_shared_plan_reports_the_plans_tasks_and_latency() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: engine_config(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr);
    assert_eq!(
        c.send("CREATE STREAM S (timestamp TIMESTAMP, v INT, k INT)"),
        "OK stream S"
    );
    assert_eq!(c.send(&format!("QUERY {SQL}")), "OK query 0");
    assert_eq!(c.send(&format!("QUERY {SQL}")), "OK query 1");
    // Every row goes in through the first member.
    for p in 0..PRODUCERS {
        assert_eq!(
            c.send(&format!(
                "INSERT 0 0 B64 {}",
                b64_encode(producer_rows(p).bytes())
            )),
            format!("OK rows {ROWS_PER_PRODUCER}")
        );
    }
    assert_eq!(c.send("FLUSH"), "OK flushed");
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no `{key}` in `{line}`"))
            .parse()
            .unwrap()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let line = c.send("STATS 1");
        if field(&line, "tuples_out") > 0 {
            break line;
        }
        assert!(Instant::now() < deadline, "no window closed: {line}");
        std::thread::sleep(Duration::from_millis(20));
    };
    // The second member reads its plan's task and latency figures, although
    // none of the rows came in through it.
    assert_eq!(field(&stats, "tuples_in"), 0, "{stats}");
    assert!(field(&stats, "tasks_created") > 0, "{stats}");
    assert!(field(&stats, "max_latency_us") > 0, "{stats}");

    let (_, body) = http_get(addr, "/metrics");
    let total_count = body
        .lines()
        .find_map(|l| {
            l.strip_prefix("saber_query_stage_latency_seconds_count{query=\"1\",stage=\"total\"} ")
        })
        .expect("the second member's total-stage histogram count series")
        .parse::<u64>()
        .unwrap();
    assert!(
        total_count > 0,
        "the second member reports no stage latency"
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn subscribe_racing_drop_query_ends_or_refuses_every_subscriber() {
    const SUBSCRIBERS: usize = 8;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: engine_config(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut admin = Client::connect(addr);
    assert_eq!(
        admin.send("CREATE STREAM S (timestamp TIMESTAMP, v INT, k INT)"),
        "OK stream S"
    );
    assert_eq!(
        admin.send("QUERY SELECT timestamp, COUNT(*) AS n FROM S [ROWS 64]"),
        "OK query 0"
    );

    // A producer keeps windows closing until the drop turns it away.
    let producer = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        let batch: Vec<String> = (0..64).map(|i| format!("{i},1,0")).collect();
        let insert = format!("INSERT 0 0 CSV {}", batch.join(";"));
        let mut acked = 0;
        loop {
            let reply = client.send(&insert);
            if reply.starts_with("ERR ") {
                return acked;
            }
            assert_eq!(reply, "OK rows 64");
            acked += 1;
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = admin.send("STATS 0");
        if !stats.contains(" tuples_out=0 ") {
            break;
        }
        assert!(Instant::now() < deadline, "no window closed: {stats}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let barrier = Arc::new(Barrier::new(SUBSCRIBERS + 1));
    let subscribers: Vec<_> = (0..SUBSCRIBERS)
        .map(|i| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                // Every read below is bounded by the client's read timeout.
                let mut client = Client::connect(addr);
                barrier.wait();
                let reply = client.send("SUBSCRIBE 0");
                if reply.starts_with("ERR query unknown query 0") {
                    return;
                }
                assert_eq!(reply, "OK subscribed 0", "subscriber {i}");
                loop {
                    let line = client.read_push_line();
                    if line == "END" {
                        break;
                    }
                    assert!(line.starts_with("ROW "), "subscriber {i}: `{line}`");
                }
                client.expect_eof();
            })
        })
        .collect();
    barrier.wait();
    assert_eq!(admin.send("DROP QUERY 0"), "OK dropped 0");
    for t in subscribers {
        t.join().expect("subscriber ended cleanly");
    }
    assert!(producer.join().unwrap() > 0);
    // Whichever way each race went, the query is gone for late comers.
    let mut late = Client::connect(addr);
    assert!(late
        .send("SUBSCRIBE 0")
        .starts_with("ERR query unknown query 0"));
    server.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_tcp_clients_match_the_in_process_sink_byte_for_byte() {
    let expected = in_process_result();

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: engine_config(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Set up the stream and query over one admin connection.
    let mut admin = Client::connect(addr);
    assert_eq!(
        admin.send("CREATE STREAM S (timestamp TIMESTAMP, v INT, k INT)"),
        "OK stream S"
    );
    assert_eq!(admin.send(&format!("QUERY {SQL}")), "OK query 0");

    // Two independent subscribers, registered before any data flows.
    let mut subscribers: Vec<Client> = (0..2)
        .map(|_| {
            let mut s = Client::connect(addr);
            assert_eq!(s.send("SUBSCRIBE 0 B64"), "OK subscribed 0");
            s
        })
        .collect();

    // Four concurrent TCP producers ingest into the same query, each over
    // its own connection, fully interleaved.
    let barrier = Arc::new(Barrier::new(PRODUCERS));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let rows = producer_rows(p);
                barrier.wait();
                let row_size = rows.schema().row_size();
                for chunk in rows.bytes().chunks(256 * row_size) {
                    let ack = client.send(&format!("INSERT 0 0 B64 {}", b64_encode(chunk)));
                    assert_eq!(ack, format!("OK rows {}", chunk.len() / row_size));
                }
                client.send("QUIT");
            })
        })
        .collect();
    for t in producers {
        t.join().unwrap();
    }

    // Deterministic, bounded shutdown with zero accepted-but-unprocessed
    // rows: every acknowledged row shows up in tuples_in, and the window
    // result (checked below against the reference, whose COUNT(*) asserts
    // all 4096 rows) reflects them all.
    let started = Instant::now();
    let report = server.shutdown().expect("clean shutdown");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(report.queries.len(), 1);
    assert_eq!(report.queries[0].tuples_in, TOTAL_ROWS as u64);
    assert_eq!(report.queries[0].tuples_out, 1);

    // Every subscriber received the result rows byte-identical to the
    // in-process QuerySink path, followed by END.
    for (i, sub) in subscribers.iter_mut().enumerate() {
        let mut received = Vec::new();
        loop {
            let line = sub.read_line();
            if line == "END" {
                break;
            }
            if line == "NOP" {
                continue; // keepalive; clients must ignore it
            }
            let mut parts = line.split(' ');
            assert_eq!(parts.next(), Some("DATA"), "subscriber {i}: `{line}`");
            parts.next(); // row count
            received.extend_from_slice(&b64_decode(parts.next().unwrap()).unwrap());
        }
        assert_eq!(received, expected, "subscriber {i}");
    }
}

/// A `curl`-style scrape helper: one-shot `HTTP/1.0` GET, returns
/// `(head, body)` split at the header terminator.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nhost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (head.to_string(), body.to_string())
}

/// Issue 10 acceptance: a `curl`-style fetch of `/metrics` on a live
/// server returns well-formed Prometheus text exposition including
/// per-query stage-latency histograms; `STATS` with no argument reports
/// engine-wide stats; the text `METRICS` verb returns the same exposition
/// framed by an exact byte count; unknown paths get a 404 and `/traces`
/// serves the flight recorder.
#[test]
fn http_scrape_returns_prometheus_exposition_with_stage_histograms() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: engine_config(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr);
    assert_eq!(
        c.send("CREATE STREAM S (timestamp TIMESTAMP, v INT, k INT)"),
        "OK stream S"
    );
    assert_eq!(c.send(&format!("QUERY {SQL}")), "OK query 0");
    for p in 0..PRODUCERS {
        assert_eq!(
            c.send(&format!(
                "INSERT 0 0 B64 {}",
                b64_encode(producer_rows(p).bytes())
            )),
            format!("OK rows {ROWS_PER_PRODUCER}")
        );
    }
    // Wait for the window's result row: once tuples_out is nonzero the
    // latency counters and the sink-delivered stage histograms have samples.
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no `{key}` in `{line}`"))
            .parse()
            .unwrap()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let line = c.send("STATS 0");
        if field(&line, "tuples_out") > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "no window closed: {line}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Engine-wide STATS: no argument, one summary line.
    let line = c.send("STATS");
    assert!(line.starts_with("OK stats uptime_secs="), "{line}");
    assert_eq!(field(&line, "queries"), 1, "{line}");
    assert_eq!(field(&line, "tuples_in"), TOTAL_ROWS as u64, "{line}");
    assert_eq!(field(&line, "physical_queries"), 1, "{line}");
    assert!(field(&line, "connections") >= 1, "{line}");

    // The scrape itself.
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.0 200 OK\r\n"), "{head}");
    assert!(
        head.contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length header")
        .parse()
        .unwrap();
    assert_eq!(len, body.len(), "content-length must match the body");

    // Well-formed exposition: every non-comment line is `series value`
    // with a plain-decimal float value.
    for line in body.lines() {
        if line.starts_with("# ") || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("`{line}`"));
        assert!(!series.is_empty(), "`{line}`");
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("`{line}`: {e}"));
    }
    for needle in [
        "# TYPE saber_uptime_seconds gauge",
        "# TYPE saber_query_stage_latency_seconds histogram",
        &format!("saber_engine_tuples_in_total {TOTAL_ROWS}"),
        &format!("saber_query_tuples_in_total{{query=\"0\"}} {TOTAL_ROWS}"),
        "saber_query_stage_latency_seconds_bucket{query=\"0\",stage=",
        "le=\"+Inf\"",
        "saber_net_connections",
        "saber_net_http_requests_total",
    ] {
        assert!(body.contains(needle), "missing `{needle}`");
    }
    // The per-query stage histograms are populated, not just present:
    // the end-to-end "total" stage has at least one count.
    let total_count = body
        .lines()
        .find_map(|l| {
            l.strip_prefix("saber_query_stage_latency_seconds_count{query=\"0\",stage=\"total\"} ")
        })
        .expect("total-stage histogram count series")
        .parse::<u64>()
        .unwrap();
    assert!(total_count > 0, "stage histograms recorded no tasks");

    // `/traces` serves the flight recorder; unknown paths get a 404.
    let (head, _) = http_get(addr, "/traces");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    let (head, _) = http_get(addr, "/definitely-not-here");
    assert!(head.starts_with("HTTP/1.0 404"), "{head}");

    // The text `METRICS` verb returns the same exposition, framed by an
    // exact byte count and an `END` trailer.
    let line = c.send("METRICS");
    let bytes: usize = line
        .strip_prefix("OK metrics bytes=")
        .unwrap_or_else(|| panic!("{line}"))
        .parse()
        .unwrap();
    let mut got = 0usize;
    let mut saw_uptime = false;
    while got < bytes {
        let l = c.read_line();
        got += l.len() + 1; // the exposition is newline-terminated lines
        saw_uptime |= l.starts_with("saber_uptime_seconds ");
    }
    assert_eq!(got, bytes, "body length must match the advertised count");
    assert!(saw_uptime);
    assert_eq!(c.read_line(), "END");

    server.shutdown().expect("clean shutdown");
}

/// The metric catalog in `docs/observability.md` is the live exposition's
/// family list, no more and no less: a durable server with one subscribed
/// query that has closed a window, after a dropped query took a checkpoint,
/// serves every family the doc tabulates, and tabulates every family it
/// serves.
#[test]
fn metric_catalog_matches_the_live_exposition() {
    use saber::engine::DurabilityConfig;
    use std::collections::BTreeSet;

    let dir = std::env::temp_dir().join(format!("saber-catalog-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let durability = DurabilityConfig::new(&dir);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig {
                durability: Some(durability),
                ..engine_config()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr);
    c.send("CREATE STREAM S (timestamp TIMESTAMP, v INT, k INT)");
    assert_eq!(c.send(&format!("QUERY {SQL}")), "OK query 0");
    // A differently shaped query runs its own plan, so dropping it below
    // retires that plan.
    assert_eq!(
        c.send("QUERY SELECT timestamp, v FROM S [ROWS 8]"),
        "OK query 1"
    );
    let mut subscriber = Client::connect(addr);
    assert_eq!(subscriber.send("SUBSCRIBE 0"), "OK subscribed 0");
    for p in 0..PRODUCERS {
        c.send(&format!(
            "INSERT 0 0 B64 {}",
            b64_encode(producer_rows(p).bytes())
        ));
    }
    let pushed = subscriber.read_push_line();
    assert!(pushed.starts_with("ROW "), "unexpected line `{pushed}`");
    // The checkpoint position is the last family to appear: the removal
    // that retires a plan checkpoints before it answers.
    assert_eq!(c.send("DROP QUERY 1"), "OK dropped 1");

    // `# TYPE <family> <kind>` heads every family exactly once.
    let families = |body: &str| -> BTreeSet<String> {
        body.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap().to_string())
            .collect()
    };
    let served = families(&http_get(addr, "/metrics").1);

    // The doc side: every `saber_*` name in the first column of the
    // catalog's tables, label selectors stripped.
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/observability.md"
    ))
    .unwrap();
    let catalog = doc
        .split("## Metric catalog")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("catalog section");
    let documented: BTreeSet<String> = catalog
        .lines()
        .filter(|row| row.starts_with("| `saber_"))
        .flat_map(|row| {
            let first_column = row[2..].split(" | ").next().unwrap();
            // Code spans are the odd pieces between backticks.
            first_column
                .split('`')
                .skip(1)
                .step_by(2)
                .map(|name| name.split('{').next().unwrap().to_string())
                .collect::<Vec<_>>()
        })
        .collect();

    let undocumented: Vec<_> = served.difference(&documented).collect();
    let unserved: Vec<_> = documented.difference(&served).collect();
    assert!(
        undocumented.is_empty() && unserved.is_empty(),
        "served but not in docs/observability.md: {undocumented:?}; \
         documented but not served: {unserved:?}"
    );

    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
