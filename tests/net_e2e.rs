//! End-to-end tests of the binary wire protocol against a real server:
//! mode negotiation on one listening port, binary/text subscriber byte
//! equivalence, authentication, per-client quotas, structured oversized
//! request errors, and a readiness-loop fan-out smoke test.

#![allow(
    clippy::disallowed_methods,
    reason = "tests fork bare threads to race the code under test"
)]

use saber::engine::{EngineConfig, ExecutionMode};
use saber::net::wire::{ErrCode, Frame};
use saber::net::BinaryClient;
use saber::server::protocol::{b64_decode, b64_encode};
use saber::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            worker_threads: 2,
            query_task_size: 4 * 1024,
            execution_mode: ExecutionMode::CpuOnly,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn serve(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", config).expect("bind")
}

/// `n` rows of the `(timestamp TIMESTAMP, v FLOAT)` schema as raw bytes.
fn rows(n: i64, start: i64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in start..start + n {
        bytes.extend_from_slice(&i.to_le_bytes());
        bytes.extend_from_slice(&(i as f32 * 0.5).to_le_bytes());
    }
    bytes
}

/// A tiny synchronous text-protocol client.
struct Text {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Text {
    fn connect(addr: SocketAddr) -> Text {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Text { stream, reader }
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
}

fn binary(addr: SocketAddr) -> BinaryClient {
    let client = BinaryClient::connect(addr).expect("binary connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

fn expect_ok(frame: Frame) -> String {
    match frame {
        Frame::Ok { message } => message,
        other => panic!("expected OK, got {other:?}"),
    }
}

/// One shared query, one text `B64` subscriber and one binary subscriber:
/// both observe byte-identical result windows, and both get a final `END`
/// when the query is dropped.
#[test]
fn binary_and_text_subscribers_observe_identical_windows() {
    let server = serve(config());
    let mut admin = Text::connect(server.local_addr());
    admin.send("CREATE STREAM S (timestamp TIMESTAMP, v FLOAT)");
    assert_eq!(admin.send("QUERY SELECT * FROM S [ROWS 2]"), "OK query 0");

    let mut text_sub = Text::connect(server.local_addr());
    assert_eq!(text_sub.send("SUBSCRIBE 0 B64"), "OK subscribed 0");
    let mut bin_sub = binary(server.local_addr());
    bin_sub.send(&Frame::Subscribe { query: 0 }).unwrap();
    let ack = expect_ok(bin_sub.recv_skip_nops().unwrap());
    assert_eq!(ack, "subscribed 0");

    let bytes = rows(6, 0);
    assert_eq!(
        admin.send(&format!("INSERT 0 0 B64 {}", b64_encode(&bytes))),
        "OK rows 6"
    );
    assert_eq!(admin.send("FLUSH"), "OK flushed");

    // Drain both subscribers up to the expected byte count.
    let mut from_text = Vec::new();
    while from_text.len() < bytes.len() {
        let line = text_sub.read_line();
        if line == "NOP" {
            continue;
        }
        let mut parts = line.split(' ');
        assert_eq!(parts.next(), Some("DATA"), "unexpected line `{line}`");
        parts.next().unwrap();
        from_text.extend_from_slice(&b64_decode(parts.next().unwrap()).unwrap());
    }
    let mut from_bin = Vec::new();
    let mut nrows_total = 0u64;
    while from_bin.len() < bytes.len() {
        match bin_sub.recv_skip_nops().unwrap() {
            Frame::Data { nrows, rows } => {
                nrows_total += u64::from(nrows);
                from_bin.extend_from_slice(&rows);
            }
            other => panic!("expected DATA, got {other:?}"),
        }
    }

    // The windows the text client decodes are byte-identical to the raw
    // frames the binary client receives — one fan-out, two encodings.
    assert_eq!(from_text, bytes);
    assert_eq!(from_bin, bytes);
    assert_eq!(nrows_total, 6);

    // Dropping the query ends both subscriptions deterministically.
    assert_eq!(admin.send("DROP QUERY 0"), "OK dropped 0");
    loop {
        let line = text_sub.read_line();
        if line == "END" {
            break;
        }
        assert_eq!(line, "NOP", "unexpected line `{line}`");
    }
    assert_eq!(text_sub.read_line(), ""); // write half closed after END
    assert_eq!(bin_sub.recv_skip_nops().unwrap(), Frame::End);
    assert!(bin_sub.recv_skip_nops().is_err()); // closed after END

    server.shutdown().expect("clean shutdown");
}

/// With a configured token, both protocols gate every verb except liveness
/// probes behind `AUTH`; three failures close the connection.
#[test]
fn auth_is_required_in_both_modes() {
    let mut cfg = config();
    cfg.auth_token = Some("s3cret".into());
    let server = serve(cfg);

    // Text mode: PING/QUIT are exempt, everything else is rejected with a
    // structured `ERR auth` until the right token arrives.
    let mut text = Text::connect(server.local_addr());
    assert_eq!(text.send("PING"), "PONG");
    assert!(text.send("STREAMS").starts_with("ERR auth "), "not gated");
    assert!(text.send("AUTH wrong").starts_with("ERR auth "));
    assert_eq!(text.send("AUTH s3cret"), "OK authenticated");
    assert_eq!(
        text.send("CREATE STREAM S (timestamp TIMESTAMP, v FLOAT)"),
        "OK stream S"
    );

    // Binary mode: the handshake advertises the requirement, PING is
    // exempt, commands are rejected with `ErrCode::Auth` until `AUTH`.
    let mut bin = binary(server.local_addr());
    assert!(bin.auth_required());
    bin.send(&Frame::Ping).unwrap();
    assert_eq!(bin.recv_skip_nops().unwrap(), Frame::Pong);
    bin.send(&Frame::Streams).unwrap();
    match bin.recv_skip_nops().unwrap() {
        Frame::Err { code, .. } => assert_eq!(code, ErrCode::Auth),
        other => panic!("expected ERR auth, got {other:?}"),
    }
    match bin.auth("nope").unwrap() {
        Frame::Err { code, .. } => assert_eq!(code, ErrCode::Auth),
        other => panic!("expected ERR auth, got {other:?}"),
    }
    expect_ok(bin.auth("s3cret").unwrap());
    bin.send(&Frame::Streams).unwrap();
    let listing = expect_ok(bin.recv_skip_nops().unwrap());
    assert!(
        listing.contains("S(timestamp:TIMESTAMP,v:FLOAT)"),
        "{listing}"
    );
    bin.send(&Frame::Quit).unwrap();
    assert_eq!(bin.recv_skip_nops().unwrap(), Frame::Bye);
    assert!(bin.recv_skip_nops().is_err()); // closed after BYE

    // Three failed attempts close the connection.
    let mut stubborn = Text::connect(server.local_addr());
    assert!(stubborn.send("AUTH a").starts_with("ERR auth "));
    assert!(stubborn.send("AUTH b").starts_with("ERR auth "));
    assert!(stubborn.send("AUTH c").starts_with("ERR auth "));
    assert_eq!(stubborn.read_line(), ""); // connection closed

    server.shutdown().expect("clean shutdown");
}

/// A client that ingests past its row quota is throttled via paused reads
/// (no data lost), while an unrelated connection stays responsive.
#[test]
fn quota_throttles_hot_client_without_degrading_others() {
    let mut cfg = config();
    cfg.quota_rows_per_sec = Some(500);
    cfg.quota_burst_rows = 250;
    let server = serve(cfg);
    let addr = server.local_addr();

    let mut admin = Text::connect(addr);
    admin.send("CREATE STREAM S (timestamp TIMESTAMP, v FLOAT)");
    assert_eq!(
        admin.send("QUERY SELECT * FROM S [ROWS 1024]"),
        "OK query 0"
    );

    // Hot producer: 4 × 250 rows back-to-back. The burst covers the first
    // 250; the remaining 750 drain at 500 rows/s, so the final ack cannot
    // arrive before ~1 s of throttling.
    let hot = std::thread::spawn(move || {
        let mut producer = Text::connect(addr);
        let started = Instant::now();
        for batch in 0..4i64 {
            let payload = b64_encode(&rows(250, batch * 250));
            assert_eq!(
                producer.send(&format!("INSERT 0 0 B64 {payload}")),
                "OK rows 250"
            );
        }
        started.elapsed()
    });

    // Meanwhile the admin connection must stay snappy: the quota pauses
    // only the hot connection's reads, not the shared event loop.
    let mut worst = Duration::ZERO;
    let probe_until = Instant::now() + Duration::from_millis(600);
    while Instant::now() < probe_until {
        let sent = Instant::now();
        assert_eq!(admin.send("PING"), "PONG");
        worst = worst.max(sent.elapsed());
        std::thread::sleep(Duration::from_millis(25));
    }

    let hot_elapsed = hot.join().expect("producer thread");
    assert!(
        hot_elapsed >= Duration::from_millis(600),
        "hot client finished in {hot_elapsed:?}; quota did not throttle"
    );
    assert!(
        worst < Duration::from_millis(300),
        "admin PING took {worst:?} while another client was throttled"
    );

    // Throttling is backpressure, not loss: every row was accepted.
    let stats = admin.send("STATS 0");
    assert!(stats.contains("tuples_in=1000"), "{stats}");

    server.shutdown().expect("clean shutdown");
}

/// Oversized requests get a structured protocol error naming the limit —
/// not a silent drop — in both modes, then the connection closes (framing
/// cannot resynchronise).
#[test]
fn oversized_requests_get_structured_errors_in_both_modes() {
    let mut cfg = config();
    cfg.max_line_bytes = 64;
    let server = serve(cfg);

    let mut text = Text::connect(server.local_addr());
    let reply = text.send(&"X".repeat(200));
    assert!(reply.starts_with("ERR protocol "), "{reply}");
    assert!(reply.contains("64-byte limit"), "{reply}");
    assert_eq!(text.read_line(), ""); // connection closed

    let mut bin = binary(server.local_addr());
    bin.send(&Frame::Query {
        sql: "SELECT ".repeat(32),
    })
    .unwrap();
    match bin.recv_skip_nops().unwrap() {
        Frame::Err { code, message } => {
            assert_eq!(code, ErrCode::Protocol);
            assert!(message.contains("limit"), "{message}");
        }
        other => panic!("expected ERR protocol, got {other:?}"),
    }
    assert!(bin.recv_skip_nops().is_err()); // connection closed

    server.shutdown().expect("clean shutdown");
}

/// Fan-out smoke test for the readiness loop: one window reaches a crowd
/// of concurrent binary subscribers byte-identically (no per-connection
/// threads to exhaust).
#[test]
fn a_crowd_of_binary_subscribers_all_receive_the_same_window() {
    let server = serve(config());
    let mut admin = Text::connect(server.local_addr());
    admin.send("CREATE STREAM S (timestamp TIMESTAMP, v FLOAT)");
    assert_eq!(admin.send("QUERY SELECT * FROM S [ROWS 2]"), "OK query 0");

    let mut subs = Vec::new();
    for _ in 0..64 {
        let mut sub = binary(server.local_addr());
        sub.send(&Frame::Subscribe { query: 0 }).unwrap();
        assert_eq!(expect_ok(sub.recv_skip_nops().unwrap()), "subscribed 0");
        subs.push(sub);
    }

    let bytes = rows(4, 0);
    assert_eq!(
        admin.send(&format!("INSERT 0 0 B64 {}", b64_encode(&bytes))),
        "OK rows 4"
    );
    assert_eq!(admin.send("FLUSH"), "OK flushed");

    for sub in &mut subs {
        let mut received = Vec::new();
        while received.len() < bytes.len() {
            match sub.recv_skip_nops().unwrap() {
                Frame::Data { rows, .. } => received.extend_from_slice(&rows),
                other => panic!("expected DATA, got {other:?}"),
            }
        }
        assert_eq!(received, bytes);
    }

    assert_eq!(admin.send("DROP QUERY 0"), "OK dropped 0");
    for sub in &mut subs {
        assert_eq!(sub.recv_skip_nops().unwrap(), Frame::End);
    }

    server.shutdown().expect("clean shutdown");
}

/// The binary `Metrics` frame returns the Prometheus exposition as a
/// `MetricsText` frame — same body the HTTP scrape serves — and the net
/// transport counters in it reflect this very connection.
#[test]
fn binary_metrics_frame_returns_exposition_text() {
    let server = serve(config());
    let addr = server.local_addr();

    let mut client = binary(addr);
    client.send(&Frame::Metrics).expect("send metrics");
    let text = match client.recv_skip_nops().expect("metrics reply") {
        Frame::MetricsText { text } => text,
        other => panic!("expected MetricsText, got {other:?}"),
    };
    for needle in [
        "# TYPE saber_uptime_seconds gauge",
        "saber_net_connections 1",
        "saber_net_requests_total",
    ] {
        assert!(text.contains(needle), "missing `{needle}`");
    }

    server.shutdown().expect("clean shutdown");
}

/// What a client observes of one reply, whichever protocol carried it.
#[derive(Debug, PartialEq)]
enum Reply {
    Ok(String),
    Err(ErrCode, String),
    Pong,
    Bye,
}

impl Reply {
    fn from_line(line: &str) -> Reply {
        if let Some(message) = line.strip_prefix("OK ") {
            Reply::Ok(message.to_string())
        } else if let Some(rest) = line.strip_prefix("ERR ") {
            let (category, message) = rest.split_once(' ').unwrap_or((rest, ""));
            Reply::Err(ErrCode::from_category(category), message.to_string())
        } else {
            match line {
                "PONG" => Reply::Pong,
                "BYE" => Reply::Bye,
                other => panic!("unexpected text reply `{other}`"),
            }
        }
    }

    fn from_frame(frame: Frame) -> Reply {
        match frame {
            Frame::Ok { message } => Reply::Ok(message),
            Frame::Err { code, message } => Reply::Err(code, message),
            Frame::Pong => Reply::Pong,
            Frame::Bye => Reply::Bye,
            other => panic!("unexpected reply frame {other:?}"),
        }
    }

    /// Blanks the `STATS` values that depend on how far the workers have
    /// got, so two servers can be compared.
    fn without_timing(self) -> Reply {
        let Reply::Ok(message) = self else {
            return self;
        };
        let fields: Vec<String> = message
            .split(' ')
            .map(|field| match field.split_once('=') {
                Some((
                    key @ ("tuples_out" | "queued_tasks" | "avg_latency_us" | "max_latency_us"),
                    _,
                )) => format!("{key}=_"),
                _ => field.to_string(),
            })
            .collect();
        Reply::Ok(fields.join(" "))
    }
}

/// Every verb, sent as a text line to one fresh server and as a frame to
/// another: the two clients observe the same `(ok | code, message)` —
/// both protocols decode to one command and are answered from one typed
/// response.
#[test]
fn every_verb_is_answered_identically_in_both_modes() {
    let good = rows(4, 0);
    let ragged = vec![0u8; 15];
    let insert = |query: u32, stream: u32, bytes: &[u8]| {
        (
            format!("INSERT {query} {stream} B64 {}", b64_encode(bytes)),
            Frame::Insert {
                query,
                stream,
                rows: bytes.to_vec(),
            },
        )
    };
    let query = |sql: &str| {
        (
            format!("QUERY {sql}"),
            Frame::Query {
                sql: sql.to_string(),
            },
        )
    };
    let create = |definition: &str| {
        (
            "CREATE STREAM ".to_string() + definition,
            Frame::CreateStream {
                definition: definition.to_string(),
            },
        )
    };
    // (verb, the error it must draw if any, its line and its frame).
    let q = Some(ErrCode::Query);
    let verbs: Vec<(&str, Option<ErrCode>, (String, Frame))> = vec![
        (
            "create stream",
            None,
            create("S (timestamp TIMESTAMP, v FLOAT)"),
        ),
        (
            "create stream, bad type",
            Some(ErrCode::Protocol),
            create("T (x BLOB)"),
        ),
        ("query", None, query("SELECT * FROM S [ROWS 2]")),
        ("query, bad sql", q, query("SELECT FROM")),
        ("insert", None, insert(0, 0, &good)),
        (
            "insert, bad row size",
            Some(ErrCode::Payload),
            insert(0, 0, &ragged),
        ),
        ("insert, unknown query", q, insert(7, 0, &good)),
        ("insert, bad stream index", q, insert(0, 3, &good)),
        ("flush", None, ("FLUSH".into(), Frame::Flush)),
        ("streams", None, ("STREAMS".into(), Frame::Streams)),
        ("queries", None, ("QUERIES".into(), Frame::Queries)),
        ("stats", None, ("STATS 0".into(), Frame::Stats { query: 0 })),
        (
            "stats, unknown query",
            q,
            ("STATS 7".into(), Frame::Stats { query: 7 }),
        ),
        (
            "drop",
            None,
            ("DROP QUERY 0".into(), Frame::DropQuery { query: 0 }),
        ),
        (
            "drop, already dropped",
            q,
            ("DROP QUERY 0".into(), Frame::DropQuery { query: 0 }),
        ),
        ("ping", None, ("PING".into(), Frame::Ping)),
        ("quit", None, ("QUIT".into(), Frame::Quit)),
    ];

    let text_server = serve(config());
    let binary_server = serve(config());
    let mut text = Text::connect(text_server.local_addr());
    let mut bin = binary(binary_server.local_addr());
    for (verb, error, (line, frame)) in verbs {
        let from_text = Reply::from_line(&text.send(&line)).without_timing();
        bin.send(&frame).expect("send frame");
        let from_binary =
            Reply::from_frame(bin.recv_skip_nops().expect("reply frame")).without_timing();
        assert_eq!(from_text, from_binary, "`{verb}` differs between modes");
        // The table exercises what it claims to: the error paths draw an
        // error of the right kind, the rest succeed.
        let drew = match &from_binary {
            Reply::Err(code, _) => Some(*code),
            _ => None,
        };
        assert_eq!(drew, error, "`{verb}` answered {from_binary:?}");
    }

    text_server.shutdown().expect("clean shutdown");
    binary_server.shutdown().expect("clean shutdown");
}

/// A binary `Query` frame may carry a multi-line statement. It is stored
/// and echoed verbatim to binary clients, but a text reply is one line: a
/// raw newline would split `QUERIES` and leave the tail to answer the
/// client's next request.
#[test]
fn multi_line_sql_cannot_split_a_text_reply() {
    let server = serve(config());
    let mut admin = Text::connect(server.local_addr());
    admin.send("CREATE STREAM S (timestamp TIMESTAMP, v FLOAT)");

    let sql = "SELECT *\r\nFROM S [ROWS 2]";
    let mut bin = binary(server.local_addr());
    bin.send(&Frame::Query { sql: sql.into() }).unwrap();
    assert_eq!(expect_ok(bin.recv_skip_nops().unwrap()), "query 0");

    assert_eq!(
        admin.send("QUERIES"),
        "OK queries 1 [0] SELECT *  FROM S [ROWS 2]"
    );
    assert_eq!(admin.send("PING"), "PONG");

    bin.send(&Frame::Queries).unwrap();
    assert_eq!(
        expect_ok(bin.recv_skip_nops().unwrap()),
        format!("queries 1 [0] {sql}")
    );

    server.shutdown().expect("clean shutdown");
}
