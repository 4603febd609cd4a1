//! saber-repl: an interactive SQL shell over the SABER engine.
//!
//! Reads statements of the SQL dialect (see `docs/sql.md`) from stdin —
//! terminated by `;` — compiles them against the workload catalog, replays a
//! synthetic slice of the referenced stream(s) through a fresh engine and
//! streams the result rows to stdout as windows close.
//!
//! ```bash
//! cargo run --release --example saber-repl
//! # or non-interactively:
//! echo 'SELECT timestamp, a2, COUNT(*) FROM Syn [ROWS 4096 SLIDE 1024] GROUP BY a2;' \
//!   | cargo run --release --example saber-repl
//! ```
//!
//! Commands: `.streams` lists the catalog, `.rows N` sets the replay size,
//! `.help` prints usage, `.quit` exits.
//!
//! ## Client mode
//!
//! With `--connect <host:port>` the repl becomes a line client for a running
//! `saber-serve` instance instead: stdin lines are sent verbatim as protocol
//! commands (`CREATE STREAM`, `QUERY`, `INSERT`, `SUBSCRIBE`, ... — see
//! `docs/server.md`) and every server line is printed as it arrives, so a
//! `SUBSCRIBE`d session streams results live. `.metrics` scrapes the
//! server's `/metrics` endpoint over a one-shot HTTP connection and
//! pretty-prints the exposition (works in both client modes).
//!
//! With `--connect <host:port> --binary` the same commands travel the
//! length-prefixed binary frame protocol instead (magic + HELLO handshake,
//! raw row payloads): stdin lines are translated to frames, replies and
//! pushed `DATA`/`END` frames are rendered back as text. `AUTH <token>`
//! authenticates against a `--auth` server; `INSERT ... B64 <payload>` is
//! decoded client-side and sent as raw rows (CSV needs the schema, which
//! only the server holds — use B64 in binary mode).

use saber::engine::{ExecutionMode, Saber, StreamId};
use saber::net::{BinaryClient, Frame};
use saber::types::{DataType, RowBuffer, TupleRef};
use saber::workloads::{cluster, linearroad, reference, smartgrid, sql, synthetic};
use std::io::{BufRead, Write};

/// Rows printed in full before the stream is summarised.
const MAX_PRINTED: usize = 40;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut connect: Option<String> = None;
    let mut binary = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                connect = Some(
                    args.next()
                        .ok_or("--connect needs an address (host:port)")?,
                );
            }
            "--binary" => binary = true,
            other => {
                return Err(format!("unknown argument `{other}` (try --connect [--binary])").into())
            }
        }
    }
    match (connect, binary) {
        (Some(addr), false) => return client_mode(&addr),
        (Some(addr), true) => return client_mode_binary(&addr),
        (None, true) => return Err("--binary requires --connect <host:port>".into()),
        (None, false) => {}
    }
    let catalog = sql::catalog();
    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    let mut rows = 200_000usize;
    let mut pending = String::new();

    if interactive {
        println!("saber-repl — SABER streaming SQL shell");
        println!("terminate statements with `;`; try `.help` or `.streams`");
    }
    prompt(interactive, &pending);
    for line in stdin.lock().lines() {
        let line = line?;
        let trimmed = line.trim();
        if pending.is_empty() && trimmed.starts_with('.') {
            match command(trimmed, &catalog, &mut rows) {
                CommandOutcome::Continue => {
                    prompt(interactive, &pending);
                    continue;
                }
                CommandOutcome::Quit => break,
            }
        }
        pending.push_str(&line);
        pending.push('\n');
        if !trimmed.ends_with(';') {
            prompt(interactive, &pending);
            continue;
        }
        let statement = std::mem::take(&mut pending);
        run_if_nonempty(&statement, &catalog, rows);
        prompt(interactive, &pending);
    }
    // EOF terminates a final statement even without `;`, so piped input
    // like `echo 'SELECT ...' | saber-repl` never silently drops it.
    run_if_nonempty(&pending, &catalog, rows);
    Ok(())
}

/// Client mode: bridge stdin and a `saber-serve` instance line-for-line.
/// A reader thread prints pushed server lines (`ROW`/`DATA`/`END`) as they
/// arrive, independently of the prompt loop.
fn client_mode(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    use std::net::TcpStream;

    let stream = TcpStream::connect(addr)?;
    eprintln!("connected to saber-serve at {addr}; lines are sent verbatim");
    eprintln!("(`QUIT` or EOF disconnects, `.metrics` scrapes; see docs/server.md for commands)");
    let reader_stream = stream.try_clone()?;
    let printer = std::thread::Builder::new()
        .name("saber-repl-printer".into())
        .spawn(move || {
            let reader = std::io::BufReader::new(reader_stream);
            for line in reader.lines() {
                match line {
                    // NOP lines are the server's subscriber keepalive — noise
                    // to a human, so the client swallows them.
                    Ok(line) if line == "NOP" => {}
                    Ok(line) => println!("{line}"),
                    Err(_) => break,
                }
            }
        })?;
    let mut writer = stream.try_clone()?;
    let mut quit = false;
    for line in std::io::stdin().lock().lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == ".metrics" {
            fetch_metrics(addr);
            continue;
        }
        writeln!(writer, "{trimmed}")?;
        if trimmed.eq_ignore_ascii_case("QUIT") || trimmed.eq_ignore_ascii_case("EXIT") {
            quit = true;
            break;
        }
    }
    if quit {
        // An explicit QUIT means leave *now* — a subscribed session's server
        // side ignores input and would otherwise keep the stream open
        // forever, so close both halves to unblock the printer.
        let _ = stream.shutdown(std::net::Shutdown::Both);
    } else {
        // On stdin EOF only half-close: the printer drains whatever the
        // server still sends (e.g. final windows + END at server shutdown)
        // and then exits.
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let _ = printer.join();
    Ok(())
}

/// Binary client mode: stdin lines are translated into protocol frames and
/// replies/pushed frames are rendered back as text, so the human-facing
/// surface matches text mode while the wire carries length-prefixed frames.
fn client_mode_binary(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let client = BinaryClient::connect(addr)?;
    eprintln!("connected to saber-serve at {addr} (binary protocol)");
    if client.auth_required() {
        eprintln!("server requires authentication — start with `AUTH <token>`");
    }
    eprintln!("(`QUIT` or EOF disconnects; commands as in docs/server.md, INSERT uses B64)");
    let writer_stream = client.stream().try_clone()?;
    let printer = std::thread::Builder::new()
        .name("saber-repl-printer".into())
        .spawn(move || {
            let mut client = client;
            loop {
                match client.recv() {
                    // NOP frames are the server's subscriber keepalive — noise
                    // to a human, so the client swallows them.
                    Ok(Frame::Nop) => {}
                    Ok(frame) => println!("{}", render_frame(&frame)),
                    Err(_) => break,
                }
            }
        })?;
    let mut writer = &writer_stream;
    let mut quit = false;
    for line in std::io::stdin().lock().lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == ".metrics" {
            fetch_metrics(addr);
            continue;
        }
        let frame = match line_to_frame(trimmed) {
            Ok(frame) => frame,
            Err(message) => {
                eprintln!("{message}");
                continue;
            }
        };
        quit = matches!(frame, Frame::Quit);
        writer.write_all(&frame.encode())?;
        if quit {
            break;
        }
    }
    if quit {
        let _ = writer_stream.shutdown(std::net::Shutdown::Both);
    } else {
        let _ = writer_stream.shutdown(std::net::Shutdown::Write);
    }
    let _ = printer.join();
    Ok(())
}

/// Translates one text command line into its binary-protocol frame.
fn line_to_frame(line: &str) -> Result<Frame, String> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().unwrap_or("").to_ascii_uppercase();
    let rest = line[verb.len().min(line.len())..].trim();
    let parse_id = |s: Option<&str>, what: &str| -> Result<u32, String> {
        s.and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| format!("usage: {what}"))
    };
    match verb.as_str() {
        "PING" => Ok(Frame::Ping),
        "QUIT" | "EXIT" => Ok(Frame::Quit),
        "AUTH" => Ok(Frame::Auth {
            token: rest.to_string(),
        }),
        "QUERY" if !rest.is_empty() => Ok(Frame::Query {
            sql: rest.to_string(),
        }),
        "QUERY" => Err("usage: QUERY <sql>".into()),
        "DROP" => {
            let mut p = rest.split_whitespace();
            if !p.next().is_some_and(|w| w.eq_ignore_ascii_case("QUERY")) {
                return Err("usage: DROP QUERY <id>".into());
            }
            Ok(Frame::DropQuery {
                query: parse_id(p.next(), "DROP QUERY <id>")?,
            })
        }
        "CREATE" => {
            let mut p = rest.splitn(2, char::is_whitespace);
            if !p.next().is_some_and(|w| w.eq_ignore_ascii_case("STREAM")) {
                return Err("usage: CREATE STREAM <name> (<attr> <TYPE>, ...)".into());
            }
            Ok(Frame::CreateStream {
                definition: p.next().unwrap_or("").trim().to_string(),
            })
        }
        "INSERT" => {
            let mut p = rest.split_whitespace();
            let query = parse_id(p.next(), "INSERT <query> <stream> B64 <payload>")?;
            let stream = parse_id(p.next(), "INSERT <query> <stream> B64 <payload>")?;
            let encoding = p.next().unwrap_or("").to_ascii_uppercase();
            let payload = p.next().unwrap_or("");
            if encoding != "B64" || payload.is_empty() {
                return Err(
                    "binary mode sends raw rows: INSERT <query> <stream> B64 <payload> \
                     (CSV needs the server-side schema; encode rows as base64)"
                        .into(),
                );
            }
            let rows = saber::server::protocol::b64_decode(payload)?;
            Ok(Frame::Insert {
                query,
                stream,
                rows,
            })
        }
        "SUBSCRIBE" => Ok(Frame::Subscribe {
            query: parse_id(rest.split_whitespace().next(), "SUBSCRIBE <query>")?,
        }),
        "FLUSH" => Ok(Frame::Flush),
        "STREAMS" => Ok(Frame::Streams),
        "QUERIES" => Ok(Frame::Queries),
        "STATS" => Ok(Frame::Stats {
            query: parse_id(rest.split_whitespace().next(), "STATS <query>")?,
        }),
        "METRICS" => Ok(Frame::Metrics),
        other => Err(format!("unknown command `{other}` (see docs/server.md)")),
    }
}

/// `.metrics` (client mode): scrape `GET /metrics` over a fresh one-shot
/// HTTP connection to the same server and pretty-print the exposition —
/// HELP/TYPE comments and `_bucket` series are folded away so a human sees
/// one `name{labels} value` line per series (quantile detail stays
/// available via `curl /metrics`).
fn fetch_metrics(addr: &str) {
    use std::io::Read;
    use std::net::TcpStream;

    let fetched = (|| -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
            })
    })();
    match fetched {
        Ok(body) => {
            let mut series = 0usize;
            for line in body.lines() {
                if line.starts_with('#') || line.contains("_bucket{") {
                    continue;
                }
                println!("{line}");
                series += 1;
            }
            eprintln!("({series} series; histogram buckets folded — `curl /metrics` for all)");
        }
        Err(e) => eprintln!("ERR metrics fetch failed: {e}"),
    }
}

/// Renders a received frame in the text protocol's vocabulary.
fn render_frame(frame: &Frame) -> String {
    match frame {
        Frame::Ok { message } => format!("OK {message}"),
        Frame::Err { code, message } => format!("ERR {} {message}", code.as_str()),
        Frame::Pong => "PONG".to_string(),
        Frame::Bye => "BYE".to_string(),
        Frame::End => "END".to_string(),
        Frame::Data { nrows, rows } => {
            format!("DATA {nrows} {}", saber::server::protocol::b64_encode(rows))
        }
        Frame::MetricsText { text } => text.trim_end().to_string(),
        other => format!("{other:?}"),
    }
}

fn run_if_nonempty(statement: &str, catalog: &saber::sql::Catalog, rows: usize) {
    if statement.trim().trim_end_matches(';').is_empty() {
        return;
    }
    if let Err(e) = run_statement(statement.trim(), catalog, rows) {
        // ParseError renders a caret diagnostic; other errors print their
        // Display form.
        println!("{e}");
    }
}

fn prompt(interactive: bool, pending: &str) {
    if interactive {
        print!(
            "{} ",
            if pending.is_empty() {
                "saber>"
            } else {
                "   ..."
            }
        );
        let _ = std::io::stdout().flush();
    }
}

/// Crude interactivity probe without libc: honour `SABER_REPL_BATCH` and
/// default to interactive behaviour (printing prompts to stdout is harmless
/// when piped).
fn atty_stdin() -> bool {
    std::env::var_os("SABER_REPL_BATCH").is_none()
}

enum CommandOutcome {
    Continue,
    Quit,
}

fn command(cmd: &str, catalog: &saber::sql::Catalog, rows: &mut usize) -> CommandOutcome {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        ".quit" | ".exit" => return CommandOutcome::Quit,
        ".streams" => {
            for (name, schema) in catalog.streams() {
                let attrs: Vec<String> = schema
                    .attributes()
                    .iter()
                    .map(|a| format!("{}:{:?}", a.name(), a.data_type()))
                    .collect();
                println!("  {name}({})", attrs.join(", "));
            }
        }
        ".rows" => match parts.next().and_then(|n| n.parse::<usize>().ok()) {
            Some(n) if n > 0 => {
                *rows = n;
                println!("replaying {n} rows per statement");
            }
            _ => println!("usage: .rows N"),
        },
        ".help" => {
            println!("statements: SELECT ... FROM <stream> [ROWS n SLIDE m | RANGE t SLIDE s]");
            println!("            [JOIN <stream> [window] ON ...] [WHERE ...]");
            println!("            [GROUP BY ...] [HAVING ...] ;");
            println!("commands:   .streams  .rows N  .help  .quit");
            println!("reference:  docs/sql.md (try the CM/SG/LRB queries there)");
        }
        other => println!("unknown command `{other}` (try `.help`)"),
    }
    CommandOutcome::Continue
}

fn run_statement(
    sql_text: &str,
    catalog: &saber::sql::Catalog,
    rows: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    // Parse first to learn the input stream names, then plan.
    let stmt = saber::sql::parse(sql_text)?;
    let mut streams = vec![stmt.from.name.clone()];
    if let Some(join) = &stmt.join {
        streams.push(join.stream.name.clone());
    }
    let query = saber::sql::plan(&stmt, "repl", catalog, sql_text)?;
    let output_schema = query.output_schema.clone();

    // Generate the replay data before starting the clock.
    let mut inputs = Vec::with_capacity(streams.len());
    for name in &streams {
        inputs.push(generate_stream(name, rows)?);
    }

    let mut engine = Saber::builder()
        .worker_threads(2)
        .query_task_size(64 * 1024)
        .execution_mode(ExecutionMode::Hybrid)
        .build()?;
    let query = engine.add_query(query)?;
    engine.start()?;

    // Header.
    let names: Vec<&str> = output_schema
        .attributes()
        .iter()
        .map(|a| a.name())
        .collect();
    println!("{}", names.join(" | "));

    // Ingest in slices, draining the sink as windows close so results
    // stream out instead of arriving in one burst at the end.
    let mut printed = 0usize;
    let mut emitted = 0u64;
    let start = std::time::Instant::now();
    for (i, data) in inputs.iter().enumerate() {
        let row_size = data.schema().row_size();
        for chunk in data.bytes().chunks(8192 * row_size) {
            query.ingest(StreamId(i), chunk)?;
            emitted += drain(query.sink(), &mut printed);
        }
    }
    engine.stop()?;
    emitted += drain(query.sink(), &mut printed);

    let elapsed = start.elapsed();
    let total: usize = inputs.iter().map(|b| b.len()).sum();
    println!(
        "-- {emitted} result rows from {total} input tuples in {elapsed:.2?} \
         ({:.2} M tuples/s)",
        total as f64 / elapsed.as_secs_f64() / 1e6
    );
    if emitted == 0 {
        println!(
            "-- hint: no windows closed; time-based windows need enough application \
             time — try `.rows 1000000` or a smaller RANGE"
        );
    }
    Ok(())
}

/// Prints newly emitted rows (up to the cap) and returns how many arrived.
fn drain(sink: &saber::engine::QuerySink, printed: &mut usize) -> u64 {
    let out = sink.take_rows();
    for t in out.iter() {
        if *printed < MAX_PRINTED {
            println!("{}", format_row(&t));
            *printed += 1;
        } else if *printed == MAX_PRINTED {
            println!("... (further rows elided; totals follow)");
            *printed += 1;
        }
    }
    out.len() as u64
}

fn format_row(t: &TupleRef<'_>) -> String {
    let schema = t.schema();
    let mut cols = Vec::with_capacity(schema.len());
    for i in 0..schema.len() {
        cols.push(match schema.data_type(i) {
            DataType::Int => t.get_i32(i).to_string(),
            DataType::Long | DataType::Timestamp => t.get_i64(i).to_string(),
            DataType::Float => format!("{:.3}", t.get_f32(i)),
            DataType::Double => format!("{:.3}", t.get_f64(i)),
        });
    }
    cols.join(" | ")
}

/// Synthesises a replay slice for the named catalog stream. Rates are set so
/// that the default replay covers ~100 s of application time, enough for the
/// paper's `[RANGE 60 SLIDE 1]`-style windows to close.
fn generate_stream(name: &str, rows: usize) -> Result<RowBuffer, String> {
    let per_second = (rows as u64 / 100).max(1);
    match name {
        "Syn" => Ok(synthetic::generate(&synthetic::schema(), rows, 42)),
        "TaskEvents" => {
            let config = cluster::TraceConfig {
                events_per_second: per_second,
                ..Default::default()
            };
            Ok(cluster::generate(&config, rows, 42, 0))
        }
        "SmartGridStr" => {
            let config = smartgrid::GridConfig {
                readings_per_second: per_second,
                ..Default::default()
            };
            Ok(smartgrid::generate(&config, rows, 42, 0))
        }
        "PosSpeedStr" => {
            let config = linearroad::RoadConfig {
                reports_per_second: per_second,
                ..Default::default()
            };
            Ok(linearroad::generate(&config, rows, 42, 0))
        }
        "SegSpeedStr" => {
            // Derived stream: run LRB1 over synthetic position reports.
            let config = linearroad::RoadConfig {
                reports_per_second: per_second,
                ..Default::default()
            };
            let raw = linearroad::generate(&config, rows, 42, 0);
            reference::run_single_input(&linearroad::lrb1(), &raw)
                .map_err(|e| format!("deriving SegSpeedStr failed: {e}"))
        }
        "LocalLoadStr" | "GlobalLoadStr" => {
            // Derived streams for SG3: replay SG2 / SG1 over a ~4000 s
            // smart-grid slice through the reference interpreter, so their
            // hour-long sliding windows close. Both use the same raw slice
            // (same seed), which keeps SG3's timestamp join aligned.
            let per_second = (rows as u64 / 4_000).max(1);
            let config = smartgrid::GridConfig {
                readings_per_second: per_second,
                ..Default::default()
            };
            let raw = smartgrid::generate(&config, rows, 42, 0);
            let query = if name == "LocalLoadStr" {
                smartgrid::sg2()
            } else {
                smartgrid::sg1()
            };
            reference::run_single_input(&query, &raw)
                .map_err(|e| format!("deriving {name} failed: {e}"))
        }
        other => Err(format!(
            "no generator for stream `{other}` — the repl can replay every \
             catalog stream (`.streams`): Syn, TaskEvents, SmartGridStr, \
             PosSpeedStr and the derived SegSpeedStr / LocalLoadStr / \
             GlobalLoadStr"
        )),
    }
}
