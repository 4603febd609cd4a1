//! The command surface and the text protocol: newline-delimited, length-safe
//! framing.
//!
//! Both wire modes decode to one [`Command`]: text lines through
//! [`parse_command`], binary frames through [`Command::from_frame`]. Every
//! text request is one line (capped at
//! [`ServerConfig::max_line_bytes`](crate::ServerConfig::max_line_bytes) so a
//! misbehaving client cannot grow server memory without bound), and every
//! response is one line. Row payloads travel either as human-friendly CSV or
//! as base64-encoded raw row bytes — the exact fixed-width little-endian
//! layout of [`saber_types::RowBuffer`] — so binary clients pay no
//! parse/format cost and subscribers can verify byte-identical results.
//!
//! See `docs/server.md` for the full protocol reference. This module is pure
//! parsing/formatting: it never touches a socket except through the generic
//! [`read_line_capped`] helper.

use saber_net::wire::Frame;
use saber_types::{DataType, RowBuffer, Schema, TupleRef};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, BufRead};

/// How a subscriber wants result rows encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// One `ROW v1,v2,...` line per result row.
    Csv,
    /// One `DATA <nrows> <base64>` line per result batch (raw row bytes).
    B64,
}

/// An `INSERT` payload, decoded lazily once the target schema is known.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// CSV rows: fields separated by `,`, rows separated by `;`.
    Csv(String),
    /// Base64 of raw row bytes (length must be a multiple of the row size).
    B64(String),
    /// The raw row bytes of a binary `Insert` frame (same length rule).
    Raw(Vec<u8>),
}

impl Payload {
    /// Decodes the payload into raw row bytes for `schema`; a
    /// [`Payload::Raw`] is validated and borrowed, never copied.
    pub fn decode(&self, schema: &Schema) -> Result<Cow<'_, [u8]>, String> {
        let bytes = match self {
            Payload::Csv(text) => return decode_csv_rows(schema, text).map(Cow::Owned),
            Payload::B64(text) => Cow::Owned(b64_decode(text)?),
            Payload::Raw(bytes) => Cow::Borrowed(bytes.as_slice()),
        };
        if bytes.is_empty() {
            return Err("empty payload".into());
        }
        if !bytes.len().is_multiple_of(schema.row_size()) {
            return Err(format!(
                "payload is {} bytes, not a multiple of the {}-byte row size",
                bytes.len(),
                schema.row_size()
            ));
        }
        Ok(bytes)
    }
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `CREATE STREAM <name> (<attr> <TYPE>, ...)` — register a stream.
    CreateStream {
        /// Stream name as registered in the catalog.
        name: String,
        /// Declared schema.
        schema: Schema,
    },
    /// `QUERY <sql>` — compile and register a query (at any point in the
    /// server's life: the engine's query set is dynamic).
    Query {
        /// The SQL text (rest of the line).
        sql: String,
    },
    /// `DROP QUERY <id>` — drain the query loss-free and deregister it. Its
    /// subscribers receive the final windows followed by `END`.
    DropQuery {
        /// Target query id.
        query: usize,
    },
    /// `INSERT <query> <stream> CSV|B64 <payload>` — ingest rows.
    Insert {
        /// Target query id.
        query: usize,
        /// Target input stream index of that query.
        stream: usize,
        /// The row payload.
        payload: Payload,
    },
    /// `SUBSCRIBE <query> [CSV|B64]` — stream result windows to this client.
    Subscribe {
        /// Source query id.
        query: usize,
        /// Requested row encoding (default CSV).
        encoding: Encoding,
    },
    /// `FLUSH` — cut partially filled stream batches into (undersized)
    /// tasks so pending rows reach subscribers without waiting for a full
    /// task's worth of data.
    Flush,
    /// `STREAMS` — list the registered streams.
    Streams,
    /// `QUERIES` — list the registered queries.
    Queries,
    /// `STATS [<query>]` — per-query ingest/emit counters, or (without an
    /// argument) engine-wide totals.
    Stats {
        /// Query id; `None` asks for the engine-wide summary.
        query: Option<usize>,
    },
    /// `METRICS` — the full Prometheus-text metrics exposition (the same
    /// body the HTTP scrape path serves).
    Metrics,
    /// `PING` — liveness probe.
    Ping,
    /// `QUIT` — close the connection.
    Quit,
}

/// Parses one request line. Errors are plain strings, reported to the client
/// as `ERR protocol <msg>`.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    let (verb, rest) = split_word(line);
    match verb.to_ascii_uppercase().as_str() {
        "CREATE" => {
            let (noun, rest) = split_word(rest);
            if !noun.eq_ignore_ascii_case("STREAM") {
                return Err(format!("expected CREATE STREAM, found CREATE {noun}"));
            }
            parse_create_stream(rest)
        }
        "QUERY" => {
            if rest.is_empty() {
                return Err("QUERY needs a SQL statement on the same line".into());
            }
            Ok(Command::Query {
                sql: rest.to_string(),
            })
        }
        "DROP" => {
            let (noun, rest) = split_word(rest);
            if !noun.eq_ignore_ascii_case("QUERY") {
                return Err(format!("expected DROP QUERY, found DROP {noun}"));
            }
            let (query, extra) = split_word(rest);
            if !extra.trim().is_empty() {
                return Err(format!(
                    "unexpected trailing input `{extra}` after DROP QUERY"
                ));
            }
            Ok(Command::DropQuery {
                query: parse_index(query, "query id after DROP QUERY")?,
            })
        }
        "INSERT" => parse_insert(rest),
        "SUBSCRIBE" => {
            let (query, rest) = split_word(rest);
            let query = parse_index(query, "query id after SUBSCRIBE")?;
            let encoding = match rest.trim() {
                "" => Encoding::Csv,
                e if e.eq_ignore_ascii_case("CSV") => Encoding::Csv,
                e if e.eq_ignore_ascii_case("B64") => Encoding::B64,
                other => return Err(format!("unknown encoding `{other}` (CSV or B64)")),
            };
            Ok(Command::Subscribe { query, encoding })
        }
        "FLUSH" => Ok(Command::Flush),
        "STREAMS" => Ok(Command::Streams),
        "QUERIES" => Ok(Command::Queries),
        "STATS" => {
            let (query, _) = split_word(rest);
            if query.is_empty() {
                Ok(Command::Stats { query: None })
            } else {
                Ok(Command::Stats {
                    query: Some(parse_index(query, "query id after STATS")?),
                })
            }
        }
        "METRICS" => Ok(Command::Metrics),
        "PING" => Ok(Command::Ping),
        "QUIT" | "EXIT" => Ok(Command::Quit),
        "" => Err("empty line".into()),
        other => Err(format!(
            "unknown command `{other}` (CREATE STREAM, QUERY, DROP QUERY, INSERT, \
             SUBSCRIBE, FLUSH, STREAMS, QUERIES, STATS, METRICS, PING, QUIT)"
        )),
    }
}

impl Command {
    /// Maps one binary-protocol request frame onto the command surface the
    /// text protocol parses to. Errors are reported like [`parse_command`]'s.
    pub fn from_frame(frame: Frame) -> Result<Command, String> {
        Ok(match frame {
            Frame::CreateStream { definition } => parse_create_stream(&definition)?,
            Frame::Query { sql } => Command::Query { sql },
            Frame::DropQuery { query } => Command::DropQuery {
                query: query as usize,
            },
            Frame::Insert {
                query,
                stream,
                rows,
            } => Command::Insert {
                query: query as usize,
                stream: stream as usize,
                payload: Payload::Raw(rows),
            },
            // Binary subscribers always receive `Data` frames of raw row
            // bytes; the encoding only selects between the text renderings.
            Frame::Subscribe { query } => Command::Subscribe {
                query: query as usize,
                encoding: Encoding::B64,
            },
            Frame::Flush => Command::Flush,
            Frame::Streams => Command::Streams,
            Frame::Queries => Command::Queries,
            Frame::Stats { query } => Command::Stats {
                query: Some(query as usize),
            },
            Frame::Metrics => Command::Metrics,
            Frame::Ping => Command::Ping,
            Frame::Quit => Command::Quit,
            // Server-to-client and handshake frames are not valid requests.
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::Auth { .. }
            | Frame::Ok { .. }
            | Frame::Err { .. }
            | Frame::Pong
            | Frame::Bye
            | Frame::Data { .. }
            | Frame::End
            | Frame::MetricsText { .. }
            | Frame::Nop => return Err("frame type is not a client request".into()),
        })
    }
}

fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim_start()),
        None => (s, ""),
    }
}

fn parse_index(word: &str, what: &str) -> Result<usize, String> {
    word.parse::<usize>()
        .map_err(|_| format!("expected a {what}, found `{word}`"))
}

/// Parses `<name> (<attr> <TYPE>, ...)`.
fn parse_create_stream(rest: &str) -> Result<Command, String> {
    let open = rest
        .find('(')
        .ok_or("CREATE STREAM needs an attribute list: CREATE STREAM name (a TYPE, ...)")?;
    let name = rest[..open].trim();
    if name.is_empty() || !is_ident(name) {
        return Err(format!("invalid stream name `{name}`"));
    }
    let close = rest
        .rfind(')')
        .ok_or("unclosed attribute list (missing `)`)")?;
    if close < open || !rest[close + 1..].trim().is_empty() {
        return Err("malformed attribute list".into());
    }
    let mut attrs = Vec::new();
    for part in rest[open + 1..close].split(',') {
        let part = part.trim();
        let (attr, ty) = split_word(part);
        if attr.is_empty() || ty.is_empty() {
            return Err(format!(
                "attribute `{part}` must be `<name> <TYPE>` (types: INT, LONG, \
                 FLOAT, DOUBLE, TIMESTAMP)"
            ));
        }
        if !is_ident(attr) {
            return Err(format!("invalid attribute name `{attr}`"));
        }
        attrs.push((attr.to_string(), parse_data_type(ty)?));
    }
    let pairs: Vec<(&str, DataType)> = attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pairs).map_err(|e| e.message().to_string())?;
    Ok(Command::CreateStream {
        name: name.to_string(),
        schema,
    })
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_data_type(ty: &str) -> Result<DataType, String> {
    Ok(match ty.to_ascii_uppercase().as_str() {
        "INT" => DataType::Int,
        "LONG" => DataType::Long,
        "FLOAT" => DataType::Float,
        "DOUBLE" => DataType::Double,
        "TIMESTAMP" => DataType::Timestamp,
        other => {
            return Err(format!(
                "unknown type `{other}` (INT, LONG, FLOAT, DOUBLE, TIMESTAMP)"
            ))
        }
    })
}

/// The canonical spelling of a data type in `STREAMS` listings.
pub fn data_type_name(ty: DataType) -> &'static str {
    match ty {
        DataType::Int => "INT",
        DataType::Long => "LONG",
        DataType::Float => "FLOAT",
        DataType::Double => "DOUBLE",
        DataType::Timestamp => "TIMESTAMP",
    }
}

fn parse_insert(rest: &str) -> Result<Command, String> {
    let (query, rest) = split_word(rest);
    let query = parse_index(query, "query id after INSERT")?;
    let (stream, rest) = split_word(rest);
    let stream = parse_index(stream, "stream index after the query id")?;
    let (enc, data) = split_word(rest);
    if data.is_empty() {
        return Err("INSERT needs a payload: INSERT <query> <stream> CSV|B64 <rows>".into());
    }
    let payload = match enc.to_ascii_uppercase().as_str() {
        "CSV" => Payload::Csv(data.to_string()),
        "B64" => Payload::B64(data.to_string()),
        other => return Err(format!("unknown payload encoding `{other}` (CSV or B64)")),
    };
    Ok(Command::Insert {
        query,
        stream,
        payload,
    })
}

/// Decodes `;`-separated CSV rows into raw row bytes for `schema`, in one
/// pass: each field is parsed where it lies in `text` and its little-endian
/// bytes are written at its offset in the row. The grammar is in
/// `docs/server.md`.
fn decode_csv_rows(schema: &Schema, text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    let row_size = schema.row_size();
    let mut out = Vec::new();
    let mut pos = 0;
    let mut r = 0;
    while pos <= bytes.len() {
        let row_start = out.len();
        out.resize(row_start + row_size, 0);
        let mut fields = 0;
        // The first field that failed to parse; reported only once the row
        // is known to have the right number of fields.
        let mut bad: Option<(usize, &str)> = None;
        loop {
            let start = pos;
            while pos < bytes.len() && bytes[pos] != b',' && bytes[pos] != b';' {
                pos += 1;
            }
            let last = pos == bytes.len() || bytes[pos] == b';';
            if fields < schema.len() && bad.is_none() {
                let field = trim_field(&text[start..pos]);
                let at = row_start + schema.offset(fields);
                if write_field(schema.data_type(fields), field, &mut out[at..]).is_none() {
                    bad = Some((fields, field));
                }
            }
            fields += 1;
            pos += 1;
            if last {
                break;
            }
        }
        match bad {
            // A blank row, one field that is empty once trimmed, is skipped.
            // An empty field never parses, so it shows up here as `bad`.
            Some((0, "")) if fields == 1 => out.truncate(row_start),
            _ if fields != schema.len() => {
                return Err(format!(
                    "row {r}: expected {} fields, got {fields}",
                    schema.len()
                ))
            }
            Some((i, field)) => {
                return Err(format!(
                    "row {r}, field `{}`: `{field}` is not a valid {}",
                    schema.attribute(i).name(),
                    data_type_name(schema.data_type(i))
                ))
            }
            None => {}
        }
        r += 1;
    }
    if out.is_empty() {
        return Err("empty payload".into());
    }
    Ok(out)
}

/// `str::trim`, skipped when neither end of `field` can be whitespace.
fn trim_field(field: &str) -> &str {
    let maybe_space = |b: &u8| *b <= b' ' || !b.is_ascii();
    let bytes = field.as_bytes();
    if bytes.first().is_some_and(maybe_space) || bytes.last().is_some_and(maybe_space) {
        field.trim()
    } else {
        field
    }
}

/// Parses `field` as `ty` and writes its little-endian bytes to the front
/// of `out`; `None` if `field` is not a valid `ty`.
fn write_field(ty: DataType, field: &str, out: &mut [u8]) -> Option<()> {
    match ty {
        DataType::Int => out[..4].copy_from_slice(&field.parse::<i32>().ok()?.to_le_bytes()),
        DataType::Long | DataType::Timestamp => {
            out[..8].copy_from_slice(&field.parse::<i64>().ok()?.to_le_bytes())
        }
        DataType::Float => out[..4].copy_from_slice(&field.parse::<f32>().ok()?.to_le_bytes()),
        DataType::Double => out[..8].copy_from_slice(&field.parse::<f64>().ok()?.to_le_bytes()),
    }
    Some(())
}

/// Appends one result row's fields to `out`, comma-separated.
fn write_csv_row(out: &mut String, tuple: &TupleRef<'_>) {
    let schema = tuple.schema();
    for i in 0..schema.len() {
        if i > 0 {
            out.push(',');
        }
        // Writing to a `String` cannot fail.
        let _ = match schema.data_type(i) {
            DataType::Int => write!(out, "{}", tuple.get_i32(i)),
            DataType::Long | DataType::Timestamp => write!(out, "{}", tuple.get_i64(i)),
            DataType::Float => write!(out, "{}", tuple.get_f32(i)),
            DataType::Double => write!(out, "{}", tuple.get_f64(i)),
        };
    }
}

/// Formats one result row as the CSV of a `ROW` line.
pub fn format_csv_row(tuple: &TupleRef<'_>) -> String {
    let mut out = String::new();
    write_csv_row(&mut out, tuple);
    out
}

/// Renders one result batch in the subscriber's encoding, ready to write.
pub fn format_batch(rows: &RowBuffer, encoding: Encoding) -> String {
    match encoding {
        Encoding::Csv => {
            let mut out = String::with_capacity(rows.len() * (5 + 8 * rows.schema().len()));
            for tuple in rows.iter() {
                out.push_str("ROW ");
                write_csv_row(&mut out, &tuple);
                out.push('\n');
            }
            out
        }
        Encoding::B64 => format!("DATA {} {}\n", rows.len(), b64_encode(rows.bytes())),
    }
}

// ---- base64 (standard alphabet, `=` padding; std-only, no dependencies) ----

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard base64 with padding.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(triple >> 18) as usize & 63] as char);
        out.push(B64_ALPHABET[(triple >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(triple >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[triple as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard base64 (padding required for partial trailing groups).
pub fn b64_decode(text: &str) -> Result<Vec<u8>, String> {
    let text = text.trim();
    if !text.len().is_multiple_of(4) {
        return Err("base64 length is not a multiple of 4".into());
    }
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let bytes = text.as_bytes();
    let groups = bytes.len() / 4;
    for (gi, group) in bytes.chunks(4).enumerate() {
        let mut vals = [0u32; 4];
        let mut pad = 0usize;
        for (i, &c) in group.iter().enumerate() {
            if c == b'=' {
                // Padding is only valid in the last one or two positions.
                if i < 2 || group[i..].iter().any(|&c| c != b'=') {
                    return Err("misplaced base64 padding".into());
                }
                // ... and padding only ever terminates the input.
                if gi + 1 != groups {
                    return Err("base64 padding is only valid in the final group".into());
                }
                pad = 4 - i;
                break;
            }
            vals[i] = match c {
                b'A'..=b'Z' => (c - b'A') as u32,
                b'a'..=b'z' => (c - b'a' + 26) as u32,
                b'0'..=b'9' => (c - b'0' + 52) as u32,
                b'+' => 62,
                b'/' => 63,
                _ => return Err(format!("invalid base64 character `{}`", c as char)),
            };
        }
        let triple = (vals[0] << 18) | (vals[1] << 12) | (vals[2] << 6) | vals[3];
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            out.push(triple as u8);
        }
    }
    Ok(out)
}

/// Reads one `\n`-terminated line, capping it at `cap` bytes.
///
/// Returns `Ok(None)` on a clean EOF with no pending bytes; a final line
/// without a terminator is still delivered. An overlong line or non-UTF-8
/// bytes yield an [`io::ErrorKind::InvalidData`] error — the connection
/// cannot resynchronise after either, so callers should close it.
pub fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return finish_line(line).map(Some);
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            if line.len() > cap {
                return Err(overlong(cap));
            }
            return finish_line(line).map(Some);
        }
        line.extend_from_slice(available);
        let consumed = available.len();
        reader.consume(consumed);
        if line.len() > cap {
            return Err(overlong(cap));
        }
    }
}

fn overlong(cap: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line exceeds the {cap}-byte limit"),
    )
}

fn finish_line(mut line: Vec<u8>) -> io::Result<String> {
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line is not valid UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_types::Value;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
            ("key", DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn commands_parse_case_insensitively() {
        assert_eq!(parse_command("ping").unwrap(), Command::Ping);
        assert_eq!(parse_command("  QUIT  ").unwrap(), Command::Quit);
        assert_eq!(
            parse_command("subscribe 2 b64").unwrap(),
            Command::Subscribe {
                query: 2,
                encoding: Encoding::B64
            }
        );
        assert_eq!(
            parse_command("SUBSCRIBE 0").unwrap(),
            Command::Subscribe {
                query: 0,
                encoding: Encoding::Csv
            }
        );
    }

    #[test]
    fn stats_and_metrics_parse() {
        assert_eq!(
            parse_command("STATS 3").unwrap(),
            Command::Stats { query: Some(3) }
        );
        assert_eq!(
            parse_command("stats").unwrap(),
            Command::Stats { query: None }
        );
        assert!(parse_command("STATS x").is_err());
        assert_eq!(parse_command("metrics").unwrap(), Command::Metrics);
    }

    #[test]
    fn drop_query_parses_and_validates() {
        assert_eq!(
            parse_command("DROP QUERY 3").unwrap(),
            Command::DropQuery { query: 3 }
        );
        assert_eq!(
            parse_command("drop query 0").unwrap(),
            Command::DropQuery { query: 0 }
        );
        assert!(parse_command("DROP 3").is_err());
        assert!(parse_command("DROP QUERY").is_err());
        assert!(parse_command("DROP QUERY x").is_err());
        assert!(parse_command("DROP QUERY 1 2").is_err());
    }

    #[test]
    fn create_stream_declares_a_schema() {
        let cmd =
            parse_command("CREATE STREAM Sensors (timestamp TIMESTAMP, value FLOAT, key INT)")
                .unwrap();
        match cmd {
            Command::CreateStream { name, schema } => {
                assert_eq!(name, "Sensors");
                assert_eq!(schema.len(), 3);
                assert_eq!(schema.data_type(1), DataType::Float);
                assert_eq!(schema.row_size(), 16);
            }
            other => panic!("expected CreateStream, got {other:?}"),
        }
        assert!(parse_command("CREATE STREAM S").is_err());
        assert!(parse_command("CREATE STREAM S (x BLOB)").is_err());
        assert!(parse_command("CREATE STREAM 1bad (x INT)").is_err());
        assert!(parse_command("CREATE TABLE S (x INT)").is_err());
    }

    #[test]
    fn insert_payloads_decode_per_schema() {
        let schema = schema();
        let cmd = parse_command("INSERT 0 0 CSV 1,0.5,7;2,0.25,8").unwrap();
        let Command::Insert {
            query,
            stream,
            payload,
        } = cmd
        else {
            panic!("expected Insert");
        };
        assert_eq!((query, stream), (0, 0));
        let bytes = payload.decode(&schema).unwrap();
        let rows = RowBuffer::from_bytes(schema.clone().into_ref(), bytes.into_owned()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.row(0).timestamp(), 1);
        assert_eq!(rows.row(1).get_f32(1), 0.25);
        assert_eq!(rows.row(1).get_i32(2), 8);

        // Field count and type mismatches are reported with the position.
        let err = Payload::Csv("1,0.5".into()).decode(&schema).unwrap_err();
        assert!(err.contains("expected 3 fields"));
        let err = Payload::Csv("1,x,7".into()).decode(&schema).unwrap_err();
        assert!(err.contains("`value`"), "{err}");
    }

    #[test]
    fn b64_round_trips_and_validates() {
        for len in 0..32 {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let encoded = b64_encode(&data);
            assert_eq!(b64_decode(&encoded).unwrap(), data, "len {len}");
        }
        assert_eq!(b64_encode(b"saber"), "c2FiZXI=");
        assert_eq!(b64_decode("c2FiZXI=").unwrap(), b"saber");
        assert!(b64_decode("abc").is_err());
        assert!(b64_decode("ab=c").is_err());
        assert!(b64_decode("a!==").is_err());
        // Padding only terminates the input; interior padding is corruption.
        assert!(b64_decode("AA==AAAA").is_err());
    }

    #[test]
    fn raw_payload_length_is_validated_against_the_row_size() {
        let schema = schema();
        for short in [
            Payload::B64(b64_encode(&[0u8; 15])),
            Payload::Raw(vec![0u8; 15]),
        ] {
            let err = short.decode(&schema).unwrap_err();
            assert!(err.contains("multiple"), "{err}");
        }
        assert_eq!(
            Payload::Raw(Vec::new()).decode(&schema).unwrap_err(),
            "empty payload"
        );
        for whole in [
            Payload::B64(b64_encode(&[0u8; 32])),
            Payload::Raw(vec![0u8; 32]),
        ] {
            assert_eq!(whole.decode(&schema).unwrap().len(), 32);
        }
        // A frame's rows are validated in place, not copied.
        assert!(matches!(
            Payload::Raw(vec![0u8; 16]).decode(&schema).unwrap(),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn batches_format_in_both_encodings() {
        let schema = schema().into_ref();
        let mut rows = RowBuffer::new(schema);
        rows.push_values(&[Value::Timestamp(5), Value::Float(1.5), Value::Int(3)])
            .unwrap();
        let csv = format_batch(&rows, Encoding::Csv);
        assert_eq!(csv, "ROW 5,1.5,3\n");
        let b64 = format_batch(&rows, Encoding::B64);
        assert!(b64.starts_with("DATA 1 "));
        let payload = b64.trim_end().split(' ').nth(2).unwrap();
        assert_eq!(b64_decode(payload).unwrap(), rows.bytes());
    }

    #[test]
    fn capped_line_reads_enforce_the_limit() {
        let mut input = io::Cursor::new(b"short\r\nlonger line\nno terminator".to_vec());
        assert_eq!(
            read_line_capped(&mut input, 64).unwrap().as_deref(),
            Some("short")
        );
        assert_eq!(
            read_line_capped(&mut input, 64).unwrap().as_deref(),
            Some("longer line")
        );
        assert_eq!(
            read_line_capped(&mut input, 64).unwrap().as_deref(),
            Some("no terminator")
        );
        assert_eq!(read_line_capped(&mut input, 64).unwrap(), None);

        let mut oversized = io::Cursor::new(vec![b'x'; 100]);
        let err = read_line_capped(&mut oversized, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    // ---- the reference codec (split, trim, `Value`s, `encode_row`, one
    // ---- `String` per field): the differential tests below hold the
    // ---- one-pass decoder and the one-buffer formatter to it.

    fn oracle_decode_csv_rows(schema: &Schema, text: &str) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        for (r, row) in text.split(';').enumerate() {
            let row = row.trim();
            if row.is_empty() {
                continue;
            }
            let fields: Vec<&str> = row.split(',').map(str::trim).collect();
            if fields.len() != schema.len() {
                return Err(format!(
                    "row {r}: expected {} fields, got {}",
                    schema.len(),
                    fields.len()
                ));
            }
            let mut values = Vec::with_capacity(fields.len());
            for (i, field) in fields.iter().enumerate() {
                values.push(oracle_parse_field(schema.data_type(i), field).map_err(|e| {
                    format!("row {r}, field `{}`: {e}", schema.attribute(i).name())
                })?);
            }
            schema
                .encode_row(&values, &mut out)
                .map_err(|e| format!("row {r}: {}", e.message()))?;
        }
        if out.is_empty() {
            return Err("empty payload".into());
        }
        Ok(out)
    }

    fn oracle_parse_field(ty: DataType, field: &str) -> Result<Value, String> {
        let bad = |what: &str| format!("`{field}` is not a valid {what}");
        Ok(match ty {
            DataType::Int => Value::Int(field.parse().map_err(|_| bad("INT"))?),
            DataType::Long => Value::Long(field.parse().map_err(|_| bad("LONG"))?),
            DataType::Float => Value::Float(field.parse().map_err(|_| bad("FLOAT"))?),
            DataType::Double => Value::Double(field.parse().map_err(|_| bad("DOUBLE"))?),
            DataType::Timestamp => Value::Timestamp(field.parse().map_err(|_| bad("TIMESTAMP"))?),
        })
    }

    fn oracle_format_csv_row(tuple: &TupleRef<'_>) -> String {
        let schema = tuple.schema();
        let mut fields = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            fields.push(match schema.data_type(i) {
                DataType::Int => tuple.get_i32(i).to_string(),
                DataType::Long | DataType::Timestamp => tuple.get_i64(i).to_string(),
                DataType::Float => tuple.get_f32(i).to_string(),
                DataType::Double => tuple.get_f64(i).to_string(),
            });
        }
        fields.join(",")
    }

    fn oracle_format_batch_csv(rows: &RowBuffer) -> String {
        let mut out = String::new();
        for tuple in rows.iter() {
            out.push_str("ROW ");
            out.push_str(&oracle_format_csv_row(&tuple));
            out.push('\n');
        }
        out
    }

    /// One attribute of each of the five types.
    fn every_type() -> Schema {
        Schema::from_pairs(&[
            ("ts", DataType::Timestamp),
            ("i", DataType::Int),
            ("l", DataType::Long),
            ("f", DataType::Float),
            ("d", DataType::Double),
        ])
        .unwrap()
    }

    #[rustfmt::skip]
    const EDGE_FIELDS: &[&str] = &[
        "0", "+5", "-0", "+0", "-", "+", "", " ", "7", " 7 ", "\t7\t", "\u{a0}7\u{a0}",
        "\u{a0}7", "7\u{3000}", "\u{a0}", "-2147483649", "-2147483648", "2147483647",
        "2147483648", "-9223372036854775809", "-9223372036854775808", "9223372036854775807",
        "9223372036854775808", "18446744073709551616", "00000000000000000000042", "1e3",
        "1E3", ".5", "5.", "-.5", "1e", "e3", "inf", "-inf", "+inf", "infinity", "INF", "NaN",
        "nan", "-NaN", "1.5", "0x10", "--1", "+-1", "1_000", "1 000", "x", "\u{663}",
        "3.4028236e38", "1e-46", "1e400", "4.9e-324", "\u{e9}",
    ];

    fn assert_agrees(schema: &Schema, payload: &str) {
        assert_eq!(
            decode_csv_rows(schema, payload),
            oracle_decode_csv_rows(schema, payload),
            "payload {payload:?}"
        );
    }

    #[test]
    fn csv_decoder_agrees_with_the_oracle_on_edge_cases() {
        let schema = every_type();
        let valid = ["1", "2", "3", "4.5", "6.25"];
        let mut payloads: Vec<String> = [
            "",
            ";",
            ";;",
            " ; ",
            "1,2,3,4.5,6.25",
            "1,2,3,4.5,6.25;",
            ";1,2,3,4.5,6.25",
            "1,2,3,4.5,6.25;;1,2,3,4.5,6.25",
            "1,2,3,4.5,6.25; \u{a0} ;1,2,3,4.5,6.25",
            " 1 , 2 , 3 , 4.5 , 6.25 ",
            "1,2,3,4.5",
            "1,2,3,4.5,6.25,7",
            ",,,,",
            ",,,,,",
            ",",
            "1,2,3,4.5,6.25;1,2",
            "1,2;x,y,z,w,v",
            "x,2,3",
            "x,2,3,4,5,6",
            "1,2,3,4.5,6.25;x,2,3",
            "1,2,3,4.5,x;1,2",
            "1,2,3,4.5,6.25,",
        ]
        .iter()
        .map(|p| p.to_string())
        .collect();
        for field in EDGE_FIELDS {
            for column in 0..valid.len() {
                let mut row = valid.map(str::to_string);
                row[column] = field.to_string();
                let row = row.join(",");
                payloads.push(row.clone());
                payloads.push(format!("1,2,3,4.5,6.25;{row};"));
            }
        }
        for payload in &payloads {
            assert_agrees(&schema, payload);
        }
        // Single-attribute schemas: a blank row is skipped, not a bad field.
        for ty in [
            DataType::Int,
            DataType::Long,
            DataType::Float,
            DataType::Double,
        ] {
            let one = Schema::from_pairs(&[("ts", DataType::Timestamp), ("v", ty)]).unwrap();
            let only_ts = Schema::from_pairs(&[("ts", DataType::Timestamp)]).unwrap();
            for field in EDGE_FIELDS {
                assert_agrees(&one, &format!("1,{field}"));
                assert_agrees(&only_ts, field);
                assert_agrees(&only_ts, &format!("{field};{field}"));
            }
        }
        // A row with the wrong field count reports the count, even when one
        // of its fields is also bad.
        assert_eq!(
            decode_csv_rows(&schema, "1,2,3,4.5,6.25;x,2").unwrap_err(),
            "row 1: expected 5 fields, got 2"
        );
        assert_eq!(
            decode_csv_rows(&schema, ";1,2147483648,3,4.5,6.25").unwrap_err(),
            "row 1, field `i`: `2147483648` is not a valid INT"
        );
    }

    /// A small deterministic generator (SplitMix64), enough to spread
    /// payloads over the grammar without a dependency.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    #[test]
    fn csv_decoder_agrees_with_the_oracle_on_generated_payloads() {
        let schema = every_type();
        let pads = ["", "", "", " ", "\t", "\u{a0}", "\u{2003}"];
        let tokens = [
            "0",
            "1",
            "9",
            "-",
            "+",
            ".",
            "e",
            "E",
            ",",
            ";",
            " ",
            "\u{a0}",
            "x",
            "inf",
            "NaN",
            "2147483648",
            "9223372036854775808",
        ];
        let mut gen = Gen(0x5AB3_2016);
        let mut accepted = 0;
        for case in 0..4000 {
            let mut payload = String::new();
            if case % 2 == 0 {
                // Well-formed rows with random values and padding, and the
                // occasional corrupted field, missing field or blank row.
                for r in 0..1 + gen.below(6) {
                    if r > 0 {
                        payload.push(';');
                    }
                    if gen.below(10) == 0 {
                        payload.push_str(gen.pick(&pads));
                        continue;
                    }
                    let mut fields = vec![
                        (gen.next() as i64 >> gen.below(64)).to_string(),
                        (gen.next() as i32 >> gen.below(32)).to_string(),
                        (gen.next() as i64 >> gen.below(64)).to_string(),
                        f32::from_bits(gen.next() as u32).to_string(),
                        (gen.next() as f64 / (gen.next() | 1) as f64).to_string(),
                    ];
                    if gen.below(8) == 0 {
                        let i = gen.below(fields.len());
                        fields[i] = gen.pick(EDGE_FIELDS).to_string();
                    }
                    if gen.below(16) == 0 {
                        fields.truncate(gen.below(fields.len()));
                    }
                    let padded: Vec<String> = fields
                        .iter()
                        .map(|f| format!("{}{f}{}", gen.pick(&pads), gen.pick(&pads)))
                        .collect();
                    payload.push_str(&padded.join(","));
                }
            } else {
                for _ in 0..gen.below(24) {
                    payload.push_str(gen.pick(&tokens));
                }
            }
            accepted += usize::from(oracle_decode_csv_rows(&schema, &payload).is_ok());
            assert_agrees(&schema, &payload);
        }
        // The generator reaches both sides of the grammar.
        assert!((500..3500).contains(&accepted), "{accepted} accepted");
    }

    #[test]
    fn rows_round_trip_through_csv_byte_for_byte() {
        let schema = every_type().into_ref();
        let mut rows = RowBuffer::new(schema.clone());
        let floats = [
            0.0,
            -0.0,
            1.5,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.1,
            -1e-30,
        ];
        let doubles = [
            0.0,
            -0.0,
            0.1,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 7.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
            -2.5e300,
        ];
        let ints = [
            0,
            -1,
            1,
            i32::MIN,
            i32::MAX,
            42,
            -7,
            1 << 20,
            i32::MIN + 1,
            99,
            3,
            5,
        ];
        let longs = [
            0,
            -1,
            1,
            i64::MIN,
            i64::MAX,
            1 << 40,
            -(1 << 50),
            7,
            8,
            9,
            10,
            11,
        ];
        for k in 0..floats.len() {
            rows.push_values(&[
                Value::Timestamp(longs[(k + 3) % longs.len()]),
                Value::Int(ints[k]),
                Value::Long(longs[k]),
                Value::Float(floats[k]),
                Value::Double(doubles[k]),
            ])
            .unwrap();
        }
        let text = format_batch(&rows, Encoding::Csv);
        assert_eq!(text, oracle_format_batch_csv(&rows));
        for tuple in rows.iter() {
            assert_eq!(format_csv_row(&tuple), oracle_format_csv_row(&tuple));
        }
        let payload: Vec<&str> = text
            .lines()
            .map(|line| line.strip_prefix("ROW ").unwrap())
            .collect();
        let payload = payload.join(";");
        assert_eq!(decode_csv_rows(&schema, &payload).unwrap(), rows.bytes());
        assert_agrees(&schema, &payload);
    }
}
