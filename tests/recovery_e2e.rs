//! Crash-point recovery: the engine is "killed" at adversarial points —
//! torn WAL tails, crash images copied mid-run, corrupted snapshots from a
//! crash mid-checkpoint, and a genuinely SIGKILL'd server process — and
//! recovery must always rebuild the same query ids with result windows
//! byte-identical to an uninterrupted run over the durable input prefix.
//!
//! All scratch state lives under the system temp dir and is removed on drop
//! (CI additionally checks that no WAL directories leak into the
//! workspace).

#![allow(
    clippy::disallowed_methods,
    reason = "tests fork bare threads to race the code under test"
)]

use saber::prelude::*;
use saber::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "saber-recovery-e2e-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        Self { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        // Files only (the store writes a flat directory). A file appended
        // to concurrently copies as a valid prefix — exactly a crash image.
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn durable_engine_config(dir: &Path) -> EngineConfig {
    let mut durability = DurabilityConfig::new(dir);
    durability.flush_interval = Duration::from_millis(1);
    durability.fsync = FsyncPolicy::EveryFlush;
    EngineConfig {
        worker_threads: 2,
        query_task_size: 4 * 1024,
        execution_mode: ExecutionMode::CpuOnly,
        durability: Some(durability),
        ..EngineConfig::default()
    }
}

fn schema() -> saber::types::schema::SchemaRef {
    Schema::from_pairs(&[
        ("ts", DataType::Timestamp),
        ("v", DataType::Float),
        ("k", DataType::Int),
    ])
    .unwrap()
    .into_ref()
}

fn rows(n: usize, start: i64) -> Vec<u8> {
    let mut buf = RowBuffer::new(schema());
    for i in 0..n {
        let ts = start + i as i64;
        buf.push_values(&[
            Value::Timestamp(ts),
            Value::Float((ts % 4) as f32 * 0.25),
            Value::Int((ts % 8) as i32),
        ])
        .unwrap();
    }
    buf.into_bytes()
}

/// The same traffic on a fresh in-memory engine: the ground truth windows.
fn reference_windows(sql: &str, batches: &[&[u8]]) -> Vec<u8> {
    let mut engine = Saber::builder()
        .worker_threads(2)
        .execution_mode(ExecutionMode::CpuOnly)
        .build()
        .unwrap();
    engine.start().unwrap();
    let catalog = Catalog::new().with_stream("S", schema());
    let handle = engine.add_query_sql(sql, &catalog).unwrap();
    for batch in batches {
        handle.ingest(StreamId(0), batch).unwrap();
    }
    engine.stop().unwrap();
    handle.take_rows().into_bytes()
}

const SQL: &str = "SELECT ts, k FROM S [ROWS 64]";

/// Builds a durable engine history of `n_batches` ingests of 64 rows each
/// (one WAL record per batch, spaced so the group commit flushes between
/// them) and returns the batches.
fn build_history(dir: &Path, n_batches: usize) -> Vec<Vec<u8>> {
    let mut engine = Saber::with_config(durable_engine_config(dir)).unwrap();
    engine.start().unwrap();
    engine.create_stream("S", schema()).unwrap();
    let catalog = engine.shared_catalog().unwrap().snapshot();
    let handle = engine.add_query_sql(SQL, &catalog).unwrap();
    let mut batches = Vec::new();
    for i in 0..n_batches {
        let batch = rows(64, (i * 64) as i64);
        handle.ingest(StreamId(0), &batch).unwrap();
        batches.push(batch);
        std::thread::sleep(Duration::from_millis(2));
    }
    engine.stop().unwrap();
    batches
}

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    segments.sort();
    segments
}

fn remove_snapshots(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".snap"))
        {
            std::fs::remove_file(path).unwrap();
        }
    }
}

/// Recovers `dir` and asserts the replayed windows equal the reference over
/// exactly the replayed prefix; returns the number of replayed rows.
fn recover_and_check_prefix(dir: &Path, batches: &[Vec<u8>]) -> u64 {
    let (mut engine, report) = Saber::recover(durable_engine_config(dir)).unwrap();
    let replayed = report.replayed_rows;
    assert_eq!(replayed % 64, 0, "replay must cover whole acked batches");
    let prefix = (replayed / 64) as usize;
    assert!(prefix <= batches.len());
    if report.queries.is_empty() {
        // The cut fell before the query's AddQuery record (no snapshot to
        // restore it from): nothing replays, by design.
        assert_eq!(replayed, 0);
        drop(engine);
        return 0;
    }
    let handle = engine.query(report.queries[0].id).unwrap();
    engine.stop().unwrap();
    let got = handle.take_rows().into_bytes();
    let batch_refs: Vec<&[u8]> = batches[..prefix].iter().map(|b| b.as_slice()).collect();
    assert_eq!(
        got,
        reference_windows(SQL, &batch_refs),
        "windows diverge from an uninterrupted run over {prefix} batches"
    );
    replayed
}

#[test]
fn torn_tails_at_arbitrary_cuts_recover_a_consistent_prefix() {
    let dir = TempDir::new("torn");
    let batches = build_history(&dir.path, 12);
    let segments = wal_segments(&dir.path);
    let (last, last_len) = {
        let last = segments.last().unwrap().clone();
        let len = std::fs::metadata(&last).unwrap().len();
        (last, len)
    };
    // Deterministically spread cut points over the final segment, plus the
    // degenerate full-truncation case. The clean-shutdown snapshot restores
    // the catalog and query even when their WAL records are cut away.
    let cuts: Vec<u64> = (0..16)
        .map(|i| last_len * i / 16)
        .chain([last_len])
        .collect();
    let mut seen_rows = std::collections::BTreeSet::new();
    for cut in cuts {
        let image = TempDir::new("torn-image");
        copy_dir(&dir.path, &image.path);
        let target = image.path.join(last.file_name().unwrap());
        std::fs::OpenOptions::new()
            .write(true)
            .open(&target)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let replayed = recover_and_check_prefix(&image.path, &batches);
        seen_rows.insert(replayed);
    }
    // The sweep exercised genuinely different tear positions.
    assert!(seen_rows.len() > 4, "cut sweep degenerated: {seen_rows:?}");
    assert_eq!(*seen_rows.last().unwrap(), 12 * 64);

    // Without any snapshot the query itself must be recovered from its
    // AddQuery record; a cut after it still replays a consistent prefix.
    let image = TempDir::new("torn-nosnap");
    copy_dir(&dir.path, &image.path);
    remove_snapshots(&image.path);
    let replayed = recover_and_check_prefix(&image.path, &batches);
    assert_eq!(replayed, 12 * 64);
}

#[test]
fn crash_images_copied_mid_run_replay_consistently() {
    let dir = TempDir::new("live");
    let images: Vec<TempDir> = (0..3).map(|_| TempDir::new("live-image")).collect();
    let total_batches = {
        let mut engine = Saber::with_config(durable_engine_config(&dir.path)).unwrap();
        engine.start().unwrap();
        engine.create_stream("S", schema()).unwrap();
        let catalog = engine.shared_catalog().unwrap().snapshot();
        let handle = engine.add_query_sql(SQL, &catalog).unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producer = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut sent = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    handle
                        .ingest(StreamId(0), &rows(64, (sent * 64) as i64))
                        .unwrap();
                    sent += 1;
                    std::thread::sleep(Duration::from_micros(500));
                }
                sent
            })
        };
        // Take crash images while the producer is mid-flight: whatever the
        // flusher happened to have written is the image — torn tails and
        // all.
        for image in &images {
            std::thread::sleep(Duration::from_millis(30));
            copy_dir(&dir.path, &image.path);
        }
        stop.store(true, Ordering::Relaxed);
        let sent = producer.join().unwrap();
        engine.stop().unwrap();
        sent
    };
    let batches: Vec<Vec<u8>> = (0..total_batches)
        .map(|i| rows(64, (i * 64) as i64))
        .collect();
    let mut replayed_counts = Vec::new();
    for image in &images {
        replayed_counts.push(recover_and_check_prefix(&image.path, &batches));
    }
    // Images taken later must never have replayed less than earlier ones.
    assert!(replayed_counts.windows(2).all(|w| w[0] <= w[1]));
    // And the original directory recovers the complete run.
    assert_eq!(
        recover_and_check_prefix(&dir.path, &batches),
        (total_batches * 64) as u64
    );
}

#[test]
fn corrupt_or_half_written_snapshots_fall_back() {
    let dir = TempDir::new("mid-ckpt");
    // A checkpoint after every batch: several generations exist.
    let batches = {
        let mut engine = Saber::with_config(durable_engine_config(&dir.path)).unwrap();
        engine.start().unwrap();
        engine.create_stream("S", schema()).unwrap();
        let catalog = engine.shared_catalog().unwrap().snapshot();
        let handle = engine.add_query_sql(SQL, &catalog).unwrap();
        let mut batches = Vec::new();
        for i in 0..10 {
            let batch = rows(64, (i * 64) as i64);
            handle.ingest(StreamId(0), &batch).unwrap();
            batches.push(batch);
            engine.checkpoint().unwrap().unwrap();
        }
        engine.stop().unwrap();
        batches
    };
    // Crash mid-checkpoint, take 1: a half-written `.tmp` snapshot is left
    // behind. It must be ignored (and cleaned up).
    let image = TempDir::new("mid-ckpt-tmp");
    copy_dir(&dir.path, &image.path);
    std::fs::write(image.path.join("snap-99999999999999999999.tmp"), b"half").unwrap();
    assert_eq!(recover_and_check_prefix(&image.path, &batches), 640);

    // Crash mid-checkpoint, take 2: the newest snapshot file itself is
    // garbage (torn rename-less write). Recovery falls back to an older
    // generation — or, take 3, to no snapshot at all — and still rebuilds
    // everything from the log.
    let image = TempDir::new("mid-ckpt-corrupt");
    copy_dir(&dir.path, &image.path);
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&image.path)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".snap")))
        .collect();
    snaps.sort();
    assert!(
        snaps.len() >= 2,
        "expected two snapshot generations: {snaps:?}"
    );
    std::fs::write(snaps.last().unwrap(), b"garbage snapshot").unwrap();
    assert_eq!(recover_and_check_prefix(&image.path, &batches), 640);

    let image = TempDir::new("mid-ckpt-none");
    copy_dir(&dir.path, &image.path);
    remove_snapshots(&image.path);
    assert_eq!(recover_and_check_prefix(&image.path, &batches), 640);
}

/// WAL replay re-establishes plan sharing: a cluster of fingerprint-identical
/// queries (including one removed mid-history) recovers under its original
/// `QueryId`s, the survivors share one physical plan again, and every
/// member's windows are byte-identical to an uninterrupted unshared run.
#[test]
fn shared_queries_recover_with_same_ids_and_byte_identical_windows() {
    let variant = "SELECT ts AS t, k AS kk FROM S [ROWS 64]"; // fingerprint == SQL
    let solo = "SELECT ts FROM S [ROWS 32]";
    let dir = TempDir::new("shared");
    let (batches, solo_batches) = {
        let mut engine = Saber::with_config(durable_engine_config(&dir.path)).unwrap();
        engine.start().unwrap();
        engine.create_stream("S", schema()).unwrap();
        let catalog = engine.shared_catalog().unwrap().snapshot();
        let anchor = engine.add_query_sql(SQL, &catalog).unwrap(); // id 0
        let doomed = engine.add_query_sql(variant, &catalog).unwrap(); // id 1
        let keeper = engine.add_query_sql(SQL, &catalog).unwrap(); // id 2
        let private = engine.add_query_sql(solo, &catalog).unwrap(); // id 3
        assert_eq!(engine.sharing_info(keeper.id()), Some((anchor.id(), 3)));
        assert_eq!(engine.num_physical_plans(), 2);
        let mut batches = Vec::new();
        let mut solo_batches = Vec::new();
        for i in 0..6 {
            let batch = rows(64, (i * 64) as i64);
            anchor.ingest(StreamId(0), &batch).unwrap();
            batches.push(batch);
            let batch = rows(64, (1000 + i * 64) as i64);
            private.ingest(StreamId(0), &batch).unwrap();
            solo_batches.push(batch);
            std::thread::sleep(Duration::from_millis(2));
        }
        // Mid-history detach, recorded in the WAL: replay must remove it
        // again, leaving the other two members on the shared plan.
        doomed.remove().unwrap();
        for i in 6..8 {
            let batch = rows(64, (i * 64) as i64);
            keeper.ingest(StreamId(0), &batch).unwrap();
            batches.push(batch);
            std::thread::sleep(Duration::from_millis(2));
        }
        engine.stop().unwrap();
        (batches, solo_batches)
    };

    let (mut engine, report) = Saber::recover(durable_engine_config(&dir.path)).unwrap();
    // Original ids, with the mid-history removal replayed.
    let ids: Vec<usize> = report.queries.iter().map(|q| q.id.0).collect();
    assert_eq!(ids, vec![0, 2, 3]);
    assert!(engine.query(QueryId(1)).is_none());
    // The survivors share one physical plan again; the solo query is
    // private. 2 physical plans, 3 logical queries.
    assert_eq!(engine.num_physical_plans(), 2);
    assert_eq!(
        engine.sharing_info(QueryId(2)),
        Some((QueryId(0), 2)),
        "replay did not re-attach the follower"
    );
    assert_eq!(engine.sharing_info(QueryId(3)), Some((QueryId(3), 1)));
    let anchor = engine.query(QueryId(0)).unwrap();
    let keeper = engine.query(QueryId(2)).unwrap();
    let private = engine.query(QueryId(3)).unwrap();
    engine.stop().unwrap();

    // Byte-identity: the doomed member saw batches 0..6 before its removal;
    // both survivors saw all 8; the private query saw its own stream. All
    // must equal uninterrupted unshared reference runs.
    let batch_refs: Vec<&[u8]> = batches.iter().map(|b| b.as_slice()).collect();
    let solo_refs: Vec<&[u8]> = solo_batches.iter().map(|b| b.as_slice()).collect();
    let expected = reference_windows(SQL, &batch_refs);
    assert_eq!(anchor.take_rows().into_bytes(), expected, "anchor diverged");
    assert_eq!(
        keeper.take_rows().into_bytes(),
        expected,
        "follower diverged"
    );
    assert_eq!(
        private.take_rows().into_bytes(),
        reference_windows(solo, &solo_refs),
        "private query diverged"
    );
}

/// Polls until `handle` has emitted `expected` tuples.
fn wait_emitted(handle: &QueryHandle, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.tuples_emitted() < expected {
        assert!(Instant::now() < deadline, "windows never closed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A member that attached mid-stream recovers with exactly the suffix it
/// saw live, although the final snapshot lists it beside the plan's first
/// member: replay attaches it at its `AddQuery` record, not before the
/// first ingest.
#[test]
fn member_attached_mid_stream_recovers_its_live_suffix() {
    let dir = TempDir::new("late-member");
    let batches: Vec<Vec<u8>> = (0..8).map(|i| rows(64, i * 64)).collect();
    {
        let mut engine = Saber::with_config(durable_engine_config(&dir.path)).unwrap();
        engine.start().unwrap();
        engine.create_stream("S", schema()).unwrap();
        let catalog = engine.shared_catalog().unwrap().snapshot();
        let first = engine.add_query_sql(SQL, &catalog).unwrap();
        for batch in &batches[..4] {
            first.ingest(StreamId(0), batch).unwrap();
        }
        first.flush().unwrap();
        wait_emitted(&first, 256);
        let second = engine.add_query_sql(SQL, &catalog).unwrap();
        assert_eq!(engine.sharing_info(second.id()), Some((first.id(), 2)));
        for batch in &batches[4..] {
            first.ingest(StreamId(0), batch).unwrap();
        }
        engine.stop().unwrap();
        assert_eq!(first.tuples_emitted(), 512);
        assert_eq!(second.tuples_emitted(), 256);
    }
    let (mut engine, report) = Saber::recover(durable_engine_config(&dir.path)).unwrap();
    assert!(report.snapshot_wal_seq.is_some(), "stop() checkpoints");
    let first = engine.query(QueryId(0)).unwrap();
    let second = engine.query(QueryId(1)).unwrap();
    engine.stop().unwrap();
    assert_eq!(first.tuples_emitted(), 512);
    assert_eq!(second.tuples_emitted(), 256);
    let all: Vec<&[u8]> = batches.iter().map(|b| b.as_slice()).collect();
    assert_eq!(first.take_rows().into_bytes(), reference_windows(SQL, &all));
    assert_eq!(
        second.take_rows().into_bytes(),
        reference_windows(SQL, &all[4..])
    );
}

/// A member whose plan's first member was removed recovers the whole stream
/// it saw live: the rows ingested through the first member before the
/// removal replay into the survivor too.
#[test]
fn member_outliving_the_first_member_recovers_the_whole_stream() {
    let dir = TempDir::new("surviving-member");
    let batches: Vec<Vec<u8>> = (0..8).map(|i| rows(64, i * 64)).collect();
    {
        let mut engine = Saber::with_config(durable_engine_config(&dir.path)).unwrap();
        engine.start().unwrap();
        engine.create_stream("S", schema()).unwrap();
        let catalog = engine.shared_catalog().unwrap().snapshot();
        let first = engine.add_query_sql(SQL, &catalog).unwrap();
        let second = engine.add_query_sql(SQL, &catalog).unwrap();
        for batch in &batches[..4] {
            first.ingest(StreamId(0), batch).unwrap();
        }
        first.remove().unwrap();
        for batch in &batches[4..] {
            second.ingest(StreamId(0), batch).unwrap();
        }
        engine.stop().unwrap();
        assert_eq!(second.tuples_emitted(), 512);
    }
    let (mut engine, report) = Saber::recover(durable_engine_config(&dir.path)).unwrap();
    let ids: Vec<usize> = report.queries.iter().map(|q| q.id.0).collect();
    assert_eq!(ids, vec![1]);
    let second = engine.query(QueryId(1)).unwrap();
    engine.stop().unwrap();
    assert_eq!(second.tuples_emitted(), 512);
    let all: Vec<&[u8]> = batches.iter().map(|b| b.as_slice()).collect();
    assert_eq!(
        second.take_rows().into_bytes(),
        reference_windows(SQL, &all)
    );
}

// ---------------------------------------------------------------------------
// Hard-kill end-to-end: a real server process, SIGKILL'd under acked load.
// ---------------------------------------------------------------------------

/// Child mode: runs only when re-invoked by the parent test with the data
/// directory in the environment. Binds a durable server, publishes its
/// address, then parks until it is killed.
#[test]
fn recovery_child_server() {
    let Ok(dir) = std::env::var("SABER_RECOVERY_CHILD_DIR") else {
        return; // normal test runs skip the child body
    };
    let dir = PathBuf::from(dir);
    let config = ServerConfig {
        engine: durable_engine_config(&dir),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("child bind");
    let addr_file = dir.join("addr.txt");
    std::fs::write(&addr_file, server.local_addr().to_string()).unwrap();
    // Park forever; the parent SIGKILLs this process.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
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
}

#[test]
fn hard_killed_server_recovers_same_ids_and_byte_identical_windows() {
    let dir = TempDir::new("sigkill");
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["recovery_child_server", "--exact", "--nocapture"])
        .env("SABER_RECOVERY_CHILD_DIR", &dir.path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child server");
    // Wait for the child to publish its address.
    let addr_file = dir.path.join("addr.txt");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "child server never came up");
        std::thread::sleep(Duration::from_millis(20));
    };
    std::fs::remove_file(&addr_file).unwrap();

    // Two queries, >= 4096 acked rows total, over one stream.
    let sql_proj = "SELECT ts, k FROM S [ROWS 256]";
    let sql_agg = "SELECT ts, k, COUNT(*) FROM S [ROWS 128] GROUP BY k";
    const BATCHES: usize = 80;
    const ROWS_PER_BATCH: usize = 32; // 80 * 32 * 2 = 5120 acked rows
    {
        let mut client = Client::connect(addr.trim());
        assert_eq!(
            client.send("CREATE STREAM S (ts TIMESTAMP, v FLOAT, k INT)"),
            "OK stream S"
        );
        assert_eq!(client.send(&format!("QUERY {sql_proj}")), "OK query 0");
        assert_eq!(client.send(&format!("QUERY {sql_agg}")), "OK query 1");
        for chunk in 0..BATCHES {
            let csv: Vec<String> = (0..ROWS_PER_BATCH)
                .map(|i| {
                    let ts = (chunk * ROWS_PER_BATCH + i) as i64;
                    format!("{ts},{},{}", (ts % 4) as f32 * 0.25, ts % 8)
                })
                .collect();
            let line = csv.join(";");
            assert_eq!(
                client.send(&format!("INSERT 0 0 CSV {line}")),
                format!("OK rows {ROWS_PER_BATCH}")
            );
            assert_eq!(
                client.send(&format!("INSERT 1 0 CSV {line}")),
                format!("OK rows {ROWS_PER_BATCH}")
            );
        }
    }
    // Give the group commit (1 ms flush, fsync-every-flush) ample time to
    // make every acknowledged row durable, then kill -9.
    std::thread::sleep(Duration::from_millis(700));
    child.kill().expect("SIGKILL child");
    let _ = child.wait();

    let total_rows = (BATCHES * ROWS_PER_BATCH) as u64;
    let batches: Vec<Vec<u8>> = (0..BATCHES)
        .map(|i| rows(ROWS_PER_BATCH, (i * ROWS_PER_BATCH) as i64))
        .collect();
    let batch_refs: Vec<&[u8]> = batches.iter().map(|b| b.as_slice()).collect();

    // (a) Byte-identical windows: recover a copy of the crashed directory
    // in-process and compare both queries against uninterrupted runs.
    let image = TempDir::new("sigkill-image");
    copy_dir(&dir.path, &image.path);
    let (mut engine, report) = Saber::recover(durable_engine_config(&image.path)).unwrap();
    assert_eq!(report.queries.len(), 2);
    assert_eq!(report.replayed_rows, 2 * total_rows);
    let proj = engine.query(QueryId(0)).unwrap();
    let agg = engine.query(QueryId(1)).unwrap();
    engine.stop().unwrap();
    assert_eq!(
        proj.take_rows().into_bytes(),
        reference_windows(sql_proj, &batch_refs)
    );
    assert_eq!(
        agg.take_rows().into_bytes(),
        reference_windows(sql_agg, &batch_refs)
    );

    // (b) The restarted *server* serves the same ids with the replay
    // reported in STATS, and keeps accepting traffic under them.
    let config = ServerConfig {
        engine: durable_engine_config(&dir.path),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("rebind");
    let mut client = Client::connect(&server.local_addr().to_string());
    let queries = client.send("QUERIES");
    assert!(queries.starts_with("OK queries 2"), "{queries}");
    assert!(queries.contains(&format!("[0] {sql_proj}")), "{queries}");
    assert!(queries.contains(&format!("[1] {sql_agg}")), "{queries}");
    let stats = client.send("STATS 1");
    assert!(
        stats.contains(&format!("recovery_replayed_rows={}", 2 * total_rows)),
        "{stats}"
    );
    assert_eq!(
        client.send(&format!("INSERT 0 0 CSV {},0.0,0", total_rows)),
        "OK rows 1"
    );
    let report = server.shutdown().expect("clean shutdown");
    assert_eq!(report.queries.len(), 2);
    assert_eq!(report.queries[0].tuples_in, total_rows + 1);
}
