//! Ablation: multi-producer ingest throughput of the lock-minimized
//! pipeline.
//!
//! SABER's dispatcher separates lock-free ring appends from the serialized
//! task cut, so ingest throughput should scale with the number of producer
//! threads instead of collapsing on a per-query dispatcher lock. This
//! harness measures aggregate ingest throughput for 1/2/4/8 producer
//! threads in two configurations:
//!
//! * `streams` — each producer feeds its own query (the paper's
//!   multi-query deployment; fully independent ingest front-ends),
//! * `shared` — all producers feed one stream of one query (contending on
//!   the same reservation ring), and
//! * `durable` — the `shared` configuration with the write-ahead log
//!   enabled at its default group-commit interval (WAL in a scratch
//!   directory under the system temp dir, removed afterwards). The
//!   `durable_vs_shared` column is the durability overhead — the
//!   acceptance target is <15% single-producer regression.
//!
//! The scaling column reports throughput relative to the single-producer
//! baseline of the same configuration.
//!
//! Scaling above 1.0 requires real hardware parallelism: on a single-core
//! host every configuration time-slices one CPU and the expected result is
//! flat (or worse, from context switching). Run on a multi-core machine to
//! observe the ≥1.5× multi-producer speed-up the refactor targets.

#![allow(
    clippy::disallowed_methods,
    reason = "a load harness that drives the engine from outside it"
)]

use saber_bench::{bench_workers, fmt, measure_duration, Report};
use saber_engine::{
    DurabilityConfig, EngineConfig, ExecutionMode, QueryId, Saber, SchedulingPolicyKind, StreamId,
};
use saber_gpu::device::DeviceConfig;
use saber_query::{Expr, QueryBuilder, WindowSpec};
use saber_workloads::synthetic;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine_config(queries: usize, durable_dir: Option<&PathBuf>) -> EngineConfig {
    EngineConfig {
        worker_threads: bench_workers(),
        query_task_size: 1 << 20,
        execution_mode: ExecutionMode::CpuOnly,
        scheduling: SchedulingPolicyKind::default(),
        device: DeviceConfig::unpaced(),
        max_queued_tasks: 128.max(queries * 16),
        // Default group-commit interval and fsync policy: this is the
        // configuration whose overhead the durable column reports.
        // `SABER_ABL_DURABLE_FSYNC=never` switches the fsync policy off to
        // isolate the software (buffer/lock) overhead from raw disk
        // bandwidth on I/O-bound hosts.
        durability: durable_dir.map(|dir| {
            let mut config = DurabilityConfig::new(dir);
            if std::env::var("SABER_ABL_DURABLE_FSYNC").as_deref() == Ok("never") {
                config.fsync = saber_engine::FsyncPolicy::Never;
            }
            config
        }),
    }
}

/// Scratch WAL directory under the system temp dir, removed on drop.
struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("saber-abl-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self { path }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn selection(schema: &saber_types::schema::SchemaRef) -> saber_query::Query {
    // A cheap selection: execution stays far from the bottleneck, so the
    // measurement isolates the ingest path.
    QueryBuilder::new("sel", schema.clone())
        .window(WindowSpec::count(1024, 1024))
        .select(Expr::column(1).ge(Expr::literal(2.0)))
        .build()
        .unwrap()
}

/// Runs `producers` threads for the bench duration; returns tuples/second.
fn run(producers: usize, shared_stream: bool, durable: bool) -> f64 {
    let schema = synthetic::schema();
    let queries = if shared_stream { 1 } else { producers };
    let scratch = durable.then(|| ScratchDir::new("wal"));
    let mut engine =
        Saber::with_config(engine_config(queries, scratch.as_ref().map(|s| &s.path))).unwrap();
    for _ in 0..queries {
        engine
            .add_query_with_options(selection(&schema), false)
            .unwrap();
    }
    engine.start().unwrap();

    let chunk_rows = 8 * 1024;
    let duration = measure_duration();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let threads: Vec<_> = (0..producers)
        .map(|p| {
            let query = if shared_stream { 0 } else { p };
            let handle = engine.ingest_handle(QueryId(query), StreamId(0)).unwrap();
            let schema = schema.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let data = synthetic::generate(&schema, chunk_rows, p as u64);
                let mut ingested = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    handle.ingest(data.bytes()).unwrap();
                    ingested += chunk_rows as u64;
                }
                ingested
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    let elapsed = started.elapsed();
    engine.stop().unwrap();
    total as f64 / elapsed.as_secs_f64()
}

/// One producer paced at `target_rows_per_s`: the regime where the offered
/// load is within the WAL device's bandwidth, so durability costs latency
/// inside the group-commit buffer rather than throughput. Returns achieved
/// tuples/second.
fn run_paced(durable: bool, target_rows_per_s: f64) -> f64 {
    let schema = synthetic::schema();
    let scratch = durable.then(|| ScratchDir::new("wal-paced"));
    let mut engine =
        Saber::with_config(engine_config(1, scratch.as_ref().map(|s| &s.path))).unwrap();
    engine
        .add_query_with_options(selection(&schema), false)
        .unwrap();
    engine.start().unwrap();
    let chunk_rows = 8 * 1024usize;
    let chunk_interval = Duration::from_secs_f64(chunk_rows as f64 / target_rows_per_s);
    let handle = engine.ingest_handle(QueryId(0), StreamId(0)).unwrap();
    let data = synthetic::generate(&schema, chunk_rows, 17);
    let duration = measure_duration();
    let started = Instant::now();
    let mut ingested = 0u64;
    let mut next_send = started;
    while started.elapsed() < duration {
        handle.ingest(data.bytes()).unwrap();
        ingested += chunk_rows as u64;
        next_send += chunk_interval;
        if let Some(sleep) = next_send.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
    }
    let elapsed = started.elapsed();
    engine.stop().unwrap();
    ingested as f64 / elapsed.as_secs_f64()
}

fn main() {
    let mut report = Report::new(
        "abl_ingest",
        "Ablation — ingest throughput vs. producer threads (lock-minimized pipeline)",
        &[
            "producers",
            "streams_mtuples_per_s",
            "streams_scaling",
            "shared_mtuples_per_s",
            "shared_scaling",
            "durable_mtuples_per_s",
            "durable_vs_shared",
        ],
    );

    let mut streams_base = 0.0;
    let mut shared_base = 0.0;
    for producers in [1usize, 2, 4, 8] {
        let streams = run(producers, false, false);
        let shared = run(producers, true, false);
        let durable = run(producers, true, true);
        if producers == 1 {
            streams_base = streams;
            shared_base = shared;
        }
        report.add_row(vec![
            producers.to_string(),
            fmt(streams / 1e6),
            fmt(streams / streams_base),
            fmt(shared / 1e6),
            fmt(shared / shared_base),
            fmt(durable / 1e6),
            fmt(durable / shared),
        ]);
    }
    report.finish();

    // The acceptance regime for durability overhead: a single producer
    // offering a load within the WAL device's write bandwidth (here 2M
    // 32-byte tuples/s = 64 MB/s). At unbounded offered load the durable
    // column above converges to device bandwidth on an I/O-bound host and
    // to the cost of the extra copy + checksum passes on a core-bound one.
    let mut paced = Report::new(
        "abl_ingest_paced",
        "Ablation — durability overhead at a paced (non-saturating) offered load",
        &["config", "mtuples_per_s", "vs_in_memory"],
    );
    let target = 2_000_000.0;
    let in_memory = run_paced(false, target);
    let durable = run_paced(true, target);
    paced.add_row(vec![
        "in_memory_2M_rows_s".into(),
        fmt(in_memory / 1e6),
        fmt(1.0),
    ]);
    paced.add_row(vec![
        "durable_2M_rows_s".into(),
        fmt(durable / 1e6),
        fmt(durable / in_memory),
    ]);
    paced.finish();
}
