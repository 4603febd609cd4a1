//! Multi-producer integration tests: many threads ingest into running
//! engines through cloneable [`saber::engine::IngestHandle`]s, and every row
//! must come out exactly once. These exercise the full lock-minimized path —
//! reservation-ring appends, concurrent task cutting, credit-gated admission
//! and the sharded task queue — under real thread interleavings.

#![allow(
    clippy::disallowed_methods,
    reason = "tests fork bare threads to race the code under test"
)]

use saber::engine::{EngineConfig, ExecutionMode, Saber, SchedulingPolicyKind};
use saber::gpu::device::DeviceConfig;
use saber::prelude::*;
use saber::types::RowBuffer;
use saber::workloads::synthetic;

fn config(mode: ExecutionMode, max_queued: usize) -> EngineConfig {
    EngineConfig {
        worker_threads: 3,
        query_task_size: 32 * 1024,
        execution_mode: mode,
        scheduling: SchedulingPolicyKind::default(),
        device: DeviceConfig::unpaced(),
        input_buffer_capacity: 4 << 20,
        max_queued_tasks: max_queued,
        durability: None,
    }
}

fn passthrough(schema: &saber::types::schema::SchemaRef) -> Query {
    QueryBuilder::new("proj", schema.clone())
        .count_window(1024, 1024)
        .project(vec![(Expr::column(0), "timestamp")])
        .build()
        .unwrap()
}

/// Four producers share one stream of one query; a projection emits exactly
/// one output row per input row, so the emitted count proves no row was lost
/// or duplicated anywhere in the pipeline.
#[test]
fn four_producers_one_stream_lose_nothing() {
    const PRODUCERS: usize = 4;
    const ROWS_PER_PRODUCER: usize = 64 * 1024;
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(config(ExecutionMode::Hybrid, 64)).unwrap();
    let sink = engine
        .add_query_with_options(passthrough(&schema), false)
        .unwrap();
    engine.start().unwrap();

    let handle = engine.ingest_handle(QueryId(0), StreamId(0)).unwrap();
    let threads: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = handle.clone();
            let schema = schema.clone();
            std::thread::spawn(move || {
                let data = synthetic::generate(&schema, ROWS_PER_PRODUCER, p as u64);
                for chunk in data.bytes().chunks(16 * 1024) {
                    handle.ingest(chunk).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    engine.stop().unwrap();

    assert_eq!(
        sink.tuples_emitted(),
        (PRODUCERS * ROWS_PER_PRODUCER) as u64
    );
    assert_eq!(engine.in_flight_tasks(), 0);
    assert_eq!(engine.queued_tasks(), 0);
}

/// Producers on different queries share nothing but the worker pool; each
/// query's count must be independently exact.
#[test]
fn producers_on_separate_queries_are_isolated() {
    const QUERIES: usize = 3;
    const ROWS: usize = 48 * 1024;
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(config(ExecutionMode::CpuOnly, 32)).unwrap();
    let sinks: Vec<_> = (0..QUERIES)
        .map(|_| {
            engine
                .add_query_with_options(passthrough(&schema), false)
                .unwrap()
        })
        .collect();
    engine.start().unwrap();

    let threads: Vec<_> = (0..QUERIES)
        .map(|q| {
            let handle = engine.ingest_handle(QueryId(q), StreamId(0)).unwrap();
            let schema = schema.clone();
            std::thread::spawn(move || {
                let data = synthetic::generate(&schema, ROWS, 100 + q as u64);
                for chunk in data.bytes().chunks(8 * 1024) {
                    handle.ingest(chunk).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    engine.stop().unwrap();

    for (q, sink) in sinks.iter().enumerate() {
        assert_eq!(sink.tuples_emitted(), ROWS as u64, "query {q}");
    }
}

/// A tiny credit gate forces heavy backpressure; the engine must neither
/// deadlock nor drop rows, and the stall must be observable in the metrics.
#[test]
fn backpressure_under_concurrent_producers_is_lossless_and_observed() {
    const PRODUCERS: usize = 4;
    const ROWS_PER_PRODUCER: usize = 32 * 1024;
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(config(ExecutionMode::CpuOnly, 2)).unwrap();
    // An aggregation keeps workers busier than a projection.
    let query = QueryBuilder::new("agg", schema.clone())
        .count_window(2048, 512)
        .aggregate(AggregateFunction::Sum, 1)
        .build()
        .unwrap();
    engine.add_query_with_options(query, false).unwrap();
    engine.start().unwrap();

    let handle = engine.ingest_handle(QueryId(0), StreamId(0)).unwrap();
    let threads: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = handle.clone();
            let schema = schema.clone();
            std::thread::spawn(move || {
                let data = synthetic::generate(&schema, ROWS_PER_PRODUCER, 200 + p as u64);
                for chunk in data.bytes().chunks(32 * 1024) {
                    handle.ingest(chunk).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    engine.stop().unwrap();

    let stats = engine.query_stats(QueryId(0)).unwrap();
    assert_eq!(
        stats.tuples_in.load(std::sync::atomic::Ordering::Relaxed),
        (PRODUCERS * ROWS_PER_PRODUCER) as u64
    );
    assert!(engine.max_queued_tasks_observed() <= 2);
    let (waits, _) = engine.backpressure_stats();
    assert!(waits > 0, "expected producers to hit the credit gate");
}

/// Interleaved two-stream ingestion from two threads must keep a join query
/// producing (regression guard for per-stream front-end independence).
#[test]
fn join_streams_can_be_fed_by_independent_threads() {
    let schema = synthetic::schema();
    let window = WindowSpec::count(512, 512);
    let query = QueryBuilder::new("join", schema.clone())
        .window(window)
        .theta_join(
            schema.clone(),
            window,
            Expr::column(2)
                .rem(Expr::literal(16.0))
                .eq(Expr::column(7 + 2).rem(Expr::literal(16.0))),
        )
        .build()
        .unwrap();
    let mut engine = Saber::with_config(config(ExecutionMode::Hybrid, 64)).unwrap();
    let sink = engine.add_query_with_options(query, false).unwrap();
    engine.start().unwrap();

    let rows = 16 * 1024;
    let threads: Vec<_> = (0..2)
        .map(|stream| {
            let handle = engine.ingest_handle(QueryId(0), StreamId(stream)).unwrap();
            let schema = schema.clone();
            std::thread::spawn(move || {
                let data = synthetic::generate(&schema, rows, 31 + stream as u64);
                for chunk in data.bytes().chunks(16 * 1024) {
                    handle.ingest(chunk).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    engine.stop().unwrap();
    assert!(sink.tuples_emitted() > 0, "join emitted nothing");
}

/// The shutdown race fixed in `Saber::stop()`: producers looping on
/// `IngestHandle`s while `stop()` runs must (a) never have a row accepted
/// and then dropped, (b) not pin the stop at its drain timeout, and (c) get
/// a clear `State` error for every ingest after the stop began.
#[test]
fn stop_under_looping_producers_is_loss_free_and_bounded() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const PRODUCERS: usize = 4;
    const CHUNK_ROWS: usize = 1024;
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(config(ExecutionMode::CpuOnly, 16)).unwrap();
    // A per-row window: every accepted row closes a window, so the emitted
    // count must equal the accepted count exactly — accepted-then-dropped
    // rows would show up as a deficit.
    let query = QueryBuilder::new("proj", schema.clone())
        .count_window(1, 1)
        .project(vec![(Expr::column(0), "timestamp")])
        .build()
        .unwrap();
    let sink = engine.add_query_with_options(query, false).unwrap();
    engine.start().unwrap();

    let accepted = Arc::new(AtomicU64::new(0));
    let handle = engine.ingest_handle(QueryId(0), StreamId(0)).unwrap();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = handle.clone();
            let schema = schema.clone();
            let accepted = accepted.clone();
            std::thread::spawn(move || {
                let chunk = synthetic::generate(&schema, CHUNK_ROWS, 300 + p as u64);
                // Loop until the engine stops us: each Ok is a promise that
                // the rows will be processed.
                loop {
                    match handle.ingest(chunk.bytes()) {
                        Ok(()) => {
                            accepted.fetch_add(CHUNK_ROWS as u64, Ordering::SeqCst);
                        }
                        Err(e) => {
                            assert_eq!(e.category(), "state");
                            assert!(
                                e.message().contains("stopped"),
                                "unexpected message: {}",
                                e.message()
                            );
                            return;
                        }
                    }
                }
            })
        })
        .collect();

    // Let the producers build up steam, then stop mid-flight.
    std::thread::sleep(Duration::from_millis(200));
    let started = Instant::now();
    engine.stop().unwrap();
    let stop_latency = started.elapsed();
    for t in producers {
        t.join().unwrap();
    }

    // Bounded: nowhere near the 60 s drain timeout a looping producer could
    // previously pin `stop()` at.
    assert!(
        stop_latency < Duration::from_secs(30),
        "stop took {stop_latency:?}"
    );
    let accepted = accepted.load(Ordering::SeqCst);
    assert!(accepted > 0, "producers never got a row in");
    let stats = engine.query_stats(QueryId(0)).unwrap();
    assert_eq!(stats.tuples_in.load(Ordering::SeqCst), accepted);
    // Loss-free: every accepted row was processed and emitted.
    assert_eq!(sink.tuples_emitted(), accepted);
    assert_eq!(engine.in_flight_tasks(), 0);

    // Handles stay invalidated after the stop.
    let err = handle.ingest(&synthetic::generate(&schema, 1, 0).into_bytes());
    assert!(matches!(
        err,
        Err(saber::types::SaberError::State(ref m)) if m.contains("stopped")
    ));
}

/// Sanity: per-chunk ingestion through a handle matches plain `Saber::ingest`
/// results for a deterministic aggregation.
#[test]
fn handle_ingest_matches_direct_ingest_results() {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 32 * 1024, 17);
    let query = || {
        QueryBuilder::new("agg", schema.clone())
            .count_window(1024, 1024)
            .aggregate(AggregateFunction::Count, 1)
            .build()
            .unwrap()
    };

    let run = |use_handle: bool| -> RowBuffer {
        let mut engine = Saber::with_config(config(ExecutionMode::CpuOnly, 64)).unwrap();
        let sink = engine.add_query(query()).unwrap();
        engine.start().unwrap();
        if use_handle {
            let handle = engine.ingest_handle(QueryId(0), StreamId(0)).unwrap();
            for chunk in data.bytes().chunks(24 * 1024) {
                handle.ingest(chunk).unwrap();
            }
        } else {
            for chunk in data.bytes().chunks(24 * 1024) {
                engine.ingest(QueryId(0), StreamId(0), chunk).unwrap();
            }
        }
        engine.stop().unwrap();
        sink.take_rows()
    };

    let direct = run(false);
    let handled = run(true);
    assert_eq!(direct.len(), handled.len());
    assert_eq!(direct.bytes(), handled.bytes());
}
