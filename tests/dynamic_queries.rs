//! Dynamic query lifecycle, end to end through the public facade: queries
//! registered on a *running* engine while other queries' producers keep
//! ingesting, loss-free removal under concurrency, and push-based result
//! consumption (`wait_for_window` instead of polling).

#![allow(
    clippy::disallowed_methods,
    reason = "tests fork bare threads to race the code under test"
)]

use saber::engine::{EngineConfig, ExecutionMode, Saber, SchedulingPolicyKind};
use saber::gpu::device::DeviceConfig;
use saber::prelude::*;
use saber::types::SaberError;
use saber::workloads::synthetic;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn config() -> EngineConfig {
    EngineConfig {
        worker_threads: 3,
        query_task_size: 32 * 1024,
        execution_mode: ExecutionMode::CpuOnly,
        scheduling: SchedulingPolicyKind::default(),
        device: DeviceConfig::unpaced(),
        input_buffer_capacity: 4 << 20,
        max_queued_tasks: 64,
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

/// The headline scenario the redesign unblocks: an engine starts with zero
/// queries, producers hammer the first registered query, and more queries
/// join (and leave) mid-traffic — each with an independently exact count.
#[test]
fn queries_join_and_leave_while_producers_run() {
    const PRODUCERS: usize = 3;
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(config()).unwrap();
    engine.start().unwrap(); // zero queries at start
    let first = engine
        .add_query_with_options(passthrough(&schema), false)
        .unwrap();

    // Producers loop on the first query until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let accepted = Arc::new(AtomicU64::new(0));
    let handle = engine.ingest_handle(first.id(), StreamId(0)).unwrap();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = handle.clone();
            let schema = schema.clone();
            let stop = stop.clone();
            let accepted = accepted.clone();
            std::thread::spawn(move || {
                let chunk = synthetic::generate(&schema, 2048, 400 + p as u64);
                while !stop.load(Ordering::Relaxed) {
                    handle.ingest(chunk.bytes()).unwrap();
                    accepted.fetch_add(2048, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // A second query registers mid-traffic and gets its own data.
    let second = engine
        .add_query_with_options(passthrough(&schema), false)
        .unwrap();
    assert_ne!(second.id(), first.id());
    let data = synthetic::generate(&schema, 32 * 1024, 7);
    for chunk in data.bytes().chunks(16 * 1024) {
        second.ingest(StreamId(0), chunk).unwrap();
    }

    // ...and is removed again, loss-free, while the first keeps flowing.
    second.remove().unwrap();
    assert_eq!(second.tuples_emitted(), 32 * 1024);
    assert_eq!(engine.num_queries(), 1);

    stop.store(true, Ordering::Relaxed);
    for t in producers {
        t.join().unwrap();
    }
    engine.stop().unwrap();
    assert_eq!(first.tuples_emitted(), accepted.load(Ordering::Relaxed));
    assert_eq!(engine.in_flight_tasks(), 0);
}

/// Removal under *concurrent* producers: the gate rejects late ingests with
/// a `State` error, and every ingest that returned `Ok` is reflected in the
/// sink — the per-query analogue of the stop() loss-freeness guarantee.
#[test]
fn remove_under_looping_producers_is_loss_free() {
    const PRODUCERS: usize = 4;
    const CHUNK_ROWS: usize = 1024;
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(config()).unwrap();
    // A per-row window: emitted == accepted exactly, so any dropped row
    // shows up as a deficit.
    let query = QueryBuilder::new("proj", schema.clone())
        .count_window(1, 1)
        .project(vec![(Expr::column(0), "timestamp")])
        .build()
        .unwrap();
    let target = engine.add_query_with_options(query, false).unwrap();
    let survivor = engine
        .add_query_with_options(passthrough(&schema), false)
        .unwrap();
    engine.start().unwrap();

    let accepted = Arc::new(AtomicU64::new(0));
    let handle = engine.ingest_handle(target.id(), StreamId(0)).unwrap();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = handle.clone();
            let schema = schema.clone();
            let accepted = accepted.clone();
            std::thread::spawn(move || {
                let chunk = synthetic::generate(&schema, CHUNK_ROWS, 500 + p as u64);
                loop {
                    match handle.ingest(chunk.bytes()) {
                        Ok(()) => {
                            accepted.fetch_add(CHUNK_ROWS as u64, Ordering::SeqCst);
                        }
                        Err(SaberError::State(m)) => {
                            assert!(m.contains("removed"), "unexpected message: {m}");
                            return;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    target.remove().unwrap();
    for t in producers {
        t.join().unwrap();
    }
    let accepted = accepted.load(Ordering::SeqCst);
    assert!(accepted > 0, "producers never got a row in");
    assert_eq!(target.tuples_emitted(), accepted);
    assert!(target.sink().is_closed());

    // The rest of the engine is unaffected.
    survivor
        .ingest(StreamId(0), synthetic::generate(&schema, 4096, 1).bytes())
        .unwrap();
    engine.stop().unwrap();
    assert_eq!(survivor.tuples_emitted(), 4096);
}

/// Sharing lifecycle stress: fingerprint-identical SQL queries churn
/// through attach/detach while producers keep the shared plan's stream
/// flowing, and the *last* detach retires the physical shard. Every
/// attached query detaches loss-free (emitted == whatever it observed
/// before its own removal), the engine ends with zero physical plans for
/// the shape, and a fresh registration afterwards starts a new anchor.
#[test]
fn shared_plan_attach_detach_churn_under_producers() {
    const CHURN_ROUNDS: usize = 40;
    let catalog = saber::sql::Catalog::new().with_stream("S", synthetic::schema());
    let sql = "SELECT timestamp, a1 FROM S [ROWS 512]";
    let mut engine = Saber::with_config(config()).unwrap();
    engine.start().unwrap();

    // The long-lived member producers keep feeding. It is the anchor, so
    // churned members below attach to (and detach from) its physical plan
    // whenever sharing is enabled.
    let base = engine.add_query_sql(sql, &catalog).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = engine.ingest_handle(base.id(), StreamId(0)).unwrap();
    let producers: Vec<_> = (0..2)
        .map(|p| {
            let handle = handle.clone();
            let schema = synthetic::schema();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let chunk = synthetic::generate(&schema, 1024, 900 + p as u64);
                while !stop.load(Ordering::Relaxed) {
                    handle.ingest(chunk.bytes()).unwrap();
                }
            })
        })
        .collect();

    let sharing = engine.sharing_info(base.id()).is_some();
    for round in 0..CHURN_ROUNDS {
        // Attach one or two fingerprint-identical members mid-traffic...
        let members: Vec<_> = (0..1 + round % 2)
            .map(|_| engine.add_query_sql(sql, &catalog).unwrap())
            .collect();
        if sharing {
            let (phys, n) = engine.sharing_info(members[0].id()).unwrap();
            assert_eq!(phys, base.id(), "round {round}: wrong physical plan");
            assert_eq!(n, 1 + members.len(), "round {round}: wrong member count");
            assert_eq!(engine.num_physical_plans(), 1);
        }
        // ...and detach them again while the producers never pause.
        for m in members {
            let seen = m.tuples_emitted();
            m.remove().unwrap();
            assert!(m.sink().is_closed());
            assert!(
                m.tuples_emitted() >= seen,
                "round {round}: sink went backwards"
            );
        }
        assert_eq!(engine.num_queries(), 1);
    }

    // The last detach retires the physical shard: remove the anchor too.
    stop.store(true, Ordering::Relaxed);
    for t in producers {
        t.join().unwrap();
    }
    base.remove().unwrap();
    assert_eq!(engine.num_queries(), 0);
    assert_eq!(engine.num_physical_plans(), 0);
    assert_eq!(engine.in_flight_tasks(), 0);

    // A fresh registration of the same shape starts a brand-new plan (new
    // anchor id, fresh rings) and still flows.
    let fresh = engine.add_query_sql(sql, &catalog).unwrap();
    assert_ne!(fresh.id(), base.id());
    if sharing {
        assert_eq!(engine.sharing_info(fresh.id()), Some((fresh.id(), 1)));
    }
    let data = synthetic::generate(&synthetic::schema(), 4096, 1);
    fresh.ingest(StreamId(0), data.bytes()).unwrap();
    engine.stop().unwrap();
    assert_eq!(fresh.tuples_emitted(), 4096);
}

/// Push-based consumption: a consumer thread blocks on `wait_for_window`,
/// drains on each wakeup, and terminates on `Closed` — no polling loop, and
/// the total matches the ingested count exactly.
#[test]
fn wait_for_window_drain_loop_sees_every_row_and_the_close() {
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(config()).unwrap();
    engine.start().unwrap();
    let query = engine.add_query(passthrough(&schema)).unwrap();

    let consumer = {
        let query = query.clone();
        std::thread::spawn(move || {
            let mut total = 0u64;
            loop {
                match query.wait_for_window(Duration::from_secs(30)) {
                    WindowWait::Ready => total += query.take_rows().len() as u64,
                    WindowWait::Closed => return total,
                    WindowWait::TimedOut => panic!("no windows within 30 s"),
                }
            }
        })
    };

    const ROWS: usize = 64 * 1024;
    let data = synthetic::generate(&schema, ROWS, 11);
    for chunk in data.bytes().chunks(8 * 1024) {
        query.ingest(StreamId(0), chunk).unwrap();
    }
    engine.stop().unwrap(); // closes the sink after the final flush
    assert_eq!(consumer.join().unwrap(), ROWS as u64);
}

/// Sink subscriptions push every batch to a callback with no consumer
/// thread at all.
#[test]
fn sink_subscription_pushes_every_batch() {
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(config()).unwrap();
    engine.start().unwrap();
    let query = engine
        .add_query_with_options(passthrough(&schema), false)
        .unwrap();
    let pushed = Arc::new(AtomicU64::new(0));
    let pushed2 = pushed.clone();
    query.sink().subscribe(move |batch| {
        pushed2.fetch_add(batch.len() as u64, Ordering::Relaxed);
    });

    const ROWS: usize = 32 * 1024;
    let data = synthetic::generate(&schema, ROWS, 23);
    for chunk in data.bytes().chunks(8 * 1024) {
        query.ingest(StreamId(0), chunk).unwrap();
    }
    engine.stop().unwrap();
    assert_eq!(pushed.load(Ordering::Relaxed), ROWS as u64);
}
