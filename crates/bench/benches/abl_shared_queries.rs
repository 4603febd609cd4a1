//! Ablation: many fingerprint-identical queries on one shared physical
//! plan.
//!
//! The plan-sharing layer maps every query with the same canonical
//! fingerprint onto a single physical instance — one set of input rings,
//! one task-queue shard, one scheduler row — and demultiplexes results
//! into each subscriber's sink. The cost of the Nth duplicate should
//! therefore be ~O(1): a registry slot, a sink, and a subscription, with
//! no ring allocation and no extra per-tuple work on the hot path. This
//! harness registers 1/10/100/1000 duplicates of one query shape and
//! reports:
//!
//! * `register_anchor_ms` — cost of the first registration (compiles the
//!   plan and zeroes the input ring),
//! * `register_marginal_us` — mean cost of each *additional* duplicate
//!   (the fast-attach path; should stay flat as N grows),
//! * `wall_s` / `per_query_cost` — time to push a fixed volume of data
//!   through each physical plan and drain it; with sharing this should
//!   stay ~flat versus the single-query baseline (the per-window sink
//!   fan-out is the only O(N) term, and it is off the per-tuple path),
//! * `logical_mtuples_per_s` — aggregate rate *observed by the queries*
//!   (every duplicate sees the full stream, so this scales ~N while the
//!   physical work stays constant).
//!
//! Single-core caveat: on a 1-core container all numbers time-slice one
//! CPU, so absolute throughput is modest and `per_query_cost` is the
//! meaningful column — it isolates the marginal cost of a duplicate from
//! hardware parallelism. Run on a multi-core machine for absolute rates.
//!
//! Every point also runs the O(N) baseline the sharing layer removes: the
//! same projection built N times with `QueryBuilder` and no `.source(…)`.
//! Such queries carry no fingerprint and never share, so every duplicate
//! gets private rings and private tasks. The 1000-duplicate baseline is
//! skipped because 1000 private plans neither fit the queue budget nor
//! finish in reasonable time on one core.

use saber_bench::{bench_workers, fmt, Report};
use saber_engine::{
    EngineConfig, ExecutionMode, QueryHandle, Saber, SchedulingPolicyKind, StreamId,
};
use saber_gpu::device::DeviceConfig;
use saber_query::{Expr, QueryBuilder};
use saber_workloads::synthetic;
use std::collections::HashSet;
use std::time::Instant;

/// One cheap projection shape; every duplicate is fingerprint-identical.
const SQL: &str = "SELECT timestamp, a1 FROM S [ROWS 1024]";

/// Rows pushed through *each physical plan* in the timed phase.
const INGEST_ROWS: usize = 512 * 1024;
const CHUNK_ROWS: usize = 8 * 1024;

fn engine_config() -> EngineConfig {
    EngineConfig {
        worker_threads: bench_workers(),
        query_task_size: 256 * 1024,
        execution_mode: ExecutionMode::CpuOnly,
        scheduling: SchedulingPolicyKind::default(),
        device: DeviceConfig::unpaced(),
        max_queued_tasks: 256,
        durability: None,
    }
}

struct RunStats {
    physical_plans: usize,
    register_anchor: f64,
    register_marginal: Option<f64>,
    wall: f64,
    logical_rows: u64,
}

/// Registers one duplicate: the SQL statement (`shared`), or the same
/// projection built without a source name, which never shares.
fn register(engine: &Saber, shared: bool) -> QueryHandle {
    let schema = synthetic::schema();
    if shared {
        let catalog = saber_sql::Catalog::new().with_stream("S", schema);
        return engine
            .add_query_sql_with_options(SQL, &catalog, false)
            .unwrap();
    }
    let query = QueryBuilder::new("proj", schema)
        .count_window(1024, 1024)
        .project(vec![
            (Expr::column(0), "timestamp"),
            (Expr::column(1), "a1"),
        ])
        .build()
        .unwrap();
    engine.add_query_with_options(query, false).unwrap()
}

fn run(duplicates: usize, shared: bool) -> RunStats {
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(engine_config()).unwrap();

    let t0 = Instant::now();
    let anchor = register(&engine, shared);
    let register_anchor = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let followers: Vec<_> = (1..duplicates).map(|_| register(&engine, shared)).collect();
    let register_marginal =
        (duplicates > 1).then(|| t1.elapsed().as_secs_f64() / (duplicates - 1) as f64);
    let physical_plans = engine.num_physical_plans();
    engine.start().unwrap();

    // One ingest handle per *physical* plan: with sharing that is a single
    // handle no matter how many duplicates exist; without, every duplicate
    // is its own plan and gets its own copy of the data.
    let mut seen = HashSet::new();
    let handles: Vec<_> = std::iter::once(&anchor)
        .chain(followers.iter())
        .filter(|q| {
            let phys = engine.sharing_info(q.id()).map_or(q.id(), |(phys, _)| phys);
            seen.insert(phys)
        })
        .map(|q| engine.ingest_handle(q.id(), StreamId(0)).unwrap())
        .collect();
    assert_eq!(handles.len(), physical_plans);

    let data = synthetic::generate(&schema, CHUNK_ROWS, 42);
    let started = Instant::now();
    for _ in 0..INGEST_ROWS / CHUNK_ROWS {
        for handle in &handles {
            handle.ingest(data.bytes()).unwrap();
        }
    }
    engine.stop().unwrap(); // loss-free flush: every accepted row is out
    let wall = started.elapsed().as_secs_f64();

    // Keep the bench honest: the projection is a passthrough, so every
    // duplicate must have observed its plan's full stream.
    assert_eq!(anchor.tuples_emitted(), INGEST_ROWS as u64);
    let logical_rows = std::iter::once(&anchor)
        .chain(followers.iter())
        .map(|q| {
            assert_eq!(q.tuples_emitted(), INGEST_ROWS as u64, "query {:?}", q.id());
            q.tuples_emitted()
        })
        .sum();
    RunStats {
        physical_plans,
        register_anchor,
        register_marginal,
        wall,
        logical_rows,
    }
}

fn main() {
    let mut report = Report::new(
        "abl_shared_queries",
        "Ablation — N duplicate queries: one shared physical plan vs. N private ones",
        &[
            "plans",
            "duplicates",
            "physical_plans",
            "register_anchor_ms",
            "register_marginal_us",
            "wall_s",
            "per_query_cost",
            "logical_mtuples_per_s",
        ],
    );

    for shared in [true, false] {
        let mut base_wall = 0.0;
        for duplicates in [1usize, 10, 100, 1000] {
            if !shared && duplicates == 1000 {
                eprintln!(
                    "abl_shared_queries: skipping 1000 private duplicates \
                     (1000 private plans exceed the single-core time budget)"
                );
                continue;
            }
            let stats = run(duplicates, shared);
            if duplicates == 1 {
                base_wall = stats.wall;
            }
            report.add_row(vec![
                if shared { "shared" } else { "private" }.to_string(),
                duplicates.to_string(),
                stats.physical_plans.to_string(),
                fmt(stats.register_anchor * 1e3),
                stats
                    .register_marginal
                    .map_or_else(|| "-".into(), |m| fmt(m * 1e6)),
                fmt(stats.wall),
                fmt(stats.wall / base_wall),
                fmt(stats.logical_rows as f64 / stats.wall / 1e6),
            ]);
        }
    }
    report.finish();
}
