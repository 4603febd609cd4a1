//! End-to-end integration tests: whole queries run through the engine on all
//! execution modes and are checked against the single-threaded reference
//! implementation (`saber::workloads::reference`).

#![allow(
    clippy::disallowed_methods,
    reason = "tests fork bare threads to race the code under test"
)]

use saber::engine::{EngineConfig, ExecutionMode, Saber, SchedulingPolicyKind};
use saber::gpu::device::DeviceConfig;
use saber::prelude::*;
use saber::workloads::{reference, synthetic};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_config(mode: ExecutionMode) -> EngineConfig {
    EngineConfig {
        worker_threads: 3,
        query_task_size: 32 * 1024,
        execution_mode: mode,
        scheduling: SchedulingPolicyKind::default(),
        device: DeviceConfig::unpaced(),
        input_buffer_capacity: 16 << 20,
        max_queued_tasks: 64,
        durability: None,
    }
}

/// Runs a single-input query on the engine and returns the emitted rows.
fn run_on_engine(
    mode: ExecutionMode,
    query: Query,
    data: &saber::types::RowBuffer,
) -> saber::types::RowBuffer {
    let mut engine = Saber::with_config(test_config(mode)).unwrap();
    let sink = engine.add_query(query).unwrap();
    engine.start().unwrap();
    for chunk in data.bytes().chunks(48 * 1024) {
        engine.ingest(QueryId(0), StreamId(0), chunk).unwrap();
    }
    engine.stop().unwrap();
    sink.take_rows()
}

#[test]
fn selection_matches_reference_on_all_modes() {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 100_000, 7);
    let query = || {
        QueryBuilder::new("sel", schema.clone())
            .count_window(1024, 1024)
            .select(Expr::column(1).lt(Expr::literal(0.3)))
            .build()
            .unwrap()
    };
    let expected = reference::run_single_input(&query(), &data).unwrap();
    for mode in [
        ExecutionMode::CpuOnly,
        ExecutionMode::GpuOnly,
        ExecutionMode::Hybrid,
    ] {
        let got = run_on_engine(mode, query(), &data);
        assert_eq!(got.len(), expected.len(), "mode {mode:?}");
        assert_eq!(got.bytes(), expected.bytes(), "mode {mode:?}");
    }
}

#[test]
fn projection_with_arithmetic_matches_reference() {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 50_000, 13);
    let query = || {
        QueryBuilder::new("proj", schema.clone())
            .count_window(512, 512)
            .project(vec![
                (Expr::column(0), "timestamp"),
                (
                    Expr::column(1).mul(Expr::literal(3.0)).add(Expr::column(2)),
                    "derived",
                ),
            ])
            .build()
            .unwrap()
    };
    let expected = reference::run_single_input(&query(), &data).unwrap();
    let got = run_on_engine(ExecutionMode::Hybrid, query(), &data);
    assert_eq!(got.len(), expected.len());
    // Spot-check values (bytes may differ in float rounding only if the
    // engine used a different evaluation order — it does not, so exact).
    assert_eq!(got.bytes(), expected.bytes());
}

#[test]
fn tumbling_group_by_matches_reference() {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 64 * 1024, 3);
    let query = || {
        QueryBuilder::new("agg", schema.clone())
            .count_window(4096, 4096)
            .aggregate(AggregateFunction::Count, 1)
            .aggregate(AggregateFunction::Sum, 1)
            .group_by(vec![3])
            .build()
            .unwrap()
    };
    let expected = reference::run_single_input(&query(), &data).unwrap();
    for mode in [ExecutionMode::CpuOnly, ExecutionMode::Hybrid] {
        let got = run_on_engine(mode, query(), &data);
        assert_eq!(got.len(), expected.len(), "mode {mode:?}");
        // Compare per-row with a float tolerance for the sums.
        for (g, e) in got.iter().zip(expected.iter()) {
            assert_eq!(g.timestamp(), e.timestamp());
            assert_eq!(g.get_i32(1), e.get_i32(1));
            assert_eq!(g.get_i64(2), e.get_i64(2));
            assert!((g.get_f32(3) - e.get_f32(3)).abs() < 1.0);
        }
    }
}

#[test]
fn sliding_average_matches_reference() {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 32 * 1024, 11);
    let query = || {
        QueryBuilder::new("sliding", schema.clone())
            .count_window(2048, 256)
            .aggregate(AggregateFunction::Avg, 1)
            .build()
            .unwrap()
    };
    let expected = reference::run_single_input(&query(), &data).unwrap();
    let got = run_on_engine(ExecutionMode::Hybrid, query(), &data);
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(expected.iter()) {
        assert_eq!(g.timestamp(), e.timestamp());
        assert!((g.get_f32(1) - e.get_f32(1)).abs() < 1e-3);
    }
}

#[test]
fn selection_with_aggregation_and_having_matches_reference() {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 48 * 1024, 19);
    let query = || {
        QueryBuilder::new("cm2-like", schema.clone())
            .count_window(1024, 1024)
            .select(Expr::column(2).lt(Expr::literal(512.0)))
            .aggregate(AggregateFunction::Avg, 1)
            .group_by(vec![4])
            .having(Expr::column(2).gt(Expr::literal(0.45)))
            .build()
            .unwrap()
    };
    let expected = reference::run_single_input(&query(), &data).unwrap();
    let got = run_on_engine(ExecutionMode::Hybrid, query(), &data);
    assert_eq!(got.len(), expected.len());
}

/// Where the tasks of one run are cut: at φ = `task_size` bytes, plus —
/// with a seed — a `flush()` after a pseudo-random third of the ingest
/// calls. (Idle workers add early cuts of their own, at points no test
/// controls: that is the point.)
#[derive(Debug, Clone, Copy)]
struct CutPoints {
    task_size: usize,
    flush_seed: Option<u64>,
}

/// Feeds `inputs` (one per stream, alternating in `chunk_rows` pieces, as a
/// source with aligned streams would) through a fresh engine.
fn run_with_cut_points(
    query: Query,
    inputs: &[&saber::types::RowBuffer],
    chunk_rows: usize,
    cuts: CutPoints,
) -> saber::types::RowBuffer {
    let mut config = test_config(ExecutionMode::Hybrid);
    config.query_task_size = cuts.task_size;
    let mut engine = Saber::with_config(config).unwrap();
    let sink = engine.add_query(query).unwrap();
    engine.start().unwrap();
    let chunk_bytes = chunk_rows * inputs[0].schema().row_size();
    let mut lcg = cuts.flush_seed;
    for piece in 0..inputs[0].byte_len().div_ceil(chunk_bytes) {
        for (stream, input) in inputs.iter().enumerate() {
            let from = (piece * chunk_bytes).min(input.byte_len());
            let to = (from + chunk_bytes).min(input.byte_len());
            engine
                .ingest(QueryId(0), StreamId(stream), &input.bytes()[from..to])
                .unwrap();
            if let Some(state) = lcg.as_mut() {
                *state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (*state >> 33) % 3 == 0 {
                    engine.flush().unwrap();
                }
            }
        }
    }
    engine.stop().unwrap();
    sink.take_rows()
}

#[test]
fn results_are_identical_across_task_sizes() {
    // The paper's claim behind Fig. 13: the query task size is a physical
    // parameter and must not change query results. Neither may *where* a
    // task was cut: idle workers cut aged rows below φ wherever the wait
    // happens to end, so what a client sees cannot depend on it.
    let schema = synthetic::schema();
    let row = schema.row_size();
    let cut_points = [row, 7 * row, 8 * 1024, 64 * 1024, 512 * 1024, 1 << 20]
        .map(|task_size| CutPoints {
            task_size,
            flush_seed: None,
        })
        .into_iter()
        .chain([CutPoints {
            task_size: 1 << 20,
            flush_seed: Some(23),
        }]);

    let data = synthetic::generate(&schema, 16 * 1024, 23);
    let select = || {
        QueryBuilder::new("sel", schema.clone())
            .count_window(1024, 1024)
            .select(Expr::column(1).lt(Expr::literal(0.3)))
            .build()
            .unwrap()
    };
    // Aggregates whose value does not depend on the order partials merge
    // in (integer sums are exact in the f64 accumulator), so byte equality
    // is the right check; float sums are compared within a tolerance above.
    let group_by = || {
        QueryBuilder::new("agg", schema.clone())
            .count_window(1024, 256)
            .aggregate(AggregateFunction::Count, 1)
            .aggregate(AggregateFunction::Sum, 3)
            .aggregate(AggregateFunction::Max, 1)
            .group_by(vec![2])
            .build()
            .unwrap()
    };
    for (name, query) in [
        ("select", &select as &dyn Fn() -> Query),
        ("sliding group-by", &group_by),
    ] {
        let expected = reference::run_single_input(&query(), &data).unwrap();
        assert!(!expected.is_empty());
        for cuts in cut_points.clone() {
            let got = run_with_cut_points(query(), &[&data], 1000, cuts);
            assert_eq!(got.len(), expected.len(), "{name}, {cuts:?}");
            assert_eq!(got.bytes(), expected.bytes(), "{name}, {cuts:?}");
        }
    }

    // The θ-join has no single-threaded reference and emits a task's pairs
    // in task order, so its runs are compared with each other, as sorted
    // rows. Streams are fed half a window at a time: the dispatcher retains
    // one window of lookback per side, which bounds the skew a join sees.
    let left = synthetic::generate(&schema, 4 * 1024, 31);
    let right = synthetic::generate(&schema, 4 * 1024, 37);
    let window = WindowSpec::count(512, 512);
    let join = || {
        QueryBuilder::new("join", schema.clone())
            .window(window)
            .theta_join(
                schema.clone(),
                window,
                Expr::column(2)
                    .rem(Expr::literal(16.0))
                    .eq(Expr::column(7 + 2).rem(Expr::literal(16.0))),
            )
            .build()
            .unwrap()
    };
    let mut runs = cut_points.map(|cuts| {
        let got = run_with_cut_points(join(), &[&left, &right], 256, cuts);
        let mut rows: Vec<Vec<u8>> = got.iter().map(|t| t.bytes().to_vec()).collect();
        rows.sort_unstable();
        (cuts, rows)
    });
    let (_, first) = runs.next().unwrap();
    assert!(!first.is_empty(), "join emitted nothing");
    for (cuts, rows) in runs {
        assert_eq!(rows.len(), first.len(), "join, {cuts:?}");
        assert!(rows == first, "join rows differ, {cuts:?}");
    }
}

#[test]
fn join_query_runs_end_to_end_on_two_streams() {
    let schema = synthetic::schema();
    let left = synthetic::generate(&schema, 16 * 1024, 31);
    let right = synthetic::generate(&schema, 16 * 1024, 37);
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
    let mut engine = Saber::with_config(test_config(ExecutionMode::Hybrid)).unwrap();
    let sink = engine.add_query_with_options(query, false).unwrap();
    engine.start().unwrap();
    // Interleave ingestion window-by-window (512 rows = 16 KB per side), as a
    // real source would: each query task then carries aligned batches of both
    // streams.
    for (l, r) in left
        .bytes()
        .chunks(16 * 1024)
        .zip(right.bytes().chunks(16 * 1024))
    {
        engine.ingest(QueryId(0), StreamId(0), l).unwrap();
        engine.ingest(QueryId(0), StreamId(1), r).unwrap();
    }
    engine.stop().unwrap();
    // Expected pair count per tumbling 512-row window ≈ 512 * 512 / 16.
    let emitted = sink.tuples_emitted();
    assert!(emitted > 0, "join emitted nothing");
    let windows = 16 * 1024 / 512;
    let expected = windows as f64 * 512.0 * 512.0 / 16.0;
    let ratio = emitted as f64 / expected;
    assert!(
        ratio > 0.6 && ratio < 1.7,
        "emitted {emitted}, expected ~{expected}"
    );
}

#[test]
fn scheduling_policies_all_produce_correct_results() {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 64 * 1024, 41);
    let query = || {
        QueryBuilder::new("agg", schema.clone())
            .count_window(2048, 2048)
            .aggregate(AggregateFunction::Count, 1)
            .build()
            .unwrap()
    };
    let expected = reference::run_single_input(&query(), &data).unwrap();
    for policy in [
        SchedulingPolicyKind::Hls {
            switch_threshold: 4,
        },
        SchedulingPolicyKind::Fcfs,
    ] {
        let mut config = test_config(ExecutionMode::Hybrid);
        config.scheduling = policy;
        let mut engine = Saber::with_config(config).unwrap();
        let sink = engine.add_query(query()).unwrap();
        engine.start().unwrap();
        for chunk in data.bytes().chunks(64 * 1024) {
            engine.ingest(QueryId(0), StreamId(0), chunk).unwrap();
        }
        engine.stop().unwrap();
        let got = sink.take_rows();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            assert_eq!(g.get_i64(1), e.get_i64(1));
        }
    }
}

/// Watches, on a thread of its own until `done` is set, every thread of
/// this process whose name starts with `prefix`, sampling its CPU time
/// (Linux's per-thread schedstat) every millisecond. Returns, per thread
/// seen, the wall time between its first and last sample and the CPU time
/// it used in between. A thread is named once it first runs, so the threads
/// are looked up afresh at every sample. Returns nothing without `/proc`.
fn watch_threads(
    prefix: &'static str,
    done: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Vec<(Duration, Duration)>> {
    std::thread::spawn(move || {
        let mut seen = BTreeMap::new();
        while !done.load(Ordering::SeqCst) {
            let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten();
            for dir in tasks.flatten().map(|entry| entry.path()) {
                let named = std::fs::read_to_string(dir.join("comm"))
                    .is_ok_and(|comm| comm.starts_with(prefix));
                let cpu_ns = std::fs::read_to_string(dir.join("schedstat"))
                    .ok()
                    .and_then(|stat| stat.split_whitespace().next()?.parse::<u64>().ok());
                if let (true, Some(cpu_ns)) = (named, cpu_ns) {
                    let sample = (Instant::now(), cpu_ns);
                    seen.entry(dir)
                        .and_modify(|(_, last)| *last = sample)
                        .or_insert((sample, sample));
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        seen.into_values()
            .map(|(first, last)| (last.0 - first.0, Duration::from_nanos(last.1 - first.1)))
            .collect()
    })
}

/// Runs a selection on a device whose every transfer takes 2 ms and stops
/// the engine while tasks are still moving: the results must match the
/// reference, the device memory must be free once `stop()` returns, and the
/// accelerator threads must have slept, not spun, through the waits.
/// Returns how many tasks the device ran in all and during `stop()`.
fn paced_device_run(mode: ExecutionMode) -> (u64, u64) {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 32 * 1024, 17);
    let query = || {
        QueryBuilder::new("sel", schema.clone())
            .count_window(1024, 1024)
            .select(Expr::column(1).lt(Expr::literal(0.5)))
            .build()
            .unwrap()
    };
    let expected = reference::run_single_input(&query(), &data).unwrap();
    let mut config = test_config(mode);
    config.scheduling = SchedulingPolicyKind::Hls {
        switch_threshold: 2,
    };
    config.device.pcie.dma_latency = Duration::from_millis(2);
    config.device.pcie.time_scale = 1.0;
    let mut engine = Saber::with_config(config).unwrap();
    let sink = engine.add_query(query()).unwrap();
    engine.start().unwrap();
    for chunk in data.bytes().chunks(48 * 1024) {
        engine.ingest(QueryId(0), StreamId(0), chunk).unwrap();
    }
    let executed_before_stop = engine.device().stats().tasks_executed();
    // Tests run in parallel: this also watches other engines' accelerator
    // threads, none of which may spin either.
    let done = Arc::new(AtomicBool::new(false));
    let watcher = watch_threads("saber-gp", done.clone());
    engine.stop().unwrap();
    done.store(true, Ordering::SeqCst);
    assert_eq!(engine.device().memory().allocated(), 0, "mode {mode:?}");
    let got = sink.take_rows();
    assert_eq!(got.len(), expected.len(), "mode {mode:?}");
    assert_eq!(got.bytes(), expected.bytes(), "mode {mode:?}");
    for (wall, cpu) in watcher.join().unwrap() {
        assert!(
            cpu <= wall / 2 + Duration::from_millis(2),
            "mode {mode:?}: an accelerator thread used {cpu:?} of CPU in {wall:?}"
        );
    }
    let executed = engine.device().stats().tasks_executed();
    (executed, executed - executed_before_stop)
}

#[test]
fn a_paced_device_drains_at_stop_in_gpu_only_mode() {
    let (_, during_stop) = paced_device_run(ExecutionMode::GpuOnly);
    assert!(during_stop > 0, "no task was in flight at stop");
}

#[test]
fn a_paced_device_drains_at_stop_in_hybrid_mode() {
    let (executed, _) = paced_device_run(ExecutionMode::Hybrid);
    assert!(executed > 0, "the device ran no task");
}
