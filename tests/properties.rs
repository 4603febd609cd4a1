//! Property-based tests over the core invariants of the hybrid stream
//! processing model.

use proptest::prelude::*;
use saber::cpu::exec::StreamBatch;
use saber::cpu::plan::{CompiledPlan, PlanKind};
use saber::cpu::{AggregationAssembler, CpuExecutor, TaskOutput};
use saber::gpu::device::{DeviceConfig, GpuDevice};
use saber::prelude::*;
use saber::query::PartitionJoinSpec;
use saber::types::RowBuffer;
use saber::workloads::synthetic;

// Window arithmetic: every position belongs to the windows whose
// [start, end) range contains it, and `windows_intersecting` is consistent
// with per-position membership.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_membership_is_consistent(size in 1u64..64, slide_raw in 1u64..64, pos in 0u64..500) {
        let slide = slide_raw.min(size);
        let spec = WindowSpec::count(size, slide);
        let windows = spec.windows_containing(pos);
        for w in windows.clone() {
            prop_assert!(spec.window_start(w) <= pos && pos < spec.window_end(w));
        }
        // Windows just outside the range do not contain the position.
        if windows.start > 0 {
            let w = windows.start - 1;
            prop_assert!(!(spec.window_start(w) <= pos && pos < spec.window_end(w)));
        }
        let w = windows.end;
        prop_assert!(!(spec.window_start(w) <= pos && pos < spec.window_end(w)));
    }

    #[test]
    fn windows_intersecting_covers_all_contained_windows(
        size in 1u64..32,
        slide_raw in 1u64..32,
        start in 0u64..200,
        len in 1u64..100,
    ) {
        let slide = slide_raw.min(size);
        let spec = WindowSpec::count(size, slide);
        let end = start + len;
        let intersecting = spec.windows_intersecting(start, end);
        for p in start..end {
            for w in spec.windows_containing(p) {
                prop_assert!(intersecting.contains(&w), "window {w} for position {p} missing");
            }
        }
    }

    /// The dispatcher-level invariant behind Fig. 13: cutting the same stream
    /// into different task sizes must not change aggregation results.
    #[test]
    fn aggregation_results_are_independent_of_task_boundaries(
        rows in 64usize..512,
        cut in 8usize..64,
        window_size in 4u64..32,
        slide_raw in 1u64..32,
        seed in 0u64..1000,
    ) {
        let slide = slide_raw.min(window_size);
        let schema = synthetic::schema();
        let data = synthetic::generate(&schema, rows, seed);
        let query = QueryBuilder::new("agg", schema.clone())
            .count_window(window_size, slide)
            .aggregate(AggregateFunction::Sum, 1)
            .aggregate(AggregateFunction::Count, 1)
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&query).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };

        let run_with_cut = |task_rows: usize| -> Vec<(i64, f64, i64)> {
            let mut assembler = AggregationAssembler::new(&plan).unwrap();
            let mut out = RowBuffer::new(plan.output_schema().clone());
            let mut offset = 0usize;
            while offset < rows {
                let end = (offset + task_rows).min(rows);
                let slice = RowBuffer::from_bytes(
                    schema.clone(),
                    data.bytes()[offset * 32..end * 32].to_vec(),
                ).unwrap();
                let batch = StreamBatch::new(slice, offset as u64, offset as i64);
                match saber::cpu::windowed::execute(&plan, &agg, &batch).unwrap() {
                    TaskOutput::Fragments { panes, progress } => {
                        assembler.accept(panes, progress, &mut out).unwrap();
                    }
                    _ => unreachable!(),
                }
                offset = end;
            }
            out.iter().map(|t| (t.timestamp(), t.get_f32(1) as f64, t.get_i64(2))).collect()
        };

        let a = run_with_cut(cut);
        let b = run_with_cut(rows); // one big task
        prop_assert_eq!(a.len(), b.len());
        for ((ta, sa, ca), (tb, sb, cb)) in a.iter().zip(b.iter()) {
            prop_assert_eq!(ta, tb);
            prop_assert_eq!(ca, cb);
            prop_assert!((sa - sb).abs() < 1e-3);
        }
    }

    /// CPU operators and the accelerator's work groups must compute
    /// identical results for the same task (the scheduler may run any task
    /// on either), for every plan shape and however the work groups split
    /// the rows — panes included.
    #[test]
    fn cpu_and_gpu_kernels_agree(
        rows in 16usize..800,
        shape in 0usize..7,
        threads in 0usize..3,
        seed in 0u64..1000,
    ) {
        let schema = synthetic::schema();
        let window = WindowSpec::count(64, 32);
        let unary = || QueryBuilder::new("q", schema.clone()).window(window);
        let join = |predicate: Expr| unary().theta_join(schema.clone(), window, predicate).build();
        let query = match shape {
            0 => synthetic::select(3, window),
            1 => synthetic::proj(3, 2, window),
            2 => unary()
                .project(vec![
                    (Expr::column(0), "timestamp"),
                    (Expr::column(2).rem(Expr::literal(16.0)), "g"),
                    (Expr::column(1), "v"),
                ])
                .aggregate(AggregateFunction::Sum, 2)
                .aggregate_count()
                .aggregate(AggregateFunction::Avg, 2)
                .group_by(vec![1])
                .build()
                .unwrap(),
            3 => unary().aggregate(AggregateFunction::CountDistinct, 3).build().unwrap(),
            // Equi (`a2 % 64 == a2' % 64`) and pure θ.
            4 => join(Expr::column(2).rem(Expr::literal(64.0)).eq(Expr::column(9).rem(Expr::literal(64.0)))).unwrap(),
            5 => join(Expr::column(2).sub(Expr::column(9)).rem(Expr::literal(64.0)).eq(Expr::literal(0.0))).unwrap(),
            _ => unary()
                .partition_join(schema.clone(), WindowSpec::count(1, 1), PartitionJoinSpec::new(2, 2))
                .build()
                .unwrap(),
        };
        let plan = CompiledPlan::compile(&query).unwrap();
        // Joins probe every build row; keep their tasks small.
        let rows = if shape >= 4 { rows / 4 + 4 } else { rows };
        let mut batches = vec![StreamBatch::new(synthetic::generate(&schema, rows, seed), 0, 0)];
        if plan.num_inputs() == 2 {
            let lookback = rows / 4;
            let right = synthetic::generate(&schema, rows, seed + 1);
            batches.push(StreamBatch::with_lookback(right, lookback as u64, 0, lookback));
        }
        let cpu = CpuExecutor::new().execute(&plan, &batches).unwrap();
        let device = GpuDevice::new(DeviceConfig {
            executor_threads: [1, 3, 4][threads],
            ..DeviceConfig::unpaced()
        });
        let gpu = device.execute(&plan, &batches).unwrap();
        match (cpu, gpu) {
            (TaskOutput::Rows(c), TaskOutput::Rows(g)) => prop_assert_eq!(c.bytes(), g.bytes()),
            (
                TaskOutput::Fragments { panes: c, progress: cp },
                TaskOutput::Fragments { panes: g, progress: gp },
            ) => {
                prop_assert_eq!(cp, gp);
                let sorted = |panes: Vec<saber::cpu::PanePartial>| {
                    panes.into_iter().map(|p| (p.pane, p.table.sorted_groups())).collect::<Vec<_>>()
                };
                prop_assert_eq!(sorted(c), sorted(g));
            }
            _ => prop_assert!(false, "unexpected output kinds"),
        }
    }

    /// Round-trip: encoding rows and reading them back through TupleRef
    /// preserves every attribute.
    #[test]
    fn row_encoding_round_trips(ts in 0i64..1_000_000, a in -1000.0f32..1000.0, b in -1000i32..1000) {
        let schema = saber::types::Schema::from_pairs(&[
            ("timestamp", saber::types::DataType::Timestamp),
            ("a", saber::types::DataType::Float),
            ("b", saber::types::DataType::Int),
        ]).unwrap().into_ref();
        let mut buf = RowBuffer::new(schema);
        buf.push_values(&[
            saber::types::Value::Timestamp(ts),
            saber::types::Value::Float(a),
            saber::types::Value::Int(b),
        ]).unwrap();
        let row = buf.row(0);
        prop_assert_eq!(row.timestamp(), ts);
        prop_assert_eq!(row.get_f32(1), a);
        prop_assert_eq!(row.get_i32(2), b);
    }
}
