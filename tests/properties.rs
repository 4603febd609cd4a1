//! Property-based tests over the core invariants of the hybrid stream
//! processing model.

use proptest::prelude::*;
use saber::cpu::exec::StreamBatch;
use saber::cpu::plan::{CompiledPlan, PlanKind};
use saber::cpu::{AggregationAssembler, CpuExecutor, TaskOutput};
use saber::gpu::device::{DeviceConfig, GpuDevice};
use saber::prelude::*;
use saber::query::PartitionJoinSpec;
use saber::query::Query;
use saber::types::RowBuffer;
use saber::workloads::{reference, synthetic};

/// `synthetic::generate` with `a2` in `[0, 4)` and `a3` in `[0, 3)`, so a
/// window holds several rows of each group.
fn small_key_data(rows: usize, seed: u64) -> RowBuffer {
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, rows, seed);
    let mut out = RowBuffer::with_capacity(schema, rows);
    for t in data.iter() {
        let mut row = out.push_uninit();
        for c in 0..7 {
            row.set_numeric(c, t.get_numeric(c));
        }
        row.set_i32(2, t.get_i32(2) % 4);
        row.set_i32(3, t.get_i32(3) % 3);
    }
    out
}

/// Aggregation shapes over `window`: 0 ungrouped SUM and COUNT (the run
/// reductions); 1 a two-column key with COUNT, MIN, MAX, COUNT DISTINCT,
/// SUM and AVG, and a HAVING on the count; 2 a computed key with MIN, MAX,
/// COUNT DISTINCT and SUM.
fn aggregation_query(shape: usize, window: WindowSpec) -> Query {
    let q = QueryBuilder::new("agg", synthetic::schema()).window(window);
    match shape {
        0 => q
            .aggregate(AggregateFunction::Sum, 1)
            .aggregate(AggregateFunction::Count, 1),
        1 => q
            .aggregate_count()
            .aggregate(AggregateFunction::Min, 1)
            .aggregate(AggregateFunction::Max, 1)
            .aggregate(AggregateFunction::CountDistinct, 4)
            .aggregate(AggregateFunction::Sum, 1)
            .aggregate(AggregateFunction::Avg, 1)
            .group_by(vec![2, 3])
            .having(Expr::column(3).gt(Expr::literal(1.0))),
        _ => q
            .project(vec![
                (Expr::column(0), "timestamp"),
                (
                    Expr::column(2).add(Expr::column(3)).rem(Expr::literal(3.0)),
                    "g",
                ),
                (Expr::column(1), "v"),
                (Expr::column(4), "d"),
            ])
            .aggregate(AggregateFunction::Min, 2)
            .aggregate(AggregateFunction::Max, 2)
            .aggregate(AggregateFunction::CountDistinct, 3)
            .aggregate(AggregateFunction::Sum, 2)
            .group_by(vec![1]),
    }
    .build()
    .unwrap()
}

/// Checks two window outputs of `plan` row by row: every column
/// byte-identical except SUM and AVG, which pane merging re-associates and
/// so may differ within float tolerance.
fn windows_match(plan: &CompiledPlan, a: &RowBuffer, b: &RowBuffer) -> Result<(), TestCaseError> {
    let PlanKind::Aggregation(agg) = plan.kind() else {
        unreachable!("aggregation plan")
    };
    let first = 1 + agg.group_exprs.len();
    let approx: Vec<usize> = agg
        .functions()
        .iter()
        .enumerate()
        .filter(|(_, f)| matches!(f, AggregateFunction::Sum | AggregateFunction::Avg))
        .map(|(i, _)| first + i)
        .collect();
    prop_assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(b.iter()) {
        for c in 0..plan.output_schema().len() {
            let (va, vb) = (ra.get_numeric(c), rb.get_numeric(c));
            if approx.contains(&c) {
                prop_assert!(
                    (va - vb).abs() <= 1e-5 * (1.0 + vb.abs()),
                    "column {c}: {va} vs {vb}"
                );
            } else {
                prop_assert_eq!(va.to_bits(), vb.to_bits(), "column {}: {} vs {}", c, va, vb);
            }
        }
    }
    Ok(())
}

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
    /// into different task sizes must not change aggregation results, and
    /// the assembled windows — sliding, so each is merged from several
    /// panes — match the reference interpreter.
    #[test]
    fn aggregation_results_are_independent_of_task_boundaries(
        rows in 64usize..512,
        cut in 8usize..64,
        window_size in 4u64..32,
        slide_raw in 1u64..32,
        seed in 0u64..1000,
        shape in 0usize..3,
        time_based in 0u8..2,
    ) {
        let slide = slide_raw.min(window_size);
        let window = if time_based == 1 {
            WindowSpec::time(window_size, slide)
        } else {
            WindowSpec::count(window_size, slide)
        };
        let schema = synthetic::schema();
        let data = small_key_data(rows, seed);
        let query = aggregation_query(shape, window);
        let plan = CompiledPlan::compile(&query).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };

        let run_with_cut = |task_rows: usize| -> RowBuffer {
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
            out
        };

        let whole = run_with_cut(rows); // one big task
        windows_match(&plan, &run_with_cut(cut), &whole)?;
        windows_match(&plan, &whole, &reference::run_single_input(&query, &data).unwrap())?;
    }

    /// A task run through the accelerator's five data-movement stages must
    /// produce what a CPU worker produces for it (the scheduler may run any
    /// task on either), for every plan shape — panes included.
    #[test]
    fn cpu_and_gpu_kernels_agree(
        rows in 16usize..800,
        shape in 0usize..9,
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
            // Sliding grouped windows merged from 4 panes, count- and
            // time-based.
            7 => aggregation_query(1, WindowSpec::count(64, 16)),
            8 => aggregation_query(2, WindowSpec::time(48, 16)),
            _ => unary()
                .partition_join(schema.clone(), WindowSpec::count(1, 1), PartitionJoinSpec::new(2, 2))
                .build()
                .unwrap(),
        };
        let plan = CompiledPlan::compile(&query).unwrap();
        // Joins probe every build row; keep their tasks small.
        let rows = if (4..7).contains(&shape) { rows / 4 + 4 } else { rows };
        let data = if shape >= 7 {
            small_key_data(rows, seed)
        } else {
            synthetic::generate(&schema, rows, seed)
        };
        let mut batches = vec![StreamBatch::new(data, 0, 0)];
        if plan.num_inputs() == 2 {
            let lookback = rows / 4;
            let right = synthetic::generate(&schema, rows, seed + 1);
            batches.push(StreamBatch::with_lookback(right, lookback as u64, 0, lookback));
        }
        let cpu = CpuExecutor::new().execute(&plan, &batches).unwrap();
        let device = GpuDevice::new(DeviceConfig::unpaced());
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
