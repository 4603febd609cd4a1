//! Differential tests for the batch-columnar operator kernels.
//!
//! Three checks, each over random batch contents, selectivities and
//! unaligned batch lengths:
//!
//! * **scalar ≡ SIMD, bit for bit.** For every operator shape — selection
//!   and projection, equi and pure θ-joins, ungrouped, grouped and COUNT
//!   DISTINCT aggregation — the AVX2 kernel must produce output identical to
//!   the scalar fallback, aggregate sums included (both reduce in the same
//!   fixed 4-lane order).
//! * **Against the independent reference interpreter**
//!   (`saber_workloads::reference`). Stateless output must be
//!   byte-identical. On tumbling windows each pane is one window, and the
//!   assembled windows must equal the reference's exactly for grouped and
//!   distinct shapes, which fold rows in order, and with sums within
//!   re-association tolerance for ungrouped run reductions. Sliding grouped
//!   windows (count- and time-based) merge several panes per window: COUNT,
//!   MIN, MAX, COUNT DISTINCT, keys and HAVING must be exact, SUM and AVG
//!   within the same tolerance.
//! * **Equi probe ≡ pure θ.** An equi-join must emit the bytes of the same
//!   join written as `(l.key - r.key) == 0`, which has no equi-key
//!   decomposition and so runs the predicate on every candidate pair.
//!
//! Run normally this covers whatever the host CPU supports (AVX2 on the CI
//! matrix); under `SABER_FORCE_SCALAR=1` the SIMD variant degrades to the
//! same scalar kernels and the suite pins that the forced path stays
//! byte-identical too.

use proptest::prelude::*;
use saber_cpu::{
    AggregationAssembler, CompiledPlan, CpuExecutor, KernelKind, PanePartial, StreamBatch,
    TaskOutput,
};
use saber_query::{AggregateFunction, Expr, Query, QueryBuilder, WindowSpec};
use saber_types::{DataType, RowBuffer, Schema, Value};

fn schema() -> saber_types::schema::SchemaRef {
    Schema::from_pairs(&[
        ("timestamp", DataType::Timestamp),
        ("a", DataType::Float),
        ("b", DataType::Float),
        ("key", DataType::Int),
    ])
    .unwrap()
    .into_ref()
}

/// Deterministic batch contents from one drawn seed (LCG), with the value
/// distribution scaled so a `a < threshold` filter hits the drawn
/// selectivity on average.
fn batch(seed: u64, rows: usize, key_range: i32, lookback: usize) -> StreamBatch {
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut rows_buf = RowBuffer::new(schema());
    for i in 0..rows {
        rows_buf
            .push_values(&[
                Value::Timestamp(i as i64),
                Value::Float(next() as f32),
                Value::Float((next() * 100.0 - 50.0) as f32),
                Value::Int((next() * key_range as f64) as i32),
            ])
            .unwrap();
    }
    StreamBatch::with_lookback(rows_buf, lookback as u64, 0, lookback)
}

/// Runs `plan` over `batches` once per kernel variant: `[Scalar, Simd]`.
fn run_both(plan: &CompiledPlan, batches: &[StreamBatch]) -> [TaskOutput; 2] {
    let exec = CpuExecutor::new();
    [KernelKind::Scalar, KernelKind::Simd]
        .map(|k| exec.execute(&plan.clone().with_kernel(k), batches).unwrap())
}

fn rows_of(out: &TaskOutput) -> &RowBuffer {
    match out {
        TaskOutput::Rows(r) => r,
        TaskOutput::Fragments { .. } => panic!("expected row output"),
    }
}

/// Per-pane sorted groups with every state field as exact bits.
type PaneBits = Vec<(
    u64,
    Vec<(Vec<i64>, Vec<(u64, u64, u64, u64, Option<Vec<i64>>)>)>,
)>;

fn pane_bits(panes: &[PanePartial]) -> PaneBits {
    panes
        .iter()
        .map(|p| {
            let groups = p.table.sorted_groups().into_iter().map(|(keys, states)| {
                let states = states.into_iter().map(|s| {
                    let (sum, min, max) = (s.sum.to_bits(), s.min.to_bits(), s.max.to_bits());
                    (sum, s.count, min, max, s.distinct)
                });
                (keys, states.collect())
            });
            (p.pane, groups.collect())
        })
        .collect()
}

fn fragments_of(out: TaskOutput) -> (Vec<PanePartial>, u64) {
    match out {
        TaskOutput::Fragments { panes, progress } => (panes, progress),
        TaskOutput::Rows(_) => panic!("expected fragments"),
    }
}

/// Aggregation shapes: over a tumbling window 0 ungrouped additive (the run
/// reductions), 1 grouped, 2 COUNT DISTINCT (the grouped fold); over a
/// sliding window of three panes 3 a two-column key (one of it computed)
/// with HAVING, count-based, and 4 a plain key, time-based.
fn aggregation(shape: u8, window: u64, filtered: bool) -> Query {
    let mut q = QueryBuilder::new("agg", schema());
    q = match shape {
        3 => q.count_window(3 * window, window),
        4 => q.time_window(3 * window, window),
        _ => q.count_window(window, window),
    };
    if filtered {
        q = q.select(Expr::column(1).gt(Expr::literal(0.3)));
    }
    let sliding = |q: QueryBuilder| {
        q.aggregate_count()
            .aggregate(AggregateFunction::Min, 2)
            .aggregate(AggregateFunction::Max, 1)
            .aggregate(AggregateFunction::CountDistinct, 3)
            .aggregate(AggregateFunction::Sum, 2)
            .aggregate(AggregateFunction::Avg, 1)
    };
    match shape {
        0 => q
            .aggregate(AggregateFunction::Sum, 2)
            .aggregate(AggregateFunction::Min, 2)
            .aggregate(AggregateFunction::Max, 1)
            .aggregate_count(),
        1 => q
            .aggregate(AggregateFunction::Sum, 2)
            .aggregate(AggregateFunction::Avg, 1)
            .aggregate(AggregateFunction::Max, 2)
            .aggregate_count()
            .group_by(vec![3]),
        2 => q
            .aggregate(AggregateFunction::CountDistinct, 3)
            .aggregate(AggregateFunction::Sum, 1),
        3 => sliding(q.project(vec![
            (Expr::column(0), "timestamp"),
            (Expr::column(1), "a"),
            (Expr::column(2), "b"),
            (Expr::column(3), "key"),
            (Expr::column(3).rem(Expr::literal(3.0)), "bucket"),
        ]))
        .group_by(vec![3, 4])
        // Output: timestamp, key, bucket, cnt, ...
        .having(Expr::column(3).ge(Expr::literal(2.0))),
        _ => sliding(q).group_by(vec![3]),
    }
    .build()
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stateless_kernels_match_each_other_and_the_reference(
        seed in 0u64..u64::MAX,
        rows in 0usize..300,
        lookback in 0usize..8,
        threshold in 0.0f64..1.0,
        project in 0u8..2,
    ) {
        let lookback = lookback.min(rows);
        let mut q = QueryBuilder::new("sel", schema())
            .count_window(16, 16)
            .select(Expr::column(1).lt(Expr::literal(threshold)));
        if project == 1 {
            q = q.project(vec![
                (Expr::column(0), "timestamp"),
                (
                    Expr::column(1).mul(Expr::column(2)).add(Expr::column(3)),
                    "mix",
                ),
                (Expr::column(2).div(Expr::column(1)), "ratio"),
            ]);
        }
        let q = q.build().unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let b = batch(seed, rows, 10, lookback);
        let [scalar, simd] = run_both(&plan, std::slice::from_ref(&b));
        prop_assert_eq!(rows_of(&scalar).bytes(), rows_of(&simd).bytes());
        let row_size = schema().row_size();
        let new_rows =
            RowBuffer::from_bytes(schema(), b.rows.bytes()[lookback * row_size..].to_vec()).unwrap();
        let reference = saber_workloads::reference::run_single_input(&q, &new_rows).unwrap();
        prop_assert_eq!(rows_of(&scalar).bytes(), reference.bytes());
    }

    #[test]
    fn join_kernels_agree_and_the_equi_probe_matches_pure_theta(
        seed in 0u64..u64::MAX,
        left_rows in 0usize..120,
        right_rows in 0usize..120,
        key_range in 1i32..12,
        lookback in 0usize..6,
    ) {
        let batches = [
            batch(seed, left_rows, key_range, lookback.min(left_rows)),
            batch(seed ^ 0x9e3779b97f4a7c15, right_rows, key_range, lookback.min(right_rows)),
        ];
        // The Int key columns are 3 and 7 of the combined row; the residual
        // is a non-equi conjunct, so the probe's residual check runs too.
        let residual = Expr::column(1).le(Expr::column(5));
        let equi = Expr::column(3).eq(Expr::column(7));
        let pure = Expr::column(3).sub(Expr::column(7)).eq(Expr::literal(0.0));
        let mut outputs = Vec::new();
        for key in [equi, pure] {
            let q = QueryBuilder::new("join", schema())
                .count_window(32, 32)
                .theta_join(schema(), WindowSpec::count(32, 32), key.and(residual.clone()))
                .build()
                .unwrap();
            let [scalar, simd] = run_both(&CompiledPlan::compile(&q).unwrap(), &batches);
            prop_assert_eq!(rows_of(&scalar).bytes(), rows_of(&simd).bytes());
            outputs.push(rows_of(&scalar).bytes().to_vec());
        }
        prop_assert_eq!(&outputs[0], &outputs[1], "equi probe vs (l.key - r.key) == 0");
    }

    #[test]
    fn aggregation_kernels_match_each_other_and_the_reference(
        seed in 0u64..u64::MAX,
        rows in 0usize..300,
        window in 1u64..40,
        key_range in 1i32..40,
        shape in 0u8..5,
        filtered in 0u8..2,
    ) {
        let q = aggregation(shape, window, filtered == 1);
        let plan = CompiledPlan::compile(&q).unwrap();
        let b = batch(seed, rows, key_range, 0);
        let [scalar, simd] = run_both(&plan, std::slice::from_ref(&b));
        let (scalar_panes, scalar_progress) = fragments_of(scalar);
        let (simd_panes, simd_progress) = fragments_of(simd);
        prop_assert_eq!(scalar_progress, simd_progress);
        prop_assert_eq!(pane_bits(&scalar_panes), pane_bits(&simd_panes));

        let mut assembler = AggregationAssembler::new(&plan).unwrap();
        let mut out = RowBuffer::new(plan.output_schema().clone());
        assembler.accept(scalar_panes, scalar_progress, &mut out).unwrap();
        let reference = saber_workloads::reference::run_single_input(&q, &b.rows).unwrap();
        if shape == 1 || shape == 2 {
            prop_assert_eq!(out.bytes(), reference.bytes());
        } else if shape >= 3 {
            // Exact but for SUM and AVG (output columns 7 and 8 of the
            // two-column key, 6 and 7 of the plain one).
            let sums = if shape == 3 { 7..9 } else { 6..8 };
            prop_assert_eq!(out.len(), reference.len());
            for (a, r) in out.iter().zip(reference.iter()) {
                for c in 0..out.schema().len() {
                    let (va, vr) = (a.get_numeric(c), r.get_numeric(c));
                    if sums.contains(&c) {
                        prop_assert!((va - vr).abs() <= 1e-6 * (1.0 + vr.abs()), "column {c}: {va} vs {vr}");
                    } else {
                        prop_assert_eq!(va.to_bits(), vr.to_bits(), "column {}: {} vs {}", c, va, vr);
                    }
                }
            }
        } else {
            // Timestamp, then SUM: within re-association tolerance; MIN,
            // MAX and COUNT: exact.
            prop_assert_eq!(out.len(), reference.len());
            for (a, r) in out.iter().zip(reference.iter()) {
                prop_assert_eq!(a.timestamp(), r.timestamp());
                let (sa, sr) = (a.get_f32(1) as f64, r.get_f32(1) as f64);
                prop_assert!((sa - sr).abs() <= 1e-6 * (1.0 + sr.abs()), "sum {sa} vs {sr}");
                prop_assert_eq!(&a.bytes()[12..], &r.bytes()[12..]);
            }
        }
    }
}
