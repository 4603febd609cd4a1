//! Window-aware aggregation: the batch operator function `f_b` (paper §3, §5.3).
//!
//! The stream batch of a query task is partitioned into *panes* — the
//! distinct subsequences from which overlapping windows are assembled. For
//! each pane touched by the batch, the batch operator function produces a
//! partial aggregation state ([`PanePartial`]) per GROUP-BY group. Because a
//! pane may straddle a batch boundary, these are *fragments*: the result
//! stage merges partials for the same pane across consecutive tasks and
//! assembles complete window results (see [`crate::assembler`]).
//!
//! This pane-based formulation is the incremental-computation optimisation of
//! the paper: every input tuple is folded into exactly one pane state, and
//! overlapping windows reuse the pane states instead of re-aggregating the
//! raw tuples.
//!
//! One columnar function serves every plan shape: the filter, the aggregate
//! inputs and the group keys are gathered and evaluated once per task, then
//! folded into panes in one of two ways chosen by the plan's shape (see
//! [`execute`]).

use crate::exec::{PanePartial, StreamBatch, TaskOutput};
use crate::hashtable::GroupTable;
use crate::kernels;
use crate::plan::{AggregationPlan, CompiledPlan};
use saber_query::aggregate::AggregateFunction;
use saber_query::Expr;
use saber_types::{columnar, ColumnarBatch, DataType, Result, RowBuffer};
use std::ops::Range;

/// One aggregate's input over the task's rows, evaluated once per task.
enum Input {
    /// COUNT: every surviving row counts once.
    Count,
    /// COUNT DISTINCT: one raw key per row.
    Keys(Vec<i64>),
    /// Every other function: one value per row (`0.0` without an input).
    Values(Vec<f64>),
}

/// True for expressions whose key is read raw rather than evaluated.
fn is_column(expr: &&Expr) -> bool {
    matches!(expr, Expr::Column(_))
}

/// One 64-bit key per row of `range`, as `TupleRef::get_key` would read it
/// from a row holding the expression's value: a column's raw key (bit
/// pattern for floats), or a computed expression's value stored as the
/// expression's output type — the type of the column a computed GROUP-BY
/// key is emitted into.
fn keys_of(
    expr: &Expr,
    rows: &RowBuffer,
    range: Range<usize>,
    columns: &ColumnarBatch,
    simd: bool,
) -> Vec<i64> {
    match expr {
        Expr::Column(c) => {
            let mut keys = Vec::new();
            columnar::gather_keys(rows, range, *c, &mut keys);
            keys
        }
        computed => {
            let values = kernels::eval(computed, columns, simd).into_iter();
            match computed.output_type(rows.schema()) {
                DataType::Int => values.map(|v| i64::from(v as i32)).collect(),
                DataType::Long | DataType::Timestamp => values.map(|v| v as i64).collect(),
                DataType::Float => values.map(|v| i64::from((v as f32).to_bits())).collect(),
                DataType::Double => values.map(|v| v.to_bits() as i64).collect(),
            }
        }
    }
}

/// Evaluates the aggregation batch operator function over one stream batch,
/// producing per-pane window-fragment partials.
///
/// The batch is split into contiguous equal-pane *runs*. Ungrouped
/// all-additive plans reduce each run with the vectorized masked
/// reductions; every other shape — GROUP-BY, COUNT DISTINCT — resolves the
/// run's surviving rows to group ids in the pane's [`GroupTable`], then
/// scatters each aggregate's inputs into the group states in row order.
pub fn execute(
    plan: &CompiledPlan,
    agg: &AggregationPlan,
    batch: &StreamBatch,
) -> Result<TaskOutput> {
    let rows = &batch.rows;
    let range = batch.lookback_rows..rows.len();
    let count_based = agg.window.is_count_based();

    let panes = if range.is_empty() {
        Vec::new()
    } else {
        let simd = plan.kernel().simd();
        let n = range.len();
        // Numeric columns for the filter, the aggregate inputs and computed
        // keys; plain-column keys are gathered raw by `keys_of`.
        let wanted = kernels::referenced_columns(
            agg.filter
                .iter()
                .chain(agg.group_exprs.iter().filter(|e| !is_column(e)))
                .chain(agg.aggregates.iter().filter_map(|(f, e)| match f {
                    AggregateFunction::Count => None,
                    AggregateFunction::CountDistinct => e.as_ref().filter(|e| !is_column(e)),
                    _ => e.as_ref(),
                })),
        );
        let columns = ColumnarBatch::gather(rows, range.clone(), &wanted);
        let mask = agg
            .filter
            .as_ref()
            .map(|f| kernels::eval(f, &columns, simd));
        let inputs: Vec<Input> = agg
            .aggregates
            .iter()
            .map(|(f, input)| match (f, input) {
                (AggregateFunction::Count, _) => Input::Count,
                (AggregateFunction::CountDistinct, Some(e)) => {
                    Input::Keys(keys_of(e, rows, range.clone(), &columns, simd))
                }
                (AggregateFunction::CountDistinct, None) => Input::Keys(vec![0; n]),
                (_, Some(e)) => Input::Values(kernels::eval(e, &columns, simd)),
                (_, None) => Input::Values(vec![0.0; n]),
            })
            .collect();

        // Deferred window computation: the pane (and therefore every window)
        // a row belongs to is derived here, inside the parallel task, from
        // the batch's absolute position.
        let mut timestamps = Vec::new();
        if !count_based {
            columnar::gather_timestamps(rows, range.clone(), &mut timestamps);
        }
        let position = |r: usize| -> u64 {
            if count_based {
                batch.start_index + r as u64
            } else {
                timestamps[r].max(0) as u64
            }
        };
        let runs = pane_runs(position, n, agg.pane_length.max(1));

        let functions = agg.functions();
        if agg.group_exprs.is_empty() && agg.all_additive() {
            fold_runs(&functions, mask.as_deref(), &inputs, runs, simd)
        } else {
            let keys: Vec<Vec<i64>> = agg
                .group_exprs
                .iter()
                .map(|e| keys_of(e, rows, range.clone(), &columns, simd))
                .collect();
            fold_groups(&functions, mask.as_deref(), &keys, &inputs, runs)
        }
    };

    // Progress: every position strictly below this value has been observed by
    // this or an earlier task, so windows ending at or before it can be
    // finalised by the result stage.
    let progress = if count_based {
        batch.end_index()
    } else {
        batch.end_timestamp().max(0) as u64
    };
    Ok(TaskOutput::Fragments { panes, progress })
}

/// Splits rows `0..n` into maximal runs of rows in one pane, in row order,
/// as `(pane, rows)`: one division per run, then a run extends while the
/// next row's position stays inside the pane's `[start, end)` range.
fn pane_runs(
    position: impl Fn(usize) -> u64,
    n: usize,
    pane_length: u64,
) -> impl Iterator<Item = (u64, Range<usize>)> {
    let mut r = 0;
    std::iter::from_fn(move || {
        if r == n {
            return None;
        }
        let start = r;
        let pane = position(start) / pane_length;
        let range = pane * pane_length..(pane + 1).saturating_mul(pane_length);
        r += 1;
        while r < n && range.contains(&position(r)) {
            r += 1;
        }
        Some((pane, start..r))
    })
}

/// Returns the partial of `pane`, opening one after the last if the pane
/// changed. Rows arrive in position order, so the pane sequence is
/// non-decreasing and a pane never splits into two partials. A new pane's
/// table is sized for the previous pane's group count.
fn partial_for<'a>(
    panes: &'a mut Vec<PanePartial>,
    pane: u64,
    arity: usize,
    functions: &[AggregateFunction],
) -> &'a mut GroupTable {
    if panes.last().is_none_or(|last| last.pane != pane) {
        let table = match panes.last() {
            Some(previous) => GroupTable::with_capacity(arity, functions, previous.table.len()),
            None => GroupTable::new(arity, functions),
        };
        panes.push(PanePartial { pane, table });
    }
    let last = panes.len() - 1;
    &mut panes[last].table
}

/// The grouped fold, two passes per pane run. Pass 1 resolves every
/// surviving row to its dense group id in the pane's table; pass 2 runs one
/// scatter per aggregate, `states[gid * n + a] ⊕= input[r]`, over the
/// survivors in row order. Each state therefore accumulates exactly as a
/// tuple-at-a-time loop would (sums keep their sequential association).
fn fold_groups(
    functions: &[AggregateFunction],
    mask: Option<&[f64]>,
    keys: &[Vec<i64>],
    inputs: &[Input],
    runs: impl Iterator<Item = (u64, Range<usize>)>,
) -> Vec<PanePartial> {
    let n = functions.len();
    let mut panes = Vec::new();
    let mut survivors: Vec<usize> = Vec::new();
    let mut gids: Vec<u32> = Vec::new();
    let mut key: Vec<i64> = Vec::with_capacity(keys.len());
    for (pane, rows) in runs {
        survivors.clear();
        match mask {
            None => survivors.extend(rows),
            Some(m) => survivors.extend(rows.filter(|&r| m[r] != 0.0)),
        }
        if survivors.is_empty() {
            continue;
        }
        let table = partial_for(&mut panes, pane, keys.len(), functions);
        gids.clear();
        match keys {
            [column] => gids.extend(
                survivors
                    .iter()
                    .map(|&r| table.group(std::slice::from_ref(&column[r])) as u32),
            ),
            columns => gids.extend(survivors.iter().map(|&r| {
                key.clear();
                key.extend(columns.iter().map(|column| column[r]));
                table.group(&key) as u32
            })),
        }
        let states = table.states_mut();
        for (a, input) in inputs.iter().enumerate() {
            let scatter = survivors.iter().zip(&gids);
            match input {
                Input::Count => {
                    for &g in &gids {
                        states[g as usize * n + a].update(1.0);
                    }
                }
                Input::Keys(k) => {
                    for (&r, &g) in scatter {
                        states[g as usize * n + a].update_distinct(k[r]);
                    }
                }
                Input::Values(v) => {
                    for (&r, &g) in scatter {
                        states[g as usize * n + a].update(v[r]);
                    }
                }
            }
        }
    }
    panes
}

/// The ungrouped all-additive fold: each contiguous equal-pane run's masked
/// sum / count / min / max are computed with the vectorized reductions and
/// folded into that pane's single state per aggregate.
///
/// Counts, minima and maxima equal a row-order fold's (they are
/// order-independent under the strict update rule); the sum uses the fixed
/// lane-split association, and so matches a sequential sum only up to float
/// re-association — while staying *bit-identical* between the scalar and
/// SIMD kernel variants. A fully filtered-out run produces no partial.
fn fold_runs(
    functions: &[AggregateFunction],
    mask: Option<&[f64]>,
    inputs: &[Input],
    runs: impl Iterator<Item = (u64, Range<usize>)>,
    simd: bool,
) -> Vec<PanePartial> {
    let mut panes = Vec::new();
    for (pane, Range { start: run, end }) in runs {
        let run_mask = mask.map(|m| &m[run..end]);
        let survivors = run_mask.map_or((end - run) as u64, kernels::count_truthy);
        if survivors > 0 {
            // An ungrouped table's only group holds every state.
            let table = partial_for(&mut panes, pane, 0, functions);
            table.group(&[]);
            for (slot, input) in table.states_mut().iter_mut().zip(inputs) {
                let (sum, min, max) = match input {
                    // COUNT folds `update(1.0)` once per survivor (COUNT
                    // DISTINCT is not additive and never reaches this fold).
                    Input::Count | Input::Keys(_) => (survivors as f64, 1.0, 1.0),
                    Input::Values(values) => {
                        let v = &values[run..end];
                        (
                            kernels::sum_masked(v, run_mask, simd),
                            kernels::min_masked(v, run_mask, simd),
                            kernels::max_masked(v, run_mask, simd),
                        )
                    }
                };
                slot.sum += sum;
                slot.count += survivors;
                if min < slot.min {
                    slot.min = min;
                }
                if max > slot.max {
                    slot.max = max;
                }
            }
        }
    }
    panes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelKind;
    use crate::plan::PlanKind;
    use crate::AggregationAssembler;
    use saber_query::{AggregateFunction, Expr, QueryBuilder, WindowSpec};
    use saber_types::{DataType, Schema, Value};

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
            ("key", DataType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    fn batch(n: usize, start_index: u64) -> StreamBatch {
        let mut rows = RowBuffer::new(schema());
        for i in 0..n {
            let abs = start_index + i as u64;
            rows.push_values(&[
                Value::Timestamp(abs as i64),
                Value::Float(1.0),
                Value::Int((abs % 4) as i32),
            ])
            .unwrap();
        }
        StreamBatch::new(rows, start_index, start_index as i64)
    }

    fn compile(window: WindowSpec, grouped: bool) -> (CompiledPlan, AggregationPlan) {
        let mut b = QueryBuilder::new("agg", schema())
            .window(window)
            .aggregate(AggregateFunction::Sum, 1)
            .aggregate_count();
        if grouped {
            b = b.group_by(vec![2]);
        }
        let q = b.build().unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => panic!("expected aggregation"),
        };
        (plan, agg)
    }

    #[test]
    fn tumbling_window_panes_cover_the_batch() {
        // ω(8,8): pane length 8. A 32-row batch at index 0 has 4 panes.
        let (plan, agg) = compile(WindowSpec::count(8, 8), false);
        let out = execute(&plan, &agg, &batch(32, 0)).unwrap();
        match out {
            TaskOutput::Fragments { panes, progress } => {
                assert_eq!(progress, 32);
                assert_eq!(panes.len(), 4);
                for (i, p) in panes.iter().enumerate() {
                    assert_eq!(p.pane, i as u64);
                    let states = p.table.get(&[]).unwrap();
                    assert_eq!(states[0].sum, 8.0);
                    assert_eq!(states[1].count, 8);
                }
            }
            _ => panic!("expected fragments"),
        }
    }

    #[test]
    fn sliding_window_uses_gcd_panes() {
        // ω(8,2): pane length 2; a 10-row batch has 5 panes.
        let (plan, agg) = compile(WindowSpec::count(8, 2), false);
        let out = execute(&plan, &agg, &batch(10, 0)).unwrap();
        match out {
            TaskOutput::Fragments { panes, .. } => {
                assert_eq!(panes.len(), 5);
                assert!(panes
                    .iter()
                    .all(|p| p.table.get(&[]).unwrap()[1].count == 2));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn batch_not_aligned_to_pane_boundary_produces_partial_edge_panes() {
        // Batch covering positions [3, 13) with pane length 4 touches panes
        // 0 (1 row), 1 (4 rows), 2 (4 rows), 3 (1 row).
        let (plan, agg) = compile(WindowSpec::count(4, 4), false);
        let out = execute(&plan, &agg, &batch(10, 3)).unwrap();
        match out {
            TaskOutput::Fragments { panes, progress } => {
                assert_eq!(progress, 13);
                let counts: Vec<u64> = panes
                    .iter()
                    .map(|p| p.table.get(&[]).unwrap()[1].count)
                    .collect();
                assert_eq!(counts, vec![1, 4, 4, 1]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn grouped_aggregation_tracks_groups_per_pane() {
        let (plan, agg) = compile(WindowSpec::count(8, 8), true);
        let out = execute(&plan, &agg, &batch(16, 0)).unwrap();
        match out {
            TaskOutput::Fragments { panes, .. } => {
                assert_eq!(panes.len(), 2);
                for p in &panes {
                    assert_eq!(p.table.len(), 4);
                    for g in 0..4i64 {
                        assert_eq!(p.table.get(&[g]).unwrap()[1].count, 2);
                    }
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn filter_is_applied_before_aggregation() {
        let q = QueryBuilder::new("cm2", schema())
            .count_window(8, 8)
            .select(Expr::column(2).eq(Expr::literal(1.0)))
            .aggregate_count()
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };
        let out = execute(&plan, &agg, &batch(16, 0)).unwrap();
        match out {
            TaskOutput::Fragments { panes, .. } => {
                let total: u64 = panes
                    .iter()
                    .map(|p| p.table.get(&[]).map(|s| s[0].count).unwrap_or(0))
                    .sum();
                assert_eq!(total, 4); // every 4th row has key == 1
            }
            _ => panic!(),
        }
    }

    #[test]
    fn time_based_windows_use_timestamps_for_panes() {
        // Time window of 10 units sliding by 5: pane length 5. Rows have
        // timestamp == index, so a 20-row batch covers panes 0..3.
        let (plan, agg) = compile(WindowSpec::time(10, 5), false);
        let out = execute(&plan, &agg, &batch(20, 0)).unwrap();
        match out {
            TaskOutput::Fragments { panes, progress } => {
                assert_eq!(panes.len(), 4);
                assert_eq!(progress, 19); // timestamp of the last row
            }
            _ => panic!(),
        }
    }

    #[test]
    fn count_distinct_uses_raw_keys() {
        let q = QueryBuilder::new("cd", schema())
            .count_window(8, 8)
            .aggregate(AggregateFunction::CountDistinct, 2)
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };
        let out = execute(&plan, &agg, &batch(8, 0)).unwrap();
        match out {
            TaskOutput::Fragments { panes, .. } => {
                let states = panes[0].table.get(&[]).unwrap();
                assert_eq!(states[0].finalize(AggregateFunction::CountDistinct), 4.0);
            }
            _ => panic!(),
        }
    }

    /// A filtered tumbling-window query with varied values, run once per
    /// kernel variant, and its assembled windows.
    fn shapes() -> Vec<saber_query::Query> {
        let base = || {
            QueryBuilder::new("k", schema())
                .count_window(8, 8)
                .select(Expr::column(2).ne(Expr::literal(2.0)))
        };
        vec![
            // Ungrouped additive: the run reductions.
            base()
                .aggregate(AggregateFunction::Sum, 1)
                .aggregate(AggregateFunction::Min, 0)
                .aggregate(AggregateFunction::Max, 0)
                .aggregate_count()
                .build()
                .unwrap(),
            // Grouped, and COUNT DISTINCT over a computed key: the grouped
            // fold.
            base()
                .aggregate(AggregateFunction::Sum, 1)
                .aggregate(AggregateFunction::Avg, 1)
                .group_by(vec![2])
                .build()
                .unwrap(),
            base()
                .project(vec![
                    (Expr::column(0), "timestamp"),
                    (Expr::column(0).rem(Expr::literal(3.0)), "bucket"),
                ])
                .aggregate(AggregateFunction::CountDistinct, 1)
                .build()
                .unwrap(),
        ]
    }

    fn varied(n: usize, start: u64) -> StreamBatch {
        let mut rows = RowBuffer::new(schema());
        for i in 0..n {
            let abs = start + i as u64;
            rows.push_values(&[
                Value::Timestamp(abs as i64),
                Value::Float((abs as f32 * 0.37).sin()),
                Value::Int((abs % 5) as i32),
            ])
            .unwrap();
        }
        StreamBatch::new(rows, start, start as i64)
    }

    #[test]
    fn scalar_and_simd_kernels_agree_bit_for_bit() {
        for q in shapes() {
            let plan = CompiledPlan::compile(&q).unwrap();
            let agg = match plan.kind() {
                PlanKind::Aggregation(a) => a.clone(),
                _ => unreachable!(),
            };
            let b = varied(29, 3);
            let run =
                |kernel: KernelKind| match execute(&plan.clone().with_kernel(kernel), &agg, &b) {
                    Ok(TaskOutput::Fragments { panes, progress }) => {
                        assert_eq!(progress, 32);
                        panes
                            .iter()
                            .map(|p| (p.pane, p.table.sorted_groups()))
                            .collect::<Vec<_>>()
                    }
                    _ => unreachable!(),
                };
            let scalar = run(KernelKind::Scalar);
            assert!(!scalar.is_empty());
            assert_eq!(scalar, run(KernelKind::Simd), "{}", q.name);
        }
    }

    #[test]
    fn assembled_windows_match_the_reference_interpreter() {
        // Tumbling windows: each pane is one window, so the fold's partials
        // are the windows the reference computes.
        let input = varied(64, 0);
        for (i, q) in shapes().into_iter().enumerate() {
            let plan = CompiledPlan::compile(&q).unwrap();
            let agg = match plan.kind() {
                PlanKind::Aggregation(a) => a.clone(),
                _ => unreachable!(),
            };
            let mut assembler = AggregationAssembler::new(&plan).unwrap();
            let mut out = RowBuffer::new(plan.output_schema().clone());
            match execute(&plan, &agg, &input).unwrap() {
                TaskOutput::Fragments { panes, progress } => {
                    assembler.accept(panes, progress, &mut out).unwrap();
                }
                _ => unreachable!(),
            }
            let reference = saber_workloads::reference::run_single_input(&q, &input.rows).unwrap();
            assert_eq!(out.len(), reference.len());
            if i == 0 {
                // The run reductions re-associate the sum.
                for (a, b) in out.iter().zip(reference.iter()) {
                    assert_eq!(a.timestamp(), b.timestamp());
                    assert!((a.get_f32(1) - b.get_f32(1)).abs() < 1e-5);
                    assert_eq!(&a.bytes()[12..], &b.bytes()[12..]);
                }
            } else {
                assert_eq!(out.bytes(), reference.bytes(), "{}", q.name);
            }
        }
    }
}
