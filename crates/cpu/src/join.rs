//! Streaming join operators (paper §5.3).
//!
//! * [`execute_theta`] implements the windowed θ-join of Kang et al. \[35\]:
//!   every *new* tuple of one stream is matched against the other stream's
//!   current window. Inside a query task, the "current window" is
//!   reconstructed from the task's stream batches, which include a lookback
//!   prefix of older rows so that matches across batch boundaries are found
//!   without cross-task state.
//! * [`execute_partition`] implements the partition join described as the
//!   paper's UDF example (and used by LRB2): the right stream keeps only the
//!   most recent row per partition key, and left tuples are emitted when a
//!   matching partition row exists.

use crate::exec::{StreamBatch, TaskOutput};
use crate::kernels;
use crate::plan::{CompiledPlan, PartitionJoinPlan, ThetaJoinPlan};
use saber_query::{Expr, WindowSpec};
use saber_types::{ColumnarBatch, Result, RowBuffer, SaberError, TupleRef};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// True if the two tuples fall into at least one common window under the
/// given window specification (count-based windows compare stream positions,
/// time-based windows compare timestamps).
#[inline]
fn within_window(window: &WindowSpec, pos_a: u64, ts_a: i64, pos_b: u64, ts_b: i64) -> bool {
    if window.is_count_based() {
        let a = window.windows_containing(pos_a);
        let b = window.windows_containing(pos_b);
        a.start < b.end && b.start < a.end
    } else {
        let size = window.size() as i64;
        (ts_a - ts_b).abs() < size
    }
}

/// Evaluates a windowed θ-join over one task's pair of stream batches.
pub fn execute_theta(
    plan: &CompiledPlan,
    join: &ThetaJoinPlan,
    batches: &[StreamBatch],
) -> Result<TaskOutput> {
    if batches.len() != 2 {
        return Err(SaberError::Query(
            "theta join expects two stream batches".into(),
        ));
    }
    let left = &batches[0];
    let right = &batches[1];
    let mut out = RowBuffer::new(plan.output_schema().clone());

    // New-left × all-right, then all-old-left × new-right: every matching
    // pair in which at least one side is new is produced exactly once.
    join_side(plan, join, left, right, false, &mut out);
    join_side(plan, join, right, left, true, &mut out);
    Ok(TaskOutput::Rows(out))
}

/// Matches the *new* rows of `probe` against rows of `build`. When `swapped`
/// is false, `probe` is the left input; when true it is the right input (and
/// only *old* build rows are considered, to avoid emitting new×new pairs
/// twice).
///
/// With an equi-key decomposition
/// ([`EquiJoinKeys`](crate::plan::EquiJoinKeys)) both sides' key
/// expressions are evaluated column-wise once, and each probe key is matched
/// against the build key column with a SIMD equality sweep
/// ([`kernels::scan_eq`]); without one, every build row in range is a
/// candidate. Candidates arrive in ascending build order and go through the
/// window check, the predicate — only its residual conjuncts after a key
/// match, since IEEE `f64` key equality is what the predicate's `Eq`
/// computes — the post-filter and emission.
fn join_side(
    plan: &CompiledPlan,
    join: &ThetaJoinPlan,
    probe: &StreamBatch,
    build: &StreamBatch,
    swapped: bool,
    out: &mut RowBuffer,
) {
    let simd = plan.kernel().simd();
    let window = if swapped {
        &join.left_window
    } else {
        &join.right_window
    };
    let split = join.left_width;
    let build_limit = if swapped {
        build.lookback_rows // only old rows on the other side
    } else {
        build.rows.len()
    };
    let probe_range = probe.lookback_rows..probe.rows.len();
    if probe_range.is_empty() || build_limit == 0 {
        return;
    }

    // The probe side keys with `left_key` exactly when it plays the left
    // role (i.e. not swapped); both expressions are over their own input's
    // schema.
    let (keys, check) = match &join.equi {
        Some(equi) => {
            let (probe_key, build_key) = if swapped {
                (&equi.right_key, &equi.left_key)
            } else {
                (&equi.left_key, &equi.right_key)
            };
            let probe_keys = key_column(probe_key, probe, probe_range.clone(), simd);
            let build_keys = key_column(build_key, build, 0..build_limit, simd);
            (Some((probe_keys, build_keys)), equi.residual.as_ref())
        }
        None => (None, Some(&join.predicate)),
    };
    let mut candidates: Vec<u32> = match keys {
        Some(_) => Vec::new(),
        None => (0..build_limit as u32).collect(),
    };

    for (idx, i) in probe_range.enumerate() {
        let probe_row = probe.rows.row(i);
        let probe_pos = probe.start_index + idx as u64;
        let probe_ts = probe_row.timestamp();
        if let Some((probe_keys, build_keys)) = &keys {
            candidates.clear();
            kernels::scan_eq(build_keys, probe_keys[idx], simd, &mut candidates);
        }
        for &j in &candidates {
            let j = j as usize;
            let build_row = build.rows.row(j);
            let build_pos = if j >= build.lookback_rows {
                build.start_index + (j - build.lookback_rows) as u64
            } else {
                build
                    .start_index
                    .saturating_sub((build.lookback_rows - j) as u64)
            };
            if !within_window(
                window,
                probe_pos,
                probe_ts,
                build_pos,
                build_row.timestamp(),
            ) {
                continue;
            }
            let (l, r) = if swapped {
                (&build_row, &probe_row)
            } else {
                (&probe_row, &build_row)
            };
            if check.is_some_and(|c| !c.eval_join_bool(l, r, split))
                || join
                    .post_filter
                    .as_ref()
                    .is_some_and(|f| !f.eval_join_bool(l, r, split))
            {
                continue;
            }
            emit_pair(join, l, r, out);
        }
    }
}

/// One join key per row of `range`, evaluated column-wise.
fn key_column(expr: &Expr, batch: &StreamBatch, range: Range<usize>, simd: bool) -> Vec<f64> {
    let columns = ColumnarBatch::gather(&batch.rows, range, &kernels::referenced_columns([expr]));
    kernels::eval(expr, &columns, simd)
}

fn emit_pair(join: &ThetaJoinPlan, l: &TupleRef<'_>, r: &TupleRef<'_>, out: &mut RowBuffer) {
    let mut row = out.push_uninit();
    match &join.post_projection {
        None => {
            // Concatenate the two rows.
            let left_width = l.schema().len();
            for c in 0..left_width {
                row.set_numeric(c, l.get_numeric(c));
            }
            for c in 0..r.schema().len() {
                row.set_numeric(left_width + c, r.get_numeric(c));
            }
        }
        Some(exprs) => {
            for (col, (expr, _ty)) in exprs.iter().enumerate() {
                row.set_numeric(col, expr.eval_join(l, r, join.left_width));
            }
        }
    }
}

/// Evaluates a partition join: the right stream is reduced to its most recent
/// row per key; new left rows that match a partition row (and the optional
/// residual predicate) are forwarded.
pub fn execute_partition(
    plan: &CompiledPlan,
    pj: &PartitionJoinPlan,
    batches: &[StreamBatch],
) -> Result<TaskOutput> {
    if batches.len() != 2 {
        return Err(SaberError::Query(
            "partition join expects two stream batches".into(),
        ));
    }
    let left = &batches[0];
    let right = &batches[1];

    // Build the partition table: key -> last row index (rows are in arrival
    // order, so the last write wins).
    let mut partitions: HashMap<i64, usize> = HashMap::new();
    for j in 0..right.rows.len() {
        let key = right.rows.row(j).get_key(pj.spec.right_key);
        partitions.insert(key, j);
    }

    let mut out = RowBuffer::new(plan.output_schema().clone());
    let mut seen: HashSet<(i64, i64)> = HashSet::new();
    for i in left.lookback_rows..left.rows.len() {
        let row = left.rows.row(i);
        let key = row.get_key(pj.spec.left_key);
        let Some(&j) = partitions.get(&key) else {
            continue;
        };
        let right_row = right.rows.row(j);
        if let Some(pred) = &pj.spec.predicate {
            if !pred.eval_join_bool(&row, &right_row, pj.left_width) {
                continue;
            }
        }
        if pj.spec.distinct && !seen.insert((key, row.timestamp())) {
            continue;
        }
        out.push_bytes(row.bytes())?;
    }
    Ok(TaskOutput::Rows(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKind;
    use saber_query::{Expr, PartitionJoinSpec, QueryBuilder, WindowSpec};
    use saber_types::{DataType, Schema, Value};

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("key", DataType::Int),
            ("value", DataType::Float),
        ])
        .unwrap()
        .into_ref()
    }

    fn batch(keys: &[i32], start: u64) -> StreamBatch {
        let mut rows = RowBuffer::new(schema());
        for (i, k) in keys.iter().enumerate() {
            let abs = start + i as u64;
            rows.push_values(&[
                Value::Timestamp(abs as i64),
                Value::Int(*k),
                Value::Float(abs as f32),
            ])
            .unwrap();
        }
        StreamBatch::new(rows, start, start as i64)
    }

    fn theta_plan(size: u64) -> (CompiledPlan, ThetaJoinPlan) {
        let q = QueryBuilder::new("join", schema())
            .count_window(size, size)
            .theta_join(
                schema(),
                WindowSpec::count(size, size),
                Expr::column(1).eq(Expr::column(3 + 1)),
            )
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let join = match plan.kind() {
            PlanKind::ThetaJoin(j) => j.clone(),
            _ => unreachable!(),
        };
        (plan, join)
    }

    #[test]
    fn equi_join_on_tumbling_windows_matches_pairs() {
        let (plan, join) = theta_plan(4);
        // Window 0 of both streams: left keys [1,2,3,4], right keys [2,2,5,1].
        let left = batch(&[1, 2, 3, 4], 0);
        let right = batch(&[2, 2, 5, 1], 0);
        let out = match execute_theta(&plan, &join, &[left, right]).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => unreachable!(),
        };
        // Matches: left 2 with both right 2s, left 1 with right 1 → 3 pairs.
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().len(), 6);
        for t in out.iter() {
            assert_eq!(t.get_i32(1), t.get_i32(4));
        }
    }

    #[test]
    fn tuples_in_different_tumbling_windows_do_not_join() {
        let (plan, join) = theta_plan(4);
        // Left rows in window 0, right rows in window 1 (positions 4..8).
        let left = batch(&[7, 7, 7, 7], 0);
        let right = batch(&[7, 7, 7, 7], 4);
        let out = match execute_theta(&plan, &join, &[left, right]).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => unreachable!(),
        };
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn lookback_rows_participate_but_do_not_double_count() {
        let (plan, join) = theta_plan(8);
        // Right batch has 2 lookback rows (positions 0,1) and 2 new rows
        // (positions 2,3). Left has 2 new rows (positions 2,3). Same key.
        let mut right = batch(&[9, 9, 9, 9], 2);
        right.lookback_rows = 2;
        right.start_index = 2;
        let left = batch(&[9, 9], 2);
        let out = match execute_theta(&plan, &join, &[left, right]).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => unreachable!(),
        };
        // New-left (2 rows) × all-right (4 rows) = 8 pairs; new-right (2) ×
        // old-left (0) = 0. Total 8, no pair produced twice.
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn time_based_join_uses_timestamp_distance() {
        let q = QueryBuilder::new("sg3", schema())
            .time_window(2, 2)
            .theta_join(
                schema(),
                WindowSpec::time(2, 2),
                Expr::column(1).eq(Expr::column(3 + 1)),
            )
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let join = match plan.kind() {
            PlanKind::ThetaJoin(j) => j.clone(),
            _ => unreachable!(),
        };
        // Left row at ts 0, right rows at ts 0,1,5: only ts 0 and 1 join.
        let left = batch(&[3], 0);
        let mut right_rows = RowBuffer::new(schema());
        for ts in [0i64, 1, 5] {
            right_rows
                .push_values(&[Value::Timestamp(ts), Value::Int(3), Value::Float(0.0)])
                .unwrap();
        }
        let right = StreamBatch::new(right_rows, 0, 0);
        let out = match execute_theta(&plan, &join, &[left, right]).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => unreachable!(),
        };
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_with_post_projection_emits_selected_columns() {
        let q = QueryBuilder::new("joinp", schema())
            .count_window(4, 4)
            .theta_join(
                schema(),
                WindowSpec::count(4, 4),
                Expr::column(1).eq(Expr::column(3 + 1)),
            )
            .project(vec![
                (Expr::column(0), "timestamp"),
                (Expr::column(2).add(Expr::column(3 + 2)), "value_sum"),
            ])
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let join = match plan.kind() {
            PlanKind::ThetaJoin(j) => j.clone(),
            _ => unreachable!(),
        };
        let left = batch(&[5], 0);
        let right = batch(&[5], 0);
        let out = match execute_theta(&plan, &join, &[left, right]).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => unreachable!(),
        };
        assert_eq!(out.len(), 1);
        assert_eq!(out.schema().len(), 2);
        assert_eq!(out.row(0).get_f32(1), 0.0);
    }

    #[test]
    fn partition_join_matches_latest_partition_row() {
        let q = QueryBuilder::new("lrb2", schema())
            .count_window(8, 8)
            .partition_join(
                schema(),
                WindowSpec::count(1, 1),
                PartitionJoinSpec::new(1, 1),
            )
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let pj = match plan.kind() {
            PlanKind::PartitionJoin(p) => p.clone(),
            _ => unreachable!(),
        };
        let left = batch(&[1, 2, 3], 0);
        let right = batch(&[2, 3, 2], 0);
        let out = match execute_partition(&plan, &pj, &[left, right]).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => unreachable!(),
        };
        // Left keys 2 and 3 have partition rows; key 1 does not.
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().len(), 3);
    }

    #[test]
    fn partition_join_distinct_keeps_each_key_timestamp_pair_once() {
        let q = QueryBuilder::new("lrb2", schema())
            .count_window(8, 8)
            .partition_join(
                schema(),
                WindowSpec::count(1, 1),
                PartitionJoinSpec::new(1, 1),
            )
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let pj = match plan.kind() {
            PlanKind::PartitionJoin(p) => p.clone(),
            _ => unreachable!(),
        };
        // 4 000 left rows over 1 000 timestamps `t`, four rows each with key
        // `t % 7 + 7 * (i % 3)`: three distinct pairs per timestamp, one of
        // them twice, and pairs that share a key across timestamps.
        let mut left = RowBuffer::new(schema());
        let mut expected = std::collections::BTreeSet::new();
        for i in 0..4_000i64 {
            let t = i / 4;
            let key = t % 7 + 7 * (i % 3);
            left.push_values(&[
                Value::Timestamp(t),
                Value::Int(key as i32),
                Value::Float(0.0),
            ])
            .unwrap();
            expected.insert((key, t));
        }
        let right_keys: Vec<i32> = (0..21).collect();
        let batches = [StreamBatch::new(left, 0, 0), batch(&right_keys, 0)];
        let out = match execute_partition(&plan, &pj, &batches).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => unreachable!(),
        };
        let emitted: Vec<(i64, i64)> = out
            .iter()
            .map(|r| (i64::from(r.get_i32(1)), r.timestamp()))
            .collect();
        let unique: std::collections::BTreeSet<_> = emitted.iter().copied().collect();
        assert_eq!(emitted.len(), unique.len(), "a pair was emitted twice");
        assert_eq!(unique, expected, "a distinct pair was dropped");
    }

    #[test]
    fn equi_probe_matches_the_undecomposable_predicate_on_both_kernels() {
        use crate::kernels::KernelKind;
        // Equality plus a residual inequality, with lookback rows on the
        // right side so both probe directions and old-row positions are
        // exercised. `(l.key - r.key) == 0` selects the same pairs, but
        // `split_equi` cannot decompose it, so it runs on every candidate.
        let residual = Expr::column(2).le(Expr::column(3 + 2));
        let equi = Expr::column(1).eq(Expr::column(3 + 1));
        let pure = Expr::column(1)
            .sub(Expr::column(3 + 1))
            .eq(Expr::literal(0.0));
        let left = batch(&[1, 2, 2, 3, 9], 2);
        let mut right = batch(&[2, 1, 2, 9, 2, 1, 7], 2);
        right.lookback_rows = 2;
        let outputs: Vec<Vec<u8>> = [equi, pure]
            .into_iter()
            .flat_map(|key| {
                let q = QueryBuilder::new("join", schema())
                    .count_window(8, 8)
                    .theta_join(schema(), WindowSpec::count(8, 8), key.and(residual.clone()))
                    .build()
                    .unwrap();
                let plan = CompiledPlan::compile(&q).unwrap();
                let join = match plan.kind() {
                    PlanKind::ThetaJoin(j) => j.clone(),
                    _ => unreachable!(),
                };
                [KernelKind::Scalar, KernelKind::Simd].map(|k| {
                    let plan = plan.clone().with_kernel(k);
                    match execute_theta(&plan, &join, &[left.clone(), right.clone()]).unwrap() {
                        TaskOutput::Rows(r) => r.bytes().to_vec(),
                        _ => unreachable!(),
                    }
                })
            })
            .collect();
        assert!(!outputs[0].is_empty());
        for other in &outputs[1..] {
            assert_eq!(&outputs[0], other);
        }
    }

    #[test]
    fn wrong_batch_arity_is_an_error() {
        let (plan, join) = theta_plan(4);
        let only_left = vec![batch(&[1], 0)];
        assert!(execute_theta(&plan, &join, &only_left).is_err());
    }
}
