//! Data-parallel operator kernels (paper §5.4).
//!
//! The rows of a query task are divided into *work groups*; each work group
//! runs the CPU's batch operator function on its own row range, producing
//! its result independently, and the per-group results are concatenated or
//! merged in group order. The accelerator therefore computes exactly what a
//! CPU worker computes — one operator implementation serves both processors,
//! as in the paper (§3) — and what it models is data movement and
//! work-group parallelism, not a second copy of operator semantics:
//!
//! * **selection / projection** — each group scans its rows with
//!   [`saber_cpu::stateless::execute`],
//! * **aggregation** — each group reduces its rows into pane partials with
//!   [`saber_cpu::windowed::execute`] (the partials the CPU produces, so the
//!   result stage assembles CPU- and accelerator-produced fragments
//!   interchangeably; a pane split between two groups is merged back),
//! * **θ-join** — groups partition the left (probe) side and match it with
//!   [`saber_cpu::join::join_side`]; group 0 also runs the reverse direction
//!   (new right rows against old left rows),
//! * **partition join** — group 0 runs the whole task (the partition table
//!   is small and shared).

use saber_cpu::exec::StreamBatch;
use saber_cpu::plan::{CompiledPlan, PlanKind};
use saber_cpu::{join, stateless, windowed, TaskOutput};
use saber_types::{Result, RowBuffer, SaberError};
use std::ops::Range;

/// Runs the operator function of `plan` over the work-group row range
/// `range` of the task's batches. `range` addresses the *new* rows of the
/// first (probe) batch.
pub fn run_work_group(
    plan: &CompiledPlan,
    batches: &[StreamBatch],
    range: Range<usize>,
    first_group: bool,
) -> Result<TaskOutput> {
    match plan.kind() {
        PlanKind::Stateless(s) => {
            stateless::execute(plan, s, &work_group_rows(&batches[0], range)?)
        }
        PlanKind::Aggregation(a) => {
            windowed::execute(plan, a, &work_group_rows(&batches[0], range)?)
        }
        PlanKind::ThetaJoin(j) => {
            let [left, right] = batches else {
                return Err(SaberError::Device("join kernel expects two batches".into()));
            };
            let mut out = RowBuffer::new(plan.output_schema().clone());
            join::join_side(
                plan,
                j,
                &work_group_rows(left, range)?,
                right,
                false,
                &mut out,
            );
            if first_group {
                join::join_side(plan, j, right, left, true, &mut out);
            }
            Ok(TaskOutput::Rows(out))
        }
        PlanKind::PartitionJoin(p) if first_group => join::execute_partition(plan, p, batches),
        PlanKind::PartitionJoin(_) => Ok(TaskOutput::Rows(RowBuffer::new(
            plan.output_schema().clone(),
        ))),
    }
}

/// Copies the work group's rows into its local memory (the paper stages a
/// window fragment's tuples in the group's cache memory): a batch of the new
/// rows `range` of `batch`, positioned where they sit in the stream.
fn work_group_rows(batch: &StreamBatch, range: Range<usize>) -> Result<StreamBatch> {
    let rows = &batch.rows;
    let row_size = rows.schema().row_size();
    let base = batch.lookback_rows;
    let local = RowBuffer::from_bytes(
        rows.schema().clone(),
        rows.bytes()[(base + range.start) * row_size..(base + range.end) * row_size].to_vec(),
    )?;
    let first_ts = if local.is_empty() {
        batch.start_timestamp
    } else {
        local.row(0).timestamp()
    };
    Ok(StreamBatch::new(
        local,
        batch.start_index + range.start as u64,
        first_ts,
    ))
}

/// Appends work group `next`'s output to `merged`, the output of the groups
/// before it: rows concatenate in group order, a pane split between the two
/// groups merges into one partial, and the progress is the later group's.
pub fn merge_work_group(merged: &mut TaskOutput, next: TaskOutput) -> Result<()> {
    match (merged, next) {
        (TaskOutput::Rows(rows), TaskOutput::Rows(more)) => rows.extend_from_bytes(more.bytes()),
        (
            TaskOutput::Fragments { panes, progress },
            TaskOutput::Fragments {
                panes: more,
                progress: later,
            },
        ) => {
            for partial in more {
                match panes.last_mut() {
                    Some(last) if last.pane == partial.pane => last.table.merge(&partial.table),
                    _ => panes.push(partial),
                }
            }
            *progress = later;
            Ok(())
        }
        _ => Err(SaberError::Device("mixed kernel result kinds".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{AggregateFunction, Expr, QueryBuilder};
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

    fn batch(n: usize) -> StreamBatch {
        let mut rows = RowBuffer::new(schema());
        for i in 0..n {
            rows.push_values(&[
                Value::Timestamp(i as i64),
                Value::Float(i as f32),
                Value::Int((i % 5) as i32),
            ])
            .unwrap();
        }
        StreamBatch::new(rows, 0, 0)
    }

    /// Runs `plan` as work groups over `splits` and merges them.
    fn run_groups(
        plan: &CompiledPlan,
        batches: &[StreamBatch],
        splits: &[Range<usize>],
    ) -> TaskOutput {
        let mut groups = splits
            .iter()
            .enumerate()
            .map(|(i, r)| run_work_group(plan, batches, r.clone(), i == 0).unwrap());
        let mut merged = groups.next().unwrap();
        for g in groups {
            merge_work_group(&mut merged, g).unwrap();
        }
        merged
    }

    #[test]
    fn selection_groups_match_cpu_result() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(64, 64)
            .select(Expr::column(2).lt(Expr::literal(2.0)))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let b = batch(1000);
        let cpu_out = saber_cpu::CpuExecutor::new()
            .execute(&plan, std::slice::from_ref(&b))
            .unwrap();
        let gpu_out = run_groups(
            &plan,
            std::slice::from_ref(&b),
            &[0..300, 300..600, 600..900, 900..1000],
        );
        match (cpu_out, gpu_out) {
            (TaskOutput::Rows(c), TaskOutput::Rows(g)) => assert_eq!(c.bytes(), g.bytes()),
            _ => panic!("expected row outputs"),
        }
    }

    #[test]
    fn aggregation_groups_merge_a_split_pane() {
        let q = QueryBuilder::new("agg", schema())
            .count_window(8, 8)
            .aggregate(AggregateFunction::Sum, 1)
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let b = batch(32);
        match run_groups(&plan, std::slice::from_ref(&b), &[0..20, 20..32]) {
            TaskOutput::Fragments { panes, progress } => {
                assert_eq!(progress, 32);
                assert_eq!(panes.len(), 4);
                // Pane 2 (rows 16..24) straddles the two work groups and must
                // have been merged back into a single partial.
                let p2 = panes.iter().find(|p| p.pane == 2).unwrap();
                assert_eq!(p2.table.get(&[]).unwrap()[0].count, 8);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn join_groups_match_cpu_join() {
        let q = QueryBuilder::new("join", schema())
            .count_window(16, 16)
            .theta_join(
                schema(),
                saber_query::WindowSpec::count(16, 16),
                Expr::column(2).eq(Expr::column(3 + 2)),
            )
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let batches = vec![batch(16), batch(16)];
        let cpu_out = saber_cpu::CpuExecutor::new()
            .execute(&plan, &batches)
            .unwrap();
        let gpu_out = run_groups(&plan, &batches, &[0..8, 8..16]);
        assert_eq!(cpu_out.row_count(), gpu_out.row_count());
    }
}
