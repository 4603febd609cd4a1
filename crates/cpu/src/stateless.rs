//! Stateless pipelines: projection and selection (paper §5.3).
//!
//! "Projection and selection operators are both stateless, and their batch
//! operator function is thus a single scan over the stream batch". The
//! compiled [`StatelessPlan`] holds one combined filter and one list of
//! output expressions, so this module is exactly that scan. When the
//! projection is the identity, selected rows are forwarded byte-for-byte
//! (direct byte forwarding, §5.1).
//!
//! The scan gathers the referenced attributes into dense columns
//! ([`ColumnarBatch`]), evaluates the filter and projection expressions
//! column-wise (vectorized with AVX2 when the plan's
//! [`KernelKind`](crate::KernelKind) says so), and then forwards surviving
//! rows — run-coalesced byte copies for identity projections. The scalar and
//! AVX2 variants produce byte-identical output; `tests/simd_differential.rs`
//! holds them to that.

use crate::exec::{StreamBatch, TaskOutput};
use crate::kernels;
use crate::plan::{CompiledPlan, StatelessPlan};
use saber_types::{ColumnarBatch, Result, RowBuffer};

/// Evaluates a stateless plan over one stream batch.
pub fn execute(
    plan: &CompiledPlan,
    stateless: &StatelessPlan,
    batch: &StreamBatch,
) -> Result<TaskOutput> {
    let simd = plan.kernel().simd();
    let rows = &batch.rows;
    let range = batch.lookback_rows..rows.len();
    let mut out = RowBuffer::with_capacity(plan.output_schema().clone(), range.len());
    if range.is_empty() {
        return Ok(TaskOutput::Rows(out));
    }

    let wanted = kernels::referenced_columns(
        stateless.filter.iter().chain(
            stateless
                .projection
                .iter()
                .flat_map(|p| p.iter().map(|(e, _)| e)),
        ),
    );
    let columns = ColumnarBatch::gather(rows, range.clone(), &wanted);
    // One 0.0/1.0 survival flag per row; `None` keeps every row.
    let mask = stateless
        .filter
        .as_ref()
        .map(|f| kernels::eval(f, &columns, simd));

    match &stateless.projection {
        None => {
            // Identity projection: forward raw bytes, whole contiguous runs
            // of surviving rows at a time.
            let stride = rows.schema().row_size();
            let bytes = rows.bytes();
            match &mask {
                None => {
                    out.extend_from_bytes(&bytes[range.start * stride..range.end * stride])?;
                }
                Some(mask) => {
                    let mut i = 0;
                    while i < mask.len() {
                        if mask[i] == 0.0 {
                            i += 1;
                            continue;
                        }
                        let run = i;
                        while i < mask.len() && mask[i] != 0.0 {
                            i += 1;
                        }
                        let start = (range.start + run) * stride;
                        let end = (range.start + i) * stride;
                        out.extend_from_bytes(&bytes[start..end])?;
                    }
                }
            }
        }
        Some(exprs) => {
            // Evaluate every output expression over the whole column, then
            // materialise the surviving rows. Expressions are pure, so
            // computing them for filtered-out rows changes nothing.
            let outputs: Vec<Vec<f64>> = exprs
                .iter()
                .map(|(e, _ty)| kernels::eval(e, &columns, simd))
                .collect();
            for r in 0..columns.rows() {
                if let Some(mask) = &mask {
                    if mask[r] == 0.0 {
                        continue;
                    }
                }
                let mut row = out.push_uninit();
                for (col, values) in outputs.iter().enumerate() {
                    row.set_numeric(col, values[r]);
                }
            }
        }
    }
    Ok(TaskOutput::Rows(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKind;
    use saber_query::{Expr, QueryBuilder};
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
                Value::Float(i as f32 / n as f32),
                Value::Int((i % 10) as i32),
            ])
            .unwrap();
        }
        StreamBatch::new(rows, 0, 0)
    }

    fn run(query: saber_query::Query, batch: &StreamBatch) -> RowBuffer {
        let plan = CompiledPlan::compile(&query).unwrap();
        let stateless = match plan.kind() {
            PlanKind::Stateless(s) => s.clone(),
            _ => panic!("expected stateless plan"),
        };
        match execute(&plan, &stateless, batch).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => panic!("expected rows"),
        }
    }

    #[test]
    fn selection_filters_rows_and_forwards_bytes() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(16, 16)
            .select(Expr::column(1).ge(Expr::literal(0.5)))
            .build()
            .unwrap();
        let b = batch(100);
        let out = run(q, &b);
        assert_eq!(out.len(), 50);
        // Output schema identical to input, bytes forwarded unchanged.
        assert_eq!(out.schema().row_size(), b.rows.schema().row_size());
        assert_eq!(out.row(0).timestamp(), 50);
    }

    #[test]
    fn projection_computes_expressions() {
        let q = QueryBuilder::new("proj", schema())
            .count_window(16, 16)
            .project(vec![
                (Expr::column(0), "timestamp"),
                (Expr::column(1).mul(Expr::literal(10.0)), "v10"),
            ])
            .build()
            .unwrap();
        let b = batch(10);
        let out = run(q, &b);
        assert_eq!(out.len(), 10);
        assert_eq!(out.schema().len(), 2);
        assert!((out.row(5).get_f32(1) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn projection_and_selection_compose() {
        let q = QueryBuilder::new("ps", schema())
            .count_window(16, 16)
            .project(vec![
                (Expr::column(0), "timestamp"),
                (Expr::column(2), "key"),
            ])
            .select(Expr::column(1).eq(Expr::literal(3.0)))
            .build()
            .unwrap();
        let b = batch(100);
        let out = run(q, &b);
        assert_eq!(out.len(), 10);
        for t in out.iter() {
            assert_eq!(t.get_i32(1), 3);
        }
    }

    #[test]
    fn lookback_rows_are_not_emitted() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(16, 16)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let stateless = match plan.kind() {
            PlanKind::Stateless(s) => s.clone(),
            _ => unreachable!(),
        };
        let mut b = batch(10);
        b.lookback_rows = 4;
        let out = match execute(&plan, &stateless, &b).unwrap() {
            TaskOutput::Rows(r) => r,
            _ => unreachable!(),
        };
        assert_eq!(out.len(), 6);
        assert_eq!(out.row(0).timestamp(), 4);
    }

    #[test]
    fn kernels_agree_with_each_other_and_the_reference_interpreter() {
        use crate::kernels::KernelKind;
        // Selection + arithmetic projection, with an unaligned row count and
        // lookback rows, on both kernel variants.
        let q = QueryBuilder::new("k", schema())
            .count_window(16, 16)
            .project(vec![
                (Expr::column(0), "timestamp"),
                (
                    Expr::column(1).mul(Expr::literal(3.5)).add(Expr::column(2)),
                    "mix",
                ),
            ])
            .select(Expr::column(1).lt(Expr::literal(2.0)))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let stateless = match plan.kind() {
            PlanKind::Stateless(s) => s.clone(),
            _ => unreachable!(),
        };
        let mut b = batch(37);
        b.lookback_rows = 5;
        let outputs: Vec<Vec<u8>> = [KernelKind::Scalar, KernelKind::Simd]
            .into_iter()
            .map(|k| {
                let plan = plan.clone().with_kernel(k);
                match execute(&plan, &stateless, &b).unwrap() {
                    TaskOutput::Rows(r) => r.bytes().to_vec(),
                    _ => unreachable!(),
                }
            })
            .collect();
        assert!(!outputs[0].is_empty());
        assert_eq!(outputs[0], outputs[1], "scalar vs simd");
        let lookback_bytes = 5 * schema().row_size();
        let new_rows =
            RowBuffer::from_bytes(schema(), b.rows.bytes()[lookback_bytes..].to_vec()).unwrap();
        let reference = saber_workloads::reference::run_single_input(&q, &new_rows).unwrap();
        assert_eq!(outputs[0], reference.bytes(), "scalar vs reference");
    }

    #[test]
    fn empty_batch_produces_empty_output() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(16, 16)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let out = run(q, &batch(0));
        assert!(out.is_empty());
    }
}
