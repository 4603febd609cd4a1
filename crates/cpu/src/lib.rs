//! # saber-cpu
//!
//! CPU operator implementations for SABER (paper §5.3) plus the shared
//! execution types used by both the CPU path and the simulated accelerator.
//!
//! The crate implements the three operator-function roles of the hybrid
//! stream processing model (paper §3):
//!
//! * the **batch operator function** `f_b` — evaluated by a worker thread
//!   over one query task's stream batches ([`CpuExecutor::execute`]),
//! * the **fragment operator function** `f_f` — implicit in the per-pane /
//!   per-scan processing performed by the batch operator function, and
//! * the **assembly operator function** `f_a` — evaluated in the result
//!   stage by [`assembler::AggregationAssembler`] (and by simple
//!   concatenation for stateless and join pipelines).
//!
//! Queries are first *compiled* ([`plan::CompiledPlan`]) into a flat physical
//! form: stateless projection/selection chains collapse into a single scan,
//! aggregation inputs are rewritten as expressions over the raw input schema
//! (so no intermediate tuples are materialised), and join pipelines keep
//! their predicate plus any post-processing expressions.

#![deny(missing_docs)]

pub mod assembler;
pub mod exec;
pub mod hashtable;
pub mod join;
pub mod kernels;
pub mod plan;
pub mod stateless;
pub mod windowed;

pub use assembler::AggregationAssembler;
pub use exec::{PanePartial, StreamBatch, TaskOutput};
pub use hashtable::GroupTable;
pub use kernels::KernelKind;
pub use plan::{CompiledPlan, PlanKind};

use saber_types::Result;

/// Executes compiled query plans on a CPU core.
///
/// The executor is stateless and shared by all worker threads.
#[derive(Debug, Default)]
pub struct CpuExecutor;

impl CpuExecutor {
    /// Creates a CPU executor.
    pub fn new() -> Self {
        Self
    }

    /// Evaluates the batch operator function of `plan` over the stream
    /// batches of one query task.
    pub fn execute(&self, plan: &CompiledPlan, batches: &[StreamBatch]) -> Result<TaskOutput> {
        match plan.kind() {
            PlanKind::Stateless(s) => stateless::execute(plan, s, &batches[0]),
            PlanKind::Aggregation(a) => windowed::execute(plan, a, &batches[0]),
            PlanKind::ThetaJoin(j) => join::execute_theta(plan, j, batches),
            PlanKind::PartitionJoin(p) => join::execute_partition(plan, p, batches),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, RowBuffer, Schema, Value};

    #[test]
    fn executor_runs_a_simple_selection_plan() {
        let schema = Schema::from_pairs(&[("ts", DataType::Timestamp), ("v", DataType::Float)])
            .unwrap()
            .into_ref();
        let query = QueryBuilder::new("sel", schema.clone())
            .count_window(4, 4)
            .select(Expr::column(1).gt(Expr::literal(0.5)))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&query).unwrap();
        let mut rows = RowBuffer::new(schema);
        for i in 0..8 {
            rows.push_values(&[
                Value::Timestamp(i),
                Value::Float(if i % 2 == 0 { 0.9 } else { 0.1 }),
            ])
            .unwrap();
        }
        let batch = StreamBatch::new(rows, 0, 0);
        let out = CpuExecutor::new().execute(&plan, &[batch]).unwrap();
        match out {
            TaskOutput::Rows(buf) => assert_eq!(buf.len(), 4),
            _ => panic!("expected row output"),
        }
    }
}
