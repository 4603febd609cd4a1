//! The result stage (paper §4.3): reordering task results and assembling
//! window results.
//!
//! Tasks complete out of order because they run in parallel on heterogeneous
//! processors. The result stage restores the order defined by the query task
//! identifiers, assembles window results from window-fragment results (via
//! the query's [`AggregationAssembler`]) and appends the ordered output to
//! the [`QuerySink`] of every query attached to the plan. Worker threads
//! call [`ResultStage::submit`] directly after executing a task — the same
//! thread that executed the task performs whatever assembly work has become
//! possible, as in the paper's worker-thread model.

use crate::metrics::{PlanStats, QueryStats};
use crate::registry::Gate;
use crate::sink::QuerySink;
use crate::task::TaskStamps;
use saber_cpu::plan::CompiledPlan;
use saber_cpu::{AggregationAssembler, TaskOutput};
use saber_obs::{FlightRecorder, TRACE_STAGES};
use saber_types::schema::SchemaRef;
use saber_types::sync::Mutex;
use saber_types::{Result, RowBuffer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A completed task result waiting for in-order processing.
struct PendingResult {
    output: TaskOutput,
    stamps: TaskStamps,
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

struct Ordered {
    /// Next per-query task sequence number to release.
    next_seq: u64,
    /// Out-of-order results parked until their turn (the paper's result
    /// buffer slots; a map keeps the implementation simple while preserving
    /// the ordering semantics).
    pending: BTreeMap<u64, PendingResult>,
    /// Assembly state for aggregation queries.
    assembler: Option<AggregationAssembler>,
    /// Scratch output buffer reused across submissions.
    scratch: RowBuffer,
}

/// One query attached to a physical plan: the sink and stats block its
/// output goes to, and its ingest gate (closed once its removal begins).
pub(crate) struct Member {
    pub(crate) id: usize,
    pub(crate) sink: QuerySink,
    pub(crate) stats: Arc<QueryStats>,
    pub(crate) gate: Arc<Gate>,
}

/// The result stage of one physical plan.
pub struct ResultStage {
    ordered: Mutex<Ordered>,
    /// The plan's members in attach order (see [`crate::sharing`]). Every
    /// released batch is appended to each member's sink under the reorder
    /// lock, so each member sees the plan's output in release order.
    pub(crate) members: Mutex<Vec<Member>>,
    schema: SchemaRef,
    /// The plan's task-level statistics (stage histograms).
    stats: Arc<PlanStats>,
    completed_tasks: AtomicU64,
    /// The engine-wide flight recorder each released task traces into.
    recorder: Arc<FlightRecorder>,
    query_id: u64,
}

impl ResultStage {
    /// Creates the result stage of one physical plan, with no members yet.
    /// Completed tasks trace into `recorder` and the plan's stage
    /// histograms.
    pub fn new(plan: &CompiledPlan, stats: Arc<PlanStats>, recorder: Arc<FlightRecorder>) -> Self {
        Self {
            ordered: Mutex::new(Ordered {
                next_seq: 0,
                pending: BTreeMap::new(),
                assembler: AggregationAssembler::new(plan),
                scratch: RowBuffer::new(plan.output_schema().clone()),
            }),
            members: Mutex::new(Vec::new()),
            schema: plan.output_schema().clone(),
            stats,
            completed_tasks: AtomicU64::new(0),
            recorder,
            query_id: plan.query_id() as u64,
        }
    }

    /// The schema of the rows this stage releases.
    pub(crate) fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Appends one released batch to every member's sink and counts it on
    /// the member's stats block.
    fn deliver(&self, rows: &RowBuffer) {
        if rows.is_empty() {
            return;
        }
        for member in self.members.lock().iter() {
            member.sink.append(rows);
            // relaxed-ok: monitoring counter, read for stats display.
            member
                .stats
                .tuples_out
                .fetch_add(rows.len() as u64, Ordering::Relaxed);
        }
    }

    /// Number of task results fully processed (released in order).
    pub fn completed_tasks(&self) -> u64 {
        self.completed_tasks.load(Ordering::Relaxed)
    }

    /// Submits the result of task `seq` (per-query sequence number). The
    /// calling worker thread releases as many in-order results as possible.
    ///
    /// The release sequence **always advances**, even when assembling a
    /// released result fails: the failed result's output is dropped (and
    /// the first such error returned), but the entry still counts as
    /// completed and `next_seq` moves past it. Stalling instead would park
    /// every later task of the query forever — and with the drain loops of
    /// `QueryHandle::remove` / `Saber::stop` waiting on the completed
    /// count, convert one bad result into a 60 s timeout and a spurious
    /// data-loss report for the whole query.
    pub fn submit(&self, seq: u64, output: TaskOutput, stamps: TaskStamps) -> Result<()> {
        let mut ordered = self.ordered.lock();
        ordered
            .pending
            .insert(seq, PendingResult { output, stamps });

        // Release the in-order prefix.
        let mut first_error = None;
        while let Some(result) = {
            let next = ordered.next_seq;
            ordered.pending.remove(&next)
        } {
            let assembled = Instant::now();
            match result.output {
                TaskOutput::Rows(rows) => self.deliver(&rows),
                TaskOutput::Fragments { panes, progress } => {
                    let Ordered {
                        ref mut assembler,
                        ref mut scratch,
                        ..
                    } = *ordered;
                    if let Some(assembler) = assembler.as_mut() {
                        scratch.clear();
                        match assembler.accept(panes, progress, scratch) {
                            Ok(_emitted) => self.deliver(scratch),
                            Err(e) => {
                                if first_error.is_none() {
                                    first_error = Some(e);
                                }
                            }
                        }
                    }
                }
            }
            let delivered = Instant::now();
            let s = result.stamps;
            let stages: [u64; TRACE_STAGES] = [
                nanos_between(s.ingest_ack, s.created),
                nanos_between(s.created, s.popped),
                nanos_between(s.popped, s.started),
                nanos_between(s.started, assembled),
                nanos_between(assembled, delivered),
                nanos_between(s.ingest_ack, delivered),
            ];
            self.stats.stages.record(stages);
            self.recorder
                .record(self.query_id, ordered.next_seq, stages);
            // relaxed-ok: progress counter; removal-drain reads it via
            // completed_tasks() after flushing under the cutter lock, whose
            // release/acquire already orders the preceding completions.
            self.completed_tasks.fetch_add(1, Ordering::Relaxed);
            ordered.next_seq += 1;
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Number of results parked out of order (diagnostics).
    pub fn parked(&self) -> usize {
        self.ordered.lock().pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{AggregateFunction, Expr, QueryBuilder};
    use saber_types::{DataType, Schema, Value};

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[("timestamp", DataType::Timestamp), ("v", DataType::Float)])
            .unwrap()
            .into_ref()
    }

    fn rows(n: usize, start: i64) -> RowBuffer {
        let mut b = RowBuffer::new(schema());
        for i in 0..n {
            b.push_values(&[Value::Timestamp(start + i as i64), Value::Float(1.0)])
                .unwrap();
        }
        b
    }

    fn stateless_stage() -> (ResultStage, QuerySink) {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let stage = ResultStage::new(
            &plan,
            Arc::new(PlanStats::default()),
            Arc::new(FlightRecorder::new(8)),
        );
        let sink = attach(&stage, 0).0;
        (stage, sink)
    }

    /// Attaches member `id` to `stage`: its retaining sink and stats block.
    fn attach(stage: &ResultStage, id: usize) -> (QuerySink, Arc<QueryStats>) {
        let sink = QuerySink::new(stage.schema().clone(), true);
        let stats = Arc::new(QueryStats::new(stage.stats.clone()));
        stage.members.lock().push(Member {
            id,
            sink: sink.clone(),
            stats: stats.clone(),
            gate: Arc::new(Gate::new(crate::registry::GATE_OPEN)),
        });
        (sink, stats)
    }

    #[test]
    fn in_order_results_are_released_immediately() {
        let (stage, sink) = stateless_stage();
        stage
            .submit(
                0,
                TaskOutput::Rows(rows(3, 0)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        stage
            .submit(
                1,
                TaskOutput::Rows(rows(2, 3)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 5);
        assert_eq!(stage.completed_tasks(), 2);
        assert_eq!(stage.parked(), 0);
    }

    #[test]
    fn out_of_order_results_wait_for_the_missing_task() {
        let (stage, sink) = stateless_stage();
        stage
            .submit(
                1,
                TaskOutput::Rows(rows(2, 4)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        stage
            .submit(
                2,
                TaskOutput::Rows(rows(2, 8)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 0);
        assert_eq!(stage.parked(), 2);
        // The missing task 0 arrives and releases everything in order.
        stage
            .submit(
                0,
                TaskOutput::Rows(rows(2, 0)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 6);
        let out = sink.take_rows();
        let stamps: Vec<i64> = out.iter().map(|t| t.timestamp()).collect();
        assert_eq!(stamps, vec![0, 1, 4, 5, 8, 9]);
        assert_eq!(stage.completed_tasks(), 3);
    }

    #[test]
    fn released_results_feed_stage_histograms_and_the_flight_recorder() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let stats = Arc::new(PlanStats::default());
        let recorder = Arc::new(FlightRecorder::new(8));
        let stage = ResultStage::new(&plan, stats.clone(), recorder.clone());
        attach(&stage, 0);
        for seq in 0..3u64 {
            stage
                .submit(
                    seq,
                    TaskOutput::Rows(rows(2, seq as i64 * 2)),
                    TaskStamps::collapsed(Instant::now()),
                )
                .unwrap();
        }
        let snaps = stats.stages.snapshots();
        assert!(snaps.iter().all(|(_, s)| s.count() == 3));
        let traces = recorder.dump();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].seq, 2, "newest trace first");
        assert!(traces.iter().all(|t| t.query == plan.query_id() as u64));
    }

    #[test]
    fn aggregation_results_are_assembled_across_tasks() {
        let q = QueryBuilder::new("agg", schema())
            .count_window(8, 8)
            .aggregate(AggregateFunction::Count, 1)
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            saber_cpu::PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };
        let stage = ResultStage::new(
            &plan,
            Arc::new(PlanStats::default()),
            Arc::new(FlightRecorder::new(8)),
        );
        let (sink, stats) = attach(&stage, 0);

        // Two tasks of 6 rows each; window 0 (rows 0..8) spans both.
        let mk = |start: u64| {
            let batch =
                saber_cpu::exec::StreamBatch::new(rows(6, start as i64), start, start as i64);
            saber_cpu::windowed::execute(&plan, &agg, &batch).unwrap()
        };
        // Submit out of order.
        stage
            .submit(1, mk(6), TaskStamps::collapsed(Instant::now()))
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 0);
        stage
            .submit(0, mk(0), TaskStamps::collapsed(Instant::now()))
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 1);
        let out = sink.take_rows();
        assert_eq!(out.row(0).get_i64(1), 8);
        assert!(stats.avg_latency() > std::time::Duration::ZERO);
    }

    #[test]
    fn every_member_receives_each_batch_released_after_it_attached() {
        let (stage, first) = stateless_stage();
        let submit = |seq: u64| {
            stage
                .submit(
                    seq,
                    TaskOutput::Rows(rows(2, seq as i64 * 2)),
                    TaskStamps::collapsed(Instant::now()),
                )
                .unwrap();
        };
        submit(0);
        let (second, second_stats) = attach(&stage, 1);
        submit(1);
        assert_eq!(first.tuples_emitted(), 4);
        assert_eq!(second.tuples_emitted(), 2);
        assert_eq!(second_stats.tuples_out.load(Ordering::Relaxed), 2);
        let stamps: Vec<i64> = second.take_rows().iter().map(|t| t.timestamp()).collect();
        assert_eq!(stamps, vec![2, 3]);
        // A detached member receives nothing more.
        stage.members.lock().retain(|m| m.id != 0);
        submit(2);
        assert_eq!(first.tuples_emitted(), 4);
        assert_eq!(second.tuples_emitted(), 4);
    }
}
