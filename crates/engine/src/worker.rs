//! Worker threads (paper §4): the execution stage.
//!
//! Every worker handles the complete lifecycle of the query tasks it picks:
//! it invokes the scheduling stage to obtain a task for its processor,
//! executes the task (CPU workers through `saber_cpu::CpuExecutor`, the
//! accelerator worker through the pipeline of `saber_gpu`, which it drives
//! on its own thread),
//! records the observed throughput in the matrix, and enters the result stage
//! to reorder and assemble results.
//!
//! Workers also make dispatch *work-conserving*: one that finds nothing
//! runnable cuts the pending rows that have waited
//! [`EARLY_CUT_AGE`] into undersized tasks (`WorkerContext::cut_aged`)
//! instead of idling until they add up to φ.

use crate::dispatcher::EARLY_CUT_AGE;
use crate::engine::admit_task;
use crate::flow::FlowControl;
use crate::queue::TaskQueue;
use crate::registry::{Gate, QueryRegistry};
use crate::scheduler::{Processor, Scheduler};
use crate::sharing::SharedPlan;
use crate::task::{QueryTask, TaskStamps};
use crate::throughput::ThroughputMatrix;
use saber_cpu::{CompiledPlan, CpuExecutor, TaskOutput};
use saber_gpu::pipeline::{GpuPipeline, PipelineJob};
use saber_gpu::GpuDevice;
use saber_types::{Result, RowBuffer};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a worker thread needs.
pub struct WorkerContext {
    /// The system-wide task queue.
    pub queue: Arc<TaskQueue>,
    /// The scheduling stage.
    pub scheduler: Arc<Scheduler>,
    /// The observed throughput matrix.
    pub matrix: Arc<ThroughputMatrix>,
    /// The dynamic query registry: plans are resolved by id at completion
    /// time, so the set may grow and shrink while workers run.
    pub registry: Arc<QueryRegistry>,
    /// Admission-control gate: every finished task returns its credit here,
    /// waking producers blocked on backpressure.
    pub flow: Arc<FlowControl>,
    /// The engine's gate: early cuts happen only while it is open.
    pub(crate) lifecycle: Arc<Gate>,
}

impl WorkerContext {
    /// Enters `output` into the result stage of physical plan `task_query`.
    /// A task whose execution failed still takes its place in the plan's
    /// sequence (and any drain waiting on it keeps moving): it finishes with
    /// an empty output of `plan`'s schema, and the plan counts the error.
    fn finish(
        &self,
        task_query: usize,
        seq: u64,
        stamps: TaskStamps,
        output: Result<TaskOutput>,
        plan: &CompiledPlan,
        processor: Processor,
    ) {
        let Some(shared) = self.registry.plan(task_query) else {
            // The plan vanished with this task still in flight — only
            // possible after an unclean (timed-out) removal. Drop the output
            // but return the credit so admission control stays balanced.
            self.flow.release();
            return;
        };
        shared.stats.record_task(processor);
        let output = output.unwrap_or_else(|_| {
            // relaxed-ok: monitoring counter, read only for stats display.
            shared.stats.exec_errors.fetch_add(1, Ordering::Relaxed);
            TaskOutput::Rows(RowBuffer::new(plan.output_schema().clone()))
        });
        // A result-stage error is unrecoverable for the affected window, but
        // the stage keeps its release sequence advancing internally, so
        // later tasks (and the removal/stop drain loops) are not blocked.
        let _ = shared.results.submit(seq, output, stamps);
        self.flow.release();
    }

    /// Picks the next task for `processor`, parking for up to `timeout`;
    /// a worker that comes back empty-handed cuts aged pending rows before
    /// its caller parks it again.
    fn next_task(&self, processor: Processor, timeout: Duration) -> Option<QueryTask> {
        let task = self.scheduler.next_task(&self.queue, processor, timeout);
        if task.is_none() {
            self.cut_aged();
        }
        task
    }

    /// The work-conserving cut. Called by a worker with nothing runnable —
    /// the early-cut deadline passed or its park slice ran out — it cuts
    /// every physical plan whose oldest pending row has waited
    /// [`EARLY_CUT_AGE`] and re-arms the deadline for the rest. One walk
    /// over the physical plans, each with its one dispatcher.
    ///
    /// Loss-freeness is `flush()`'s: the cut commits `tasks_cut` under the
    /// cutter lock and is pushed through [`TaskQueue::push`], so removal and
    /// stop drains see it like any other. They own the *final* cut, though:
    /// a stopped engine or a plan whose every member is mid-removal is left
    /// to them.
    fn cut_aged(&self) {
        // Disarm first: a producer arming during the walk lowers the fresh
        // slot, and everything this walk leaves pending is re-armed below.
        self.queue.take_early_cut();
        if !self.lifecycle.is_open() {
            return;
        }
        let now = Instant::now();
        for plan in self.registry.plans() {
            let Some(age) = plan.dispatcher.oldest_pending_age() else {
                continue;
            };
            if age < EARLY_CUT_AGE {
                self.queue.arm_early_cut(now + (EARLY_CUT_AGE - age));
            } else if plan.accepts_cuts()
                && plan.dispatcher.pending_bytes() > 0
                && !self.try_cut(&plan)
            {
                // A backlog or a busy cutter is in the way: look again once
                // it had time to clear (the φ cut stays in charge meanwhile).
                self.queue.arm_early_cut(now + EARLY_CUT_AGE);
            }
        }
    }

    /// Cuts `plan`'s pending rows into a task unless a backlog says the
    /// plan is not starved: tasks still queued in its shard, or no free
    /// credit. Nothing here may block: credits come back only from workers,
    /// so a worker waiting for one — or for the cutter lock, which a
    /// producer holds *while* it waits for a credit — could wait on itself.
    /// Returns false when aged rows are left pending, for the caller to
    /// look at again: no producer will arm a deadline for them any more.
    fn try_cut(&self, plan: &SharedPlan) -> bool {
        if self.queue.depth(plan.id) > 0 || !self.flow.try_acquire() {
            return false;
        }
        match plan.dispatcher.try_flush() {
            Ok(Some(task)) => {
                // relaxed-ok: monitoring counter, read only for stats display.
                plan.stats.tasks_cut_early.fetch_add(1, Ordering::Relaxed);
                admit_task(plan, &self.flow, &self.queue, task);
                true
            }
            // Either another cutter took the rows first, or a producer
            // holds the cutter lock and they are still there.
            Ok(None) => {
                self.flow.release();
                plan.dispatcher.pending_bytes() == 0
            }
            // A ring read failed with the rows left pending. A worker has
            // nobody to report to; the next φ cut or `flush` hits the same
            // error and hands it to a caller who can act on it.
            Err(_) => {
                self.flow.release();
                false
            }
        }
    }
}

/// Tasks the accelerator worker keeps in flight through the pipeline, so
/// data movement overlaps kernel execution (paper §5.2).
const GPU_PIPELINE_DEPTH: usize = 4;

/// The CPU worker loop: pick a CPU task, execute it, record the observed
/// throughput and enter the result stage.
pub fn run_cpu_worker(ctx: WorkerContext) {
    let executor = CpuExecutor::new();
    loop {
        match ctx.next_task(Processor::Cpu, Duration::from_millis(20)) {
            Some(task) => {
                let popped = Instant::now();
                let started = Instant::now();
                let output = executor.execute(&task.plan, &task.batches);
                ctx.matrix
                    .record(task.query_id, Processor::Cpu, started.elapsed());
                let stamps = TaskStamps {
                    ingest_ack: task.ingest_ack,
                    created: task.created,
                    popped,
                    started,
                };
                ctx.finish(
                    task.query_id,
                    task.seq,
                    stamps,
                    output,
                    &task.plan,
                    Processor::Cpu,
                );
            }
            None => {
                if ctx.queue.is_shutdown() && ctx.queue.is_empty() {
                    break;
                }
            }
        }
    }
}

/// What the accelerator worker keeps of a task while the pipeline has it.
struct GpuTask {
    query_id: usize,
    seq: u64,
    stamps: TaskStamps,
    plan: Arc<CompiledPlan>,
}

/// The accelerator worker loop: drives the device's pipeline with up to
/// `GPU_PIPELINE_DEPTH` tasks in flight. It waits for new tasks only until
/// the pipeline's next deadline, and sleeps to that deadline when it takes
/// no more tasks.
pub fn run_gpu_worker(ctx: WorkerContext, device: Arc<GpuDevice>) {
    let mut pipeline: GpuPipeline<GpuTask> = GpuPipeline::new(device, GPU_PIPELINE_DEPTH);
    loop {
        while let Some((task, output)) = pipeline.release(Instant::now()) {
            let duration = task.stamps.started.elapsed();
            ctx.matrix.record(task.query_id, Processor::Gpu, duration);
            ctx.finish(
                task.query_id,
                task.seq,
                task.stamps,
                output,
                &task.plan,
                Processor::Gpu,
            );
        }
        if pipeline.execute(Instant::now()) {
            continue;
        }
        if !pipeline.is_full() {
            let timeout = pipeline
                .next_deadline()
                .map_or(Duration::from_millis(20), |at| {
                    at.saturating_duration_since(Instant::now())
                });
            if let Some(task) = ctx.next_task(Processor::Gpu, timeout) {
                let admitted = Instant::now();
                let tag = GpuTask {
                    query_id: task.query_id,
                    seq: task.seq,
                    stamps: TaskStamps {
                        ingest_ack: task.ingest_ack,
                        created: task.created,
                        popped: admitted,
                        started: admitted,
                    },
                    plan: task.plan.clone(),
                };
                let job = PipelineJob {
                    plan: task.plan,
                    batches: task.batches,
                };
                pipeline.admit(tag, job, admitted);
                continue;
            }
            if !ctx.queue.is_shutdown() {
                // Parked until the next deadline, or woken early: look
                // again.
                continue;
            }
        }
        if pipeline.is_empty() {
            if ctx.queue.is_empty() {
                break;
            }
        } else {
            pipeline.sleep_until_next_deadline();
        }
    }
}
