//! Scheduling policies: HLS (Alg. 1), FCFS and Static (paper §4.2, §6.6).
//!
//! The scheduling stage operates on [`TaskHead`] snapshots — one entry per
//! query with queued tasks, in global FIFO (arrival) order — instead of
//! scanning the whole task list under a lock. HLS's lookahead walk is
//! therefore O(#queries): skipping a query charges its *entire* backlog
//! (`depth` tasks) to the preferred processor's accumulated delay. This
//! matches Alg. 1's task-by-task sum exactly when each query's tasks are
//! contiguous in arrival order, and overestimates the delay (erring towards
//! letting the non-preferred processor help) when arrivals interleave —
//! tasks that arrived *after* the candidate head are charged too.

use crate::queue::{TaskHead, TaskQueue};
use crate::task::QueryTask;
use crate::throughput::ThroughputMatrix;
use saber_types::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A heterogeneous processor: one of the CPU worker cores (collectively "the
/// CPU") or the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Processor {
    /// The CPU worker pool.
    Cpu,
    /// The simulated accelerator.
    Gpu,
}

impl Processor {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Processor::Cpu => "cpu",
            Processor::Gpu => "gpgpu",
        }
    }
}

/// The scheduling policies compared in §6.6.
#[derive(Debug, Clone)]
pub enum SchedulingPolicyKind {
    /// Heterogeneous lookahead scheduling (the SABER default).
    Hls {
        /// Maximum number of consecutive executions of a query's tasks on its
        /// preferred processor before one task is forced onto the other
        /// processor (the paper's switch threshold).
        switch_threshold: u32,
    },
    /// First-come, first-served: every worker takes the queue head.
    Fcfs,
    /// Static assignment of queries to processors (infeasible in practice
    /// for dynamic workloads; used as a baseline).
    Static {
        /// Map from query id to its assigned processor (unassigned queries
        /// default to the CPU).
        assignment: HashMap<usize, Processor>,
    },
}

impl Default for SchedulingPolicyKind {
    fn default() -> Self {
        SchedulingPolicyKind::Hls {
            switch_threshold: 16,
        }
    }
}

impl SchedulingPolicyKind {
    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicyKind::Hls { .. } => "hls",
            SchedulingPolicyKind::Fcfs => "fcfs",
            SchedulingPolicyKind::Static { .. } => "static",
        }
    }
}

/// The scheduling stage: selects the next task for an idle worker.
#[derive(Debug)]
pub struct Scheduler {
    policy: SchedulingPolicyKind,
    matrix: Arc<ThroughputMatrix>,
    /// count(q, p): consecutive executions per query and processor
    /// (Alg. 1's execution counters).
    counts: Mutex<HashMap<(usize, Processor), u32>>,
    /// When only one processor type is active (CPU-only / GPGPU-only modes),
    /// lookahead is pointless: the single processor must take the head of the
    /// queue or tasks would never complete.
    single_processor: Option<Processor>,
}

impl Scheduler {
    /// Creates a scheduler with the given policy over the shared throughput
    /// matrix.
    pub fn new(policy: SchedulingPolicyKind, matrix: Arc<ThroughputMatrix>) -> Self {
        Self {
            policy,
            matrix,
            counts: Mutex::new(HashMap::new()),
            single_processor: None,
        }
    }

    /// Restricts scheduling to a single processor type (CPU-only or
    /// GPGPU-only execution modes), which degenerates every policy to FCFS
    /// for that processor.
    pub fn with_single_processor(mut self, processor: Processor) -> Self {
        self.single_processor = Some(processor);
        self
    }

    /// The policy in use.
    pub fn policy(&self) -> &SchedulingPolicyKind {
        &self.policy
    }

    /// The processor `query`'s tasks are routed to: the pinned processor
    /// of a single-processor scheduler, else the matrix's preference.
    pub fn preferred(&self, query: usize) -> Processor {
        self.single_processor
            .unwrap_or_else(|| self.matrix.preferred(query))
    }

    /// Blocks for up to `timeout` and returns the task the given processor
    /// should execute next (or `None` if the queue stays empty / no queued
    /// task should run on this processor yet).
    pub fn next_task(
        &self,
        queue: &TaskQueue,
        processor: Processor,
        timeout: Duration,
    ) -> Option<QueryTask> {
        let task = queue.take_with(timeout, |heads| self.select(heads, processor))?;
        // Execution counters are committed only for tasks actually popped:
        // `select` may run several times per pop (head snapshots race with
        // other workers), so mutating counts there would drift.
        self.record_execution(task.query_id, processor);
        Some(task)
    }

    /// Commits Alg. 1's execution counters for a task of `query` that will
    /// run on `processor`. Called once per task actually taken; public so
    /// embedders driving [`Scheduler::select`] manually can keep the
    /// counters honest.
    pub fn record_execution(&self, query: usize, processor: Processor) {
        let SchedulingPolicyKind::Hls { switch_threshold } = self.policy else {
            return;
        };
        let mut counts = self.counts.lock();
        let preferred = self.matrix.preferred(query);
        if processor != preferred {
            // A non-preferred take triggered by the switch threshold resets
            // the preferred processor's streak.
            let on_pref = *counts.get(&(query, preferred)).unwrap_or(&0);
            if on_pref >= switch_threshold {
                counts.insert((query, preferred), 0);
            }
        }
        *counts.entry((query, processor)).or_insert(0) += 1;
    }

    /// Pure selection logic: the index in `heads` (non-empty sub-queue heads
    /// in arrival order) of the query whose head task `processor` should
    /// execute, per the configured policy.
    pub fn select(&self, heads: &[TaskHead], processor: Processor) -> Option<usize> {
        if heads.is_empty() {
            return None;
        }
        if let Some(single) = self.single_processor {
            return if single == processor { Some(0) } else { None };
        }
        match &self.policy {
            SchedulingPolicyKind::Fcfs => Some(0),
            SchedulingPolicyKind::Static { assignment } => heads.iter().position(|h| {
                assignment
                    .get(&h.query_id)
                    .copied()
                    .unwrap_or(Processor::Cpu)
                    == processor
            }),
            SchedulingPolicyKind::Hls { switch_threshold } => {
                self.select_hls(heads, processor, *switch_threshold)
            }
        }
    }

    /// Algorithm 1 of the paper: hybrid lookahead scheduling over sub-queue
    /// heads. Walking the heads in arrival order visits the first task of
    /// each query in true queue order; skipping a head charges its whole
    /// backlog to the preferred processor's delay. Read-only: the execution
    /// counters are committed by [`Scheduler::record_execution`] once a task
    /// is actually popped.
    fn select_hls(
        &self,
        heads: &[TaskHead],
        processor: Processor,
        switch_threshold: u32,
    ) -> Option<usize> {
        let counts = self.counts.lock();
        let mut delay = 0.0f64;
        for (pos, head) in heads.iter().enumerate() {
            let q = head.query_id;
            let preferred = self.matrix.preferred(q);
            let count_on_this = *counts.get(&(q, processor)).unwrap_or(&0);
            let count_on_pref = *counts.get(&(q, preferred)).unwrap_or(&0);

            let take = if processor == preferred {
                // Preferred processor takes the task unless the switch
                // threshold forces exploration of the other processor.
                count_on_this < switch_threshold
            } else {
                // Non-preferred processor helps if the preferred processor's
                // accumulated backlog — earlier queries' delay plus this
                // query's own remaining backlog — would delay the task longer
                // than running it here, or if the switch threshold demands it.
                let backlog =
                    delay + (head.depth - 1) as f64 / self.matrix.value(q, preferred).max(1e-9);
                count_on_pref >= switch_threshold
                    || backlog >= 1.0 / self.matrix.value(q, processor).max(1e-9)
            };

            if take {
                return Some(pos);
            }
            // The query's tasks are expected to run on their preferred
            // processor; account for the work its backlog adds there.
            delay += head.depth as f64 / self.matrix.value(q, preferred).max(1e-9);
        }
        None
    }

    /// Drops the execution counters of one query (called when the query is
    /// removed, so counter state does not accumulate under query churn).
    pub fn forget_query(&self, query: usize) {
        self.counts.lock().retain(|(q, _), _| *q != query);
    }

    /// Current execution counter for `(query, processor)` (tests).
    pub fn count(&self, query: usize, processor: Processor) -> u32 {
        *self.counts.lock().get(&(query, processor)).unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_cpu::exec::StreamBatch;
    use saber_cpu::plan::CompiledPlan;
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, RowBuffer, Schema};
    use std::time::Instant;

    fn mk_task(id: u64, query_id: usize) -> QueryTask {
        let schema = Schema::from_pairs(&[("ts", DataType::Timestamp)])
            .unwrap()
            .into_ref();
        let q = QueryBuilder::new(format!("q{query_id}"), schema.clone())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap()
            .with_id(query_id);
        QueryTask {
            id,
            query_id,
            seq: id,
            plan: Arc::new(CompiledPlan::compile(&q).unwrap()),
            batches: vec![StreamBatch::new(RowBuffer::new(schema), 0, 0)],
            created: Instant::now(),
            ingest_ack: Instant::now(),
        }
    }

    /// Builds the head snapshot of a FIFO queue containing `spec` (query ids
    /// in arrival order), as `TaskQueue::snapshot_heads` would produce it.
    fn heads_of(spec: &[usize]) -> Vec<TaskHead> {
        let mut heads: Vec<TaskHead> = Vec::new();
        for (arrival, q) in spec.iter().enumerate() {
            match heads.iter_mut().find(|h| h.query_id == *q) {
                Some(h) => h.depth += 1,
                None => heads.push(TaskHead {
                    query_id: *q,
                    arrival: arrival as u64,
                    depth: 1,
                }),
            }
        }
        heads
    }

    /// Builds a matrix mirroring the paper's Fig. 5 example:
    /// q1: CPU 50, GPU 20; q2: CPU 5, GPU 15; q3: CPU 20, GPU 30.
    fn fig5_matrix() -> Arc<ThroughputMatrix> {
        let m = Arc::new(ThroughputMatrix::new(1.0, 1));
        m.record(1, Processor::Cpu, Duration::from_secs_f64(1.0 / 50.0));
        m.record(1, Processor::Gpu, Duration::from_secs_f64(1.0 / 20.0));
        m.record(2, Processor::Cpu, Duration::from_secs_f64(1.0 / 5.0));
        m.record(2, Processor::Gpu, Duration::from_secs_f64(1.0 / 15.0));
        m.record(3, Processor::Cpu, Duration::from_secs_f64(1.0 / 20.0));
        m.record(3, Processor::Gpu, Duration::from_secs_f64(1.0 / 30.0));
        m
    }

    #[test]
    fn fcfs_always_takes_the_earliest_arrival() {
        let s = Scheduler::new(
            SchedulingPolicyKind::Fcfs,
            Arc::new(ThroughputMatrix::new(0.5, 1)),
        );
        let heads = heads_of(&[2, 1, 3]);
        assert_eq!(s.select(&heads, Processor::Cpu), Some(0));
        assert_eq!(s.select(&heads, Processor::Gpu), Some(0));
        assert_eq!(s.select(&[], Processor::Cpu), None);
    }

    #[test]
    fn static_policy_matches_assignment() {
        let mut assignment = HashMap::new();
        assignment.insert(1usize, Processor::Gpu);
        assignment.insert(2usize, Processor::Cpu);
        let s = Scheduler::new(
            SchedulingPolicyKind::Static { assignment },
            Arc::new(ThroughputMatrix::new(0.5, 1)),
        );
        let heads = heads_of(&[1, 1, 2]);
        assert_eq!(s.select(&heads, Processor::Gpu), Some(0));
        assert_eq!(s.select(&heads, Processor::Cpu), Some(1));
        // Unassigned queries default to the CPU.
        let heads = heads_of(&[9]);
        assert_eq!(s.select(&heads, Processor::Gpu), None);
        assert_eq!(s.select(&heads, Processor::Cpu), Some(0));
    }

    #[test]
    fn hls_reproduces_the_papers_fig5_walkthrough() {
        // Queue (head first): q2 q2 q2 q3 q3 q1 q1 — Fig. 5 of the paper.
        // Head snapshot: [q2 (depth 3), q3 (depth 2), q1 (depth 2)].
        // A GPGPU worker takes the head (q2 prefers the GPGPU). A CPU worker
        // skips q2 — the GPGPU delay after its backlog is 3/15 = 0.2 ≥
        // 1/C(q3, CPU) = 1/20 — and picks the q3 head, the paper's v4.
        let matrix = fig5_matrix();
        let s = Scheduler::new(
            SchedulingPolicyKind::Hls {
                switch_threshold: 100,
            },
            matrix,
        );
        let heads = heads_of(&[2, 2, 2, 3, 3, 1, 1]);
        assert_eq!(s.select(&heads, Processor::Gpu), Some(0));
        assert_eq!(s.select(&heads, Processor::Cpu), Some(1));
        assert_eq!(heads[1].query_id, 3);
    }

    #[test]
    fn hls_prefers_the_faster_processor_when_it_is_idle() {
        let matrix = fig5_matrix();
        let s = Scheduler::new(
            SchedulingPolicyKind::Hls {
                switch_threshold: 100,
            },
            matrix,
        );
        // Only q1 tasks (CPU-preferred): the CPU takes the head, the GPGPU
        // declines because the CPU backlog (1/50) stays below 1/C(q1,GPU)=1/20.
        let heads = heads_of(&[1, 1]);
        assert_eq!(s.select(&heads, Processor::Cpu), Some(0));
        assert_eq!(s.select(&heads, Processor::Gpu), None);
    }

    #[test]
    fn hls_lets_the_slower_processor_help_under_backlog() {
        let matrix = fig5_matrix();
        let s = Scheduler::new(
            SchedulingPolicyKind::Hls {
                switch_threshold: 100,
            },
            matrix,
        );
        // Many q1 tasks: the CPU backlog accumulates (1/50 per task), so the
        // GPGPU helps even though the CPU is preferred: the remaining backlog
        // delay 9/50 = 0.18 exceeds 1/C(q1, GPU) = 0.05.
        let heads = heads_of(&[1; 10]);
        assert_eq!(s.select(&heads, Processor::Gpu), Some(0));
        // With a backlog of 2 the delay 1/50 stays below 0.05: decline.
        let heads = heads_of(&[1; 2]);
        assert_eq!(s.select(&heads, Processor::Gpu), None);
    }

    #[test]
    fn switch_threshold_forces_exploration() {
        let matrix = fig5_matrix();
        let s = Scheduler::new(
            SchedulingPolicyKind::Hls {
                switch_threshold: 3,
            },
            matrix,
        );
        let heads = heads_of(&[1, 1, 1, 1, 1, 1]);
        // The CPU (preferred for q1) takes three tasks, then the threshold
        // stops it...
        for _ in 0..3 {
            assert_eq!(s.select(&heads, Processor::Cpu), Some(0));
            s.record_execution(1, Processor::Cpu);
        }
        assert_eq!(s.select(&heads, Processor::Cpu), None);
        // ...and the GPGPU is allowed to take the next task immediately,
        // which resets the CPU counter.
        assert_eq!(s.select(&heads, Processor::Gpu), Some(0));
        s.record_execution(1, Processor::Gpu);
        assert_eq!(s.count(1, Processor::Cpu), 0);
        assert_eq!(s.select(&heads, Processor::Cpu), Some(0));
    }

    #[test]
    fn counters_only_advance_for_popped_tasks() {
        // A selection that loses the pop race must not bump the counters:
        // `select` is pure, `record_execution` commits.
        let matrix = fig5_matrix();
        let s = Scheduler::new(
            SchedulingPolicyKind::Hls {
                switch_threshold: 3,
            },
            matrix,
        );
        let heads = heads_of(&[1, 1]);
        for _ in 0..10 {
            assert_eq!(s.select(&heads, Processor::Cpu), Some(0));
        }
        assert_eq!(s.count(1, Processor::Cpu), 0);
        s.record_execution(1, Processor::Cpu);
        assert_eq!(s.count(1, Processor::Cpu), 1);
    }

    #[test]
    fn single_processor_mode_degenerates_to_fcfs() {
        let matrix = fig5_matrix();
        let s = Scheduler::new(SchedulingPolicyKind::default(), matrix)
            .with_single_processor(Processor::Cpu);
        let heads = heads_of(&[2, 1]);
        assert_eq!(s.select(&heads, Processor::Cpu), Some(0));
        assert_eq!(s.select(&heads, Processor::Gpu), None);
    }

    /// Pops `pops` tasks of query 0 through HLS over an unseeded matrix,
    /// one queued task at a time, offering each to the accelerator first.
    /// The taker records `cpu` or `gpu` as the task's duration. Returns the
    /// taker of each pop and the matrix's preference right after it.
    fn drive_unseeded(cpu: Duration, gpu: Duration, pops: u64) -> Vec<(Processor, Processor)> {
        let matrix = Arc::new(ThroughputMatrix::new(crate::throughput::SMOOTHING, 1));
        let s = Scheduler::new(SchedulingPolicyKind::default(), matrix.clone());
        let queue = TaskQueue::with_queries(1);
        (0..pops)
            .map(|id| {
                queue.push(mk_task(id, 0));
                let taker = [Processor::Gpu, Processor::Cpu]
                    .into_iter()
                    .find(|&p| s.next_task(&queue, p, Duration::ZERO).is_some())
                    .expect("one processor takes the only queued task");
                let took = if taker == Processor::Cpu { cpu } else { gpu };
                matrix.record(0, taker, took);
                (taker, matrix.preferred(0))
            })
            .collect()
    }

    fn default_switch_threshold() -> usize {
        match SchedulingPolicyKind::default() {
            SchedulingPolicyKind::Hls { switch_threshold } => switch_threshold as usize,
            other => panic!("default policy is {}", other.name()),
        }
    }

    #[test]
    fn unseeded_hls_finds_a_faster_accelerator_by_exploring() {
        let threshold = default_switch_threshold();
        let run = drive_unseeded(Duration::from_millis(1), Duration::from_micros(100), 100);
        // The uniform prior keeps the CPU preferred until the switch
        // threshold forces one task onto the accelerator...
        let first_gpu = run
            .iter()
            .position(|(taker, _)| *taker == Processor::Gpu)
            .expect("an exploratory accelerator task");
        assert!(first_gpu < threshold + 1, "first GPU pop at {first_gpu}");
        // ...whose one sample flips the preference for good.
        assert!(run[first_gpu..].iter().all(|(_, p)| *p == Processor::Gpu));
        let gpu_pops = run.iter().filter(|(t, _)| *t == Processor::Gpu).count();
        assert!(gpu_pops > run.len() * 3 / 4, "{gpu_pops} of {}", run.len());
    }

    #[test]
    fn unseeded_hls_keeps_a_cpu_faster_query_on_the_cpu() {
        let threshold = default_switch_threshold();
        let run = drive_unseeded(Duration::from_micros(100), Duration::from_millis(1), 100);
        assert!(run.iter().all(|(_, p)| *p == Processor::Cpu));
        // The accelerator only sees the switch threshold's explorations.
        let gpu_pops = run.iter().filter(|(t, _)| *t == Processor::Gpu).count();
        assert!(gpu_pops >= 1);
        assert!(gpu_pops <= run.len() / (threshold + 1), "{gpu_pops}");
    }

    #[test]
    fn next_task_removes_from_the_shared_queue() {
        let matrix = fig5_matrix();
        let s = Scheduler::new(SchedulingPolicyKind::Fcfs, matrix);
        let queue = TaskQueue::with_queries(2);
        queue.push(mk_task(0, 1));
        let t = s.next_task(&queue, Processor::Cpu, Duration::from_millis(10));
        assert!(t.is_some());
        assert!(queue.is_empty());
    }
}
