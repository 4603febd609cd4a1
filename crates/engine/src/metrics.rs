//! Engine, physical-plan and per-query statistics.
//!
//! # Owners
//!
//! Every counter has one owner. A physical plan owns the task-level
//! figures — tasks created and cut early, exec errors, tasks per processor
//! and the six stage histograms — in its [`PlanStats`]: the dispatcher, the
//! workers and the result stage record into it. A query owns only its row
//! counters (`tuples_in`, `bytes_in`, `tuples_out`) and its producers'
//! backpressure wait, in its [`QueryStats`], which also holds a shared
//! reference to its plan's block and dereferences to it. So every member of
//! a shared plan, removed members included, reports the plan's tasks and
//! latencies next to its own rows, and a member costs a few counters, not a
//! copy of the histograms.
//!
//! # Memory-ordering protocol
//!
//! Every counter in this module is monitoring data: it is incremented on hot
//! paths and read asynchronously by reporting code, and no control-flow
//! decision synchronizes through it. All accesses therefore use `Relaxed`
//! ordering on purpose. Counters that *do* gate execution live elsewhere and
//! carry real synchronization: task admission is the mutex/condvar pair in
//! [`crate::flow::FlowControl`], and buffer visibility is the
//! Release/Acquire publish protocol of [`crate::circular::CircularBuffer`].

use crate::scheduler::Processor;
use saber_obs::{Histogram, HistogramSnapshot, STAGE_NAMES, TRACE_STAGES};
use saber_types::sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-stage latency histograms of one query, indexed like
/// [`saber_obs::STAGE_NAMES`] (`ingest_wait`, `queue`, `schedule`, `exec`,
/// `deliver`, `total`). Recording is wait-free; fed by the result stage for
/// every released task.
#[derive(Debug)]
pub struct StageHistograms {
    hists: [Histogram; TRACE_STAGES],
}

impl Default for StageHistograms {
    fn default() -> Self {
        Self {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl StageHistograms {
    /// Records one task's stage durations (nanoseconds).
    pub fn record(&self, stages: [u64; TRACE_STAGES]) {
        for (h, d) in self.hists.iter().zip(stages) {
            h.record(d);
        }
    }

    /// The `total` stage (ingest-ack → sink-delivered): the engine's one
    /// definition of result latency.
    pub fn total(&self) -> &Histogram {
        &self.hists[TRACE_STAGES - 1]
    }

    /// Named snapshots of every stage, in storage order.
    pub fn snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        STAGE_NAMES
            .iter()
            .zip(&self.hists)
            .map(|(name, h)| (*name, h.snapshot()))
            .collect()
    }
}

/// Task-level counters of one physical plan: the tasks its dispatcher cut,
/// where they ran and how long each stage took. The plan is their one
/// owner (`SharedPlan::stats`); every member's [`QueryStats`] reads them
/// through a shared reference, so all members of a shared plan — removed
/// ones included — report the same figures.
#[derive(Debug, Default)]
pub struct PlanStats {
    /// Query tasks created by the dispatcher.
    pub tasks_created: AtomicU64,
    /// Of those, tasks an idle worker cut below φ because their oldest row
    /// had waited `EARLY_CUT_AGE`.
    pub tasks_cut_early: AtomicU64,
    /// Tasks whose execution failed (each still finishes, with no output).
    pub exec_errors: AtomicU64,
    /// Tasks executed on CPU workers.
    pub tasks_cpu: AtomicU64,
    /// Tasks executed on the accelerator.
    pub tasks_gpu: AtomicU64,
    /// Per-stage pipeline latency histograms (nanoseconds).
    pub stages: StageHistograms,
}

impl PlanStats {
    /// Records one task execution on `processor`.
    pub fn record_task(&self, processor: Processor) {
        match processor {
            // relaxed-ok: monitoring counters behind the gpu_share() display.
            Processor::Cpu => self.tasks_cpu.fetch_add(1, Ordering::Relaxed),
            // relaxed-ok: monitoring counter behind the gpu_share() display.
            Processor::Gpu => self.tasks_gpu.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Fraction of executed tasks that ran on the accelerator (the "GPGPU
    /// contribution" split of Fig. 7).
    pub fn gpu_share(&self) -> f64 {
        let cpu = self.tasks_cpu.load(Ordering::Relaxed) as f64;
        let gpu = self.tasks_gpu.load(Ordering::Relaxed) as f64;
        if cpu + gpu == 0.0 {
            0.0
        } else {
            gpu / (cpu + gpu)
        }
    }
}

/// Per-query counters: the member's own row and backpressure counters,
/// plus its plan's task-level figures, which the block dereferences to
/// (`stats.tasks_cpu`, `stats.stages` read the plan's [`PlanStats`]).
#[derive(Debug)]
pub struct QueryStats {
    /// Tuples ingested into the query's input buffers.
    pub tuples_in: AtomicU64,
    /// Bytes ingested.
    pub bytes_in: AtomicU64,
    /// Result tuples emitted.
    pub tuples_out: AtomicU64,
    /// Nanoseconds producers of this query spent blocked on backpressure.
    pub backpressure_wait_nanos: AtomicU64,
    /// Number of task submissions that had to block on backpressure.
    pub backpressure_waits: AtomicU64,
    /// The task-level figures of the physical plan the query is a member of.
    plan: Arc<PlanStats>,
}

impl std::ops::Deref for QueryStats {
    type Target = PlanStats;

    fn deref(&self) -> &PlanStats {
        &self.plan
    }
}

impl QueryStats {
    /// A zeroed member block reading `plan`'s task-level figures.
    pub fn new(plan: Arc<PlanStats>) -> Self {
        Self {
            tuples_in: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            tuples_out: AtomicU64::new(0),
            backpressure_wait_nanos: AtomicU64::new(0),
            backpressure_waits: AtomicU64::new(0),
            plan,
        }
    }

    /// Takes a point-in-time copy of every counter. The latency fields come
    /// from the plan's `total` stage histogram, under its contract: a
    /// snapshot racing a record may be off by the one in-flight sample.
    pub fn snapshot(&self) -> StatsSnapshot {
        let plan = &*self.plan;
        let total = plan.stages.total().snapshot();
        StatsSnapshot {
            tuples_in: self.tuples_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            tasks_created: plan.tasks_created.load(Ordering::Relaxed),
            tasks_cut_early: plan.tasks_cut_early.load(Ordering::Relaxed),
            exec_errors: plan.exec_errors.load(Ordering::Relaxed),
            tasks_cpu: plan.tasks_cpu.load(Ordering::Relaxed),
            tasks_gpu: plan.tasks_gpu.load(Ordering::Relaxed),
            tuples_out: self.tuples_out.load(Ordering::Relaxed),
            latency_sum_nanos: total.sum(),
            latency_samples: total.count(),
            latency_max_nanos: total.max(),
            backpressure_wait_nanos: self.backpressure_wait_nanos.load(Ordering::Relaxed),
            backpressure_waits: self.backpressure_waits.load(Ordering::Relaxed),
        }
    }

    /// Average task latency (ingest-ack → sink-delivered).
    pub fn avg_latency(&self) -> Duration {
        self.snapshot().avg_latency()
    }

    /// Maximum task latency.
    pub fn max_latency(&self) -> Duration {
        self.snapshot().max_latency()
    }

    /// Records one producer backpressure stall.
    pub fn record_backpressure(&self, waited: Duration) {
        if waited > Duration::ZERO {
            // relaxed-ok: monitoring counter, read only for stats display.
            self.backpressure_wait_nanos
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
            // relaxed-ok: monitoring counter, read only for stats display.
            self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total time this query's producers spent blocked on backpressure.
    pub fn backpressure_wait(&self) -> Duration {
        Duration::from_nanos(self.backpressure_wait_nanos.load(Ordering::Relaxed))
    }
}

/// A point-in-time copy of one query's counters and its plan's task
/// figures (see [`QueryStats::snapshot`]). Plain values: render, diff or ship it without
/// touching the live atomics again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Tuples ingested into the query's input buffers.
    pub tuples_in: u64,
    /// Bytes ingested.
    pub bytes_in: u64,
    /// Query tasks created by the dispatcher.
    pub tasks_created: u64,
    /// Of those, undersized tasks cut by an idle worker for aged rows.
    pub tasks_cut_early: u64,
    /// Tasks whose execution failed.
    pub exec_errors: u64,
    /// Tasks executed on CPU workers.
    pub tasks_cpu: u64,
    /// Tasks executed on the accelerator.
    pub tasks_gpu: u64,
    /// Result tuples emitted.
    pub tuples_out: u64,
    /// Sum of task result latencies in nanoseconds (ingest-ack →
    /// sink-delivered, the `total` stage).
    pub latency_sum_nanos: u64,
    /// Number of latency samples.
    pub latency_samples: u64,
    /// Maximum observed latency in nanoseconds.
    pub latency_max_nanos: u64,
    /// Nanoseconds producers spent blocked on backpressure.
    pub backpressure_wait_nanos: u64,
    /// Number of task submissions that blocked on backpressure.
    pub backpressure_waits: u64,
}

impl StatsSnapshot {
    /// Average task latency.
    pub fn avg_latency(&self) -> Duration {
        Duration::from_nanos(
            self.latency_sum_nanos
                .checked_div(self.latency_samples)
                .unwrap_or(0),
        )
    }

    /// Maximum task latency.
    pub fn max_latency(&self) -> Duration {
        Duration::from_nanos(self.latency_max_nanos)
    }

    /// Total producer time spent blocked on backpressure.
    pub fn backpressure_wait(&self) -> Duration {
        Duration::from_nanos(self.backpressure_wait_nanos)
    }

    /// Fraction of executed tasks that ran on the accelerator.
    pub fn gpu_share(&self) -> f64 {
        let total = (self.tasks_cpu + self.tasks_gpu) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.tasks_gpu as f64 / total
        }
    }
}

/// Engine-wide statistics: one [`QueryStats`] per registered query, indexed
/// by query id.
///
/// Stats blocks are *retained for removed queries*: queries can now be
/// registered and removed while the engine runs, and their historical
/// counters stay readable (shutdown reports, dashboards) after removal.
/// Registration is internally synchronized so it can happen from any thread.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Indexed by query id; `None` for an id whose registration has not
    /// (or never) installed a block.
    queries: RwLock<Vec<Option<Arc<QueryStats>>>>,
}

impl EngineStats {
    /// Installs the stats block of query id `query`, a member of the plan
    /// whose task-level figures are `plan`, and returns it.
    pub(crate) fn register_query_at(&self, query: usize, plan: &Arc<PlanStats>) -> Arc<QueryStats> {
        let stats = Arc::new(QueryStats::new(plan.clone()));
        let mut queries = self.queries.write();
        if queries.len() <= query {
            queries.resize(query + 1, None);
        }
        queries[query] = Some(stats.clone());
        stats
    }

    /// The stats block of one query id (present for removed queries too).
    pub fn get(&self, query: usize) -> Option<Arc<QueryStats>> {
        self.queries.read().get(query).cloned().flatten()
    }

    /// Sums one member counter over every block.
    fn total(&self, counter: impl Fn(&QueryStats) -> &AtomicU64) -> u64 {
        self.queries
            .read()
            .iter()
            .flatten()
            .map(|q| counter(q).load(Ordering::Relaxed))
            .sum()
    }

    /// Total tuples ingested across all queries.
    pub fn total_tuples_in(&self) -> u64 {
        self.total(|q| &q.tuples_in)
    }

    /// Total bytes ingested across all queries.
    pub fn total_bytes_in(&self) -> u64 {
        self.total(|q| &q.bytes_in)
    }

    /// Total tuples emitted across all queries.
    pub fn total_tuples_out(&self) -> u64 {
        self.total(|q| &q.tuples_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member() -> QueryStats {
        QueryStats::new(Arc::default())
    }

    #[test]
    fn latency_accounting() {
        let s = member();
        assert_eq!(s.avg_latency(), Duration::ZERO);
        s.stages.record([0, 0, 0, 0, 0, 10_000_000]);
        s.stages.record([0, 0, 0, 0, 0, 20_000_000]);
        assert_eq!(s.avg_latency(), Duration::from_millis(15));
        assert_eq!(s.max_latency(), Duration::from_millis(20));
        let total = s.stages.total().snapshot();
        let snap = s.snapshot();
        assert_eq!(snap.latency_samples, total.count());
        assert_eq!(snap.avg_latency(), Duration::from_nanos(total.mean()));
        assert_eq!(snap.max_latency(), Duration::from_nanos(total.max()));
    }

    #[test]
    fn stage_histograms_record_and_snapshot() {
        let s = PlanStats::default();
        s.stages.record([10, 20, 30, 40, 50, 150]);
        s.stages.record([10, 20, 30, 40, 50, 150]);
        let snaps = s.stages.snapshots();
        assert_eq!(snaps.len(), saber_obs::TRACE_STAGES);
        assert_eq!(snaps[0].0, "ingest_wait");
        assert_eq!(snaps[5].0, "total");
        for (_, snap) in &snaps {
            assert_eq!(snap.count(), 2);
        }
        assert_eq!(snaps[5].1.sum(), 300);
        assert_eq!(s.stages.total().count(), 2);
    }

    #[test]
    fn backpressure_accounting_ignores_zero_waits() {
        let s = member();
        s.record_backpressure(Duration::ZERO);
        assert_eq!(s.backpressure_waits.load(Ordering::Relaxed), 0);
        s.record_backpressure(Duration::from_micros(250));
        s.record_backpressure(Duration::from_micros(750));
        assert_eq!(s.backpressure_waits.load(Ordering::Relaxed), 2);
        assert_eq!(s.backpressure_wait(), Duration::from_millis(1));
    }

    #[test]
    fn gpu_share_reflects_task_split() {
        let s = PlanStats::default();
        assert_eq!(s.gpu_share(), 0.0);
        s.record_task(Processor::Cpu);
        s.record_task(Processor::Cpu);
        s.record_task(Processor::Gpu);
        assert!((s.gpu_share() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn members_share_their_plan_figures_and_keep_their_own_rows() {
        let plan = Arc::new(PlanStats::default());
        let e = EngineStats::default();
        let a = e.register_query_at(0, &plan);
        let b = e.register_query_at(2, &plan);
        plan.record_task(Processor::Gpu);
        plan.stages.record([0, 0, 0, 0, 0, 7]);
        a.tuples_in.store(10, Ordering::Relaxed);
        b.tuples_in.store(5, Ordering::Relaxed);
        a.bytes_in.store(100, Ordering::Relaxed);
        b.tuples_out.store(3, Ordering::Relaxed);
        for (stats, tuples_in) in [(&a, 10), (&b, 5)] {
            let snap = stats.snapshot();
            assert_eq!(snap.tuples_in, tuples_in, "row counters are the member's");
            assert_eq!(snap.tasks_gpu, 1, "task counters are the plan's");
            assert_eq!(snap.latency_samples, 1);
            assert_eq!(stats.gpu_share(), 1.0);
        }
        assert_eq!(e.total_tuples_in(), 15);
        assert_eq!(e.total_bytes_in(), 100);
        assert_eq!(e.total_tuples_out(), 3);
        assert_eq!(
            e.get(2).unwrap().tuples_in.load(Ordering::Relaxed),
            5,
            "stats blocks are addressable by query id"
        );
        assert!(e.get(1).is_none(), "a skipped id has no block");
        assert!(e.get(3).is_none());
    }
}
