//! The query task throughput matrix `C` (paper §4.2).
//!
//! SABER does not use an offline performance model; it *observes* the number
//! of query tasks executed per unit of time, per query and per processor
//! type, and uses those observations to decide which processor is preferred
//! for each query. The matrix is initialised under a uniform assumption and
//! continuously updated from measured task durations with an exponential
//! moving average.
//!
//! Matrix entries are *aggregate* throughputs: the CPU entry reflects all CPU
//! worker cores together, the accelerator entry the device as a whole
//! (including data-movement overheads), mirroring the paper's definition.
//! The first observation of an entry replaces the uniform assumption
//! outright; later ones are smoothed in. HLS's switch threshold forces an
//! exploratory task onto the non-preferred processor, so both columns of a
//! busy query are observed within a few tasks.

use crate::ids::QueryId;
use crate::scheduler::Processor;
use saber_types::sync::RwLock;
use std::collections::HashMap;
use std::time::Duration;

/// The EWMA smoothing factor of the engine's matrix.
pub(crate) const SMOOTHING: f64 = 0.25;

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Smoothed single-executor task rate (tasks per second).
    rate: f64,
    /// Number of observations folded in.
    samples: u64,
}

/// The observed query-task throughput matrix.
#[derive(Debug)]
pub struct ThroughputMatrix {
    entries: RwLock<HashMap<(usize, Processor), Entry>>,
    /// EWMA smoothing factor in (0, 1].
    alpha: f64,
    /// Initial uniform rate assumed before any observation.
    initial_rate: f64,
    /// Number of CPU workers (the CPU column aggregates all cores).
    cpu_workers: usize,
}

impl ThroughputMatrix {
    /// Creates a matrix with the given smoothing factor and CPU worker count.
    pub fn new(alpha: f64, cpu_workers: usize) -> Self {
        Self {
            entries: RwLock::new(HashMap::new()),
            alpha: alpha.clamp(0.01, 1.0),
            initial_rate: 100.0,
            cpu_workers: cpu_workers.max(1),
        }
    }

    /// Records one task execution of `query` on `processor` that took
    /// `duration`.
    pub fn record(&self, query: usize, processor: Processor, duration: Duration) {
        let rate = 1.0 / duration.as_secs_f64().max(1e-9);
        let mut entries = self.entries.write();
        let entry = entries
            .entry((query, processor))
            .or_insert(Entry { rate, samples: 0 });
        entry.rate = self.alpha * rate + (1.0 - self.alpha) * entry.rate;
        entry.samples += 1;
    }

    /// Drops the observations of one query (called when the query is
    /// removed, so matrix rows do not accumulate under query churn).
    pub fn forget_query(&self, query: usize) {
        self.entries.write().retain(|(q, _), _| *q != query);
    }

    /// The aggregate task throughput ρ(query, processor): the per-executor
    /// smoothed rate scaled by the processor's parallelism (all CPU cores vs.
    /// the single accelerator).
    pub fn value(&self, query: usize, processor: Processor) -> f64 {
        let per_executor = self
            .entries
            .read()
            .get(&(query, processor))
            .map(|e| e.rate)
            .unwrap_or(self.initial_rate);
        match processor {
            Processor::Cpu => per_executor * self.cpu_workers as f64,
            Processor::Gpu => per_executor,
        }
    }

    /// Number of observations recorded for `(query, processor)`.
    pub fn samples(&self, query: usize, processor: Processor) -> u64 {
        self.entries
            .read()
            .get(&(query, processor))
            .map(|e| e.samples)
            .unwrap_or(0)
    }

    /// The preferred processor for `query`: the column with the largest
    /// aggregate throughput (ties favour the CPU).
    pub fn preferred(&self, query: usize) -> Processor {
        if self.value(query, Processor::Gpu) > self.value(query, Processor::Cpu) {
            Processor::Gpu
        } else {
            Processor::Cpu
        }
    }
}

/// One placement snapshot for a live query, read from the matrix, the
/// query's `QueryStats` and the scheduler (see
/// [`Saber::placement`](crate::Saber::placement)).
#[derive(Debug, Clone, Copy)]
pub struct PlacementDecision {
    /// The query this decision is about.
    pub query: QueryId,
    /// Where the engine routes this query's tasks right now. On a hybrid
    /// engine this follows the throughput matrix; on a pinned engine it is
    /// the pinned processor.
    pub preferred: Processor,
    /// Observed aggregate CPU task throughput ρ(q, CPU) (tasks/s, all
    /// workers).
    pub cpu_rate: f64,
    /// Observed aggregate accelerator task throughput ρ(q, GPU) (tasks/s).
    pub gpu_rate: f64,
    /// Observations behind `cpu_rate` (0 means it is still the uniform
    /// assumption).
    pub cpu_samples: u64,
    /// Observations behind `gpu_rate` (0 means it is still the uniform
    /// assumption).
    pub gpu_samples: u64,
    /// Fraction of this query's executed tasks that actually ran on the
    /// accelerator.
    pub gpu_task_share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_initialisation_prefers_cpu() {
        let m = ThroughputMatrix::new(0.5, 4);
        // Uniform per-executor rates, but the CPU aggregates 4 workers.
        assert_eq!(m.preferred(0), Processor::Cpu);
        assert!(m.value(0, Processor::Cpu) > m.value(0, Processor::Gpu));
        assert_eq!(m.samples(0, Processor::Cpu), 0);
    }

    #[test]
    fn observations_update_the_preference() {
        let m = ThroughputMatrix::new(0.5, 2);
        // CPU tasks take 10 ms, accelerator tasks 1 ms.
        for _ in 0..10 {
            m.record(0, Processor::Cpu, Duration::from_millis(10));
            m.record(0, Processor::Gpu, Duration::from_millis(1));
        }
        assert!(m.value(0, Processor::Gpu) > m.value(0, Processor::Cpu));
        assert_eq!(m.preferred(0), Processor::Gpu);
        assert_eq!(m.samples(0, Processor::Gpu), 10);
    }

    #[test]
    fn queries_have_independent_rows() {
        let m = ThroughputMatrix::new(0.5, 1);
        m.record(0, Processor::Gpu, Duration::from_micros(100));
        m.record(1, Processor::Cpu, Duration::from_micros(100));
        assert_eq!(m.preferred(0), Processor::Gpu);
        assert_eq!(m.preferred(1), Processor::Cpu);
    }

    #[test]
    fn ewma_adapts_to_changing_durations() {
        let m = ThroughputMatrix::new(0.5, 1);
        for _ in 0..20 {
            m.record(0, Processor::Cpu, Duration::from_millis(1));
        }
        let fast = m.value(0, Processor::Cpu);
        // The query becomes much more expensive (e.g. selectivity surge).
        for _ in 0..20 {
            m.record(0, Processor::Cpu, Duration::from_millis(20));
        }
        let slow = m.value(0, Processor::Cpu);
        assert!(slow < fast / 5.0);
    }

    #[test]
    fn first_observation_replaces_the_uniform_assumption() {
        let m = ThroughputMatrix::new(0.25, 2);
        m.record(0, Processor::Gpu, Duration::from_millis(1));
        assert_eq!(m.value(0, Processor::Gpu), 1_000.0);
        m.record(0, Processor::Cpu, Duration::from_millis(4));
        // The CPU column aggregates both workers.
        assert_eq!(m.value(0, Processor::Cpu), 500.0);
    }

    #[test]
    fn forgetting_a_query_leaves_other_rows_intact() {
        let m = ThroughputMatrix::new(0.5, 1);
        m.record(0, Processor::Gpu, Duration::from_micros(10));
        m.record(1, Processor::Gpu, Duration::from_micros(10));
        m.forget_query(0);
        assert_eq!(m.preferred(0), Processor::Cpu);
        assert_eq!(m.samples(0, Processor::Gpu), 0);
        assert_eq!(m.preferred(1), Processor::Gpu);
    }
}
