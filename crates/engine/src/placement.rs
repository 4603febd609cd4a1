//! Hybrid CPU/accelerator placement (paper §4.2 + §6 "fig. 8/15/16").
//!
//! SABER's scheduler already *observes* per-query task throughput in the
//! [`ThroughputMatrix`] and lets HLS steer tasks to whichever processor is
//! faster. What was missing — and what the figure harnesses used to
//! re-derive by hand — is the connective tissue between the analytical
//! roofline model in `saber_gpu::costmodel` and the live engine:
//!
//! 1. When a query is registered on a **hybrid** engine, [`PlacementMap`]
//!    models its task time on both processors (from the plan's tuple width
//!    and pipeline cost) and *seeds* the throughput matrix with those rates.
//!    The scheduler therefore starts from an informed prior instead of the
//!    uniform assumption, and the first measured task smooths from it —
//!    exactly the paper's "the matrix converges to observed rates" story,
//!    minus the cold-start misplacements.
//! 2. At any time, [`Saber::placement`](crate::Saber::placement) snapshots a
//!    [`PlacementDecision`] for a query: the preferred processor right now,
//!    the observed aggregate rates, how many observations back them, the
//!    modeled speed-up, and the realized GPU task share. The fig. 8/15/16
//!    harnesses consume this decision instead of duplicating the derivation.
//!
//! Seeding is **hybrid-only**: in `CpuOnly`/`GpuOnly` modes the scheduler is
//! pinned to a single processor, so planting modeled rates for the other
//! column would only distort the reported matrix.

use crate::config::ExecutionMode;
use crate::ids::QueryId;
use crate::metrics::QueryStats;
use crate::scheduler::Processor;
use crate::throughput::ThroughputMatrix;
use saber_cpu::CompiledPlan;
use saber_gpu::costmodel::{CostModel, ModeledComparison};
use saber_types::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One placement snapshot for a live query. All observed quantities come
/// from the engine's [`ThroughputMatrix`] and [`QueryStats`]; the modeled
/// speed-up is the roofline prior computed at registration time.
#[derive(Debug, Clone, Copy)]
pub struct PlacementDecision {
    /// The query this decision is about.
    pub query: QueryId,
    /// Where the engine routes this query's tasks right now. On a hybrid
    /// engine this follows the throughput matrix; on a pinned engine it is
    /// the pinned processor.
    pub preferred: Processor,
    /// The cost model's CPU-time / GPU-time ratio for one task of this
    /// query (>1 means the accelerator is modeled faster).
    pub modeled_speedup: f64,
    /// Observed aggregate CPU task throughput ρ(q, CPU) (tasks/s, all
    /// workers).
    pub cpu_rate: f64,
    /// Observed aggregate accelerator task throughput ρ(q, GPU) (tasks/s).
    pub gpu_rate: f64,
    /// Observations behind `cpu_rate` (0 means it is still the prior).
    pub cpu_samples: u64,
    /// Observations behind `gpu_rate` (0 means it is still the prior).
    pub gpu_samples: u64,
    /// Fraction of this query's executed tasks that actually ran on the
    /// accelerator.
    pub gpu_task_share: f64,
}

/// The engine's placement layer: cost-model priors per query plus the
/// matrix/mode needed to read a routing decision back out.
#[derive(Debug)]
pub struct PlacementMap {
    matrix: Arc<ThroughputMatrix>,
    mode: ExecutionMode,
    model: CostModel,
    priors: RwLock<HashMap<usize, ModeledComparison>>,
}

impl PlacementMap {
    /// Creates the placement layer over the engine's throughput matrix.
    pub fn new(matrix: Arc<ThroughputMatrix>, mode: ExecutionMode) -> Self {
        Self {
            matrix,
            mode,
            model: CostModel::default(),
            priors: RwLock::new(HashMap::new()),
        }
    }

    /// Models one query task of the freshly compiled `plan` and, on a
    /// hybrid engine, seeds the throughput matrix with the modeled rates.
    /// Called by `install_plan` once per registration.
    pub fn register(&self, id: usize, plan: &CompiledPlan, task_size: usize) {
        let tuple_bytes = plan
            .input_schemas()
            .first()
            .map(|s| s.row_size())
            .unwrap_or(1)
            .max(1);
        let tuples = (task_size / tuple_bytes).max(1) as u64;
        let cmp = self
            .model
            .compare(tuples, tuple_bytes, plan.pipeline_cost().max(1));
        if self.mode == ExecutionMode::Hybrid {
            // The matrix stores *per-executor* rates and scales the CPU
            // column by the worker count, so divide the modeled aggregate
            // CPU rate back down.
            let cpu_rate =
                (1.0 / cmp.cpu.as_secs_f64().max(1e-12)) / self.matrix.cpu_workers() as f64;
            let gpu_rate = 1.0 / cmp.gpu_pipelined.as_secs_f64().max(1e-12);
            self.matrix.seed(id, Processor::Cpu, cpu_rate);
            self.matrix.seed(id, Processor::Gpu, gpu_rate);
        }
        self.priors.write().insert(id, cmp);
    }

    /// Drops the prior of a removed query (matrix rows are forgotten by the
    /// removal path itself).
    pub fn forget(&self, id: usize) {
        self.priors.write().remove(&id);
    }

    /// The modeled task-time comparison recorded for `id` at registration.
    pub fn prior(&self, id: usize) -> Option<ModeledComparison> {
        self.priors.read().get(&id).copied()
    }

    /// Snapshots the current routing decision for one registered query.
    /// Returns `None` for queries this map has never seen.
    pub fn decision(
        &self,
        query: QueryId,
        stats: Option<&QueryStats>,
    ) -> Option<PlacementDecision> {
        let id = query.index();
        let prior = self.prior(id)?;
        let preferred = match self.mode {
            ExecutionMode::CpuOnly => Processor::Cpu,
            ExecutionMode::GpuOnly => Processor::Gpu,
            ExecutionMode::Hybrid => self.matrix.preferred(id),
        };
        Some(PlacementDecision {
            query,
            preferred,
            modeled_speedup: prior.speedup(),
            cpu_rate: self.matrix.value(id, Processor::Cpu),
            gpu_rate: self.matrix.value(id, Processor::Gpu),
            cpu_samples: self.matrix.samples(id, Processor::Cpu),
            gpu_samples: self.matrix.samples(id, Processor::Gpu),
            gpu_task_share: stats.map(|s| s.gpu_share()).unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, Schema};
    use std::time::Duration;

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
        ])
        .unwrap()
        .into_ref()
    }

    fn plan() -> CompiledPlan {
        let q = QueryBuilder::new("p", schema())
            .count_window(64, 64)
            .select(Expr::column(1).gt(Expr::literal(0.5)))
            .build()
            .unwrap();
        CompiledPlan::compile(&q).unwrap()
    }

    #[test]
    fn hybrid_registration_seeds_modeled_rates() {
        let matrix = Arc::new(ThroughputMatrix::new(0.5, 4));
        let map = PlacementMap::new(matrix.clone(), ExecutionMode::Hybrid);
        map.register(0, &plan(), 64 * 1024);
        // Seeds count as priors, not observations.
        assert_eq!(matrix.samples(0, Processor::Cpu), 0);
        assert_eq!(matrix.samples(0, Processor::Gpu), 0);
        let d = map.decision(QueryId(0), None).unwrap();
        assert!(d.modeled_speedup > 0.0);
        assert!(d.cpu_rate > 0.0 && d.gpu_rate > 0.0);
        // The aggregate rates reflect the model, not the uniform 100/s
        // assumption (the modeled ratio matches the prior's speed-up).
        let ratio = d.gpu_rate / d.cpu_rate;
        assert!(
            (ratio - d.modeled_speedup).abs() / d.modeled_speedup < 1e-6,
            "seeded rate ratio {ratio} should match modeled speedup {}",
            d.modeled_speedup
        );
    }

    #[test]
    fn pinned_modes_do_not_seed_and_pin_the_preference() {
        let matrix = Arc::new(ThroughputMatrix::new(0.5, 4));
        let map = PlacementMap::new(matrix.clone(), ExecutionMode::GpuOnly);
        map.register(0, &plan(), 64 * 1024);
        // No seeds: the matrix still reports the uniform assumption.
        assert_eq!(matrix.value(0, Processor::Gpu), 100.0);
        let d = map.decision(QueryId(0), None).unwrap();
        assert_eq!(d.preferred, Processor::Gpu);

        let cpu_map = PlacementMap::new(matrix.clone(), ExecutionMode::CpuOnly);
        cpu_map.register(1, &plan(), 64 * 1024);
        assert_eq!(
            cpu_map.decision(QueryId(1), None).unwrap().preferred,
            Processor::Cpu
        );
    }

    #[test]
    fn observations_override_the_seeded_prior() {
        let matrix = Arc::new(ThroughputMatrix::new(0.9, 1));
        let map = PlacementMap::new(matrix.clone(), ExecutionMode::Hybrid);
        map.register(0, &plan(), 64 * 1024);
        // The model keeps this PCIe-latency-bound scan on the CPU...
        assert_eq!(
            map.decision(QueryId(0), None).unwrap().preferred,
            Processor::Cpu
        );
        // ...but measurements say the accelerator is much faster: the
        // decision flips with the observations.
        for _ in 0..20 {
            matrix.record(0, Processor::Cpu, Duration::from_millis(50));
            matrix.record(0, Processor::Gpu, Duration::from_micros(10));
        }
        let d = map.decision(QueryId(0), None).unwrap();
        assert_eq!(d.preferred, Processor::Gpu);
        assert_eq!(d.cpu_samples, 20);
        assert_eq!(d.gpu_samples, 20);
    }

    #[test]
    fn forget_drops_the_prior() {
        let matrix = Arc::new(ThroughputMatrix::new(0.5, 1));
        let map = PlacementMap::new(matrix, ExecutionMode::Hybrid);
        map.register(3, &plan(), 4096);
        assert!(map.decision(QueryId(3), None).is_some());
        map.forget(3);
        assert!(map.decision(QueryId(3), None).is_none());
        assert!(map.prior(3).is_none());
    }

    #[test]
    fn decision_reports_the_realized_gpu_share() {
        let matrix = Arc::new(ThroughputMatrix::new(0.5, 1));
        let map = PlacementMap::new(matrix, ExecutionMode::Hybrid);
        map.register(0, &plan(), 4096);
        let stats = QueryStats::default();
        stats.record_task(Processor::Cpu);
        stats.record_task(Processor::Gpu);
        let d = map.decision(QueryId(0), Some(&stats)).unwrap();
        assert!((d.gpu_task_share - 0.5).abs() < 1e-9);
    }
}
