//! Engine configuration.

use crate::dispatcher::ring_bytes;
use crate::engine::Saber;
use crate::scheduler::SchedulingPolicyKind;
use saber_gpu::device::DeviceConfig;
use saber_store::DurabilityConfig;
use saber_types::{Result, SaberError};

/// Which processors participate in query execution (used by the CPU-only /
/// GPGPU-only / hybrid comparisons of §6.2–§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// CPU worker threads only.
    CpuOnly,
    /// The accelerator only.
    GpuOnly,
    /// CPU workers and the accelerator together (the SABER default).
    Hybrid,
}

/// Engine configuration (paper §4, §6.1).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of CPU worker threads (the paper uses 15 workers on a 16-core
    /// host, keeping one core for dispatch).
    pub worker_threads: usize,
    /// Query task size φ in bytes (the paper's sweet spot is ~1 MB; see
    /// Fig. 12/13). It also sizes each plan's input rings: a ring holds
    /// only rows not yet cut into a task plus a join's lookback, so its
    /// capacity follows from φ, the row size and the lookback
    /// ([`crate::dispatcher::ring_capacity`]) — 4 MiB at φ = 1 MiB
    /// without a join.
    pub query_task_size: usize,
    /// Which processors to use.
    pub execution_mode: ExecutionMode,
    /// Scheduling policy (HLS by default).
    pub scheduling: SchedulingPolicyKind,
    /// Configuration of the simulated accelerator.
    pub device: DeviceConfig,
    /// Maximum number of queued tasks before ingest applies backpressure.
    pub max_queued_tasks: usize,
    /// Durability: when set, acknowledged ingests and catalog mutations are
    /// group-committed to a write-ahead log in the given directory and the
    /// engine checkpoints catalog snapshots (see `docs/persistence.md`).
    /// `None` (the default) keeps the engine fully in-memory. An engine
    /// over a directory with *existing* state must be built through
    /// [`Saber::recover`], not [`Saber::with_config`].
    pub durability: Option<DurabilityConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            worker_threads: (std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(8)
                .saturating_sub(5))
            .clamp(1, 15),
            query_task_size: 1 << 20,
            execution_mode: ExecutionMode::Hybrid,
            scheduling: SchedulingPolicyKind::default(),
            device: DeviceConfig::default(),
            max_queued_tasks: 256,
            durability: None,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.worker_threads == 0 && self.execution_mode == ExecutionMode::CpuOnly {
            return Err(SaberError::Config(
                "CPU-only mode needs at least one worker".into(),
            ));
        }
        if self.query_task_size == 0 || ring_bytes(self.query_task_size, 1, 0).is_none() {
            return Err(SaberError::Config(format!(
                "query task size {} must be positive and small enough to size an input ring",
                self.query_task_size
            )));
        }
        if self.max_queued_tasks == 0 {
            return Err(SaberError::Config(
                "max queued tasks must be positive".into(),
            ));
        }
        if let Some(durability) = &self.durability {
            durability.validate()?;
        }
        Ok(())
    }

    /// Number of CPU workers after applying the execution mode.
    pub fn effective_cpu_workers(&self) -> usize {
        match self.execution_mode {
            ExecutionMode::GpuOnly => 0,
            _ => self.worker_threads.max(1),
        }
    }

    /// Whether the accelerator worker is started.
    pub fn gpu_enabled(&self) -> bool {
        !matches!(self.execution_mode, ExecutionMode::CpuOnly)
    }
}

/// Fluent builder for [`Saber`] engines.
#[derive(Debug, Clone, Default)]
pub struct SaberBuilder {
    config: EngineConfig,
}

impl SaberBuilder {
    /// Starts from the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of CPU worker threads.
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.config.worker_threads = n;
        self
    }

    /// Sets the query task size φ in bytes.
    pub fn query_task_size(mut self, bytes: usize) -> Self {
        self.config.query_task_size = bytes;
        self
    }

    /// Sets the execution mode (CPU-only, GPGPU-only or hybrid).
    pub fn execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.config.execution_mode = mode;
        self
    }

    /// Sets the scheduling policy.
    pub fn scheduling(mut self, policy: SchedulingPolicyKind) -> Self {
        self.config.scheduling = policy;
        self
    }

    /// Sets the accelerator configuration.
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.config.device = device;
        self
    }

    /// Sets the maximum number of queued tasks before ingest blocks.
    pub fn max_queued_tasks(mut self, n: usize) -> Self {
        self.config.max_queued_tasks = n;
        self
    }

    /// Enables durability: acknowledged ingests and catalog mutations are
    /// group-committed to a write-ahead log under `durability.dir`, and the
    /// engine checkpoints catalog snapshots on the configured cadence (see
    /// `docs/persistence.md`). Build with [`Saber::recover`] instead when
    /// the directory already holds state from a previous run.
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.config.durability = Some(durability);
        self
    }

    /// Overrides the full configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Result<Saber> {
        Saber::with_config(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Processor;
    use std::collections::HashMap;

    #[test]
    fn default_config_is_valid() {
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = EngineConfig {
            query_task_size: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.query_task_size = usize::MAX / 2;
        assert!(c.validate().is_err());
        c.query_task_size = 1 << 20;
        c.max_queued_tasks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn execution_mode_controls_processors() {
        let mut c = EngineConfig {
            worker_threads: 8,
            execution_mode: ExecutionMode::GpuOnly,
            ..Default::default()
        };
        assert_eq!(c.effective_cpu_workers(), 0);
        assert!(c.gpu_enabled());
        c.execution_mode = ExecutionMode::CpuOnly;
        assert_eq!(c.effective_cpu_workers(), 8);
        assert!(!c.gpu_enabled());
        c.execution_mode = ExecutionMode::Hybrid;
        assert_eq!(c.effective_cpu_workers(), 8);
        assert!(c.gpu_enabled());
    }

    #[test]
    fn builder_accumulates_settings() {
        let b = SaberBuilder::new()
            .worker_threads(3)
            .query_task_size(128 * 1024)
            .execution_mode(ExecutionMode::CpuOnly)
            .scheduling(SchedulingPolicyKind::Static {
                assignment: HashMap::from([(0, Processor::Gpu)]),
            })
            .max_queued_tasks(16);
        let engine = b.build().unwrap();
        let c = engine.config();
        assert_eq!(c.worker_threads, 3);
        assert_eq!(c.query_task_size, 128 * 1024);
        assert_eq!(c.execution_mode, ExecutionMode::CpuOnly);
        assert_eq!(c.max_queued_tasks, 16);
        match &c.scheduling {
            SchedulingPolicyKind::Static { assignment } => {
                assert_eq!(assignment.get(&0), Some(&Processor::Gpu));
            }
            other => panic!("expected static policy, got {}", other.name()),
        }
    }
}
