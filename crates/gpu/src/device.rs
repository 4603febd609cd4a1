//! The simulated accelerator device.
//!
//! [`GpuDevice`] owns what the accelerator models: a ledger of its global
//! memory, the paced PCIe bus and the statistics of both. A query task moves
//! through the five operations of the paper (Fig. 6): `copyin → movein →
//! execute → moveout → copyout`. The `execute` operation runs the CPU
//! worker's own function, [`CpuExecutor::execute`], so the device is one
//! more lane running the same operators; what differs is the data movement
//! around it. Each operation records its own time, so both paths below
//! account movement and kernel time the same way.
//!
//! [`GpuDevice::execute`] performs the five operations sequentially for one
//! task (the non-pipelined baseline); [`crate::pipeline::GpuPipeline`]
//! overlaps them across consecutive tasks, one stage thread each.

use crate::memory::DeviceMemory;
use crate::pcie::{PcieBus, PcieConfig};
use saber_cpu::exec::StreamBatch;
use saber_cpu::plan::CompiledPlan;
use saber_cpu::{CpuExecutor, TaskOutput};
use saber_types::{Result, SaberError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the simulated accelerator.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Device global memory capacity in bytes.
    pub global_memory_bytes: u64,
    /// PCIe bus model.
    pub pcie: PcieConfig,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            global_memory_bytes: 2 << 30,
            pcie: PcieConfig::default(),
        }
    }
}

impl DeviceConfig {
    /// A configuration without PCIe pacing (unit tests).
    pub fn unpaced() -> Self {
        Self {
            pcie: PcieConfig::unpaced(),
            ..Self::default()
        }
    }
}

/// Execution statistics of the device, written only by the device's own
/// operations, so each is counted once whichever path runs them.
#[derive(Debug, Default)]
pub struct GpuStats {
    /// Number of tasks whose kernels ran.
    tasks: AtomicU64,
    /// Nanoseconds spent in kernel execution.
    kernel_nanos: AtomicU64,
    /// Nanoseconds spent in data movement (copyin/movein/moveout/copyout).
    movement_nanos: AtomicU64,
}

impl GpuStats {
    /// Total kernel time.
    pub fn kernel_time(&self) -> Duration {
        Duration::from_nanos(self.kernel_nanos.load(Ordering::Relaxed))
    }

    /// Total data-movement time.
    pub fn movement_time(&self) -> Duration {
        Duration::from_nanos(self.movement_nanos.load(Ordering::Relaxed))
    }

    /// Number of tasks executed.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }
}

/// Adds the time since `started` to `counter`.
fn charge(counter: &AtomicU64, started: Instant) {
    // relaxed-ok: simulation-accounting counter, read only for reports.
    counter.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// The simulated accelerator.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    config: DeviceConfig,
    bus: Arc<PcieBus>,
    memory: Arc<DeviceMemory>,
    stats: Arc<GpuStats>,
}

impl GpuDevice {
    /// Creates a device from its configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let bus = Arc::new(PcieBus::new(config.pcie));
        let memory = Arc::new(DeviceMemory::new(config.global_memory_bytes));
        Self {
            config,
            bus,
            memory,
            stats: Arc::new(GpuStats::default()),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The PCIe bus model (shared with the pipeline stages).
    pub fn bus(&self) -> &Arc<PcieBus> {
        &self.bus
    }

    /// Device memory accounting.
    pub fn memory(&self) -> &Arc<DeviceMemory> {
        &self.memory
    }

    /// Execution statistics.
    pub fn stats(&self) -> &Arc<GpuStats> {
        &self.stats
    }

    /// Total input bytes of a task (all stream batches).
    pub fn task_bytes(batches: &[StreamBatch]) -> usize {
        batches.iter().map(|b| b.rows.byte_len()).sum()
    }

    /// Runs only the `execute` stage: the CPU worker's operator function on
    /// the calling thread.
    pub fn execute_kernels(
        &self,
        plan: &CompiledPlan,
        batches: &[StreamBatch],
    ) -> Result<TaskOutput> {
        if batches.is_empty() {
            return Err(SaberError::Device("task has no stream batches".into()));
        }
        let started = Instant::now();
        let output = CpuExecutor::new().execute(plan, batches);
        charge(&self.stats.kernel_nanos, started);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats.tasks.fetch_add(1, Ordering::Relaxed);
        output
    }

    /// Models the `copyin` stage: the batch bytes are copied from the engine
    /// heap into pinned host memory.
    pub fn copyin(&self, batches: &[StreamBatch]) -> Vec<u8> {
        let started = Instant::now();
        let mut pinned = Vec::with_capacity(Self::task_bytes(batches));
        for b in batches {
            pinned.extend_from_slice(b.rows.bytes());
        }
        charge(&self.stats.movement_nanos, started);
        pinned
    }

    /// Models the `movein` DMA transfer of `bytes` to device memory.
    pub fn movein(&self, bytes: usize) -> Result<Duration> {
        let started = Instant::now();
        self.memory.allocate(bytes as u64)?;
        let modeled = self.bus.transfer(bytes);
        charge(&self.stats.movement_nanos, started);
        Ok(modeled)
    }

    /// Models the `moveout` DMA transfer of `bytes` back to pinned memory and
    /// releases the device allocation of `input_bytes`.
    pub fn moveout(&self, bytes: usize, input_bytes: usize) -> Duration {
        let started = Instant::now();
        let modeled = self.bus.transfer(bytes.max(1));
        self.memory.free(input_bytes as u64);
        charge(&self.stats.movement_nanos, started);
        modeled
    }

    /// Models the `copyout` stage (pinned memory back to the engine heap).
    pub fn copyout(&self, output: &TaskOutput) -> usize {
        let started = Instant::now();
        let copied = match output {
            // The copy itself: clone the output bytes once.
            TaskOutput::Rows(rows) => rows.bytes().to_vec().len(),
            TaskOutput::Fragments { .. } => 0,
        };
        charge(&self.stats.movement_nanos, started);
        copied
    }

    /// Executes one query task through all five data-movement operations
    /// sequentially (the non-pipelined path).
    pub fn execute(&self, plan: &CompiledPlan, batches: &[StreamBatch]) -> Result<TaskOutput> {
        let input_bytes = self.copyin(batches).len();
        self.movein(input_bytes)?;
        let output = self.execute_kernels(plan, batches);
        let out_bytes = output.as_ref().map_or(0, TaskOutput::byte_len);
        self.moveout(out_bytes, input_bytes);
        let output = output?;
        self.copyout(&output);
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{AggregateFunction, Expr, QueryBuilder};
    use saber_types::{DataType, RowBuffer, Schema, Value};

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
                Value::Int((i % 3) as i32),
            ])
            .unwrap();
        }
        StreamBatch::new(rows, 0, 0)
    }

    #[test]
    fn device_selection_matches_cpu_executor() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(64, 64)
            .select(Expr::column(2).eq(Expr::literal(1.0)))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let b = batch(4096);
        let device = GpuDevice::new(DeviceConfig::unpaced());
        let gpu = device.execute(&plan, std::slice::from_ref(&b)).unwrap();
        let cpu = saber_cpu::CpuExecutor::new()
            .execute(&plan, std::slice::from_ref(&b))
            .unwrap();
        match (cpu, gpu) {
            (TaskOutput::Rows(c), TaskOutput::Rows(g)) => assert_eq!(c.bytes(), g.bytes()),
            _ => panic!(),
        }
        assert_eq!(device.stats().tasks_executed(), 1);
        assert!(device.bus().transfers() >= 2);
        assert_eq!(device.memory().allocated(), 0);
    }

    #[test]
    fn device_aggregation_produces_fragments() {
        let q = QueryBuilder::new("agg", schema())
            .count_window(64, 64)
            .aggregate(AggregateFunction::Sum, 1)
            .group_by(vec![2])
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let b = batch(512);
        let device = GpuDevice::new(DeviceConfig::unpaced());
        match device.execute(&plan, std::slice::from_ref(&b)).unwrap() {
            TaskOutput::Fragments { panes, progress } => {
                assert_eq!(progress, 512);
                assert_eq!(panes.len(), 8);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn empty_batch_is_handled() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let device = GpuDevice::new(DeviceConfig::unpaced());
        let out = device.execute(&plan, &[batch(0)]).unwrap();
        assert_eq!(out.row_count(), 0);
    }

    #[test]
    fn missing_batches_is_an_error() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let device = GpuDevice::new(DeviceConfig::unpaced());
        assert!(device.execute(&plan, &[]).is_err());
    }
}
