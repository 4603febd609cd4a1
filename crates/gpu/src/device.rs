//! The simulated accelerator device.
//!
//! [`GpuDevice`] owns what the accelerator models: a ledger of its global
//! memory, the PCIe bus and the statistics of both. A query task reserves
//! device memory, moves its input in over the bus (`movein`), runs the CPU
//! worker's own function, [`CpuExecutor::execute`] (`execute`), and moves
//! its output back (`moveout`), which frees the reservation. The task's
//! batches, already a buffer of their own, are the pinned host copy the
//! paper's `copyin`/`copyout` make (Fig. 6), so those two steps cost
//! nothing here. The device is one more lane running the same operators;
//! what differs is the data movement around them.
//!
//! [`GpuDevice::execute`] performs these steps sequentially for one task and
//! sleeps through its transfers (the non-pipelined baseline);
//! [`crate::pipeline::GpuPipeline`] overlaps them across consecutive tasks
//! on a timeline of the link.

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
    /// Nanoseconds of link time charged to `movein`/`moveout` transfers.
    movement_nanos: AtomicU64,
}

impl GpuStats {
    /// Total kernel time.
    pub fn kernel_time(&self) -> Duration {
        Duration::from_nanos(self.kernel_nanos.load(Ordering::Relaxed))
    }

    /// Total data-movement time: the modeled transfer time, scaled by the
    /// link's `time_scale`, of every `movein` and `moveout`.
    pub fn movement_time(&self) -> Duration {
        Duration::from_nanos(self.movement_nanos.load(Ordering::Relaxed))
    }

    /// Number of tasks executed.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }
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

    /// The PCIe bus model.
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

    /// Runs only the `execute` step: the CPU worker's operator function on
    /// the calling thread.
    pub(crate) fn execute_kernels(
        &self,
        plan: &CompiledPlan,
        batches: &[StreamBatch],
    ) -> Result<TaskOutput> {
        if batches.is_empty() {
            return Err(SaberError::Device("task has no stream batches".into()));
        }
        let started = Instant::now();
        let output = CpuExecutor::new().execute(plan, batches);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats
            .kernel_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats.tasks.fetch_add(1, Ordering::Relaxed);
        output
    }

    /// Records one DMA transfer of `bytes` on the bus and charges it to
    /// the movement time; returns the wall time it occupies the link.
    pub(crate) fn transfer(&self, bytes: usize) -> Duration {
        let wait = self.bus.transfer(bytes);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats
            .movement_nanos
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        wait
    }

    /// Executes one query task: `movein`, `execute` and `moveout` one after
    /// the other, sleeping through each transfer (the non-pipelined path).
    pub fn execute(&self, plan: &CompiledPlan, batches: &[StreamBatch]) -> Result<TaskOutput> {
        let input_bytes = Self::task_bytes(batches);
        self.memory.allocate(input_bytes as u64)?;
        std::thread::sleep(self.transfer(input_bytes));
        let output = self.execute_kernels(plan, batches);
        let out_bytes = output.as_ref().map_or(0, TaskOutput::byte_len);
        std::thread::sleep(self.transfer(out_bytes.max(1)));
        self.memory.free(input_bytes as u64);
        output
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
    fn a_paced_device_sleeps_its_transfers() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(64, 64)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let latency = Duration::from_millis(2);
        let device = GpuDevice::new(DeviceConfig {
            pcie: PcieConfig {
                dma_latency: latency,
                ..PcieConfig::default()
            },
            ..DeviceConfig::default()
        });
        let started = Instant::now();
        device.execute(&plan, &[batch(64)]).unwrap();
        assert!(started.elapsed() >= latency * 2);
        assert_eq!(device.bus().transfers(), 2);
        assert!(device.stats().movement_time() >= latency * 2);
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
