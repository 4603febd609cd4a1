//! The simulated accelerator device.
//!
//! [`GpuDevice`] owns the accelerator's resources — its executor thread pool
//! (standing in for the device's streaming multiprocessors), the PCIe bus
//! model and the device/pinned memory accounting — and executes query tasks
//! by moving their data through the five data-movement operations of the
//! paper (Fig. 6): `copyin → movein → execute → moveout → copyout`.
//!
//! [`GpuDevice::execute`] performs the five operations sequentially for one
//! task (the non-pipelined baseline); [`crate::pipeline::GpuPipeline`]
//! overlaps them across consecutive tasks.

use crate::kernels::{merge_work_group, run_work_group};
use crate::memory::DeviceMemory;
use crate::pcie::{PcieBus, PcieConfig};
use saber_cpu::exec::StreamBatch;
use saber_cpu::plan::CompiledPlan;
use saber_cpu::TaskOutput;
use saber_types::{Result, SaberError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the simulated accelerator.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Human-readable device name (reports only).
    pub name: String,
    /// Number of host threads that emulate the device's streaming
    /// multiprocessors: a task's rows split into this many work groups (the
    /// intra-task parallelism of the `execute` stage).
    pub executor_threads: usize,
    /// Device global memory capacity in bytes.
    pub global_memory_bytes: u64,
    /// PCIe bus model.
    pub pcie: PcieConfig,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            name: "sim-accelerator".to_string(),
            executor_threads: 4,
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

/// Execution statistics of the device.
#[derive(Debug, Default)]
pub struct GpuStats {
    /// Number of tasks executed.
    pub tasks: AtomicU64,
    /// Input bytes processed.
    pub bytes_in: AtomicU64,
    /// Output bytes produced.
    pub bytes_out: AtomicU64,
    /// Nanoseconds spent in kernel execution.
    pub kernel_nanos: AtomicU64,
    /// Nanoseconds spent in data movement (copyin/movein/moveout/copyout).
    pub movement_nanos: AtomicU64,
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

    /// Runs only the `execute` stage: the task's kernels across the device's
    /// work groups, in parallel over the executor threads.
    pub fn execute_kernels(
        &self,
        plan: &CompiledPlan,
        batches: &[StreamBatch],
    ) -> Result<TaskOutput> {
        if batches.is_empty() {
            return Err(SaberError::Device("task has no stream batches".into()));
        }
        let started = Instant::now();
        let probe_rows = batches[0].new_rows();
        let chunk = probe_rows
            .div_ceil(self.config.executor_threads.max(1))
            .max(1);
        // One work group per executor thread; a task without new rows still
        // runs one (empty) group, which yields the task's progress.
        let ranges = (0..probe_rows.max(1))
            .step_by(chunk)
            .map(|s| s..(s + chunk).min(probe_rows));
        let groups: Vec<Result<TaskOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .enumerate()
                .map(|(idx, range)| {
                    scope.spawn(move || run_work_group(plan, batches, range, idx == 0))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(SaberError::Device("kernel thread panicked".into()))
                    })
                })
                .collect()
        });
        let mut groups = groups.into_iter();
        let mut output = groups
            .next()
            .expect("a task runs at least one work group")?;
        for group in groups {
            merge_work_group(&mut output, group?)?;
        }

        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats
            .kernel_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(output)
    }

    /// Models the `copyin` stage: the batch bytes are copied from the engine
    /// heap into pinned host memory.
    pub fn copyin(&self, batches: &[StreamBatch]) -> Vec<u8> {
        let total = Self::task_bytes(batches);
        let mut pinned = Vec::with_capacity(total);
        for b in batches {
            pinned.extend_from_slice(b.rows.bytes());
        }
        pinned
    }

    /// Models the `movein` DMA transfer of `bytes` to device memory.
    pub fn movein(&self, bytes: usize) -> Result<Duration> {
        self.memory.allocate(bytes as u64)?;
        Ok(self.bus.transfer(bytes))
    }

    /// Models the `moveout` DMA transfer of `bytes` back to pinned memory and
    /// releases the device allocation of `input_bytes`.
    pub fn moveout(&self, bytes: usize, input_bytes: usize) -> Duration {
        let d = self.bus.transfer(bytes.max(1));
        self.memory.free(input_bytes as u64);
        d
    }

    /// Models the `copyout` stage (pinned memory back to the engine heap).
    pub fn copyout(&self, output: &TaskOutput) -> usize {
        match output {
            TaskOutput::Rows(rows) => {
                // The copy itself: clone the output bytes once.
                let copied = rows.bytes().to_vec();
                copied.len()
            }
            TaskOutput::Fragments { .. } => 0,
        }
    }

    /// Executes one query task through all five data-movement operations
    /// sequentially (the non-pipelined path).
    pub fn execute(&self, plan: &CompiledPlan, batches: &[StreamBatch]) -> Result<TaskOutput> {
        let movement_started = Instant::now();
        let pinned = self.copyin(batches);
        let input_bytes = pinned.len();
        self.movein(input_bytes)?;
        let movement_before_kernel = movement_started.elapsed();

        let output = self.execute_kernels(plan, batches);

        let after_kernel = Instant::now();
        let out_bytes = output.as_ref().map_or(0, TaskOutput::byte_len);
        self.moveout(out_bytes, input_bytes);
        let output = output?;
        self.copyout(&output);
        let movement_after_kernel = after_kernel.elapsed();

        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats.tasks.fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats
            .bytes_in
            .fetch_add(input_bytes as u64, Ordering::Relaxed);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats
            .bytes_out
            .fetch_add(out_bytes as u64, Ordering::Relaxed);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.stats.movement_nanos.fetch_add(
            (movement_before_kernel + movement_after_kernel).as_nanos() as u64,
            Ordering::Relaxed,
        );
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
