//! Analytical cost model of the paper-scale device.
//!
//! The evaluation host of the paper pairs a 16-core Xeon E5-2640 v3 with an
//! NVIDIA Quadro K5200 (2,304 cores) over PCIe 3.0 ×16. Because this
//! reproduction simulates the accelerator, the benchmark harness reports,
//! next to the measured numbers, the *modeled* execution time a task would
//! take on the paper's hardware. The model is deliberately simple — a
//! roofline over compute throughput, memory bandwidth and PCIe transfers —
//! but captures the qualitative behaviour the paper discusses in §6.3
//! (simple operators are transfer-bound, compute-heavy operators gain from
//! the accelerator).

use crate::pcie::PcieConfig;
use std::time::Duration;

/// Analytical description of a processor for the roofline model.
#[derive(Debug, Clone, Copy)]
pub struct ProcessorModel {
    /// Number of hardware execution lanes (cores × SIMD width equivalents).
    pub lanes: f64,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
    /// Sustainable operations per lane per cycle.
    pub ops_per_cycle: f64,
    /// Memory bandwidth in bytes per second.
    pub memory_bandwidth: f64,
}

impl ProcessorModel {
    /// The paper's GPGPU: NVIDIA Quadro K5200 (2,304 cores @ ~0.65 GHz,
    /// ~192 GB/s memory bandwidth).
    pub fn quadro_k5200() -> Self {
        Self {
            lanes: 2304.0,
            clock_ghz: 0.65,
            ops_per_cycle: 1.0,
            memory_bandwidth: 192.0e9,
        }
    }

    /// The paper's CPU: 2 × Intel Xeon E5-2640 v3 (16 cores @ 2.6 GHz,
    /// ~59 GB/s per socket). One modeled operation per cycle per core: the
    /// columnar kernels evaluate each expression node as its own pass over
    /// the gathered columns, so the effective per-tuple operation cost stays
    /// far from peak ILP.
    pub fn xeon_e5_2640() -> Self {
        Self {
            lanes: 16.0,
            clock_ghz: 2.6,
            ops_per_cycle: 1.0,
            memory_bandwidth: 118.0e9,
        }
    }

    /// Time to execute a task of `tuples` tuples of `tuple_bytes` bytes with
    /// `ops_per_tuple` primitive operations each: a roofline of compute and
    /// memory traffic.
    pub fn task_time(&self, tuples: u64, tuple_bytes: usize, ops_per_tuple: usize) -> Duration {
        let total_ops = tuples as f64 * ops_per_tuple as f64;
        let compute = total_ops / (self.lanes * self.clock_ghz * 1e9 * self.ops_per_cycle);
        let bytes = tuples as f64 * tuple_bytes as f64;
        let memory = bytes / self.memory_bandwidth;
        Duration::from_secs_f64(compute.max(memory))
    }
}

/// Modeled comparison of a query task on the paper's CPU and GPGPU.
#[derive(Debug, Clone, Copy)]
pub struct ModeledComparison {
    /// Modeled CPU execution time.
    pub cpu: Duration,
    /// Modeled GPGPU kernel time.
    pub gpu_kernel: Duration,
    /// Modeled PCIe transfer time (in + out).
    pub gpu_transfer: Duration,
    /// Modeled end-to-end GPGPU time assuming pipelined transfers
    /// (`max(kernel, transfer)`).
    pub gpu_pipelined: Duration,
    /// Modeled end-to-end GPGPU time with sequential transfers.
    pub gpu_sequential: Duration,
}

impl ModeledComparison {
    /// CPU-time / pipelined-GPGPU-time: >1 means the accelerator is the
    /// preferred processor for this task shape.
    pub fn speedup(&self) -> f64 {
        self.cpu.as_secs_f64() / self.gpu_pipelined.as_secs_f64().max(1e-12)
    }
}

/// The paper-scale cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// CPU model.
    pub cpu: ProcessorModel,
    /// GPGPU model.
    pub gpu: ProcessorModel,
    /// PCIe link model.
    pub pcie: PcieConfig,
    /// Fraction of task output bytes relative to input (selectivity proxy).
    pub output_ratio: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cpu: ProcessorModel::xeon_e5_2640(),
            gpu: ProcessorModel::quadro_k5200(),
            pcie: PcieConfig::paper_scale(),
            output_ratio: 1.0,
        }
    }
}

impl CostModel {
    /// Models a query task of `tuples` tuples (each `tuple_bytes` bytes) with
    /// `ops_per_tuple` operations per tuple.
    pub fn compare(
        &self,
        tuples: u64,
        tuple_bytes: usize,
        ops_per_tuple: usize,
    ) -> ModeledComparison {
        let cpu = self.cpu.task_time(tuples, tuple_bytes, ops_per_tuple);
        let gpu_kernel = self.gpu.task_time(tuples, tuple_bytes, ops_per_tuple);
        let in_bytes = tuples as usize * tuple_bytes;
        let out_bytes = (in_bytes as f64 * self.output_ratio) as usize;
        let gpu_transfer = self.pcie.transfer_time(in_bytes) + self.pcie.transfer_time(out_bytes);
        let gpu_pipelined =
            Duration::from_secs_f64(gpu_kernel.as_secs_f64().max(gpu_transfer.as_secs_f64()));
        let gpu_sequential = gpu_kernel + gpu_transfer;
        ModeledComparison {
            cpu,
            gpu_kernel,
            gpu_transfer,
            gpu_pipelined,
            gpu_sequential,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_operators_are_transfer_bound_on_the_gpu() {
        // A 1 MB task of 32-byte tuples with 2 ops/tuple (a trivial
        // selection): the CPU should win because PCIe transfers dominate.
        let model = CostModel::default();
        let cmp = model.compare(32 * 1024, 32, 2);
        assert!(cmp.gpu_transfer > cmp.gpu_kernel);
        assert!(cmp.speedup() < 1.5, "speedup {}", cmp.speedup());
    }

    #[test]
    fn compute_heavy_operators_prefer_the_gpu() {
        // ~1500 ops per tuple (PROJ6* with 100 arithmetic expressions per
        // attribute): the accelerator's parallelism should win.
        let model = CostModel::default();
        let cmp = model.compare(32 * 1024, 32, 1500);
        assert!(cmp.speedup() > 2.0, "speedup {}", cmp.speedup());
    }

    #[test]
    fn pipelining_hides_transfer_cost() {
        let model = CostModel::default();
        let cmp = model.compare(32 * 1024, 32, 64);
        assert!(cmp.gpu_pipelined <= cmp.gpu_sequential);
    }

    #[test]
    fn larger_tasks_amortise_dma_latency() {
        let model = CostModel::default();
        let small = model.compare(1024, 32, 16);
        let large = model.compare(128 * 1024, 32, 16);
        let small_per_tuple = small.gpu_pipelined.as_secs_f64() / 1024.0;
        let large_per_tuple = large.gpu_pipelined.as_secs_f64() / (128.0 * 1024.0);
        assert!(large_per_tuple < small_per_tuple);
    }
}
