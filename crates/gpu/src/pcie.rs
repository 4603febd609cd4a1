//! PCIe bus model.
//!
//! Data movement between host and device memory is the throughput limiter
//! the paper's pipelined data movement is designed around (§2.3, §5.2): a
//! DMA transfer costs a fixed latency (~10 µs) plus the transfer time at the
//! bus bandwidth (~8 GB/s effective for PCIe 3.0 ×16). [`PcieBus`] models
//! exactly that: every `movein`/`moveout` is charged
//! `latency + bytes / bandwidth`. The bus only counts; the caller decides
//! when the transfer completes — [`crate::GpuDevice::execute`] sleeps it,
//! [`crate::GpuPipeline`] books it on a link timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Configuration of the modeled PCIe link.
#[derive(Debug, Clone, Copy)]
pub struct PcieConfig {
    /// Effective bus bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-transfer DMA latency.
    pub dma_latency: Duration,
    /// Scale factor from modeled transfer time to the wall time a transfer
    /// occupies the link (1.0 = real time, 0.0 = count the transfer but
    /// take no time — used by unit tests).
    pub time_scale: f64,
}

impl Default for PcieConfig {
    fn default() -> Self {
        Self {
            // A deliberately laptop-scale link: the shape of the experiments
            // (transfer-bound simple kernels, compute-bound complex kernels)
            // is preserved, the absolute numbers are smaller than the paper's
            // PCIe 3.0 x16.
            bandwidth_bytes_per_sec: 4.0e9,
            dma_latency: Duration::from_micros(15),
            time_scale: 1.0,
        }
    }
}

impl PcieConfig {
    /// A configuration whose transfers take no time (tests).
    pub fn unpaced() -> Self {
        Self {
            time_scale: 0.0,
            ..Self::default()
        }
    }

    /// Modeled duration of a transfer of `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let seconds = bytes as f64 / self.bandwidth_bytes_per_sec;
        self.dma_latency + Duration::from_secs_f64(seconds)
    }
}

/// The bus's counters: every DMA transfer of the device is recorded here.
#[derive(Debug)]
pub struct PcieBus {
    config: PcieConfig,
    bytes_moved: AtomicU64,
    transfers: AtomicU64,
}

impl PcieBus {
    /// Creates a bus with the given configuration.
    pub fn new(config: PcieConfig) -> Self {
        Self {
            config,
            bytes_moved: AtomicU64::new(0),
            transfers: AtomicU64::new(0),
        }
    }

    /// The bus configuration.
    pub fn config(&self) -> &PcieConfig {
        &self.config
    }

    /// Records one DMA transfer of `bytes` and returns the wall time it
    /// occupies the link: the modeled duration scaled by `time_scale`.
    pub fn transfer(&self, bytes: usize) -> Duration {
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.bytes_moved.fetch_add(bytes as u64, Ordering::Relaxed);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.config
            .transfer_time(bytes)
            .mul_f64(self.config.time_scale)
    }

    /// Total bytes moved over the bus.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved.load(Ordering::Relaxed)
    }

    /// Total number of DMA transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_bandwidth() {
        let cfg = PcieConfig {
            bandwidth_bytes_per_sec: 1.0e9,
            dma_latency: Duration::from_micros(10),
            time_scale: 0.0,
        };
        let t = cfg.transfer_time(1_000_000);
        assert!((t.as_secs_f64() - 0.00101).abs() < 1e-6);
    }

    #[test]
    fn unpaced_bus_records_but_does_not_wait() {
        let bus = PcieBus::new(PcieConfig::unpaced());
        for _ in 0..100 {
            assert_eq!(bus.transfer(1 << 20), Duration::ZERO);
        }
        assert_eq!(bus.transfers(), 100);
        assert_eq!(bus.bytes_moved(), 100 << 20);
    }

    #[test]
    fn paced_bus_returns_the_scaled_wait() {
        let cfg = PcieConfig {
            time_scale: 2.0,
            ..PcieConfig::default()
        };
        let bus = PcieBus::new(cfg);
        let wait = bus.transfer(4096).as_secs_f64();
        assert!((wait - 2.0 * cfg.transfer_time(4096).as_secs_f64()).abs() < 1e-9);
    }
}
