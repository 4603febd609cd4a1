//! PCIe bus model.
//!
//! Data movement between host and device memory is the throughput limiter
//! the paper's pipelined data movement is designed around (§2.3, §5.2): a
//! DMA transfer costs a fixed latency (~10 µs) plus the transfer time at the
//! bus bandwidth (~8 GB/s effective for PCIe 3.0 ×16). [`PcieBus`] models
//! exactly that: every `movein`/`moveout` is charged
//! `latency + bytes / bandwidth`, and the charge is applied as real wall-time
//! pacing so the accelerator's end-to-end behaviour (including the point at
//! which it becomes PCIe-bound) is observable in experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Configuration of the modeled PCIe link.
#[derive(Debug, Clone, Copy)]
pub struct PcieConfig {
    /// Effective bus bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-transfer DMA latency.
    pub dma_latency: Duration,
    /// Scale factor applied to the modeled delay before pacing
    /// (1.0 = full pacing, 0.0 = account the time but do not wait — used by
    /// unit tests).
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
    /// A configuration that records modeled time but never sleeps (tests).
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

/// The shared PCIe bus: transfers from concurrent stage threads serialise on
/// the modeled link (matching a real bus) and statistics are recorded.
#[derive(Debug)]
pub struct PcieBus {
    config: PcieConfig,
    bytes_moved: AtomicU64,
    transfers: AtomicU64,
    busy_nanos: AtomicU64,
}

impl PcieBus {
    /// Creates a bus with the given configuration.
    pub fn new(config: PcieConfig) -> Self {
        Self {
            config,
            bytes_moved: AtomicU64::new(0),
            transfers: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// The bus configuration.
    pub fn config(&self) -> &PcieConfig {
        &self.config
    }

    /// Performs (and paces) one DMA transfer of `bytes`, returning the
    /// modeled transfer duration.
    pub fn transfer(&self, bytes: usize) -> Duration {
        let modeled = self.config.transfer_time(bytes);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.bytes_moved.fetch_add(bytes as u64, Ordering::Relaxed);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.transfers.fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: simulation-accounting counter, read only for reports.
        self.busy_nanos
            .fetch_add(modeled.as_nanos() as u64, Ordering::Relaxed);
        if self.config.time_scale > 0.0 {
            let wait = modeled.mul_f64(self.config.time_scale);
            pace(wait);
        }
        modeled
    }

    /// Total bytes moved over the bus.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved.load(Ordering::Relaxed)
    }

    /// Total number of DMA transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers.load(Ordering::Relaxed)
    }

    /// Accumulated modeled bus-busy time.
    pub fn busy_time(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }
}

/// Sleeps/spins for approximately `wait` (hybrid: `thread::sleep` for the
/// bulk, spin for the sub-250 µs tail to keep pacing accurate).
fn pace(wait: Duration) {
    let start = Instant::now();
    if wait > Duration::from_micros(500) {
        std::thread::sleep(wait - Duration::from_micros(250));
    }
    while start.elapsed() < wait {
        std::hint::spin_loop();
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
        let start = Instant::now();
        for _ in 0..100 {
            bus.transfer(1 << 20);
        }
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(bus.transfers(), 100);
        assert_eq!(bus.bytes_moved(), 100 << 20);
        assert!(bus.busy_time() > Duration::from_millis(1));
    }

    #[test]
    fn paced_bus_actually_waits() {
        let bus = PcieBus::new(PcieConfig {
            bandwidth_bytes_per_sec: 1.0e9,
            dma_latency: Duration::from_micros(200),
            time_scale: 1.0,
        });
        let start = Instant::now();
        bus.transfer(1_000_000); // ~1.2 ms modeled
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_micros(1000),
            "elapsed {elapsed:?}"
        );
    }
}
