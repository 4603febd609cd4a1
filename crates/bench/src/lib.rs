//! # saber-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! SABER evaluation (§6). Each `benches/figNN_*.rs` target is a standalone
//! harness (`harness = false`): it runs a scaled-down version of the paper's
//! parameter sweep, prints the same rows/series the paper reports and writes
//! a CSV under `target/experiments/`.
//!
//! Scale is controlled by two environment variables so that `cargo bench`
//! stays bounded on a laptop while allowing longer runs for better numbers:
//!
//! * `SABER_BENCH_SECS` — measurement seconds per configuration (default 0.4),
//! * `SABER_BENCH_WORKERS` — CPU worker threads (default: half the cores,
//!   capped at 8).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use saber_engine::{EngineConfig, ExecutionMode, QueryId, Saber, SchedulingPolicyKind, StreamId};
use saber_gpu::device::DeviceConfig;
use saber_query::Query;
use saber_types::{Result, RowBuffer};
use std::time::{Duration, Instant};

pub use saber_workloads::rates::Measurement;

/// Measurement duration per configuration.
pub fn measure_duration() -> Duration {
    let secs: f64 = std::env::var("SABER_BENCH_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.4);
    Duration::from_secs_f64(secs.clamp(0.05, 60.0))
}

/// Number of CPU worker threads used by the benchmarks.
pub fn bench_workers() -> usize {
    std::env::var("SABER_BENCH_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            (std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(8)
                / 2)
            .clamp(2, 8)
        })
}

/// Engine configuration used by the figure harnesses.
pub fn engine_config(mode: ExecutionMode, task_size: usize) -> EngineConfig {
    EngineConfig {
        worker_threads: bench_workers(),
        query_task_size: task_size,
        execution_mode: mode,
        scheduling: SchedulingPolicyKind::default(),
        device: DeviceConfig::default(),
        max_queued_tasks: 128,
        durability: None,
    }
}

/// The default query task size φ used unless a figure sweeps it (1 MB, the
/// paper's sweet spot).
pub const DEFAULT_TASK_SIZE: usize = 1 << 20;

/// Human-readable label of an execution mode, matching the paper's legends.
pub fn mode_label(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::CpuOnly => "Saber (CPU only)",
        ExecutionMode::GpuOnly => "Saber (GPGPU only)",
        ExecutionMode::Hybrid => "Saber",
    }
}

/// Runs a single-input query under `config`, replaying `data` for the bench
/// duration, and returns the measurement.
pub fn run_single(
    label: &str,
    config: EngineConfig,
    query: Query,
    data: &RowBuffer,
) -> Result<Measurement> {
    saber_workloads::rates::run_query_benchmark(
        label,
        config,
        query,
        data,
        16 * 1024,
        measure_duration(),
    )
}

/// Runs a two-input (join) query, alternating ingestion between the two
/// streams, and returns the measurement.
pub fn run_join(
    label: &str,
    config: EngineConfig,
    query: Query,
    left: &RowBuffer,
    right: &RowBuffer,
) -> Result<Measurement> {
    let mut engine = Saber::with_config(config)?;
    engine.add_query_with_options(query, false)?;
    engine.start()?;
    let duration = measure_duration();
    let chunk = 4 * 1024 * left.schema().row_size();
    let started = Instant::now();
    let mut offsets = [0usize; 2];
    let buffers = [left.bytes(), right.bytes()];
    let mut ingested = 0u64;
    while started.elapsed() < duration {
        for (s, buffer) in buffers.iter().enumerate() {
            let end = (offsets[s] + chunk).min(buffer.len());
            engine.ingest(QueryId(0), StreamId(s), &buffer[offsets[s]..end])?;
            ingested += (end - offsets[s]) as u64;
            offsets[s] = if end >= buffer.len() { 0 } else { end };
        }
    }
    engine.stop()?;
    let elapsed = started.elapsed();
    let stats = engine.query_stats(QueryId(0)).expect("query registered");
    let row_size = left.schema().row_size() as u64;
    Ok(Measurement {
        label: label.to_string(),
        tuples_per_second: (ingested / row_size) as f64 / elapsed.as_secs_f64(),
        bytes_per_second: ingested as f64 / elapsed.as_secs_f64(),
        avg_latency: stats.avg_latency(),
        tuples_out: stats.tuples_out.load(std::sync::atomic::Ordering::Relaxed),
        gpu_share: stats.gpu_share(),
        elapsed,
    })
}

/// A result table printed to stdout and written as CSV under
/// `target/experiments/`.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment identifier (e.g. `fig12_task_size`).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Prints the table and writes the CSV file. Returns the CSV path.
    pub fn finish(&self) -> std::path::PathBuf {
        println!("\n=== {} ===", self.title);
        println!("{}", self.headers.join("\t"));
        for row in &self.rows {
            println!("{}", row.join("\t"));
        }
        let dir = std::path::Path::new("target").join("experiments");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.csv", self.name));
        let mut csv = String::new();
        csv.push_str(&self.headers.join(","));
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let _ = std::fs::write(&path, csv);
        println!("[written {}]", path.display());
        path
    }
}

/// Formats a float with three significant decimals for report rows.
pub fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_writes_csv() {
        let mut r = Report::new("unit_test_report", "Unit test", &["a", "b"]);
        r.add_row(vec!["1".into(), "2".into()]);
        let path = r.finish();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("1,2"));
    }

    #[test]
    fn config_helpers_are_sane() {
        assert!(measure_duration() >= Duration::from_millis(50));
        assert!(bench_workers() >= 2);
        let c = engine_config(ExecutionMode::Hybrid, DEFAULT_TASK_SIZE);
        assert!(c.validate().is_ok());
        assert_eq!(mode_label(ExecutionMode::Hybrid), "Saber");
    }
}
