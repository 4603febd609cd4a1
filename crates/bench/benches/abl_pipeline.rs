//! Ablation: pipelined vs sequential stream data movement (§5.2).
//!
//! The same batch of accelerator tasks is executed (i) strictly sequentially
//! (movein → execute → moveout per task) and (ii) through the pipeline,
//! which overlaps each task's transfers with its neighbours' execution; the
//! pipeline should hide most of the transfer time.

use saber_bench::{fmt, Report};
use saber_cpu::exec::StreamBatch;
use saber_cpu::plan::CompiledPlan;
use saber_gpu::device::{DeviceConfig, GpuDevice};
use saber_gpu::pipeline::{run_pipelined, run_sequential, PipelineJob};
use saber_workloads::synthetic;
use std::sync::Arc;
use std::time::Instant;

fn jobs(plan: &Arc<CompiledPlan>, tasks: usize, rows_per_task: usize) -> Vec<PipelineJob> {
    let schema = synthetic::schema();
    (0..tasks)
        .map(|t| {
            let rows = synthetic::generate_from(
                &schema,
                rows_per_task,
                t as u64,
                (t * rows_per_task) as i64,
            );
            PipelineJob {
                plan: plan.clone(),
                batches: vec![StreamBatch::new(rows, (t * rows_per_task) as u64, 0)],
            }
        })
        .collect()
}

fn main() {
    let w = synthetic::window_bytes(32 * 1024, 32 * 1024);
    let query = synthetic::select(8, w);
    let plan = Arc::new(CompiledPlan::compile(&query).expect("plan"));
    let tasks = 32usize;
    let rows_per_task = 32 * 1024; // 1 MB tasks

    let mut report = Report::new(
        "abl_pipeline",
        "Ablation — pipelined vs sequential data movement on the accelerator",
        &["configuration", "tasks", "elapsed_ms", "gb_per_s"],
    );
    let bytes_total = (tasks * rows_per_task * synthetic::TUPLE_SIZE) as f64;

    let device = Arc::new(GpuDevice::new(DeviceConfig::default()));
    let batch = jobs(&plan, tasks, rows_per_task);
    let started = Instant::now();
    let results = run_sequential(&device, batch);
    let seq_elapsed = started.elapsed();
    assert_eq!(results.len(), tasks);
    report.add_row(vec![
        "sequential (no pipelining)".into(),
        tasks.to_string(),
        fmt(seq_elapsed.as_secs_f64() * 1000.0),
        fmt(bytes_total / seq_elapsed.as_secs_f64() / 1e9),
    ]);

    let device = Arc::new(GpuDevice::new(DeviceConfig::default()));
    let batch = jobs(&plan, tasks, rows_per_task);
    let started = Instant::now();
    let results = run_pipelined(device, batch, 4);
    let pipe_elapsed = started.elapsed();
    assert_eq!(results.len(), tasks);
    report.add_row(vec![
        "pipelined (4 tasks in flight)".into(),
        tasks.to_string(),
        fmt(pipe_elapsed.as_secs_f64() * 1000.0),
        fmt(bytes_total / pipe_elapsed.as_secs_f64() / 1e9),
    ]);

    report.finish();
    println!(
        "speedup from pipelining: {:.2}x (expected > 1: transfers overlap kernel execution)",
        seq_elapsed.as_secs_f64() / pipe_elapsed.as_secs_f64().max(1e-9)
    );
}
