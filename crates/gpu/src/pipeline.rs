//! Five-stage pipelined stream data movement (paper §5.2, Fig. 6).
//!
//! Executing query tasks on the accelerator involves five operations:
//! `copyin` (heap → pinned memory), `movein` (pinned → device, DMA),
//! `execute` (kernels), `moveout` (device → pinned, DMA) and `copyout`
//! (pinned → heap). Performing them sequentially would leave the device idle
//! during transfers and halve the usable PCIe bandwidth; SABER therefore runs
//! each operation on its own thread and pipelines consecutive tasks so that,
//! at any instant, up to five tasks are in flight in different stages.
//!
//! [`GpuPipeline`] reproduces that design with five stage threads connected
//! by bounded channels. Jobs are submitted with [`GpuPipeline::submit`] and
//! completions are collected from [`GpuPipeline::completions`]. Task results
//! may therefore finish slightly out of submission order only if the caller
//! submits from multiple threads; a single GPU worker (as in SABER) keeps
//! them ordered.

use crate::device::GpuDevice;
use saber_cpu::exec::StreamBatch;
use saber_cpu::plan::CompiledPlan;
use saber_cpu::TaskOutput;
use saber_types::{Result, SaberError};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A task submitted to the accelerator pipeline.
pub struct PipelineJob {
    /// Engine-level task identifier (used to reorder results downstream).
    pub task_id: u64,
    /// The compiled query plan.
    pub plan: Arc<CompiledPlan>,
    /// The task's stream batches.
    pub batches: Vec<StreamBatch>,
}

/// A completed pipeline job.
pub struct PipelineResult {
    /// The submitted task identifier.
    pub task_id: u64,
    /// The task output (or the error that occurred in any stage).
    pub output: Result<TaskOutput>,
    /// The plan the job was executed with.
    pub plan: Arc<CompiledPlan>,
}

struct StageMsg {
    job: PipelineJob,
    pinned_bytes: usize,
    /// Device memory `movein` allocated (0 when it was refused), which
    /// `moveout` frees.
    device_bytes: usize,
    output: Option<Result<TaskOutput>>,
}

/// The five-stage accelerator pipeline.
pub struct GpuPipeline {
    submit_tx: Option<SyncSender<StageMsg>>,
    completions_rx: Receiver<PipelineResult>,
    threads: Vec<JoinHandle<()>>,
}

impl GpuPipeline {
    /// Builds the pipeline over `device`. `stage_capacity` bounds the number
    /// of tasks queued between consecutive stages (1 reproduces the paper's
    /// one-task-per-stage interleaving).
    pub fn new(device: Arc<GpuDevice>, stage_capacity: usize) -> Self {
        let cap = stage_capacity.max(1);
        let (submit_tx, copyin_rx) = sync_channel::<StageMsg>(cap);
        let (copyin_tx, movein_rx) = sync_channel::<StageMsg>(cap);
        let (movein_tx, execute_rx) = sync_channel::<StageMsg>(cap);
        let (execute_tx, moveout_rx) = sync_channel::<StageMsg>(cap);
        let (moveout_tx, copyout_rx) = sync_channel::<StageMsg>(cap);
        let (completion_tx, completions_rx) = sync_channel::<PipelineResult>(cap * 8);

        let mut threads = Vec::new();

        // Stage 1: copyin (heap -> pinned host memory).
        {
            let device = device.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("saber-gpu-copyin".into())
                    .spawn(move || {
                        for mut msg in copyin_rx.iter() {
                            let pinned = device.copyin(&msg.job.batches);
                            msg.pinned_bytes = pinned.len();
                            if copyin_tx.send(msg).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn copyin stage"),
            );
        }
        // Stage 2: movein (pinned -> device memory over PCIe).
        {
            let device = device.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("saber-gpu-movein".into())
                    .spawn(move || {
                        for mut msg in movein_rx.iter() {
                            match device.movein(msg.pinned_bytes) {
                                Ok(_) => msg.device_bytes = msg.pinned_bytes,
                                Err(e) => msg.output = Some(Err(e)),
                            }
                            if movein_tx.send(msg).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn movein stage"),
            );
        }
        // Stage 3: execute (the CPU's operator function, on this thread).
        {
            let device = device.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("saber-gpu-execute".into())
                    .spawn(move || {
                        for mut msg in execute_rx.iter() {
                            if msg.output.is_none() {
                                let out = device.execute_kernels(&msg.job.plan, &msg.job.batches);
                                msg.output = Some(out);
                            }
                            if execute_tx.send(msg).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn execute stage"),
            );
        }
        // Stage 4: moveout (device -> pinned memory over PCIe).
        {
            let device = device.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("saber-gpu-moveout".into())
                    .spawn(move || {
                        for msg in moveout_rx.iter() {
                            let out_bytes = msg
                                .output
                                .as_ref()
                                .and_then(|o| o.as_ref().ok())
                                .map(|o| o.byte_len())
                                .unwrap_or(0);
                            device.moveout(out_bytes, msg.device_bytes);
                            if moveout_tx.send(msg).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn moveout stage"),
            );
        }
        // Stage 5: copyout (pinned memory -> heap) + completion.
        {
            let device = device.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("saber-gpu-copyout".into())
                    .spawn(move || {
                        for msg in copyout_rx.iter() {
                            let output = msg.output.unwrap_or_else(|| {
                                Err(SaberError::Device("job skipped execution".into()))
                            });
                            if let Ok(out) = &output {
                                device.copyout(out);
                            }
                            let result = PipelineResult {
                                task_id: msg.job.task_id,
                                output,
                                plan: msg.job.plan,
                            };
                            if completion_tx.send(result).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn copyout stage"),
            );
        }

        Self {
            submit_tx: Some(submit_tx),
            completions_rx,
            threads,
        }
    }

    /// Submits a job to the pipeline (blocks if the first stage is full).
    pub fn submit(&self, job: PipelineJob) -> Result<()> {
        let msg = StageMsg {
            pinned_bytes: 0,
            device_bytes: 0,
            output: None,
            job,
        };
        self.submit_tx
            .as_ref()
            .ok_or_else(|| SaberError::State("pipeline already shut down".into()))?
            .send(msg)
            .map_err(|_| SaberError::State("pipeline stages terminated".into()))
    }

    /// The channel on which completed jobs are delivered.
    pub fn completions(&self) -> &Receiver<PipelineResult> {
        &self.completions_rx
    }

    /// Shuts the pipeline down, waiting for in-flight jobs to drain.
    pub fn shutdown(mut self) -> Vec<PipelineResult> {
        self.submit_tx.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let mut rest = Vec::new();
        while let Ok(r) = self.completions_rx.try_recv() {
            rest.push(r);
        }
        rest
    }
}

impl Drop for GpuPipeline {
    fn drop(&mut self) {
        self.submit_tx.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Convenience: run a set of jobs through a fresh pipeline and return the
/// results in completion order (used by the pipelining ablation benchmark).
pub fn run_pipelined(
    device: Arc<GpuDevice>,
    jobs: Vec<PipelineJob>,
    stage_capacity: usize,
) -> Vec<PipelineResult> {
    let n = jobs.len();
    let pipeline = GpuPipeline::new(device, stage_capacity);
    let mut results = Vec::with_capacity(n);
    for job in jobs {
        pipeline.submit(job).expect("pipeline accepts jobs");
        while let Ok(r) = pipeline.completions().try_recv() {
            results.push(r);
        }
    }
    while results.len() < n {
        match pipeline.completions().recv() {
            Ok(r) => results.push(r),
            Err(_) => break,
        }
    }
    results
}

/// Convenience: run the same jobs strictly sequentially on the device (the
/// non-pipelined baseline of the ablation).
pub fn run_sequential(device: &GpuDevice, jobs: Vec<PipelineJob>) -> Vec<PipelineResult> {
    jobs.into_iter()
        .map(|job| PipelineResult {
            task_id: job.task_id,
            output: device.execute(&job.plan, &job.batches),
            plan: job.plan,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::pcie::PcieConfig;
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, RowBuffer, Schema, Value};
    use std::time::Duration;

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[("timestamp", DataType::Timestamp), ("v", DataType::Float)])
            .unwrap()
            .into_ref()
    }

    fn jobs(n: usize, rows: usize) -> (Arc<CompiledPlan>, Vec<PipelineJob>) {
        let q = QueryBuilder::new("sel", schema())
            .count_window(64, 64)
            .select(Expr::column(1).ge(Expr::literal(0.0)))
            .build()
            .unwrap();
        let plan = Arc::new(CompiledPlan::compile(&q).unwrap());
        let jobs = (0..n)
            .map(|t| {
                let mut buf = RowBuffer::new(schema());
                for i in 0..rows {
                    buf.push_values(&[Value::Timestamp(i as i64), Value::Float(i as f32)])
                        .unwrap();
                }
                PipelineJob {
                    task_id: t as u64,
                    plan: plan.clone(),
                    batches: vec![StreamBatch::new(buf, (t * rows) as u64, 0)],
                }
            })
            .collect();
        (plan, jobs)
    }

    #[test]
    fn pipeline_processes_all_jobs_and_preserves_results() {
        let device = Arc::new(GpuDevice::new(DeviceConfig::unpaced()));
        let (_plan, js) = jobs(16, 256);
        let results = run_pipelined(device, js, 2);
        assert_eq!(results.len(), 16);
        let mut ids: Vec<u64> = results.iter().map(|r| r.task_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..16).collect::<Vec<u64>>());
        for r in &results {
            assert_eq!(r.output.as_ref().unwrap().row_count(), 256);
        }
    }

    #[test]
    fn single_submitter_results_arrive_in_order() {
        let device = Arc::new(GpuDevice::new(DeviceConfig::unpaced()));
        let (_plan, js) = jobs(8, 64);
        let results = run_pipelined(device, js, 1);
        let ids: Vec<u64> = results.iter().map(|r| r.task_id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn sequential_runner_produces_identical_outputs() {
        let device = Arc::new(GpuDevice::new(DeviceConfig::unpaced()));
        let (_plan, js1) = jobs(4, 128);
        let (_plan2, js2) = jobs(4, 128);
        let a = run_pipelined(device.clone(), js1, 2);
        let b = run_sequential(&device, js2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(
                x.output.as_ref().unwrap().row_count(),
                y.output.as_ref().unwrap().row_count()
            );
        }
    }

    #[test]
    fn pipelined_stages_record_movement_time_and_count_each_task_once() {
        let latency = Duration::from_millis(2);
        let device = Arc::new(GpuDevice::new(DeviceConfig {
            pcie: PcieConfig {
                dma_latency: latency,
                ..PcieConfig::default()
            },
            ..DeviceConfig::default()
        }));
        let n = 4;
        let (_plan, js) = jobs(n, 64);
        let results = run_pipelined(device.clone(), js, 1);
        assert_eq!(results.len(), n);
        let stats = device.stats();
        // Every job pays the DMA latency on `movein` and on `moveout`.
        assert!(stats.movement_time() >= latency * 2 * n as u32);
        assert_eq!(stats.tasks_executed(), n as u64);
    }

    #[test]
    fn a_refused_movein_frees_no_device_memory() {
        let device = Arc::new(GpuDevice::new(DeviceConfig {
            global_memory_bytes: 64,
            ..DeviceConfig::unpaced()
        }));
        let (_plan, js) = jobs(2, 256);
        let results = run_pipelined(device.clone(), js, 1);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.output.is_err()));
        assert_eq!(device.memory().allocated(), 0);
    }

    #[test]
    fn shutdown_drains_cleanly() {
        let device = Arc::new(GpuDevice::new(DeviceConfig::unpaced()));
        let (plan, _js) = jobs(1, 8);
        let pipeline = GpuPipeline::new(device, 1);
        pipeline
            .submit(PipelineJob {
                task_id: 42,
                plan,
                batches: vec![StreamBatch::new(RowBuffer::new(schema()), 0, 0)],
            })
            .unwrap();
        // Either collected here or returned by shutdown.
        let collected = pipeline.completions().recv().ok();
        let rest = pipeline.shutdown();
        assert!(collected.is_some() || !rest.is_empty());
    }
}
