//! Pipelined stream data movement (paper §5.2, Fig. 6).
//!
//! Executing a query task on the accelerator moves its input to the device
//! (`movein`), runs its kernels (`execute`) and moves its output back
//! (`moveout`). Doing that one task at a time leaves the device idle during
//! transfers, so SABER overlaps the steps of consecutive tasks: a task's
//! input moves in while its predecessor executes and the output before that
//! moves out. (The paper's `copyin`/`copyout` host copies cost nothing
//! here; see [`crate::device`].)
//!
//! The device is simulated, so all that matters is the bus time and the
//! overlap, and both are arithmetic. [`GpuPipeline`] is therefore a plain
//! struct that the thread owning it drives. The link is full duplex: each
//! direction is a timeline whose `free_at` is the completion of the last
//! transfer booked on it, and a transfer requested at `t` completes at
//! `max(t, free_at) + duration`. A task is
//!
//! 1. **admitted** ([`GpuPipeline::admit`]): it reserves device memory and
//!    books its `movein` on the inbound link, which fixes `moved_in`. A task
//!    the device refuses keeps its place and finishes with the error;
//! 2. **executed** ([`GpuPipeline::execute`]) once it is the oldest task not
//!    yet executed and `moved_in` has passed. Its `moveout` is booked on the
//!    outbound link from the end of the execution, which fixes `moved_out`;
//! 3. **released** ([`GpuPipeline::release`]) in submission order once
//!    `moved_out` has passed, which frees its device memory.
//!
//! [`GpuPipeline::next_deadline`] tells the driving thread how long it may
//! wait for new tasks before the pipeline has work of its own, so it waits
//! by parking or sleeping and never spins.

use crate::device::GpuDevice;
use saber_cpu::exec::StreamBatch;
use saber_cpu::plan::CompiledPlan;
use saber_cpu::TaskOutput;
use saber_types::Result;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A task submitted to the accelerator pipeline.
pub struct PipelineJob {
    /// The compiled query plan.
    pub plan: Arc<CompiledPlan>,
    /// The task's stream batches.
    pub batches: Vec<StreamBatch>,
}

/// One direction of the PCIe link: its transfers queue behind each other.
struct Link {
    free_at: Instant,
}

impl Link {
    /// Books a transfer of `duration` requested at `at` and returns the
    /// instant it completes.
    fn book(&mut self, at: Instant, duration: Duration) -> Instant {
        self.free_at = at.max(self.free_at) + duration;
        self.free_at
    }
}

/// Where a task in the pipeline stands.
enum Stage {
    /// Waiting to execute; its input is on the device at `moved_in`.
    MovingIn { job: PipelineJob, moved_in: Instant },
    /// Executed (or refused at admission); its output is back in host
    /// memory at `moved_out`.
    MovingOut {
        output: Result<TaskOutput>,
        moved_out: Instant,
    },
}

struct Slot<T> {
    tag: T,
    /// Device memory reserved at admission (0 when it was refused).
    device_bytes: u64,
    stage: Stage,
}

/// The accelerator pipeline: up to `depth` tasks in flight, each carrying
/// the caller's tag `T` from admission to release.
pub struct GpuPipeline<T> {
    device: Arc<GpuDevice>,
    depth: usize,
    inbound: Link,
    outbound: Link,
    slots: VecDeque<Slot<T>>,
}

impl<T> GpuPipeline<T> {
    /// Builds a pipeline over `device` that holds up to `depth` tasks.
    pub fn new(device: Arc<GpuDevice>, depth: usize) -> Self {
        let now = Instant::now();
        Self {
            device,
            depth: depth.max(1),
            inbound: Link { free_at: now },
            outbound: Link { free_at: now },
            slots: VecDeque::new(),
        }
    }

    /// True when no task is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when `depth` tasks are in flight.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.depth
    }

    /// Admits `job` at `now`: reserves its device memory and books its
    /// `movein`. A refused job finishes with the device's error, in its turn.
    pub fn admit(&mut self, tag: T, job: PipelineJob, now: Instant) {
        let bytes = GpuDevice::task_bytes(&job.batches);
        let (device_bytes, stage) = match self.device.memory().allocate(bytes as u64) {
            Ok(()) => {
                let moved_in = self.inbound.book(now, self.device.transfer(bytes));
                (bytes as u64, Stage::MovingIn { job, moved_in })
            }
            Err(e) => (
                0,
                Stage::MovingOut {
                    output: Err(e),
                    moved_out: now,
                },
            ),
        };
        self.slots.push_back(Slot {
            tag,
            device_bytes,
            stage,
        });
    }

    /// The oldest task not yet executed: its index, job and `moved_in`.
    fn next_input(&self) -> Option<(usize, &PipelineJob, Instant)> {
        self.slots
            .iter()
            .enumerate()
            .find_map(|(i, slot)| match &slot.stage {
                Stage::MovingIn { job, moved_in } => Some((i, job, *moved_in)),
                Stage::MovingOut { .. } => None,
            })
    }

    /// If the oldest task not yet executed has its input on the device by
    /// `now`, runs it on the calling thread and books its `moveout`.
    /// Returns whether a task ran.
    pub fn execute(&mut self, now: Instant) -> bool {
        let Some((i, job, moved_in)) = self.next_input() else {
            return false;
        };
        if moved_in > now {
            return false;
        }
        let started = Instant::now();
        let output = self.device.execute_kernels(&job.plan, &job.batches);
        self.executed(i, output, now + started.elapsed());
        true
    }

    /// Records that task `i` finished executing at `exec_end` with `output`
    /// and books its `moveout`; its input is dropped.
    fn executed(&mut self, i: usize, output: Result<TaskOutput>, exec_end: Instant) {
        let out_bytes = output.as_ref().map_or(0, TaskOutput::byte_len);
        let moved_out = self
            .outbound
            .book(exec_end, self.device.transfer(out_bytes.max(1)));
        if let Some(slot) = self.slots.get_mut(i) {
            slot.stage = Stage::MovingOut { output, moved_out };
        }
    }

    /// Releases the oldest task if its output has moved out by `now`,
    /// freeing its device memory. Tasks leave in submission order.
    pub fn release(&mut self, now: Instant) -> Option<(T, Result<TaskOutput>)> {
        let front = self.slots.front()?;
        if !matches!(front.stage, Stage::MovingOut { moved_out, .. } if moved_out <= now) {
            return None;
        }
        let slot = self.slots.pop_front()?;
        self.device.memory().free(slot.device_bytes);
        match slot.stage {
            Stage::MovingOut { output, .. } => Some((slot.tag, output)),
            Stage::MovingIn { .. } => None,
        }
    }

    /// The next instant at which [`GpuPipeline::execute`] or
    /// [`GpuPipeline::release`] has something to do; `None` when empty.
    pub fn next_deadline(&self) -> Option<Instant> {
        let release = match self.slots.front()?.stage {
            Stage::MovingOut { moved_out, .. } => Some(moved_out),
            Stage::MovingIn { .. } => None,
        };
        let execute = self.next_input().map(|(_, _, moved_in)| moved_in);
        release.into_iter().chain(execute).min()
    }

    /// Sleeps until the next deadline (returns at once when empty).
    pub fn sleep_until_next_deadline(&self) {
        if let Some(at) = self.next_deadline() {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        }
    }
}

/// Runs `jobs` through a fresh pipeline holding up to `depth` tasks and
/// returns their outputs in submission order (the pipelining ablation).
pub fn run_pipelined(
    device: Arc<GpuDevice>,
    jobs: Vec<PipelineJob>,
    depth: usize,
) -> Vec<Result<TaskOutput>> {
    let mut results = Vec::with_capacity(jobs.len());
    let mut jobs = jobs.into_iter();
    let mut pipeline = GpuPipeline::new(device, depth);
    loop {
        while let Some(((), output)) = pipeline.release(Instant::now()) {
            results.push(output);
        }
        while !pipeline.is_full() {
            let Some(job) = jobs.next() else { break };
            pipeline.admit((), job, Instant::now());
        }
        if pipeline.is_empty() {
            return results;
        }
        if !pipeline.execute(Instant::now()) {
            pipeline.sleep_until_next_deadline();
        }
    }
}

/// Runs the same jobs strictly sequentially on the device (the
/// non-pipelined baseline of the ablation).
pub fn run_sequential(device: &GpuDevice, jobs: Vec<PipelineJob>) -> Vec<Result<TaskOutput>> {
    jobs.into_iter()
        .map(|job| device.execute(&job.plan, &job.batches))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::pcie::PcieConfig;
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, RowBuffer, Schema, Value};

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[("timestamp", DataType::Timestamp), ("v", DataType::Float)])
            .unwrap()
            .into_ref()
    }

    fn plan() -> Arc<CompiledPlan> {
        let q = QueryBuilder::new("sel", schema())
            .count_window(64, 64)
            .select(Expr::column(1).ge(Expr::literal(0.0)))
            .build()
            .unwrap();
        Arc::new(CompiledPlan::compile(&q).unwrap())
    }

    fn job(plan: &Arc<CompiledPlan>, t: usize, rows: usize) -> PipelineJob {
        let mut buf = RowBuffer::new(schema());
        for i in 0..rows {
            buf.push_values(&[Value::Timestamp(i as i64), Value::Float(i as f32)])
                .unwrap();
        }
        PipelineJob {
            plan: plan.clone(),
            batches: vec![StreamBatch::new(buf, (t * rows) as u64, 0)],
        }
    }

    fn jobs(n: usize, rows: usize) -> Vec<PipelineJob> {
        let plan = plan();
        (0..n).map(|t| job(&plan, t, rows)).collect()
    }

    /// A device whose every transfer, in either direction, takes `t`.
    fn device(t: Duration, memory: u64) -> Arc<GpuDevice> {
        Arc::new(GpuDevice::new(DeviceConfig {
            global_memory_bytes: memory,
            pcie: PcieConfig {
                bandwidth_bytes_per_sec: 1.0e30,
                dma_latency: t,
                time_scale: 1.0,
            },
        }))
    }

    fn moved_in<T>(p: &GpuPipeline<T>, i: usize) -> Instant {
        match p.slots[i].stage {
            Stage::MovingIn { moved_in, .. } => moved_in,
            Stage::MovingOut { .. } => panic!("task {i} already executed"),
        }
    }

    /// Drives `p` from `now` on a simulated clock, as the accelerator
    /// worker drives it on the real one, with every execution taking `e`.
    /// Returns each released tag, its output and the instant of release.
    fn simulate<T>(
        p: &mut GpuPipeline<T>,
        mut now: Instant,
        e: Duration,
    ) -> Vec<(T, Result<TaskOutput>, Instant)> {
        let mut released = Vec::new();
        loop {
            while let Some((tag, output)) = p.release(now) {
                released.push((tag, output, now));
            }
            match p.next_input() {
                Some((i, _, moved_in)) if moved_in <= now => {
                    let output = TaskOutput::Rows(RowBuffer::new(schema()));
                    p.executed(i, Ok(output), now + e);
                    now += e;
                }
                _ => match p.next_deadline() {
                    Some(at) => now = now.max(at),
                    None => return released,
                },
            }
        }
    }

    #[test]
    fn a_transfer_queues_behind_the_links_free_at() {
        let t = Duration::from_millis(1);
        let mut p = GpuPipeline::new(device(t, 1 << 30), 4);
        let plan = plan();
        let t0 = Instant::now();
        p.admit(0, job(&plan, 0, 8), t0);
        p.admit(1, job(&plan, 1, 8), t0);
        assert_eq!(moved_in(&p, 0), t0 + t);
        assert_eq!(moved_in(&p, 1), t0 + 2 * t);
        // Once the link is idle again, a transfer starts when requested.
        p.admit(2, job(&plan, 2, 8), t0 + 10 * t);
        assert_eq!(moved_in(&p, 2), t0 + 11 * t);
        assert_eq!(p.next_deadline(), Some(t0 + t));
    }

    #[test]
    fn overlapped_tasks_finish_after_n_times_the_slowest_step() {
        let ms = Duration::from_millis;
        let n = 8u32;
        for (e, t) in [(ms(3), ms(1)), (ms(1), ms(3)), (ms(2), ms(2))] {
            let mut p = GpuPipeline::new(device(t, 1 << 30), n as usize);
            let plan = plan();
            let t0 = Instant::now();
            for i in 0..n as usize {
                p.admit(i, job(&plan, i, 8), t0);
            }
            let released = simulate(&mut p, t0, e);
            let tags: Vec<usize> = released.iter().map(|r| r.0).collect();
            assert_eq!(tags, (0..n as usize).collect::<Vec<_>>());
            let last = released.last().unwrap().2 - t0;
            let slowest = e.max(t);
            assert!(last >= slowest * n, "e {e:?} t {t:?}: {last:?}");
            assert!(last <= t + slowest * n + t, "e {e:?} t {t:?}: {last:?}");
            assert!(last < (2 * t + e) * n, "no overlap: {last:?}");
        }
    }

    #[test]
    fn no_task_is_released_before_its_moved_out() {
        let t = Duration::from_millis(1);
        let e = Duration::from_millis(5);
        let mut p = GpuPipeline::new(device(t, 1 << 30), 4);
        let t0 = Instant::now();
        p.admit(7, job(&plan(), 0, 8), t0);
        assert!(p.release(t0 + 10 * t).is_none(), "not executed yet");
        let output = TaskOutput::Rows(RowBuffer::new(schema()));
        p.executed(0, Ok(output), t0 + t + e);
        let moved_out = t0 + t + e + t;
        assert_eq!(p.next_deadline(), Some(moved_out));
        assert!(p.release(moved_out - Duration::from_nanos(1)).is_none());
        assert_eq!(p.release(moved_out).map(|(tag, _)| tag), Some(7));
        assert!(p.is_empty());
    }

    #[test]
    fn release_follows_submission_order_around_a_refused_task() {
        let plan = plan();
        let small = GpuDevice::task_bytes(&job(&plan, 0, 8).batches) as u64;
        let mut p = GpuPipeline::new(device(Duration::from_millis(1), 2 * small), 4);
        let t0 = Instant::now();
        p.admit('a', job(&plan, 0, 8), t0);
        p.admit('b', job(&plan, 1, 64), t0);
        p.admit('c', job(&plan, 2, 8), t0);
        // The refused task is done at once, but waits for its predecessor.
        assert!(p.release(t0).is_none());
        assert_eq!(p.device.memory().allocated(), 2 * small);
        let released = simulate(&mut p, t0, Duration::from_millis(2));
        let order: Vec<(char, bool)> = released.iter().map(|r| (r.0, r.1.is_ok())).collect();
        assert_eq!(order, [('a', true), ('b', false), ('c', true)]);
        assert_eq!(p.device.memory().allocated(), 0);
    }

    #[test]
    fn the_memory_ledger_reads_zero_after_a_drain() {
        let plan = plan();
        let bytes = GpuDevice::task_bytes(&job(&plan, 0, 32).batches) as u64;
        let mut p = GpuPipeline::new(device(Duration::from_millis(1), 1 << 30), 4);
        let t0 = Instant::now();
        for i in 0..4 {
            p.admit(i, job(&plan, i, 32), t0);
        }
        assert!(p.is_full());
        assert_eq!(p.device.memory().allocated(), 4 * bytes);
        assert_eq!(simulate(&mut p, t0, Duration::from_millis(1)).len(), 4);
        assert_eq!(p.device.memory().allocated(), 0);
        assert_eq!(p.device.memory().peak(), 4 * bytes);
        // Two transfers per task, the output leg at least one byte.
        assert_eq!(p.device.bus().transfers(), 8);
        assert_eq!(p.device.bus().bytes_moved(), 4 * bytes + 4);
    }

    #[test]
    fn pipeline_processes_all_jobs_and_preserves_results() {
        let device = Arc::new(GpuDevice::new(DeviceConfig::unpaced()));
        let results = run_pipelined(device.clone(), jobs(16, 256), 2);
        assert_eq!(results.len(), 16);
        for r in &results {
            assert_eq!(r.as_ref().unwrap().row_count(), 256);
        }
        assert_eq!(device.stats().tasks_executed(), 16);
        assert_eq!(device.memory().allocated(), 0);
    }

    #[test]
    fn sequential_runner_produces_identical_outputs() {
        let device = Arc::new(GpuDevice::new(DeviceConfig::unpaced()));
        let a = run_pipelined(device.clone(), jobs(4, 128), 2);
        let b = run_sequential(&device, jobs(4, 128));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            match (x.as_ref().unwrap(), y.as_ref().unwrap()) {
                (TaskOutput::Rows(x), TaskOutput::Rows(y)) => assert_eq!(x.bytes(), y.bytes()),
                _ => panic!("a selection emits rows"),
            }
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
        let results = run_pipelined(device.clone(), jobs(n, 64), 1);
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
        let results = run_pipelined(device.clone(), jobs(2, 256), 1);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_err()));
        assert_eq!(device.memory().allocated(), 0);
    }
}
