//! The in-process driver: `IngestHandle::ingest` on the generator thread,
//! and a sink callback that checks each result batch where it arrives.
//!
//! There is no receiver thread here. With one, a closed-loop run kept three
//! threads busy (generator, the engine's worker, receiver) on two cores, and
//! where the scheduler happened to put the third decided the throughput:
//! 64 Mrows/s with the receiver beside the generator, 53 beside the worker,
//! 37 when generator and receiver shared a core all run long — the same code,
//! run to run. The check costs less than the copy and hand-over it replaces,
//! and its CPU is timed and taken off the program's like any other of the
//! benchmark's own.

use crate::check::Checker;
use crate::gen::{sleep_until, Pool, Schedule};
use crate::host::Housekeeping;
use crate::procstat;
use crate::run::{
    paced_wall, watch_paced_phase, BatchLog, Clock, CpuSamples, History, Received, RunConfig,
    Statements, DRAIN_TIMEOUT,
};
use crate::trace::{hist_delta, Layers};
use saber::engine::{
    EngineConfig, ExecutionMode, HistogramSnapshot, IngestHandle, QueryHandle, Saber, StreamId,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What one statement's sink callback keeps: the checker it feeds and the
/// CPU the feeding took.
struct Inbox {
    checker: Checker,
    own_cpu: Duration,
    cpu: CpuSamples,
    deliveries: u64,
}

/// One statement's receiving side, shared between its sink callback and the
/// coordinator.
#[derive(Clone)]
struct Receiving {
    inbox: Arc<Mutex<Option<Inbox>>>,
    /// Windows seen so far, for the coordinator to poll.
    seen: Arc<AtomicU64>,
}

impl Receiving {
    fn new(checker: Checker) -> Receiving {
        Receiving {
            inbox: Arc::new(Mutex::new(Some(Inbox {
                checker,
                own_cpu: Duration::ZERO,
                cpu: CpuSamples::default(),
                deliveries: 0,
            }))),
            seen: Arc::new(AtomicU64::new(0)),
        }
    }

    fn seen(&self) -> u64 {
        // relaxed-ok: a progress counter the coordinator polls.
        self.seen.load(Ordering::Relaxed)
    }

    /// Subscribes the callback: stamp the receive time and check the batch
    /// on the thread that delivers it. A statement's batches come one at a
    /// time, so the lock is never contended.
    fn subscribe(&self, handle: &QueryHandle, clock: Clock) {
        let this = self.clone();
        handle.sink().subscribe(move |rows| {
            let t_ns = clock.now_ns();
            let before = procstat::thread_cpu();
            let mut inbox = this.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            // Taken once the run is over: a batch after that has nowhere to go.
            let Some(inbox) = inbox.as_mut() else { return };
            inbox.checker.on_batch(t_ns, rows.bytes());
            // relaxed-ok: a progress counter the coordinator polls.
            this.seen
                .store(inbox.checker.windows_seen(), Ordering::Relaxed);
            inbox.deliveries += 1;
            inbox.own_cpu += procstat::thread_cpu().saturating_sub(before);
            inbox.cpu.0.push((clock.now_ns(), inbox.own_cpu));
        });
    }

    fn take(&self) -> Inbox {
        self.inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("taken once")
    }
}

/// Polls `done` every 50 µs until it holds or `timeout` passes.
pub fn wait_for(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    true
}

struct Generator<'a> {
    clock: Clock,
    pool: &'a mut Pool,
    handles: &'a [IngestHandle],
    log: BatchLog,
    /// Thread CPU spent outside the ingest calls: batch building and pacing.
    own_cpu: Duration,
}

impl Generator<'_> {
    /// Hands batch `k` to every statement at `due` (at once when `None`).
    fn send(&mut self, k: u64, due: Option<Instant>) {
        let before = procstat::thread_cpu();
        let bytes = self.pool.batch(k);
        if let Some(due) = due {
            sleep_until(due);
        }
        let sent = Instant::now();
        self.own_cpu += procstat::thread_cpu().saturating_sub(before);
        self.log.own_cpu_ns.push(self.own_cpu.as_nanos() as u64);
        for handle in self.handles {
            if handle.ingest(bytes).is_err() {
                self.log.refused += 1;
            }
        }
        self.log.due_ns.push(self.clock.ns(due.unwrap_or(sent)));
        self.log.sent_ns.push(self.clock.ns(sent));
        self.log.done_ns.push(self.clock.now_ns());
    }
}

/// Snapshots of one query's stage histograms.
fn stage_snapshots(handles: &[QueryHandle]) -> Vec<Vec<HistogramSnapshot>> {
    handles
        .iter()
        .map(|h| {
            h.stats()
                .stages
                .snapshots()
                .into_iter()
                .map(|(_, s)| s)
                .collect()
        })
        .collect()
}

pub fn run(cfg: &RunConfig, pool: &mut Pool, layers: &mut Layers) -> History {
    let workload = cfg.workload;
    let statements = Statements::compile(workload);
    let plan = cfg.batch_plan();
    let clock = Clock::start();

    // ---- set-up: engine, statements, subscriptions.
    let setup_started = Instant::now();
    let mut engine = Saber::with_config(EngineConfig {
        worker_threads: 1,
        execution_mode: if workload.hybrid {
            ExecutionMode::Hybrid
        } else {
            ExecutionMode::CpuOnly
        },
        ..EngineConfig::default()
    })
    .expect("engine configuration is valid");
    engine.start().expect("engine starts");
    let register_started = Instant::now();
    let queries: Vec<QueryHandle> = workload
        .queries
        .iter()
        .map(|sql| {
            engine
                .add_query_sql_with_options(sql, &statements.catalog, false)
                .expect("statement registers")
        })
        .collect();
    layers.set(
        "server.query_register_ms",
        register_started.elapsed().as_secs_f64() * 1e3,
    );
    let handles: Vec<IngestHandle> = queries
        .iter()
        .map(|q| q.ingest_handle(StreamId(0)).expect("stream 0 exists"))
        .collect();
    let receiving: Vec<Receiving> = statements
        .checkers()
        .into_iter()
        .map(Receiving::new)
        .collect();
    if !cfg.late_subscriber {
        for (r, q) in receiving.iter().zip(&queries) {
            r.subscribe(q, clock);
        }
    }

    let (schedule_tx, schedule_rx) = mpsc::channel::<(Instant, Instant)>();
    let mut setup_s = 0.0;
    let mut paced_edges = Vec::new();
    let log = std::thread::scope(|scope| {
        let (receiving, handles) = (&receiving, &handles);
        // `move`: the schedule sender must drop with the generator, or a
        // set-up-only run would leave the coordinator waiting on it.
        let generator = scope.spawn(move || {
            let mut g = Generator {
                clock,
                pool,
                handles,
                log: BatchLog::default(),
                own_cpu: Duration::ZERO,
            };
            // Set-up ends when the first result window of the burst is back.
            for k in 0..plan.setup {
                g.send(k, None);
            }
            if !cfg.late_subscriber {
                wait_for(DRAIN_TIMEOUT, || receiving[0].seen() > 0);
            }
            let setup_done = Instant::now();
            if cfg.setup_only {
                return (g.log, setup_done);
            }
            let schedule = Schedule::new(
                setup_done + Duration::from_millis(2),
                workload.paced_rows_per_s,
                workload.batch_rows,
            );
            let paced_end = schedule.due(plan.warm + plan.paced);
            let _ = schedule_tx.send((schedule.due(plan.warm), paced_end));
            for i in 0..plan.warm + plan.paced {
                g.send(plan.setup + i, Some(schedule.due(i)));
            }
            // Closed loop: one caller, blocking ingest back to back.
            sleep_until(paced_end);
            let load_started = Instant::now();
            let load_for = Duration::from_secs_f64(cfg.load_seconds());
            let mut k = plan.setup + plan.warm + plan.paced;
            while load_started.elapsed() < load_for || !k.is_multiple_of(plan.align) {
                g.send(k, None);
                k += 1;
            }
            g.log.load_ns = (clock.ns(load_started), clock.now_ns());
            g.log.thread_cpu = procstat::thread_cpu();
            (g.log, setup_done)
        });

        // ---- coordinator: CPU and stage snapshots at the paced phase's edges.
        let mut stage_before = Vec::new();
        let mut stage_after = Vec::new();
        let mut backpressure = (Duration::ZERO, Duration::ZERO);
        if let Ok((paced_start, paced_end)) = schedule_rx.recv() {
            let mut housekeeping = Housekeeping::default();
            housekeeping.until(paced_start);
            if cfg.late_subscriber {
                for (r, q) in receiving.iter().zip(&queries) {
                    r.subscribe(q, clock);
                }
            }
            if cfg.trace {
                stage_before = stage_snapshots(&queries);
                backpressure.0 = engine.backpressure_stats().1;
            }
            paced_edges = watch_paced_phase(clock, paced_start, paced_end, &mut housekeeping);
            if cfg.trace {
                stage_after = stage_snapshots(&queries);
                backpressure.1 = engine.backpressure_stats().1;
            }
        }
        let (log, setup_done) = generator.join().expect("generator thread");
        setup_s = (setup_done - setup_started).as_secs_f64();

        // ---- wind down: cut the tail task, wait for its windows, stop.
        if !cfg.setup_only {
            engine.flush().expect("flush");
            let total_rows = log.batches() * workload.batch_rows as u64;
            let drained = wait_for(DRAIN_TIMEOUT, || {
                statements
                    .shapes
                    .iter()
                    .zip(receiving)
                    .all(|(s, r)| r.seen() >= s.complete_windows(total_rows))
            });
            if !drained {
                eprintln!(
                    "[{}] windows still missing after the drain timeout",
                    workload.name
                );
            }
        }
        if cfg.trace {
            let wall = paced_wall(&paced_edges);
            let paced_s = (wall.1 - wall.0) as f64 / 1e9;
            layers.set(
                "engine.backpressure_wait_share",
                (backpressure.1.saturating_sub(backpressure.0)).as_secs_f64() / paced_s.max(1e-9),
            );
            layers.set(
                "engine.tasks_total",
                queries
                    .iter()
                    .map(|q| q.stats().snapshot().tasks_created as f64)
                    .sum(),
            );
            layers.set(
                "engine.queue_depth_peak",
                engine.max_queued_tasks_observed() as f64,
            );
            layers.set("engine.physical_plans", engine.num_physical_plans() as f64);
            if let (Some(before), Some(after)) = (stage_before.first(), stage_after.first()) {
                layers.set_stages(&hist_delta(before, after));
            }
            if workload.hybrid {
                for (i, q) in queries.iter().enumerate().take(2) {
                    layers.set_indexed("gpu.task_share_q", i, q.stats().snapshot().gpu_share());
                }
                let device = engine.device();
                layers.set("gpu.kernel_s", device.stats().kernel_time().as_secs_f64());
                layers.set(
                    "gpu.movement_s",
                    device.stats().movement_time().as_secs_f64(),
                );
                layers.set("gpu.pcie_bytes", device.bus().bytes_moved() as f64);
            }
        }
        engine.stop().expect("engine stops");
        log
    });
    let inboxes: Vec<Inbox> = receiving.iter().map(Receiving::take).collect();
    let mut received = Received::new(Vec::new());
    received.deliveries = inboxes.iter().map(|inbox| inbox.deliveries).sum();
    (received.checkers, received.cpu) = inboxes
        .into_iter()
        .map(|inbox| (inbox.checker, inbox.cpu))
        .unzip();

    History {
        statements,
        plan,
        log,
        received,
        paced_edges,
        setup_s,
        acks_expected: None,
    }
}
