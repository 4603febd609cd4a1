//! Layers in isolation: the workload's own recorded batch, frame, line and
//! result rows replayed through each layer's public function for a fraction
//! of a second, so a regression can name its layer and the per-row costs can
//! be added up against the end-to-end CPU figure.

use crate::gen::{Pool, ROW};
use crate::net::Encoder;
use crate::run::{RunConfig, Statements};
use crate::spec::Transport;
use crate::trace::{Layers, TASK_ROWS};
use saber::cpu::{CompiledPlan, CpuExecutor, StreamBatch, TaskOutput};
use saber::engine::circular::CircularBuffer;
use saber::engine::dispatcher::Dispatcher;
use saber::engine::scheduler::Scheduler;
use saber::engine::{
    DurabilityConfig, Processor, QuerySink, QueryTask, SchedulingPolicyKind, TaskQueue,
    ThroughputMatrix,
};
use saber::gpu::device::{DeviceConfig, GpuDevice};
use saber::net::wire::{self, Frame};
use saber::obs::Histogram;
use saber::server::protocol::{self, Command, Encoding};
use saber::store::Store;
use saber::types::RowBuffer;
use saber::workloads::synthetic;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budget of one isolated measurement.
const BUDGET: Duration = Duration::from_millis(120);

/// Runs `op` until the budget is spent (at least three times); mean
/// nanoseconds per call.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    op(); // warm caches and lazy state
    let started = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || started.elapsed() < BUDGET {
        op();
        calls += 1;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// What the isolated costs add up to per input row on this workload's path
/// (ns), for `trace.cpu_gap_share`.
pub struct IsolatedSum {
    pub ns_per_row: f64,
}

pub fn measure(
    cfg: &RunConfig,
    statements: &Statements,
    reference_rows: &[RowBuffer],
    pool: &mut Pool,
    results_dir: &Path,
    layers: &mut Layers,
) -> IsolatedSum {
    let workload = cfg.workload;
    let batch_rows = workload.batch_rows;
    let batches_per_task = TASK_ROWS.div_ceil(batch_rows as u64) as usize;
    let task_rows = batches_per_task * batch_rows;
    let task_input = pool.prefix(task_rows);
    let batch: Vec<u8> = task_input.bytes()[..batch_rows * ROW].to_vec();
    let batch_kb = batch.len() as f64 / 1024.0;
    let plans: Vec<Arc<CompiledPlan>> = statements
        .queries
        .iter()
        .map(|q| Arc::new(CompiledPlan::compile(q).expect("statement compiles to a plan")))
        .collect();
    let task_batches = || vec![StreamBatch::new(task_input.clone(), 0, 0)];

    // ---- engine: ring, dispatcher cut, scheduler pick, sink append.
    let ring = CircularBuffer::new(64 << 20);
    let ring_ns = ns_per_call(|| {
        ring.insert(&batch).expect("ring has room");
        ring.release_until(ring.head());
    });
    layers.set("engine.ring_insert_ns_per_kb", ring_ns / batch_kb);

    let dispatcher = Dispatcher::new(
        plans[0].clone(),
        1 << 20,
        64 << 20,
        Arc::new(AtomicU64::new(0)),
        true,
    );
    let ingest_ns = ns_per_call(|| {
        black_box(dispatcher.ingest(0, &batch).expect("dispatcher ingests"));
    });
    // One task is cut per `batches_per_task` calls; what remains after the
    // ring copies is the cut itself.
    let cut_ns = ((ingest_ns - ring_ns) * batches_per_task as f64).max(0.0);
    layers.set("engine.dispatch_cut_us_per_task", cut_ns / 1e3);

    let physical_plans = statements.queries.len();
    let queue = TaskQueue::with_queries(physical_plans);
    let scheduler = {
        let matrix = Arc::new(ThroughputMatrix::new(0.25, 1));
        let s = Scheduler::new(SchedulingPolicyKind::default(), matrix);
        if workload.hybrid {
            s
        } else {
            s.with_single_processor(Processor::Cpu)
        }
    };
    let mut parked = Some(QueryTask {
        id: 0,
        query_id: 0,
        seq: 0,
        plan: plans[0].clone(),
        batches: Vec::new(),
        created: Instant::now(),
        ingest_ack: Instant::now(),
    });
    let sched_ns = ns_per_call(|| {
        queue.push(parked.take().expect("task is parked between calls"));
        let picked = scheduler
            .next_task(&queue, Processor::Cpu, Duration::ZERO)
            // HLS may leave the head to the other processor: take it back.
            .or_else(|| queue.try_pop(0));
        parked = picked;
    });
    layers.set("engine.sched_next_task_ns", sched_ns);

    // One task's output of the first statement: what the result stage hands
    // the sink, the broadcaster encodes and the text codec formats.
    let cpu = CpuExecutor::new();
    let task_output = match cpu
        .execute(&plans[0], &task_batches())
        .expect("plan executes")
    {
        TaskOutput::Rows(rows) => rows,
        // Fragments are assembled across tasks; the reference's windows are
        // the same rows the assembler appends.
        TaskOutput::Fragments { .. } => reference_rows[0].clone(),
    };
    let out_rows = task_output.len().max(1) as f64;
    let sink = QuerySink::new(task_output.schema().clone(), false);
    sink.subscribe(|rows| {
        black_box(rows.bytes().to_vec());
    });
    let sink_ns = ns_per_call(|| sink.append(&task_output));
    layers.set("engine.sink_append_us_per_batch", sink_ns / 1e3);

    // ---- executors.
    let mut exec_ns_per_row = Vec::new();
    for (i, plan) in plans.iter().enumerate().take(2) {
        let batches = task_batches();
        let ns = ns_per_call(|| {
            black_box(cpu.execute(plan, &batches).expect("plan executes"));
        }) / task_rows as f64;
        layers.set_indexed("cpu.exec_ns_per_row_q", i, ns);
        exec_ns_per_row.push(ns);
    }
    if workload.hybrid {
        let device = GpuDevice::new(DeviceConfig::default());
        for (i, plan) in plans.iter().enumerate().take(2) {
            let batches = task_batches();
            let ns = ns_per_call(|| {
                black_box(device.execute(plan, &batches).expect("device executes"));
            }) / task_rows as f64;
            layers.set_indexed("gpu.exec_ns_per_row_q", i, ns);
            let share = layers.get(&format!("gpu.task_share_q{i}"));
            exec_ns_per_row[i] = share * ns + (1.0 - share) * exec_ns_per_row[i];
        }
    }

    // ---- observability: six stage histograms take one record per task.
    let histogram = Histogram::new();
    let mut value = 1u64;
    let hist_ns = ns_per_call(|| {
        value = value.wrapping_mul(6364136223846793005).wrapping_add(1) >> 40;
        histogram.record(value);
    });
    layers.set("obs.hist_record_ns", hist_ns);

    // ---- SQL.
    let sql = workload.queries[0];
    let compile_ns = ns_per_call(|| {
        black_box(saber::sql::compile_named(sql, "q", &statements.catalog).expect("compiles"));
    });
    layers.set("sql.compile_us", compile_ns / 1e3);

    // Per input row: ingest (ring + cut), scheduling and stage records per
    // task, execution, and the sink hand-off per task.
    let per_task = cut_ns + sched_ns + 6.0 * hist_ns + sink_ns;
    let mut ns_per_row = exec_ns_per_row
        .iter()
        .map(|exec| ring_ns / batch_rows as f64 + per_task / task_rows as f64 + exec)
        .sum::<f64>()
        / exec_ns_per_row.len() as f64;

    // ---- wire and text codecs, on this workload's own frames and lines.
    let schema = synthetic::schema();
    let out_per_in = out_rows / task_rows as f64;
    match workload.transport {
        Transport::InProc => {}
        Transport::NetBinary => {
            let insert = Encoder::new(workload.transport).encode(&batch).to_vec();
            let decode_ns = ns_per_call(|| {
                black_box(wire::decode_frame(&insert, 64 << 20).expect("frame decodes"));
            }) / batch_rows as f64;
            layers.set("net.wire_decode_ns_per_row", decode_ns);
            let data = Frame::Data {
                nrows: task_output.len() as u32,
                rows: task_output.bytes().to_vec(),
            };
            let mut encoded = Vec::new();
            let encode_ns = ns_per_call(|| {
                encoded.clear();
                data.encode_into(&mut encoded);
                black_box(&encoded);
            }) / out_rows;
            layers.set("net.wire_encode_ns_per_row", encode_ns);
            ns_per_row += decode_ns + encode_ns * out_per_in;
        }
        Transport::NetText => {
            let line = String::from_utf8(Encoder::new(workload.transport).encode(&batch).to_vec())
                .expect("INSERT lines are ASCII");
            let parse_ns = ns_per_call(|| match protocol::parse_command(&line) {
                Ok(Command::Insert { payload, .. }) => {
                    black_box(payload.decode(&schema).expect("payload decodes"));
                }
                other => panic!("not an insert: {other:?}"),
            }) / batch_rows as f64;
            layers.set("server.parse_insert_ns_per_row", parse_ns);
            let format_ns = ns_per_call(|| {
                black_box(protocol::format_batch(&task_output, Encoding::Csv));
            }) / out_rows;
            layers.set("server.format_rows_ns_per_row", format_ns);
            ns_per_row += parse_ns + format_ns * out_per_in;
        }
    }

    // ---- WAL: append into the group-commit buffer, then one forced sync.
    if workload.wal {
        let dir = results_dir.join(format!("tmp-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = Store::open(&DurabilityConfig::new(&dir)).expect("store opens");
            // Bursts well inside the 32 MB group-commit buffer, synced
            // between timings: the cost of the append, not of the disk.
            let burst = (8 << 20) / batch.len();
            let mut timed = Duration::ZERO;
            let mut appends = 0u32;
            let started = Instant::now();
            while started.elapsed() < BUDGET {
                let burst_started = Instant::now();
                for _ in 0..burst {
                    black_box(store.append_ingest(0, 0, &batch).expect("append"));
                }
                timed += burst_started.elapsed();
                appends += burst as u32;
                store.sync().expect("sync");
            }
            let append_ns = timed.as_nanos() as f64 / f64::from(appends);
            layers.set("store.append_ns_per_kb", append_ns / batch_kb);
            let sync_ns = ns_per_call(|| {
                store.append_ingest(0, 0, &batch).expect("append");
                store.sync().expect("sync");
            });
            layers.set("store.sync_ms", (sync_ns - append_ns).max(0.0) / 1e6);
            ns_per_row += append_ns / batch_rows as f64;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    IsolatedSum { ns_per_row }
}
