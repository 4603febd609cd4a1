//! What both drivers (in-process and network) share: the run's settings, the
//! history a run records, and the analysis that turns a history into the
//! end-to-end metrics.

use crate::check::{Checker, QueryShape, Violations};
use crate::gen::Pool;
use crate::host::{Housekeeping, PROBE_REFERENCE_NS};
use crate::json::Json;
use crate::procstat;
use crate::spec::Workload;
use crate::stats;
use saber::query::Query;
use saber::sql::Catalog;
use saber::types::RowBuffer;
use saber::workloads::{reference, synthetic};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Rows pushed unpaced during set-up: enough for two full tasks whatever the
/// batch size, so the first result windows exist (72 K = two three-batch
/// tasks of 12 K rows, and a multiple of every smaller batch size).
pub const SETUP_ROWS: usize = 72 * 1024;
/// How long a run waits for windows that should already have arrived.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measured seconds: paced + load phase.
    pub seconds: f64,
    pub warmup_s: f64,
    pub trace: bool,
    /// Stop after set-up and report only `setup_s`.
    pub setup_only: bool,
    /// Fault injection for the acceptance check: subscribe only once the
    /// paced phase starts, so earlier windows are missed.
    pub late_subscriber: bool,
}

impl RunConfig {
    pub fn paced_seconds(&self) -> f64 {
        if self.workload.closed_loop_phase {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    pub fn load_seconds(&self) -> f64 {
        self.seconds - self.paced_seconds()
    }

    /// Batch counts of the set-up burst, warm-up and paced phase. Every
    /// count is a multiple of `align`, so phases end on window boundaries.
    pub fn batch_plan(&self) -> BatchPlan {
        let w = self.workload;
        let align = (1024 / w.batch_rows).max(1) as u64;
        let batches = |seconds: f64| {
            let n = (seconds * w.paced_rows_per_s / w.batch_rows as f64).ceil() as u64;
            n.div_ceil(align).max(1) * align
        };
        BatchPlan {
            align,
            setup: (SETUP_ROWS / w.batch_rows) as u64,
            warm: batches(self.warmup_s),
            paced: batches(self.paced_seconds()),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct BatchPlan {
    pub align: u64,
    pub setup: u64,
    pub warm: u64,
    pub paced: u64,
}

impl BatchPlan {
    /// Global batch indices of the paced phase.
    pub fn paced_range(&self) -> Range<u64> {
        self.setup + self.warm..self.setup + self.warm + self.paced
    }
}

/// Nanoseconds since the run's epoch: one time base for generator, receiver
/// and coordinator.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            epoch: Instant::now(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }
}

/// The compiled statements of a workload with their checker shapes.
pub struct Statements {
    pub catalog: Catalog,
    pub queries: Vec<Query>,
    pub shapes: Vec<QueryShape>,
}

impl Statements {
    pub fn compile(workload: &Workload) -> Statements {
        let catalog = Catalog::new().with_stream("Syn", synthetic::schema());
        let queries: Vec<Query> = workload
            .queries
            .iter()
            .map(|sql| saber::sql::compile(sql, &catalog).expect("workload SQL compiles"))
            .collect();
        let shapes = queries.iter().map(QueryShape::of).collect();
        Statements {
            catalog,
            queries,
            shapes,
        }
    }

    pub fn checkers(&self) -> Vec<Checker> {
        self.shapes.iter().cloned().map(Checker::new).collect()
    }
}

/// Per-batch send log, indexed by global batch number.
#[derive(Debug, Default)]
pub struct BatchLog {
    /// When the batch was due (the actual send time outside paced phases).
    pub due_ns: Vec<u64>,
    /// When the generator started handing it over.
    pub sent_ns: Vec<u64>,
    /// When the hand-over (ingest call or socket write) returned.
    pub done_ns: Vec<u64>,
    /// Hand-overs the program refused (`ingest` error).
    pub refused: u64,
    /// Generator CPU that is the benchmark's own, cumulative ns as of each
    /// batch's hand-over. In-process the ingest call runs on the generator
    /// thread and is the program's work, so only batch building and pacing
    /// count; over a socket all of the thread's CPU does.
    pub own_cpu_ns: Vec<u64>,
    /// Generator thread CPU over the whole run.
    pub thread_cpu: Duration,
    /// Wall-clock bounds of the load phase.
    pub load_ns: (u64, u64),
}

impl BatchLog {
    pub fn batches(&self) -> u64 {
        self.sent_ns.len() as u64
    }
}

/// `(wall ns, cumulative CPU)` after each delivery the receiving side
/// processed; its CPU at any instant is the last sample not after it (it
/// only burns CPU while processing).
#[derive(Debug, Default)]
pub struct CpuSamples(pub Vec<(u64, Duration)>);

impl CpuSamples {
    /// Samples the calling thread's CPU clock: for a thread that does
    /// nothing but receive.
    pub fn record(&mut self, t_ns: u64) {
        self.0.push((t_ns, procstat::thread_cpu()));
    }

    pub fn at(&self, t_ns: u64) -> Duration {
        let idx = self.0.partition_point(|(t, _)| *t <= t_ns);
        if idx == 0 {
            Duration::ZERO
        } else {
            self.0[idx - 1].1
        }
    }

    pub fn between(&self, range: (u64, u64)) -> Duration {
        self.at(range.1).saturating_sub(self.at(range.0))
    }
}

/// What the receiving side hands back.
pub struct Received {
    pub checkers: Vec<Checker>,
    /// The benchmark's own CPU on the receiving side: the receiver thread's
    /// over a socket; in-process one series per statement, the checking done
    /// inside the sink callback.
    pub cpu: Vec<CpuSamples>,
    pub deliveries: u64,
    /// Receive time of the k-th ack, network workloads only.
    pub ack_ns: Vec<u64>,
    /// Acks that were `Err`.
    pub err_acks: u64,
    /// Result rows whose text form did not parse (text protocol only).
    pub garbled: u64,
}

impl Received {
    pub fn new(checkers: Vec<Checker>) -> Received {
        Received {
            checkers,
            cpu: vec![CpuSamples::default()],
            deliveries: 0,
            ack_ns: Vec::new(),
            err_acks: 0,
            garbled: 0,
        }
    }
}

/// Length of the slices the paced phase is cut into: latency and CPU are
/// figured per slice and reported as the median over slices, so a stall or
/// a burst of host noise moves one slice, not the figure.
pub const PACED_SLICE: Duration = Duration::from_secs(1);

/// Process and coordinator CPU clocks read at one slice edge of the paced
/// phase.
#[derive(Debug, Clone, Copy)]
pub struct CpuEdge {
    pub wall_ns: u64,
    pub process: Duration,
    /// The coordinating thread's own CPU (probe, scrapes and snapshots).
    pub coordinator: Duration,
    /// Host-speed probe runs so far and the CPU they took.
    pub probe_runs: u64,
    pub probe_cpu: Duration,
}

impl CpuEdge {
    pub fn now(clock: Clock, housekeeping: &Housekeeping) -> CpuEdge {
        CpuEdge {
            wall_ns: clock.now_ns(),
            process: procstat::process_cpu(),
            coordinator: procstat::thread_cpu(),
            probe_runs: housekeeping.probe.runs,
            probe_cpu: housekeeping.probe.cpu,
        }
    }
}

/// What the host-speed probe cost per run between two edges, in ns; `None`
/// when it did not run.
pub fn probe_ns(from: &CpuEdge, to: &CpuEdge) -> Option<f64> {
    let runs = to
        .probe_runs
        .checked_sub(from.probe_runs)
        .filter(|&n| n > 0)?;
    Some(to.probe_cpu.saturating_sub(from.probe_cpu).as_nanos() as f64 / runs as f64)
}

/// Walks the paced phase `[start, end)` from edge to edge, reading the CPU
/// clocks at every `PACED_SLICE` boundary and at the end; between edges it
/// keeps house.
pub fn watch_paced_phase(
    clock: Clock,
    start: Instant,
    end: Instant,
    housekeeping: &mut Housekeeping,
) -> Vec<CpuEdge> {
    let mut edges = Vec::new();
    let mut at = start;
    loop {
        housekeeping.until(at);
        edges.push(CpuEdge::now(clock, housekeeping));
        if at >= end {
            return edges;
        }
        // A last slice shorter than half a slice merges into the one before.
        at = if end - at < PACED_SLICE * 3 / 2 {
            end
        } else {
            at + PACED_SLICE
        };
    }
}

/// Wall-clock bounds of the paced phase as the coordinator saw them.
pub fn paced_wall(edges: &[CpuEdge]) -> (u64, u64) {
    match (edges.first(), edges.last()) {
        (Some(first), Some(last)) => (first.wall_ns, last.wall_ns),
        _ => (0, 0),
    }
}

/// Everything a finished run recorded.
pub struct History {
    pub statements: Statements,
    pub plan: BatchPlan,
    pub log: BatchLog,
    pub received: Received,
    /// CPU clocks at the paced phase's slice edges.
    pub paced_edges: Vec<CpuEdge>,
    pub setup_s: f64,
    /// Batches that must have been acked (network) — `None` in-process,
    /// where the ingest call's return is the ack.
    pub acks_expected: Option<u64>,
}

/// End-to-end figures of one run plus the detail the trace report needs.
pub struct Analysis {
    pub end_to_end: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<Violations>,
    /// Sorted window latencies (ms) of the first statement, paced phase.
    pub latencies_ms: Vec<f64>,
    /// CPU of the system under test over the paced phase, as measured (not
    /// scaled to the reference host speed).
    pub system_cpu: Duration,
    /// What a probe run cost over the paced phase, µs.
    pub host_probe_us: f64,
    pub paced_rows: u64,
    pub windows_delivered: u64,
    pub reference_mrows_s: f64,
    // What the trace report is built from.
    pub statements: Statements,
    pub plan: BatchPlan,
    pub log: BatchLog,
    pub ack_ns: Vec<u64>,
    /// Receive time per window of the first statement (`u64::MAX` = never).
    pub recv_ns: Vec<u64>,
    /// The reference's rows for each statement's checked prefix.
    pub reference_rows: Vec<RowBuffer>,
    pub receiver_cpu: Duration,
    pub deliveries: u64,
}

/// Reference output for the checked prefix, and how fast the reference ran.
fn reference_prefix(query: &Query, shape: &QueryShape, pool: &mut Pool) -> (RowBuffer, f64) {
    let input = pool.prefix(shape.prefix_input_rows());
    let started = Instant::now();
    let rows = reference::run_single_input(query, &input).expect("reference supports the query");
    let mrows_s = input.len() as f64 / started.elapsed().as_secs_f64() / 1e6;
    (rows, mrows_s)
}

/// Length of the slices the load phase is cut into for the throughput figure.
const SLICE_NS: u64 = 500_000_000;

/// The `p`-percentile of `samples` (`(time ns, value)`) within each slice
/// `(edges[i], edges[i+1]]`, then the median over the slices that have
/// samples. Within a slice the level drops to what its sample count supports.
pub fn median_over_slices(samples: &[(u64, f64)], edges: &[u64], p: f64) -> f64 {
    let per_slice: Vec<f64> = edges
        .windows(2)
        .filter_map(|edge| {
            let values = stats::sorted(
                samples
                    .iter()
                    .filter(|(t, _)| *t > edge[0] && *t <= edge[1])
                    .map(|(_, v)| *v)
                    .collect(),
            );
            (!values.is_empty()).then(|| stats::supported_percentile(&values, p))
        })
        .collect();
    stats::median(&per_slice)
}

/// Rows per second over `(from, to]` as the median of the rates of its whole
/// `SLICE_NS` slices — one scheduling hiccup moves a slice, not the figure.
/// `arrivals` are `(receive ns, input rows the window advances)`. Phases
/// shorter than three slices report the plain rate.
pub fn median_slice_rate(arrivals: &[(u64, u64)], (from, to): (u64, u64)) -> f64 {
    let slices = (to.saturating_sub(from) / SLICE_NS) as usize;
    if slices < 3 {
        let rows: u64 = arrivals.iter().map(|(_, r)| r).sum();
        return rows as f64 / (to.saturating_sub(from).max(1) as f64 / 1e9);
    }
    let mut rows = vec![0u64; slices];
    for &(t, r) in arrivals {
        let slice = (t.saturating_sub(from + 1) / SLICE_NS) as usize;
        if slice < slices {
            rows[slice] += r;
        }
    }
    let rates: Vec<f64> = rows
        .iter()
        .map(|&r| r as f64 / (SLICE_NS as f64 / 1e9))
        .collect();
    stats::median(&rates)
}

pub fn analyze(cfg: &RunConfig, history: History, pool: &mut Pool) -> Analysis {
    let History {
        statements,
        plan,
        log,
        received,
        paced_edges,
        setup_s,
        acks_expected,
    } = history;
    let batch_rows = cfg.workload.batch_rows;
    let total_rows = log.batches() * batch_rows as u64;
    let paced = plan.paced_range();
    let select_rows = pool.select_rows_through(log.batches());

    // Output check, statement by statement.
    let mut violations = Vec::new();
    let mut recv_times = Vec::new();
    let mut windows_expected = 0;
    let mut reference_mrows_s = 0.0;
    let mut all_reference_rows = Vec::new();
    for ((query, shape), checker) in statements
        .queries
        .iter()
        .zip(&statements.shapes)
        .zip(received.checkers)
    {
        let expected = shape.complete_windows(total_rows);
        windows_expected += expected;
        let (reference_rows, mrows_s) = reference_prefix(query, shape, pool);
        reference_mrows_s = mrows_s;
        let expected_rows = (!shape.aggregate).then_some(select_rows);
        let (v, times) = checker.finish(expected, expected_rows, &reference_rows);
        violations.push(v);
        recv_times.push(times);
        all_reference_rows.push(reference_rows);
    }

    // Window latency of the first statement: receive time minus the due time
    // of the batch that completed the window, paced phase only. Each sample
    // keeps its due time, which places it in a slice.
    let shape0 = &statements.shapes[0];
    let timed_latencies: Vec<(u64, f64)> = recv_times[0]
        .iter()
        .enumerate()
        .filter(|(_, &t)| t != u64::MAX)
        .filter_map(|(w, &t)| {
            let batch = shape0.closing_batch(w as u64, batch_rows);
            let due = *log.due_ns.get(batch as usize)?;
            paced
                .contains(&batch)
                .then(|| (due, t.saturating_sub(due) as f64 / 1e6))
        })
        .collect();
    let mut latencies_ms: Vec<f64> = timed_latencies.iter().map(|(_, ms)| *ms).collect();
    latencies_ms.sort_by(f64::total_cmp);
    let slice_edges: Vec<u64> = paced_edges.iter().map(|e| e.wall_ns).collect();
    let latency_p50 = median_over_slices(&timed_latencies, &slice_edges, 0.5);
    let latency_p95 = median_over_slices(&timed_latencies, &slice_edges, 0.95);

    // Throughput: input rows whose windows arrived during the load phase
    // (the paced phase itself where there is no closed-loop phase).
    let load = if cfg.workload.closed_loop_phase {
        log.load_ns
    } else {
        paced_wall(&paced_edges)
    };
    let mut arrivals: Vec<(u64, u64)> = Vec::new();
    let mut windows_delivered = 0u64;
    for (shape, times) in statements.shapes.iter().zip(&recv_times) {
        let delivered = times.iter().filter(|&&t| t != u64::MAX);
        windows_delivered += delivered.clone().count() as u64;
        arrivals.extend(
            delivered
                .filter(|&&t| t > load.0 && t <= load.1)
                .map(|&t| (t, shape.step())),
        );
    }
    let throughput = median_slice_rate(&arrivals, load) / 1e6;

    // CPU of the system under test per million rows offered: per slice of
    // the paced phase, then the median over slices.
    let own_cpu_at = |t_ns: u64| {
        // Generator CPU as of the last batch due by `t_ns`.
        let batch = log.due_ns.partition_point(|&due| due <= t_ns);
        Duration::from_nanos(batch.checked_sub(1).map_or(0, |b| log.own_cpu_ns[b]))
    };
    let queries = statements.queries.len() as u64;
    let mut system_cpu = Duration::ZERO;
    let mut slice_costs = Vec::new();
    for pair in paced_edges.windows(2) {
        let (from, to) = (pair[0], pair[1]);
        let cpu = procstat::system_cpu(
            to.process.saturating_sub(from.process),
            own_cpu_at(to.wall_ns).saturating_sub(own_cpu_at(from.wall_ns))
                + to.coordinator.saturating_sub(from.coordinator),
            received
                .cpu
                .iter()
                .map(|samples| samples.between((from.wall_ns, to.wall_ns)))
                .sum(),
        );
        system_cpu += cpu;
        let offered = log.due_ns[paced.start as usize..paced.end as usize]
            .iter()
            .filter(|&&due| due > from.wall_ns && due <= to.wall_ns)
            .count() as u64
            * batch_rows as u64
            * queries;
        if offered > 0 {
            // At the reference host speed: what the slice cost, scaled by
            // how much slower or faster than the reference the probe ran in
            // that same slice.
            let speed = probe_ns(&from, &to).map_or(1.0, |ns| PROBE_REFERENCE_NS / ns);
            slice_costs.push(cpu.as_secs_f64() * speed / (offered as f64 / 1e6));
        }
    }
    let paced_rows = plan.paced * batch_rows as u64 * queries;
    let cpu_s_per_mrow = stats::median(&slice_costs);
    let host_probe_us = match (paced_edges.first(), paced_edges.last()) {
        (Some(first), Some(last)) => probe_ns(first, last).unwrap_or(0.0) / 1e3,
        _ => 0.0,
    };

    // Failures over attempts: batches refused, unacked or answered Err, plus
    // windows missing, duplicated, out of order or unequal to the reference.
    let unacked = acks_expected.map_or(0, |n| n.saturating_sub(received.ack_ns.len() as u64));
    let failed = log.refused
        + unacked
        + received.err_acks
        + received.garbled
        + violations.iter().map(|v| v.total()).sum::<u64>();
    let attempted = log.batches() + windows_expected;

    let end_to_end = vec![
        ("setup_s", setup_s),
        ("throughput_mrows_s", throughput),
        ("latency_ms_p50", latency_p50),
        ("latency_ms_p95", latency_p95),
        ("cpu_s_per_mrow", cpu_s_per_mrow),
        ("peak_rss_mb", procstat::peak_rss_mb()),
    ];
    Analysis {
        end_to_end,
        attempted,
        failed,
        violations,
        latencies_ms,
        system_cpu,
        host_probe_us,
        paced_rows,
        windows_delivered,
        reference_mrows_s,
        receiver_cpu: received.cpu.iter().map(|s| s.at(u64::MAX)).sum(),
        deliveries: received.deliveries,
        recv_ns: recv_times.swap_remove(0),
        reference_rows: all_reference_rows,
        ack_ns: received.ack_ns,
        statements,
        plan,
        log,
    }
}

/// The JSON line a child run prints for its parent.
pub fn result_json(analysis: &Analysis, layers: &[(&'static str, f64)]) -> Json {
    let metrics = |pairs: &[(&'static str, f64)]| {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                .collect(),
        )
    };
    let mut out = Json::obj();
    out.set("attempted", Json::Num(analysis.attempted as f64));
    out.set("failed", Json::Num(analysis.failed as f64));
    out.set(
        "latency_samples",
        Json::Num(analysis.latencies_ms.len() as f64),
    );
    out.set(
        "violations",
        Json::Arr(
            analysis
                .violations
                .iter()
                .map(|v| Json::Str(format!("{v:?}")))
                .collect(),
        ),
    );
    out.set("end_to_end", metrics(&analysis.end_to_end));
    out.set("per_layer", metrics(layers));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn batch_plans_end_on_window_boundaries() {
        for w in &spec::WORKLOADS {
            let cfg = RunConfig {
                workload: w,
                seed: 1,
                seconds: 4.0,
                warmup_s: 1.0,
                trace: false,
                setup_only: false,
                late_subscriber: false,
            };
            let plan = cfg.batch_plan();
            for n in [plan.setup, plan.warm, plan.paced] {
                assert!(n > 0);
                assert_eq!(n * w.batch_rows as u64 % 1024, 0, "{}", w.name);
            }
            assert_eq!(plan.setup as usize * w.batch_rows, SETUP_ROWS);
            assert_eq!(cfg.paced_seconds() + cfg.load_seconds(), 4.0);
            assert_eq!(plan.paced_range().start, plan.setup + plan.warm);
        }
    }

    #[test]
    fn throughput_is_the_median_slice_rate() {
        // Four slices of 0.5 s: 100, 100, 10 (a hiccup) and 100 rows.
        let slice = SLICE_NS;
        let mut arrivals = Vec::new();
        for (i, rows) in [100u64, 100, 10, 100].iter().enumerate() {
            arrivals.push((1000 + i as u64 * slice + slice / 2, *rows));
        }
        assert_eq!(
            median_slice_rate(&arrivals, (1000, 1000 + 4 * slice)),
            200.0
        );
        // Too short to slice: plain rate over the interval.
        assert_eq!(median_slice_rate(&[(10, 50)], (0, slice)), 100.0);
    }

    #[test]
    fn slice_percentiles_shrug_off_one_bad_slice() {
        // Three slices of 100 samples at 1.0; the middle one stalled at 500.
        let mut samples = Vec::new();
        for slice in 0..3u64 {
            for i in 0..100u64 {
                let value = if slice == 1 { 500.0 } else { 1.0 };
                samples.push((slice * 1000 + i + 1, value));
            }
        }
        let edges = [0, 1000, 2000, 3000];
        assert_eq!(median_over_slices(&samples, &edges, 0.5), 1.0);
        assert_eq!(median_over_slices(&samples, &edges, 0.95), 1.0);
        // Samples outside every slice are ignored; no slices, no figure.
        assert_eq!(median_over_slices(&[(5000, 9.0)], &edges, 0.5), 0.0);
    }

    #[test]
    fn paced_phase_edges_are_a_slice_apart_and_end_on_the_phase_end() {
        let clock = Clock::start();
        let start = Instant::now();
        let mut housekeeping = Housekeeping::default();
        let edges = watch_paced_phase(
            clock,
            start,
            start + Duration::from_millis(2400),
            &mut housekeeping,
        );
        assert_eq!(
            edges.len(),
            3,
            "1 s, then a 1.4 s tail merged into one slice"
        );
        let (from, to) = paced_wall(&edges);
        assert!((2_400_000_000..2_500_000_000).contains(&(to - from)));
        // The probe ran in every slice, a round each few milliseconds.
        assert_eq!(probe_ns(&edges[0], &edges[0]), None);
        for pair in edges.windows(2) {
            assert!(pair[1].probe_runs - pair[0].probe_runs > 20);
            assert!(probe_ns(&pair[0], &pair[1]).unwrap() > 0.0);
        }
    }

    #[test]
    fn receiver_cpu_is_read_at_the_last_sample_not_after_the_instant() {
        let ms = Duration::from_millis;
        let samples = CpuSamples(vec![(100, ms(1)), (200, ms(3)), (300, ms(6))]);
        assert_eq!(samples.at(50), Duration::ZERO);
        assert_eq!(samples.at(200), ms(3));
        assert_eq!(samples.at(250), ms(3));
        assert_eq!(samples.between((150, 1000)), ms(5));
    }
}
