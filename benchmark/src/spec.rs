//! The benchmark's fixed tables: workloads, end-to-end metrics with their
//! regression bounds, per-layer metric names, and the `BENCHMARK.json`
//! manifest rendered from them (so the file and the binary cannot drift;
//! a unit test compares the two).

use crate::json::Json;

/// How a workload reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `IngestHandle::ingest` and a sink callback, no sockets.
    InProc,
    /// `Server::bind` on loopback, binary frames both ways.
    NetBinary,
    /// Same server, text lines both ways.
    NetText,
}

/// The selection every workload but `net_text_dash` runs (q1 on the hybrid
/// mix): stateless, SIMD columnar kernel, half the rows pass.
pub const SELECT_SQL: &str = "SELECT * FROM Syn [ROWS 1024] WHERE a2 < 32";
/// The sliding GROUP-BY (q0): Row-tier kernel, fragment assembly across
/// tasks.
pub const GROUP_SQL: &str = "SELECT timestamp, a2, COUNT(*) AS cnt, SUM(a1) AS s \
     FROM Syn [ROWS 1024 SLIDE 512] GROUP BY a2";
/// `CREATE STREAM` argument form of the `Syn` schema.
pub const SYN_DEFINITION: &str =
    "Syn (timestamp TIMESTAMP, a1 FLOAT, a2 INT, a3 INT, a4 INT, a5 INT, a6 INT)";

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers it stresses.
    pub why: &'static str,
    pub transport: Transport,
    /// Hybrid (CPU worker + simulated accelerator) instead of `CpuOnly`.
    pub hybrid: bool,
    /// WAL on (group commit + fsync defaults).
    pub wal: bool,
    /// Distinct statements fed the same batches; latency is reported for
    /// the first.
    pub queries: &'static [&'static str],
    /// How many times the first statement is registered (1 anchor +
    /// followers sharing its plan); the subscriber watches the last copy.
    pub copies: usize,
    /// Rows per `ingest` call / `Insert` frame / `INSERT` line.
    pub batch_rows: usize,
    /// Open-loop rate of the paced phase, rows per second per query.
    pub paced_rows_per_s: f64,
    /// Whether a closed-loop saturating phase follows the paced one. The
    /// `net_*` workloads have none: a blocked producer stalls on the
    /// server's 500 ms housekeeping grid and is bimodal run to run.
    pub closed_loop_phase: bool,
}

/// In-process batch size. The dispatcher cuts a task (all pending rows) once
/// 1 MB = 32 K rows are pending, so 12 K-row batches make three-batch tasks:
/// a third of the windows wait two batch intervals for the cut, a third one,
/// a third none, and the median sits inside the middle group. With 16 K rows
/// (two batches per task) it sits on the edge between two groups and flips
/// by a whole interval from run to run.
const IN_PROCESS_BATCH_ROWS: usize = 12 * 1024;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc_select",
        why: "in-process cheap SIMD select: ring copy, dispatcher cut, queue, reorder and sink dominate; net, store, gpu idle",
        transport: Transport::InProc,
        hybrid: false,
        wal: false,
        queries: &[SELECT_SQL],
        copies: 1,
        batch_rows: IN_PROCESS_BATCH_ROWS,
        paced_rows_per_s: 16.0e6,
        closed_loop_phase: true,
    },
    Workload {
        name: "inproc_hybrid_mix",
        why: "in-process Hybrid, sliding GROUP-BY plus select: HLS, throughput matrix, accelerator pipeline and the Row interpreter do the work",
        transport: Transport::InProc,
        hybrid: true,
        wal: false,
        queries: &[GROUP_SQL, SELECT_SQL],
        copies: 1,
        batch_rows: IN_PROCESS_BATCH_ROWS,
        paced_rows_per_s: 2.0e6,
        closed_loop_phase: true,
    },
    Workload {
        name: "net_binary_wal",
        why: "loopback binary protocol with WAL: wire decode, dispatch pool, group commit, broadcaster and Data encode carry the row; open loop",
        transport: Transport::NetBinary,
        hybrid: false,
        wal: true,
        queries: &[SELECT_SQL],
        copies: 1,
        batch_rows: 1024,
        paced_rows_per_s: 1.0e6,
        closed_loop_phase: false,
    },
    Workload {
        name: "net_text_dash",
        why: "loopback text protocol, one GROUP-BY registered 100 times: CSV parse, ROW formatting, plan sharing and follower demux; open loop",
        transport: Transport::NetText,
        hybrid: false,
        wal: false,
        queries: &[GROUP_SQL],
        copies: 100,
        batch_rows: 256,
        paced_rows_per_s: 0.2e6,
        closed_loop_phase: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seconds one driver run measures (`run_seconds` of the manifest): 92 runs
/// with their set-up, warm-up and two builds must fit the driver's 3420 s.
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric and the share of the parent's median by which it
/// may get worse before `compare` calls a regression. Each bound is the
/// larger of the issue's suggestion and three times the widest quartile
/// distance over the median that ten-seed studies on the 2-vCPU calibration
/// box showed (the driver wants a run-to-run spread within a third of the
/// bound), capped at the contract's 25 % — which is where all six end up:
/// throughput 7 % and the latencies 9 % (both follow the host's speed, which
/// wanders by ±20 % over minutes), CPU per row 9 % (`net_binary_wal`, whose
/// kernel-side work does not follow the host-speed probe; 2–6 % elsewhere),
/// peak RSS a 25 MB swell in one run of six of `net_binary_wal` on 95 MB.
/// See README.md, "Bounds".
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_mrows_s",
        unit: "Mrows/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p95",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_mrow",
        unit: "s/Mrow",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer metrics: `(name, unit, higher_is_better)`. Every traced run
/// reports all of them; a layer the workload does not cross reads 0.
pub const PER_LAYER: [(&str, &str, bool); 63] = [
    ("gen.lag_ms_p99", "ms", false),
    ("gen.cpu_s", "s", false),
    ("host.probe_us", "us", false),
    ("engine.ingest_call_us_p50", "us", false),
    ("engine.ingest_call_us_p99", "us", false),
    ("engine.backpressure_wait_share", "share", false),
    ("engine.tasks_total", "count", false),
    ("engine.queue_depth_peak", "count", false),
    ("engine.physical_plans", "count", false),
    ("engine.ring_insert_ns_per_kb", "ns/KB", false),
    ("engine.dispatch_cut_us_per_task", "us", false),
    ("engine.sched_next_task_ns", "ns", false),
    ("engine.sink_append_us_per_batch", "us", false),
    ("engine.stage.ingest_wait_ms_p50", "ms", false),
    ("engine.stage.queue_ms_p50", "ms", false),
    ("engine.stage.schedule_ms_p50", "ms", false),
    ("engine.stage.exec_ms_p50", "ms", false),
    ("engine.stage.deliver_ms_p50", "ms", false),
    ("engine.stage.total_ms_p50", "ms", false),
    ("engine.stage.total_ms_p99", "ms", false),
    ("cpu.exec_ns_per_row_q0", "ns/row", false),
    ("cpu.exec_ns_per_row_q1", "ns/row", false),
    ("gpu.exec_ns_per_row_q0", "ns/row", false),
    ("gpu.exec_ns_per_row_q1", "ns/row", false),
    ("gpu.task_share_q0", "share", true),
    ("gpu.task_share_q1", "share", true),
    ("gpu.kernel_s", "s", false),
    ("gpu.movement_s", "s", false),
    ("gpu.pcie_bytes", "bytes", false),
    ("net.ack_ms_p50", "ms", false),
    ("net.ack_ms_p99", "ms", false),
    ("net.acks_over_100ms", "count", false),
    ("net.bytes_read_per_row", "bytes/row", false),
    ("net.bytes_written_per_row", "bytes/row", false),
    ("net.wire_decode_ns_per_row", "ns/row", false),
    ("net.wire_encode_ns_per_row", "ns/row", false),
    ("server.parse_insert_ns_per_row", "ns/row", false),
    ("server.format_rows_ns_per_row", "ns/row", false),
    ("server.query_register_ms", "ms", false),
    ("sql.compile_us", "us", false),
    ("store.append_ns_per_kb", "ns/KB", false),
    ("store.sync_ms", "ms", false),
    ("store.wal_bytes_per_row", "bytes/row", false),
    ("obs.hist_record_ns", "ns", false),
    ("reference.mrows_s", "Mrows/s", true),
    ("e2e.latency_ms_p99", "ms", false),
    ("e2e.latency_ms_max", "ms", false),
    ("e2e.stalls_over_100ms", "count", false),
    ("e2e.latency_samples", "count", true),
    ("e2e.windows_delivered", "count", true),
    ("trace.cpu_s_per_mrow", "s/Mrow", false),
    ("trace.overhead_pct", "%", false),
    ("trace.latency_gap_ms_p50", "ms", false),
    ("trace.cpu_gap_share", "share", false),
    ("trace.span.gen_lag_ms_p50", "ms", false),
    ("trace.span.handover_ms_p50", "ms", false),
    ("trace.span.engine_after_cut_ms_p50", "ms", false),
    ("trace.span.fill_wait_ms_p50", "ms", false),
    ("trace.isolated_ns_per_row", "ns/row", false),
    ("trace.system_ns_per_row", "ns/row", false),
    ("trace.spans_recorded", "count", true),
    ("recv.cpu_s", "s", false),
    ("recv.deliveries", "count", false),
];

/// The manifest's word for a metric's good direction.
pub fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// Renders `BENCHMARK.json` (pretty, stable key order).
pub fn manifest() -> String {
    let s = |v: &str| Json::Str(v.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(better(m.higher_is_better))),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, higher)| {
                        Json::Obj(vec![
                            ("name".into(), s(name)),
                            ("unit".into(), s(unit)),
                            ("better".into(), s(better(*higher))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed.trim_end(),
            manifest().trim_end(),
            "regenerate with `saber-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name));
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(ok_name(name) && ok_unit(unit), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && !m.higher_is_better && m.unit == "s"));
    }
}
