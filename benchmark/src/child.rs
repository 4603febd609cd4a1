//! One run in one process: drive the workload, check its output, and — in a
//! traced run — take the per-layer figures and write the spans.

use crate::gen::Pool;
use crate::json::Json;
use crate::layers;
use crate::run::{analyze, result_json, Analysis, RunConfig};
use crate::spec::Transport;
use crate::stats;
use crate::trace::{build_spans, span_median_ms, write_spans, Layers};
use crate::{inproc, net};
use std::path::Path;

/// A latency this far above the median counts as a stall.
const STALL_MS: f64 = 100.0;

fn durations_ms(from: &[u64], to: &[u64], range: std::ops::Range<u64>) -> Vec<f64> {
    let range = range.start as usize..(range.end as usize).min(from.len()).min(to.len());
    stats::sorted(
        range
            .map(|i| to[i].saturating_sub(from[i]) as f64 / 1e6)
            .collect(),
    )
}

/// The in-situ layer figures every traced run takes from its own history.
fn in_situ(cfg: &RunConfig, analysis: &Analysis, layers: &mut Layers, results_dir: &Path) {
    let log = &analysis.log;
    let paced = analysis.plan.paced_range();
    let lag = durations_ms(&log.due_ns, &log.sent_ns, paced.clone());
    layers.set("gen.lag_ms_p99", stats::supported_percentile(&lag, 0.99));
    layers.set("gen.cpu_s", log.thread_cpu.as_secs_f64());
    layers.set("recv.cpu_s", analysis.receiver_cpu.as_secs_f64());
    layers.set("recv.deliveries", analysis.deliveries as f64);
    let handover = durations_ms(&log.sent_ns, &log.done_ns, paced.clone());
    if cfg.workload.transport == Transport::InProc {
        layers.set(
            "engine.ingest_call_us_p50",
            stats::percentile(&handover, 0.5) * 1e3,
        );
        layers.set(
            "engine.ingest_call_us_p99",
            stats::supported_percentile(&handover, 0.99) * 1e3,
        );
    } else {
        let acks = durations_ms(&log.sent_ns, &analysis.ack_ns, paced.clone());
        layers.set("net.ack_ms_p50", stats::percentile(&acks, 0.5));
        layers.set("net.ack_ms_p99", stats::supported_percentile(&acks, 0.99));
        layers.set(
            "net.acks_over_100ms",
            acks.iter().filter(|&&ms| ms > STALL_MS).count() as f64,
        );
    }

    let lat = &analysis.latencies_ms;
    let p50 = stats::percentile(lat, 0.5);
    layers.set("e2e.latency_ms_p99", stats::supported_percentile(lat, 0.99));
    layers.set("e2e.latency_ms_max", lat.last().copied().unwrap_or(0.0));
    layers.set(
        "e2e.stalls_over_100ms",
        lat.iter().filter(|&&ms| ms > p50 + STALL_MS).count() as f64,
    );
    layers.set("e2e.latency_samples", lat.len() as f64);
    layers.set("e2e.windows_delivered", analysis.windows_delivered as f64);
    layers.set("reference.mrows_s", analysis.reference_mrows_s);

    // Spans, and the budget they leave unexplained: the median window
    // latency minus the medians of the spans on a window's path — generator
    // lag, hand-over, the wait for its task to fill, and the engine's own
    // stages after the cut. Over a socket the remainder is wire, dispatch
    // pool, broadcaster and outbox, which no benchmark-side span covers.
    let spans = build_spans(
        log,
        &analysis.ack_ns,
        paced,
        &analysis.statements.shapes[0],
        cfg.workload.batch_rows,
        &analysis.recv_ns,
    );
    let path = [
        (
            "trace.span.gen_lag_ms_p50",
            span_median_ms(&spans, "gen.lag"),
        ),
        (
            "trace.span.handover_ms_p50",
            span_median_ms(&spans, "handover"),
        ),
        (
            "trace.span.fill_wait_ms_p50",
            span_median_ms(&spans, "fill_wait"),
        ),
        (
            "trace.span.engine_after_cut_ms_p50",
            layers.engine_after_cut_ms(),
        ),
    ];
    for (name, ms) in path {
        layers.set(name, ms);
    }
    let explained: f64 = path.iter().map(|(_, ms)| ms).sum();
    layers.set("trace.latency_gap_ms_p50", p50 - explained);
    layers.set("trace.spans_recorded", spans.len() as f64);
    let file = results_dir.join(format!("trace-{}.json", cfg.workload.name));
    if let Err(e) = write_spans(&file, cfg.workload.name, &spans) {
        eprintln!("could not write {}: {e}", file.display());
    }
}

/// Runs `cfg` in this process and returns the result object the parent
/// reads (`{"setup_s": …}` alone for a set-up-only run).
pub fn run(cfg: &RunConfig, results_dir: &Path) -> Result<Json, String> {
    let mut pool = Pool::generate(cfg.seed, cfg.workload.batch_rows);
    let mut layers = Layers::new();
    let history = match cfg.workload.transport {
        Transport::InProc => inproc::run(cfg, &mut pool, &mut layers),
        _ => net::run(cfg, &mut pool, &mut layers, results_dir).map_err(|e| e.to_string())?,
    };
    if cfg.setup_only {
        let mut out = Json::obj();
        out.set("setup_s", Json::Num(history.setup_s));
        return Ok(out);
    }
    let analysis = analyze(cfg, history, &mut pool);
    if !cfg.trace {
        return Ok(result_json(&analysis, &[]));
    }
    in_situ(cfg, &analysis, &mut layers, results_dir);
    let isolated = layers::measure(
        cfg,
        &analysis.statements,
        &analysis.reference_rows,
        &mut pool,
        results_dir,
        &mut layers,
    );
    // The budget check compares like with like: the isolated replays ran on
    // this host at its speed of the moment, so the system's CPU is taken as
    // measured. The traced run's `cpu_s_per_mrow` (at reference speed, as the
    // untraced run reports it) is what the tracing overhead is figured from.
    let system_ns_per_row =
        analysis.system_cpu.as_secs_f64() / (analysis.paced_rows as f64 / 1e6) * 1e3;
    let traced_cpu = analysis
        .end_to_end
        .iter()
        .find(|(name, _)| *name == "cpu_s_per_mrow")
        .map_or(0.0, |(_, v)| *v);
    layers.set("trace.cpu_s_per_mrow", traced_cpu);
    layers.set("host.probe_us", analysis.host_probe_us);
    layers.set("trace.isolated_ns_per_row", isolated.ns_per_row);
    layers.set("trace.system_ns_per_row", system_ns_per_row);
    layers.set(
        "trace.cpu_gap_share",
        1.0 - isolated.ns_per_row / system_ns_per_row.max(1e-9),
    );
    Ok(result_json(&analysis, &layers.into_pairs()))
}
